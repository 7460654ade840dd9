"""Metric-preserving time evolution and the two-level model generator.

The propagator of a metric-pseudo-Hermitian H conserves the indefinite inner
product (``U(t)^dag eta U(t) = eta``), so Krein norms are constants of motion
even when H is not Hermitian.  Transition probabilities are exposed only for
positive definite metrics, where ``|<<final, U(t) initial>>|^2`` with
metric-normalized states is a genuine probability.

Both series step across the grid instead of exponentiating at every point:
``psi(t_k) = exp(-i H (t_k - t_prev)) psi(t_prev)``, walking out from t = 0,
with one ``expm`` per distinct floating-point gap (a 200-point ``linspace``
grid has about ten).  ``Overflow`` is decided on max |t| over the grid.

``mashhoon_papini`` builds the two-level effective Hamiltonian

    H_eff = [[E, i r], [-i s, E]]

(spin motion with dissipation; E, r, s real) together with a chain basis in
fixed conventions, so that the symmetry constructions downstream produce
closed-form matrices.  The spectral character switches with the sign of
``r*s``: real nondegenerate, complex-conjugate pair, or a single 2x2 Jordan
block on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import IndefiniteMetric, NotPseudoHermitian
from .krein import krein_inner
from .linalg import DEFAULT_TOL, Tolerance
from .spectral import (
    MINUS,
    PLUS,
    REAL,
    EigenGroup,
    JordanChain,
    SpectralDecomposition,
    is_pseudo_hermitian,
)

REGIME_REAL = "RealNondegenerate"
REGIME_COMPLEX = "ComplexPair"
REGIME_JORDAN = "JordanBlock"
REGIME_SCALAR = "Scalar"


@dataclass(frozen=True)
class EvolutionRequest:
    h: np.ndarray
    metric: np.ndarray
    initial_state: np.ndarray
    t_grid: tuple[float, ...]
    tol: Tolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        h = linalg.as_cmatrix(self.h)
        metric = linalg.as_cmatrix(self.metric)
        if metric.shape != h.shape:
            raise ValueError("metric and Hamiltonian dimensions differ")
        state = linalg.as_vector(self.initial_state, h.shape[0])
        if np.linalg.norm(state) == 0:
            raise ValueError("initial state is zero")
        grid = tuple(float(t) for t in self.t_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("time grid must be non-empty and strictly increasing")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "t_grid", grid)


@dataclass(frozen=True)
class MashhoonPapiniParams:
    e: float
    r: float
    s: float

    def __post_init__(self):
        for name in ("e", "r", "s"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, val)


def propagator(h, t: float) -> np.ndarray:
    """Evolution operator ``exp(-i H t)``."""
    h = linalg.as_cmatrix(h)
    return linalg.expm(-1j * float(t) * h)


def metric_normalize(state, metric) -> np.ndarray:
    """Scale a state to unit metric norm (positive definite metrics only)."""
    nrm = krein_inner(state, state, metric).real
    if nrm <= 0:
        raise IndefiniteMetric("state has non-positive metric norm; cannot normalize")
    return linalg.as_vector(state) / np.sqrt(nrm)


def _states(h, state, grid) -> np.ndarray:
    """Columns ``U(t_k) state`` over a strictly increasing grid.

    Walks out from t = 0, up through the points t >= 0 and down through the
    points t < 0, one step propagator per distinct gap.  Walking from zero
    keeps every gap within max |t|, so a grid is refused with ``Overflow``
    exactly when a propagator at one of its points would be.
    """
    linalg.check_expm_bound(-1j * max(grid, key=abs) * h)
    out = np.empty((state.shape[0], len(grid)), dtype=np.complex128, order="F")
    steps = {}
    first_nonneg = sum(t < 0 for t in grid)
    for walk in (range(first_nonneg, len(grid)), range(first_nonneg - 1, -1, -1)):
        psi, t_prev = state, 0.0
        for k in walk:
            gap = grid[k] - t_prev
            if gap not in steps:
                steps[gap] = propagator(h, gap)
            psi = out[:, k] = steps[gap] @ psi
            t_prev = grid[k]
    return out


def transition_probability(req: EvolutionRequest, final_state) -> list[float]:
    """``|<<final, U(t) initial>>|^2`` over the time grid, with both states
    metric-normalized.  Requires a positive definite metric."""
    if not linalg.is_positive_definite(req.metric, req.tol):
        raise IndefiniteMetric(
            "transition probabilities are defined only for positive definite "
            "metrics; use krein_norm_series for indefinite ones")
    initial = metric_normalize(req.initial_state, req.metric)
    final = metric_normalize(final_state, req.metric)
    amplitudes = (final.conj() @ req.metric) @ _states(req.h, initial, req.t_grid)
    return (np.abs(amplitudes) ** 2).tolist()


def krein_norm_series(req: EvolutionRequest) -> list[float]:
    """``<<psi(t), psi(t)>>`` over the grid; constant in time whenever H is
    metric-pseudo-Hermitian (which is checked up front)."""
    if not is_pseudo_hermitian(req.h, req.metric, req.tol):
        raise NotPseudoHermitian(
            "H is not pseudo-Hermitian with respect to this metric; the Krein "
            "norm is not conserved")
    psi = _states(req.h, req.initial_state, req.t_grid)
    return np.sum(psi.conj() * (req.metric @ psi), axis=0).real.tolist()


def _chain(psi_vectors, phi_vectors) -> JordanChain:
    return JordanChain(psi=np.array(psi_vectors, dtype=np.complex128),
                       phi=np.array(phi_vectors, dtype=np.complex128))


def mashhoon_papini(params: MashhoonPapiniParams):
    """Two-level effective Hamiltonian with a fixed-convention chain basis.

    Returns ``(H_eff, regime, decomposition)``.  The basis conventions per
    regime (rt2 = sqrt(2)):

    - ``r s > 0`` (real nondegenerate), kappa = sqrt(r/s):
      eigenvalue ``E + sqrt(rs)`` first with psi = (i sign(r) kappa, 1)/rt2,
      phi = (i sign(r)/kappa, 1)/rt2; the ``E - sqrt(rs)`` partner carries
      the opposite signs in the first component.
    - ``r s < 0`` (conjugate pair), kappa = sqrt(|r/s|):
      eigenvalue ``E - i sqrt(|rs|)`` first with
      psi = (-sign(r) kappa, 1)/rt2, phi = (-sign(r)/kappa, 1)/rt2; the
      conjugate partner flips the first component's sign.
    - ``s = 0, r != 0`` (Jordan block): chain psi = [(1,0), (i/r)(1,-1)]
      with duals phi = [(1,1), (0,-i r)]; mirrored for ``r = 0, s != 0``.
    - ``r = s = 0``: scalar E times the identity, standard basis.
    """
    e, r, s = params.e, params.r, params.s
    h = np.array([[e, 1j * r], [-1j * s, e]], dtype=np.complex128)
    rt2 = np.sqrt(2.0)

    if r * s > 0:
        kappa = np.sqrt(r / s)
        gap = np.sqrt(r * s)
        sgn = 1.0 if r > 0 else -1.0
        groups = (
            EigenGroup(eigenvalue=complex(e + gap), kind=REAL, pair_id=None,
                       chains=(_chain([[1j * sgn * kappa / rt2, 1 / rt2]],
                                      [[1j * sgn / (kappa * rt2), 1 / rt2]]),)),
            EigenGroup(eigenvalue=complex(e - gap), kind=REAL, pair_id=None,
                       chains=(_chain([[-1j * sgn * kappa / rt2, 1 / rt2]],
                                      [[-1j * sgn / (kappa * rt2), 1 / rt2]]),)),
        )
        regime = REGIME_REAL
    elif r * s < 0:
        kappa = np.sqrt(abs(r / s))
        mu = np.sqrt(abs(r * s))
        sgn = 1.0 if r > 0 else -1.0
        groups = (
            EigenGroup(eigenvalue=complex(e, -mu), kind=MINUS, pair_id=0,
                       chains=(_chain([[-sgn * kappa / rt2, 1 / rt2]],
                                      [[-sgn / (kappa * rt2), 1 / rt2]]),)),
            EigenGroup(eigenvalue=complex(e, mu), kind=PLUS, pair_id=0,
                       chains=(_chain([[sgn * kappa / rt2, 1 / rt2]],
                                      [[sgn / (kappa * rt2), 1 / rt2]]),)),
        )
        regime = REGIME_COMPLEX
    elif r != 0:  # s == 0: upper-triangular Jordan block
        groups = (
            EigenGroup(eigenvalue=complex(e), kind=REAL, pair_id=None,
                       chains=(_chain([[1, 0], [1j / r, -1j / r]],
                                      [[1, 1], [0, -1j * r]]),)),
        )
        regime = REGIME_JORDAN
    elif s != 0:  # r == 0: lower-triangular Jordan block
        groups = (
            EigenGroup(eigenvalue=complex(e), kind=REAL, pair_id=None,
                       chains=(_chain([[0, 1], [1j / s, -1j / s]],
                                      [[1, 1], [1j * s, 0]]),)),
        )
        regime = REGIME_JORDAN
    else:
        groups = (
            EigenGroup(eigenvalue=complex(e), kind=REAL, pair_id=None,
                       chains=(_chain([[1, 0]], [[1, 0]]),
                               _chain([[0, 1]], [[0, 1]]))),
        )
        regime = REGIME_SCALAR

    return h, regime, SpectralDecomposition(n=2, groups=groups)
