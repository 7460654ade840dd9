"""Metric-preserving time evolution and the two-level model generator.

The propagator of a metric-pseudo-Hermitian H conserves the indefinite inner
product (``U(t)^dag eta U(t) = eta``), so Krein norms are constants of motion
even when H is not Hermitian.  Transition probabilities are exposed only for
positive definite metrics, where ``|<<final, U(t) initial>>|^2`` with
metric-normalized states is a genuine probability.

Both series walk out from t = 0 instead of exponentiating at every point.
A run of near-equal gaps b costs one ``expm`` and is evaluated by doubling,
``U(b)^2k psi = U(b)^k U(b)^k psi``, so a ``linspace`` walk is one ``expm``
and about log2 of its length in matrix products.  ``Overflow`` is decided
on max |t| over the grid.

``mashhoon_papini`` builds the two-level effective Hamiltonian

    H_eff = [[E, i r], [-i s, E]]

(spin motion with dissipation; E, r, s real) together with a chain basis in
fixed conventions, written as closed-form S and Phi, tagged real or
conjugate pair and cut into chains by ``spectral._assemble``, so that the
symmetry constructions downstream produce closed-form matrices.  The
spectral character switches with the sign of ``r*s``: real nondegenerate,
complex-conjugate pair, or a single 2x2 Jordan block on the boundary.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, IndefiniteMetric, NotPseudoHermitian, Overflow
from .krein import krein_inner
from .linalg import DEFAULT_TOL, Tolerance
from .spectral import JordanBlockSpec, _assemble, is_pseudo_hermitian

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
            raise DimensionMismatch(f"H is {h.shape} but the metric is {metric.shape}")
        state = linalg.as_vector(self.initial_state, h.shape[0])
        if np.linalg.norm(state) == 0:
            raise ValueError("initial state is zero")
        grid = tuple(map(float, self.t_grid))
        if not np.isfinite(grid).all():
            raise ValueError("time grid must be finite")
        if not grid or any(map(operator.le, grid[1:], grid)):
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
    """Evolution operator ``exp(-i H t)``; ``linalg.expm`` validates -iHt."""
    with np.errstate(invalid="ignore", over="ignore"):  # expm refuses a non-finite -iHt
        a = -1j * float(t) * np.asarray(h, dtype=np.complex128)
    return linalg.expm(a)


def metric_normalize(state, metric) -> np.ndarray:
    """Scale a state to unit metric norm (positive definite metrics only)."""
    nrm = krein_inner(state, state, metric).real
    if nrm <= 0:
        raise IndefiniteMetric("state has non-positive metric norm; cannot normalize")
    return linalg.as_vector(state) / np.sqrt(nrm)


def _states(h, state, grid) -> np.ndarray:
    """Columns ``U(t_k) state`` over a strictly increasing grid.

    Walks out from t = 0, up through the points t >= 0 and down through the
    points t < 0, in runs.  A run from t_0 with first gap b takes the points
    ``t_k = t_0 + k b + d_k``, k = 1..L, while ``|d_k| ||H||_F <= sqrt(eps)``.
    It exponentiates b once, forms every ``U(b)^k state`` by doubling
    (ceil(log2 L) products and squarings), and adds ``-i d_k H U(b)^k state``,
    dropping at most ``(|d_k| ||H||_F)^2 / 2 <= eps / 2`` (Moler & Van Loan,
    SIAM Rev. 45 (2003)).  Walking from zero keeps every b within max |t|,
    so ``Overflow`` is raised exactly when a propagator at a point would be.
    """
    grid = np.asarray(grid)
    linalg.check_expm_bound(-1j * np.abs(grid).max() * h)
    h_norm, reach = np.linalg.norm(h), np.sqrt(np.finfo(float).eps)
    out = np.empty((state.shape[0], grid.size), dtype=np.complex128, order="F")
    first_nonneg = np.searchsorted(grid, 0.0)
    for walk in (np.arange(first_nonneg, grid.size), np.arange(first_nonneg - 1, -1, -1)):
        psi, t_prev = state, 0.0
        if walk.size and grid[walk[0]] == 0:  # the point t = 0 itself
            out[:, walk[0]], walk = state, walk[1:]
        while walk.size:
            offset = grid[walk] - t_prev
            drift = offset - offset[0] * np.arange(1, walk.size + 1)
            size = int(np.argmax(np.abs(drift) * h_norm > reach)) or walk.size  # drift[0] = 0
            step = propagator(h, offset[0])
            run = np.empty((state.shape[0], size), dtype=np.complex128)
            run[:, 0], done = step @ psi, 1
            while done < size:  # step = U(b)^done
                if done > 1:
                    step = step @ step
                run[:, done:2 * done] = step @ run[:, :min(done, size - done)]
                done *= 2
            run -= 1j * drift[:size] * (h @ run)
            out[:, walk[:size]] = run
            psi, t_prev, walk = run[:, -1], grid[walk[size - 1]], walk[size:]
    return out


def transition_probability(req: EvolutionRequest, final_state) -> list[float]:
    """``|<<final, U(t) initial>>|^2`` over the time grid, with both states
    metric-normalized.  Requires a positive definite metric."""
    if linalg.metric_eigenvalues(req.metric, req.tol).min() < 0:
        raise IndefiniteMetric(
            "transition probabilities are defined only for positive definite "
            "metrics; use krein_norm_series for indefinite ones")
    if np.linalg.norm(linalg.as_vector(final_state, req.h.shape[0])) == 0:
        raise ValueError("final state is zero")
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


def mashhoon_papini(params: MashhoonPapiniParams):
    """Two-level effective Hamiltonian with a fixed-convention chain basis.

    Returns ``(H_eff, regime, decomposition)``.  The basis conventions per
    regime (rt2 = sqrt(2)):

    - ``r s != 0``, kappa = sqrt(|r/s|), with phase u = i and eigenvalue
      ``E + sqrt(rs)`` first if ``r s > 0`` (real nondegenerate), u = -1 and
      ``E - i sqrt(|rs|)`` first if ``r s < 0`` (conjugate pair):
      psi = (u sign(r) kappa, 1)/rt2, phi = (u sign(r)/kappa, 1)/rt2; the
      partner flips the sign of the first component.
    - ``s = 0, r != 0`` (Jordan block): chain psi = [(1,0), (i/r)(1,-1)]
      with duals phi = [(1,1), (0,-i r)]; mirrored for ``r = 0, s != 0``.
    - ``r = s = 0``: scalar E times the identity, standard basis.
    """
    e, r, s = params.e, params.r, params.s
    h = np.array([[e, 1j * r], [-1j * s, e]], dtype=np.complex128)
    rt2 = np.sqrt(2.0)

    # per regime: (eigenvalue, block dims) of each group, and the psi / phi
    # chain vectors in storage order (rows; columns of S / Phi).  Overflow
    # leaves inf or nan, refused below; at kappa = 0 (r / s underflows)
    # sgn / (kappa rt2) divides in numpy, where a Python complex / 0.0 raises.
    with np.errstate(divide="ignore"):
        if r * s != 0:
            kappa, root = np.sqrt(abs(r / s)), np.sqrt(abs(r * s))
            sgn = 1.0 if r > 0 else -1.0
            if r * s > 0:
                u, regime, eigs = 1j, REGIME_REAL, (e + root, e - root)
            else:  # complex(e, -root), not e - i root, keeps the sign of E = -0.0
                u, regime, eigs = -1.0, REGIME_COMPLEX, (complex(e, -root), complex(e, root))
            groups = [(ev, (1,)) for ev in eigs]
            psi = [[u * sgn * kappa / rt2, 1 / rt2], [-u * sgn * kappa / rt2, 1 / rt2]]
            phi = [[u * (sgn / (kappa * rt2)), 1 / rt2], [-u * (sgn / (kappa * rt2)), 1 / rt2]]
        elif r != 0:  # s == 0: upper-triangular Jordan block
            groups = [(e, (2,))]
            psi = [[1, 0], [1j / r, -1j / r]]
            phi = [[1, 1], [0, -1j * r]]
            regime = REGIME_JORDAN
        elif s != 0:  # r == 0: lower-triangular Jordan block
            groups = [(e, (2,))]
            psi = [[0, 1], [1j / s, -1j / s]]
            phi = [[1, 1], [1j * s, 0]]
            regime = REGIME_JORDAN
        else:
            groups = [(e, (1, 1))]
            psi = phi = [[1, 0], [0, 1]]
            regime = REGIME_SCALAR
    basis = np.array([psi, phi], dtype=np.complex128)
    if not (np.isfinite(basis).all() and np.isfinite([g[0] for g in groups]).all()):
        raise Overflow(f"the model's eigenvalues or chain basis overflow the float range "
                       f"at E={e:g}, r={r:g}, s={s:g}")
    specs = [JordanBlockSpec(*g) for g in groups]
    # pair tolerance 0: the complex regime's eigenvalues are exact conjugates
    dec = _assemble(specs, 0.0, False, basis[0].T, basis[1].conj())
    return h, regime, dec
