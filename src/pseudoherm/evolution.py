"""Metric-preserving time evolution and the two-level model generator.

The propagator of a metric-pseudo-Hermitian H conserves the indefinite inner
product (``U(t)^dag eta U(t) = eta``), so Krein norms are constants of motion
even when H is not Hermitian; ``_decomposition`` refuses any other (H, eta)
for both series.  Transition probabilities also need a positive definite
metric, where ``|<<final, U(t) initial>>|^2`` with metric-normalized states is
a genuine probability; one exists only for a diagonalizable real spectrum.

Both series are evaluated in the chain basis of ``analyze(H)``, whose last
result is kept, so an op that analyzed H does not analyze it again.  There
e^{-iJt} has a closed form, e^{-iEt} times a polynomial in t per Jordan
chain, whose terms ``dec.terms`` lists once per decomposition; the state's
chain coordinates evolve by them, and no ``expm`` runs.  The propagator
reads the same terms, U(t) = Psi e^{-iJt} Phi^dag, where the kept
decomposition is of its H and reconstructs it to rounding, as after an op's
analysis; it analyzes nothing itself, and takes ``linalg.expm`` for any
other H.  The Krein norm pairs each eigenvalue only with its conjugate: a
real eigenvalue takes no exponential, and a growing pair component meets
only its decaying partner, so the series stays bounded at any horizon.
Where ``analyze`` refuses H, each grid point takes its own propagator
(``_states``), exponentiated in parts inside ``EXPM_NORM_BOUND``.  Either
way ``Overflow`` is raised only when a value stops being finite, including
a point's ``|t| ||H||_F``.

The gate is the one rule of ``is_pseudo_hermitian``
(``spectral._pseudo_hermiticity``) on either route.  It decides the metric
through ``linalg._metric_decision``, so a P or P+ that ``operators`` built
and the op has already decided costs nothing more (its record keeps the
decision, made from its K with no eigensolve where K proves it a metric),
and a user's metric costs one n x n ``eigvalsh``.  It accepts by a norm
bound on the residual ||eta_h H eta_h^-1 - H^dag||_F, eta_h the metric's
Hermitian part; only where the bound fails is the residual itself formed,
and a refusal names it.

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
from .errors import (DimensionMismatch, IndefiniteMetric, NotPseudoHermitian, Overflow,
                     PseudohermError)
from .krein import krein_inner
from .linalg import DEFAULT_TOL, Tolerance, _fro
from .spectral import _assemble, _kept_exact, _pseudo_hermiticity, analyze

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
        if not state.any():
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
    """Evolution operator ``U(t) = exp(-i H t)``.

    Where the last ``analyze`` kept a decomposition of this H that
    reconstructs it to rounding (``spectral._kept_exact``), as after an op's
    analysis, U(t) = Psi e^{-iJt} Phi^dag is the one product ``(Psi[:, column]
    taylor e^{rate t} t^power) @ Phi^dag[column + power]`` over ``dec.terms``,
    and no ``expm`` runs: the exponential of H' = Psi J Phi^dag, within
    8 n eps ||Psi||_F ||Phi||_F ||H||_F of H, the rounding of the basis; U(0)
    is Psi Phi^dag, the identity within its biorthonormality residual.  Any
    other H, and any -iHt that ``linalg.expm`` refuses (decided on expm's own
    ||-iHt||_F), goes to ``expm``: ``ValueError`` for a non-finite -iHt,
    ``Overflow`` past ``EXPM_NORM_BOUND``.  No H is analyzed here."""
    t, h = float(t), np.asarray(h, dtype=np.complex128)
    dec = _kept_exact(h)
    with np.errstate(invalid="ignore", over="ignore"):  # expm refuses a non-finite -iHt
        a = -1j * t * h
        if dec is not None and _fro(a) <= linalg.EXPM_NORM_BOUND:  # expm's test
            column, power, _, taylor, rate = dec.terms
            # an exponential past the float range is left inf, as expm's squarings leave it
            coef = np.exp(rate * t) * t ** power
            return (dec.psi[:, column] * taylor * coef) @ dec.phi_dag[column + power]
    return linalg.expm(a)


def metric_normalize(state, metric) -> np.ndarray:
    """Scale a state to unit metric norm (positive definite metrics only),
    after a power of two that brings its largest part into [1/2, 1): exact, so
    the norm neither over- nor underflows, and an ordinary state keeps its bits."""
    parts = np.ascontiguousarray(linalg.as_vector(state)).view(np.float64)
    state = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(np.complex128)
    nrm = krein_inner(state, state, metric).real
    if nrm <= 0:
        raise IndefiniteMetric("state has non-positive metric norm; cannot normalize")
    return state / np.sqrt(nrm)


def _decomposition(req: EvolutionRequest):
    """``(dec, definite)`` past the gate of both series: ``dec = analyze(H)``,
    or None where ``analyze`` refuses H, and whether eta is positive definite,
    read from the metric decision's signature.  The gate is the rule of
    ``is_pseudo_hermitian``; its refusal is ``NotPseudoHermitian``."""
    refusal, definite = _pseudo_hermiticity(req.h, req.metric, req.tol)
    if refusal is not None:
        raise NotPseudoHermitian(refusal)
    try:
        return analyze(req.h, req.tol), definite
    except PseudohermError:
        return None, definite


#: the reach of a first-order expansion: (sqrt(eps))^2 / 2 = eps / 2 is dropped
_REACH = np.sqrt(np.finfo(float).eps)


def _components(dec, state) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(column, coef, chain, power)`` with ``U(t) state = sum_j e^{-i E t}
    t^k coef[j] psi_a``, a = column[j], k = power[j] and E the eigenvalue of
    chain[j], over the terms of ``dec.terms``.  In the chain basis c =
    Phi^dag state evolves as e^{-iJt} c: the coordinate of column a takes
    (-it)^k / k! times that of column a + k of its chain, so coef[j] =
    (-i)^k / k! c_(a+k)."""
    column, power, chain, taylor, _ = dec.terms
    return column, taylor * (dec.phi_dag @ state)[column + power], chain, power


def _on_grid(coef, power, rate, t) -> np.ndarray:
    """``sum_j coef_j t^power_j e^{rate_j t}`` over the grid.  Only a term
    whose ``|rate| max|t|`` passes sqrt(eps) takes its exponential on the
    grid.  The others join one polynomial in t, with e^{rate t} taken as
    1 + rate t, which drops at most eps / 2 (exactly 1 for rate 0).
    ``Overflow`` when a value is not finite."""
    far = np.abs(rate) * np.abs(t).max() > _REACH
    near, m = ~far, np.arange(power.max() + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = t ** m[:, None]
        poly = (coef[near] @ (power[near, None] == m)
                + (coef * rate)[near] @ (power[near, None] + 1 == m))
        values = poly @ powers
        if far.any():
            values += np.sum(coef[far, None] * powers[power[far]]
                             * np.exp(np.outer(rate[far], t)), axis=0)
        return _finite(values)


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise Overflow("the evolved state overflows the float range")
    return values


def _states(h, state, grid) -> np.ndarray:
    """Columns ``U(t) state`` over the grid, for an H that ``analyze``
    refuses: one propagator per point, ``U(t) = U(t / m)^m`` with the fewest
    m that keep ``|t / m| ||H||_F`` inside ``EXPM_NORM_BOUND``.  A point whose
    ``|t| ||H||_F`` overflows is refused with ``Overflow``; a state that
    overflows is left non-finite for the caller to refuse."""
    h_norm = _fro(h)
    out = np.empty((state.shape[0], len(grid)), dtype=np.complex128)
    for k, t in enumerate(grid):
        reach = abs(t) * h_norm
        if not np.isfinite(reach):
            raise Overflow("|t| ||H||_F overflows the float range")
        m = max(1, int(np.ceil(reach / linalg.EXPM_NORM_BOUND)))
        out[:, k] = np.linalg.matrix_power(propagator(h, t / m), m) @ state
    return out


def transition_probability(req: EvolutionRequest, final_state) -> list[float]:
    """``|<<final, U(t) initial>>|^2`` over the time grid, with both states metric-normalized;
    past the gate only the metric's sign is left, which the gate read from
    the metric decision's signature."""
    t, (dec, definite) = np.asarray(req.t_grid), _decomposition(req)
    if not definite:
        raise IndefiniteMetric("transition probabilities are defined only for positive definite "
                               "metrics; use krein_norm_series for indefinite ones")
    if not linalg.as_vector(final_state, req.h.shape[0]).any():
        raise ValueError("final state is zero")
    initial = metric_normalize(req.initial_state, req.metric)
    bra = metric_normalize(final_state, req.metric).conj() @ req.metric
    if dec is None:
        with np.errstate(over="ignore", invalid="ignore"):
            amplitudes = _finite(bra @ _states(req.h, initial, t))
    else:
        column, coef, _, power = _components(dec, initial)
        amplitudes = _on_grid((bra @ dec.psi)[column] * coef, power, dec.terms.rate, t)
    return (np.abs(amplitudes) ** 2).tolist()


def krein_norm_series(req: EvolutionRequest) -> list[float]:
    """``<<psi(t), psi(t)>>`` over the grid; constant in time, since the gate
    of ``_decomposition`` admits only a metric-pseudo-Hermitian H.

    In the chain basis it is ``c(t)^dag M c(t)``, M = Psi^dag eta_h Psi
    made exactly Hermitian, eta_h the metric's Hermitian part, so M's
    quadratic form is the real part of eta's, kept only between eigenvalues
    E_a, E_b = conj(E_a): what pseudo-Hermiticity leaves of it.  Each term is
    conj(s_j) s_k M[a, b] of two terms s_j psi_a and s_k psi_b of
    ``_components``; a growing pair component meets only its decaying
    partner, through e^{i (conj(E_a) - E_b) t}, and a real one no exponential
    at all.  ``Overflow`` when M or a term is not finite."""
    t, (dec, _) = np.asarray(req.t_grid), _decomposition(req)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses a non-finite value
        if dec is None:
            psi = _states(req.h, req.initial_state, t)
            return _finite(np.sum(psi.conj() * (req.metric @ psi), axis=0).real).tolist()
        m = dec.psi.conj().T @ (0.5 * (req.metric + req.metric.conj().T) @ dec.psi)
        m = 0.5 * (m + m.conj().T)
        column, coef, chain, power = _components(dec, req.initial_state)
        chain_group, eigenvalues = dec.chain_group, dec.group_eigenvalues
        group = chain_group[chain]
        left, right = np.nonzero(chain_group[dec.chain_conj[chain]][:, None] == group)
        coef = coef[left].conj() * coef[right] * m[column[left], column[right]]
    rate = 1j * (eigenvalues[group[left]].conj() - eigenvalues[group[right]])
    return _on_grid(coef, power[left] + power[right], rate, t).real.tolist()


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
    # pair tolerance 0: the complex regime's eigenvalues are exact conjugates
    dec = _assemble(*zip(*groups), 0.0, basis[0].T, basis[1].conj())
    return h, regime, dec
