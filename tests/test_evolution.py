"""Time evolution, norm conservation and the two-level model generator."""

import numpy as np
import pytest

from pseudoherm import evolution, linalg
from pseudoherm.errors import (
    ClusterAmbiguity,
    IndefiniteMetric,
    NotDiagonalizableReal,
    NotPseudoHermitian,
    Overflow,
)
from pseudoherm.evolution import (
    REGIME_COMPLEX,
    REGIME_JORDAN,
    REGIME_REAL,
    REGIME_SCALAR,
    EvolutionRequest,
    MashhoonPapiniParams,
    krein_norm_series,
    mashhoon_papini,
    propagator,
    transition_probability,
)
from pseudoherm.linalg import EXPM_NORM_BOUND
from pseudoherm.operators import build_parity, build_positive_metric
from pseudoherm.spectral import (
    JordanBlockSpec,
    SynthesisSpec,
    analyze,
    check_biorthonormal,
    reconstruct,
    synthesize,
)


def test_request_validation():
    with pytest.raises(ValueError):
        EvolutionRequest(h=np.eye(2), metric=np.eye(2),
                         initial_state=[0, 0], t_grid=(0.0, 1.0))
    with pytest.raises(ValueError):
        EvolutionRequest(h=np.eye(2), metric=np.eye(2),
                         initial_state=[1, 0], t_grid=(1.0, 0.5))
    with pytest.raises(ValueError):
        EvolutionRequest(h=np.eye(2), metric=np.eye(3),
                         initial_state=[1, 0], t_grid=(0.0,))


def test_propagator_identity_and_group_law():
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 2.0, 0.5))
    assert np.allclose(propagator(h, 0.0), np.eye(2), atol=1e-14)
    u1, u2 = propagator(h, 1.3), propagator(h, 2.1)
    assert np.allclose(u1 @ u2, propagator(h, 3.4), atol=1e-9)


def test_propagator_matches_model_display():
    # real regime: U(t) = e^{-i E1 t}|psi1><phi1| + e^{-i E2 t}|psi2><phi2|
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    for t in (0.4, 1.7):
        ea, eb = np.exp(-1j * 2.0 * t), np.exp(-1j * 0.0 * t)
        want = 0.5 * np.array([[ea + eb, 1j * (ea - eb)],
                               [-1j * (ea - eb), ea + eb]])
        assert np.allclose(propagator(h, t), want, atol=1e-12)


def test_propagator_is_metric_pseudounitary():
    for e, r, s in ((1.0, 1.0, 1.0), (0.5, 1.0, 0.0), (0.0, 0.5, 2.0)):
        h, _, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
        p = build_parity(dec)
        for t in (0.5, 2.0):
            u = propagator(h, t)
            assert np.linalg.norm(u.conj().T @ p @ u - p) < 1e-10


def test_stationary_state_probability_is_one():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    p_plus = build_positive_metric(dec)
    psi = dec.groups[0].chains[0].psi[0]
    req = EvolutionRequest(h=h, metric=p_plus, initial_state=psi,
                           t_grid=tuple(np.linspace(0, 5, 11)))
    probs = transition_probability(req, psi)
    assert np.allclose(probs, 1.0, atol=1e-10)


@pytest.mark.parametrize("rs", [0.25, 1.0, 4.0])
def test_spin_flip_closed_form(rs):
    r = s = np.sqrt(rs)
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, r, s))
    p_plus = build_positive_metric(dec)
    grid = tuple(np.linspace(0, 20, 120))
    req = EvolutionRequest(h=h, metric=p_plus, initial_state=[0, 1], t_grid=grid)
    flip = transition_probability(req, [1, 0])
    expected = 0.5 * (1 - np.cos(2 * np.sqrt(rs) * np.array(grid)))
    assert np.abs(np.array(flip) - expected).max() < 1e-10
    survive = transition_probability(req, [0, 1])
    assert np.abs(np.array(flip) + np.array(survive) - 1.0).max() < 1e-10


def test_probability_requires_definite_metric():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    p = build_parity(dec)  # indefinite
    req = EvolutionRequest(h=h, metric=p, initial_state=[0, 1], t_grid=(0.0, 1.0))
    with pytest.raises(IndefiniteMetric):
        transition_probability(req, [1, 0])


def test_krein_norm_constant_and_euclid_not():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 2.0, 0.5))
    p_plus = build_positive_metric(dec)
    grid = tuple(np.linspace(0, 10, 60))
    req = EvolutionRequest(h=h, metric=p_plus, initial_state=[1, 1j], t_grid=grid)
    series = krein_norm_series(req)
    assert max(abs(v - series[0]) for v in series) < 1e-9 * abs(series[0])
    euclid = [np.linalg.norm(propagator(h, t) @ req.initial_state) for t in grid]
    assert max(euclid) - min(euclid) > 1e-3  # non-normal: Euclidean norm moves


def test_krein_norm_indefinite_metric_can_be_negative():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 0.25, -0.25))
    p = build_parity(dec)  # diag(-1, 1) family member
    grid = tuple(np.linspace(0, 10, 40))
    req = EvolutionRequest(h=h, metric=p, initial_state=[1, 0.2], t_grid=grid)
    series = krein_norm_series(req)
    assert series[0] < 0
    assert max(abs(v - series[0]) for v in series) < 1e-8 * abs(series[0])


def test_krein_norm_requires_pseudo_hermiticity():
    req = EvolutionRequest(h=np.array([[1, 1], [0, 2]], dtype=complex),
                           metric=np.eye(2), initial_state=[1, 0], t_grid=(0.0,))
    with pytest.raises(NotPseudoHermitian):
        krein_norm_series(req)


def test_model_regimes_and_eigenvalues():
    h, regime, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 0.5, 0.5))
    assert regime == REGIME_REAL
    assert np.allclose(sorted(g.eigenvalue.real for g in dec.groups), [0.5, 1.5])
    assert np.allclose(h, [[1, 0.5j], [-0.5j, 1]])

    _, regime, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    assert regime == REGIME_COMPLEX
    assert sorted(g.eigenvalue.imag for g in dec.groups) == [-1.0, 1.0]

    _, regime, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 0.0))
    assert regime == REGIME_JORDAN
    assert dec.groups[0].block_dims == (2,)

    _, regime, dec = mashhoon_papini(MashhoonPapiniParams(2.0, 0.0, 0.0))
    assert regime == REGIME_SCALAR
    assert dec.groups[0].block_dims == (1, 1)


@pytest.mark.parametrize("e,r,s", [
    (1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, 1.0, 0.0), (0.5, 0.0, 2.0),
    (2.0, 0.0, 0.0), (1.0, -1.0, -1.0), (0.0, 3.0, -0.5),
])
def test_model_chain_basis_is_exact(e, r, s):
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
    rep = check_biorthonormal(dec)
    assert rep.gram_residual < 1e-12
    assert rep.completeness_residual < 1e-12
    assert np.linalg.norm(reconstruct(dec) - h) < 1e-12


def test_regime_boundary_is_flagged_not_merged():
    # as s -> 0+ the two real eigenvalues collide; analyze must flag the
    # unresolved cluster instead of silently reporting either structure
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1e-7))
    with pytest.raises(ClusterAmbiguity):
        analyze(h)
    # far from the boundary both structures are clean
    assert analyze(mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))[0]) is not None


# --- stepped series against per-point propagators ---------------------------

def _per_point(h, state, grid):
    """Reference: one propagator per grid point."""
    return np.column_stack([propagator(h, t) @ state for t in grid])


def _synthesized_n32():
    spec = SynthesisSpec(groups=tuple(JordanBlockSpec(k - 15.5 + 0.1 * np.sin(k), (1,))
                                      for k in range(32)),
                         basis_seed=3, basis_cond=100.0)
    h, dec = synthesize(spec)
    t_end = 0.8 * EXPM_NORM_BOUND / np.linalg.norm(h)
    return h, dec, t_end


def _agreement_cases():
    for e, r, s in ((1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, 1.0, 0.0), (2.0, 0.0, 0.0)):
        h, regime, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
        yield pytest.param(h, dec, tuple(np.linspace(0, 10, 200)), id=regime)
    h, dec, t_end = _synthesized_n32()
    yield pytest.param(h, dec, tuple(np.linspace(0, t_end, 200)), id="n32-linspace")
    yield pytest.param(h, dec, tuple(np.geomspace(1e-3, t_end, 60)), id="n32-geomspace")
    yield pytest.param(h, dec, tuple(np.linspace(-t_end / 2, t_end / 2, 101)),
                       id="n32-negative-start")
    yield pytest.param(h, dec, (0.3 * t_end,), id="n32-one-point")


@pytest.mark.parametrize("h,dec,grid", _agreement_cases())
def test_stepped_states_match_per_point_propagators(h, dec, grid):
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=dec.n) + 1j * rng.normal(size=dec.n)
    ref = _per_point(h, psi0, grid)
    got = evolution._states(h, psi0, grid)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    try:
        p_plus = build_positive_metric(dec)
    except NotDiagonalizableReal:
        return
    final = rng.normal(size=dec.n) + 1j * rng.normal(size=dec.n)
    req = EvolutionRequest(h=h, metric=p_plus, initial_state=psi0, t_grid=grid)
    initial = evolution.metric_normalize(psi0, p_plus)
    final_n = evolution.metric_normalize(final, p_plus)
    want = np.abs(final_n.conj() @ p_plus @ _per_point(h, initial, grid)) ** 2
    assert np.abs(np.array(transition_probability(req, final)) - want).max() <= 1e-10


def test_linspace_grid_needs_few_expm_calls(monkeypatch):
    h, _, t_end = _synthesized_n32()
    calls = []
    real_expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda a: calls.append(1) or real_expm(a))
    evolution._states(h, np.ones(32, dtype=complex), tuple(np.linspace(0, t_end, 200)))
    assert 1 <= len(calls) <= 16


def test_overflow_decided_on_the_far_end_of_the_grid():
    # ||H||_F = 2: every gap of 1 is far inside EXPM_NORM_BOUND, t = 600 is not
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    grid = tuple(np.linspace(0, 600, 601))
    assert 1.0 * np.linalg.norm(h) < EXPM_NORM_BOUND < grid[-1] * np.linalg.norm(h)
    req = EvolutionRequest(h=h, metric=build_positive_metric(dec),
                           initial_state=[0, 1], t_grid=grid)
    with pytest.raises(Overflow):
        krein_norm_series(req)
    with pytest.raises(Overflow):
        transition_probability(req, [1, 0])


def test_grid_across_zero_is_not_refused_for_its_gap():
    # the gap from -t to t is past the bound, but every |t| is inside it
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    t = 0.75 * EXPM_NORM_BOUND / np.linalg.norm(h)
    req = EvolutionRequest(h=h, metric=build_positive_metric(dec),
                           initial_state=[0, 1], t_grid=(-t, t))
    probs = transition_probability(req, [1, 0])
    want = 0.5 * (1 - np.cos(2 * np.array([-t, t])))
    assert np.abs(np.array(probs) - want).max() < 1e-10
