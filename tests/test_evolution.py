"""Time evolution, norm conservation and the two-level model generator."""

import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from conftest import _outcome, referee, referee_propagator
from pseudoherm import evolution, krein, linalg, spectral
from pseudoherm.errors import (
    ClusterAmbiguity,
    DimensionMismatch,
    IndefiniteMetric,
    NonHermitianMetric,
    NotDiagonalizableReal,
    NotPseudoHermitian,
    Overflow,
    PseudohermError,
    SingularMetric,
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
from pseudoherm.operators import build_parity, build_positive_metric, build_tp
from pseudoherm.spectral import (
    JordanBlockSpec,
    SynthesisSpec,
    analyze,
    check_biorthonormal,
    is_pseudo_hermitian,
    reconstruct,
    synthesize,
)

# every (H, eta) decided here is also put to the gate's norm bound and the exact residual
pytestmark = pytest.mark.usefixtures("gate_referee")


def test_request_validation():
    with pytest.raises(ValueError):
        EvolutionRequest(h=np.eye(2), metric=np.eye(2),
                         initial_state=[0, 0], t_grid=(0.0, 1.0))
    with pytest.raises(ValueError):
        EvolutionRequest(h=np.eye(2), metric=np.eye(2),
                         initial_state=[1, 0], t_grid=(1.0, 0.5))
    with pytest.raises(DimensionMismatch, match=r"^H is \(2, 2\) but the metric is \(3, 3\)$"):
        EvolutionRequest(h=np.eye(2), metric=np.eye(3),
                         initial_state=[1, 0], t_grid=(0.0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_time_grid_is_refused(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^time grid must be finite$"):
            EvolutionRequest(h=np.eye(2), metric=np.eye(2), initial_state=[1, 0],
                             t_grid=(0.0, bad))


@pytest.mark.parametrize("h, t", [([[np.inf, 0], [0, 1]], 1.0), ([[np.nan, 0], [0, 1]], 1.0),
                                  ([[1e308, 1e308], [0, 1]], 10.0)],
                         ids=["inf", "nan", "overflowing-product"])
def test_propagator_refuses_non_finite_input_without_warnings(h, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            propagator(np.array(h), t)


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


def test_probability_rejects_a_zero_final_state():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    req = EvolutionRequest(h=h, metric=build_positive_metric(dec), initial_state=[0, 1],
                           t_grid=(0.0, 1.0))
    with pytest.raises(ValueError, match="final state is zero"):
        transition_probability(req, [0, 0])


@pytest.mark.parametrize("eps,accepted", [(1.5e-10, False), (2.5e-10, False),
                                          (3.5e-10, True)])
def test_every_entry_point_decides_the_metric_alike(eps, accepted):
    # tol.scaled(diag(1, eps)) is 3e-10; the two refused eps sit on either
    # side of the 2e-10 cut of an LU pivot or SVD rank test, above tol.abs
    h = np.diag([1.0, 2.0]).astype(complex)
    metric = np.diag([1.0, eps]).astype(complex)
    req = EvolutionRequest(h=h, metric=metric, initial_state=[1, 1], t_grid=(0.0, 1.0))
    entry_points = [
        lambda: krein.classify(np.eye(2), metric),
        lambda: krein.build_krein_space(metric),
        lambda: is_pseudo_hermitian(h, metric),
        lambda: transition_probability(req, [1, 0]),
        lambda: krein_norm_series(req),
    ]
    for call in entry_points:
        if accepted:
            call()
        else:
            with pytest.raises(SingularMetric, match="within tolerance of zero"):
                call()


def test_probability_refuses_a_non_hermitian_metric():
    req = EvolutionRequest(h=np.eye(2), metric=np.array([[2, 1], [0, 2]]),
                           initial_state=[1, 0], t_grid=(0.0,))
    with pytest.raises(NonHermitianMetric):
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


#: refused inputs of the sweep below; lowering it is progress, raising it fails
SWEEP_REFUSED_MAX = 10


def test_model_sweep_across_the_exceptional_point(capsys):
    """H(E=1, r=1, s=±10^-k), k = 1..15: ``analyze`` gives the closed-form
    regime's structure or one 2-block, either passing the check battery, or
    refuses with ``ClusterAmbiguity``.  Each accepted case holds the Krein
    norm under its built P to criterion 8's 1e-8 relative drift."""
    grid = tuple(np.linspace(0.0, 10.0, 60))
    psi0 = np.array([1.0, 0.5 + 0.5j])
    refused, worst = [], 0.0
    for k in range(1, 16):
        for s in (10.0 ** -k, -(10.0 ** -k)):
            h, _, model = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, s))
            try:
                dec = analyze(h)
            except ClusterAmbiguity:
                refused.append(s)
                continue
            structure = sorted((g.kind, g.block_dims) for g in dec.groups)
            assert structure in (sorted((g.kind, g.block_dims) for g in model.groups),
                                 [("real", (2,))]), (s, structure)
            assert all(row["pass"] for row in krein.check_battery(h, dec)), s
            series = krein_norm_series(EvolutionRequest(h=h, metric=build_parity(dec),
                                                        initial_state=psi0, t_grid=grid))
            drift = max(abs(v - series[0]) for v in series) / max(abs(series[0]), 1e-3)
            assert drift <= 1e-8, (s, drift)
            worst = max(worst, drift)
    with capsys.disabled():
        print(f"\n[model sweep] {len(refused)} of 30 refused "
              f"(s = {', '.join(f'{s:.0e}' for s in refused)}); worst drift {worst:.1e}")
    assert len(refused) <= SWEEP_REFUSED_MAX


# --- stepped series against scipy's expm per point --------------------------

def _scipy_states(h, state, grid):
    """Reference: scipy's ``expm(-i H t) state`` at each grid point."""
    return np.column_stack([sla.expm(-1j * t * h) @ state for t in grid])


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
    yield pytest.param(h, dec, tuple(np.concatenate([-np.geomspace(t_end / 3, 1e-3, 7), [0.0],
                                                     np.linspace(0.01, t_end / 2, 40)])),
                       id="n32-across-zero")


@pytest.mark.parametrize("h,dec,grid", _agreement_cases())
def test_stepped_states_match_per_point_propagators(h, dec, grid):
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=dec.n) + 1j * rng.normal(size=dec.n)
    ref = _scipy_states(h, psi0, grid)
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
    want = np.abs(final_n.conj() @ p_plus @ _scipy_states(h, initial, grid)) ** 2
    assert np.abs(np.array(transition_probability(req, final)) - want).max() <= 1e-10


def _on_route(monkeypatch, route, h):
    """Evolve H in the chain basis of ``analyze(H)``, which must succeed, or,
    for ``"stepped"``, by the per-point propagators that serve an H it refuses."""
    if route == "chain":
        analyze(h)
    else:
        def refuse(*_, **__):
            raise ClusterAmbiguity("refused for the stepped route")
        monkeypatch.setattr(evolution, "analyze", refuse)


@pytest.mark.parametrize("route", ["chain", "stepped"])
def test_a_grid_past_the_expm_bound_evolves(monkeypatch, route):
    # ||H||_F = 2: every gap of 1 is far inside EXPM_NORM_BOUND, t = 600 is not
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    grid = tuple(np.linspace(0, 600, 601))
    assert 1.0 * np.linalg.norm(h) < EXPM_NORM_BOUND < grid[-1] * np.linalg.norm(h)
    _on_route(monkeypatch, route, h)
    req = EvolutionRequest(h=h, metric=build_positive_metric(dec),
                           initial_state=[0, 1], t_grid=grid)
    series = np.array(krein_norm_series(req))
    assert np.abs(series - series[0]).max() < 1e-12
    flip = np.array(transition_probability(req, [1, 0]))
    assert np.abs(flip - 0.5 * (1 - np.cos(2 * np.array(grid)))).max() < 1e-10


@pytest.mark.parametrize("route", ["chain", "stepped"])
def test_a_hermitian_h_evolves_to_t_1e4(monkeypatch, route):
    h = np.diag([1.0, 2.0]).astype(complex)
    grid = np.linspace(0, 1e4, 201)
    _on_route(monkeypatch, route, h)
    req = EvolutionRequest(h=h, metric=np.eye(2), initial_state=[1, 1], t_grid=tuple(grid))
    assert np.abs(np.array(krein_norm_series(req)) - 2.0).max() < 1e-12
    stay = np.array(transition_probability(req, [1, 1]))
    assert np.abs(stay - 0.5 * (1 + np.cos(grid))).max() < 1e-10


def test_a_step_past_the_bound_is_exponentiated_in_parts(monkeypatch):
    # one gap of 1e3 at ||H||_F = 2 is two parts of 500, each at 1e3
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    exponentiated = []
    monkeypatch.setattr(evolution, "propagator",
                        lambda h_, t: exponentiated.append(t) or propagator(h_, t))
    got = evolution._states(h, np.array([0, 1], dtype=complex), (1e3,))
    assert exponentiated == [500.0]
    want = propagator(h, 500.0) @ propagator(h, 500.0) @ np.array([0, 1])
    assert np.abs(got[:, 0] - want).max() < 1e-12


def test_overflow_is_refused_only_where_a_value_is_not_finite(monkeypatch):
    # model pair regime, Im E = 1: the states grow like e^t and pass the float
    # range at t ~ 710, while the Krein norm stays -0.75; under the identity,
    # which this H does not preserve, there is no probability to evolve
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(0.3, 1.0, -1.0))
    grid = tuple(np.linspace(0, 800, 201))
    req = EvolutionRequest(h=h, metric=build_parity(dec), initial_state=[1, 0.5j], t_grid=grid)
    assert np.abs(np.array(krein_norm_series(req)) + 0.75).max() < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPseudoHermitian, match="^H is not pseudo-Hermitian"):
            transition_probability(EvolutionRequest(h=h, metric=np.eye(2),
                                                    initial_state=[1, 0.5j], t_grid=grid),
                                   [1, 0])
        _on_route(monkeypatch, "stepped", h)
        with pytest.raises(Overflow, match="^the evolved state overflows the float range$"):
            krein_norm_series(req)


def test_a_step_whose_norm_overflows_is_a_typed_refusal():
    # analyze refuses this Hermitian H (its two eigenvalues form one cluster
    # whose staircase is inconsistent), so each point takes its own
    # propagator, and |t| ||H||_F is not finite at t = 1.5e308
    h = np.diag([1.0, 1.0 + 1e-9]).astype(complex)
    with pytest.raises(ClusterAmbiguity):
        analyze(h)
    req = EvolutionRequest(h=h, metric=np.eye(2), initial_state=[1, 1], t_grid=(0.0, 1.5e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match=r"^\|t\| \|\|H\|\|_F overflows the float range$"):
            transition_probability(req, [1, 0])
        with pytest.raises(Overflow, match=r"^\|t\| \|\|H\|\|_F overflows the float range$"):
            krein_norm_series(req)


#: an H that ``analyze`` refuses (its two eigenvalues form one cluster whose
#: staircase is inconsistent), so that the series take the per-point route
_REFUSED_H = np.diag([1.0, 1.0 + 1e-9])


def _analyzes(h) -> bool:
    try:
        analyze(h)
    except PseudohermError:
        return False
    return True


@pytest.mark.parametrize("h, metric, refusal, analyzed", [
    ([[0, 1], [0, 0]], np.eye(2), NotPseudoHermitian, True),
    ([[1j, 0], [0, 2]], np.eye(2), NotPseudoHermitian, False),
    (np.eye(2), [[2, 1], [0, 2]], NonHermitianMetric, True),
    (np.diag([1.0, 2.0]), np.diag([1.0, 1.5e-10]), SingularMetric, True),
    (1e154 * np.diag([1.0, 2.0]), np.eye(2), Overflow, False),
    ([[0, 1], [0, 0]], 1e10 * np.eye(2), NotPseudoHermitian, True),
    ([[1j, 0], [0, 2]], 1e10 * np.eye(2), NotPseudoHermitian, False),
    ([[1, 0, 0], [0, 1, 0], [1, 0, 1]], np.diag([1.0, 1.0, 6e-10]), NotPseudoHermitian, True),
    (_REFUSED_H, [[2, 1], [0, 2]], NonHermitianMetric, False),
    (_REFUSED_H, np.diag([1.0, 1.5e-10]), SingularMetric, False),
    (_REFUSED_H, [[1, 0.9], [0.9, 1]], NotPseudoHermitian, False),
], ids=["nilpotent", "unpaired", "non-hermitian-metric", "singular-metric", "diag-1e154",
        "nilpotent-1e10", "unpaired-1e10", "small-metric-eigenvalue",
        "refused-h-non-hermitian-metric", "refused-h-singular-metric", "refused-h-not-preserved"])
def test_both_series_give_one_refusal(h, metric, refusal, analyzed):
    # one gate decides for both series whether (H, eta) can be evolved, on
    # either route: in the chain basis where analyze accepts H, by the exact
    # rule where it refuses H.  The nilpotent H under the identity, or under
    # 1e10 I, used to give probabilities 0, 1, 4, 9, and I + E31 under
    # diag(1, 1, 6e-10) a Krein norm of e1 growing as 1 + 6e-10 t^2
    assert _analyzes(h) is analyzed
    e = np.eye(len(h))
    req = EvolutionRequest(h=h, metric=metric, initial_state=e[-1], t_grid=(0.0, 1.0, 2.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(refusal) as probability:
            transition_probability(req, e[0])
        with pytest.raises(refusal) as krein_norm:
            krein_norm_series(req)
    assert type(probability.value) is type(krein_norm.value)
    assert str(probability.value) == str(krein_norm.value)


def _synthesized(n, structure, cond):
    """H and its decomposition: simple real eigenvalues (``"real"``), or n // 4
    simple conjugate pairs and real 2- and 3-blocks among them (``"mixed"``),
    0.6 or more apart, at basis condition ``cond``."""
    rng = np.random.default_rng([n, int(cond), len(structure)])
    pairs = n // 4 if structure == "mixed" else 0
    dims = [(3,), (2,)] if structure == "mixed" else []
    dims += [(1,)] * (n - 2 * pairs - sum(map(sum, dims)))
    pos = rng.permutation(np.arange(len(dims) + pairs) - 0.5 * (len(dims) + pairs - 1))
    groups = [JordanBlockSpec(x, d) for x, d in zip(pos, dims)]
    for x in pos[len(dims):]:
        groups += [JordanBlockSpec(x + 0.5j, (1,)), JordanBlockSpec(x - 0.5j, (1,))]
    return synthesize(SynthesisSpec(tuple(groups), basis_seed=n, basis_cond=cond))


def _counted(monkeypatch, calls, name):
    """Wrap ``np.linalg.<name>`` to list the size of each operand it solves."""
    kernel = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append((name, a.shape[-1]))
        return kernel(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, name, counted)


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("cond", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_no_eigensolve_decides_the_library_metrics_in_op_order(monkeypatch, n, cond):
    # in op order (analyze, the builders, two reports and the Krein series
    # on P, then the probability on P+) the metric rule decides P and P+
    # from their K, and the gate's norm bound accepts P of a mixed spectrum,
    # and P and P+ of a real one: no eigvalsh and no eigh runs
    calls = []
    for name in ("eigvalsh", "eigh"):
        _counted(monkeypatch, calls, name)
    for structure in ("mixed", "real"):
        h, dec = _synthesized(n, structure, cond)
        metrics = [(build_parity(dec), False)]
        if structure == "real":
            metrics += [(build_positive_metric(dec), True)]
        for metric, _ in metrics:
            assert referee(h, metric)[0] <= linalg.DEFAULT_TOL.scaled(h)
        analyze(h)
        for metric, definite in metrics:
            req = EvolutionRequest(h=h, metric=metric, initial_state=np.ones(n),
                                   t_grid=(0.0, 1.0))
            if definite:
                transition_probability(req, np.arange(n))
            else:
                krein.classification_report(propagator(h, 0.05), metric)
                krein.classification_report(build_tp(dec), metric)
                krein_norm_series(req)
    assert calls == []


def _near_threshold_cases():
    for e, r, s in ((0.5, 2.0, 0.5), (0.5, 2.0, -0.5), (0.3, 1.0, 0.0)):
        h, _, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
        yield h, build_parity(dec)
    yield _n9()
    h, dec = _synthesized(16, "real", 10.0)
    yield h, build_positive_metric(dec)
    h, dec = _synthesized(16, "mixed", 100.0)
    yield h, build_parity(dec)


def test_the_gates_norm_bound_never_overrules_the_exact_rule_near_its_threshold():
    # H + c tol.scaled(H) E, E of unit Frobenius norm: the exact residual
    # moves across the threshold, and the gate's norm bound must refuse
    # where the exact residual refuses.
    # It accepts some cases (the model's real regime at c = 0.1, for one),
    # and at c = 10 every case is refused by both and by the gate's rule
    accepted = set()
    for h, metric in _near_threshold_cases():
        rng = np.random.default_rng(h.shape[0])
        for c in (0.1, 1.0, 10.0):
            for _ in range(3):
                e = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
                h_c = h + c * linalg.DEFAULT_TOL.scaled(h) * e / np.linalg.norm(e)
                (bound, exact), thr = referee(h_c, metric), linalg.DEFAULT_TOL.scaled(h_c)
                assert bound > thr or exact <= thr, (c, bound, exact, thr)
                accepted.add(bound <= thr)
                if c == 10.0:
                    assert exact > thr and not is_pseudo_hermitian(h_c, metric), (c, exact, thr)
    assert accepted == {True, False}


#: exponents k of the scale sweep, in which H and eta are each scaled by 10^k
GATE_SCALES = range(-300, 301, 100)


def _gate_scale_pairs():
    """``(label, H, eta)``: a Hermitian H under the identity, and the library's
    own P and P+ of model and synthesized Hamiltonians."""
    yield "hermitian", np.array([[1, 0.5], [0.5, 2]], dtype=complex), np.eye(2)
    for e, r, s in ((1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (0.3, 1.0, 0.0)):
        h, regime, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
        yield f"{regime} P", h, build_parity(dec)
        if regime == REGIME_REAL:
            yield f"{regime} P+", h, build_positive_metric(dec)
    for structure in ("real", "mixed"):
        h, dec = _synthesized(16, structure, 10.0)
        yield f"synthesized-{structure} P", h, build_parity(dec)
        if structure == "real":
            yield f"synthesized-{structure} P+", h, build_positive_metric(dec)


def _gate_scale_sweep():
    """One ``(label, a, b, accepted, series)`` per case: a pair of
    ``_gate_scale_pairs`` with H scaled by 10^a and eta by 10^b, a and b in
    ``GATE_SCALES``, H's scales ending where ``analyze`` refuses it with
    ``Overflow``.  ``accepted`` is the outcome of ``is_pseudo_hermitian``, and
    ``series`` those of ``krein_norm_series`` and ``transition_probability``:
    a value, or the type of the ``PseudohermError`` raised.  A warning is
    raised as an error."""
    for label, h, eta in _gate_scale_pairs():
        n = h.shape[0]
        for a in GATE_SCALES:
            if _outcome(lambda: analyze(10.0 ** a * h)) is Overflow:
                break
            for b in GATE_SCALES:
                h_k, eta_k = 10.0 ** a * h, 10.0 ** b * eta
                req = EvolutionRequest(h=h_k, metric=eta_k, t_grid=(0.0, 1.0),
                                       initial_state=np.arange(1, n + 1) + 0.5j)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    series = (_outcome(lambda: krein_norm_series(req)),
                              _outcome(lambda: transition_probability(req, np.ones(n))))
                    accepted = _outcome(lambda: is_pseudo_hermitian(h_k, eta_k))
                yield label, a, b, accepted, series


def test_the_gate_refuses_only_what_the_exact_rule_refuses_at_any_scale():
    # H = 1e100 [[1, 0.5], [0.5, 2]] is evolved under 1e100 I, where the
    # squares of the deleted chain certificate's G - G^dag overflowed, and
    # under 1e200 I and 1e300 I, whose norms overflowed the metric rule's
    # threshold; only the metrics at or below 1e-100, under tol.abs, are
    # singular
    cases = list(_gate_scale_sweep())
    assert len(cases) == 8 * 5 * 7  # every pair up to H at 1e100, under 7 scales of eta
    for label, a, b, accepted, series in cases:
        assert accepted is not True or NotPseudoHermitian not in series, (label, a, b, series)
    assert {case[:3] for case in cases if case[3] is True} >= {
        ("hermitian", a, b) for a in (-100, 0, 100) for b in (0, 100, 200, 300)}
    singular = [case for case in cases if case[3] is SingularMetric]
    assert len(singular) == 120 and {case[2] for case in singular} == {-300, -200, -100}


@pytest.mark.parametrize("h, analyzed", [([[1, 1], [0, 2]], True), (_REFUSED_H, False)],
                         ids=["analyzed", "refused"])
def test_the_metric_sign_is_decided_after_pseudo_hermiticity(h, analyzed):
    # an indefinite metric that H does not preserve: the gate refuses first
    # on both routes
    assert _analyzes(h) is analyzed
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    req = EvolutionRequest(h=h, metric=build_parity(dec), initial_state=[0, 1],
                           t_grid=(0.0, 1.0))
    with pytest.raises(NotPseudoHermitian, match="^H is not pseudo-Hermitian"):
        transition_probability(req, [1, 0])


def test_the_model_pair_series_holds_its_krein_norm_to_t_40():
    # stepped, the 5-point grid to t = 40 reads -0.75, -0.75000003, -16, -4.3e9, -4.6e18
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(0.3, 1.0, -1.0))
    req = EvolutionRequest(h=h, metric=build_parity(dec), initial_state=[1, 0.5j],
                           t_grid=tuple(np.linspace(0, 40, 201)))
    assert np.abs(np.array(krein_norm_series(req)) + 0.75).max() < 1e-12


@pytest.mark.usefixtures("cold_memo")
def test_a_cold_and_a_warm_memo_give_identical_series():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(0.3, 1.0, 0.0))
    req = EvolutionRequest(h=h, metric=build_parity(dec), initial_state=[1, 0.5j],
                           t_grid=tuple(np.linspace(0, 30, 61)))
    cold = krein_norm_series(req)
    assert krein_norm_series(req) == cold
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(0.3, 1.0, 1.0))
    req = EvolutionRequest(h=h, metric=build_positive_metric(dec), initial_state=[1, 0.5j],
                           t_grid=tuple(np.linspace(0, 30, 61)))
    cold = transition_probability(req, [1, 1])
    analyze(h)
    assert transition_probability(req, [1, 1]) == cold


# --- both routes against an mpmath referee ------------------------------------

def _referee_states(h, state, grid):
    """``exp(-iHt) state`` by mpmath's expm at 50 digits, as complex128."""
    with mpmath.workdps(50):
        v = mpmath.matrix(state.tolist())
        return np.array([[complex(x) for x in referee_propagator(h, t) * v] for t in grid]).T


def _n9():
    """A 2-block and a simple real eigenvalue, and a conjugate pair listing
    its (1, 2) blocks in both orders, at basis condition 10."""
    spec = SynthesisSpec(groups=(JordanBlockSpec(-1.0, (2,)), JordanBlockSpec(1.5, (1,)),
                                 JordanBlockSpec(0.5 + 0.5j, (1, 2)),
                                 JordanBlockSpec(0.5 - 0.5j, (2, 1))),
                         basis_seed=9, basis_cond=10.0)
    h, dec = synthesize(spec)
    return h, build_parity(dec)


def _referee_series_cases():
    for label, (e, r, s) in (("model-pair", (0.3, 1.0, -1.0)), ("model-jordan", (0.3, 1.0, 0.0))):
        h, _, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
        yield pytest.param(h, build_parity(dec), np.array([1, 0.5j]), id=label)
    h, p = _n9()
    yield pytest.param(h, p, np.random.default_rng(9).normal(size=9) + 0j, id="n9")


@pytest.mark.parametrize("route", ["chain", "stepped"])
@pytest.mark.parametrize("h, metric, psi0", _referee_series_cases())
def test_krein_series_agrees_with_the_referee(monkeypatch, route, h, metric, psi0):
    grid = (0.0, 0.7, 2.5, 5.0)
    want = [float((v.conj() @ metric @ v).real) for v in _referee_states(h, psi0, grid).T]
    _on_route(monkeypatch, route, h)
    got = krein_norm_series(EvolutionRequest(h=h, metric=metric, initial_state=psi0,
                                             t_grid=grid))
    assert np.abs(np.array(got) - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def _referee_probability_cases():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(0.3, 1.0, 1.0))
    yield pytest.param(h, build_positive_metric(dec), id="model-real")
    spec = SynthesisSpec(groups=tuple(JordanBlockSpec(x, (1,)) for x in (-1.2, -0.3, 0.4, 1.1,
                                                                           2.0)),
                         basis_seed=5, basis_cond=10.0)
    h, dec = synthesize(spec)
    yield pytest.param(h, build_positive_metric(dec), id="n5-real")


def test_grid_sum_matches_the_direct_sum():
    # rates 0, inside sqrt(eps) / max|t| (taken to first order) and past it
    rng = np.random.default_rng(3)
    t = np.linspace(-50.0, 100.0, 31)
    rate = np.array([0.0, 2e-11j, -3e-12 + 1e-11j, 0.05 - 0.7j, -0.02j])[[0, 1, 2, 2, 3, 4, 4, 0]]
    power = np.array([0, 0, 1, 2, 0, 1, 0, 3])
    coef = rng.normal(size=8) + 1j * rng.normal(size=8)
    want = (coef[:, None] * t ** power[:, None] * np.exp(np.outer(rate, t))).sum(axis=0)
    got = evolution._on_grid(coef, power, rate, t)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("route", ["chain", "stepped"])
@pytest.mark.parametrize("h, metric", _referee_probability_cases())
def test_transition_probability_agrees_with_the_referee(monkeypatch, route, h, metric):
    grid = (0.0, 0.7, 2.5, 5.0)
    rng = np.random.default_rng(h.shape[0])
    initial = evolution.metric_normalize(rng.normal(size=h.shape[0]) + 0j, metric)
    final = evolution.metric_normalize(rng.normal(size=h.shape[0]) + 1j, metric)
    want = np.abs(final.conj() @ metric @ _referee_states(h, initial, grid)) ** 2
    _on_route(monkeypatch, route, h)
    got = transition_probability(EvolutionRequest(h=h, metric=metric, initial_state=initial,
                                                  t_grid=grid), final)
    assert np.abs(np.array(got) - want).max() <= 1e-10


def test_grid_across_zero_is_not_refused_for_its_gap():
    # the gap from -t to t is past the bound, but every |t| is inside it
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    t = 0.75 * EXPM_NORM_BOUND / np.linalg.norm(h)
    req = EvolutionRequest(h=h, metric=build_positive_metric(dec),
                           initial_state=[0, 1], t_grid=(-t, t))
    probs = transition_probability(req, [1, 0])
    want = 0.5 * (1 - np.cos(2 * np.array([-t, t])))
    assert np.abs(np.array(probs) - want).max() < 1e-10


@pytest.mark.parametrize("e,r,s,tags", [
    (0.5, 2.0, 0.5, [("real", None), ("real", None)]),
    (0.5, -2.0, -0.5, [("real", None), ("real", None)]),
    (0.5, 2.0, -0.5, [("minus", 0), ("plus", 0)]),
    (0.5, -2.0, 0.5, [("minus", 0), ("plus", 0)]),
    (0.5, 2.0, 0.0, [("real", None)]),
    (0.5, 0.0, 2.0, [("real", None)]),
    (0.5, 0.0, 0.0, [("real", None)]),
])
def test_model_groups_are_tagged_real_or_as_one_conjugate_pair(e, r, s, tags):
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
    assert [(g.kind, g.pair_id) for g in dec.groups] == tags


def _docstring_basis(e, r, s):
    """(eigenvalues, psi rows, phi rows) by the formulas of the model's docstring."""
    rt2, sgn = np.sqrt(2.0), 1.0 if r > 0 else -1.0
    if r * s > 0:
        kappa, gap = np.sqrt(r / s), np.sqrt(r * s)
        return ([e + gap, e - gap],
                [[1j * sgn * kappa / rt2, 1 / rt2], [-1j * sgn * kappa / rt2, 1 / rt2]],
                [[1j * sgn / (kappa * rt2), 1 / rt2], [-1j * sgn / (kappa * rt2), 1 / rt2]])
    if r * s < 0:
        kappa, mu = np.sqrt(abs(r / s)), np.sqrt(abs(r * s))
        return ([complex(e, -mu), complex(e, mu)],
                [[-sgn * kappa / rt2, 1 / rt2], [sgn * kappa / rt2, 1 / rt2]],
                [[-sgn / (kappa * rt2), 1 / rt2], [sgn / (kappa * rt2), 1 / rt2]])
    if r != 0:
        return [e], [[1, 0], [1j / r, -1j / r]], [[1, 1], [0, -1j * r]]
    if s != 0:
        return [e], [[0, 1], [1j / s, -1j / s]], [[1, 1], [1j * s, 0]]
    return [e], [[1, 0], [0, 1]], [[1, 0], [0, 1]]


@pytest.mark.parametrize("e", [0.5, -0.0])
@pytest.mark.parametrize("r,s", [(2.0, 0.5), (-2.0, -0.5), (0.5, 2.0), (2.0, -0.5), (-2.0, 0.5),
                                 (-0.5, 2.0), (2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0),
                                 (0.0, 0.0)])
def test_model_basis_is_the_docstring_formula_bit_for_bit(e, r, s):
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(e, r, s))
    eigs, psi, phi = _docstring_basis(e, r, s)

    def bits(a):  # equal arrays with equal signs of zero
        return np.asarray(a, dtype=np.complex128).tobytes()

    assert bits([g.eigenvalue for g in dec.groups]) == bits(eigs)
    assert bits(dec.psi.T) == bits(psi)
    assert bits(dec.phi.T) == bits(phi)
    assert bits(dec.phi_dag) == bits(np.asarray(phi, dtype=np.complex128).conj())


@pytest.mark.parametrize("e,r,s", [
    (1.0, 1e200, 1e200),     # r s overflows: infinite eigenvalues
    (1.0, 1e-300, -1e300),   # r / s underflows: kappa = 0
    (1.0, 1e-300, 1e300),
    (1.0, 1e300, -1e-300),   # r / s overflows: kappa = inf
    (1.0, 5e-324, 0.0),      # i / r overflows in the Jordan chain
    (1.0, 0.0, -5e-324),
])
def test_model_refuses_parameters_whose_basis_overflows(e, r, s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="^the model's eigenvalues or chain basis overflow "
                                           "the float range at E="):
            mashhoon_papini(MashhoonPapiniParams(e, r, s))


@pytest.mark.parametrize("name", ["e", "r", "s"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_parameters_must_be_finite(name, value):
    params = dict(e=1.0, r=1.0, s=1.0) | {name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        MashhoonPapiniParams(**params)


def test_a_state_of_negative_metric_norm_is_not_normalized():
    with pytest.raises(IndefiniteMetric, match="non-positive metric norm"):
        evolution.metric_normalize([0.0, 1.0], np.diag([1.0, -1.0]))


@pytest.mark.parametrize("route", ["analyzed", "refused"])
def test_probabilities_do_not_depend_on_the_scale_of_the_states(route):
    # the metric norm of a 1e160 state overflows unless the state is scaled
    # first, and the Frobenius norm of a 1e-170 state underflows to zero
    if route == "analyzed":
        h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
        metric = build_positive_metric(dec)
    else:
        h, metric = _REFUSED_H, np.eye(2)
    initial, final = np.array([1.0, 0.5j]), np.array([0.3, 1.0])
    probabilities = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-170, 1.0, 1e160):
            req = EvolutionRequest(h=h, metric=metric, initial_state=scale * initial,
                                   t_grid=(0.0, 0.5, 1.0, 2.0))
            probabilities.append(transition_probability(req, scale * final))
    assert np.abs(np.array(probabilities) - probabilities[1]).max() < 1e-14
    assert min(probabilities[1]) > 0.1
