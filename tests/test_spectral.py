"""Jordan structure extraction and synthesis round trips."""

import ast
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudoherm import krein, linalg, operators, spectral
from pseudoherm.evolution import MashhoonPapiniParams, mashhoon_papini
from pseudoherm.errors import (ClusterAmbiguity, NonConvergence, NotPaired, Overflow,
                               PseudohermError, Singular, SingularBasis)
from pseudoherm.linalg import DEFAULT_TOL
from pseudoherm.spectral import (
    JordanBlockSpec,
    SynthesisSpec,
    analyze,
    check_biorthonormal,
    is_pseudo_hermitian,
    reconstruct,
    synthesize,
)

from conftest import referee_cluster

# every (H, eta) decided here is also put to the gate's norm bound and the exact residual
pytestmark = pytest.mark.usefixtures("gate_referee")


def _structure(dec):
    return sorted(
        (round(g.eigenvalue.real, 6), round(g.eigenvalue.imag, 6), g.kind,
         tuple(sorted(g.block_dims)))
        for g in dec.groups)


def test_identity_is_fully_degenerate():
    dec = analyze(np.eye(4, dtype=np.complex128))
    assert len(dec.groups) == 1
    assert dec.groups[0].block_dims == (1, 1, 1, 1)
    assert dec.groups[0].kind == spectral.REAL


def test_analyze_diagonal():
    dec = analyze(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert [g.eigenvalue for g in dec.groups] == [1.0, 2.0, 3.0]
    assert all(g.block_dims == (1,) for g in dec.groups)


def test_analyze_single_jordan_block():
    # integer similarity of a 3x3 block at eigenvalue 2
    s = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 2]], dtype=np.complex128)
    j = 2 * np.eye(3) + np.diag([1, 1], k=1)
    h = s @ j @ np.linalg.inv(s)
    dec = analyze(h)
    assert len(dec.groups) == 1
    assert dec.groups[0].block_dims == (3,)
    assert abs(dec.groups[0].eigenvalue - 2) < 1e-8
    rep = check_biorthonormal(dec)
    assert rep.gram_residual < 1e-8
    assert np.linalg.norm(reconstruct(dec) - h) < 1e-8


def test_analyze_mixed_weyr_structure():
    # eigenvalue 1 with blocks [2, 1]: rank staircase 2, 3
    s = np.array([[2, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=np.complex128)
    j = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.complex128)
    h = s @ j @ np.linalg.inv(s)
    dec = analyze(h)
    assert dec.groups[0].block_dims == (2, 1)


@pytest.mark.parametrize("seed", range(6))
def test_synthesize_analyze_round_trip(seed):
    spec = SynthesisSpec(groups=(
        JordanBlockSpec(-1.0, (2,)),
        JordanBlockSpec(0.5, (1, 1)),
        JordanBlockSpec(2.0 + 1.5j, (2, 1)),
        JordanBlockSpec(2.0 - 1.5j, (2, 1)),
    ), basis_seed=seed, basis_cond=30.0)
    h, dec_syn = synthesize(spec)
    dec = analyze(h)
    assert _structure(dec) == _structure(dec_syn)
    rep = check_biorthonormal(dec)
    assert rep.gram_residual < 1e-8
    assert rep.completeness_residual < 1e-8
    assert np.linalg.norm(reconstruct(dec) - h) < 1e-7


def test_synthesized_chains_are_exact():
    spec = SynthesisSpec(groups=(JordanBlockSpec(1.0, (3,)),), basis_seed=1)
    h, dec = synthesize(spec)
    rep = check_biorthonormal(dec)
    assert rep.gram_residual < 1e-12
    # chain relation H psi_i = E psi_i + psi_{i-1}
    c = dec.groups[0].chains[0]
    assert np.allclose(h @ c.psi[0], 1.0 * c.psi[0], atol=1e-10)
    for i in range(1, 3):
        assert np.allclose(h @ c.psi[i], 1.0 * c.psi[i] + c.psi[i - 1], atol=1e-10)


def test_pair_classification_and_order():
    spec = SynthesisSpec(groups=(
        JordanBlockSpec(1 + 2j, (1,)), JordanBlockSpec(1 - 2j, (1,)),
    ), basis_seed=0)
    h, _ = synthesize(spec)
    dec = analyze(h)
    kinds = [g.kind for g in dec.groups]
    assert kinds == [spectral.PLUS, spectral.MINUS]
    assert dec.groups[0].pair_id == dec.groups[1].pair_id is not None


def test_unpaired_complex_is_rejected_unless_allowed():
    h = np.diag([1j, 2.0]).astype(complex)
    with pytest.raises(NotPaired):
        analyze(h)
    dec = analyze(h, allow_unpaired=True)
    assert any(g.kind == spectral.UNPAIRED for g in dec.groups)


def test_pair_with_mismatched_blocks_is_rejected():
    spec = SynthesisSpec(groups=(
        JordanBlockSpec(1 + 1j, (2,)), JordanBlockSpec(1 - 1j, (1, 1)),
    ), basis_seed=0)
    with pytest.raises(NotPaired):
        synthesize(spec)


def test_synthesize_refuses_an_unpaired_group_as_analyze_does():
    spec = SynthesisSpec(groups=(JordanBlockSpec(0.5 + 2j, (2,)), JordanBlockSpec(1.0, (1,))),
                         basis_seed=0, basis_cond=10.0)
    h, dec = synthesize(spec, allow_unpaired=True)
    assert dec.unpaired == ((0.5 + 2j, (2,)),)
    with pytest.raises(NotPaired) as synthesized:
        synthesize(spec)
    with pytest.raises(NotPaired) as analyzed:
        analyze(h)
    # one message; analyze lists its H's computed eigenvalue, synthesize the spec's
    text, _, listed = str(synthesized.value).partition(": ")
    want, _, computed = str(analyzed.value).partition(": ")
    assert text == want == "complex eigenvalues without conjugate partner of equal block structure"
    assert listed == "[(0.5+2j)]"
    assert np.abs(np.array(ast.literal_eval(computed)) - (0.5 + 2j)).max() < 1e-12


def test_cluster_ambiguity_on_close_eigenvalues():
    with pytest.raises(ClusterAmbiguity):
        analyze(np.diag([0.0, 1e-6]).astype(complex))
    with pytest.raises(ClusterAmbiguity):
        analyze(np.diag([0.0, 1e-3]).astype(complex))  # separated but < 10x scale
    analyze(np.diag([0.0, 0.1]).astype(complex))  # clearly resolved


def test_realness_snap():
    # a real-spectrum matrix whose computed eigenvalues pick up rounding imag
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    h = (a + a.T).astype(complex)  # symmetric: exactly real spectrum
    dec = analyze(h)
    assert all(g.kind == spectral.REAL for g in dec.groups)
    assert all(g.eigenvalue.imag == 0 for g in dec.groups)


def test_unpaired_near_real_eigenvalue_is_not_real():
    # 1.5e-4 is past the snap (0.1 delta) but inside the pairing window
    # (delta = 4.1e-4): realness is the snap's decision alone
    dec = analyze(np.diag([1 + 1.5e-4j, 5.0]).astype(complex), allow_unpaired=True)
    assert [g.kind for g in dec.groups] == [spectral.UNPAIRED, spectral.REAL]
    assert dec.groups[0].eigenvalue == 1 + 1.5e-4j
    with pytest.raises(NotPaired):
        analyze(np.diag([1 + 1.5e-4j, 5.0]).astype(complex))


def test_analyze_is_deterministic():
    spec = SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (2,)), JordanBlockSpec(1.0, (1,)),
    ), basis_seed=9)
    h, _ = synthesize(spec)
    d1, d2 = analyze(h), analyze(h)
    assert np.array_equal(d1.psi_matrix(), d2.psi_matrix())
    assert np.array_equal(d1.phi_matrix(), d2.phi_matrix())


def test_is_pseudo_hermitian_predicate():
    h = np.array([[1, 1j], [-1j, 1]], dtype=np.complex128)  # Hermitian
    assert is_pseudo_hermitian(h, np.eye(2))
    nh = np.array([[1, 1j], [1j, 1]], dtype=np.complex128)
    assert not is_pseudo_hermitian(nh, np.eye(2))


def test_is_pseudo_hermitian_ignores_the_scale_of_the_metric():
    # the residual is ||eta H eta^-1 - H^dag||_F, whatever the scale of eta,
    # and its threshold is tol.scaled(H)
    for r, s in ((2.0, 0.5), (2.0, -0.5), (2.0, 0.0), (0.0, 0.0)):
        h, _, dec = mashhoon_papini(MashhoonPapiniParams(0.5, r, s))
        p = operators.build_parity(dec)
        for c in (1e-6, 1e-3, 1.0, 1e6, 1e10, 1e14):
            assert is_pseudo_hermitian(h, c * p), (r, s, c)
    for h in ([[0, 1], [0, 0]], [[1j, 0], [0, 2]]):
        for c in 10.0 ** np.arange(13):
            assert not is_pseudo_hermitian(h, c * np.eye(2)), (h, c)
    # nor does a small metric eigenvalue hide a violation: under
    # diag(1, 1, 6e-10), eta H - H^dag eta = 6e-10 (E31 - E13) is below
    # tol.scaled(H), but eta H eta^-1 - H^dag = E31 - E13
    for c in (1.0, 1e10):
        assert not is_pseudo_hermitian([[1, 0, 0], [0, 1, 0], [1, 0, 1]],
                                       c * np.diag([1.0, 1.0, 6e-10])), c


@pytest.mark.parametrize("c", [1e154, 1e200, 1e300])
def test_a_large_metric_is_not_refused_as_singular(c):
    # ||c I||_F overflowed for c >= 1e154, and with it the threshold that
    # called every eigenvalue of the metric zero
    metric = c * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_pseudo_hermitian([[1, 0.5], [0.5, 2]], metric)
        w = linalg.metric_eigenvalues(metric)
    assert np.abs(w - c).max() <= 4 * np.finfo(float).eps * c  # eigvalsh rescales c I


_G = (0.3, -0.7, 1 + 0.5j, 1 - 0.5j, 2.0)


@pytest.mark.parametrize("groups, cond, seed, accepted", [
    ([JordanBlockSpec(e, (1,)) for e in _G], 10.0, 0, True),
    ([JordanBlockSpec(0.3, (2, 2)), JordanBlockSpec(-0.8, (1, 1)),
      JordanBlockSpec(1.5, (1,))], 100.0, 1, True),
    ([JordanBlockSpec(1e3 * e, (1,)) for e in _G], 1e4, 3, False),
    ([JordanBlockSpec(e, (1,)) for e in _G], 1e5, 0, False),
    ([JordanBlockSpec(0.3, (3,)), JordanBlockSpec(1 + 0.5j, (2,)),
      JordanBlockSpec(1 - 0.5j, (2,)), JordanBlockSpec(-1.0, (1,))], 1e5, 1, False),
    ([JordanBlockSpec(0.3, (2, 2)), JordanBlockSpec(-0.8, (1, 1)),
      JordanBlockSpec(1.5, (1,))], 1e5, 1, False),
], ids=["simple-cond10", "blocks-cond100", "simple-x1e3-cond1e4", "simple-cond1e5",
        "blocks-pair-cond1e5", "blocks-cond1e5"])
def test_is_pseudo_hermitian_decides_as_the_inverse_would(groups, cond, seed, accepted):
    # the decision on a structure under its own parity is that of
    # ||P H P^-1 - H^dag||_F with P^-1 applied by a solve.  At basis cond
    # 1e4-1e5 (cond(P) 7e6-5e8) the rounding of P and H leaves both above
    # tol.scaled(H), as the parent's inverse did: for "simple-cond1e5" the
    # residual is 4.2e-4 and the solve's 3.8e-4, against 3.3e-5
    h, dec = synthesize(SynthesisSpec(tuple(groups), basis_seed=seed, basis_cond=cond))
    p = operators.build_parity(dec)
    referee = np.linalg.solve(p.conj().T, (p @ h).conj().T).conj().T
    assert bool(np.linalg.norm(referee - h.conj().T) <= DEFAULT_TOL.scaled(h)) is accepted
    assert is_pseudo_hermitian(h, p) is accepted


def _one_copy_cases():
    h = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 1j]])
    _, dec = synthesize(SynthesisSpec((JordanBlockSpec(0.5, (2, 1)),
                                       JordanBlockSpec(1 + 1j, (1,)),
                                       JordanBlockSpec(1 - 1j, (1,))), basis_seed=3))
    models = [mashhoon_papini(MashhoonPapiniParams(0.5, r, s))[2]
              for r, s in ((2, 0.5), (-2, -0.5), (2, -0.5), (-2, 0.5), (2, 0), (0, 2), (0, 0))]
    return [analyze(h, allow_unpaired=True), dec] + models


@pytest.mark.parametrize("dec", _one_copy_cases(), ids=[
    "analyze", "synthesize", "real-r+", "real-r-", "complex-r+", "complex-r-",
    "jordan-s0", "jordan-r0", "scalar"])
def test_chains_are_read_only_views_of_one_basis(dec):
    psi, phi = dec.psi_matrix(), dec.phi_matrix()
    assert psi.shape == phi.shape == (dec.n, dec.n)
    assert not psi.flags.writeable and not phi.flags.writeable
    for g in dec.groups:
        for c in g.chains:
            assert np.shares_memory(c.psi, psi) and np.shares_memory(c.phi, phi)
            assert not c.psi.flags.writeable and not c.phi.flags.writeable


def test_basis_cond_is_respected():
    spec = SynthesisSpec(groups=(JordanBlockSpec(0.0, (1, 1, 1)),),
                         basis_seed=2, basis_cond=50.0)
    _, dec = synthesize(spec)
    s = dec.psi_matrix()
    assert np.isclose(np.linalg.cond(s), 50.0, rtol=1e-6)


def _loop_cluster(eigs, delta):
    """The quadratic single-linkage loop that ``_cluster`` replaces, kept as
    its oracle: member index lists, seeded in lexsort (real, imag) order."""
    order = np.lexsort((eigs.imag, eigs.real))
    remaining = list(order)
    clusters = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        grew = True
        while grew:
            grew = False
            for idx in list(remaining):
                if min(abs(eigs[idx] - eigs[m]) for m in members) <= delta:
                    members.append(idx)
                    remaining.remove(idx)
                    grew = True
        clusters.append(members)
    return clusters


@pytest.mark.parametrize("seed", range(25))
def test_cluster_matches_single_linkage_loop(seed):
    rng = np.random.default_rng(seed)
    delta = 0.05
    k = int(rng.integers(1, 30))
    points = [rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)]
    # chains linked only end to end, just under delta (joined) or just over
    # it (split), a pair exactly delta apart (joined) and exact repeats
    for step in (1 - 1e-9, 1 + 1e-9, 1 - 1e-9):
        start = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        heading = np.exp(1j * rng.choice([0.0, 0.5 * np.pi, rng.uniform(0, 2 * np.pi)]))
        points.append(start + heading * step * delta * np.arange(int(rng.integers(2, 9))))
    points.append(3j + np.array([0.0, delta]))
    points.append(np.repeat(points[0][:2], 2))
    eigs = np.concatenate(points).astype(np.complex128)
    rng.shuffle(eigs)
    ids = spectral._cluster(eigs, delta)
    got = [np.flatnonzero(ids == k).tolist() for k in range(ids.max() + 1)]
    assert got == [sorted(c) for c in _loop_cluster(eigs, delta)]
    # the referee's clusters, and their members' means and radii bit for bit
    clusters = referee_cluster(eigs, delta)
    assert got == [sorted(c.tolist()) for c in clusters]
    sizes, centers, radii = spectral._cluster_table(eigs, ids)
    assert sizes.tolist() == [c.size for c in clusters]
    means = np.array([eigs[c].mean() for c in clusters])
    assert np.array_equal(centers.view(float), means.view(float))
    assert radii.tolist() == [np.abs(eigs[c] - z).max() for c, z in zip(clusters, means)]



def _loop_check_gaps(centers, radii, delta):
    """The cluster-pair loop that ``_check_gaps`` replaces, kept as its
    oracle."""
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = abs(centers[i] - centers[j])
            if gap < 10.0 * max(radii[i] + radii[j], delta):
                raise ClusterAmbiguity(
                    f"eigenvalue clusters at {centers[i]:.6g} and {centers[j]:.6g} "
                    f"are separated by {gap:.3e}, below 10x the cluster scale "
                    f"{max(radii[i] + radii[j], delta):.3e}")


@pytest.mark.parametrize("seed", range(25))
def test_check_gaps_matches_pair_loop(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 40))
    centers = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
    radii = np.where(rng.random(k) < 0.5, 0.0, 10.0 ** rng.uniform(-6, -3, k))
    delta = 10.0 ** rng.uniform(-4, -2)
    # move a few clusters next to others, at 0.5-1.5x the 10x threshold, so
    # several pairs can fail and the first one in (i, j) order must be named
    for _ in range(int(rng.integers(0, 5))):
        i, j = rng.choice(k, size=2, replace=False)
        scale = 10.0 * max(radii[i] + radii[j], delta)
        centers[j] = centers[i] + scale * rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())
    outcomes = []
    for check in (spectral._check_gaps, _loop_check_gaps):
        try:
            check(centers, radii, delta)
            outcomes.append(None)
        except ClusterAmbiguity as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]



def test_check_gaps_passes_a_pair_exactly_at_ten_times_the_scale():
    delta = 2.0 ** -10
    centers = np.array([0.25, 0.25 + 10.0 * delta, 1.0 + 0.5j])
    radii = np.zeros(3)
    spectral._check_gaps(centers, radii, delta)
    _loop_check_gaps(centers, radii, delta)
    with pytest.raises(ClusterAmbiguity, match="separated by 9.766e-03"):
        spectral._check_gaps(centers, radii, delta * (1 + 1e-12))


def _spec(rng, n, blocks=(), pairs=0, cond=100.0):
    """Real Jordan blocks of the given sizes, ``pairs`` simple conjugate
    pairs and simple real eigenvalues filling n; real parts at least 0.6
    apart, pair members 0.6 to 2 apart."""
    n_real = n - sum(blocks) - 2 * pairs + len(blocks)
    m = n_real + pairs
    pos = np.arange(m) - 0.5 * (m - 1) + rng.uniform(-0.2, 0.2, m)
    rng.shuffle(pos)
    dims = list(blocks) + [1] * (n_real - len(blocks))
    groups = [JordanBlockSpec(x, (p,)) for x, p in zip(pos, dims)]
    for x in pos[n_real:]:
        z = x + 1j * rng.uniform(0.3, 1.0)
        groups += [JordanBlockSpec(z, (1,)), JordanBlockSpec(np.conj(z), (1,))]
    return SynthesisSpec(groups=tuple(groups), basis_seed=int(rng.integers(2 ** 62)),
                         basis_cond=cond)


def _same_structure(dec, dec_syn, c=1.0, adjoint=False):
    """Each synthesized group, its eigenvalue times c (conjugated, and plus
    and minus swapped, if ``adjoint``), meets its nearest analyzed group,
    within 1e-6 |c|, with the same kind and block sizes, and no two meet the
    same one."""
    swap = {spectral.PLUS: spectral.MINUS, spectral.MINUS: spectral.PLUS} if adjoint else {}
    want = [(c * (np.conj(g.eigenvalue) if adjoint else g.eigenvalue), swap.get(g.kind, g.kind),
             sorted(g.block_dims)) for g in dec_syn.groups]
    got = [(g.eigenvalue, g.kind, sorted(g.block_dims)) for g in dec.groups]
    nearest = [min(range(len(got)), key=lambda i: abs(got[i][0] - w[0])) for w in want]
    return len(got) == len(set(nearest)) == len(want) and all(
        abs(got[i][0] - w[0]) <= 1e-6 * abs(c) and got[i][1:] == w[1:]
        for i, w in zip(nearest, want))


def _chain_residuals(h, dec):
    rep = check_biorthonormal(dec)
    return {"biorthonormality": rep.gram_residual,
            "completeness": rep.completeness_residual,
            "reconstruction": float(np.linalg.norm(reconstruct(dec) - h))}


def test_analyze_ensemble_one_jordan_block():
    """Block sizes 1-8 in n=16 across basis conditions: never a wrong
    structure or an accepted result over threshold, only typed refusals,
    and every block of size <= 5 resolved."""
    refused = []
    for p in range(1, 9):
        for cond in (1.0, 10.0, 100.0, 1e3):
            for seed in range(2):
                rng = np.random.default_rng([p, int(cond), seed])
                h, dec_syn = synthesize(_spec(rng, 16, (p,), cond=cond))
                try:
                    dec = analyze(h)
                except PseudohermError as exc:
                    assert isinstance(exc, ClusterAmbiguity), (p, cond, seed, exc)
                    refused.append((p, cond, seed))
                    continue
                assert _same_structure(dec, dec_syn), (p, cond, seed)
                assert all(g.eigenvalue.imag == 0 for g in dec.groups if g.kind == "real")
                thr = DEFAULT_TOL.scaled(h)
                assert all(r <= thr for r in _chain_residuals(h, dec).values()), (p, cond, seed)
    assert all(p > 5 for p, _, _ in refused), refused


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n, blocks, pairs", [(32, (6,), 0), (64, (5,), 1)])
def test_high_order_blocks_pass_the_check_battery(n, blocks, pairs, seed):
    h, dec_syn = synthesize(_spec(np.random.default_rng([n, seed]), n, blocks, pairs))
    dec = analyze(h)
    assert _same_structure(dec, dec_syn)
    p, c = operators.build_parity(dec), operators.build_charge(dec)
    tp = operators.build_tp(dec).matrix
    eye = np.eye(n)
    residuals = _chain_residuals(h, dec) | {
        "P H P^-1 = H^dag": np.linalg.norm(p @ h @ np.linalg.inv(p) - h.conj().T),
        "C^2 = 1": np.linalg.norm(c @ c - eye),
        "[C, H] = 0": np.linalg.norm(c @ h - h @ c),
        "(TP)^2 = 1": np.linalg.norm(tp @ tp.conj() - eye),
        "[TP, H] = 0": np.linalg.norm(tp @ h.conj() - h @ tp),
        "[C, TP] = 0": np.linalg.norm(c @ tp - tp @ c.conj()),
    }
    thr = DEFAULT_TOL.scaled(h)
    assert {k: r for k, r in residuals.items() if not r <= thr} == {}


# --- simple eigenvalues without Schur reordering ------------------------------

def _refuse_reordering(monkeypatch):
    def refuse(*_):
        raise AssertionError("reorder_schur called")
    monkeypatch.setattr(linalg, "reorder_schur", refuse)


def _failed_checks(h, dec):
    return [r["check"] for r in krein.check_battery(h, dec) if not r["pass"]]


def _diagonalizable_cases():
    for pairs in (0, 8):
        h, _ = synthesize(_spec(np.random.default_rng([64, pairs]), 64, pairs=pairs))
        yield pytest.param(h, id=f"n64-{pairs}-pairs")
    for regime, s in (("real", 1.0), ("complex", -1.0)):
        yield pytest.param(mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, s))[0],
                           id=f"mashhoon-{regime}")


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("h", _diagonalizable_cases())
def test_simple_eigenvalues_need_no_schur_reordering(monkeypatch, h):
    _refuse_reordering(monkeypatch)
    dec = analyze(h)
    assert all(g.block_dims == (1,) for g in dec.groups)
    assert _failed_checks(h, dec) == []


@pytest.mark.usefixtures("cold_memo")
def test_schur_reordering_runs_once_per_defective_cluster(monkeypatch):
    # the (1, 1) cluster at 2 is semisimple by the sweep's bound: no reordering
    spec = SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (3,)), JordanBlockSpec(2.0, (1, 1)), JordanBlockSpec(-1.5, (1,)),
        JordanBlockSpec(1 + 1j, (1,)), JordanBlockSpec(1 - 1j, (1,)), JordanBlockSpec(3.5, (1,)),
    ), basis_seed=4, basis_cond=10.0)
    h, dec_syn = synthesize(spec)
    moved = []
    reorder = linalg.reorder_schur
    monkeypatch.setattr(linalg, "reorder_schur", lambda t, z, select: (
        moved.append(int(select.sum())) or reorder(t, z, select)))
    dec = analyze(h)
    assert moved == [3]
    assert _same_structure(dec, dec_syn)
    assert _failed_checks(h, dec) == []


@pytest.mark.usefixtures("cold_memo")
def test_snapped_simple_eigenvalue_keeps_its_staircase_refusal(monkeypatch):
    # the snap moves the center of 1+1e-5i to 1, so the 1x1 staircase test
    # sees 1e-5, not 0; open: the snap distance is not taken into account
    _refuse_reordering(monkeypatch)
    with pytest.raises(ClusterAmbiguity) as exc:
        analyze(np.diag([1 + 1e-5j, 5.0]))
    assert str(exc.value) == (
        "simple eigenvalue 1+1e-05j is snapped to the real axis, but its |Im| = 1.000e-05 "
        "is above the bound 1.000e-10 of its 1x1 rank staircase")


@pytest.mark.usefixtures("cold_memo")
def test_a_failed_1x1_staircase_is_refused_before_any_cluster_is_visited(monkeypatch):
    # the 2-block at 1 is listed before the snapped 5 + 1e-5i, and is not reordered
    _refuse_reordering(monkeypatch)
    with pytest.raises(ClusterAmbiguity, match=r"^simple eigenvalue 5\+1e-05j is snapped "):
        analyze(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 5 + 1e-5j]]))


@pytest.mark.usefixtures("cold_memo")
def test_a_saturated_staircase_prints_its_margin():
    # at s = -1e-10 the kept singular value is over its cut by about 3e-7 of
    # the cut, so both print as 1.000e-10; the relative excess shows the margin
    with pytest.raises(ClusterAmbiguity) as exc:
        analyze(mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1e-10))[0])
    found = re.fullmatch(
        r"rank staircase saturates at nullity 1, but the eigenvalue cluster has multiplicity "
        r"2: power 2 keeps the singular value 1\.000e-10 above its cut 1\.000e-10, by "
        r"(\S+) of the cut; the cluster is not resolvable at this tolerance", str(exc.value))
    assert found and 1e-7 < float(found[1]) < 1e-6, str(exc.value)


@pytest.mark.usefixtures("cold_memo")
def test_a_failed_schur_reordering_is_a_typed_refusal(monkeypatch):
    monkeypatch.setattr(linalg, "reorder_schur", lambda t, z, select: (t, z, 0, 1))
    with pytest.raises(ClusterAmbiguity) as exc:
        analyze(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert str(exc.value) == ("Schur reordering of the eigenvalue cluster at 1+0j failed "
                              "(info=1, 0 of 2 eigenvalues moved)")


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("h", [np.diag([1.0, 2.0]), np.diag([1j, 2.0])],
                         ids=["paired", "unpaired"])
def test_a_singular_chain_basis_is_refused_before_the_pairing(monkeypatch, h):
    def singular(a, tol):
        raise Singular("pivot 0.000e+00 below tolerance")

    monkeypatch.setattr(linalg, "inv", singular)
    with pytest.raises(ClusterAmbiguity) as exc:
        analyze(h)
    assert str(exc.value) == "chain basis numerically singular: pivot 0.000e+00 below tolerance"


@pytest.mark.parametrize("dims", [(), (0,), (2, -1)])
def test_jordan_block_spec_needs_positive_dims(dims):
    with pytest.raises(ValueError, match="non-empty list of positive integers"):
        JordanBlockSpec(1.0, dims)


@pytest.mark.parametrize("cond", [0.5, 0.0, np.inf, -5.0, np.nan])
def test_basis_cond_must_be_finite_and_at_least_1(cond):
    with pytest.raises(ValueError) as exc:
        SynthesisSpec(groups=(JordanBlockSpec(1.0, (1, 1)),), basis_cond=cond)
    assert str(exc.value) == f"basis_cond must be finite and at least 1, got {cond}"


def test_basis_cond_1_is_a_unitary_basis():
    _, dec = synthesize(SynthesisSpec(groups=(JordanBlockSpec(1.0, (1, 1)),),
                                      basis_seed=3, basis_cond=1.0))
    assert np.linalg.cond(dec.psi) == pytest.approx(1.0)


def test_a_numerically_singular_synthesis_basis_is_refused():
    spec = SynthesisSpec(groups=(JordanBlockSpec(1.0, (1, 1)),), basis_seed=1,
                         basis_cond=1e300)
    with pytest.raises(SingularBasis, match="basis not invertible: pivot"):
        synthesize(spec)


def test_synthesized_matrix_is_the_reconstruction():
    spec = SynthesisSpec(groups=(JordanBlockSpec(0.5, (3, 1)), JordanBlockSpec(2j, (2,)),
                                 JordanBlockSpec(-2j, (2,))), basis_seed=4)
    h, dec = synthesize(spec)
    assert np.array_equal(h, reconstruct(dec))


def test_staircase_svd_failure_is_a_typed_refusal():
    # b^3 of a 3-block scaled by 1e150 overflows, and the SVD of its
    # non-finite entries does not converge
    with np.errstate(all="ignore"), pytest.raises(NonConvergence) as exc:
        analyze(1e150 * (np.eye(3) + np.eye(3, k=1)))
    assert str(exc.value).startswith("rank staircase: SVD of power 3 ")
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("p", [3, 4])
def test_a_large_scale_jordan_block_is_analyzed_or_refused_without_warnings(p):
    # the powers of the staircase overflow at some scales; their SVD refuses them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(40, 154):
            try:
                analyze(10.0 ** k * (np.eye(p) + np.eye(p, k=1)))
            except PseudohermError:
                pass


# --- the staircase's certificate and generators -------------------------------

def _svd_staircase_dims(b, tol=DEFAULT_TOL):
    """Block sizes of the nilpotent ``b`` by the plain staircase: an SVD of
    every power, cut at ``tol.abs + tol.rel * s_max``, until full nullity."""
    m, power, nullities = b.shape[0], np.eye(b.shape[0]), [0]
    while nullities[-1] < m and len(nullities) <= m:
        power = power @ b
        s = np.linalg.svd(power, compute_uv=False)
        nullities.append(int(np.count_nonzero(s <= tol.abs + tol.rel * s[0])))
    weyr = np.diff(nullities + [m])
    return sorted(k + 1 for k in range(len(weyr) - 1) for _ in range(weyr[k] - weyr[k + 1]))


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _degenerate_spec(n, dims, cond, seed):
    """Two real groups of blocks ``dims`` (one if two do not fit in n) and
    simple real eigenvalues filling n, at least 0.6 apart."""
    rng = np.random.default_rng([n, len(dims), dims[0], int(cond), seed])
    groups = 2 if 2 * sum(dims) <= n else 1
    m = n - groups * (sum(dims) - 1)
    pos = np.arange(m) - 0.5 * (m - 1) + rng.uniform(-0.2, 0.2, m)
    rng.shuffle(pos)
    return SynthesisSpec(groups=tuple(JordanBlockSpec(x, dims if k < groups else (1,))
                                      for k, x in enumerate(pos)),
                         basis_seed=int(rng.integers(2 ** 62)), basis_cond=cond)


def _reordered_blocks(h, dec):
    """``(group, b, z1, member)`` for each multi-member group of ``dec``: ``b
    = T11 - E I`` and ``z1`` the leading Schur vectors of H's Schur form
    reordered, by the test, to put the group's cluster (the Schur indices
    ``member``) first, T11 its leading block and E the group's eigenvalue."""
    t, z = linalg.schur(h)
    eigs = np.diag(t)
    ids = spectral._cluster(eigs, spectral.default_cluster_tol(h))
    out = []
    for g in dec.groups:
        if sum(g.block_dims) > 1:
            member = ids == ids[np.argmin(np.abs(eigs - g.eigenvalue))]
            t_re, z_re, m, info = linalg.reorder_schur(t, z, member.astype(np.int32))
            assert info == 0 and m == sum(g.block_dims) == member.sum()
            out.append((g, t_re[:m, :m] - g.eigenvalue * np.eye(m), z_re[:, :m], member))
    return out


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1), (2, 2), (3, 3)], ids=str)
@pytest.mark.parametrize("n", [8, 32, 64])
def test_identical_blocks_match_the_svd_staircase(n, dims):
    """Each multi-member group's block sizes are those of an SVD of every
    power of its cluster's block in a Schur form the test reorders itself,
    whether ``analyze`` reordered it (a defective cluster) or not (a
    semisimple one), and the result passes the check battery."""
    for cond in (1.0, 10.0, 100.0, 1e3):
        h, dec_syn = synthesize(_degenerate_spec(n, dims, cond, 0))
        dec = analyze(h)
        blocks = _reordered_blocks(h, dec)
        assert blocks and all(sorted(g.block_dims) == _svd_staircase_dims(b)
                              for g, b, *_ in blocks), cond
        assert _same_structure(dec, dec_syn), cond
        assert _failed_checks(h, dec) == [], cond


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1)], ids=str)
@pytest.mark.parametrize("n", [8, 32, 64])
def test_semisimple_sweep_vectors_span_the_reordered_schur_vectors(monkeypatch, n, dims):
    """A semisimple cluster within the sweep's bound takes its eigenvectors
    from the back-substitution sweep, with no reordering; they span the
    subspace of the leading Schur vectors of a Schur form reordered to put
    the cluster first: the sine of every principal angle between the two is
    within the rounding unit of a reconstruction, ``_ROUNDING`` n eps
    ||Psi||_F ||Phi||_F (1.6 of n eps ||Psi||_F ||Phi||_F at most on
    seeds 0-7), and the staircase of the reordered block gives the same
    block sizes.  Up to basis condition 100 every such cluster is within
    the bound; at 1e3, where ||X_C||_F ||R||_F reads 1e-10 to 3e-9, the
    test's clusters take the staircase."""
    reorder, reordered = linalg.reorder_schur, []
    monkeypatch.setattr(linalg, "reorder_schur", lambda t, z, select: reordered.append(
        select.astype(bool)) or reorder(t, z, select))
    for cond in (1.0, 10.0, 100.0, 1e3):
        h, _ = synthesize(_degenerate_spec(n, dims, cond, 1))
        reordered.clear()
        dec = analyze(h)
        done = list(reordered)
        assert cond == 1e3 or done == [], cond
        blocks = _reordered_blocks(h, dec)
        assert len(blocks) == (2 if 2 * sum(dims) <= n else 1), cond
        rounding = n * np.finfo(float).eps * np.linalg.norm(dec.psi) * np.linalg.norm(dec.phi)
        for g, b, z1, member in blocks:
            assert g.block_dims == dims and _svd_staircase_dims(b) == list(dims), cond
            if any(np.array_equal(member, sel) for sel in done):
                continue
            q = np.linalg.qr(np.array([c.psi[0] for c in g.chains]).T)[0]
            sines = np.linalg.svd(q - z1 @ (z1.conj().T @ q), compute_uv=False)
            assert sines.max() <= spectral._ROUNDING * rounding, (cond, sines.max() / rounding)


@pytest.mark.usefixtures("cold_memo")
def test_semisimple_clusters_take_no_svd_or_qr(monkeypatch):
    h, _ = synthesize(_degenerate_spec(32, (1, 1), 100.0, 1))
    calls = _count_calls(monkeypatch, "svd", "qr")
    dec = analyze(h)
    assert sorted(g.block_dims for g in dec.groups)[-2:] == [(1, 1), (1, 1)]
    assert calls == {"svd": 0, "qr": 0}


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_a_single_block_takes_one_svd_per_power_and_no_qr(monkeypatch, p):
    h, _ = synthesize(_spec(np.random.default_rng([32, p]), 32, (p,), cond=10.0))
    calls = _count_calls(monkeypatch, "svd", "qr")
    dec = analyze(h)
    assert max(g.block_dims for g in dec.groups) == (p,)
    assert calls == {"svd": p, "qr": 0}


@pytest.mark.usefixtures("cold_memo")
def test_a_small_residual_in_a_long_sweep_basis_is_a_jordan_block():
    """[[0.1, 10, 0], [0, 0, 5e-11], [0, 0, 0]] has one 2-block at 0.  The
    sweep's residual on the cluster's rows is 5e-11, within tol.abs = 1e-10,
    but its vector over the cluster's first member has norm 100, and the
    reordered block couples the two by about 100 * 5e-11 = 5e-9: the
    semisimplicity bound ||X_C||_F ||R||_F = 5e-9 sends the cluster to the
    staircase, which finds the 2-block."""
    h = np.array([[0.1, 10, 0], [0, 0, 5e-11], [0, 0, 0]])
    dec = analyze(h)
    assert [(g.eigenvalue, g.block_dims) for g in dec.groups] == [(0, (2,)), (0.1, (1,))]
    assert np.linalg.norm(reconstruct(dec) - h) < 1e-12


def test_a_semisimple_block_over_the_norm_bound_keeps_the_unit_vectors(monkeypatch):
    # ||b||_F = 1.27e-10 misses the bound tol.abs = 1e-10, but both singular
    # values are under the cut: one SVD decides it, and the basis is the same
    calls = _count_calls(monkeypatch, "svd", "qr")
    block, dims = spectral._extract_chains(np.diag([9e-11, 9e-11]).astype(complex), DEFAULT_TOL)
    assert calls == {"svd": 1, "qr": 0}
    assert dims == (1, 1) and block.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("p, scale", [(3, 1e78), (3, 1e100), (3, 1e120), (3, 1e140),
                                      (4, 1e52), (4, 1e76), (4, 1e100)])
def test_an_overflowing_chain_norm_is_refused_without_warnings(p, scale):
    # H is finite, but its chain vectors grow like scale^(i-1) and a chain
    # head's norm passes the float range before S can be normalized
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="chain vector's norm overflows"):
            analyze(scale * (np.eye(p) + np.eye(p, k=1)))


@pytest.mark.parametrize("h", [1e154 * np.diag([1.0, 2.0]), 1e160 * (np.eye(3) + np.eye(3, k=1))],
                         ids=["diag-1e154", "jordan3-1e160"])
def test_a_matrix_whose_norm_overflows_is_refused(h):
    # ||H||_F^2 passes the float range, so no threshold scaled by it is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow) as exc:
            analyze(h)
    assert str(exc.value) == "||H||_F overflows the float range"
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("k", range(16))
def test_a_scaled_jordan_block_is_one_block_at_every_scale(k):
    # the chain basis is inverted with its columns equilibrated, so the pivot
    # test does not see the 1/s scale of the vectors above the eigenvector
    h = 10.0 ** k * np.array([[1.0, 1.0], [0.0, 1.0]])
    dec = analyze(h)
    assert [(g.kind, g.block_dims) for g in dec.groups] == [("real", (2,))]
    assert _failed_checks(h, dec) == []


def _chain_head_cases():
    yield pytest.param(np.diag([1.0, 2.0, 3.0]).astype(complex), id="diagonal")
    yield pytest.param(mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))[0], id="pair")
    yield pytest.param(10.0 * (np.eye(4) + np.eye(4, k=1)), id="jordan4")
    for n, blocks, pairs in ((16, (3, 2), 2), (32, (4,), 3)):
        h, _ = synthesize(_spec(np.random.default_rng([n, 9]), n, blocks, pairs))
        yield pytest.param(h, id=f"n{n}-blocks")


@pytest.mark.parametrize("h", _chain_head_cases())
def test_every_chain_head_has_unit_norm_and_a_real_positive_lead(h):
    dec = analyze(h)
    for g in dec.groups:
        for c in g.chains:
            head = c.psi[0]
            assert abs(np.linalg.norm(head) - 1.0) <= 1e-14
            lead = head[np.argmax(np.abs(head) > 1e-8)]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15 * lead.real


def test_cluster_centers_are_their_members_means_bit_for_bit():
    h, _ = synthesize(_spec(np.random.default_rng(11), 24, (3, 3, 2), 2, cond=10.0))
    eigs = np.diag(linalg.schur(h)[0])
    ids = spectral._cluster(eigs, spectral.default_cluster_tol(h))
    lexsorted = np.lexsort((eigs.imag, eigs.real))  # each cluster's members in this order
    means = [eigs[lexsorted[ids[lexsorted] == k]].mean() for k in range(ids.max() + 1)]
    got = sorted((g.eigenvalue for g in analyze(h).groups), key=lambda z: (z.real, z.imag))
    want = sorted((complex(m.real, 0.0) if abs(m.imag) < 1e-6 else complex(m) for m in means),
                  key=lambda z: (z.real, z.imag))
    assert got == want
    assert any(len(g.chains[0].psi) > 1 for g in analyze(h).groups)


# --- the cluster tables and the sweep's decisions against their referees -----

def _profiled_calls(call, outside) -> int:
    """Python and C function calls ``call()`` makes, by ``sys.setprofile``,
    counting a call to the function ``outside`` as one."""
    count, inside = [0], [None]

    def profile(frame, event, _arg):
        if inside[0] is None:
            count[0] += event in ("call", "c_call")
            if event == "call" and frame.f_code is outside.__code__:
                inside[0] = frame
        elif event == "return" and frame is inside[0]:
            inside[0] = None

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count[0]


def test_analyze_makes_as_many_calls_at_every_size():
    """The cluster tables, the sweep and its semisimplicity bound are
    whole-array passes: on simple spectra with two conjugate pairs,
    ``analyze`` makes the same number of function calls at n = 8, 32 and
    64 (ufuncs and operators make none), ``_assemble``'s pass over the
    groups counted as one call."""
    counts = []
    for n in (8, 32, 64):
        h, _ = synthesize(_spec(np.random.default_rng([n, 2]), n, pairs=2, cond=10.0))
        spectral._decompose(h, DEFAULT_TOL)  # warm: first calls may import
        counts.append(_profiled_calls(lambda: spectral._decompose(h, DEFAULT_TOL),
                                      spectral._assemble))
    assert counts[0] == counts[1] == counts[2], counts


def _seed_pools():
    """The inputs of the benchmark's timed and defect pools of seeds 1-3."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    for workload in ("small-mixed", "large-defective", "long-evolution"):
        for seed in (1, 2, 3):
            timed, defects = inputs.generate(workload, seed)
            for case in timed + defects:
                yield f"{workload}/{seed}/{case.label}", case.h


def test_clusters_and_semisimple_decisions_match_the_referees_on_the_seed_pools(monkeypatch):
    """On the benchmark's seed 1-3 inputs, every clustering ``analyze`` makes,
    refused or not, has the partition of the referee ``_cluster``; and in
    every decomposition it makes, each multi-member cluster it does not
    reorder has, in a Schur form the test reorders itself, a block within
    ``tol.abs`` of its eigenvalue times I in Frobenius norm, the bound that
    took a block as semisimple before the sweep decided it."""
    clusterings, reordered = [], []
    cluster, reorder = spectral._cluster, linalg.reorder_schur
    monkeypatch.setattr(spectral, "_cluster", lambda *a: clusterings.append(
        (a, cluster(*a))) or clusterings[-1][1])
    monkeypatch.setattr(linalg, "reorder_schur", lambda t, z, select: reordered.append(
        select.astype(bool)) or reorder(t, z, select))
    swept = made = 0
    for label, h in _seed_pools():
        clusterings.clear()
        reordered.clear()
        try:
            dec = spectral._decompose(linalg.as_cmatrix(h), DEFAULT_TOL)[0]
        except PseudohermError:
            dec = None
        for args, ids in clusterings:
            want = [sorted(c.tolist()) for c in referee_cluster(*args)]
            assert [np.flatnonzero(ids == k).tolist() for k in range(len(want))] == want, label
        if dec is not None:
            made, done = made + 1, list(reordered)
            for _, b, _, member in _reordered_blocks(h, dec):
                if not any(np.array_equal(member, sel) for sel in done):
                    swept += 1
                    assert np.linalg.norm(b) <= DEFAULT_TOL.abs, label
    assert made >= 300 and swept >= 100, (made, swept)


# --- metamorphic relations of analyze ------------------------------------------

#: (name, real Jordan blocks, conjugate pairs) of the n = 8, cond 10 inputs
METAMORPHIC_STRUCTURES = (("simple+pair", (), 1), ("2-block+pair", (2,), 1), ("3-block", (3,), 0))
METAMORPHIC_SCALES = tuple([10.0 ** k for k in range(-8, 9, 2)]
                           + [2.0 ** k for k in (-30, -20, -10, 10, 20, 30)])
#: per structure, refused and accepted-but-failing counts of 10 seeds for each
#: transform in ``_metamorphic_transforms`` order; lowering them is progress,
#: raising them fails
METAMORPHIC_MAX = {
    # columns: c = 10^-8 ... 10^8, c = 2^-30 ... 2^30, H^T, H^dag, QHQ^dag
    "simple+pair": ((10, 10, 10, 0, 0, 0, 0, 10, 10, 10, 10, 10, 0, 10, 10, 0, 0, 0), (0,) * 18),
    "2-block+pair": ((10, 10, 10, 1, 0, 0, 10, 10, 10, 10, 10, 10, 10, 10, 10, 0, 0, 0),
                     (0,) * 18),
    "3-block": ((10, 10, 10, 0, 0, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 0, 0, 0), (0,) * 18),
}


def _metamorphic_transforms(h, q):
    """``(label, H', c, adjoint)`` per relation: c H for each scale c, H^T,
    H^dag and Q H Q^dag for the unitary ``q``; ``_same_structure`` maps the
    eigenvalues and kinds of H by c and ``adjoint``."""
    for c in METAMORPHIC_SCALES:
        k = np.log2(c)
        yield f"c=2^{k:.0f}" if k % 10 == 0 and k else f"c={c:.0e}", c * h, c, False
    yield "H^T", h.T, 1.0, False
    yield "H^dag", h.conj().T, 1.0, True
    yield "QHQ^dag", q @ h @ q.conj().T, 1.0, False


def test_analyze_metamorphic_relations(capsys):
    """For each relation H -> H' of ``_metamorphic_transforms``, ``analyze(H')``
    either has the synthesized structure mapped by the relation (kinds and
    block sizes, eigenvalues within 1e-6 of their scale) or raises a typed
    refusal; a wrong structure fails.  The refused and the accepted but
    failing (a check battery row over ``tol.scaled(H')``) counts are capped."""
    results = {}
    for name, blocks, pairs in METAMORPHIC_STRUCTURES:
        counts = {}
        for seed in range(10):
            rng = np.random.default_rng([8, len(blocks), pairs, seed])
            h, dec_syn = synthesize(_spec(rng, 8, blocks, pairs, cond=10.0))
            q = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
            for label, h2, c, adjoint in _metamorphic_transforms(h, q):
                tally = counts.setdefault(label, {"refused": 0, "failing": 0, "wrong": 0})
                try:
                    dec = analyze(h2)
                except PseudohermError:
                    tally["refused"] += 1
                    continue
                if not _same_structure(dec, dec_syn, c, adjoint):
                    tally["wrong"] += 1
                elif _failed_checks(h2, dec):
                    tally["failing"] += 1
        results[name] = {k: np.array([t[k] for t in counts.values()])
                         for k in ("refused", "failing", "wrong")}
    with capsys.disabled():
        print("\n[analyze metamorphic] counts of 10 seeds per transform: " + " ".join(counts))
        for name, got in results.items():
            for k, v in got.items():
                print(f"  {name:12} {k:7} " + " ".join(f"{x:2}" for x in v))
    for name, got in results.items():
        refused_max, failing_max = METAMORPHIC_MAX[name]
        assert not got["wrong"].any(), name
        assert (got["refused"] <= refused_max).all(), (name, got["refused"])
        assert (got["failing"] <= failing_max).all(), (name, got["failing"])


# --- the basis-condition sweep -------------------------------------------------

#: (name, groups) of the structures synthesized on bases of each condition
#: in ``BASIS_CONDS``, basis seeds 0-9
BASIS_COND_STRUCTURES = (
    ("simple", tuple(JordanBlockSpec(e, (1,)) for e in _G)),
    ("real-blocks", (JordanBlockSpec(0.3, (2, 2)), JordanBlockSpec(-0.8, (1, 1)),
                     JordanBlockSpec(1.5, (1,)))),
    ("3-block+pair", (JordanBlockSpec(0.3, (3,)), JordanBlockSpec(1 + 0.5j, (2,)),
                      JordanBlockSpec(1 - 0.5j, (2,)), JordanBlockSpec(-1.0, (1,)))),
)
BASIS_CONDS = (1e3, 1e4, 1e5, 1e6)
#: per structure, refused and accepted-but-failing counts of 10 seeds at each
#: condition; lowering them is progress, raising them fails.  The simple
#: spectrum's failing input (cond 1e4, seed 2) fails the battery's
#: "P H P^-1 = H^dag" row by 1.15x: the rounding of the library's own P
BASIS_COND_MAX = {
    "simple": ((0, 7, 10, 10), (0, 1, 0, 0)),
    "real-blocks": ((0, 10, 10, 10), (0,) * 4),
    "3-block+pair": ((0, 10, 10, 10), (0,) * 4),
}


def _basis_cond_sweep():
    """``{structure: {"refused" | "wrong" | "failing": counts per condition}}``
    of ``analyze`` on the sweep: a wrong structure (``_same_structure``) or a
    failing check battery row (``_failed_checks``) is counted, not raised."""
    results = {}
    for name, groups in BASIS_COND_STRUCTURES:
        got = results[name] = {k: [0] * len(BASIS_CONDS) for k in ("refused", "wrong", "failing")}
        for i, cond in enumerate(BASIS_CONDS):
            for seed in range(10):
                h, dec_syn = synthesize(SynthesisSpec(groups, basis_seed=seed, basis_cond=cond))
                try:
                    dec = analyze(h)
                except PseudohermError:
                    got["refused"][i] += 1
                    continue
                if not _same_structure(dec, dec_syn):
                    got["wrong"][i] += 1
                elif _failed_checks(h, dec):
                    got["failing"][i] += 1
    return results


def test_basis_condition_sweep():
    """Every accepted input of the sweep has the synthesized structure, and the
    refused and failing counts are capped at each condition."""
    for name, got in _basis_cond_sweep().items():
        refused_max, failing_max = BASIS_COND_MAX[name]
        assert not any(got["wrong"]), (name, got["wrong"])
        assert all(x <= cap for x, cap in zip(got["refused"], refused_max)), (name, got["refused"])
        assert all(x <= cap for x, cap in zip(got["failing"], failing_max)), (name, got["failing"])


# --- the reconstruction refusal and the last-result memo ----------------------

@pytest.mark.parametrize("n, dims, seed", [(8, (2, 2), 3), (16, (4, 4), 8), (16, (3, 3, 3), 1)],
                         ids=["8-(2,2)", "16-(4,4)", "16-(3,3,3)"])
def test_a_decomposition_that_does_not_reconstruct_h_is_refused(n, dims, seed):
    # the staircase reads these identical-block groups at cond 1e3 as other
    # structures, (2,2)+(3,1), (4,4)+(5,3) and (4,3,2), whose Psi J Phi^dag
    # misses H by 7e7 to 2e9 times the threshold
    h, _ = synthesize(_degenerate_spec(n, dims, 1e3, seed))
    with pytest.raises(ClusterAmbiguity, match=r"^chain basis does not reconstruct H: "
                                               r"\|\|Psi J Phi\^dag - H\|\|_F = "):
        analyze(h)


@pytest.mark.usefixtures("cold_memo")
def test_an_equal_h_and_tolerance_are_served_from_the_memo():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    dec = analyze(h)
    assert analyze(h.copy()) is dec
    assert analyze(h, linalg.Tolerance(1e-10, 1e-10)) is dec  # equal, not identical
    assert analyze(h, linalg.Tolerance(1e-9, 1e-10)) is not dec


@pytest.mark.usefixtures("cold_memo")
def test_an_h_mutated_in_place_is_analyzed_afresh():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    dec = analyze(h)
    h[0, 0] = 5.0
    fresh = analyze(h)
    assert fresh is not dec
    assert sorted(g.eigenvalue.real for g in fresh.groups) == [2.0, 3.0, 5.0]
    assert sorted(g.eigenvalue.real for g in dec.groups) == [1.0, 2.0, 3.0]


@pytest.mark.usefixtures("cold_memo")
def test_not_paired_is_decided_on_every_call():
    h = np.diag([2j, 1.0, 3.0]).astype(complex)
    with pytest.raises(NotPaired) as cold:
        analyze(h)
    dec = analyze(h, allow_unpaired=True)
    with pytest.raises(NotPaired) as warm:
        analyze(h)
    assert str(warm.value) == str(cold.value) == (
        "complex eigenvalues without conjugate partner of equal block structure: [2j]")
    assert analyze(h, allow_unpaired=True) is dec


@pytest.mark.usefixtures("cold_memo")
def test_a_refusal_is_not_kept():
    h = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1e-7))[0]
    dec = analyze(np.eye(2))
    for _ in range(2):
        with pytest.raises(ClusterAmbiguity):
            analyze(h)
    assert analyze(np.eye(2)) is dec


@pytest.mark.usefixtures("cold_memo")
def test_cold_and_warm_memo_give_identical_decompositions():
    h, _ = synthesize(_degenerate_spec(16, (2, 2), 10.0, 0))
    warm = analyze(h)
    spectral._last.clear()
    cold = analyze(h)
    assert cold is not warm
    for name in ("psi", "phi", "phi_dag", "chain_dim", "chain_conj"):
        assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()
    assert [(g.eigenvalue, g.kind, g.block_dims) for g in cold.groups] == \
        [(g.eigenvalue, g.kind, g.block_dims) for g in warm.groups]
