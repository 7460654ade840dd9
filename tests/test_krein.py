"""Indefinite-metric machinery: inner product, congruence, classification."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudoherm import evolution, krein, linalg, operators, spectral
from pseudoherm.errors import (
    DimensionMismatch,
    NonHermitianMetric,
    PseudohermError,
    NotAntiunitary,
    Overflow,
    SingularMetric,
    SingularOperator,
    ZeroLeadingCoefficient,
)
from pseudoherm.evolution import MashhoonPapiniParams, mashhoon_papini
from pseudoherm.krein import (
    ClassificationResult,
    SymmetryClass,
    build_krein_space,
    classification_report,
    classify,
    commutant_element,
    congruence_to_involutory,
    factor_antiunitary,
    krein_inner,
    pseudounitary_symmetries_exist,
)
from pseudoherm.operators import (
    SignSequence,
    SymmetryOperator,
    build_charge,
    build_ctp,
    build_parity,
    build_reflecting,
    build_time_reversal,
    build_tp,
)
from pseudoherm.linalg import DEFAULT_TOL
from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec, synthesize
from test_acceptance import _random_structure
from test_operators import _CASES, _random_signs

RNG = np.random.default_rng(77)


def _sixone():
    """Real-regime two-level decomposition with its display metric."""
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    s_p = SignSequence({(0, 0): -1, (1, 0): 1})
    return dec, build_parity(dec, s_p), s_p


# ---------------------------------------------------------------------------
# inner product and splitting


def test_krein_inner_trivial_metric():
    x = np.array([1j, 2.0])
    y = np.array([3.0, 1j])
    assert krein_inner(x, y, np.eye(2)) == pytest.approx(np.vdot(x, y))


def test_krein_inner_signs_on_model_eigenvectors():
    # with the opposite sign choice the pair metric gives norms +1 and -1
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    p = build_parity(dec, SignSequence({(0, 0): 1, (1, 0): -1}))
    psi1 = dec.groups[0].chains[0].psi[0]
    psi2 = dec.groups[1].chains[0].psi[0]
    assert krein_inner(psi1, psi1, p).real == pytest.approx(1.0, abs=1e-12)
    assert krein_inner(psi2, psi2, p).real == pytest.approx(-1.0, abs=1e-12)


def test_build_krein_space_diag():
    ks = build_krein_space(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(ks.plus_projector, np.diag([1.0, 0.0]))
    assert np.allclose(ks.minus_projector, np.diag([0.0, 1.0]))
    assert ks.signature == (1, 1)


def test_build_krein_space_takes_one_eigensolve(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, real=real, name=name: calls.append(name) or real(a))
    ks = build_krein_space(np.diag([1.0, -2.0, 3.0]).astype(complex))
    assert len(calls) == 1, calls
    assert np.array_equal(ks.plus_projector, np.diag([1.0, 0.0, 1.0]))
    assert np.array_equal(ks.minus_projector, np.diag([0.0, 1.0, 0.0]))
    assert ks.signature == (2, 1)


def test_build_krein_space_properties_and_errors():
    dec, p, _ = _sixone()
    ks = build_krein_space(p)
    assert ks.signature == (1, 1)
    assert np.allclose(ks.plus_projector + ks.minus_projector, np.eye(2), atol=1e-12)
    assert np.allclose(ks.plus_projector @ ks.plus_projector, ks.plus_projector,
                       atol=1e-12)
    # positive part of the metric really is positive on its range
    v = ks.plus_projector @ np.array([1.0, 1.0 + 1j])
    assert krein_inner(v, v, p).real > 0
    with pytest.raises(SingularMetric):
        build_krein_space(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(NonHermitianMetric):
        build_krein_space(np.array([[0, 1], [0, 0]], dtype=np.complex128))


# ---------------------------------------------------------------------------
# congruence


def test_congruence_on_hermitian_orthonormal_case():
    h = np.diag([1.0, 2.0]).astype(complex)
    from pseudoherm.spectral import analyze
    dec = analyze(h)
    sigma = SignSequence({(0, 0): 1, (1, 0): 1})
    cong = congruence_to_involutory(dec, sigma)
    assert np.allclose(cong.s.conj().T @ cong.s, np.eye(2), atol=1e-10)  # unitary
    assert np.allclose(cong.p_tilde, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_congruence_invariants(seed):
    _, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (2,)),
        JordanBlockSpec(1.0, (1,)),
        JordanBlockSpec(1j, (1,)),
        JordanBlockSpec(-1j, (1,)),
    ), basis_seed=seed, basis_cond=15.0))
    cong = congruence_to_involutory(dec)
    n = dec.n
    eye = np.eye(n)
    assert np.linalg.norm(cong.p_tilde @ cong.p_tilde - eye) < 1e-9
    assert np.linalg.norm(cong.p_tilde - cong.p_tilde.conj().T) < 1e-9
    assert np.linalg.norm(cong.pi_plus + cong.pi_minus - eye) < 1e-12
    assert np.linalg.norm(cong.pi_plus @ cong.pi_plus - cong.pi_plus) < 1e-9
    # mutual commutation in the transformed picture
    assert np.linalg.norm(cong.p_tilde @ cong.c_tilde
                          - cong.c_tilde @ cong.p_tilde) < 1e-9
    tt = cong.t_tilde.matrix
    assert np.linalg.norm(cong.p_tilde @ tt - tt @ np.conj(cong.p_tilde)) < 1e-9
    assert np.linalg.norm(cong.c_tilde @ tt - tt @ np.conj(cong.c_tilde)) < 1e-9
    # one odd real block: canonical trace 1
    assert cong.trace == pytest.approx(1.0, abs=1e-9)


def test_congruence_trace_even_space():
    _, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (1,)), JordanBlockSpec(2.0, (1,)),
    ), basis_seed=3))
    assert congruence_to_involutory(dec).trace == pytest.approx(0.0, abs=1e-9)


def test_congruence_is_the_transformed_operators():
    """The congruence gathers each K between copies of G = Phi^dag S; on
    criterion 5's random structures it agrees, to 1e-10 relative, with
    S^dag P S, S^-1 C S and S^-1 T S^-T formed from the built operators."""
    rng = np.random.default_rng(20260823)
    for trial in range(200):
        _, dec = synthesize(_random_structure(rng))
        sigma = _random_signs(dec, rng)
        s, s_inv = dec.psi, dec.phi_dag
        cong = congruence_to_involutory(dec, sigma)
        pairs = {
            "P": (cong.p_tilde, s.conj().T @ build_parity(dec, sigma) @ s),
            "C": (cong.c_tilde, s_inv @ build_charge(dec, sigma) @ s),
            "T": (cong.t_tilde.matrix, s_inv @ build_time_reversal(dec).matrix @ s_inv.T),
        }
        for name, (got, want) in pairs.items():
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), (trial, name)
        assert cong.t_tilde.antilinear and cong.s is dec.psi


# ---------------------------------------------------------------------------
# classification


def test_classify_identity_and_none():
    assert classify(np.eye(3), np.eye(3)) is SymmetryClass.P_UNITARY
    res = classification_report(2 * np.eye(2), np.eye(2))
    assert res.symmetry_class is SymmetryClass.NONE
    assert set(res.residuals) == {"PUnitary", "PAntiunitary",
                                  "PPseudounitary", "PPseudoantiunitary"}


@pytest.mark.parametrize("metric", [
    np.diag([2.0, 0.5]),
    np.diag([1.0, -3.0]),
    np.array([[0, 1j, 0, 0], [-1j, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]),  # (3, 1)
], ids=["definite", "indefinite", "4x4"])
def test_classification_signature_is_the_krein_space_signature(metric):
    res = classification_report(np.eye(metric.shape[0]), metric)
    assert res.signature == build_krein_space(metric).signature


def test_classify_model_operators():
    dec, p, s_p = _sixone()
    c = build_charge(dec, SignSequence({(0, 0): 1, (1, 0): -1}))
    assert classify(c, p) is SymmetryClass.P_UNITARY
    tp = build_tp(dec, s_p)
    assert classify(tp, p) is SymmetryClass.P_ANTIUNITARY
    _, _, dec2 = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    p2 = build_parity(dec2)
    from pseudoherm.operators import build_quaternionic_T, build_reflecting
    r, _ = build_reflecting(dec2)
    assert classify(r, p2) is SymmetryClass.P_PSEUDOUNITARY
    assert classify(build_quaternionic_T(dec2), p2) is SymmetryClass.P_PSEUDOANTIUNITARY


def test_classify_rejects_singular_inputs():
    with pytest.raises(SingularOperator):
        classify(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SingularMetric):
        classify(np.eye(2), np.diag([1.0, 1e-14]).astype(complex))


def test_sesquilinear_identities_match_matrix_conditions():
    """The defining inner-product identities of each class, sampled on random
    vectors, agree with the matrix-condition classifier."""
    dec, p, s_p = _sixone()
    cases = [
        (SymmetryOperator(build_charge(dec, SignSequence({(0, 0): 1, (1, 0): -1}))),
         SymmetryClass.P_UNITARY),
        (SymmetryOperator(build_tp(dec, s_p).matrix, antilinear=True),
         SymmetryClass.P_ANTIUNITARY),
    ]
    _, _, dec2 = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    p2 = build_parity(dec2)
    from pseudoherm.operators import build_quaternionic_T, build_reflecting
    cases2 = [
        (SymmetryOperator(build_reflecting(dec2)[0]), SymmetryClass.P_PSEUDOUNITARY),
        (SymmetryOperator(build_quaternionic_T(dec2).matrix, antilinear=True),
         SymmetryClass.P_PSEUDOANTIUNITARY),
    ]
    for metric, pairs in ((p, cases), (p2, cases2)):
        for op, expected in pairs:
            assert classify(op, metric) is expected
            for _ in range(10):
                x = RNG.normal(size=2) + 1j * RNG.normal(size=2)
                y = RNG.normal(size=2) + 1j * RNG.normal(size=2)
                base = krein_inner(x, y, metric)
                moved = krein_inner(op.apply(x), op.apply(y), metric)
                if expected is SymmetryClass.P_UNITARY:
                    assert moved == pytest.approx(base, abs=1e-9)
                elif expected is SymmetryClass.P_PSEUDOUNITARY:
                    assert moved == pytest.approx(-base, abs=1e-9)
                elif expected is SymmetryClass.P_ANTIUNITARY:
                    assert moved == pytest.approx(np.conj(base), abs=1e-9)
                else:
                    assert moved == pytest.approx(-np.conj(base), abs=1e-9)


# ---------------------------------------------------------------------------
# factorization and commutant


def test_factor_tp_gives_identity():
    dec, p, s_p = _sixone()
    tp = build_tp(dec, s_p)
    _, u_prime = factor_antiunitary(tp, dec, s_p, p, sigma_prime=s_p)
    assert np.allclose(u_prime, np.eye(2), atol=1e-10)


def test_factor_ctp_gives_charge():
    dec, p, s_p = _sixone()
    s_c = SignSequence({(0, 0): 1, (1, 0): -1})
    ctp = build_ctp(dec, s_c, s_p)
    u, u_prime = factor_antiunitary(ctp, dec, s_c, p, sigma_prime=s_p)
    assert np.allclose(u, np.eye(2), atol=1e-10)
    assert np.allclose(u_prime, build_charge(dec, s_c), atol=1e-10)


def test_factor_round_trip_recovers_unitary_part():
    dec, p, s_p = _sixone()
    tp = build_tp(dec, s_p)
    alpha, beta = 0.3, -1.1
    u0 = commutant_element(dec, [[np.exp(1j * alpha)], [np.exp(1j * beta)]])
    assert classify(u0, p) is SymmetryClass.P_UNITARY
    v_matrix = tp.matrix @ np.conj(u0)        # antilinear (TP) o U0
    v = SymmetryOperator(v_matrix, antilinear=True)
    _, u_prime = factor_antiunitary(v, dec, s_p, p, sigma_prime=s_p)
    assert np.allclose(u_prime, u0, atol=1e-10)
    with pytest.raises(NotAntiunitary):
        factor_antiunitary(build_quat_fail(dec), dec, s_p, p, sigma_prime=s_p)


def build_quat_fail(dec):
    return SymmetryOperator(3.0 * np.eye(dec.n, dtype=np.complex128), antilinear=True)


def test_commutant_identity_and_refusal():
    _, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (2,)), JordanBlockSpec(1.0, (1,)),
    ), basis_seed=5))
    x = commutant_element(dec, [[1.0, 0.0], [1.0]])
    assert np.allclose(x, np.eye(3), atol=1e-10)
    with pytest.raises(ZeroLeadingCoefficient):
        commutant_element(dec, [[0.0, 1.0], [1.0]])
    with pytest.raises(ValueError):
        commutant_element(dec, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="coefficient list of length 1 for a block of dim 2"):
        commutant_element(dec, [[1.0], [1.0]])


def test_commutant_matches_model_display():
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    alpha, beta = 0.7, -0.4
    ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
    x = commutant_element(dec, [[ea], [eb]])
    kappa = 1.0
    want = 0.5 * np.array([[ea + eb, 1j * kappa * (ea - eb)],
                           [-1j / kappa * (ea - eb), ea + eb]])
    assert np.allclose(x, want, atol=1e-12)
    assert np.linalg.norm(x @ h - h @ x) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_commutant_commutes_on_jordan_ensemble(seed):
    h, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.5, (3,)), JordanBlockSpec(-1.0, (2, 1)),
    ), basis_seed=seed, basis_cond=10.0))
    rng = np.random.default_rng(seed)
    params = [rng.normal(size=c.dim) + 1j * rng.normal(size=c.dim) + 2
              for g in dec.groups for c in g.chains]
    x = commutant_element(dec, params)
    assert np.linalg.norm(x @ h - h @ x) < 1e-8


# ---------------------------------------------------------------------------
# existence of metric-reversing symmetries


def test_pseudounitary_existence_decisions():
    _, _, dec1 = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    res1 = pseudounitary_symmetries_exist(dec1)
    assert not res1.exists
    assert len(res1.violations) == 2  # both simple real eigenvalues unpaired

    _, _, dec2 = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    res2 = pseudounitary_symmetries_exist(dec2)
    assert res2.exists
    assert np.allclose(build_reflecting(dec2)[0], [[0, -1], [-1, 0]], atol=1e-12)

    _, dec_pair = synthesize(SynthesisSpec(groups=(JordanBlockSpec(0.0, (2, 2)),),
                                           basis_seed=1))
    assert pseudounitary_symmetries_exist(dec_pair).exists
    _, dec_odd = synthesize(SynthesisSpec(groups=(JordanBlockSpec(0.0, (2, 1)),),
                                          basis_seed=1))
    assert not pseudounitary_symmetries_exist(dec_odd).exists

    # paired real groups (one interleaved) next to two unpaired ones: only
    # the unpaired groups are listed, in group order
    _, dec_mixed = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (2, 2)), JordanBlockSpec(1.0, (2, 1)),
        JordanBlockSpec(-1.0, (1, 1, 1)), JordanBlockSpec(2.0, (1, 3, 1, 3)),
    ), basis_seed=3))
    res_mixed = pseudounitary_symmetries_exist(dec_mixed)
    assert not res_mixed.exists
    assert res_mixed.violations == [(1.0, (2, 1)), (-1.0, (1, 1, 1))]


def test_commutant_element_needs_one_coefficient_list_per_chain():
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="expected 2 coefficient lists, got 1"):
        commutant_element(dec, [[1.0]])


# ---------------------------------------------------------------------------
# invertibility certificates against the decompositions they stand in for


def _metric_rule(metric, tol):
    """The metric refusal by an eigensolve, as ``linalg.metric_eigenvalues``
    has always applied it."""
    if not np.linalg.norm(metric - metric.conj().T) <= tol.scaled(metric):
        raise NonHermitianMetric("metric is not Hermitian at tolerance")
    w = np.linalg.eigvalsh(0.5 * (metric + metric.conj().T))
    nearest = w[np.abs(w).argmin()]
    if abs(nearest) <= tol.scaled(metric):
        raise SingularMetric(f"metric eigenvalue {nearest:.3e} within tolerance of zero")
    return w


def _report_by_svd(op, metric, tol=DEFAULT_TOL):
    """``classification_report`` with the SVD rank test before the residuals."""
    sym = SymmetryOperator.of(op)
    metric = linalg.as_cmatrix(metric)
    w = _metric_rule(metric, tol)
    m = sym.matrix
    s = np.linalg.svd(m, compute_uv=False)
    if np.count_nonzero(s > tol.abs + tol.rel * s[0]) < m.shape[0]:
        raise SingularOperator("operator is singular at tolerance; classification "
                               "is defined for invertible operators only")
    gram = m.conj().T @ metric @ m
    residuals = {  # measured by the kernel of every residual of the package
        SymmetryClass.P_UNITARY: linalg._fro(gram - metric),
        SymmetryClass.P_PSEUDOUNITARY: linalg._fro(gram + metric),
        SymmetryClass.P_ANTIUNITARY: linalg._fro(gram - metric.T),
        SymmetryClass.P_PSEUDOANTIUNITARY: linalg._fro(gram + metric.T),
    }
    eligible = ([SymmetryClass.P_ANTIUNITARY, SymmetryClass.P_PSEUDOANTIUNITARY]
                if sym.antilinear else [SymmetryClass.P_UNITARY, SymmetryClass.P_PSEUDOUNITARY])
    thr = tol.scaled(metric, m, gram)
    best, runner = sorted(eligible, key=lambda k: residuals[k])[:2]
    cls = SymmetryClass.NONE
    if residuals[best] <= thr and residuals[runner] >= 10.0 * thr:
        cls = best
    return ClassificationResult(symmetry_class=cls,
                                residuals={k.value: v for k, v in residuals.items()},
                                threshold=thr, antilinear=sym.antilinear,
                                signature=(int(np.sum(w > 0)), int(np.sum(w < 0))))


def _outcome(call, *args):
    """``call(*args)``, or the type and message of the refusal it raises; a
    RuntimeWarning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call(*args)
        except (PseudohermError, np.linalg.LinAlgError) as exc:
            return type(exc), str(exc)


def _count(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))
    return calls


def _kernel_and_model_decs() -> dict:
    """The kernel cases' decompositions and those of the four two-level
    regimes, by label."""
    regimes = {"real": (2.0, 0.5), "complex": (2.0, -0.5), "jordan": (2.0, 0.0),
               "scalar": (0.0, 0.0)}
    return dict(_CASES) | {f"two-level-{regime}": mashhoon_papini(MashhoonPapiniParams(0.5, *rs))[2]
                           for regime, rs in regimes.items()}


def _pipeline_cases():
    """(label, H, P, U(t), TP) of every paired kernel case and of the four
    two-level regimes."""
    for label, dec in _kernel_and_model_decs().items():
        if not dec.unpaired:
            h = spectral.reconstruct(dec)
            u = evolution.propagator(h, 0.5 / max(1.0, np.linalg.norm(h)))
            yield label, h, build_parity(dec), u, build_tp(dec)


def _small_case():
    """H, its canonical P and the propagator U(0.4) of a five-dimensional
    structure with a Jordan block and a conjugate pair."""
    _, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.3, (2,)), JordanBlockSpec(1 + 0.5j, (1,)),
        JordanBlockSpec(1 - 0.5j, (1,)), JordanBlockSpec(-0.7, (1,))), basis_seed=4))
    h = spectral.reconstruct(dec)
    return h, build_parity(dec), evolution.propagator(h, 0.4)


def _with_least_singular_value(m, rel):
    """``m`` with its smallest singular value set to ``rel`` times its largest."""
    q, s, wh = np.linalg.svd(m)
    s[-1] = rel * s[0]
    return (q * s) @ wh


def test_rank_certificate_matches_the_svd_rule(monkeypatch):
    """Sweep the smallest singular value across the rank cut, next to the
    propagator, TP, near-unitary and singular operators and refused metrics:
    every outcome is the SVD rule's, and both paths are taken."""
    h, p, u = _small_case()
    tp = build_tp(spectral.analyze(h))
    eye = np.eye(5, dtype=complex)
    ops = [_with_least_singular_value(u, rel) for rel in np.geomspace(1e-14, 1.0, 29)]
    ops += [u, (1 + 1e-9) * u, u + 1e-7 * RNG.normal(size=(5, 5)), tp.matrix,
            np.zeros((5, 5)), eye - np.outer(eye[0], eye[0])]
    metrics = [p, p + 1e-12 * (eye[:, ::-1] - eye[::-1].T) * 1j, -p]
    w, v = np.linalg.eigh(p)
    for scale in np.geomspace(1e-2, 1e3, 11):  # one metric eigenvalue across the cut
        w_t = w.copy()
        w_t[np.abs(w).argmin()] = scale * DEFAULT_TOL.scaled(p)
        metrics.append((v * w_t) @ v.conj().T)
    ranks = _count(monkeypatch, linalg, "rank")
    outcomes = set()
    for metric in metrics:
        for op in ops + [SymmetryOperator(m, antilinear=True) for m in ops[-8:]]:
            before = len(ranks)
            want = _outcome(_report_by_svd, op, metric)
            assert _outcome(classification_report, op, metric) == want
            outcomes.add((len(ranks) == before, type(want).__name__))
    diag, eye2 = np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)
    for metric, op in [(diag, eye2), (np.array([[1, 1], [0, 1]], dtype=complex), eye2),
                       (eye2, diag), (eye2, np.zeros((2, 2)))]:
        assert _outcome(classification_report, op, metric) == _outcome(_report_by_svd, op, metric)
    assert {(True, "ClassificationResult"), (False, "ClassificationResult"),
            (False, "tuple")} <= outcomes


def test_metric_refusal_comes_before_the_pseudo_hermiticity_residual():
    """Sweep one metric eigenvalue across ``tol.scaled(eta)``; an exactly
    singular, a non-Hermitian and a barely Hermitian metric too: where the
    eigensolve rule refuses the metric, ``is_pseudo_hermitian`` gives that
    refusal, and elsewhere the decision of ``||eta H eta^-1 - H^dag||`` at
    ``tol.scaled(H)``, formed as ``(eta H - H^dag eta) eta^-1`` by a solve."""
    h, p, _ = _small_case()
    w, v = np.linalg.eigh(p)
    eye = np.eye(5, dtype=complex)
    singular = [np.zeros((5, 5)), np.diag([1.0, 1, 1, 1, 0])]
    metrics = [p, -p, p + 1e-12j * (eye[:, ::-1] - eye[::-1].T), eye,
               p + np.triu(np.ones((5, 5)), 1)] + singular
    for scale in np.geomspace(1e-2, 1e8, 21):
        for sign in (1, -1):
            w_t = w.copy()
            w_t[np.abs(w).argmin()] = sign * scale * DEFAULT_TOL.scaled(p)
            metrics.append((v * w_t) @ v.conj().T)
    outcomes = set()
    for metric in metrics:
        for op in (h, eye, h.conj().T):
            got = _outcome(spectral.is_pseudo_hermitian, op, metric)
            refusal = _outcome(_metric_rule, metric, DEFAULT_TOL)
            if isinstance(refusal, tuple):
                assert got == refusal
            else:
                eta = 0.5 * (metric + metric.conj().T)
                x = eta @ op - op.conj().T @ eta
                resid = np.linalg.norm(np.linalg.solve(eta, x.conj().T))
                assert got == bool(resid <= DEFAULT_TOL.scaled(op))
            outcomes.add(got if isinstance(got, bool) else got[0])
    for metric in singular:
        assert _outcome(spectral.is_pseudo_hermitian, h, metric)[0] is SingularMetric
    assert outcomes == {True, False, SingularMetric, NonHermitianMetric}


def test_the_battery_measures_pseudo_hermiticity_on_p_itself(monkeypatch):
    """An anti-Hermitian error in P fails the battery's pseudo-Hermiticity
    row: the row uses P, and only its inverse comes from P's Hermitian part."""
    h, _, _ = _small_case()
    dec, row = spectral.analyze(h), "pseudo-Hermiticity P H P^-1 = H^dag"
    assert {r["check"]: r["pass"] for r in krein.check_battery(h, dec)}[row]
    build = krein.operators.build_parity
    monkeypatch.setattr(krein.operators, "build_parity",
                        lambda *args: build(*args) + 1e-6j * np.eye(dec.n))
    assert not {r["check"]: r["pass"] for r in krein.check_battery(h, dec)}[row]


def test_pipeline_operators_need_no_svd(monkeypatch):
    """The U(t) and TP classifications of every paired kernel case and of
    the four two-level regimes, and ``is_pseudo_hermitian`` of their H under
    their P, make no SVD; a singular operator still reaches the rank test."""
    svds = _count(monkeypatch, np.linalg, "svd")
    for label, h, p, u, tp in _pipeline_cases():
        assert classification_report(u, p).symmetry_class is SymmetryClass.P_UNITARY, label
        assert classification_report(tp, p).symmetry_class is SymmetryClass.P_ANTIUNITARY, label
        assert spectral.is_pseudo_hermitian(h, p), label
        assert svds == [], label
    ranks = _count(monkeypatch, linalg, "rank")
    with pytest.raises(SingularOperator):
        classification_report(u - u[:, :1] @ u[:1, :] / u[0, 0], p)
    assert ranks == ["rank"] and svds == ["svd"]


def test_operands_of_different_sizes_are_refused_before_any_decomposition(monkeypatch):
    eigs = _count(monkeypatch, np.linalg, "eigvalsh")
    with pytest.raises(DimensionMismatch, match=r"operator is \(3, 3\) but the metric is \(2, 2\)"):
        classification_report(np.eye(3), np.eye(2))
    with pytest.raises(DimensionMismatch, match=r"H is \(3, 3\) but the metric is \(2, 2\)"):
        spectral.is_pseudo_hermitian(np.eye(3), np.eye(2))
    assert eigs == []


# ---------------------------------------------------------------------------
# the decisions a built metric's record keeps, and operators whose Gram
# product overflows


@pytest.mark.usefixtures("cold_memo")
def test_reports_against_one_metric_decide_it_once(monkeypatch):
    """Two reports against a built P and the gate under it run no n x n
    ``eigvalsh``: P's record keeps the one decision made on it.  A copy of
    P has no record, so each report against a copy runs one, and the copy's
    decision is the eigensolve's."""
    h, p, u = _small_case()
    tp, metric = build_tp(spectral.analyze(h)), p.copy()
    eigs = _count(monkeypatch, np.linalg, "eigvalsh")
    first = classification_report(u, p)
    assert classification_report(tp, p).symmetry_class is SymmetryClass.P_ANTIUNITARY
    assert spectral.is_pseudo_hermitian(h, p)
    assert eigs == [] and list(linalg._carrier(p)[4]) == [DEFAULT_TOL]
    assert classification_report(u, metric) == classification_report(u, metric.copy()) == first
    assert eigs == ["eigvalsh"] * 2
    assert first == _report_by_svd(u, p)
    kept, w = linalg._metric_decision(metric, DEFAULT_TOL), np.abs(_metric_rule(p, DEFAULT_TOL))
    assert (kept.abs_min, kept.abs_max) == (w.min(), w.max())
    assert kept.defect == linalg._fro(p - p.conj().T) and kept.norm == linalg._fro(p)


@pytest.mark.usefixtures("cold_memo")
def test_a_built_metric_keeps_one_decision_per_tolerance(monkeypatch):
    """A built P decided under two tolerances keeps two decisions in its
    record, each the one a record with no decision gives; a repeat under
    the first tolerance forms no Psi K Psi^dag product."""
    _, p, _ = _small_case()
    loose = linalg.Tolerance(abs=1e-9, rel=1e-9)
    decisions = linalg._carrier(p)[4]
    cold = []
    for tol in (DEFAULT_TOL, loose):
        decisions.clear()
        cold.append(linalg._metric_decision(p, tol))
    decisions.clear()
    chains = _count(monkeypatch, linalg, "_chain_decision")
    assert [linalg._metric_decision(p, tol) for tol in (DEFAULT_TOL, loose)] == cold
    assert decisions == {DEFAULT_TOL: cold[0], loose: cold[1]}
    assert linalg._metric_decision(p, DEFAULT_TOL) == cold[0]
    assert chains == ["_chain_decision"] * 2


@pytest.mark.usefixtures("cold_memo")
def test_a_changed_metric_or_tolerance_is_decided_again(monkeypatch):
    """A changed entry, another tolerance, and an in-place change of the very
    array that was decided each run the eigensolve again, and each report is
    the one the eigensolve-first reference gives."""
    _, p, u = _small_case()
    eigs = _count(monkeypatch, np.linalg, "eigvalsh")
    metric = p.copy()
    classification_report(u, metric)
    changed = metric.copy()
    changed[0, 0] += 1e-3
    loose = linalg.Tolerance(abs=1e-9, rel=1e-9)
    reports = [classification_report(*args)
               for args in ((u, changed), (u, metric, loose), (u, metric))]
    metric[0, 0] += 1e-3  # a metric no record carries keeps no decision to go stale
    reports.append(classification_report(u, metric))
    assert len(eigs) == 5
    assert reports == [_report_by_svd(u, changed), _report_by_svd(u, p, loose),
                       _report_by_svd(u, p), _report_by_svd(u, changed)]


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("metric, refusal", [
    (np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), NonHermitianMetric),
    (np.diag([1.0, 1e-14]).astype(complex), SingularMetric),
], ids=["non-hermitian", "singular"])
def test_a_refused_metric_is_refused_again(metric, refusal):
    """A refusal is not kept: the next call raises it again, with the same
    message, and the record of a built P decided before keeps its one
    decision."""
    _, p, u = _small_case()
    classification_report(u, p)
    decisions = dict(linalg._carrier(p)[4])
    eye = np.eye(2, dtype=complex)
    with pytest.raises(refusal) as first:
        classification_report(eye, metric)
    with pytest.raises(refusal) as again:
        classification_report(eye, metric)
    assert str(again.value) == str(first.value)
    assert linalg._carrier(p)[4] == decisions and len(decisions) == 1


def _seed_pools(seed):
    """``(label, case, dec)`` of every input of the benchmark's seeded pools
    whose parity exists, ``dec = analyze(case.h)``."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    for workload in ("small-mixed", "large-defective", "long-evolution"):
        for case in inputs.generate(workload, seed)[0]:
            dec = spectral.analyze(case.h, allow_unpaired=True)
            if not dec.unpaired:
                yield f"{workload}/{seed}/{case.label}", case, dec


def _seed_pool_pairs(seed):
    """``(label, U, TP, P)`` of every input of the benchmark's seeded pools
    whose parity exists, U the propagator the benchmark's op classifies."""
    for label, case, dec in _seed_pools(seed):
        yield (label, evolution.propagator(case.h, case.t_prop), build_tp(dec),
               build_parity(dec))


@pytest.mark.usefixtures("cold_memo")
def test_warm_memo_reports_equal_cold_ones():
    """Over the seed-7 pools' (U, P) and (TP, P), the second report against
    each P, served by the decision P's record keeps, equals a report from a
    record with no decision and the eigensolve-first reference, field by
    field."""
    cases = 0
    for label, u, tp, p in _seed_pool_pairs(7):
        decisions = linalg._carrier(p)[4]
        warm = [classification_report(u, p), classification_report(tp, p)]
        cold = []
        for op in (u, tp):
            decisions.clear()
            cold.append(classification_report(op, p))
        assert warm == cold == [_report_by_svd(u, p), _report_by_svd(tp, p)], label
        cases += 1
    assert cases >= 50


@pytest.mark.usefixtures("cold_memo")
def test_the_decision_carries_what_a_report_reads():
    """Over the seed-7 pools' parities, the metric rule's decision on a copy
    of P holds the least and the greatest |w| and the signature of the
    eigenvalues w of P's Hermitian part; on P itself, the decision its
    record keeps, made from its K, the same signature and bounds on |w|.  A
    report's signature is the decision's."""
    for label, u, _, p in _seed_pool_pairs(7):
        w = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
        size, signature = np.abs(w), (np.sum(w > 0), np.sum(w < 0))
        for metric in (p.copy(), p):
            report = classification_report(u, metric)
            kept = linalg._metric_decision(metric, DEFAULT_TOL)
            assert kept.signature == report.signature == signature, label
            if metric is p:
                assert kept.abs_min <= size.min() and kept.abs_max >= size.max(), label
            else:
                assert (kept.abs_min, kept.abs_max) == (size.min(), size.max()), label


def _library_metrics(seeds):
    """``(label, kind, metric)`` of every P, paired P and P+ that
    ``operators`` builds on the paired kernel cases, the four two-level
    regimes and the benchmark's seeded pools."""
    decs = list(_kernel_and_model_decs().items())
    decs += [(label, dec) for seed in seeds for label, _, dec in _seed_pools(seed)]
    for label, dec in decs:
        if dec.unpaired:
            continue
        yield label, "P", build_parity(dec)
        if not dec.real_block_halves[1]:
            yield label, "paired P", build_reflecting(dec)[1]
        if not operators.positive_metric_violations(dec):
            yield label, "P+", operators.build_positive_metric(dec)


@pytest.mark.usefixtures("cold_memo")
def test_the_library_metrics_decided_from_k_agree_with_the_eigensolve(monkeypatch):
    """Referee of the decision from K: each P, paired P and P+ the library
    builds is accepted both from its K, with no eigensolve, and by the n x n
    ``eigvalsh`` rule, with one signature; K's [abs_min, abs_max] brackets
    the eigenvalues' |w|."""
    eigs = _count(monkeypatch, np.linalg, "eigvalsh")
    kinds = set()
    for label, kind, metric in _library_metrics((1, 2, 3)):
        chain = linalg._metric_decision(metric, DEFAULT_TOL)
        assert eigs == [] and linalg._carrier(metric)[4] == {DEFAULT_TOL: chain}, (label, kind)
        w = linalg.metric_eigenvalues(metric)
        eigs.clear()
        size = np.abs(w)
        assert chain.signature == (np.sum(w > 0), np.sum(w < 0)), (label, kind)
        assert chain.abs_min <= size.min() and chain.abs_max >= size.max(), (label, kind)
        kinds.add(kind)
    assert kinds == {"P", "paired P", "P+"}


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("cond", [1e6, 1e8])
def test_a_carried_metric_k_cannot_prove_goes_to_the_eigensolve(monkeypatch, cond):
    """A P built from a synthesized basis of condition 1e6 or 1e8, whose
    min|w| lies under the rule's threshold, is not accepted from K: K's
    bound on min|w| does not clear the threshold, so the n x n rule decides
    and refuses it, as it refuses a copy of it."""
    eigs = _count(monkeypatch, np.linalg, "eigvalsh")
    groups = (JordanBlockSpec(0.3, (1,)), JordanBlockSpec(-0.7, (1,)),
              JordanBlockSpec(1.0, (2,)), JordanBlockSpec(2.0, (1,)))
    _, dec = synthesize(SynthesisSpec(groups, basis_seed=2, basis_cond=cond))
    p = build_parity(dec)
    with pytest.raises(SingularMetric) as copied:
        _metric_rule(p.copy(), DEFAULT_TOL)
    eigs.clear()
    with pytest.raises(SingularMetric) as carried:
        linalg._metric_decision(p, DEFAULT_TOL)
    assert eigs == ["eigvalsh"] and str(carried.value) == str(copied.value)
    assert linalg._carrier(p)[4] == {}


@pytest.mark.usefixtures("cold_memo")
def test_a_decision_does_not_depend_on_the_metric_decided_before(monkeypatch):
    """An equal copy of a P decided from its K is decided by the n x n rule
    on every call, one ``eigvalsh`` each, and P after that copy is served
    the decision its record keeps: each decision is the one a record with
    no decision gives."""
    _, p, _ = _small_case()
    copy = p.copy()
    cold = [linalg._metric_decision(metric, DEFAULT_TOL) for metric in (p, copy)]
    assert cold[0] != cold[1]
    linalg._carrier(p)[4].clear()
    eigs = _count(monkeypatch, np.linalg, "eigvalsh")
    assert [linalg._metric_decision(m, DEFAULT_TOL) for m in (p, copy, p, copy, copy)] == \
        cold + cold + [cold[1]]
    assert eigs == ["eigvalsh"] * 3


@pytest.mark.usefixtures("cold_memo")
def test_a_stale_carrier_goes_to_the_eigensolve(monkeypatch):
    """A copy of a built P with one entry changed, and a built P written into
    in place after it was decided, are each decided by the n x n rule, not
    by the decision P's record keeps, and each report is the one the
    eigensolve-first reference gives."""
    _, p, u = _small_case()
    changed = p.copy()
    changed[0, 0] += 1e-3
    want = [_report_by_svd(u, p), _report_by_svd(u, changed)]
    eigs = _count(monkeypatch, np.linalg, "eigvalsh")
    got = [classification_report(u, p)]
    assert eigs == []
    got.append(classification_report(u, changed))
    assert eigs == ["eigvalsh"]
    p[0, 0] += 1e-3
    got.append(classification_report(u, p))
    assert eigs == ["eigvalsh"] * 2
    assert got == want + [want[1]]


@pytest.mark.parametrize("scale", [1e100, 1e155])
def test_an_overflowing_gram_product_is_refused(scale):
    """1e100 I under I has Gram norms of inf, which passed an infinite
    threshold as PUnitary; at 1e155 I the residuals were NaN.  Both are
    refused with ``Overflow``, without a RuntimeWarning."""
    eye = np.eye(2, dtype=complex)
    for op in (scale * eye, SymmetryOperator(scale * eye, antilinear=True)):
        got = _outcome(classification_report, op, eye)
        assert got == (Overflow, "the Gram product M^dag P M of the operator M and the "
                                 "metric P overflows the float range")


def test_a_large_finite_operator_is_still_classified():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = classification_report(1e10 * np.eye(2), np.eye(2))
    assert res.symmetry_class is SymmetryClass.NONE and np.isfinite(res.threshold)
