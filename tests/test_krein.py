"""Indefinite-metric machinery: inner product, congruence, classification."""

import numpy as np
import pytest

from pseudoherm import krein
from pseudoherm.errors import (
    NonHermitianMetric,
    NotAntiunitary,
    SingularMetric,
    SingularOperator,
    ZeroLeadingCoefficient,
)
from pseudoherm.evolution import MashhoonPapiniParams, mashhoon_papini
from pseudoherm.krein import (
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
    build_tp,
)
from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec, synthesize

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
