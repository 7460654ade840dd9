"""Symmetry operator constructions: closed forms and algebraic invariants."""

import dataclasses

import numpy as np
import pytest

from pseudoherm import krein, linalg, operators, spectral
from pseudoherm.errors import (
    DimensionMismatch,
    NotDiagonalizableReal,
    NotPaired,
    UnpairedRealBlocks,
)
from pseudoherm.evolution import MashhoonPapiniParams, mashhoon_papini
from pseudoherm.operators import (
    SignSequence,
    SymmetryOperator,
    antilinear_adjoint,
    antilinear_compose,
    build_charge,
    build_ctp,
    build_parity,
    build_positive_metric,
    build_quaternionic_T,
    build_reflecting,
    build_time_reversal,
    build_tp,
    canonical_sign_sequence,
)
from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec, analyze, synthesize
from test_acceptance import _paired_spec, _unpaired_spec

RNG = np.random.default_rng(2024)


def _rand(n):
    return RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))


# ---------------------------------------------------------------------------
# antilinear algebra


def test_antilinear_apply_and_square():
    a = SymmetryOperator(np.array([[0, 1], [1, 0]], dtype=np.complex128), antilinear=True)
    v = np.array([1j, 2.0])
    assert np.allclose(a.apply(v), [2.0, -1j])
    assert np.allclose(a.square(), np.eye(2))


@pytest.mark.parametrize("antilinear", [False, True])
def test_square_matches_applying_twice(antilinear):
    a = SymmetryOperator(_rand(3), antilinear=antilinear)
    m = a.matrix
    assert np.array_equal(a.square(), m @ (np.conj(m) if antilinear else m))
    for _ in range(5):
        v = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        assert np.allclose(a.square() @ v, a.apply(a.apply(v)), atol=1e-12)


@pytest.mark.parametrize("anti_a,anti_b", [(False, False), (False, True),
                                           (True, False), (True, True)])
def test_compose_matches_pointwise_action(anti_a, anti_b):
    a = SymmetryOperator(_rand(3), antilinear=anti_a)
    b = SymmetryOperator(_rand(3), antilinear=anti_b)
    ab = antilinear_compose(a, b)
    assert ab.antilinear == (anti_a != anti_b)
    for _ in range(5):
        v = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        assert np.allclose(ab.apply(v), a.apply(b.apply(v)), atol=1e-12)


def test_antilinear_adjoint_defining_identity():
    for antilinear in (True, False):
        a = SymmetryOperator(_rand(4), antilinear=antilinear)
        adj = antilinear_adjoint(a)
        assert adj.antilinear == antilinear
        assert np.array_equal(adj.matrix, a.matrix.T if antilinear else a.matrix.conj().T)
        for _ in range(5):
            x = RNG.normal(size=4) + 1j * RNG.normal(size=4)
            y = RNG.normal(size=4) + 1j * RNG.normal(size=4)
            lhs = x.conj() @ a.apply(y)
            if antilinear:
                rhs = y.conj() @ adj.apply(x)    # <x | A y> = <y | A^dag x>
            else:
                rhs = adj.apply(x).conj() @ y    # <x | A y> = <A^dag x | y>
            assert abs(lhs - rhs) < 1e-10


def test_antilinear_results_are_antilinear_carriers():
    _, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (1, 1)), JordanBlockSpec(1.0, (1, 1)),
    ), basis_seed=6))
    exist = krein.pseudounitary_symmetries_exist(dec)
    assert exist.exists
    antilinear = [build_time_reversal(dec), build_tp(dec), build_ctp(dec),
                  build_quaternionic_T(dec), krein.congruence_to_involutory(dec).t_tilde]
    for op in antilinear:
        assert isinstance(op, SymmetryOperator) and op.antilinear
    r, paired = build_reflecting(dec)
    for m in (build_parity(dec), build_positive_metric(dec), paired):
        assert type(m) is linalg.ChainMetric and not m.flags.writeable
    for m in (build_charge(dec), r):
        assert type(m) is np.ndarray


# ---------------------------------------------------------------------------
# sign sequences


def test_sign_sequence_validation():
    with pytest.raises(ValueError):
        SignSequence({(0, 0): 2})
    _, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(1 + 1j, (1,)), JordanBlockSpec(1 - 1j, (1,)),
    ), basis_seed=0))
    with pytest.raises(ValueError):
        # conjugate partners must share their sign
        build_parity(dec, SignSequence({(0, 0): 1, (1, 0): -1}))
    with pytest.raises(ValueError):
        # labels must match the decomposition
        build_parity(dec, SignSequence({(0, 0): 1}))


def test_canonical_signs_alternate_over_odd_real_blocks():
    _, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (1,)), JordanBlockSpec(1.0, (2,)),
        JordanBlockSpec(2.0, (3,)), JordanBlockSpec(3.0, (1,)),
    ), basis_seed=0))
    sig = canonical_sign_sequence(dec)
    # odd blocks (dims 1, 3, 1) alternate +, -, +; the even block stays +
    assert [sig(i, 0) for i in range(4)] == [1, 1, -1, 1]


# ---------------------------------------------------------------------------
# closed-form model matrices


def test_two_level_real_regime_displays():
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    s_p = SignSequence({(0, 0): -1, (1, 0): 1})
    s_c = SignSequence({(0, 0): 1, (1, 0): -1})
    assert np.allclose(build_parity(dec, s_p), [[0, -1j], [1j, 0]], atol=1e-12)
    assert np.allclose(build_charge(dec, s_c), [[0, 1j], [-1j, 0]], atol=1e-12)
    assert np.allclose(build_time_reversal(dec).matrix, np.diag([-1, 1]), atol=1e-12)
    assert np.allclose(build_tp(dec, s_p).matrix, [[0, -1j], [-1j, 0]], atol=1e-12)
    assert np.allclose(build_ctp(dec, s_c, s_p).matrix, np.diag([1, -1]), atol=1e-12)
    assert np.allclose(build_positive_metric(dec), np.eye(2), atol=1e-12)


def test_two_level_complex_regime_displays():
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    assert np.allclose(build_parity(dec), np.diag([-1, 1]), atol=1e-12)
    assert np.allclose(build_charge(dec), np.eye(2), atol=1e-12)
    r, _ = build_reflecting(dec)
    assert np.allclose(r, [[0, -1], [-1, 0]], atol=1e-12)
    t_frak = build_quaternionic_T(dec)
    assert np.allclose(t_frak.matrix, [[0, -1], [1, 0]], atol=1e-12)
    assert np.allclose(t_frak.square(), -np.eye(2), atol=1e-12)


def test_two_level_jordan_regime_displays():
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 0.0))
    assert np.allclose(build_parity(dec), [[0, 1j], [-1j, 0]], atol=1e-12)
    assert np.allclose(build_time_reversal(dec).matrix,
                       [[2j, -1j], [-1j, 0]], atol=1e-12)
    assert np.allclose(build_tp(dec).matrix, [[1, 2], [0, -1]], atol=1e-12)


# ---------------------------------------------------------------------------
# ensemble invariants


def _mixed_spec(seed):
    return SynthesisSpec(groups=(
        JordanBlockSpec(-0.5, (2,)),
        JordanBlockSpec(1.0, (1,)),
        JordanBlockSpec(0.5 + 1j, (2,)),
        JordanBlockSpec(0.5 - 1j, (2,)),
    ), basis_seed=seed, basis_cond=20.0)


@pytest.mark.parametrize("seed", range(5))
def test_family_invariants_on_ensemble(seed):
    h, dec = synthesize(_mixed_spec(seed))
    n = dec.n
    eye = np.eye(n)
    p = build_parity(dec)
    c = build_charge(dec)
    t = build_time_reversal(dec)
    tp = build_tp(dec)
    ctp = build_ctp(dec)
    assert np.linalg.norm(p - p.conj().T) < 1e-9                      # Hermitian
    assert np.linalg.norm(p @ h @ np.linalg.inv(p) - h.conj().T) < 1e-8
    assert np.linalg.norm(c @ c - eye) < 1e-9
    assert np.linalg.norm(c @ h - h @ c) < 1e-8
    assert np.linalg.norm(t.matrix - t.matrix.T) < 1e-9               # T = T^dag
    assert np.linalg.norm(t.matrix @ h.T - h @ t.matrix) < 1e-8       # T H^dag = H T
    assert np.linalg.norm(tp.square() - eye) < 1e-8
    assert np.linalg.norm(ctp.square() - eye) < 1e-8
    assert np.linalg.norm(tp.matrix @ np.conj(h) - h @ tp.matrix) < 1e-8
    assert np.linalg.norm(c @ tp.matrix - tp.matrix @ np.conj(c)) < 1e-8


def test_positive_metric_dichotomy():
    _, dec = synthesize(SynthesisSpec(
        groups=(JordanBlockSpec(1.0, (1, 1)), JordanBlockSpec(-2.0, (1,))),
        basis_seed=4))
    p_plus = build_positive_metric(dec)
    w = np.linalg.eigvalsh(p_plus)
    assert w.min() > 0
    _, dec_j = synthesize(SynthesisSpec(groups=(JordanBlockSpec(1.0, (2,)),),
                                        basis_seed=4))
    with pytest.raises(NotDiagonalizableReal) as exc:
        build_positive_metric(dec_j)
    assert exc.value.reason == "Theorem 1"


def test_reflecting_and_quaternionic_on_paired_blocks():
    h, dec = synthesize(SynthesisSpec(groups=(
        JordanBlockSpec(0.0, (2, 2)), JordanBlockSpec(1.0, (1, 1)),
    ), basis_seed=6))
    r, p_paired = build_reflecting(dec)
    n = dec.n
    assert np.linalg.norm(r @ r - np.eye(n)) < 1e-8
    assert np.linalg.norm(r @ h - h @ r) < 1e-8
    assert np.linalg.norm(r.conj().T @ p_paired @ r + p_paired) < 1e-8
    t_frak = build_quaternionic_T(dec)
    assert np.linalg.norm(t_frak.square() + np.eye(n)) < 1e-8
    assert np.linalg.norm(t_frak.matrix @ np.conj(h) - h @ t_frak.matrix) < 1e-8


def test_unpaired_real_blocks_refusal():
    _, dec = synthesize(SynthesisSpec(groups=(JordanBlockSpec(0.0, (2, 1)),),
                                      basis_seed=0))
    with pytest.raises(UnpairedRealBlocks) as exc:
        build_reflecting(dec)
    assert exc.value.reason == "Proposition 4"
    with pytest.raises(UnpairedRealBlocks) as exc:
        build_quaternionic_T(dec)
    assert exc.value.reason == "Theorem 2"


def test_unpaired_complex_refusal():
    h = np.diag([2j, 1.0]).astype(complex)
    from pseudoherm.spectral import analyze
    dec = analyze(h, allow_unpaired=True)
    with pytest.raises(NotPaired):
        build_parity(dec)


# ---------------------------------------------------------------------------
# chain-basis kernel against the dyad sums it replaces


def _dyad_parity(dec, sigma):
    p = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for ng, g in ((ng, g) for ng, g in enumerate(dec.groups) if g.kind == "real"):
        for a, c in enumerate(g.chains):
            for i in range(c.dim):
                p += sigma(ng, a) * np.outer(c.phi[c.dim - 1 - i], c.phi[i].conj())
    for ng1, g1, ng2, g2 in dec.iter_pairs():
        for a, (c1, c2) in enumerate(zip(g1.chains, g2.chains)):
            for i in range(c1.dim):
                rev = c1.dim - 1 - i
                p += sigma(ng1, a) * (np.outer(c1.phi[rev], c2.phi[i].conj())
                                      + np.outer(c2.phi[rev], c1.phi[i].conj()))
    return p


def _dyad_charge(dec, sigma):
    c_op = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for ng, g in enumerate(dec.groups):
        for a, c in enumerate(g.chains):
            for i in range(c.dim):
                c_op += sigma(ng, a) * np.outer(c.psi[i], c.phi[i].conj())
    return c_op


def _dyad_time_reversal(dec):
    m = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for g in dec.groups:
        for c in g.chains:
            for i in range(c.dim):
                m += np.outer(c.psi[i], c.psi[c.dim - 1 - i])
    return m


def _dyad_ctp(dec, sigma, sigma_prime):
    """The C T P loop; T P is the case sigma = +1."""
    m = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for ng, g in ((ng, g) for ng, g in enumerate(dec.groups) if g.kind == "real"):
        for a, c in enumerate(g.chains):
            coeff = sigma(ng, a) * sigma_prime(ng, a)
            for i in range(c.dim):
                m += coeff * np.outer(c.psi[i], c.phi[i])
    for ng1, g1, ng2, g2 in dec.iter_pairs():
        for a, (c1, c2) in enumerate(zip(g1.chains, g2.chains)):
            coeff = sigma(ng1, a) * sigma_prime(ng1, a)
            for i in range(c1.dim):
                m += coeff * (np.outer(c1.psi[i], c2.phi[i])
                              + np.outer(c2.psi[i], c1.phi[i]))
    return m


def _dyad_positive_metric(dec):
    p = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for g in dec.groups:
        for c in g.chains:
            p += np.outer(c.phi[0], c.phi[0].conj())
    return p


def _halves(dec):
    """The real block halves as label pairs ``((ng, a), (ng, b))``, a < b."""
    half, labels = dec.real_block_halves[0], dec.chain_labels
    return [(labels[c], labels[h]) for c, h in enumerate(half) if h > c]


def _dense(coefficients, n):
    """K from its column gather ``(src, sign)``: ``K[src[j], j] = sign[j]``."""
    src, sign = coefficients
    k = np.zeros((n, n))
    k[src, np.arange(n)] = sign
    return k


def _dyad_reflecting(dec):
    n = dec.n
    r = np.zeros((n, n), dtype=np.complex128)
    p = np.zeros((n, n), dtype=np.complex128)
    for (ng, a), (_, b) in _halves(dec):
        ca, cb = dec.groups[ng].chains[a], dec.groups[ng].chains[b]
        for i in range(ca.dim):
            r += np.outer(ca.psi[i], cb.phi[i].conj())
            r += np.outer(cb.psi[i], ca.phi[i].conj())
            rev = ca.dim - 1 - i
            p += np.outer(ca.phi[rev], ca.phi[i].conj())
            p -= np.outer(cb.phi[rev], cb.phi[i].conj())
    for ng1, g1, ng2, g2 in dec.iter_pairs():
        for a, (c1, c2) in enumerate(zip(g1.chains, g2.chains)):
            for i in range(c1.dim):
                r += np.outer(c1.psi[i], c1.phi[i].conj())
                r -= np.outer(c2.psi[i], c2.phi[i].conj())
                rev = c1.dim - 1 - i
                p += np.outer(c1.phi[rev], c2.phi[i].conj())
                p += np.outer(c2.phi[rev], c1.phi[i].conj())
    return r, p


def _dyad_quaternionic_T(dec):
    m = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for (ng, a), (_, b) in _halves(dec):
        ca, cb = dec.groups[ng].chains[a], dec.groups[ng].chains[b]
        for i in range(ca.dim):
            m += np.outer(ca.psi[i], cb.phi[i])
            m -= np.outer(cb.psi[i], ca.phi[i])
    for ng1, g1, ng2, g2 in dec.iter_pairs():
        for a, (c1, c2) in enumerate(zip(g1.chains, g2.chains)):
            for i in range(c1.dim):
                m += np.outer(c1.psi[i], c2.phi[i])
                m -= np.outer(c2.psi[i], c1.phi[i])
    return m


def _dyad_reconstruct(dec):
    h = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for g in dec.groups:
        for c in g.chains:
            for i in range(c.dim):
                h += g.eigenvalue * np.outer(c.psi[i], c.phi[i].conj())
            for i in range(c.dim - 1):
                h += np.outer(c.psi[i], c.phi[i + 1].conj())
    return h


def _dyad_commutant(dec, params):
    chains = [c for g in dec.groups for c in g.chains]
    x = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for c, coeffs in zip(chains, params):
        for k in range(c.dim):
            for i in range(c.dim - k):
                x += coeffs[k] * np.outer(c.psi[i], c.phi[i + k].conj())
    return x


def _dyad_canonical_p_tilde(dec):
    """The signed block reversal ``pseudounitary_symmetries_exist`` used to
    take its trace from."""
    sigma = canonical_sign_sequence(dec)
    p = np.zeros((dec.n, dec.n), dtype=np.complex128)
    offset = {}
    pos = 0
    for ng, g in enumerate(dec.groups):
        for a, c in enumerate(g.chains):
            offset[(ng, a)] = pos
            pos += c.dim
    for ng, g in enumerate(dec.groups):
        if g.kind != "real":
            continue
        for a, c in enumerate(g.chains):
            o = offset[(ng, a)]
            for i in range(c.dim):
                p[o + c.dim - 1 - i, o + i] = sigma(ng, a)
    for ng1, g1, ng2, g2 in dec.iter_pairs():
        for a, (c1, c2) in enumerate(zip(g1.chains, g2.chains)):
            o1, o2 = offset[(ng1, a)], offset[(ng2, a)]
            for i in range(c1.dim):
                p[o1 + c1.dim - 1 - i, o2 + i] = sigma(ng1, a)
                p[o2 + c1.dim - 1 - i, o1 + i] = sigma(ng1, a)
    return p


#: synthesized chain structures: paired and unpaired real blocks of sizes
#: 1-5 and conjugate pairs with Jordan blocks, at n = 32 and n = 64, and a
#: diagonalizable real spectrum (the only one with a positive metric)
_LARGE = {
    "n32-paired": ((-1.0, (5, 5)), (0.3, (3, 3)), (1.2, (1, 1)),
                   (0.5 + 1j, (4, 3)), (0.5 - 1j, (4, 3))),
    "n32-unpaired": ((0.0, (5, 3, 1)), (1.0, (2,)), (0.4 + 0.8j, (4, 1)),
                     (0.4 - 0.8j, (4, 1)), (-0.7, (3, 3, 2, 2, 1))),
    "n32-diagonal": tuple((x, (1,)) for x in np.linspace(-2.0, 2.0, 32)),
    "n64-paired": ((-1.0, (5, 5, 4, 4)), (0.4, (3, 3, 1, 1)), (0.5 + 1j, (5, 4, 3)),
                   (0.5 - 1j, (5, 4, 3)), (-0.3 + 0.6j, (2, 2, 1, 1)),
                   (-0.3 - 0.6j, (2, 2, 1, 1)), (1.5, (1, 1))),
    "n64-unpaired": ((0.0, (5, 4, 3)), (0.2 + 0.9j, (5, 3, 2, 1)), (0.2 - 0.9j, (5, 3, 2, 1)),
                     (-1.0, (3, 3, 2)), (1.0 + 0.5j, (4, 4, 3)), (1.0 - 0.5j, (4, 4, 3))),
}

_TWO_LEVEL = [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, 1.0, 0.0), (0.5, 0.0, 2.0),
              (0.0, 3.0, -0.5)]


def _kernel_cases():
    for seed in range(5):
        yield f"family-{seed}", synthesize(_mixed_spec(seed))[1]
    for params in _TWO_LEVEL:
        yield "two-level-{}-{}-{}".format(*params), mashhoon_papini(
            MashhoonPapiniParams(*params))[2]
    for seed, (label, groups) in enumerate(_LARGE.items()):
        yield label, synthesize(SynthesisSpec(
            groups=tuple(JordanBlockSpec(z, d) for z, d in groups),
            basis_seed=seed, basis_cond=100.0))[1]


_CASES = dict(_kernel_cases())


def _random_signs(dec, rng):
    """Random signs, shared by conjugate partners."""
    signs = {}
    for ng, g in enumerate(dec.groups):
        for a in range(len(g.chains)):
            partner = [ng1 for ng1, _, ng2, _ in dec.iter_pairs() if ng2 == ng]
            signs[(ng, a)] = (signs[(partner[0], a)] if partner
                              else int(rng.choice([-1, 1])))
    return SignSequence(signs)


def _rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _builds(dec, rng):
    """(name, kernel-built, dyad-built) for every operator ``dec`` admits;
    the others must be refused with their class and reason."""
    out = []
    canonical = canonical_sign_sequence(dec)
    sigma, sigma_p = _random_signs(dec, rng), _random_signs(dec, rng)
    plus = SignSequence({x: 1 for x in canonical.signs})
    out += [("P canonical", build_parity(dec), _dyad_parity(dec, canonical)),
            ("P sigma", build_parity(dec, sigma), _dyad_parity(dec, sigma)),
            ("C canonical", build_charge(dec), _dyad_charge(dec, canonical)),
            ("C sigma", build_charge(dec, sigma), _dyad_charge(dec, sigma)),
            ("T", build_time_reversal(dec).matrix, _dyad_time_reversal(dec)),
            ("TP sigma", build_tp(dec, sigma).matrix, _dyad_ctp(dec, plus, sigma)),
            ("CTP", build_ctp(dec, sigma, sigma_p).matrix, _dyad_ctp(dec, sigma, sigma_p)),
            ("H", spectral.reconstruct(dec), _dyad_reconstruct(dec))]
    params = [rng.normal(size=c.dim) + 1j * rng.normal(size=c.dim) + 2
              for g in dec.groups for c in g.chains]
    out.append(("commutant", krein.commutant_element(dec, params),
                _dyad_commutant(dec, params)))
    if all(g.kind == "real" and set(g.block_dims) == {1} for g in dec.groups):
        out.append(("P+", build_positive_metric(dec), _dyad_positive_metric(dec)))
    else:
        with pytest.raises(NotDiagonalizableReal):
            build_positive_metric(dec)
    if krein.pseudounitary_symmetries_exist(dec).exists:
        r, p_paired = build_reflecting(dec)
        r_want, p_want = _dyad_reflecting(dec)
        out += [("R", r, r_want), ("paired P", p_paired, p_want),
                ("Tfrak", build_quaternionic_T(dec).matrix, _dyad_quaternionic_T(dec))]
    else:
        with pytest.raises(UnpairedRealBlocks, match="identical pairs") as exc:
            build_reflecting(dec)
        assert exc.value.reason == "Proposition 4"
        with pytest.raises(UnpairedRealBlocks) as exc:
            build_quaternionic_T(dec)
        assert exc.value.reason == "Theorem 2"
    return out


@pytest.mark.parametrize("label", list(_CASES))
def test_kernel_matches_dyad_sums(label):
    dec = _CASES[label]
    assert all(g.eigenvalue.imag == 0 for g in dec.groups if g.kind == "real")
    errors = {name: _rel_err(got, want)
              for name, got, want in _builds(dec, np.random.default_rng(7))}
    assert max(errors.values()) <= 1e-12, errors
    if label.endswith("-paired"):
        assert {"R", "paired P", "Tfrak"} <= set(errors)
    if label.endswith("-diagonal"):
        assert "P+" in errors


@pytest.mark.parametrize("label", list(_CASES))
def test_canonical_trace_matches_block_reversal(label):
    dec = _CASES[label]
    k = _dense(operators._coefficients(dec, "P", dec.canonical_signs), dec.n)
    assert np.array_equal(k, _dyad_canonical_p_tilde(dec).real)
    trace = krein.pseudounitary_symmetries_exist(dec).canonical_trace
    assert trace == float(np.trace(_dyad_canonical_p_tilde(dec)).real)


def _blocks_pair(dec):
    """The pairing rule read off the block structure: no unpaired complex
    eigenvalue, and every real block size occurs an even number of times."""
    return all(g.kind != "unpaired" for g in dec.groups) and all(
        g.block_dims.count(d) % 2 == 0
        for g in dec.groups if g.kind == "real" for d in g.block_dims)


def _existence_cases():
    yield from _CASES.items()
    rng = np.random.default_rng(42)  # the structures of acceptance criterion 6
    for make in (_paired_spec, _unpaired_spec):
        for trial in range(50):
            yield f"{make.__name__}-{trial}", synthesize(make(rng))[1]


def test_existence_is_the_block_pairing_rule():
    """``exists`` is the pairing rule, and the canonical trace is 0 wherever
    it holds (so no separate trace test can refuse a paired structure)."""
    decided = {}
    for label, dec in _existence_cases():
        res = krein.pseudounitary_symmetries_exist(dec)
        assert res.exists == _blocks_pair(dec) == (not res.violations), label
        if res.exists:
            assert res.canonical_trace == 0.0, label
        decided[res.exists] = decided.get(res.exists, 0) + 1
    assert decided[True] >= 50 and decided[False] >= 50, decided


def test_canonical_trace_on_unpaired_complex():
    dec = analyze(np.diag([2j, 1.0, 3.0]).astype(complex), allow_unpaired=True)
    assert krein.pseudounitary_symmetries_exist(dec).canonical_trace == float(
        np.trace(_dyad_canonical_p_tilde(dec)).real)


@pytest.mark.parametrize("build", [build_parity, build_charge, build_time_reversal, build_tp,
                                   build_ctp, build_reflecting, build_quaternionic_T,
                                   krein.congruence_to_involutory],
                         ids=lambda f: f.__name__)
def test_every_pairing_builder_refuses_unpaired_complex_first(build):
    """The real block of diag(2i, 1) is unpaired too, so a builder that
    checked the halves layout before the pairing would raise
    ``UnpairedRealBlocks`` here instead.  Each refuses in the words of
    ``analyze``."""
    h = np.diag([2j, 1.0]).astype(complex)
    dec = analyze(h, allow_unpaired=True)
    assert dec.real_block_halves[1] == ((1.0, (1,)),)
    with pytest.raises(NotPaired) as refused:
        analyze(h)
    with pytest.raises(NotPaired) as built:
        build(dec)
    assert str(built.value) == str(refused.value)


def test_a_bad_sign_sequence_is_refused_before_the_pairing():
    """A builder reads its sign sequence before ``_chain_product`` checks the
    pairing, so on diag(2i, 1) mismatched labels give ``ValueError``."""
    dec = analyze(np.diag([2j, 1.0]).astype(complex), allow_unpaired=True)
    with pytest.raises(ValueError, match="labels do not match the decomposition"):
        build_parity(dec, SignSequence({(0, 0): 1}))


def test_unpaired_complex_positive_metric_and_parity_kernel():
    dec = analyze(np.diag([2j, 1.0]).astype(complex), allow_unpaired=True)
    with pytest.raises(NotDiagonalizableReal):
        build_positive_metric(dec)
    k = _dense(operators._coefficients(dec, "P", dec.canonical_signs), dec.n)
    assert np.array_equal(k, _dyad_canonical_p_tilde(dec).real)


@pytest.mark.parametrize("label", ["two-level-1.0-1.0--1.0", "n32-paired"])
def test_one_flipped_coefficient_sign_is_caught(label, monkeypatch):
    """The comparison above has teeth: negating one nonzero sign of any
    operator's column gather (one entry of its K) moves it far past 1e-12."""
    kernel = operators._coefficients

    def flipped(*args, **kwargs):
        src, sign = kernel(*args, **kwargs)
        nonzero = np.flatnonzero(sign)
        sign[nonzero[len(nonzero) // 2]] *= -1
        return src, sign

    monkeypatch.setattr(operators, "_coefficients", flipped)
    rows = {name: _rel_err(got, want)
            for name, got, want in _builds(_CASES[label], np.random.default_rng(7))
            if name not in ("H", "commutant", "P+")}
    assert set(rows) == {"P canonical", "P sigma", "C canonical", "C sigma", "T",
                         "TP sigma", "CTP", "R", "paired P", "Tfrak"}
    assert min(rows.values()) > 1e-6, rows


def test_every_builder_makes_one_product():
    """K is applied as a column gather: one matrix product per operator."""
    dec = _CASES["n32-paired"]
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            products.append(1)
            return np.asarray(other) @ np.asarray(self)

    counted = dataclasses.replace(dec, psi=dec.psi.view(Counted), phi=dec.phi.view(Counted),
                                  phi_dag=dec.phi_dag.view(Counted))
    for build in (build_parity, build_charge, build_time_reversal, build_tp, build_ctp,
                  build_reflecting, build_quaternionic_T):
        products.clear()
        got, want = build(counted), build(dec)
        pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
        for g, w in pairs:
            g, w = (SymmetryOperator.of(x).matrix for x in (g, w))
            assert np.array_equal(np.asarray(g), w), build.__name__
        assert len(products) == (2 if build is build_reflecting else 1), build.__name__
    diagonal = _CASES["n32-diagonal"]
    products.clear()
    counted = dataclasses.replace(diagonal, psi=diagonal.psi.view(Counted),
                                  phi=diagonal.phi.view(Counted),
                                  phi_dag=diagonal.phi_dag.view(Counted))
    assert np.array_equal(np.asarray(build_positive_metric(counted)),
                          build_positive_metric(diagonal))
    assert len(products) == 1


def test_compose_refuses_different_dimensions():
    with pytest.raises(DimensionMismatch, match="cannot compose dimensions 2 and 3"):
        antilinear_compose(SymmetryOperator(np.eye(2)), SymmetryOperator(np.eye(3)))
