"""Dense kernel tests: tolerances, eigenvalues, rank decisions, solves, and
the compiled LAPACK / expm kernels pinned against ``scipy.linalg``."""

import importlib.machinery
import sys
import types
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from pseudoherm import evolution, linalg, spectral
from pseudoherm.errors import (ClusterAmbiguity, DimensionMismatch, NonConvergence, Overflow,
                               Singular)
from pseudoherm.linalg import EXPM_NORM_BOUND, Tolerance
from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec, synthesize


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0)
    with pytest.raises(ValueError):
        Tolerance(abs=0.0, rel=0.0)
    t = Tolerance(abs=1e-8, rel=1e-6)
    m = 2.0 * np.eye(3, dtype=np.complex128)
    # abs + rel * n * ||A||_F = 1e-8 + 1e-6 * 3 * 2*sqrt(3)
    assert np.isclose(t.scaled(m), 1e-8 + 1e-6 * 3 * 2 * np.sqrt(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_tolerance_rejects_non_finite_values(value):
    for kwargs in ({"abs": value}, {"rel": value}, {"abs": value, "rel": value}):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)


def test_as_cmatrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        linalg.as_cmatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        linalg.as_cmatrix(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        linalg.as_cmatrix(np.zeros((65, 65)))
    with pytest.raises(ValueError):
        linalg.as_cmatrix([[np.nan, 0], [0, 1]])


def test_eigenvalues_companion_matrix():
    # companion matrix of x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
    c = np.array([[0, 0, 6], [1, 0, -11], [0, 1, 6]], dtype=np.complex128)
    w = np.sort(linalg.eigenvalues(c).real)
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-10)


def test_eigenvalues_multiplicity():
    j = np.array([[2, 1], [0, 2]], dtype=np.complex128)
    w = linalg.eigenvalues(j)
    assert np.allclose(sorted(w.real), [2, 2], atol=1e-6)


def _schur_fixtures():
    rng = np.random.default_rng(7)
    return [
        np.array([[0, 0, 6], [1, 0, -11], [0, 1, 6]], dtype=np.complex128),
        np.array([[2, 1], [0, 2]], dtype=np.complex128),
        rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
        rng.normal(size=(64, 64)),
    ]


@pytest.mark.parametrize("a", _schur_fixtures())
def test_schur_form(a):
    t, z = linalg.schur(a)
    n = a.shape[0]
    assert np.array_equal(t, np.triu(t))
    assert np.abs(z.conj().T @ z - np.eye(n)).max() <= 1e3 * n * np.finfo(float).eps
    bound = max(linalg.DEFAULT_TOL.scaled(a),
                1e3 * np.finfo(float).eps * n * np.linalg.norm(a))
    assert np.linalg.norm(a - z @ t @ z.conj().T) <= bound


@pytest.mark.parametrize("a", _schur_fixtures())
def test_eigenvalues_are_the_schur_diagonal_bit_for_bit(a):
    want = np.diag(sla.schur(np.asarray(a, dtype=np.complex128), output="complex")[0])
    assert np.array_equal(linalg.eigenvalues(a), want)


def test_rank_and_nullity():
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    v = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    a = u @ np.diag([3.0, 1.0, 1e-2, 0.0, 0.0]) @ v
    assert linalg.rank(a) == 3


def test_solve_and_singular():
    a = np.array([[2, 1], [1, 2]], dtype=np.complex128)
    b = np.array([3, 3], dtype=np.complex128)
    assert np.allclose(linalg.solve(a, b), [1, 1])
    with pytest.raises(Singular):
        linalg.solve(np.array([[1, 1], [1, 1]], dtype=np.complex128), b)


def test_inv_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
    assert np.allclose(a @ linalg.inv(a), np.eye(4), atol=1e-10)


def test_expm_basic_and_overflow():
    assert np.allclose(linalg.expm(np.zeros((2, 2))), np.eye(2))
    x = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    assert np.allclose(linalg.expm(x), np.eye(2) + x)
    with pytest.raises(Overflow):
        linalg.expm(1e4 * np.eye(2, dtype=np.complex128))


def test_hermitian_and_definite_predicates():
    h = np.array([[2, 1j], [-1j, 2]], dtype=np.complex128)
    assert linalg.metric_eigenvalues(h).min() > 0
    assert linalg.metric_eigenvalues(np.diag([1.0, -1.0]).astype(complex)).min() < 0


# --- the kernels against scipy.linalg ---------------------------------------

def _dense(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _with_jordan_blocks(n, seed):
    """``S J S^-1`` with a Jordan block of size n // 2 (at least 2) at 0.5 and
    simple eigenvalues filling the rest."""
    p = max(2, n // 2)
    groups = (JordanBlockSpec(0.5, (p,)),) + tuple(
        JordanBlockSpec(1.0 + k + 0.1 * np.sin(k), (1,)) for k in range(n - p))
    return synthesize(SynthesisSpec(groups=groups, basis_seed=seed, basis_cond=10.0))[0]


_SIZES = (2, 4, 16, 32, 64)
_MATRICES = [pytest.param(make(n, seed), id=f"{make.__name__.strip('_')}-n{n}")
             for n, seed in zip(_SIZES, range(20, 25))
             for make in (_dense, _with_jordan_blocks)]


@pytest.mark.parametrize("a", _MATRICES)
def test_schur_matches_scipy_bit_for_bit(a):
    t, z = linalg.schur(a)
    t_ref, z_ref = sla.schur(a, output="complex")
    assert np.array_equal(t, t_ref)
    assert np.array_equal(z, z_ref)


@pytest.mark.parametrize("a", _MATRICES)
def test_lu_solves_and_singular_values_match_scipy_bit_for_bit(a):
    b = _dense(a.shape[0], 99)[:, :3]
    lu_piv = sla.lu_factor(a)
    assert np.array_equal(linalg.solve(a, b), sla.lu_solve(lu_piv, b))
    assert np.array_equal(linalg.solve(a, b[:, 0]), sla.lu_solve(lu_piv, b[:, 0]))
    assert np.array_equal(linalg.inv(a), sla.lu_solve(lu_piv, np.eye(a.shape[0])))
    assert np.array_equal(linalg.singular_values(a), sla.svdvals(a))


def test_reorder_schur_is_ztrsen():
    a = _with_jordan_blocks(16, 3)
    t, z = linalg.schur(a)
    select = np.zeros(16, dtype=np.int32)
    select[[3, 7, 11]] = 1
    t_re, z_re, m, info = linalg.reorder_schur(t, z, select)
    want = sla.lapack.ztrsen(select, t, z, job="N")
    assert (m, info) == (3, 0)
    assert np.array_equal(t_re, want[0]) and np.array_equal(z_re, want[1])


def _expm_relative_error(a):
    """``max |expm(A) - scipy expm(A)| / max |scipy expm(A)|``."""
    want = sla.expm(a)
    return np.abs(linalg.expm(a) - want).max() / np.abs(want).max()


def _phase_cycle(n, c):
    """``c`` times a cyclic shift with unimodular phases: every ``||A^k||_1^(1/k)``,
    the quantity the Pade order and the scaling are chosen from, equals c."""
    phases = np.exp(1j * np.arange(1, n + 1))
    return c * np.roll(np.eye(n), 1, axis=0) * phases


#: the theta_m bounds of the Pade orders m = 3, 5, 7, 9, 13
#: (Al-Mohy & Higham 2009, Table 3.1)
_PADE_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                2.097847961257068e0, 4.25)


@pytest.mark.parametrize("theta", _PADE_THETAS)
@pytest.mark.parametrize("side", (1 - 1e-6, 1 + 1e-6), ids=("below", "above"))
def test_expm_matches_scipy_at_each_pade_theta(theta, side):
    for n in (2, 5, 16):
        assert _expm_relative_error(_phase_cycle(n, side * theta)) <= 1e-12


@pytest.mark.parametrize("n", (2, 8, 32))
def test_expm_matches_scipy_through_the_scaling_branch(n):
    for a in (_dense(n, 7), _with_jordan_blocks(n, 8)):
        for m in (-1j * (a + a.conj().T), -1j * a):
            for norm in (5.0, 20.0, 100.0, 400.0, (1 - 1e-9) * EXPM_NORM_BOUND):
                assert _expm_relative_error(m * (norm / np.linalg.norm(m))) <= 1e-12


def _evolution_inputs():
    """The Hamiltonians and time grids of ``tests/test_evolution.py``'s
    stepped-series cases, plus the lower-triangular Jordan regime and the
    n = 32 spectrum on a cond-1e3 basis."""
    for e, r, s in ((1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 2.0),
                    (2.0, 0.0, 0.0)):
        h, regime, _ = evolution.mashhoon_papini(evolution.MashhoonPapiniParams(e, r, s))
        yield pytest.param(h, [np.linspace(0, 10, 200)], id=f"{regime}-{e}-{r}-{s}")
    for cond in (100.0, 1e3):
        spec = SynthesisSpec(groups=tuple(JordanBlockSpec(k - 15.5 + 0.1 * np.sin(k), (1,))
                                          for k in range(32)),
                             basis_seed=3, basis_cond=cond)
        h, _ = synthesize(spec)
        t_end = 0.8 * EXPM_NORM_BOUND / np.linalg.norm(h)
        grids = [np.linspace(0, t_end, 200), np.geomspace(1e-3, t_end, 60),
                 np.linspace(-t_end / 2, t_end / 2, 101)]
        yield pytest.param(h, grids, id=f"n32-cond{cond:g}")


@pytest.mark.parametrize("h,grids", _evolution_inputs())
def test_expm_matches_scipy_on_the_evolution_inputs(h, grids):
    """Every per-point propagator of the grids, and the propagator of
    every gap between their neighbouring points."""
    times = {t for grid in grids for t in grid}
    times |= {b - a for grid in grids for a, b in zip(grid[:-1], grid[1:])}
    assert max(_expm_relative_error(-1j * t * h) for t in times) <= 1e-12


def test_expm_structured_inputs_match_scipy():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        x = 30.0 * _dense(n, n)
        for a in (np.diag(np.diag(x)), np.triu(x), np.tril(x), np.zeros((n, n))):
            assert _expm_relative_error(a) <= 1e-12
    x = rng.normal(size=(6, 6)) * 1e-3  # the order-3 branch
    assert _expm_relative_error(x + 0j) <= 1e-12


def _triangular_expm_inputs():
    """20 seeded triangular matrices, upper and lower in turn, n = 2..6 and
    ||A||_F from 1e-2 to 800, then -iHt of the model's upper and lower
    Jordan regimes over the 200-point grid of t in [0, 10]."""
    rng = np.random.default_rng(0)
    for k, norm in enumerate(np.geomspace(1e-2, 800, 20)):
        n = 2 + k % 5
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = np.triu(x) if k % 2 == 0 else np.tril(x)
        yield x * (norm / np.linalg.norm(x))
    for r, s in ((1.0, 0.0), (0.0, 2.0)):
        h = evolution.mashhoon_papini(evolution.MashhoonPapiniParams(1.0, r, s))[0]
        yield from (-1j * t * h for t in np.linspace(0, 10, 200))


def test_triangular_expm_is_accurate_against_the_referee():
    # the triangular squaring (_square_triangular) sets the diagonal and the
    # first off-diagonal exactly after each squaring: it reads 1.0e-15 here,
    # plain squarings 1.3e-13; scipy squares alike, so only a referee shows it
    worst = 0.0
    for a in _triangular_expm_inputs():
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
        worst = max(worst, np.abs(linalg.expm(a) - want).max() / np.abs(want).max())
    assert worst <= 1e-14


@pytest.mark.parametrize("norm", (1e-3, 1.0, 50.0))
def test_expm_returns_c_order_like_scipy(norm):
    # a later product with U(t) rounds differently on another layout
    a = -1j * _dense(6, 2) * norm
    assert linalg.expm(a).flags.c_contiguous


@pytest.mark.parametrize("a", [
    pytest.param(np.diag([1.0, 2j, -3.0]), id="diagonal"),
    pytest.param(np.triu(_dense(5, 3)), id="triangular"),
    pytest.param(1e-3 * _dense(5, 4), id="unscaled"),
    pytest.param(50.0 * _dense(5, 5), id="scaled"),
])
def test_expm_result_owns_its_data(a):
    # a view into the kernel's (5, n, n) work array would keep all of it
    # alive for as long as the result is held
    u = linalg.expm(a)
    assert u.flags.owndata and u.flags.c_contiguous


# --- error paths -------------------------------------------------------------

_EXTENSIONS = pytest.mark.parametrize("name,attr", [
    pytest.param("_flapack", "_lapack", id="_flapack"),
    pytest.param("_matfuncs_expm", "_expm_kernel", id="_matfuncs_expm"),
])


@_EXTENSIONS
def test_lapack_extension_is_loaded_once(name, attr):
    module = linalg._load_extension(name)
    assert module is getattr(linalg, attr) is sys.modules[f"scipy.linalg.{name}"]


@_EXTENSIONS
def test_missing_lapack_extension_is_an_import_error(monkeypatch, name, attr):
    monkeypatch.delitem(sys.modules, f"scipy.linalg.{name}")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=f"{name} is missing"):
        linalg._load_extension(name)


def test_schur_calls_zgees_once(monkeypatch):
    real, calls = linalg._lapack.zgees, []
    monkeypatch.setattr(linalg, "_lapack", types.SimpleNamespace(
        zgees=lambda *args, **kw: calls.append(kw) or real(*args, **kw)))
    linalg.schur(_dense(64, 1))
    assert len(calls) == 1


def test_schur_reports_a_failed_qr_iteration(monkeypatch):
    real = linalg._lapack.zgees

    def failing_zgees(select, a, **kw):
        return (*real(select, a, **kw)[:-1], 1)

    monkeypatch.setattr(linalg, "_lapack", types.SimpleNamespace(zgees=failing_zgees))
    with pytest.raises(NonConvergence):
        linalg.schur(_dense(4, 1))


@pytest.mark.usefixtures("cold_memo")
def test_analyze_refuses_a_schur_factorization_with_a_large_residual(monkeypatch):
    # schur returns its factors unchecked; analyze's reconstruction test is
    # their check: with T shifted by 1e-3, ||Psi J Phi^dag - H||_F reads
    # 3e-3 to 5e-2 against a tolerance of 2e-9 to 6e-7
    real = linalg._lapack

    def bad_zgees(select, a, **kw):
        out = real.zgees(select, a, **kw)
        return (out[0] + 1e-3, *out[1:])

    monkeypatch.setattr(linalg, "_lapack", types.SimpleNamespace(
        zgees=bad_zgees, ztrsen=real.ztrsen, zgetrf=real.zgetrf, zgetrs=real.zgetrs))
    for n in (4, 16, 64):
        h = _dense(n, 1)
        t, z = linalg.schur(h)
        assert np.linalg.norm(h - z @ t @ z.conj().T) > 1e-3
        with pytest.raises(ClusterAmbiguity, match=r"^chain basis does not reconstruct H: "):
            spectral.analyze(h)


@pytest.mark.parametrize("stage,code", [("pick_pade_structure", -1),
                                        ("pade_UV_calc", 3), ("pade_UV_calc", -11)])
def test_expm_reports_a_failed_pade_kernel(monkeypatch, stage, code):
    real = linalg._expm_kernel

    def pick(work):
        m, s = real.pick_pade_structure(work)
        return (code, s) if stage == "pick_pade_structure" else (m, s)

    def uv(work, m):
        info = real.pade_UV_calc(work, m)
        return code if stage == "pade_UV_calc" else info

    monkeypatch.setattr(linalg, "_expm_kernel",
                        types.SimpleNamespace(pick_pade_structure=pick, pade_UV_calc=uv))
    with pytest.raises(Singular, match=f"{stage} code {code}"):
        linalg.expm(_dense(4, 1))


def test_exactly_singular_solve_refuses_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Singular):
            linalg.solve(np.array([[1, 1], [1, 1]], dtype=np.complex128), np.ones(2))
        with pytest.raises(Singular):
            linalg.inv(np.zeros((3, 3)))


def test_expm_bound_is_inclusive():
    # ||H||_F = sqrt(2 * (500^2 + 500^2)) = 1000 exactly
    h = np.array([[0, 500 + 500j], [500 - 500j, 0]])
    assert np.linalg.norm(-1j * 1.0 * h) == EXPM_NORM_BOUND
    u = evolution.propagator(h, 1.0)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10
    assert np.abs(u - sla.expm(-1j * h)).max() <= 1e-12
    just_above = np.nextafter(1.0, 2.0)
    assert np.linalg.norm(-1j * just_above * h) > EXPM_NORM_BOUND
    with pytest.raises(Overflow):
        evolution.propagator(h, just_above)


def test_as_vector_refuses_a_wrong_length_and_non_finite_entries():
    with pytest.raises(DimensionMismatch, match="expected a vector of length 3, got 2"):
        linalg.as_vector([1.0, 2.0], 3)
    with pytest.raises(ValueError, match="vector has non-finite entries"):
        linalg.as_vector([1.0, np.nan])


def test_solve_refuses_a_non_finite_right_hand_side():
    with pytest.raises(ValueError, match="right-hand side has non-finite entries"):
        linalg.solve(np.eye(2), [1.0, np.inf])


def test_rank_refuses_an_empty_matrix():
    with pytest.raises(DimensionMismatch, match="empty matrix"):
        linalg.rank(np.zeros((0, 0)))


def _layouts():
    """Complex and real operands in every memory layout the package hands
    the Frobenius kernel: C and F order, conjugate-transposed and strided
    views, vectors, and empty arrays."""
    rng = np.random.default_rng(11)
    out = []
    for n in (1, 2, 5, 8, 64):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = rng.normal(size=(n, n))
        out += [pytest.param(z, id=f"c{n}"), pytest.param(np.asfortranarray(z), id=f"f{n}"),
                pytest.param(z.conj().T, id=f"h{n}"), pytest.param(z[::2, 1::2], id=f"s{n}"),
                pytest.param(z[:, 0], id=f"col{n}"), pytest.param(x, id=f"r{n}"),
                pytest.param(x.T, id=f"rt{n}"), pytest.param(1e-150 * z, id=f"tiny{n}")]
    return out + [pytest.param(np.zeros((0, 0), dtype=complex), id="empty"),
                  pytest.param(np.zeros(0), id="empty-vector")]


@pytest.mark.parametrize("a", _layouts())
def test_fro_is_numpys_frobenius_norm(a):
    want = np.linalg.norm(a)
    got = linalg._fro(a)
    assert type(got) is float
    assert abs(got - want) <= 2 * a.size * np.finfo(float).eps * want


@pytest.mark.parametrize("a, want", [
    (np.array([np.inf, 1.0]), np.inf),
    (np.array([[1.0, 2.0], [3.0, -np.inf]]), np.inf),
    (np.array([np.inf + 1j, 2.0]), np.inf),
    (np.array([complex(1.0, -np.inf), 1j]), np.inf),
    (np.array([np.nan, 1.0]), np.nan),
    (np.array([complex(np.nan, 1.0), np.inf]), np.nan),
    (np.full((3, 3), 1e200), np.inf),
    (np.full((3, 3), 1e200 * (1 + 1j)), np.inf),
    (np.full(4, complex(-1e200, 1e200)), np.inf),
    (np.array([1e200j, 1.0]), np.inf),
], ids=["inf", "-inf", "inf+1j", "1-infj", "nan", "nan-and-inf", "1e200", "1e200(1+j)",
        "1e200(-1+j)", "1e200j"])
def test_fro_is_inf_or_nan_where_numpys_norm_is(a, want):
    """An infinite entry and a sum past the float range give inf, a NaN
    entry NaN, as ``np.linalg.norm`` does; and no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reference = np.linalg.norm(a)
    assert np.array_equal(reference, want, equal_nan=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg._fro(a)
    assert np.array_equal(got, want, equal_nan=True)


def test_scaled_is_the_threshold_of_the_kernels_norms():
    rng = np.random.default_rng(3)
    tol = Tolerance(abs=1e-9, rel=1e-7)
    for n in (2, 8, 64):
        ms = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(3)]
        ms += [ms[0].conj().T, np.asfortranarray(ms[1]), rng.normal(size=(n, n))]
        for k in range(1, len(ms) + 1):
            assert tol.scaled(*ms[:k]) == tol.from_norms(n, *map(linalg._fro, ms[:k]))


@pytest.mark.usefixtures("cold_memo")
def test_expm_and_the_propagators_route_refuse_alike_at_the_bound():
    """The propagator takes its chain route only where expm would accept
    -iHt, both deciding on ``_fro(-iHt)``: at every t around the bound the
    propagator raises ``Overflow`` exactly when expm does."""
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert spectral._kept(h, linalg.DEFAULT_TOL)[1]  # below the bound, the chain route

    def refused(call, *args):
        try:
            call(*args)
        except Overflow:
            return True
        return False

    t = EXPM_NORM_BOUND / linalg._fro(h)
    for _ in range(6):
        t = np.nextafter(t, 0.0)
    seen = set()
    for _ in range(12):
        over = linalg._fro(-1j * t * h) > EXPM_NORM_BOUND
        assert refused(linalg.expm, -1j * t * h) == refused(evolution.propagator, h, t) == over, t
        seen.add(over)
        t = np.nextafter(t, np.inf)
    assert seen == {True, False}
