"""Dense kernel tests: tolerances, eigenvalues, rank decisions, solves."""

import numpy as np
import pytest
import scipy.linalg as sla

from pseudoherm import linalg
from pseudoherm.errors import DimensionMismatch, Overflow, Singular
from pseudoherm.linalg import Tolerance


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0)
    with pytest.raises(ValueError):
        Tolerance(abs=0.0, rel=0.0)
    t = Tolerance(abs=1e-8, rel=1e-6)
    m = 2.0 * np.eye(3, dtype=np.complex128)
    # abs + rel * n * ||A||_F = 1e-8 + 1e-6 * 3 * 2*sqrt(3)
    assert np.isclose(t.scaled(m), 1e-8 + 1e-6 * 3 * 2 * np.sqrt(3))


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
    assert linalg.nullity(a) == 2


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
    assert linalg.is_hermitian(h)
    assert linalg.is_positive_definite(h)
    assert not linalg.is_positive_definite(np.diag([1.0, -1.0]).astype(complex))
    assert not linalg.is_hermitian(np.array([[0, 1], [0, 0]], dtype=np.complex128))
