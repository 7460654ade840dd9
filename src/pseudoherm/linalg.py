"""Dense complex matrix kernel.

Thin, tolerance-aware layer over numpy/scipy LAPACK wrappers: eigenvalues via
the complex Schur form, SVD-based numerical rank, LU solves, and the matrix
exponential.  Everything works on square ``complex128`` arrays of modest size
(``N_MAX`` defaults to 64); matrices are treated as immutable values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, NonConvergence, Overflow, Singular

N_MAX = 64

#: norm bound above which expm refuses (guards against overflow in squaring)
EXPM_NORM_BOUND = 1.0e3


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by every numerical decision."""

    abs: float = 1e-10
    rel: float = 1e-10

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be non-negative")
        if self.abs == 0 and self.rel == 0:
            raise ValueError("abs and rel tolerance cannot both be zero")

    def scaled(self, *mats: np.ndarray) -> float:
        """Threshold ``abs + rel * n * max ||A||_F`` over the operands."""
        scale = max((float(np.linalg.norm(m)) for m in mats), default=0.0)
        n = max((m.shape[0] for m in mats), default=1)
        return self.abs + self.rel * n * scale


DEFAULT_TOL = Tolerance()


def as_cmatrix(a, n_max: int = N_MAX) -> np.ndarray:
    """Validate and convert to a square finite complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatch("empty matrix")
    if m.shape[0] > n_max:
        raise DimensionMismatch(f"dimension {m.shape[0]} exceeds configured bound {n_max}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def as_vector(v, n: int | None = None) -> np.ndarray:
    w = np.asarray(v, dtype=np.complex128).reshape(-1)
    if n is not None and w.shape[0] != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {w.shape[0]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector has non-finite entries")
    return w


def eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues with multiplicity, from the complex Schur form.

    The Schur factorization residual ``||A - Z T Z^dag||`` is checked against
    the tolerance so a silent LAPACK failure cannot leak garbage downstream.
    """
    a = as_cmatrix(a)
    try:
        t, z = sla.schur(a, output="complex")
    except sla.LinAlgError as exc:  # QR iteration failed to converge
        raise NonConvergence(str(exc)) from exc
    resid = np.linalg.norm(a - z @ t @ z.conj().T)
    if resid > max(tol.scaled(a), 1e3 * np.finfo(float).eps * a.shape[0] * np.linalg.norm(a)):
        raise NonConvergence(f"Schur residual {resid:.3e} above tolerance")
    return np.diag(t).copy()


def singular_values(a) -> np.ndarray:
    return sla.svdvals(as_cmatrix(a))


def rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol.abs + tol.rel * s_max``."""
    s = singular_values(a)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol.abs + tol.rel * s[0]))


def nullity(a, tol: Tolerance = DEFAULT_TOL) -> int:
    a = as_cmatrix(a)
    return a.shape[0] - rank(a, tol)


def solve(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve ``A X = B`` by partial-pivoted LU; refuses near-singular A."""
    a = as_cmatrix(a)
    b = np.asarray(b, dtype=np.complex128)
    with warnings.catch_warnings():
        # the pivot check below handles exact singularity explicitly
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= tol.abs + tol.rel * max(pivots.max(), 1.0):
        raise Singular(f"pivot {pivots.min():.3e} below tolerance")
    return sla.lu_solve((lu, piv), b)


def inv(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    return solve(a, np.eye(a.shape[0], dtype=np.complex128), tol)


def check_expm_bound(a) -> np.ndarray:
    """Validate ``A`` and refuse with ``Overflow`` when ``||A||_F`` exceeds
    ``EXPM_NORM_BOUND``; returns ``A`` as a complex matrix."""
    a = as_cmatrix(a)
    norm = np.linalg.norm(a)
    if norm > EXPM_NORM_BOUND:
        raise Overflow(f"||A|| = {norm:.3e} exceeds expm bound {EXPM_NORM_BOUND:.0e}")
    return a


def expm(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy)."""
    return sla.expm(check_expm_bound(a))


def is_hermitian(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_cmatrix(a)
    return bool(np.linalg.norm(a - a.conj().T) <= tol.scaled(a))


def is_positive_definite(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Hermitian with smallest eigenvalue above ``tol.abs``."""
    a = as_cmatrix(a)
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return bool(w.min() > tol.abs)
