"""Dense complex matrix kernel.

Thin, tolerance-aware layer over LAPACK: the complex Schur form and its
reordering, SVD-based numerical rank, LU solves, and the matrix exponential.
Everything works on square ``complex128`` arrays of modest size (``N_MAX``
defaults to 64); matrices are treated as immutable values.

This is the only module that calls LAPACK.  ``zgees`` (Schur form),
``ztrsen`` (its reordering) and ``zgetrf``/``zgetrs`` (LU) come from scipy's
compiled ``_flapack`` extension, loaded by file path so that the
``scipy.linalg`` package, whose import was most of a CLI start-up, never
runs.  Singular values come from ``numpy.linalg``, and ``expm`` is Pade
scaling and squaring written in numpy.  Each kernel returns what the
corresponding ``scipy.linalg`` function returns, bit for bit on the inputs
the tests pin.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, Overflow, Singular


def _load_flapack():
    """scipy's LAPACK extension module, without running ``scipy/linalg/__init__``."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("pseudoherm needs scipy's LAPACK extension; scipy is not installed")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's LAPACK extension _flapack is missing from {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_lapack = _load_flapack()

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


def _no_sort(w):
    """``zgees`` selection callback; unused, since it is called with ``sort_t=0``."""
    return None


def schur(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``A = Z T Z^dag``: ``T`` upper triangular, ``Z`` unitary.

    LAPACK ``zgees`` with an optimal-workspace query first, as
    ``scipy.linalg.schur(a, output="complex")`` calls it.  The factorization
    residual ``||A - Z T Z^dag||`` is checked against the tolerance so a
    silent LAPACK failure cannot leak garbage downstream.
    """
    a = as_cmatrix(a)
    lwork = int(_lapack.zgees(_no_sort, a, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = _lapack.zgees(_no_sort, a, lwork=lwork, sort_t=0)
    if info != 0:
        raise NonConvergence(f"Schur form not found: zgees QR iteration failed (info={info})")
    resid = np.linalg.norm(a - z @ t @ z.conj().T)
    if resid > max(tol.scaled(a), 1e3 * np.finfo(float).eps * a.shape[0] * np.linalg.norm(a)):
        raise NonConvergence(f"Schur residual {resid:.3e} above tolerance")
    return t, z


def reorder_schur(t: np.ndarray, z: np.ndarray,
                  select: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Reorder a Schur form so the eigenvalues flagged in ``select`` lead
    (LAPACK ``ztrsen``, no condition estimates).  Returns ``(T', Z', m, info)``
    with ``m`` the number of eigenvalues moved; the caller judges ``info``."""
    t_re, z_re, _, m, _, _, info = _lapack.ztrsen(select, t, z, job="N")
    return t_re, z_re, m, info


def eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues with multiplicity: the diagonal of the Schur form."""
    return np.diag(schur(a, tol)[0]).copy()


def singular_values(a) -> np.ndarray:
    """Singular values, largest first."""
    return np.linalg.svd(as_cmatrix(a), compute_uv=False)


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
    """Solve ``A X = B`` by partial-pivoted LU (``zgetrf``/``zgetrs``);
    refuses near-singular A."""
    a = as_cmatrix(a)
    b = np.asarray(b, dtype=np.complex128)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    # an exactly zero pivot (zgetrf info > 0) fails the pivot check too
    lu, piv, _ = _lapack.zgetrf(a)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= tol.abs + tol.rel * max(pivots.max(), 1.0):
        raise Singular(f"pivot {pivots.min():.3e} below tolerance")
    return _lapack.zgetrs(lu, piv, b)[0]


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


#: Pade orders m = 3, 5, 7, 9 and the bound on ``||A^k||_1^(1/k)`` below which
#: each needs no scaling (Al-Mohy & Higham 2009, Table 3.1; 4.25 for m = 13)
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}

#: numerator coefficients b_0..b_m of the [m/m] Pade approximant of e^x
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}

#: u / |c_{2m+1}|: unit roundoff 2^-53 over the leading coefficient
#: c_{2m+1} = (m!)^2 / ((2m)! (2m+1)!) of the [m/m] Pade truncation error
_ELL_BOUND = {m: 2.0 ** -53 * c for m, c in (
    (3, 100800.0), (5, 10059033600.0), (7, 4487938430976000.0),
    (9, 5914384781877411840000.0), (13, 113250775606021113483283660800000000.0))}


def _plus_identity(x: np.ndarray, c: float) -> np.ndarray:
    """``x + c I``, in place."""
    x.flat[:: x.shape[0] + 1] += c
    return x


def _pade_ratio(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``r = (V - U)^(-1) (V + U) = I + 2 (V - U)^(-1) U``, the Pade approximant
    from its odd and even parts.  LU-factors ``(V - U)^T`` and solves with the
    transpose, the order in which ``scipy.linalg.expm``'s compiled kernel does it
    on row-major storage, so that the squaring phase starts from the same r."""
    lu, piv, info = _lapack.zgetrf((v - u).T, overwrite_a=1)
    if info != 0:
        raise Singular(f"Pade denominator exactly singular (zgetrf info={info})")
    x = _lapack.zgetrs(lu, piv, np.multiply(u, 2.0, order="F"), trans=1, overwrite_b=1)[0]
    # C order, as scipy returns it: the rounding of a later product with it
    # depends on the layout
    return _plus_identity(np.ascontiguousarray(x), 1.0)


def _pade_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(r_m(2^-s A), s)``: the order m in {3, 5, 7, 9, 13} and the scaling s
    chosen from ``d_k = ||A^k||_1^(1/k)`` and raised by ``ell``
    (Al-Mohy & Higham 2009, Algorithm 5.1).  The products and sums are
    ordered as in ``scipy.linalg.expm``'s compiled kernel."""
    ones = np.ones(a.shape[0])

    def norm1(x: np.ndarray) -> float:
        # column sums as one BLAS product: at small n a numpy reduction costs
        # more, and only the choice of m and s reads these norms
        return max(ones.dot(np.abs(x)).tolist())

    abs_a = np.abs(a)
    col_sums = ones.dot(abs_a)  # 1^T |A|
    norm_a = max(col_sums.tolist())
    # |A|^4, then 1^T |A|^p for p = 3, 7, 11, ...: each 2m + 1 is 3 (mod 4)
    chain = []

    def ell(m: int, h: float = 1.0) -> int:
        """Extra squarings that keep the order-m truncation term
        ``|c_{2m+1}| || |hA|^(2m+1) ||_1 / ||hA||_1`` at or below u (eq. (5.1))."""
        if (h * norm_a) ** (2 * m) <= _ELL_BOUND[m]:  # || |A|^p ||_1 <= ||A||_1^p
            return 0
        if not chain:
            abs2 = abs_a.dot(abs_a)
            chain.extend((abs2.dot(abs2), col_sums.dot(abs2)))
        k = (m + 1) // 2  # chain[k] holds p = 4k - 1 = 2m + 1
        while len(chain) <= k:
            chain.append(chain[-1].dot(chain[0]))
        alpha = h ** (2 * m) * max(chain[k].tolist()) / (norm_a * _ELL_BOUND[m])
        return math.ceil(math.log2(alpha) / (2 * m)) if alpha > 1.0 else 0

    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    d6 = norm1(a6) ** (1 / 6)
    eta = max(norm1(a4) ** 0.25, d6)
    if eta < _THETA[3] and ell(3) == 0:
        b = _PADE[3]
        u = a @ (b[3] * a2) + b[1] * a
        return _pade_ratio(u, _plus_identity(b[2] * a2, b[0])), 0
    if eta < _THETA[5] and ell(5) == 0:
        b = _PADE[5]
        u = a @ _plus_identity(b[5] * a4 + b[3] * a2, b[1])
        return _pade_ratio(u, _plus_identity(b[4] * a4 + b[2] * a2, b[0])), 0
    a8 = a4 @ a4
    d8 = norm1(a8) ** 0.125
    eta = max(d6, d8)
    if eta < _THETA[7] and ell(7) == 0:
        b = _PADE[7]
        u = a @ _plus_identity(b[7] * a6 + b[5] * a4 + b[3] * a2, b[1])
        return _pade_ratio(u, _plus_identity(b[6] * a6 + b[4] * a4 + b[2] * a2, b[0])), 0
    if eta < _THETA[9] and ell(9) == 0:
        b = _PADE[9]
        u = a @ _plus_identity(b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2, b[1])
        v = _plus_identity(b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2, b[0])
        return _pade_ratio(u, v), 0

    if d6 > d8:  # else min(eta, max(d8, d10)) is eta, whatever d10 is
        eta = min(eta, max(d8, norm1(a4 @ a6) ** 0.1))
    s = math.ceil(math.log2(eta / _THETA[13])) if eta > _THETA[13] else 0
    s += ell(13, 2.0 ** -s)
    if s:
        h = 2.0 ** -s
        a, a2, a4, a6 = a * h, a2 * h ** 2, a4 * h ** 4, a6 * h ** 6
    b = _PADE[13]
    u = a @ (_plus_identity(b[7] * a6 + b[5] * a4 + b[3] * a2, b[1])
             + a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2))
    v = (_plus_identity(b[6] * a6 + b[4] * a4 + b[2] * a2, b[0])
         + a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2))
    return _pade_ratio(u, v), s


def _exp_divided_difference(x: np.ndarray) -> np.ndarray:
    """``(e^x[k+1] - e^x[k]) / (x[k+1] - x[k])``, and ``e^x[k]`` where the two
    are equal (Higham, Functions of Matrices (2008), eq. (10.42))."""
    ex = np.exp(x)
    dx = np.diff(x)
    same = dx == 0
    return np.where(same, ex[:-1], np.diff(ex) / np.where(same, 1.0, dx))


def _square_triangular(r: np.ndarray, a: np.ndarray, s: int, k: int) -> np.ndarray:
    """Squaring phase for triangular A (Al-Mohy & Higham 2009, Code Fragment
    2.1): after each squaring the diagonal and the first superdiagonal
    (``k = 1``) or subdiagonal (``k = -1``) are set from A directly."""
    d = np.diagonal(a)
    sd = np.diagonal(a, k)
    np.fill_diagonal(r, np.exp(d * 2.0 ** -s))
    for i in range(s - 1, -1, -1):
        r = r @ r
        h = 2.0 ** -i
        np.fill_diagonal(r, np.exp(d * h))
        np.fill_diagonal(r[:-1, 1:] if k == 1 else r[1:, :-1],
                         _exp_divided_difference(d * h) * (sd * h))
    return r


def expm(a) -> np.ndarray:
    """Matrix exponential by Pade scaling and squaring in numpy.

    Higham's algorithm (SIAM J. Matrix Anal. Appl. 26 (2005)) in the form of
    Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31 (2009)), which
    ``scipy.linalg.expm`` also follows and whose results this reproduces:
    ``_pade_scaled`` picks the order and the scaling, with the correction
    ``ell`` against the truncation error of nonnormal A.  A diagonal A
    is exponentiated entrywise, and a triangular A keeps its diagonal and
    first off-diagonal exact through the squarings.  ``A`` is refused with
    ``Overflow`` past ``EXPM_NORM_BOUND`` (``check_expm_bound``).
    """
    a = check_expm_bound(a)
    nnz = np.count_nonzero(a)
    if nnz == np.count_nonzero(a.diagonal()):
        return np.diag(np.exp(a.diagonal()))
    # nonzeros below / above the diagonal; a nonzero corner settles either
    below = a[-1, 0] != 0 or np.count_nonzero(np.triu(a)) < nnz
    above = a[0, -1] != 0 or np.count_nonzero(np.tril(a)) < nnz
    r, s = _pade_scaled(a)
    if below and above:
        for _ in range(s):
            r = r @ r
        return r
    k = 1 if above else -1  # upper or lower triangular
    if s:
        r = _square_triangular(r, a, s, k)
    return np.triu(r) if k == 1 else np.tril(r)


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
