"""Dense complex matrix kernel.

Thin, tolerance-aware layer over LAPACK: the complex Schur form and its
reordering (unchecked; ``spectral.analyze`` refuses what fails to reconstruct
H), SVD-based numerical rank, LU solves, the matrix exponential, ``_fro``,
the Frobenius norm that every residual and threshold of the package is
measured by, ``hermitian_eigh``, the package's one eigendecomposition, and
``_metric_decision``, the one rule by which every entry point decides
whether a matrix is a Hermitian invertible metric.  A metric that
``operators`` built, P = Phi K Phi^dag with K a signed permutation of the
chains, is a read-only ``ChainMetric`` carrying its chain form
(``ChainForm``), which keeps the decisions made on it; it is decided once
per tolerance, from K with no eigensolve wherever K proves it a metric.
Any other, a user's metric or an array derived from a built one, is
decided by the n x n rule of ``metric_eigenvalues``, one ``eigvalsh``, on
every call.  The verdict is the n x n rule's either way.
Everything works on square ``complex128`` arrays of modest size (``N_MAX``
defaults to 64); matrices are treated as immutable values.

This is the only module that calls compiled scipy code.  ``zgees`` (Schur
form), ``ztrsen`` (its reordering) and ``zgetrf``/``zgetrs`` (LU) come from
scipy's ``_flapack`` extension, and the Pade step of ``expm`` from its
``_matfuncs_expm`` extension.  Both are loaded by file path so that the
``scipy.linalg`` package, whose import was most of a CLI start-up, never
runs.  Singular values come from ``numpy.linalg``.  Each kernel returns what
the corresponding ``scipy.linalg`` function returns, bit for bit on the
inputs the tests pin.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonConvergence, NonHermitianMetric, Overflow,
                     Singular, SingularMetric)


def _load_extension(name: str):
    """The compiled module ``scipy/linalg/<name>*.so``, without running
    ``scipy/linalg/__init__``."""
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError(f"pseudoherm needs scipy's compiled {name} extension; "
                          "scipy is not installed")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's compiled extension {name} is missing from {folder}")
    spec = importlib.util.spec_from_file_location(qualname, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualname] = module
    return module


_lapack = _load_extension("_flapack")
_expm_kernel = _load_extension("_matfuncs_expm")

N_MAX = 64

#: norm bound above which expm refuses (guards against overflow in squaring)
EXPM_NORM_BOUND = 1.0e3


def _fro(a) -> float:
    """``||A||_F`` (a vector's 2-norm), what ``np.linalg.norm(a)`` gives
    without an axis, as one BLAS dot over A in its memory order: a
    transposed operand is not copied.  inf where an entry is infinite or the
    sum overflows, NaN where an entry is NaN."""
    r = np.asarray(a).ravel(order="K")
    x = math.sqrt(np.vdot(r, r).real)
    if x != x:  # zdotc's cross terms turn an infinite or overflowing entry into NaN too
        return math.nan if np.isnan(r).any() else math.inf
    return x


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by every numerical decision."""

    abs: float = 1e-10
    rel: float = 1e-10

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be non-negative")
        if not np.isfinite([self.abs, self.rel]).all():
            raise ValueError("tolerances must be finite")
        if self.abs == 0 and self.rel == 0:
            raise ValueError("abs and rel tolerance cannot both be zero")

    def scaled(self, *mats: np.ndarray) -> float:
        """Threshold ``abs + rel * n * max ||A||_F`` over the operands."""
        return self.from_norms(max((m.shape[0] for m in mats), default=1),
                               *map(_fro, mats))

    def from_norms(self, n: int, *norms: float) -> float:
        """``scaled`` of operands of size n, from their Frobenius norms."""
        return self.abs + self.rel * n * max(norms, default=0.0)


DEFAULT_TOL = Tolerance()


def as_cmatrix(a) -> np.ndarray:
    """Validate and convert to a square finite complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatch("empty matrix")
    if m.shape[0] > N_MAX:
        raise DimensionMismatch(f"dimension {m.shape[0]} exceeds configured bound {N_MAX}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_vector(v, n: int | None = None) -> np.ndarray:
    w = np.asarray(v, dtype=np.complex128).reshape(-1)
    if n is not None and w.shape[0] != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {w.shape[0]}")
    if not np.isfinite(w).all():
        raise ValueError("vector has non-finite entries")
    return w


def _no_sort(_w):
    """``zgees`` selection callback; unused, since ``sort_t`` defaults to 0."""
    return None


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``A = Z T Z^dag``: ``T`` upper triangular, ``Z`` unitary.

    One LAPACK ``zgees`` call, no workspace query: at n <= ``N_MAX`` = 64 the
    Hessenberg reduction (ZGEHRD crossover 128) and the QR iteration (ZHSEQR
    small-matrix limit 75) take unblocked paths, so the workspace cannot change
    T or Z.  A failed QR iteration is ``NonConvergence``.  The factors are not
    checked: ``spectral.analyze``'s reconstruction refusal is their check.
    """
    t, _, _, z, _, info = _lapack.zgees(_no_sort, as_cmatrix(a))
    if info != 0:
        raise NonConvergence(f"Schur form not found: zgees QR iteration failed (info={info})")
    return t, z


def reorder_schur(t: np.ndarray, z: np.ndarray,
                  select: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Reorder a Schur form so the eigenvalues flagged in ``select`` lead
    (LAPACK ``ztrsen``, no condition estimates).  Returns ``(T', Z', m, info)``
    with ``m`` the number of eigenvalues moved; the caller judges ``info``."""
    t_re, z_re, _, m, _, _, info = _lapack.ztrsen(select, t, z, job="N")
    return t_re, z_re, m, info


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues with multiplicity: the diagonal of the (unchecked) Schur form."""
    return np.diag(schur(a)[0]).copy()


def singular_values(a) -> np.ndarray:
    """Singular values, largest first."""
    return np.linalg.svd(as_cmatrix(a), compute_uv=False)


def rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol.abs + tol.rel * s_max``."""
    s = singular_values(a)
    return int(np.count_nonzero(s > tol.abs + tol.rel * s[0]))


def solve(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve ``A X = B`` by partial-pivoted LU (``zgetrf``/``zgetrs``);
    refuses near-singular A."""
    a = as_cmatrix(a)
    b = np.asarray(b, dtype=np.complex128)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has non-finite entries")
    # an exactly zero pivot (zgetrf info > 0) fails the pivot check too
    lu, piv, _ = _lapack.zgetrf(a)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= tol.abs + tol.rel * max(pivots.max(), 1.0):
        raise Singular(f"pivot {pivots.min():.3e} below tolerance")
    return _lapack.zgetrs(lu, piv, b)[0]


def inv(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    return solve(a, np.eye(a.shape[0], dtype=np.complex128), tol)


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
    """Matrix exponential by Pade scaling and squaring: the Al-Mohy & Higham
    algorithm (SIAM J. Matrix Anal. Appl. 31 (2009)) as ``scipy.linalg.expm``
    runs it.  scipy's compiled kernel, loaded by file path, picks the order
    and the scaling s (``pick_pade_structure``) and evaluates the approximant
    of ``2^-s A`` (``pade_UV_calc``); the squarings around it are scipy's
    Python steps.  A diagonal A is exponentiated entrywise, and a triangular
    A keeps its diagonal and first off-diagonal exact through the squarings.
    ``A`` is refused with ``Overflow`` when ``||A||_F`` passes
    ``EXPM_NORM_BOUND``.
    """
    a = as_cmatrix(a)
    norm = _fro(a)
    if norm > EXPM_NORM_BOUND:
        raise Overflow(f"||A|| = {norm:.3e} exceeds expm bound {EXPM_NORM_BOUND:.0e}")
    nnz = np.count_nonzero(a)
    if nnz == np.count_nonzero(a.diagonal()):
        return np.diag(np.exp(a.diagonal()))
    # nonzeros below / above the diagonal; a nonzero corner settles either
    below = a[-1, 0] != 0 or np.count_nonzero(np.triu(a)) < nnz
    above = a[0, -1] != 0 or np.count_nonzero(np.tril(a)) < nnz
    # the kernel works in place on A and four n x n scratch slices
    work = np.empty((5, *a.shape), dtype=np.complex128)
    work[0] = a
    m, s = _expm_kernel.pick_pade_structure(work)
    if m < 0:
        raise Singular(f"Pade order not chosen (pick_pade_structure code {m})")
    info = _expm_kernel.pade_UV_calc(work, m)
    if info != 0:
        raise Singular(f"Pade approximant not computed (pade_UV_calc code {info})")
    # a copy, so that the result does not keep all five slices alive
    r = work[0].copy()
    if below and above:
        for _ in range(s):
            r = r @ r
        return r
    k = 1 if above else -1  # upper or lower triangular
    if s:
        r = _square_triangular(r, a, s, k)
    return np.triu(r) if k == 1 else np.tril(r)


def hermitian_defect(a: np.ndarray) -> float:
    """``||A - A^dag||_F``, the distance that decides whether A is Hermitian."""
    return _fro(a - a.conj().T)


def metric_eigenvalues(metric, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian invertible metric, ascending: the n x n
    rule by which a matrix is a metric, one ``eigvalsh`` of its Hermitian
    part.  Raises ``NonHermitianMetric`` unless it is Hermitian at ``tol``,
    and ``SingularMetric`` when an eigenvalue of its Hermitian part lies
    within ``tol.scaled(metric)`` of zero.  Nothing is kept."""
    return _metric_solve(as_cmatrix(metric), tol)[0]


def hermitian_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(w, V)``, ``V diag(w) V^dag`` the Hermitian part ``(A + A^dag) / 2``
    of A, w ascending: one n x n ``eigh``."""
    return np.linalg.eigh(0.5 * (a + a.conj().T))


@dataclass(frozen=True)
class MetricDecision:
    """A metric the rule of ``_metric_decision`` accepted, with what the rule
    measured: ``defect`` = ||metric - metric^dag||_F and ``norm`` =
    ||metric||_F, and what a classification reads of the eigenvalues w of
    its Hermitian part: ``abs_min`` <= min|w| and ``abs_max`` >= max|w|
    (equal to them where an ``eigvalsh`` decided the metric), and
    ``signature``, the numbers of positive and of negative w."""

    defect: float
    norm: float
    abs_min: float
    abs_max: float
    signature: tuple[int, int]


#: eps, the unit of the rounding margin of a chain-basis product A K B^dag:
#: the bound sqrt(2) gamma_{n+2} ||A||_F ||B||_F of its complex dot products
#: of length n (Higham, Accuracy and Stability of Numerical Algorithms
#: (2002), Lemma 3.5) is below (n + 2) eps ||A||_F ||B||_F, which also
#: covers the rounding of the Frobenius norm taken of it
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ChainForm:
    """How ``operators`` built a metric Phi K Phi^dag: over the chain basis
    of ``dec``, K the signed permutation of the column gather ``gather =
    (src, sign)`` (``operators._coefficients``; None for K = I), and the
    decisions ``_metric_decision`` made on it, by tolerance."""

    dec: object
    gather: tuple | None
    decisions: dict


class ChainMetric(np.ndarray):
    """A metric as ``operators`` built it: read-only, with its chain form
    ``form``.  Only the built array carries one.  An array derived from it
    (a copy, a slice, a transpose, an arithmetic result, ``np.asarray`` of
    it, or one unpickled) has ``form`` None, and a write into it raises, so
    a form always describes the very array that carries it."""

    form = None


def _chain_metric(metric: np.ndarray, dec, gather) -> ChainMetric:
    """``metric``, built as Phi K Phi^dag over the chain basis of ``dec``
    with the K of ``gather`` (``ChainForm``), made read-only and carrying
    its chain form."""
    metric.flags.writeable = False
    built = metric.view(ChainMetric)
    built.form = ChainForm(dec, gather, {})
    return built


def _chain_form(metric) -> ChainForm | None:
    """The chain form ``metric`` carries, None for any matrix but a metric
    handed in as ``operators`` built it."""
    return metric.form if isinstance(metric, ChainMetric) else None


def _metric_decision(metric: np.ndarray, tol: Tolerance,
                     form: ChainForm | None) -> MetricDecision:
    """The rule by which a matrix that ``as_cmatrix`` accepted is a metric,
    and what it measured; ``form`` is the chain form read off the argument
    it was converted from (``_chain_form``).  A metric that ``operators``
    built is decided from its K where that proves it a metric
    (``_chain_decision``); any other, and one that K does not prove, by the
    n x n rule of ``metric_eigenvalues``, one ``eigvalsh``.  The verdict is
    the n x n rule's either way.  A decision on a built metric is kept in
    its form, one per tolerance, so that an op classifying several
    operators against its P and evolving under it
    (``spectral._pseudo_hermiticity``, the evolution gate) decides P once;
    nothing else is kept, so no decision depends on a metric decided
    before.  A refusal is not kept."""
    decisions = {} if form is None else form.decisions
    if tol not in decisions:
        decision = None if form is None else _chain_decision(metric, form, tol)
        if decision is None:
            w, defect, norm = _metric_solve(metric, tol)
            size = np.abs(w)
            decision = MetricDecision(defect, norm, float(size.min()), float(size.max()),
                                      (int(np.count_nonzero(w > 0)), int(np.count_nonzero(w < 0))))
        decisions[tol] = decision
    return decisions[tol]


def _chain_decision(metric: np.ndarray, form: ChainForm,
                    tol: Tolerance) -> MetricDecision | None:
    """The decision on a built metric P = Phi K Phi^dag of chain form
    ``form``, with no eigensolve; None where the bound on min|w| below does
    not clear the n x n rule's threshold ``tol.scaled(P)``, which the n x n
    rule then decides, so that both accept the same metrics.  Hermiticity is judged as by the n x n rule
    (``NonHermitianMetric``).  By Sylvester's law of inertia P's signature
    is K's, ((n + tr K) / 2, (n - tr K) / 2).  P^-1 = Psi K Psi^dag is one
    gather and one product, and the eigenvalues w of P satisfy min|w| =
    1 / ||P^-1||_2 >= 1 / ||P^-1||_F and max|w| = ||P||_2 <= ||P||_F.  The
    rounding of P's formation moves the eigenvalues of the built P's
    Hermitian part by at most delta = (n + 2) eps ||Phi||_F^2 (``_EPS``),
    which ``abs_min`` subtracts and ``abs_max`` adds; the product Psi K
    Psi^dag's own rounding, (n + 2) eps ||Psi||_F^2, is added to its norm.
    The margin does not cover the decomposition's own error in Phi^dag =
    Psi^-1, which holds to the rounding of its S^-1 (relative error about
    cond(S) eps): ``abs_min`` bounds min|w| only up to it, and as it must
    clear the threshold, that error can matter only for a metric whose
    min|w| lies right at it."""
    thr, defect, norm = _hermitian_threshold(metric, tol)
    n, psi, k = metric.shape[0], form.dec.psi, form.gather
    unit = (n + 2) * _EPS
    phi_norm, psi_norm = _fro(form.dec.phi), _fro(psi)
    delta = unit * phi_norm * phi_norm
    inverse = (psi if k is None else psi[:, k[0]] * k[1]) @ psi.conj().T
    abs_min = 1.0 / (_fro(inverse) + unit * psi_norm * psi_norm) - delta
    if not abs_min > thr:
        return None
    trace = n if k is None else int(k[1][k[0] == np.arange(n)].sum())
    return MetricDecision(defect, norm, abs_min, norm + delta,
                          ((n + trace) // 2, (n - trace) // 2))


def _hermitian_threshold(metric: np.ndarray, tol: Tolerance) -> tuple[float, float, float]:
    """``(tol.scaled(metric), ||metric - metric^dag||_F, ||metric||_F)``; the
    threshold is that of both halves of the rule of ``metric_eigenvalues``,
    returned once ``metric`` passes its first half: raises
    ``NonHermitianMetric`` unless ``||metric - metric^dag||_F`` is within it.
    Where either norm overflows, both are taken again after an exact power
    of two that brings the metric's largest part into [1/2, 2), and scaled
    back as Python floats: a norm is inf, with no warning, only past the
    float range."""
    norm, defect = _fro(metric), hermitian_defect(metric)
    if math.inf in (norm, defect):
        big = float(np.abs(np.ascontiguousarray(metric).view(np.float64)).max())
        exp = min(math.frexp(big)[1], 1023)
        scaled = metric * 2.0 ** -exp
        norm, defect = _fro(scaled) * 2.0 ** exp, hermitian_defect(scaled) * 2.0 ** exp
    thr = tol.from_norms(metric.shape[0], norm)
    if not defect <= thr:
        raise NonHermitianMetric("metric is not Hermitian at tolerance")
    return thr, defect, norm


def _metric_solve(metric, tol: Tolerance, vectors: bool = False):
    """``(out, ||metric - metric^dag||_F, ||metric||_F)`` under the n x n
    rule of ``metric_eigenvalues`` for a ``metric`` that ``as_cmatrix``
    accepted: ``out`` the eigenvalues of the Hermitian part of ``metric``
    (``eigvalsh``), or with ``vectors`` its ``hermitian_eigh``."""
    thr, defect, norm = _hermitian_threshold(metric, tol)
    out = hermitian_eigh(metric) if vectors else np.linalg.eigvalsh(
        0.5 * (metric + metric.conj().T))
    w = out[0] if vectors else out
    nearest = w[np.abs(w).argmin()]
    if abs(nearest) <= thr:
        raise SingularMetric(f"metric eigenvalue {nearest:.3e} within tolerance of zero")
    return out, defect, norm
