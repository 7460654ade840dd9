"""Indefinite-metric (Krein) structure and the fourfold symmetry taxonomy.

A Hermitian invertible metric splits the space into its positive and negative
spectral subspaces and defines the indefinite product ``<psi| eta |phi>``.
Whether a matrix is one is decided by ``linalg._metric_decision``, which
refuses a non-Hermitian metric with ``NonHermitianMetric`` and returns
``||eta - eta^dag||_F``, ``||eta||_F``, bounds on min|w| and max|w|, w the
eigenvalues of eta's Hermitian part, and the signature.  A P or P+ that
``operators`` built is decided once, from its chain-basis K with no
eigensolve where K proves it a metric, and its record keeps the decision,
so the reports of one op against its P decide P once; a user's metric, and
one K does not prove, by one n x n ``eigvalsh`` per call, which refuses one
with an eigenvalue within ``tol.scaled(metric)`` of zero with
``SingularMetric``.  No report reads w.
The invertibility of a classified operator M is certified instead of
decomposed: Weyl's inequality for singular values gives ``sigma_min(M) >=
(min|w| - d - r) / (||M||_F (max|w| + d))``, d = ``||eta - eta^dag||_F / 2``
and r the smallest class residual, which the decision's bounds on min|w| and
max|w| keep true, and the SVD rank test runs only when this bound is not
above twice the rank cut.

Congruence by the chain basis S turns any generalized parity into the
involutory Hermitian canonical metric K = S^dag P S (formed as G^dag K G, G =
Phi^dag S the computed Gram matrix), whose ±1 projectors realize the splitting.

``check_battery`` is the invariant battery that ``pseudoherm check`` reports.
``pseudounitary_symmetries_exist`` decides whether metric-reversing
symmetries exist and builds none (``operators.build_reflecting`` does).

Invertible operators fall into four classes relative to a metric P:

    linear      U:      U^dag P U = +P   (unitary)      | -P (pseudounitary)
    antilinear  M o K:  M^dag P M = +P^T (antiunitary)  | -P^T (pseudoantiunitary)

The antilinear conditions are the matrix form of "preserves the indefinite
product up to complex conjugation (and sign)".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, operators, spectral
from .errors import (DimensionMismatch, NotAntiunitary, Overflow, SingularOperator,
                     ZeroLeadingCoefficient)
from .linalg import DEFAULT_TOL, Tolerance, _fro
from .operators import SymmetryOperator, antilinear_compose
from .spectral import SpectralDecomposition


@dataclass(frozen=True)
class KreinSpace:
    """± spectral projectors and signature of a metric."""

    plus_projector: np.ndarray
    minus_projector: np.ndarray
    signature: tuple[int, int]


@dataclass(frozen=True)
class CongruenceResult:
    """Chain-basis congruence: the metric becomes involutory Hermitian."""

    s: np.ndarray
    p_tilde: np.ndarray
    c_tilde: np.ndarray
    t_tilde: SymmetryOperator
    pi_plus: np.ndarray
    pi_minus: np.ndarray

    @property
    def trace(self) -> float:
        return float(np.trace(self.p_tilde).real)


class SymmetryClass(enum.Enum):
    P_UNITARY = "PUnitary"
    P_ANTIUNITARY = "PAntiunitary"
    P_PSEUDOUNITARY = "PPseudounitary"
    P_PSEUDOANTIUNITARY = "PPseudoantiunitary"
    NONE = "None"


@dataclass(frozen=True)
class ClassificationResult:
    symmetry_class: SymmetryClass
    residuals: dict
    threshold: float
    antilinear: bool
    signature: tuple[int, int]  # (positive, negative) metric eigenvalue counts


@dataclass(frozen=True)
class PseudounitaryExistence:
    """The decision alone: no operator is built.  ``violations`` lists the
    offending (eigenvalue, block_dims)."""

    exists: bool
    canonical_trace: float
    violations: list


def krein_inner(psi, phi, metric) -> complex:
    """Indefinite inner product ``<psi| metric |phi>`` (conjugate-linear in
    the first argument)."""
    metric = linalg.as_cmatrix(metric)
    psi = linalg.as_vector(psi, metric.shape[0])
    phi = linalg.as_vector(phi, metric.shape[0])
    return complex(psi.conj() @ metric @ phi)


def build_krein_space(metric, tol: Tolerance = DEFAULT_TOL) -> KreinSpace:
    """Spectral splitting of a Hermitian invertible metric (refused by the
    rule of ``linalg.metric_eigenvalues``), from one ``eigh``."""
    (w, v), _, _ = linalg._metric_solve(metric, tol, vectors=True)
    pos = v[:, w > 0]
    neg = v[:, w < 0]
    return KreinSpace(
        plus_projector=pos @ pos.conj().T,
        minus_projector=neg @ neg.conj().T,
        signature=(pos.shape[1], neg.shape[1]),
    )


def congruence_to_involutory(dec: SpectralDecomposition,
                             sigma="canonical") -> CongruenceResult:
    """Transform to the chain basis ``s = Psi``, where the generalized parity
    becomes the signed block-reversal matrix K (involutory and Hermitian).

    ``S^dag P S``, ``S^-1 C S`` and ``S^-1 T transpose(S^-1)`` (T's matrix part
    stays symmetric) are formed as ``G^dag K G``, ``G K G`` and ``G K G^T``, K
    each builder's coefficients and G = Phi^dag S the computed Gram matrix.
    """
    signs = operators._sign_array(dec, sigma)
    g = dec.phi_dag @ dec.psi
    p_tilde = operators._chain_product(dec, "P", g.conj().T, g, signs)
    eye = np.eye(dec.n)
    return CongruenceResult(
        s=dec.psi,
        p_tilde=p_tilde,
        c_tilde=operators._chain_product(dec, "C", g, g, signs),
        t_tilde=SymmetryOperator(operators._chain_product(
            dec, "T", g, g.T, np.ones(dec.chain_dim.size)), antilinear=True),
        pi_plus=0.5 * (eye + p_tilde),
        pi_minus=0.5 * (eye - p_tilde),
    )


def classification_report(op, metric, tol: Tolerance = DEFAULT_TOL) -> ClassificationResult:
    """Residuals of the four class conditions; a class is assigned only when
    its residual is below tolerance and the runner-up is at least ten times
    larger (otherwise NONE, with the residuals reported).  The operator must
    be invertible; its rank is tested only when the residuals cannot prove
    that (see the module docstring).  The metric is decided by
    ``linalg._metric_decision``: a P or P+ that ``operators`` built once,
    from its K with no eigensolve where K proves it a metric, so the reports
    of one op against its P decide P once; any other metric by one n x n
    ``eigvalsh`` per call.  ``Overflow`` when the Gram product, a residual
    or the threshold is not finite."""
    sym = SymmetryOperator.of(op)
    metric = linalg.as_cmatrix(metric)
    m = sym.matrix
    if m.shape != metric.shape:
        raise DimensionMismatch(f"operator is {m.shape} but the metric is {metric.shape}")
    rule = linalg._metric_decision(metric, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        gram = m.conj().T @ metric @ m
        residuals = {
            SymmetryClass.P_UNITARY: _fro(gram - metric),
            SymmetryClass.P_PSEUDOUNITARY: _fro(gram + metric),
            SymmetryClass.P_ANTIUNITARY: _fro(gram - metric.T),
            SymmetryClass.P_PSEUDOANTIUNITARY: _fro(gram + metric.T),
        }
    mu, gram_norm = _fro(m), _fro(gram)
    thr = tol.from_norms(m.shape[0], rule.norm, mu, gram_norm)  # tol.scaled(metric, m, gram)
    if not all(map(math.isfinite, (gram_norm, thr, *residuals.values()))):
        raise Overflow("the Gram product M^dag P M of the operator M and the metric P "
                       "overflows the float range")
    d = 0.5 * rule.defect
    bound = rule.abs_min - d - min(residuals.values())
    cut = tol.abs + tol.rel * mu  # at least the rank cut, as sigma_max <= mu
    proven = mu > 0 and bound > 2.0 * cut * mu * (rule.abs_max + d)
    if not proven and linalg.rank(m, tol) < m.shape[0]:
        raise SingularOperator("operator is singular at tolerance; classification "
                               "is defined for invertible operators only")
    if sym.antilinear:
        eligible = [SymmetryClass.P_ANTIUNITARY, SymmetryClass.P_PSEUDOANTIUNITARY]
    else:
        eligible = [SymmetryClass.P_UNITARY, SymmetryClass.P_PSEUDOUNITARY]
    ranked = sorted(eligible, key=lambda k: residuals[k])
    best, runner = ranked[0], ranked[1]
    cls = SymmetryClass.NONE
    if residuals[best] <= thr and residuals[runner] >= 10.0 * thr:
        cls = best
    return ClassificationResult(symmetry_class=cls,
                                residuals={k.value: v for k, v in residuals.items()},
                                threshold=thr, antilinear=sym.antilinear,
                                signature=rule.signature)


def classify(op, metric, tol: Tolerance = DEFAULT_TOL) -> SymmetryClass:
    return classification_report(op, metric, tol).symmetry_class


def factor_antiunitary(v: SymmetryOperator, dec: SpectralDecomposition, sigma, metric,
                       sigma_prime, tol: Tolerance = DEFAULT_TOL):
    """Split a metric-antiunitary V into involutory-antilinear times linear:
    ``V = (CTP) U = (TP) U'`` with U, U' metric-unitary.  Since CTP and TP
    are involutions, ``U = (CTP) o V`` and ``U' = (TP) o V``."""
    if classify(v, metric, tol) is not SymmetryClass.P_ANTIUNITARY:
        raise NotAntiunitary("operator is not metric-antiunitary; no such factorization")
    ctp = operators.build_ctp(dec, sigma, sigma_prime)
    tp = operators.build_tp(dec, sigma_prime)
    u = antilinear_compose(ctp, v)
    u_prime = antilinear_compose(tp, v)
    return u.matrix, u_prime.matrix


def commutant_element(dec: SpectralDecomposition, params) -> np.ndarray:
    """Element of the commutant of H from per-block Toeplitz coefficients.

    ``params`` lists, for each Jordan chain in storage order, a coefficient
    sequence ``(c_0, ..., c_{p-1})``; the block contribution is
    ``sum_k c_k sum_i |psi_i><phi_{i+k}|``, so the element is Psi K Phi^dag
    with K block diagonal, one upper-triangular Toeplitz block per chain.
    The leading coefficient of every block must be nonzero so the result is
    invertible.  Cross-block mixing is not generated.
    """
    blocks = list(zip(dec.chain_start.tolist(), dec.chain_dim.tolist()))
    if len(params) != len(blocks):
        raise ValueError(f"expected {len(blocks)} coefficient lists, got {len(params)}")
    k = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for (pos, dim), coeffs in zip(blocks, params):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        if coeffs.shape[0] != dim:
            raise ValueError(
                f"coefficient list of length {coeffs.shape[0]} for a block of dim {dim}")
        if coeffs[0] == 0:
            raise ZeroLeadingCoefficient(
                "leading Toeplitz coefficient is zero; the element would be singular")
        lag = np.arange(dim)[None, :] - np.arange(dim)[:, None]  # column - row
        k[pos:pos + dim, pos:pos + dim] = np.where(lag >= 0, coeffs[lag], 0)
    return dec.psi @ k @ dec.phi_dag


def pseudounitary_symmetries_exist(dec: SpectralDecomposition) -> PseudounitaryExistence:
    """Metric-reversing (pseudounitary/pseudoantiunitary) symmetries exist
    exactly when the complex spectrum pairs and every real eigenvalue's
    Jordan blocks occur in identical pairs.  Paired blocks hold an even
    number of odd-dimensional real chains, so the canonical involutory
    metric is then traceless."""
    # congruence by the psi chains turns the canonical parity into its K
    src, sign = operators._coefficients(dec, "P", dec.canonical_signs)
    trace = float(sign[src == np.arange(dec.n)].sum())
    violations = list(dec.unpaired or dec.real_block_halves[1])
    return PseudounitaryExistence(exists=not violations, canonical_trace=trace,
                                  violations=violations)


def check_battery(h, dec: SpectralDecomposition, sigma="canonical",
                  tol: Tolerance = DEFAULT_TOL) -> list[dict]:
    """The invariant battery of ``pseudoherm check`` on ``dec = analyze(h)``:
    one ``{"check", "pass", "residual"}`` row per claim, a residual passing at
    ``tol.scaled(h)``.  An unpaired complex eigenvalue ends it at a failing
    "conjugate pairing" row; the existence rows pass with a boolean residual."""
    h = linalg.as_cmatrix(h)
    thr = tol.scaled(h)
    rows = []

    def row(name, residual):
        rows.append({"check": name, "pass": bool(residual <= thr),
                     "residual": float(residual)})

    rep = spectral.check_biorthonormal(dec)
    row("biorthonormality", rep.gram_residual)
    row("completeness", rep.completeness_residual)
    row("reconstruction", _fro(spectral.reconstruct(dec) - h))
    if dec.unpaired:
        rows.append({"check": "conjugate pairing", "pass": False,
                     "residual": "NotPaired: unpaired complex eigenvalues"})
        return rows
    rows.append({"check": "conjugate pairing", "pass": True, "residual": 0.0})

    p = operators.build_parity(dec, sigma)
    c = operators.build_charge(dec, sigma)
    tp = operators.build_tp(dec, sigma)
    ctp = operators.build_ctp(dec, sigma, sigma)
    eye = np.eye(dec.n)
    row("pseudo-Hermiticity P H P^-1 = H^dag", spectral._pseudo_hermiticity_residual(
        h, p, *linalg.hermitian_eigh(p)))
    row("C^2 = 1", _fro(c @ c - eye))
    row("[C, H] = 0", _fro(c @ h - h @ c))
    row("(TP)^2 = 1", _fro(tp.square() - eye))
    row("(CTP)^2 = 1", _fro(ctp.square() - eye))
    row("[TP, H] = 0", _fro(tp.matrix @ np.conj(h) - h @ tp.matrix))
    row("[C, TP] = 0", _fro(c @ tp.matrix - tp.matrix @ np.conj(c)))
    cong = congruence_to_involutory(dec, sigma)
    row("congruent metric involutory", _fro(cong.p_tilde @ cong.p_tilde - eye))
    trace = cong.trace
    canonical = np.array_equal(operators._sign_array(dec, sigma), dec.canonical_signs)
    rows.append({"check": "canonical trace in {0, 1}",
                 "pass": not canonical or (abs(trace - round(trace)) <= 1e-6
                                           and round(trace) in (0, 1)),
                 "residual": trace})
    rows.append({"check": "positive metric exists (diagonalizable real spectrum)",
                 "pass": True, "residual": not operators.positive_metric_violations(dec)})
    rows.append({"check": "metric-reversing symmetries exist (paired blocks)",
                 "pass": True, "residual": pseudounitary_symmetries_exist(dec).exists})
    return rows
