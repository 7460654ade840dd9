"""Generalized parity, charge-conjugation and time-reversal families.

Every operator is a signed sum of dyads over the biorthonormal chains of a
``SpectralDecomposition``, so it is assembled as one product
``left @ K @ right`` of the chain matrices Psi, Phi (vectors as columns) and
a signed permutation K of the chains, built for every kind by one rule
(``_coefficients``): each chain maps to itself or to its partner, with or
without index reversal, times a sign.  The builders multiply ``dec.psi``,
``dec.phi`` and ``dec.phi_dag`` directly: Phi K Phi^dag for the metrics (P,
P+ and the paired parity), Psi K Phi^dag for C and R, Psi K Phi^T for TP, CTP
and the quaternionic T, and Psi K Psi^T for T.  The linear builders return
the matrix; the antilinear ones (T, TP, CTP, the quaternionic T) return a
``SymmetryOperator`` with ``antilinear=True``, read as "matrix followed by
entrywise conjugation": ``A v = M conj(v)``.  The carrier's flag alone decides the algebra:

    compose:  L1 L2 | L M | M conj(L) | M1 conj(M2)
    adjoint:  L^dag | transpose(M)
    square:   L L   | M conj(M)

Sign sequences attach one sign per (group, chain) label, with conjugate pair
members sharing their sign.  Index reversal inside a chain (``i -> p+1-i``)
appears wherever the dual chain runs antiparallel to the primal one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NotDiagonalizableReal,
    NotInvolutory,
    NotPaired,
    UnpairedRealBlocks,
)
from .linalg import DEFAULT_TOL, Tolerance
from .spectral import REAL, SpectralDecomposition


@dataclass(frozen=True)
class SymmetryOperator:
    """One carrier for linear and antilinear operators: ``v -> M v``, or
    ``v -> M conj(v)`` when ``antilinear``."""

    matrix: np.ndarray
    antilinear: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.as_cmatrix(self.matrix))

    @classmethod
    def of(cls, op) -> "SymmetryOperator":
        """``op`` itself if it is a carrier; a plain matrix is linear."""
        return op if isinstance(op, cls) else cls(op)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v) -> np.ndarray:
        v = linalg.as_vector(v, self.n)
        return self.matrix @ (np.conj(v) if self.antilinear else v)

    def square(self) -> np.ndarray:
        """The linear operator ``A^2``: ``M conj(M)`` if antilinear, else ``M M``."""
        return self.matrix @ (np.conj(self.matrix) if self.antilinear else self.matrix)


def antilinear_compose(a: SymmetryOperator, b: SymmetryOperator) -> SymmetryOperator:
    """Composition ``a . b`` respecting (anti)linearity."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compose dimensions {a.n} and {b.n}")
    return SymmetryOperator(a.matrix @ (np.conj(b.matrix) if a.antilinear else b.matrix),
                            antilinear=a.antilinear != b.antilinear)


def antilinear_adjoint(a: SymmetryOperator) -> SymmetryOperator:
    """Adjoint of either kind: ``<x|A y> = <A^dag x|y>`` gives ``M^dag`` for
    a linear A; ``<x|A y> = <y|A^dag x>`` gives ``transpose(M)`` for an
    antilinear one."""
    m = a.matrix.T if a.antilinear else a.matrix.conj().T
    return SymmetryOperator(m.copy(), antilinear=a.antilinear)


# ---------------------------------------------------------------------------
# sign sequences


@dataclass(frozen=True)
class SignSequence:
    """One sign per (group index, chain index); pair members share signs."""

    signs: dict

    def __post_init__(self):
        for key, val in self.signs.items():
            if val not in (+1, -1):
                raise ValueError(f"sign at {key} must be +1 or -1, got {val}")

    def __call__(self, group: int, chain: int) -> int:
        return self.signs[(group, chain)]


def canonical_sign_sequence(dec: SpectralDecomposition) -> SignSequence:
    """``dec.canonical_signs``, which drive the congruent involutory metric
    to trace 0 on even-dimensional spaces and trace 1 on odd ones."""
    return SignSequence(dec.canonical_signs)


def resolve_sigma(dec: SpectralDecomposition, sigma) -> SignSequence:
    """Accept a SignSequence, the string "canonical", or a sign mapping.
    A supplied sequence is checked against the decomposition; the canonical
    one is valid by construction."""
    if sigma is None or sigma == "canonical":
        return canonical_sign_sequence(dec)
    seq = sigma if isinstance(sigma, SignSequence) else SignSequence(dict(sigma))
    _check_sigma(dec, seq)
    return seq


def _check_sigma(dec: SpectralDecomposition, sigma: SignSequence):
    if set(sigma.signs) != set(dec.chain_starts):
        raise ValueError("sign sequence labels do not match the decomposition")
    for (ng, a), y in dec.conjugates.items():
        if sigma(ng, a) != sigma(*y):
            raise ValueError(
                f"conjugate pair {dec.groups[ng].eigenvalue:.6g} must share its sign at chain {a}")


def _require_paired(dec: SpectralDecomposition):
    if dec.has_unpaired_complex():
        raise NotPaired(
            "decomposition has complex eigenvalues without conjugate partners; "
            "no generalized parity exists")


# ---------------------------------------------------------------------------
# chain-basis coefficients


def _coefficients(dec: SpectralDecomposition, op: str, sigma=None,
                  halves=()) -> np.ndarray:
    """Coefficient matrix K of operator kind ``op`` in the chain basis: a
    signed permutation of the chains.  Each chain x of the kind's domain puts
    ``sign(x) I``, or ``sign(x) rev`` (index reversal) for P and T, at
    ``K[x, partner(x)]``.  P and TP take the chains that have a conjugate
    (``dec.conjugates``) and swap pair members; R and Tfrak take the pair
    members and the real block ``halves`` ``((ng, a), (ng, b))``, and swap
    the halves (R) or both (Tfrak); C and T map every chain to itself.  The
    sign is ``sigma`` for P, C and TP, and -1 on the later member of each
    coupled pair (pairs for R, pairs and halves for Tfrak), else +1.  Each
    chain's block is written as one strided slice of the flattened K.
    """
    n, start, conj = dec.n, dec.chain_starts, dec.conjugates
    domain, swap, later = start, {}, {}
    if op in ("P", "TP"):
        domain = swap = conj
    elif op in ("R", "Tfrak"):
        pair = {x: y for x, y in conj.items() if x != y}
        half = dict(halves) | {b: a for a, b in halves}
        domain = pair | half
        swap, later = (half, pair) if op == "R" else (domain, domain)
    sign = sigma.signs if op in ("P", "C", "TP") else {x: -1 for x, y in later.items() if y < x}
    # x's entries K[r0 + i, c0 + i], or K[r0 + i, c0 + dim - 1 - i] under
    # reversal, are one strided slice of row-major K, flattened (n = 1 has
    # one entry, and any nonzero step)
    rev = op in ("P", "T")
    step = (n - 1 or 1) if rev else n + 1
    k = np.zeros(n * n)
    for x in domain:
        r0, dim = start[x]
        first = r0 * n + start[swap.get(x, x)][0] + (dim - 1 if rev else 0)
        k[first:first + dim * step:step] = sign.get(x, 1)
    return k.reshape(n, n)


# ---------------------------------------------------------------------------
# operator constructions


def build_parity(dec: SpectralDecomposition, sigma="canonical") -> np.ndarray:
    """Hermitian metric from phi-dyads with intra-chain index reversal and
    conjugate-pair cross terms; renders H pseudo-Hermitian."""
    _require_paired(dec)
    return dec.phi @ _coefficients(dec, "P", resolve_sigma(dec, sigma)) @ dec.phi_dag


def build_charge(dec: SpectralDecomposition, sigma="canonical") -> np.ndarray:
    """Involutory operator commuting with H (signed completeness sum)."""
    _require_paired(dec)
    return dec.psi @ _coefficients(dec, "C", resolve_sigma(dec, sigma)) @ dec.phi_dag


def build_time_reversal(dec: SpectralDecomposition) -> SymmetryOperator:
    """Antilinear Hermitian T with ``T H^dag T^-1 = H`` (psi-dyads with
    index reversal; the matrix part is complex-symmetric)."""
    _require_paired(dec)
    return SymmetryOperator(dec.psi @ _coefficients(dec, "T") @ dec.psi.T, antilinear=True)


def build_tp(dec: SpectralDecomposition, sigma="canonical") -> SymmetryOperator:
    """Involutory antilinear symmetry T P_sigma (index reversals cancel;
    conjugate pairs couple crosswise)."""
    _require_paired(dec)
    k = _coefficients(dec, "TP", resolve_sigma(dec, sigma))
    return SymmetryOperator(dec.psi @ k @ dec.phi.T, antilinear=True)


def build_ctp(dec: SpectralDecomposition, sigma="canonical",
              sigma_prime="canonical") -> SymmetryOperator:
    """Involutory antilinear symmetry C_sigma T P_sigma': the T P form signed
    by the product sigma * sigma'."""
    _require_paired(dec)
    sigma = resolve_sigma(dec, sigma)
    sigma_prime = resolve_sigma(dec, sigma_prime)
    product = SignSequence({x: s * sigma_prime(*x) for x, s in sigma.signs.items()})
    return SymmetryOperator(dec.psi @ _coefficients(dec, "TP", product) @ dec.phi.T,
                            antilinear=True)


def positive_metric_violations(dec: SpectralDecomposition) -> list[str]:
    """Why no positive definite metric exists, empty when one does: it
    exists exactly when the spectrum is real and the matrix diagonalizable
    (Theorem 1)."""
    bad_complex = [g.eigenvalue for g in dec.groups if g.kind != REAL]
    bad_blocks = [g.eigenvalue for g in dec.groups
                  if any(c.dim > 1 for c in g.chains)]
    violations = []
    if bad_complex:
        violations.append(f"non-real eigenvalues {bad_complex}")
    if bad_blocks:
        violations.append(f"nontrivial Jordan blocks at {bad_blocks}")
    return violations


def build_positive_metric(dec: SpectralDecomposition) -> np.ndarray:
    """Positive definite metric ``sum |phi><phi|``; refused unless
    ``positive_metric_violations`` is empty."""
    violations = positive_metric_violations(dec)
    if violations:
        raise NotDiagonalizableReal(
            "no positive definite metric exists: " + "; ".join(violations),
            reason="Theorem 1")
    return dec.phi @ np.eye(dec.n) @ dec.phi_dag


def _paired_real_layout(dec: SpectralDecomposition, reason: str = "Proposition 4"):
    """The real block halves of ``dec.real_block_halves``; raises if a real
    group's blocks do not pair up."""
    halves, violations = dec.real_block_halves
    if violations:
        raise UnpairedRealBlocks(
            f"real-eigenvalue Jordan blocks do not occur in identical pairs: "
            f"{list(violations)}", reason=reason)
    return halves


def build_reflecting(dec: SpectralDecomposition):
    """Reflecting symmetry R (involutory, commutes with H, metric-reversing)
    together with the paired parity it reverses.

    Requires every real eigenvalue's Jordan blocks to occur in identical
    pairs; the paired parity puts opposite signs on the two halves of each
    real block pair.
    """
    _require_paired(dec)
    halves = _paired_real_layout(dec)
    signs = dict.fromkeys(dec.chain_starts, +1)
    signs.update((b, -1) for _, b in halves)
    return (dec.psi @ _coefficients(dec, "R", halves=halves) @ dec.phi_dag,
            dec.phi @ _coefficients(dec, "P", SignSequence(signs)) @ dec.phi_dag)


def build_quaternionic_T(dec: SpectralDecomposition) -> SymmetryOperator:
    """Antilinear symmetry squaring to -1 (fermionic-type time reversal);
    coincides with R T P for the paired parity."""
    _require_paired(dec)
    halves = _paired_real_layout(dec, reason="Theorem 2")
    k = _coefficients(dec, "Tfrak", halves=halves)
    return SymmetryOperator(dec.psi @ k @ dec.phi.T, antilinear=True)


def involutory_symmetry_exists(dec: SpectralDecomposition) -> bool:
    """A nontrivial involutory symmetry commuting with H exists iff H has at
    least two independent eigenvectors."""
    return sum(len(g.chains) for g in dec.groups) >= 2


def canonical_involution(c, tol: Tolerance = DEFAULT_TOL) -> tuple[int, int]:
    """(+1, -1) eigenvalue multiplicities of an involutory operator.

    Also certifies diagonalizability via ``rank(C-1) + rank(C+1) = n``
    (an involution cannot carry a nilpotent part).
    """
    c = linalg.as_cmatrix(c)
    n = c.shape[0]
    eye = np.eye(n)
    if np.linalg.norm(c @ c - eye) > tol.scaled(c, c):
        raise NotInvolutory("operator does not square to the identity at tolerance")
    r_minus = linalg.rank(c - eye, tol)
    r_plus = linalg.rank(c + eye, tol)
    if r_minus + r_plus != n:
        raise NotInvolutory(
            f"rank(C-1)+rank(C+1) = {r_minus + r_plus} != {n}; "
            "involution check inconsistent at tolerance")
    return n - r_minus, n - r_plus
