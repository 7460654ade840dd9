"""Generalized parity, charge-conjugation and time-reversal families.

Every operator is a signed sum of dyads over the biorthonormal chains of a
``SpectralDecomposition``: ``left @ K @ right`` with the chain matrices Psi,
Phi (vectors as columns) and a signed permutation K of the chains, built for
every kind by one rule (``_coefficients``): each chain maps to itself or to
its partner, with or without index reversal, times a sign.  K is held as a
column gather over the decomposition's chain arrays, so each builder makes
one gather of ``left``'s columns and one product: Phi K Phi^dag for the
metrics (P and the paired parity; P+ is Phi Phi^dag), Psi K Phi^dag for C and
R, Psi K Phi^T for TP, CTP and the quaternionic T, and Psi K Psi^T for T.
The three metrics are read-only ``linalg.ChainMetric`` arrays carrying
their chain form, the decomposition and K's gather, so that the metric rule
decides each from K, with no eigensolve, while it is handed in as built and
K proves it a metric; a copy or any other array derived from one is a plain
matrix to the rule.
The linear builders return the matrix; the antilinear ones (T, TP, CTP, the
quaternionic T) return a ``SymmetryOperator`` with ``antilinear=True``, read
as "matrix followed by entrywise conjugation": ``A v = M conj(v)``.  The
carrier's flag alone decides the algebra:

    compose:  L1 L2 | L M | M conj(L) | M1 conj(M2)
    adjoint:  L^dag | transpose(M)
    square:   L L   | M conj(M)

Sign sequences attach one sign per (group, chain) label, with conjugate pair
members sharing their sign; a builder turns one into a per-chain array once.
Index reversal inside a chain (``i -> p+1-i``) appears wherever the dual
chain runs antiparallel to the primal one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NotDiagonalizableReal,
    UnpairedRealBlocks,
)
from .spectral import SpectralDecomposition, _refuse_unpaired


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
    return SignSequence(dict(zip(dec.chain_labels, dec.canonical_signs.tolist())))


def _sign_array(dec: SpectralDecomposition, sigma) -> np.ndarray:
    """One sign per chain from a SignSequence or the string "canonical".  A
    supplied sequence is checked against the decomposition; the canonical one
    is valid by construction."""
    if sigma == "canonical":
        return dec.canonical_signs
    labels, signs = dec.chain_labels, sigma.signs
    if set(signs) != set(labels):
        missing, extra = sorted(set(labels) - set(signs)), sorted(set(signs) - set(labels))
        raise ValueError(f"sign sequence labels do not match the decomposition: "
                         f"missing {missing}, extra {extra}")
    arr, conj = np.array([signs[x] for x in labels]), dec.chain_conj
    bad = np.flatnonzero((conj >= 0) & (arr != arr[conj]))
    if bad.size:
        ng, a = labels[bad[0]]
        raise ValueError(
            f"conjugate pair {dec.groups[ng].eigenvalue:.6g} must share its sign at chain {a}")
    return arr


# ---------------------------------------------------------------------------
# chain-basis coefficients


def _coefficients(dec: SpectralDecomposition, op: str,
                  signs=None) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrix K of operator kind ``op`` in the chain basis, a
    signed permutation of the chains, as the column gather ``(src, sign)``:
    ``left @ K = left[:, src] * sign``.  Chain x of the kind's domain puts
    ``sign(x) I``, or ``sign(x) rev`` (index reversal) for P and T, at
    ``K[x, partner(x)]``.  P and TP swap conjugate pair members and fix real
    chains; R swaps the real block halves and fixes pair members; Tfrak
    swaps both; C and T fix every chain.  The sign is ``signs`` for P, C, TP
    and T, and for R and Tfrak -1 on the later member of each swapped pair
    (pairs for R too), else +1; a column outside K's image gets sign 0."""
    conj = dec.chain_conj
    chain, height, depth = dec.columns
    if op in ("P", "TP"):
        x = conj[chain]  # the source chain of each column
    elif op in ("C", "T"):
        x = chain
    else:  # R, Tfrak: -1 outside the pairs and the halves
        own = np.arange(conj.size)
        paired = (conj >= 0) & (conj != own)
        partner = np.where(paired, conj, dec.real_block_halves[0])
        signs = np.where((partner >= 0) & (partner < own) & (paired | (op == "Tfrak")), -1, 1)
        x = np.where(paired, own, partner)[chain] if op == "R" else partner[chain]
    # a column with no source (x = -1, the partner map being an involution)
    # picks the appended 0 for its start and its sign
    src = np.concatenate((dec.chain_start, [0]))[x] + (depth if op in ("P", "T") else height)
    return src, np.concatenate((signs, [0.0]))[x]


def _chain_product(dec: SpectralDecomposition, op: str, left: np.ndarray,
                   right: np.ndarray, signs=None, carry: bool = False) -> np.ndarray:
    """``left @ K @ right`` for the K of ``_coefficients`` (``NotPaired`` if a
    complex eigenvalue has no partner, as K then does not exist): one gather
    of ``left``'s columns and one matrix product.  With ``carry``, the
    product is a metric Phi K Phi^dag, returned carrying its chain form
    (``linalg._chain_metric``)."""
    _refuse_unpaired(dec, False)
    src, sign = _coefficients(dec, op, signs)
    product = (left[:, src] * sign) @ right
    return linalg._chain_metric(product, dec, (src, sign)) if carry else product


# ---------------------------------------------------------------------------
# operator constructions


def build_parity(dec: SpectralDecomposition, sigma="canonical") -> np.ndarray:
    """Hermitian metric from phi-dyads with intra-chain index reversal and
    conjugate-pair cross terms; renders H pseudo-Hermitian."""
    return _chain_product(dec, "P", dec.phi, dec.phi_dag, _sign_array(dec, sigma), carry=True)


def build_charge(dec: SpectralDecomposition, sigma="canonical") -> np.ndarray:
    """Involutory operator commuting with H (signed completeness sum)."""
    return _chain_product(dec, "C", dec.psi, dec.phi_dag, _sign_array(dec, sigma))


def build_time_reversal(dec: SpectralDecomposition) -> SymmetryOperator:
    """Antilinear Hermitian T with ``T H^dag T^-1 = H`` (psi-dyads with
    index reversal; the matrix part is complex-symmetric)."""
    return SymmetryOperator(_chain_product(dec, "T", dec.psi, dec.psi.T,
                                           np.ones(dec.chain_dim.size)), antilinear=True)


def build_tp(dec: SpectralDecomposition, sigma="canonical") -> SymmetryOperator:
    """Involutory antilinear symmetry T P_sigma (index reversals cancel;
    conjugate pairs couple crosswise)."""
    return SymmetryOperator(_chain_product(dec, "TP", dec.psi, dec.phi.T,
                                           _sign_array(dec, sigma)), antilinear=True)


def build_ctp(dec: SpectralDecomposition, sigma="canonical",
              sigma_prime="canonical") -> SymmetryOperator:
    """Involutory antilinear symmetry C_sigma T P_sigma': the T P form signed
    by the product sigma * sigma'."""
    product = _sign_array(dec, sigma) * _sign_array(dec, sigma_prime)
    return SymmetryOperator(_chain_product(dec, "TP", dec.psi, dec.phi.T, product),
                            antilinear=True)


def positive_metric_violations(dec: SpectralDecomposition) -> list[str]:
    """Why no positive definite metric exists, empty when one does: it
    exists exactly when the spectrum is real and the matrix diagonalizable
    (Theorem 1)."""
    values = dec.group_eigenvalues
    bad_complex = values[values.imag != 0].tolist()  # a group is real exactly when Im = 0
    bad_blocks = values[np.bincount(dec.chain_group, dec.chain_dim > 1) > 0].tolist()
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
    return linalg._chain_metric(dec.phi @ dec.phi_dag, dec, None)


def _paired_real_layout(dec: SpectralDecomposition, reason: str = "Proposition 4"):
    """The real block halves of ``dec.real_block_halves``; refuses unpaired
    complex eigenvalues first, then real groups whose blocks do not pair up."""
    _refuse_unpaired(dec, False)
    half, violations = dec.real_block_halves
    if violations:
        raise UnpairedRealBlocks(
            f"real-eigenvalue Jordan blocks do not occur in identical pairs: "
            f"{list(violations)}", reason=reason)
    return half


def build_reflecting(dec: SpectralDecomposition):
    """Reflecting symmetry R (involutory, commutes with H, metric-reversing)
    together with the paired parity it reverses.

    Requires every real eigenvalue's Jordan blocks to occur in identical
    pairs; the paired parity puts opposite signs on the two halves of each
    real block pair.
    """
    half = _paired_real_layout(dec)
    signs = np.where((half >= 0) & (half < np.arange(half.size)), -1, 1)
    return (_chain_product(dec, "R", dec.psi, dec.phi_dag),
            _chain_product(dec, "P", dec.phi, dec.phi_dag, signs, carry=True))


def build_quaternionic_T(dec: SpectralDecomposition) -> SymmetryOperator:
    """Antilinear symmetry squaring to -1 (fermionic-type time reversal);
    coincides with R T P for the paired parity."""
    _paired_real_layout(dec, reason="Theorem 2")
    return SymmetryOperator(_chain_product(dec, "Tfrak", dec.psi, dec.phi.T), antilinear=True)
