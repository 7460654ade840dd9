"""Jordan structure and biorthonormal chain bases.

A Hamiltonian with discrete spectrum decomposes into Jordan chains: for each
eigenvalue group ``n`` and degeneracy label ``a`` a chain of vectors
``psi[a][0..p-1]`` with

    H psi[0] = E psi[0],        H psi[i] = E psi[i] + psi[i-1],

together with the dual (``phi``) chains of the adjoint, normalized so that
``<psi_m,a,i | phi_n,b,j> = delta`` and ``sum |psi><phi| = 1``.  This module
extracts that structure from a raw matrix (``analyze``), builds matrices from
a prescribed structure (``synthesize``), and verifies the chain-basis
invariants.

``analyze`` works on the complex Schur form ``H = Z T Z^dag``.  It clusters
the diagonal of ``T`` by single linkage; one back-substitution sweep of
``T``, mapped through ``Z``, gives each simple cluster's eigenvector and,
for a cluster C of size m >= 2, solutions X_C of ``(T - center*I) x = 0``
with C's rows held at zero: C's eigenvectors when ``||X_C||_F ||R||_F <=
tol.abs``, R the residual on C's rows, to first order a bound on
``||T11 - center*I||_F`` of C's block in a reordered Schur form.  Only the
other, defective clusters are visited in Python: a reordering (LAPACK
``ztrsen``, ``linalg.reorder_schur``) moves each to the leading block
``T11``, whose rank staircase gives chains that map to H's through the
leading m Schur vectors ``Z1``, since ``H Z1 = Z1 T11``.  The cluster
tables are array passes; ``_assemble`` makes one pass over the groups.

Realness is decided once, by the snap of near-real cluster centers onto the
real axis: a group is real exactly when its eigenvalue's imaginary part is 0.
The others are conjugate (+/-) pair members; a complex eigenvalue without a
conjugate partner of identical block structure admits no generalized-parity
treatment.  ``_assemble`` records it in ``unpaired``, and ``analyze`` and
``synthesize`` refuse it with ``NotPaired`` unless explicitly tolerated.

A decomposition holds the chain basis once: S as ``psi``, Phi^dag = S^-1
as ``phi_dag`` and its adjoint Phi as ``phi``, all read-only, and callers
multiply these matrices directly.  Its groups and chains are tables of
arrays; the ``EigenGroup`` objects, whose chains are views of the columns,
are built the first time ``groups`` is read.
``_assemble`` is the one constructor, for ``analyze``, ``synthesize`` and
``evolution.mashhoon_papini`` alike, and ``reconstruct`` the one
H = Psi J Phi^dag.  One pass of ``_assemble`` tags and pairs the groups and
builds the chain table the operators read, and ``_match`` is the one rule
for which chain meets which: the k-th of each size meets the k-th of that
size in its conjugate partner or its real group's other half.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (ClusterAmbiguity, DimensionMismatch, NonConvergence, NotPaired, Overflow,
                     SingularBasis)
from .linalg import DEFAULT_TOL, Tolerance, _fro

REAL = "real"
PLUS = "plus"       # complex eigenvalue, positive imaginary part
MINUS = "minus"     # its conjugate partner
UNPAIRED = "unpaired"

#: (-i)^k / k!, the Taylor coefficient of e^{-iJt} on a chain's k-th superdiagonal
_TAYLOR = np.cumprod(np.r_[1.0, -1j / np.arange(1, linalg.N_MAX)])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class JordanBlockSpec:
    """Eigenvalue with its Jordan block dimensions ``p_{n,a}``."""

    eigenvalue: complex
    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(p) for p in self.block_dims)
        if not dims or any(p < 1 for p in dims):
            raise ValueError("block_dims must be a non-empty list of positive integers")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    @property
    def algebraic_multiplicity(self) -> int:
        return sum(self.block_dims)


@dataclass(frozen=True)
class JordanChain:
    """One chain: rows of ``psi``/``phi`` are the vectors at heights 1..p."""

    psi: np.ndarray  # (p, n)
    phi: np.ndarray  # (p, n)

    @property
    def dim(self) -> int:
        return self.psi.shape[0]


@dataclass(frozen=True)
class EigenGroup:
    eigenvalue: complex
    kind: str                      # REAL | PLUS | MINUS | UNPAIRED
    pair_id: int | None
    chains: tuple[JordanChain, ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.chains)


class ChainTerms(NamedTuple):
    """One term j of e^{-iJt} for each column a of the chain basis and each k
    up to a's height below its chain's top: the entry ``e^{rate_j t} t^k
    taylor_j`` at (a, a + k), with a = column[j], k = power[j], taylor_j =
    (-i)^k / k! and rate_j = -i E, E the eigenvalue of chain[j]."""

    column: np.ndarray
    power: np.ndarray
    chain: np.ndarray
    taylor: np.ndarray
    rate: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue groups over one read-only copy of S (``psi``), Phi^dag
    (``phi_dag``) and Phi (``phi``), columns in group/chain/height order,
    the unpaired complex groups (``unpaired``), and the read-only group
    and chain tables ``_assemble`` builds with them, one entry per group or
    per chain in ``chain_labels`` order or, for ``columns``, per column.
    ``groups``, the ``EigenGroup``s with their chains as views of the
    columns, is built from these tables the first time it is read.
    ``chain_conj`` and the real block halves follow one matching rule: within
    one size, the k-th chain meets the k-th chain of that size in its
    partner, the other member of a conjugate pair or, for a real chain, the
    other half of its group's chains."""

    psi: np.ndarray
    phi: np.ndarray
    phi_dag: np.ndarray                    # Phi^dag = S^-1
    group_eigenvalues: np.ndarray          # complex128, per group
    group_kinds: tuple                     # REAL | PLUS | MINUS | UNPAIRED
    group_pair_ids: tuple                  # None outside a conjugate pair
    chain_labels: tuple                    # (group, chain)
    chain_group: np.ndarray                # the group, per chain
    chain_dim: np.ndarray
    chain_start: np.ndarray                # first column in psi and phi
    columns: tuple[np.ndarray, np.ndarray, np.ndarray]  # chain, height, dim - 1 - height
    chain_conj: np.ndarray                 # complex conjugate: itself if real, -1 if unpaired
    canonical_signs: np.ndarray            # +/- in turn over odd-dimensional real chains, else +
    real_block_halves: tuple[np.ndarray, tuple]  # partner in the other half, else -1,
    # and the (eigenvalue, block_dims) of every real group whose blocks do not pair up
    unpaired: tuple                        # (eigenvalue, block_dims) of each unpaired group

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @cached_property
    def groups(self) -> tuple[EigenGroup, ...]:
        """The eigenvalue groups; each chain's rows are views of columns of
        ``psi`` and ``phi``."""
        chains = [[] for _ in self.group_kinds]
        for ng, start, p in zip(self.chain_group.tolist(), self.chain_start.tolist(),
                                self.chain_dim.tolist()):
            sl = slice(start, start + p)
            chains[ng].append(JordanChain(psi=self.psi[:, sl].T, phi=self.phi[:, sl].T))
        return tuple(EigenGroup(eigenvalue, kind, pair_id, tuple(cs))
                     for eigenvalue, kind, pair_id, cs in zip(self.group_eigenvalues.tolist(),
                                                              self.group_kinds,
                                                              self.group_pair_ids, chains))

    def psi_matrix(self) -> np.ndarray:
        """Chain vectors as columns (= S)."""
        return self.psi

    def phi_matrix(self) -> np.ndarray:
        """Dual chain vectors as columns (Phi^dag = S^-1)."""
        return self.phi

    def iter_pairs(self):
        """Yield ``(ng_first, first, ng_second, second)`` once per pair,
        in the members' storage order."""
        members = {}
        for ng, pair_id in enumerate(self.group_pair_ids):
            if pair_id is not None:
                members.setdefault(pair_id, []).append(ng)
        for ng1, ng2 in members.values():
            yield ng1, self.groups[ng1], ng2, self.groups[ng2]

    def eigenvalues(self) -> np.ndarray:
        """Each column's eigenvalue."""
        return self.group_eigenvalues[self.chain_group[self.columns[0]]]

    @cached_property
    def terms(self) -> ChainTerms:
        """The term table of e^{-iJt} (Moler & Van Loan, SIAM Rev. 45 (2003),
        method 16), built, read-only, the first time it is read; the
        propagator and both evolution series read it."""
        own, _, rem = self.columns
        column, power = np.nonzero(rem[:, None] >= np.arange(rem.max() + 1))
        chain = own[column]
        rate = -1j * self.group_eigenvalues[self.chain_group[chain]]
        return ChainTerms(*map(_read_only, (column, power, chain, _TAYLOR[power], rate)))


@dataclass(frozen=True)
class SynthesisSpec:
    groups: tuple[JordanBlockSpec, ...]
    basis_seed: int | None = None
    basis_cond: float = 100.0

    def __post_init__(self):
        if not 1.0 <= self.basis_cond < np.inf:
            raise ValueError(f"basis_cond must be finite and at least 1, got {self.basis_cond}")

    @property
    def n(self) -> int:
        return sum(g.algebraic_multiplicity for g in self.groups)


@dataclass(frozen=True)
class BiorthonormalityReport:
    gram_residual: float          # max deviation of <psi|phi> from identity
    completeness_residual: float  # max deviation of sum |psi><phi| from identity


# ---------------------------------------------------------------------------
# reconstruction and checks


def reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """Assemble H as Psi J Phi^dag, J the Jordan matrix of the chains:
    eigenvalues on the diagonal, ones above it inside each chain."""
    link = np.ones(dec.n - 1)
    link[dec.chain_start[1:] - 1] = 0.0
    return dec.psi @ (np.diag(dec.eigenvalues()) + np.diag(link, 1)) @ dec.phi_dag


def check_biorthonormal(dec: SpectralDecomposition) -> BiorthonormalityReport:
    eye = np.eye(dec.n)
    gram = dec.psi.conj().T @ dec.phi
    complete = dec.psi @ dec.phi.conj().T
    return BiorthonormalityReport(
        gram_residual=float(np.abs(gram - eye).max()),
        completeness_residual=float(np.abs(complete - eye).max()),
    )


def _pseudo_hermiticity_residual(h, eta, w, v) -> float:
    """``||(eta H - H^dag eta) V diag(1/w)||_F``, ``V diag(w) V^dag`` the
    eigendecomposition of eta's Hermitian part: ``||eta H eta^-1 - H^dag||_F``
    with no inverse formed, eta first divided by ``max|w|`` so its scale cancels."""
    m = eta / np.abs(w).max()
    return _fro((m @ h - h.conj().T @ m) @ v / (w / np.abs(w).max()))


def _pseudo_hermiticity(h, eta, tol: Tolerance) -> tuple[str | None, bool]:
    """``(refusal, eta positive definite)``, refusal None where
    ``is_pseudo_hermitian(h, eta, tol)`` accepts, else why it refuses.  The
    metric is decided by ``linalg._metric_decision``: a P or P+ that
    ``operators`` built once, from its K where K proves it a metric, a user's
    metric by one n x n ``eigvalsh`` per call.  With w the eigenvalues of eta's
    Hermitian part, eta_h that part divided by the decision's bound on max|w|
    and X = eta_h H - H^dag eta_h, the residual ||X eta_h^-1||_F is at most
    ||X||_F max|w| / min|w|, which the decision's bounds on max|w| and min|w|
    only enlarge: this bound accepts, and only where it fails is the residual
    formed (``_pseudo_hermiticity_residual``, one n x n
    ``linalg.hermitian_eigh``) to decide."""
    h, eta = linalg.as_cmatrix(h), linalg.as_cmatrix(eta)
    if h.shape != eta.shape:
        raise DimensionMismatch(f"H is {h.shape} but the metric is {eta.shape}")
    rule = linalg._metric_decision(eta, tol)
    definite = rule.signature[1] == 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is refused
        thr, eta_h = tol.scaled(h), (eta + eta.conj().T) / 2
        if not np.isfinite(thr):
            raise Overflow("||H||_F overflows the float range")
        m = eta_h / rule.abs_max
        if _fro(m @ h - h.conj().T @ m) * (rule.abs_max / rule.abs_min) <= thr:
            return None, definite
        resid = _pseudo_hermiticity_residual(h, eta_h, *linalg.hermitian_eigh(eta))
    if resid <= thr:
        return None, definite
    return (f"H is not pseudo-Hermitian with respect to this metric: ||eta H eta^-1 - H^dag||_F "
            f"= {resid:.3e} above the threshold {thr:.3e} ({resid / thr:.3g} times it)"), definite


def is_pseudo_hermitian(h, eta, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff eta passes the rule of ``linalg.metric_eigenvalues`` and then
    ``||eta H eta^-1 - H^dag||_F <= tol.scaled(H)`` at any scale of eta (see
    ``_pseudo_hermiticity_residual``); ``Overflow`` if ``||H||_F`` overflows."""
    return _pseudo_hermiticity(h, eta, tol)[0] is None


# ---------------------------------------------------------------------------
# synthesis


def _random_basis(n: int, rng: np.random.Generator, cond: float) -> np.ndarray:
    """Random invertible basis with condition number exactly ``cond``."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q1, _ = np.linalg.qr(a)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q2, _ = np.linalg.qr(b)
    if n == 1:
        s = np.ones(1)
    else:
        s = np.geomspace(np.sqrt(cond), 1.0 / np.sqrt(cond), n)
    return q1 @ np.diag(s) @ q2.conj().T


def synthesize(spec: SynthesisSpec, *, allow_unpaired: bool = False,
               tol: Tolerance = DEFAULT_TOL):
    """Build ``(H, decomposition)`` with prescribed Jordan structure.

    ``H = S J S^-1`` (``reconstruct``) where J carries the requested blocks;
    the psi-chains are the columns of S and the phi-chains the conjugated
    rows of its inverse, so every chain-basis invariant holds by construction.
    An unpaired complex group is refused as ``analyze`` refuses it."""
    s_mat = _random_basis(spec.n, np.random.default_rng(spec.basis_seed), spec.basis_cond)
    try:
        s_inv = linalg.inv(s_mat, tol)
    except Exception as exc:
        raise SingularBasis(f"basis not invertible: {exc}") from exc
    dec = _assemble([g.eigenvalue for g in spec.groups], [g.block_dims for g in spec.groups],
                    tol.abs, s_mat, s_inv)
    dec = _refuse_unpaired(dec, allow_unpaired)
    return reconstruct(dec), dec


def _refuse_unpaired(dec: SpectralDecomposition, allow_unpaired: bool) -> SpectralDecomposition:
    """``dec``, or ``NotPaired`` if it has ``unpaired`` groups that are not allowed."""
    if dec.unpaired and not allow_unpaired:
        raise NotPaired(f"complex eigenvalues without conjugate partner of equal block "
                        f"structure: {[eigenvalue for eigenvalue, _ in dec.unpaired]}")
    return dec


def _match(table: list, mine: dict, theirs: dict):
    """The one matching rule, over chains listed by size: the k-th chain of
    each size in ``mine`` meets the k-th chain of that size in ``theirs``."""
    for p, cs in mine.items():
        for c, other in zip(cs, theirs[p]):
            table[c] = other


def _assemble(eigenvalues, block_dims, pair_tol: float, psi: np.ndarray,
              phi_dag: np.ndarray) -> SpectralDecomposition:
    """The one constructor of a decomposition, one pass over its groups,
    each given by its eigenvalue and its tuple of Jordan block sizes
    (``eigenvalues`` and ``block_dims``, in group order).  A group is real
    exactly when Im = 0; a complex one pairs with the first earlier unmatched
    group whose conjugate lies within ``pair_tol`` and whose block sizes
    agree as a multiset; what stays unmatched is listed in ``unpaired`` for
    the callers to refuse.  S (``psi``) and Phi^dag = S^-1 (``phi_dag``) are
    marked read-only, their columns taken by the groups' chains in order.
    The same pass builds the group and chain tables, listing each group's
    chains by size for ``_match`` to pair a conjugate pair's members and a
    real group's halves.  No per-group or per-chain object is built here
    (``groups`` is built on first read)."""
    psi, phi_dag = _read_only(psi), _read_only(phi_dag)
    phi = _read_only(phi_dag.conj().T)
    values = _read_only(np.array(eigenvalues, dtype=np.complex128))
    evs = values.tolist()
    dim = np.array([p for dims in block_dims for p in dims])
    conj, half, signs, violations = [-1] * dim.size, [-1] * dim.size, [1] * dim.size, []
    kinds, pair_ids, labels, unmatched, odd, pair = [], [], [], {}, 0, 0
    for ng, (ev, dims) in enumerate(zip(evs, block_dims)):
        real, sizes = ev.imag == 0, {}
        for a, p in enumerate(dims):
            if real and p % 2:  # +/- in turn over the odd-dimensional real chains
                signs[len(labels)], odd = (-1) ** odd, odd + 1
            sizes.setdefault(p, []).append(len(labels))
            labels.append((ng, a))
        kinds.append(REAL if real else UNPAIRED)  # a pair member is retagged below
        pair_ids.append(None)
        if real:
            _match(conj, sizes, sizes)
            if any(len(cs) % 2 for cs in sizes.values()):
                violations.append((ev, dims))
            else:  # the halves of each size swap
                _match(half, sizes, {p: cs[len(cs) // 2:] + cs[:len(cs) // 2]
                                     for p, cs in sizes.items()})
            continue
        for j, theirs in unmatched.items():
            if (abs(np.conj(evs[j]) - ev) <= pair_tol
                    and sorted(block_dims[j]) == sorted(dims)):
                break
        else:
            unmatched[ng] = sizes
            continue
        del unmatched[j]
        _match(conj, sizes, theirs)
        _match(conj, theirs, sizes)
        for k in (j, ng):
            kinds[k], pair_ids[k] = PLUS if evs[k].imag > 0 else MINUS, pair
        pair += 1
    start = np.cumsum(dim) - dim
    chain = np.repeat(np.arange(dim.size), dim)
    height = np.arange(chain.size) - start[chain]
    group = np.array([ng for ng, _ in labels], dtype=np.intp)
    return SpectralDecomposition(
        psi=psi, phi=phi, phi_dag=phi_dag, group_eigenvalues=values, group_kinds=tuple(kinds),
        group_pair_ids=tuple(pair_ids), chain_labels=tuple(labels), chain_group=_read_only(group),
        chain_dim=_read_only(dim), chain_start=_read_only(start),
        columns=(_read_only(chain), _read_only(height), _read_only(dim[chain] - 1 - height)),
        chain_conj=_read_only(np.array(conj)), canonical_signs=_read_only(np.array(signs)),
        real_block_halves=(_read_only(np.array(half)), tuple(violations)),
        unpaired=tuple((evs[j], block_dims[j]) for j in unmatched))


# ---------------------------------------------------------------------------
# analysis


def _cluster(eigs: np.ndarray, delta: float) -> np.ndarray:
    """Single-linkage clustering of eigenvalues at link distance ``delta``.

    Returns each eigenvalue's cluster id: the connected components of the
    graph linking eigenvalues at most ``delta`` apart, numbered 0, 1, ... in
    the lexsort (real, imag) order of their first members.
    """
    n = eigs.size
    order = np.lexsort((eigs.imag, eigs.real))
    rank = order.argsort()
    reach = (np.abs(eigs[:, None] - eigs[None, :]) <= delta).astype(np.float64)
    if np.count_nonzero(reach) == n:  # no two eigenvalues link
        return rank
    while True:  # transitive closure by squaring: at most log2(n) rounds
        grown = (reach @ reach > 0).astype(np.float64)
        if (grown == reach).all():
            break
        reach = grown
    # the lexsort rank of each component's first member; its id counts those up to it
    label = np.where(reach > 0, rank[None, :], n).min(axis=1)
    return (np.cumsum((label == rank)[order]) - 1)[label]


def _cluster_table(eigs: np.ndarray, ids: np.ndarray):
    """``(sizes, centers, radii)`` of the clusters ``ids`` numbers, from the
    members in lexsort (real, imag) order: a center is its members' mean, bit
    for bit ``mean()``, and a simple cluster is its own center, at radius 0."""
    members, sizes = np.lexsort((eigs.imag, eigs.real, ids)), np.bincount(ids)
    start = sizes.cumsum() - sizes
    centers = eigs[members[start]]
    for m in set(sizes[sizes > 1].tolist()):  # one row-wise mean per cluster size
        of_size = (sizes == m).nonzero()[0]
        centers[of_size] = eigs[members[start[of_size, None] + np.arange(m)]].sum(axis=1) / m
    radii = np.maximum.reduceat(np.abs(eigs[members] - centers[ids[members]]), start)
    return sizes, centers, radii


def _check_gaps(centers: np.ndarray, radii: np.ndarray, delta: float):
    """Raise ``ClusterAmbiguity`` unless every two clusters are at least ten
    times their scale ``max(r_i + r_j, delta)`` apart; names the first
    failing pair (i < j) in row-major order."""
    gap, scale = np.abs(centers[:, None] - centers), np.maximum(radii[:, None] + radii, delta)
    i, j = (gap < 10.0 * scale).nonzero()
    upper = (i < j).nonzero()[0]
    if upper.size:
        i, j = i[upper[0]], j[upper[0]]
        raise ClusterAmbiguity(
            f"eigenvalue clusters at {centers[i]:.6g} and {centers[j]:.6g} are separated "
            f"by {gap[i, j]:.3e}, below 10x the cluster scale {scale[i, j]:.3e}")


def _extract_chains(b: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, tuple]:
    """Jordan chains of the (numerically) nilpotent m x m matrix ``b`` as
    ``(block, dims)``: the columns of ``block`` chain after chain, heights 1
    up, and ``dims`` the chain lengths, longest first.

    ``analyze`` passes, for each defective eigenvalue cluster of size m, the
    leading block ``T11 - center*I`` of a Schur form reordered to put the
    cluster first, so all of ``b`` must be nilpotent.  Uses the rank-of-powers
    staircase: ``w_k = nullity(b^k) - nullity(b^(k-1))`` counts blocks of size
    >= k; one SVD of each power gives its rank threshold
    (``tol.abs + tol.rel * s_max``), its kernel and its row space.

    When every chain has the same length p, the generators span the row space
    of ``b^(p-1)``: its right singular vectors outside its kernel, from that
    power's SVD, mixed for p >= 2 by the unitary DFT so that ``b^(p-1)`` has
    one gain on each and the unit-head gauge scales every chain alike (for
    p = 1, b^0 = I: the unit vectors).  Otherwise generators of height k are
    picked in ``ker(b^k)`` independent of ``ker(b^(k-1))`` and of the
    height-k vectors of longer chains already built, by a QR of those and an
    SVD of the kernel's projection.  Each length's generators take their
    lower heights as matrix products with b.
    """
    n = b.shape[0]
    power = np.eye(n, dtype=np.complex128)
    bases = [power]  # right singular vectors of b^0, b^1, ...: row space, then kernel
    nullities = [0]  # of b^0, b^1, ...: the power index is len(nullities)
    while nullities[-1] < n and len(nullities) <= n:
        with np.errstate(over="ignore", invalid="ignore"):  # the SVD refuses a non-finite power
            power = power @ b
        try:
            _, s, vh = np.linalg.svd(power)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"rank staircase: SVD of power {len(nullities)} of the "
                                 f"eigenvalue cluster block failed ({exc})") from exc
        cut = tol.abs + tol.rel * s[0]
        nullities.append(int(np.count_nonzero(s <= cut)))
        bases.append(vh.conj().T)
    if nullities[-1] != n:
        kept = s[n - nullities[-1] - 1]
        raise ClusterAmbiguity(
            f"rank staircase saturates at nullity {nullities[-1]}, but the eigenvalue cluster "
            f"has multiplicity {n}: power {len(nullities) - 1} keeps the singular value "
            f"{kept:.3e} above its cut {cut:.3e}, by {(kept - cut) / cut:.2e} of the cut; "
            f"the cluster is not resolvable at this tolerance")
    depth = len(nullities) - 1
    weyr = [nullities[j] - nullities[j - 1] for j in range(1, depth + 1)] + [0]
    if any(weyr[j] < weyr[j + 1] for j in range(depth - 1)):
        raise ClusterAmbiguity("inconsistent rank staircase for eigenvalue cluster")

    heights, dims = [], []  # per chain length k: (k, m, chains), its chains' vectors by height
    for kk in range(depth, 0, -1):
        new_count = weyr[kk - 1] - weyr[kk]
        if new_count == weyr[0]:  # one chain length: b^(kk-1)'s row space, from its SVD
            gens = bases[kk - 1][:, :new_count]
            if kk > 1:  # mixed by the unitary DFT, so that b^(kk-1) has one gain on each
                k = np.arange(new_count)
                gens = gens @ np.exp(-2j * np.pi / new_count * np.outer(k, k)) / np.sqrt(new_count)
        elif new_count:  # chains of several lengths
            q, _ = np.linalg.qr(np.concatenate([bases[kk - 1][:, n - nullities[kk - 1]:]]
                                               + [h[kk - 1] for h in heights], axis=1))
            vk = bases[kk][:, n - nullities[kk]:]
            wh = np.linalg.svd(vk - q @ (q.conj().T @ vk), full_matrices=False)[2]
            gens = vk @ wh[:new_count].conj().T
        else:
            continue
        chain = [gens]
        for _ in range(kk - 1):
            chain.append(b @ chain[-1])
        heights.append(np.array(chain[::-1]))
        dims += [kk] * new_count
    return np.concatenate([h.transpose(1, 2, 0).reshape(n, -1) for h in heights], 1), tuple(dims)


def default_cluster_tol(h: np.ndarray) -> float:
    """Link distance for eigenvalue clustering (``Overflow`` if ||H||_F does).

    Eigenvalues of a defective cluster scatter like a cube root of the
    backward error for blocks up to size 3, hence the exponent.
    """
    n, norm = h.shape[0], _fro(h)
    if not np.isfinite(norm):
        raise Overflow("||H||_F overflows the float range")
    return 25.0 * (n * n * np.finfo(float).eps * max(1.0, norm)) ** (1.0 / 3.0)


#: the last decomposition ``analyze`` made: one (copy of H, tolerance,
#: decomposition, whether it reconstructs H to rounding)
_last: list = []

#: a decomposition reconstructs H to rounding when ||Psi J Phi^dag - H||_F is
#: within this many n eps ||Psi||_F ||Phi||_F ||H||_F: the roundings of H,
#: of its Schur form, of S^-1 and of the reconstruction's two products.  On
#: exactly synthesized spectra the residual reads at most 5.6 of that unit
#: (350 random spectra at basis condition 10 to 1e3); on [[1, 1], [5e-11, 1]],
#: which ``analyze`` accepts as one 2-block, 3e4.
_ROUNDING = 8.0


def analyze(h, tol: Tolerance = DEFAULT_TOL, *,
            allow_unpaired: bool = False) -> SpectralDecomposition:
    """Extract eigenvalue groups, Jordan block dimensions and chain bases.

    A multi-member cluster within the semisimplicity bound (module
    docstring) takes the sweep's vectors; any other its rank staircase's
    block sizes (``_extract_chains``), and if its blocks are identical, its
    generators from the staircase's own SVDs.  Raises
    ``ClusterAmbiguity`` when distinct eigenvalue clusters cannot be
    separated at the requested tolerance, or when the result does not
    reconstruct H (``||Psi J Phi^dag - H||_F`` above ``tol.scaled(H)``), and
    ``NotPaired`` when a complex eigenvalue lacks a conjugate partner of
    identical block structure, unless ``allow_unpaired``.

    The last decomposition made is kept with a copy of its H and its
    tolerance: a call with an equal H (``np.array_equal``) and an equal
    tolerance returns it without a Schur form, so that one op's later
    requests for its H cost a comparison.  ``NotPaired`` is decided on every
    call from the decomposition's ``unpaired`` groups; a refusal is not kept.
    """
    h = np.asarray(h, dtype=np.complex128)
    if _last and _last[0][1] == tol and np.array_equal(_last[0][0], h):
        dec = _last[0][2]  # h equals a matrix as_cmatrix accepted
    else:
        h = linalg.as_cmatrix(h)
        dec, exact = _decompose(h, tol)
        _last[:] = [(h.copy(), tol, dec, exact)]
    return _refuse_unpaired(dec, allow_unpaired)


def _kept_exact(h: np.ndarray) -> SpectralDecomposition | None:
    """The decomposition the last ``analyze`` kept, under any tolerance, if
    the complex128 h is its H bit for bit and it reconstructs H to rounding
    (``_ROUNDING``); else None.  A lookup: nothing is analyzed and nothing
    kept changes."""
    if _last and _last[0][3]:
        kept = _last[0][0]
        if kept.shape == h.shape and kept.tobytes() == h.tobytes():
            return _last[0][2]
    return None


def _decompose(h: np.ndarray, tol: Tolerance) -> tuple[SpectralDecomposition, bool]:
    """The decomposition ``analyze`` returns, its unpaired groups allowed,
    and whether it reconstructs H to rounding (``_ROUNDING``)."""
    n = h.shape[0]
    delta = default_cluster_tol(h)
    t, z = linalg.schur(h)
    eigs = np.diag(t)

    ids = _cluster(eigs, delta)
    sizes, centers, radii = _cluster_table(eigs, ids)
    _check_gaps(centers, radii, delta)

    # snap near-real centers to the real axis, the one realness decision; a
    # simple cluster's snap must move t_kk by rounding only (1 x 1 staircase)
    real_thresh = max(tol.abs, 0.1 * delta)
    snap = np.abs(centers.imag) <= real_thresh + tol.rel * np.abs(centers)
    off = np.abs(centers.imag) * snap
    moved = ((sizes == 1) & (off > tol.abs + tol.rel * off)).nonzero()[0]
    if moved.size:
        k = moved[0]
        raise ClusterAmbiguity(
            f"simple eigenvalue {centers[k]:.6g} is snapped to the real axis, but its "
            f"|Im| = {off[k]:.3e} is above the bound {tol.abs + tol.rel * off[k]:.3e} "
            f"of its 1x1 rank staircase")
    centers = np.where(snap, centers.real, centers)

    # one back-substitution sweep, as in LAPACK ztrevc: (T - lam_k I) x = 0,
    # x_k = 1, zeros below k and on the rows of k's own cluster (divisor inf),
    # lam_k = t_kk or k's cluster's center; the others are >= ~9 delta (_check_gaps)
    multi = sizes[ids] > 1
    lam = np.where(multi, centers[ids], eigs)
    div = np.where(ids[:, None] == ids, np.inf, eigs[:, None] - lam)
    x = np.eye(n, dtype=np.complex128)
    for i in range(n - 2, -1, -1):
        x[i, i + 1:] = -(t[i, i + 1:] @ x[i + 1:, i + 1:]) / div[i, i + 1:]

    # a multi-member cluster C is semisimple when ||X_C||_F ||R||_F <= tol.abs,
    # R = (T - center I) X_C on C's rows, X_C the identity there: to first order
    # a bound on ||T11 - center I||_F of C's reordered block.  The others are
    # defective: reordered, then the rank staircase
    s_mat, dims, defective = z @ x, [(1,) * m for m in sizes.tolist()], []
    if multi.any():
        own, xc = multi.nonzero()[0], x[:, multi]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound is defective
            r = t[own] @ xc - x[own[:, None], own] * lam[own]
            r2 = np.where(ids[own, None] == ids[own], (r.conj() * r).real, 0.0).sum(axis=0)
            x2 = np.bincount(ids[own], (xc.conj() * xc).real.sum(axis=0), sizes.size)
            bound = np.sqrt(np.bincount(ids[own], r2, sizes.size) * x2)
            defective = (~(bound <= tol.abs) & (sizes > 1)).nonzero()[0].tolist()
    for p in defective:
        select, center = ids == p, complex(centers[p])
        t_re, z_re, m, info = linalg.reorder_schur(t, z, select.astype(np.int32))
        if info != 0 or m != sizes[p]:
            raise ClusterAmbiguity(
                f"Schur reordering of the eigenvalue cluster at {center:.6g} "
                f"failed (info={info}, {m} of {sizes[p]} eigenvalues moved)")
        block, dims[p] = _extract_chains(t_re[:m, :m] - center * np.eye(m), tol)
        s_mat[:, select] = z_re[:, :m] @ block

    # deterministic group order: by real part, then |Im|, plus member first
    order = np.lexsort((-centers.imag, np.abs(centers.imag).round(9), centers.real.round(9)))
    block_dims = [dims[p] for p in order.tolist()]

    # S in group order: the columns sorted stably by their cluster's group rank,
    # each chain scaled to a unit eigenvector with a real-positive lead entry
    s_mat = s_mat[:, order.argsort()[ids].argsort(kind="stable")]
    chain_dims = np.array([d for group in block_dims for d in group])
    heads = s_mat[:, chain_dims.cumsum() - chain_dims]
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(heads, axis=0)
    if not np.isfinite(norms).all():
        raise Overflow("a chain vector's norm overflows the float range")
    lead = heads[(np.abs(heads) > 1e-8 * norms).argmax(axis=0), np.arange(heads.shape[1])]
    s_mat = s_mat * (1.0 / (norms * (lead / np.abs(lead)))).repeat(chain_dims)
    # invert with S's columns equilibrated: the pivot test ignores H's scale
    scale = np.linalg.norm(s_mat, axis=0)
    try:
        s_inv = linalg.inv(s_mat / scale, tol) / scale[:, None]
    except Exception as exc:
        raise ClusterAmbiguity(f"chain basis numerically singular: {exc}") from exc
    dec = _assemble(centers[order], block_dims, max(real_thresh, delta), s_mat, s_inv)
    h_norm = _fro(h)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is refused
        resid, thr = _fro(reconstruct(dec) - h), tol.from_norms(n, h_norm)
    if not resid <= thr:
        raise ClusterAmbiguity(f"chain basis does not reconstruct H: ||Psi J Phi^dag - H||_F "
                               f"= {resid:.3e} above the tolerance {thr:.3e}")
    # ||S||_F from its column norms
    rounding = n * np.finfo(float).eps * _fro(scale) * _fro(s_inv)
    return dec, bool(resid <= _ROUNDING * rounding * h_norm)
