"""The chain table of a decomposition: which chain meets which.

A conjugate pair's members carry the same Jordan block sizes, in any order;
a real group's blocks pair up when every size occurs an even number of
times.  Synthesized decompositions draw both, with the orders shuffled, and
the group tags, the table, the operators and the existence decision are
checked against what the eigenvalues and block sizes alone say.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import evolution, krein, operators, spectral
from pseudoherm.errors import MathematicalRefusal, NotPaired, UnpairedRealBlocks
from pseudoherm.operators import build_parity, build_quaternionic_T, build_reflecting
from pseudoherm.spectral import (EigenGroup, JordanBlockSpec, JordanChain, SynthesisSpec,
                                 synthesize)

N_MAX = 16
#: a group's Jordan block sizes, in drawn order; a pair member's lists at
#: least two, so that shuffling can reorder them
DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=4)
PAIR_DIMS = st.lists(st.integers(1, 3), min_size=2, max_size=3)
#: the unpaired complex eigenvalue; every pair has |Im| >= 1
UNPAIRED = 3.0 + 0.25j


@st.composite
def structures(draw):
    """``(eigenvalue, block_dims)`` groups in shuffled order, n <= 16: up to
    two conjugate pairs whose members list the same sizes in independently
    shuffled orders, up to three real groups (some with every size an even
    number of times) and sometimes one unpaired complex group.  A group that
    would take n past 16 is left out."""
    groups = []

    def add(*members):
        if sum(sum(d) for _, d in groups + list(members)) <= N_MAX:
            groups.extend(members)

    for k in range(draw(st.integers(0, 2))):
        dims = draw(PAIR_DIMS)
        z = 0.5 * k + (1 + k) * (1j if draw(st.booleans()) else -1j)
        add((z, tuple(draw(st.permutations(dims)))),
            (z.conjugate(), tuple(draw(st.permutations(dims)))))
    for k in range(draw(st.integers(0, 3))):
        dims = draw(DIMS)
        if draw(st.booleans()):
            dims = draw(st.permutations(dims[:2] * 2))
        add((float(k), tuple(dims)))
    if draw(st.integers(0, 3)) == 0:
        add((UNPAIRED, tuple(draw(DIMS))))
    return draw(st.permutations(groups or [(0.0, (1,))]))


def _synthesize(groups, seed=1, cond=100.0):
    unpaired = any(z == UNPAIRED for z, _ in groups)
    spec = SynthesisSpec(groups=tuple(JordanBlockSpec(z, d) for z, d in groups),
                         basis_seed=seed, basis_cond=cond)
    return (*synthesize(spec, allow_unpaired=unpaired), unpaired)


def _odd_real(dec):
    """``(eigenvalue, block_dims)`` of each real group with a size that occurs
    an odd number of times."""
    return [(g.eigenvalue, g.block_dims) for g in dec.groups if g.kind == "real"
            and any(g.block_dims.count(d) % 2 for d in g.block_dims)]


def _check_tags(dec, groups):
    """A group is real iff Im = 0; pair members share one id, the ids run
    from 0, and a member is plus or minus by the sign of Im; ``dec.unpaired``
    lists exactly the drawn unpaired group."""
    ids = [g.pair_id for g in dec.groups]
    for ng, g in enumerate(dec.groups):
        assert (g.kind == "real") == (g.eigenvalue.imag == 0)
        if g.kind in ("real", "unpaired"):
            assert g.pair_id is None
            continue
        assert g.kind == ("plus" if g.eigenvalue.imag > 0 else "minus")
        (partner,) = [m for m, i in enumerate(ids) if i == g.pair_id and m != ng]
        assert dec.groups[partner].eigenvalue == g.eigenvalue.conjugate()
    paired = set(ids) - {None}
    assert paired == set(range(len(paired)))
    assert dec.unpaired == tuple((z, d) for z, d in groups if z == UNPAIRED)
    assert dec.unpaired == tuple((g.eigenvalue, g.block_dims) for g in dec.groups
                                 if g.kind == "unpaired")


def _check_table(dec, groups):
    _check_tags(dec, groups)
    labels, dim, conj = dec.chain_labels, dec.chain_dim, dec.chain_conj
    half, violations = dec.real_block_halves
    group_of = {g.eigenvalue: ng for ng, g in enumerate(dec.groups)}
    assert list(violations) == _odd_real(dec)
    for c, (ng, _) in enumerate(labels):
        g = dec.groups[ng]
        if g.kind == "real":
            assert conj[c] == c
        elif g.kind == "unpaired":
            assert conj[c] == -1
        else:
            assert labels[conj[c]][0] == group_of[g.eigenvalue.conjugate()]
            assert dim[conj[c]] == dim[c] and conj[conj[c]] == c
        if g.kind != "real" or (g.eigenvalue, g.block_dims) in violations:
            assert half[c] == -1
        else:
            assert half[c] != c and labels[half[c]][0] == ng
            assert dim[half[c]] == dim[c] and half[half[c]] == c


def _builds(build, dec) -> bool:
    try:
        build(dec)
    except (NotPaired, UnpairedRealBlocks):
        return False
    return True


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(structures(), st.integers(0, 2**32 - 1), st.floats(1.0, 100.0))
def test_chains_meet_their_equal_size_partners(groups, seed, cond):
    h, dec, unpaired = _synthesize(groups, seed, cond)
    _check_table(dec, groups)
    if not unpaired:
        failed = [r for r in krein.check_battery(h, dec) if not r["pass"]]
        assert failed == []
    exists = not unpaired and not _odd_real(dec)
    assert krein.pseudounitary_symmetries_exist(dec).exists == exists
    assert _builds(build_reflecting, dec) == _builds(build_quaternionic_T, dec) == exists


@pytest.mark.parametrize("groups", [
    ((1 + 1j, (2, 1)), (1 - 1j, (1, 2))),
    ((0.5, (1, 3, 1, 3)), (1 + 1j, (2, 1, 1)), (1 - 1j, (1, 1, 2))),
], ids=["pair-2-1", "real-and-pair"])
def test_reordered_conjugate_pair_meets_by_size(groups):
    """The pair members list their sizes in different orders; a 2-chain
    met with a 1-chain gave a singular, non-Hermitian P."""
    h, dec, _ = _synthesize(groups)
    _check_table(dec, groups)
    p = build_parity(dec)
    assert np.linalg.norm(p - p.conj().T) <= 1e-12 * np.linalg.norm(p)
    assert [r["check"] for r in krein.check_battery(h, dec) if not r["pass"]] == []


#: the eight operator builders of one op
BUILDERS = ("build_parity", "build_charge", "build_time_reversal", "build_tp", "build_ctp",
            "build_positive_metric", "build_reflecting", "build_quaternionic_T")


def _run_op(h):
    """One op on H: analyze, the eight builders, the congruence, the
    existence decision, the U(t) and TP reports against P and both series."""
    dec = spectral.analyze(h)
    built = {}
    for name in BUILDERS:
        try:
            built[name] = getattr(operators, name)(dec)
        except MathematicalRefusal:
            pass
    krein.congruence_to_involutory(dec)
    krein.pseudounitary_symmetries_exist(dec)
    p = built["build_parity"]
    krein.classification_report(evolution.propagator(h, 0.3), p)
    krein.classification_report(built["build_tp"], p)
    psi0 = np.arange(1.0, dec.n + 1) + 1j
    grid = tuple(np.linspace(0.0, 2.0, 11))
    evolution.krein_norm_series(evolution.EvolutionRequest(h, p, psi0, grid))
    if "build_positive_metric" in built:
        req = evolution.EvolutionRequest(h, built["build_positive_metric"], psi0, grid)
        evolution.transition_probability(req, psi0[::-1])
    return dec, sorted(built)


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("groups, kinds, built", [
    (((-1.0, (1, 1)), (0.5, (1, 1)), (1.5, (1, 1))), ["real"] * 3, 8),
    (((-0.7, (1, 1)), (0.3, (2,)), (1 + 0.5j, (1,)), (1 - 0.5j, (1,))),
     ["real", "real", "plus", "minus"], 5),
], ids=["real-diagonalizable", "jordan-and-pair"])
def test_an_op_builds_no_per_eigenvalue_object(groups, kinds, built, monkeypatch):
    """No ``JordanBlockSpec``, ``EigenGroup`` or ``JordanChain`` is made on an
    op's path; ``groups``, read afterwards, is the one the chain table
    describes, with chains that are views of ``psi`` and ``phi``.  The
    groups are listed in ``analyze``'s order."""
    h, _, _ = _synthesize(groups)
    made = []
    for cls in (JordanBlockSpec, EigenGroup, JordanChain):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=cls.__init__, **k:
                            made.append(type(self).__name__) or _init(self, *a, **k))
    dec, names = _run_op(h)
    assert made == [] and len(names) == built
    monkeypatch.undo()
    assert [(type(g.eigenvalue), g.kind, g.pair_id) for g in dec.groups] == [
        (complex, kind, None if kind == "real" else 0) for kind in kinds]
    assert [g.eigenvalue for g in dec.groups] == dec.group_eigenvalues.tolist()
    assert np.allclose([g.eigenvalue for g in dec.groups], [z for z, _ in groups], atol=1e-8)
    assert [g.block_dims for g in dec.groups] == [tuple(sorted(d)) for _, d in groups]
    columns = iter(range(dec.n))
    for g in dec.groups:
        for c in g.chains:
            cols = [next(columns) for _ in range(c.dim)]
            for vectors, basis in ((c.psi, dec.psi), (c.phi, dec.phi)):
                assert np.shares_memory(vectors, basis) and not vectors.flags.writeable
                assert np.array_equal(vectors, basis[:, cols].T)
    assert next(columns, None) is None
    assert dec.groups is dec.groups  # built once
