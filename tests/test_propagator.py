"""The propagator's two routes and the per-point route of both series.

Where the last ``analyze`` kept a decomposition of H that reconstructs it to
rounding, ``propagator`` forms U(t) = Psi e^{-iJt} Phi^dag in its chain
basis, and no ``expm`` runs; for any other H ``linalg.expm`` exponentiates
-iHt, and the propagator analyzes nothing.  Both are put against the
50-digit mpmath referee of the evolution tests.  The series' per-point
route, for an H that ``analyze`` refuses, exponentiates each point without
analyzing H again.
"""

import numpy as np
import pytest

from conftest import referee_propagator
from pseudoherm import evolution, linalg, spectral
from pseudoherm.errors import ClusterAmbiguity, Overflow
from pseudoherm.linalg import EXPM_NORM_BOUND
from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec, synthesize

EPS = np.finfo(float).eps
#: an H that ``analyze`` refuses (its two eigenvalues form one cluster whose
#: staircase is inconsistent)
REFUSED_H = np.diag([1.0, 1.0 + 1e-9]).astype(complex)


def _groups(*groups):
    return tuple(JordanBlockSpec(ev, dims) for ev, dims in groups)


#: Jordan blocks of sizes 2-5, conjugate pairs and one unpaired eigenvalue,
#: each at basis condition 10 and at the largest of 100 and 1e3 whose seed-0
#: basis ``analyze`` resolves
CHAIN_CASES = [
    pytest.param(groups, cond, id=f"{label}-cond{cond:g}")
    for label, groups, conds in (
        ("blocks-5-2", _groups((0.1, (5,)), (-0.8, (2,))), (10.0, 100.0)),
        ("blocks-4-3", _groups((1.0, (4,)), (-0.5, (3,))), (10.0, 1e3)),
        ("pairs", _groups((0.3, (2,)), (1 + 0.2j, (1, 2)), (1 - 0.2j, (2, 1)), (-1.0, (1,))),
         (10.0, 1e3)),
        ("unpaired", _groups((0.5, (3,)), (-0.5 + 0.1j, (1,)), (1.7 + 0.15j, (2,)),
                             (1.7 - 0.15j, (2,))), (10.0, 1e3)),
    )
    for cond in conds
]


def _referee(h, t) -> np.ndarray:
    return np.array(referee_propagator(h, t).tolist(), dtype=complex)


def _count_expm(monkeypatch):
    calls, expm = [], linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda a: calls.append(a) or expm(a))
    return calls, expm


def _count_decompose(monkeypatch):
    calls, decompose = [], spectral._decompose
    monkeypatch.setattr(spectral, "_decompose", lambda *a: calls.append(a) or decompose(*a))
    return calls


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("groups, cond", CHAIN_CASES)
def test_the_chain_route_agrees_with_expm_and_the_referee(monkeypatch, groups, cond):
    """At t = 0, 0.3 / ||H||_F and 0.999 EXPM_NORM_BOUND / ||H||_F no ``expm``
    runs, and the asserted bound is

        ||U - U_ref||_F <= 4 max(||expm(-iHt) - U_ref||_F, n eps k ||U_ref||_F),

    U_ref the referee and k = ||Psi||_F ||Phi||_F >= cond(Psi): the chain
    route is within a factor 4 of ``expm``'s own error or of the rounding of
    the basis (2.2 at most here).  Where ||Ht||_F <= 1 it is within the
    rounding alone (0.42 at most).  Near the bound it is the closer of the
    two in six cases of eight, by up to 4e4 (the 5-block at basis condition
    10), and 8 times further in one (the 4-block at 1e3)."""
    h, _ = synthesize(SynthesisSpec(groups, basis_seed=0, basis_cond=cond), allow_unpaired=True)
    dec = spectral.analyze(h, allow_unpaired=True)
    n, norm = h.shape[0], np.linalg.norm(h)
    k = np.linalg.norm(dec.psi) * np.linalg.norm(dec.phi)
    calls, expm = _count_expm(monkeypatch)
    for t in (0.0, 0.3 / norm, 0.999 * EXPM_NORM_BOUND / norm):
        want = _referee(h, t)
        error = np.linalg.norm(evolution.propagator(h, t) - want)
        rounding = n * EPS * k * np.linalg.norm(want)
        assert error <= 4.0 * max(np.linalg.norm(expm(-1j * t * h) - want), rounding), t
        assert t * norm > 1.0 or error <= rounding, t
    assert calls == []


@pytest.mark.usefixtures("cold_memo")
@pytest.mark.parametrize("d, chain_route", [(5e-11, False), (1e-13, False), (1e-15, True)])
def test_a_nearly_defective_h_takes_the_chain_route_only_at_rounding(monkeypatch, d,
                                                                     chain_route):
    """``analyze`` accepts [[1, 1], [d, 1]] as one 2-block, whose chain
    basis reconstructs H to 3e4, 65 and 0.71 times the rounding n eps
    ||Psi||_F ||Phi||_F ||H||_F at d = 5e-11, 1e-13 and 1e-15: only the last
    takes the chain route.  At t = 0.999 EXPM_NORM_BOUND / ||H||_F, where
    the exponential of the reconstruction is 2.8e-6 (relative) from the
    referee at d = 5e-11, either route is within 1e-10 of it (5.5e-11 at
    most), and the chain route within 1e-13 of the exponential of its
    reconstruction (1.4e-14)."""
    h = np.array([[1.0, 1.0], [d, 1.0]], dtype=complex)
    dec = spectral.analyze(h)
    assert dec.chain_dim.tolist() == [2]
    calls, expm = _count_expm(monkeypatch)
    for t in (0.3 / np.linalg.norm(h), 0.999 * EXPM_NORM_BOUND / np.linalg.norm(h)):
        u, want = evolution.propagator(h, t), _referee(h, t)
        assert len(calls) == (0 if chain_route else 1), t
        assert np.linalg.norm(u - want) <= 1e-10 * np.linalg.norm(want), t
        if chain_route:
            h_dec = _referee(spectral.reconstruct(dec), t)
            assert np.linalg.norm(u - h_dec) <= 1e-13 * np.linalg.norm(h_dec), t
        else:
            assert np.array_equal(u, expm(-1j * t * h)), t
        calls.clear()


@pytest.mark.usefixtures("cold_memo")
def test_the_propagator_analyzes_nothing_and_keeps_the_kept(monkeypatch):
    """An H that ``analyze`` refuses, and an H that it accepts but has not
    analyzed last, take one ``expm`` and no decomposition; the decomposition
    kept for another H stays kept."""
    with pytest.raises(ClusterAmbiguity):
        spectral.analyze(REFUSED_H, allow_unpaired=True)
    h, _ = synthesize(SynthesisSpec(_groups((0.1, (2,)), (-0.8, (1,))), basis_seed=0))
    kept = spectral.analyze(h)
    cold = np.array([[1.0, 2.0], [0.0, -0.5]], dtype=complex)
    decompositions = _count_decompose(monkeypatch)
    calls, expm = _count_expm(monkeypatch)
    for other in (REFUSED_H, cold):
        u = evolution.propagator(other, 0.7)
        assert len(calls) == 1
        assert np.array_equal(u, expm(-1j * 0.7 * other))
        assert np.abs(u - _referee(other, 0.7)).max() <= 4 * EPS
        calls.clear()
    assert decompositions == []
    assert spectral.analyze(h) is kept


@pytest.mark.usefixtures("cold_memo")
def test_both_routes_refuse_on_expms_own_norm():
    """|t| ||H||_F reads exactly ``EXPM_NORM_BOUND`` here but ||-iHt||_F one
    ulp above it: the chain route refuses with ``Overflow`` as ``expm`` does."""
    h = np.array([[1.0, 1.9471888932322174], [0.0, -0.5]], dtype=complex)
    t = 445.3671635885386
    assert t * np.linalg.norm(h) <= EXPM_NORM_BOUND < np.linalg.norm(-1j * t * h)
    spectral.analyze(h)
    with pytest.raises(Overflow):
        linalg.expm(-1j * t * h)
    with pytest.raises(Overflow):
        evolution.propagator(h, t)


@pytest.mark.usefixtures("cold_memo")
def test_the_per_point_route_analyzes_h_once(monkeypatch):
    """A 200-point series on an H that ``analyze`` refuses makes one
    decomposition, the gate's own attempt, and one ``expm`` per point."""
    decompositions = _count_decompose(monkeypatch)
    calls, _ = _count_expm(monkeypatch)
    req = evolution.EvolutionRequest(h=REFUSED_H, metric=np.eye(2), initial_state=[1, 1],
                                     t_grid=tuple(np.linspace(0.0, 5.0, 200)))
    series = evolution.krein_norm_series(req)
    assert len(decompositions) == 1
    assert len(calls) == 200
    assert np.abs(np.array(series) - 2.0).max() < 1e-12
