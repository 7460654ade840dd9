"""Shared fixtures and referees."""

import mpmath
import numpy as np
import pytest

from pseudoherm import evolution, linalg, spectral
from pseudoherm.errors import DimensionMismatch, PseudohermError


@pytest.fixture
def cold_memo():
    """Empty the last-result memo of ``spectral.analyze`` before and after
    the test, so that a kernel the test stubs or counts runs on its first
    call and what the stub made is not served to a later test."""
    spectral._last.clear()
    yield
    spectral._last.clear()


def _outcome(call):
    """``call()``, or the type of the ``PseudohermError`` it raises."""
    try:
        return call()
    except PseudohermError as exc:
        return type(exc)


def referee_propagator(h, t):
    """``exp(-iHt)`` by mpmath's expm at 50 digits, as an mpmath matrix: the
    referee of the evolution tests."""
    with mpmath.workdps(50):
        return mpmath.expm(-1j * mpmath.mpf(t) * mpmath.matrix(np.asarray(h).tolist()))


def referee(h, eta):
    """``(bound, exact)`` on one (H, eta), both formed here with numpy: the
    gate's norm bound ||X||_F max|w| / min|w|, X = eta_h H - H^dag eta_h with
    eta_h the Hermitian part of eta divided by max|w|, w its eigenvalues, and
    the exact residual ||X eta_h^-1||_F = ||eta H eta^-1 - H^dag||_F by a
    solve.  |w| are eta_h's singular values, so that no eigensolve runs.
    None where a value is not finite or w holds a zero."""
    with np.errstate(all="ignore"):
        eta_h = 0.5 * (eta + eta.conj().T)
        if not np.isfinite(eta_h).all():
            return None
        w = np.linalg.svd(eta_h, compute_uv=False)
        if not w.min() > 0:
            return None
        m = eta_h / w.max()
        x = m @ h - h.conj().T @ m
        if not np.isfinite(x).all():
            return None
        bound = np.linalg.norm(x) * (w.max() / w.min())
        exact = np.linalg.norm(np.linalg.solve(m.T, x.T).T)
    return bound, exact


#: the rule, as the modules define it, whatever a fixture wraps
_rule = spectral._pseudo_hermiticity


@pytest.fixture
def gate_referee(monkeypatch):
    """Referee of the evolution gate: every (H, eta) whose pseudo-Hermiticity
    the test decides through ``spectral._pseudo_hermiticity``, the rule of
    ``is_pseudo_hermitian`` and of the gate of both series, is also put to
    ``referee``; the norm bound must never accept where the exact residual
    refuses."""
    def check(h, eta, tol):
        try:
            h, eta = linalg.as_cmatrix(h), linalg.as_cmatrix(eta)
        except (ValueError, DimensionMismatch):
            return
        if h.shape != eta.shape:
            return
        refereed, thr = referee(h, eta), tol.scaled(h)
        assert refereed is None or refereed[0] > thr or refereed[1] <= thr, (h, eta, refereed)

    def rule(h, eta, tol):
        check(h, eta, tol)
        return _rule(h, eta, tol)
    monkeypatch.setattr(spectral, "_pseudo_hermiticity", rule)
    monkeypatch.setattr(evolution, "_pseudo_hermiticity", rule)


def referee_cluster(eigs, delta):
    """The single-linkage clustering that ``spectral._cluster`` replaced, kept
    as its referee: index arrays, each cluster's members in lexsort (real,
    imag) order, the clusters in the lexsort order of their first members."""
    n = eigs.size
    order = np.lexsort((eigs.imag, eigs.real))
    reach = (np.abs(eigs[:, None] - eigs[None, :]) <= delta).astype(np.float64)
    if np.count_nonzero(reach) == n:
        return list(order[:, None])
    while True:
        grown = (reach @ reach > 0).astype(np.float64)
        if np.array_equal(grown, reach):
            break
        reach = grown
    label = np.where(reach > 0, np.argsort(order)[None, :], n).min(axis=1)[order]
    grouped = np.argsort(label, kind="stable")
    return np.split(order[grouped], np.flatnonzero(np.diff(label[grouped])) + 1)

