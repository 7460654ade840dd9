"""Shared fixtures and referees."""

import mpmath
import numpy as np
import pytest

from pseudoherm import evolution, linalg, spectral
from pseudoherm.errors import DimensionMismatch, PseudohermError


@pytest.fixture
def cold_memo():
    """Empty the last-result memos of ``spectral.analyze`` and of the metric
    rule (``linalg._metric_decision``) before and after the test, so that a
    kernel the test stubs or counts runs on its first call and what the stub
    made is not served to a later test."""
    spectral._last.clear()
    linalg._last_metric.clear()
    yield
    spectral._last.clear()
    linalg._last_metric.clear()


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


def referee(h, eta, tol=linalg.DEFAULT_TOL):
    """``(certified, exact)`` on one (H, eta).  ``exact`` is the exact rule's
    ``(preserved, eta positive definite)`` or its refusal type; ``certified``
    is the same from ``spectral._chain_certificate`` on a fresh decomposition
    of H (the memo of ``analyze`` is not touched), None where the certificate
    does not decide or ``analyze`` refuses H."""
    exact = _outcome(lambda: _exact(h, eta, tol))
    try:
        dec = spectral._refuse_unpaired(spectral._decompose(h, tol)[0], False)
    except PseudohermError:
        return None, exact
    m, g = spectral._chain_products(h, eta, dec)
    return _outcome(lambda: spectral._chain_certificate(h, eta, dec, m, g, tol)), exact


#: the exact rule, as the modules define it, whatever a fixture wraps
_exact = spectral._pseudo_hermiticity


@pytest.fixture
def gate_referee(monkeypatch):
    """Referee of the evolution gate: every (H, eta) whose pseudo-Hermiticity
    the test decides, through ``spectral._pseudo_hermiticity`` (the exact
    rule of ``is_pseudo_hermitian`` and of the per-point route) or through
    ``evolution._decomposition`` (the gate of both series), is also decided
    by ``referee``; a certificate that decides must agree with the exact
    rule."""
    def check(h, eta, tol):
        try:
            h, eta = linalg.as_cmatrix(h), linalg.as_cmatrix(eta)
        except (ValueError, DimensionMismatch):
            return
        if h.shape != eta.shape:
            return
        certified, exact = referee(h, eta, tol)
        assert certified is None or certified == exact, (h, eta, certified, exact)

    def exact_rule(h, eta, tol):
        check(h, eta, tol)
        return _exact(h, eta, tol)

    gate = evolution._decomposition

    def decomposition(req):
        check(req.h, req.metric, req.tol)
        return gate(req)
    monkeypatch.setattr(spectral, "_pseudo_hermiticity", exact_rule)
    monkeypatch.setattr(evolution, "_pseudo_hermiticity", exact_rule)
    monkeypatch.setattr(evolution, "_decomposition", decomposition)


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

