"""Shared fixtures."""

import pytest

from pseudoherm import spectral


@pytest.fixture
def cold_memo():
    """Empty the last-result memo of ``spectral.analyze`` before and after the
    test, so that a kernel the test stubs runs on its first call and what the
    stub made is not served to a later test."""
    spectral._last.clear()
    yield
    spectral._last.clear()
