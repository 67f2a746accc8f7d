"""Fixtures shared across the test packages."""

from __future__ import annotations

import pytest

from repro.runtime.invariants import set_strict


@pytest.fixture
def strict():
    """Audit violations raise for the duration of the test."""
    previous = set_strict(True)
    yield
    set_strict(previous)
