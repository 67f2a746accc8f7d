"""Test-side reach (not collected: fixture trees are data): never counts."""

from lib.shapes import oracle_only, run_with, test_only


def check_run_with():
    assert run_with(oracle_only) is None
    test_only()
