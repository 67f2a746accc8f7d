"""One def per reach shape RL010 must follow, plus the unreached ones."""


class RegistryOnly:
    """Reached only as a value in the CLI's registry dict."""


class CaughtOnly(Exception):
    """Reached only in an ``except`` clause."""


class CheckedOnly:
    """Reached only in an ``isinstance`` check."""


def callback_only():
    """Reached only as a callback argument, never called by name."""


def run_with(callback):
    return callback()


def example_only():
    """Reached only from an ``examples/`` file."""


def bench_only():
    """Reached only from a dotted-string table in ``benchmarks/``."""


def test_only():
    """Reached only from ``tests/`` and a re-export: flagged."""


# Kept as the oracle for run_with in tests/uses_shapes.py.
def oracle_only():  # reprolint: disable=RL010
    return _oracle_helper()


def _oracle_helper():
    """Reached only from the suppressed oracle: kept alive by it."""
