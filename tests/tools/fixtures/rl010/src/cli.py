"""Fixture entry point: reaches defs through every non-call shape."""

from lib.shapes import (
    CaughtOnly,
    CheckedOnly,
    RegistryOnly,
    callback_only,
    run_with,
)

_REGISTRY = {"only": RegistryOnly}


def main(argv):
    try:
        run_with(callback=callback_only)
    except CaughtOnly:
        return 1
    return 0 if isinstance(argv, CheckedOnly) else 2
