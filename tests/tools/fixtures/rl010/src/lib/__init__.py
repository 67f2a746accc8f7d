"""A re-export reaches nothing: ``test_only`` stays unreached."""

from .shapes import test_only

__all__ = ["test_only"]
