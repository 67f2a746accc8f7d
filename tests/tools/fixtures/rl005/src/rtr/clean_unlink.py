"""RL005 fixture: renames and unlinks outside runtime/ are not its business."""

import os


def tidy(path):
    """No findings: rtr/ owns no run directory."""
    os.replace(path, path + ".old")
    os.unlink(path + ".old")
