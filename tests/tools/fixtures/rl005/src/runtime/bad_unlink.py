"""RL005 fixture: a runtime/ module that unlinks and renames by itself."""

import os


def drop_segments(run_dir, names):
    """Two findings: neither call fsyncs the run directory afterwards."""
    for name in names:
        os.remove(os.path.join(run_dir, name))
    os.rename(os.path.join(run_dir, "a"), os.path.join(run_dir, "b"))
