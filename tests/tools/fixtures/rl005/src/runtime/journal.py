"""RL005 fixture: the owner module may write journal files freely."""

import os


def append(run_dir, line):
    """No findings here: runtime/journal.py is the sanctioned owner."""
    with open(f"{run_dir}/journal.jsonl", "a") as fh:
        fh.write(line + "\n")


def replace(tmp, path):
    """No findings: the owner renames, then fsyncs the directory."""
    os.replace(tmp, path)
