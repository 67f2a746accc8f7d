"""Golden output of the CLI verbs.

Each journaled verb (sweep, power, serve, chaos) is driven through three
lifecycles on a small grid — a fresh run, a ``--resume`` that replays
the finished journal, and a ``--deadline 0`` run the watchdog
interrupts — and its exact stdout, stderr and exit code are compared
with ``tests/golden/journaled_cli/``.  The only normalized text is the
watchdog's measured elapsed time.

Nine more verbs run once at their defaults and are compared with
``tests/golden/verbs/``, together with the SHA-256 of the file that
``trace`` or ``report`` writes.

To re-record after an intended output change, write
``render_case(...)`` or ``render_verb(...)`` of every case over the
files in those directories and review the diff.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "journaled_cli"
VERB_GOLDEN_DIR = Path(__file__).parent / "golden" / "verbs"

VERBS: dict[str, list[str]] = {
    "sweep": [
        "sweep", "--rates", "0,0.1", "--hit-ratios", "0,0.9",
        "--calls", "6", "--quiet",
    ],
    "power": [
        "power", "--prrs", "1,2", "--hit-ratios", "0,0.9", "--calls", "6",
        "--contract-deadline", "10", "--power-cap", "2.5", "--quiet",
    ],
    "serve": ["serve", "--ticks", "2", "--replications", "2", "--quiet"],
    "chaos": [
        "chaos", "--scenario", "compound", "--ticks", "2",
        "--replications", "2", "--quiet",
    ],
}

#: lifecycle -> (run dir, extra flags); ``replay`` resumes ``fresh``'s dir
PHASES: dict[str, tuple[str, list[str]]] = {
    "fresh": ("run", []),
    "replay": ("run", ["--resume"]),
    "interrupted": ("cut", ["--deadline", "0"]),
}

_ELAPSED = re.compile(r"\(\d+\.\d{3}s >= 0s\)")


def render_case(verb: str, phase: str, capsys) -> str:
    """Run one lifecycle (and the fresh run it resumes) in the cwd."""
    if phase == "replay":
        render_case(verb, "fresh", capsys)
    run_dir, extra = PHASES[phase]
    rc = main(VERBS[verb] + ["--run-dir", run_dir] + extra)
    captured = capsys.readouterr()
    err = _ELAPSED.sub("(<elapsed> >= 0s)", captured.err)
    return f"exit: {rc}\n--- stdout\n{captured.out}--- stderr\n{err}"


@pytest.mark.parametrize("phase", sorted(PHASES))
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_journaled_verb_output_is_pinned(
    verb, phase, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN_DIR / f"{verb}-{phase}.txt").read_text(
        encoding="utf-8"
    )
    assert render_case(verb, phase, capsys) == expected


#: verbs pinned at their defaults -> the file each writes in the cwd
DEFAULT_VERBS: dict[str, str | None] = {
    "table1": None,
    "table2": None,
    "profiles": None,
    "ablation-prefetch": None,
    "ablation-granularity": None,
    "validate": None,
    "trace": "trace.json",
    "metrics": None,
    "report": "REPORT.md",
}


def render_verb(verb: str, capsys) -> str:
    """Run one verb at its defaults in the cwd; hash what it writes."""
    rc = main([verb])
    captured = capsys.readouterr()
    text = f"exit: {rc}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
    written = DEFAULT_VERBS[verb]
    if written is not None:
        digest = hashlib.sha256(Path(written).read_bytes()).hexdigest()
        text += f"--- {written} sha256\n{digest}\n"
    return text


@pytest.mark.parametrize("verb", sorted(DEFAULT_VERBS))
def test_default_verb_output_is_pinned(verb, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (VERB_GOLDEN_DIR / f"{verb}.txt").read_text(encoding="utf-8")
    assert render_verb(verb, capsys) == expected
