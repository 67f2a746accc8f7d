"""Documentation gates: catalog pinning, link integrity, docstrings.

The docs are part of the contract — ``docs/OBSERVABILITY.md`` is pinned
against :data:`repro.obs.metrics.CATALOG` row by row, the invariant
tables in the docs must cover :data:`repro.runtime.invariants.INVARIANTS`,
every intra-repo markdown link must resolve, and the stdlib
docstring-coverage gate (``tools/check_docstrings.py``) must pass.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import CATALOG
from repro.runtime.invariants import INVARIANTS

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
TOOLS = str(REPO / "tools")


def read(path: Path) -> str:
    assert path.exists(), f"missing documentation file: {path}"
    return path.read_text(encoding="utf-8")


class TestObservabilityDoc:
    def test_every_catalog_metric_is_documented(self):
        text = read(DOCS / "OBSERVABILITY.md")
        missing = [name for name in CATALOG if f"`{name}`" not in text]
        assert not missing, f"metrics absent from OBSERVABILITY.md: {missing}"

    def test_no_phantom_metrics_documented(self):
        text = read(DOCS / "OBSERVABILITY.md")
        documented = set(re.findall(r"`(repro_[a-z0-9_]+)`", text))
        phantom = documented - set(CATALOG)
        assert not phantom, f"OBSERVABILITY.md documents unknown: {phantom}"

    def test_catalog_rows_match_kind_and_source(self):
        text = read(DOCS / "OBSERVABILITY.md")
        for spec in CATALOG.values():
            row = next(
                (
                    line
                    for line in text.splitlines()
                    if line.startswith(f"| `{spec.name}` |")
                ),
                None,
            )
            assert row is not None, f"no table row for {spec.name}"
            assert f"| {spec.kind} |" in row, f"kind drift for {spec.name}"
            assert f"`{spec.source}`" in row, f"source drift for {spec.name}"


class TestInvariantDocs:
    def test_model_doc_lists_every_invariant(self):
        text = read(DOCS / "MODEL.md")
        missing = [n for n in INVARIANTS if f"`{n}`" not in text]
        assert not missing, f"invariants absent from MODEL.md: {missing}"


class TestResilienceDoc:
    def test_every_scenario_is_documented(self):
        from repro.chaos import scenario_names

        text = read(DOCS / "RESILIENCE.md")
        missing = [n for n in scenario_names() if f"`{n}`" not in text]
        assert not missing, f"scenarios absent from RESILIENCE.md: {missing}"

    def test_no_phantom_scenarios_documented(self):
        from repro.chaos import scenario_names

        text = read(DOCS / "RESILIENCE.md")
        table = re.findall(r"^\| `([a-z0-9-]+)` \|", text, re.MULTILINE)
        phantom = set(table) - set(scenario_names())
        assert not phantom, f"RESILIENCE.md documents unknown: {phantom}"

    def test_chaos_metrics_are_documented(self):
        text = read(DOCS / "RESILIENCE.md")
        chaos_metrics = [n for n in CATALOG if n.startswith("repro_chaos_")]
        assert chaos_metrics, "chaos metrics missing from the CATALOG"
        missing = [n for n in chaos_metrics if f"`{n}`" not in text]
        assert not missing, f"metrics absent from RESILIENCE.md: {missing}"

    def test_containment_invariant_is_cross_referenced(self):
        assert "chaos-containment" in INVARIANTS
        assert "`chaos-containment`" in read(DOCS / "RESILIENCE.md")


class TestPerformanceDoc:
    def test_every_exactness_predicate_is_documented(self):
        from repro.model.hybrid import EXACTNESS_PREDICATES

        text = read(DOCS / "PERFORMANCE.md")
        missing = [
            n for n in EXACTNESS_PREDICATES if f"`{n}`" not in text
        ]
        assert not missing, f"predicates absent from PERFORMANCE.md: {missing}"

    def test_no_phantom_predicates_documented(self):
        from repro.model.hybrid import EXACTNESS_PREDICATES

        text = read(DOCS / "PERFORMANCE.md")
        table = re.findall(r"^\| `([a-z-]+)` \|", text, re.MULTILINE)
        phantom = set(table) - set(EXACTNESS_PREDICATES)
        assert not phantom, f"PERFORMANCE.md documents unknown: {phantom}"

    def test_every_trajectory_metric_is_documented(self):
        from repro.runtime.benchtrack import GATE_METRICS

        text = read(DOCS / "PERFORMANCE.md")
        missing = [n for n in GATE_METRICS if f"`{n}`" not in text]
        assert not missing, f"metrics absent from PERFORMANCE.md: {missing}"

    def test_hybrid_modes_and_cli_flag_documented(self):
        text = read(DOCS / "PERFORMANCE.md")
        for flag in ("--hybrid=off", "--hybrid=on", "--hybrid=verify"):
            assert flag in text, flag

    def test_exactness_invariant_is_cross_referenced(self):
        assert "hybrid-exactness" in INVARIANTS
        assert "`hybrid-exactness`" in read(DOCS / "PERFORMANCE.md")

    def test_linked_from_readme_and_architecture(self):
        assert "docs/PERFORMANCE.md" in read(REPO / "README.md")
        assert "PERFORMANCE.md" in read(DOCS / "ARCHITECTURE.md")


class TestPowerDoc:
    def test_every_model_constant_is_documented_with_its_default(self):
        from repro.power.model import DEFAULT_POWER_MODEL

        text = read(DOCS / "POWER.md")
        for field, value in DEFAULT_POWER_MODEL.as_dict().items():
            row = next(
                (
                    line
                    for line in text.splitlines()
                    if line.startswith(f"| `{field}` |")
                ),
                None,
            )
            assert row is not None, f"no constants row for {field}"
            assert f"| {value:g} W |" in row, f"value drift for {field}"

    def test_no_phantom_constants_documented(self):
        from repro.power.model import DEFAULT_POWER_MODEL

        text = read(DOCS / "POWER.md")
        table = re.findall(r"^\| `([a-z_]+_w)` \|", text, re.MULTILINE)
        phantom = set(table) - set(DEFAULT_POWER_MODEL.as_dict())
        assert not phantom, f"POWER.md documents unknown constants: {phantom}"

    def test_every_ledger_note_key_is_documented(self):
        from repro.power.ledger import EnergyLedger
        from repro.power.model import DEFAULT_POWER_MODEL

        text = read(DOCS / "POWER.md")
        keys = EnergyLedger.from_components(
            makespan=1.0, n_prrs=1, model=DEFAULT_POWER_MODEL,
            task_s=0.0, config_full_s=0.0, config_partial_s=0.0,
        ).as_notes()
        missing = [k for k in keys if f"`{k}`" not in text]
        assert not missing, f"note keys absent from POWER.md: {missing}"

    def test_contracts_and_shed_reason_documented(self):
        text = read(DOCS / "POWER.md")
        for needle in (
            "`min_energy_deadline`", "`max_throughput_cap`",
            "`power_cap`", "--power-cap",
        ):
            assert needle in text, needle

    def test_conservation_invariant_is_cross_referenced(self):
        assert "energy-conservation" in INVARIANTS
        assert "`energy-conservation`" in read(DOCS / "POWER.md")

    def test_cli_verb_documented_and_linked_from_readme(self):
        text = read(DOCS / "POWER.md")
        assert "python -m repro power" in text
        assert "docs/POWER.md" in read(REPO / "README.md")


class TestIndexDoc:
    def test_every_doc_is_indexed(self):
        text = read(DOCS / "INDEX.md")
        missing = [
            p.name
            for p in sorted(DOCS.glob("*.md"))
            if p.name != "INDEX.md" and f"({p.name})" not in text
        ]
        assert not missing, f"docs absent from INDEX.md: {missing}"

    def test_no_phantom_docs_indexed(self):
        text = read(DOCS / "INDEX.md")
        linked = set(re.findall(r"\[([A-Z_]+\.md)\]", text))
        real = {p.name for p in DOCS.glob("*.md")}
        phantom = linked - real
        assert not phantom, f"INDEX.md links unknown docs: {phantom}"

    def test_every_indexed_doc_names_its_pinning_test(self):
        text = read(DOCS / "INDEX.md")
        rows = [
            line for line in text.splitlines()
            if line.startswith("| [")
        ]
        assert len(rows) >= 6
        for row in rows:
            assert "tests/test_docs.py::" in row, f"no pinning test: {row}"

    def test_linked_from_readme(self):
        assert "docs/INDEX.md" in read(REPO / "README.md")


class TestArchitectureDoc:
    def test_every_subsystem_is_mapped(self):
        text = read(DOCS / "ARCHITECTURE.md")
        packages = sorted(
            p.name
            for p in (REPO / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        )
        missing = [p for p in packages if f"repro.{p}" not in text]
        assert not missing, f"packages absent from ARCHITECTURE.md: {missing}"

    def test_readme_links_the_docs(self):
        text = read(REPO / "README.md")
        for target in (
            "docs/INDEX.md",
            "docs/ARCHITECTURE.md",
            "docs/OBSERVABILITY.md",
            "docs/MODEL.md",
            "docs/STATIC_ANALYSIS.md",
            "docs/RESILIENCE.md",
            "docs/PERFORMANCE.md",
        ):
            assert target in text, f"README does not link {target}"

    def test_readme_cli_examples_cover_new_verbs(self):
        text = read(REPO / "README.md")
        for verb in ("sweep", "trace", "metrics", "chaos", "serve", "lint"):
            assert f"python -m repro {verb}" in text, verb

    def test_readme_test_count_is_current(self):
        # the README quotes the tier-1 test count; keep it within 10%
        # of what `pytest tests/` actually collects so the quickstart
        # never advertises stale numbers
        text = read(REPO / "README.md")
        match = re.search(r"([\d,]+) unit/property/integration tests", text)
        assert match, "README no longer states the test count"
        quoted = int(match.group(1).replace(",", ""))
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests", "--collect-only", "-q"],
            capture_output=True, text=True, cwd=REPO,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO / "src"),
            },
        )
        per_file = re.findall(
            r"^tests[/\\]\S+: (\d+)$", proc.stdout, re.MULTILINE
        )
        assert per_file, proc.stdout[-500:]
        collected = sum(int(n) for n in per_file)
        assert abs(collected - quoted) <= collected * 0.10, (
            f"README claims {quoted} tests, pytest collects {collected}"
        )


class TestStaticAnalysisDoc:
    @pytest.fixture(autouse=True)
    def _tools_on_path(self, monkeypatch):
        monkeypatch.syspath_prepend(TOOLS)
        yield

    def test_every_rule_is_documented(self):
        from reprolint import all_rules

        text = read(DOCS / "STATIC_ANALYSIS.md")
        for rule in all_rules():
            assert f"`{rule.id}`" in text, f"no doc row for {rule.id}"
            assert rule.title in text, f"title drift for {rule.id}"

    def test_no_phantom_rules_documented(self):
        from reprolint import all_rules

        text = read(DOCS / "STATIC_ANALYSIS.md")
        documented = set(re.findall(r"`(RL\d{3})`", text))
        known = {rule.id for rule in all_rules()}
        assert documented == known, documented ^ known

    def test_rule_pass_column_matches_registry(self):
        from reprolint import all_rules

        text = read(DOCS / "STATIC_ANALYSIS.md")
        for rule in all_rules():
            row = next(
                (
                    line
                    for line in text.splitlines()
                    if line.startswith(f"| `{rule.id}` |")
                ),
                None,
            )
            assert row is not None, f"no table row for {rule.id}"
            expected = "local" if rule.local else "global"
            assert f"| {expected} |" in row, (
                f"pass-column drift for {rule.id}: expected {expected}"
            )

    def test_rl010_roots_are_documented(self):
        """The RL010 row names every root the rule reaches from."""
        from reprolint.rules import UnreachedCodeRule

        text = read(DOCS / "STATIC_ANALYSIS.md")
        row = next(
            line for line in text.splitlines()
            if line.startswith("| `RL010` |")
        )
        for path, name in UnreachedCodeRule.ENTRY_POINTS:
            assert f"`{path[:-3]}.{name}`" in row
        for reachers in ("`examples/*.py`", "`benchmarks/**/*.py`"):
            assert reachers in row

    def test_sarif_and_cache_surfaces_are_documented(self):
        from reprolint import CACHE_NAME
        from reprolint.sarif import SARIF_VERSION

        text = read(DOCS / "STATIC_ANALYSIS.md")
        assert "--sarif" in text and SARIF_VERSION in text
        assert CACHE_NAME in text and "--no-cache" in text

    def test_architecture_doc_links_the_linter(self):
        text = read(DOCS / "ARCHITECTURE.md")
        assert "STATIC_ANALYSIS.md" in text


class TestDocTools:
    @pytest.fixture(autouse=True)
    def _tools_on_path(self, monkeypatch):
        monkeypatch.syspath_prepend(TOOLS)
        yield

    def test_doc_links_resolve(self, capsys):
        import check_doc_links

        files = check_doc_links.default_files(REPO)
        assert len(files) >= 4  # README + MODEL/ARCHITECTURE/OBSERVABILITY
        rc = check_doc_links.main([str(f) for f in files])
        assert rc == 0, capsys.readouterr().out

    def test_link_checker_catches_breakage(self, tmp_path):
        import check_doc_links

        bad = tmp_path / "bad.md"
        bad.write_text("see [gone](no-such-file.md) and [a](#nope)\n")
        problems = check_doc_links.check_file(bad)
        assert len(problems) == 2

    def test_github_slugs(self):
        import check_doc_links

        assert check_doc_links.github_slug("Metric catalog") == (
            "metric-catalog"
        )
        assert check_doc_links.github_slug("## `code` & dashes!") == (
            "-code--dashes"
        )

    def test_docstring_gate_passes(self, capsys):
        import check_docstrings

        rc = check_docstrings.main(["--root", str(REPO / "src" / "repro")])
        assert rc == 0, capsys.readouterr().out

    def test_docstring_gate_fails_below_floor(self, capsys):
        import check_docstrings

        rc = check_docstrings.main(
            ["--root", str(REPO / "src" / "repro"), "--min-functions", "100"]
        )
        assert rc == 1

    def test_docstring_gate_counts_missing(self, tmp_path):
        import check_docstrings

        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            '"""Doc."""\n\ndef documented():\n    """Yes."""\n\n'
            "def bare():\n    pass\n"
        )
        rows = list(check_docstrings.audit_file(pkg / "mod.py"))
        kinds = [(kind, ok) for kind, ok, _loc in rows]
        assert ("module", True) in kinds
        assert ("function", True) in kinds
        assert ("function", False) in kinds
