"""reprolint: fixture-driven rule tests, engine mechanics, live-tree gate.

Each rule gets three fixture shapes under ``fixtures/<rule>/``: a
positive hit, a suppressed hit, and a clean file.  The whole-program
rules get interprocedural fixtures on top (``rl001x``, ``rl003x``)
proving findings that no per-file pass can see, and ``rl010`` is a
mini-repo with examples/, benchmarks/ and tests/ reachers.  The engine
itself is exercised (select/ignore, baseline round-trip, JSON output,
exit codes, SARIF export, the incremental fact cache), the ``repro
lint`` CLI verb is smoke-tested, and meta-tests gate the live tree:
zero unbaselined findings, no dead inline suppressions, and every
RL010 suppression naming its oracle test.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

if str(TOOLS) not in sys.path:  # the linter lives outside src/
    sys.path.insert(0, str(TOOLS))

from reprolint import (  # noqa: E402
    Finding,
    all_rules,
    load_baseline,
    run_lint,
    write_baseline,
)
from reprolint import engine as engine_mod  # noqa: E402


def lint_fixture(name: str, **kwargs):
    """Run the engine over one fixture mini-repo."""
    root = FIXTURES / name
    return run_lint(root / "src", root, **kwargs)


def by_file(result, filename: str) -> list[Finding]:
    """Findings whose path ends with ``filename``."""
    return [f for f in result.findings if f.path.endswith(filename)]


# -- RL001 determinism -----------------------------------------------------


class TestRL001:
    def test_positive_hits(self):
        result = lint_fixture("rl001", select=["RL001"])
        bad = by_file(result, "bad_clock.py")
        assert len(bad) == 5
        messages = " ".join(f.message for f in bad)
        assert "time.time" in messages
        assert "datetime.datetime.now" in messages
        assert "random.random" in messages
        assert "numpy.random.default_rng" in messages
        # the from-import still resolves to its banned origin
        assert "time.perf_counter" in messages

    def test_suppressed_hit_counted_not_reported(self):
        result = lint_fixture("rl001", select=["RL001"])
        assert not by_file(result, "suppressed_clock.py")
        assert any(
            f.path.endswith("suppressed_clock.py")
            for f in result.suppressed
        )

    def test_clean_file_has_no_findings(self):
        result = lint_fixture("rl001", select=["RL001"])
        assert not by_file(result, "clean_clock.py")


# -- RL002 float equality --------------------------------------------------


class TestRL002:
    def test_positive_hits(self):
        result = lint_fixture("rl002", select=["RL002"])
        bad = by_file(result, "bad_float_eq.py")
        assert len(bad) == 5

    def test_chained_and_walrus_comparisons_are_caught(self):
        """PR 5 false negatives: ``n < x == y/z`` hid the == pair from
        the old left/comparators[0] check; a walrus-bound float on the
        left did too."""
        result = lint_fixture("rl002", select=["RL002"])
        contexts = [f.context for f in by_file(result, "bad_float_eq.py")]
        assert any("n < speedup ==" in c for c in contexts)
        assert any(":=" in c for c in contexts)

    def test_clean_file_has_no_findings(self):
        result = lint_fixture("rl002", select=["RL002"])
        assert not by_file(result, "clean_float_eq.py")


# -- RL003 fork safety -----------------------------------------------------


class TestRL003:
    def test_seeded_run_sharded_regression_is_caught(self):
        """The acceptance scenario: a run_sharded-shaped walk whose
        worker mutates module state must be flagged."""
        result = lint_fixture("rl003", select=["RL003"])
        bad = by_file(result, "bad_worker.py")
        assert len(bad) == 3
        messages = " ".join(f.message for f in bad)
        assert "global COMPLETED" in messages
        assert "'RESULT_CACHE'" in messages
        assert ".update()" in messages and "'SETTINGS'" in messages

    def test_clean_shared_nothing_worker_passes(self):
        result = lint_fixture("rl003", select=["RL003"])
        assert not by_file(result, "clean_worker.py")

    def test_suppressed_intentional_reset(self):
        result = lint_fixture("rl003", select=["RL003"])
        assert not by_file(result, "suppressed_worker.py")
        assert any(
            f.path.endswith("suppressed_worker.py")
            for f in result.suppressed
        )


# -- interprocedural taint (the PR 10 tentpole) ----------------------------


class TestRL001Interprocedural:
    """A wall-clock two hops down an out-of-scope helper module."""

    def test_two_hop_chain_is_flagged_at_the_call_boundary(self):
        result = lint_fixture("rl001x", select=["RL001"])
        hits = by_file(result, "sim/uses_helper.py")
        assert len(hits) == 1
        msg = hits[0].message
        assert "transitively reaches time.time()" in msg
        # the rendered chain names both hops
        assert "util.entropy.jitter_ns" in msg
        assert "util.entropy._now" in msg

    def test_invisible_to_any_per_file_pass(self):
        """The scoped file contains no banned call of its own, and the
        sink lives in an unscoped module RL001 never reports on — only
        the call graph connects them."""
        result = lint_fixture("rl001x", select=["RL001"])
        assert not by_file(result, "util/entropy.py")
        scoped = (
            FIXTURES / "rl001x" / "src" / "sim" / "uses_helper.py"
        ).read_text(encoding="utf-8")
        assert "time.time" not in scoped

    def test_untainted_helper_from_same_module_is_clean(self):
        result = lint_fixture("rl001x", select=["RL001"])
        assert not by_file(result, "sim/clean_use.py")

    def test_suppression_works_at_the_call_site(self):
        result = lint_fixture("rl001x", select=["RL001"])
        assert not by_file(result, "sim/suppressed_use.py")
        assert any(
            f.path.endswith("suppressed_use.py") for f in result.suppressed
        )


class TestRL003Transitive:
    """A fork worker whose mutation hides one call away."""

    def test_callee_mutation_is_reached_through_the_closure(self):
        result = lint_fixture("rl003x", select=["RL003"])
        hits = by_file(result, "deep_worker.py")
        assert len(hits) == 1
        msg = hits[0].message
        assert "'CACHE'" in msg
        assert "reached from fork worker 'worker'" in msg
        assert "_merge" in msg

    def test_invisible_to_a_worker_body_scan(self):
        """The worker body itself mutates nothing module-level."""
        worker_src = (
            FIXTURES / "rl003x" / "src" / "runtime" / "deep_worker.py"
        ).read_text(encoding="utf-8")
        worker_body = worker_src.split("def worker")[1].split("def run")[0]
        assert "CACHE" not in worker_body


# -- RL004 metrics catalog -------------------------------------------------


class TestRL004:
    def test_undeclared_name_and_unreferenced_entry(self):
        result = lint_fixture("rl004", select=["RL004"])
        assert len(result.findings) == 2
        undeclared = by_file(result, "uses_metrics.py")
        assert len(undeclared) == 1
        assert "fix_typo_total" in undeclared[0].message
        unreferenced = by_file(result, "obs/metrics.py")
        assert len(unreferenced) == 1
        assert "fix_unreferenced_total" in unreferenced[0].message

    def test_rule_is_inert_without_a_catalog(self):
        result = lint_fixture("rl001", select=["RL004"])
        assert not result.findings


# -- RL005 journal bypass --------------------------------------------------


class TestRL005:
    def test_positive_hits(self):
        result = lint_fixture("rl005", select=["RL005"])
        bad = by_file(result, "bad_journal_writer.py")
        assert len(bad) == 3  # "a" open, os.open flags, f-string open

    def test_reads_and_other_files_are_clean(self):
        result = lint_fixture("rl005", select=["RL005"])
        assert not by_file(result, "clean_journal_reader.py")

    def test_owner_module_is_exempt(self):
        result = lint_fixture("rl005", select=["RL005"])
        assert not by_file(result, "runtime/journal.py")

    def test_runtime_renames_and_unlinks_need_the_owner(self):
        result = lint_fixture("rl005", select=["RL005"])
        bad = by_file(result, "runtime/bad_unlink.py")
        assert sorted(f.message.split("(")[0] for f in bad) == [
            "os.remove", "os.rename",
        ]
        assert all("directory fsync" in f.message for f in bad)

    def test_renames_and_unlinks_outside_runtime_are_clean(self):
        result = lint_fixture("rl005", select=["RL005"])
        assert not by_file(result, "clean_unlink.py")


# -- RL006 invariant drift -------------------------------------------------


class TestRL006:
    def test_both_drift_directions(self):
        result = lint_fixture("rl006", select=["RL006"])
        assert len(result.findings) == 2
        messages = " ".join(f.message for f in result.findings)
        assert "undocumented-check" in messages
        assert "phantom-check" in messages

    def test_registered_and_documented_name_is_clean(self):
        result = lint_fixture("rl006", select=["RL006"])
        assert not any(
            "clock-monotonic" in f.message for f in result.findings
        )

    def test_metric_dictionary_table_is_not_misparsed(self):
        result = lint_fixture("rl006", select=["RL006"])
        assert not any("'H'" in f.message for f in result.findings)


# -- RL007 audit coverage --------------------------------------------------


class TestRL007:
    def test_unaudited_and_branch_only_producers_are_flagged(self):
        result = lint_fixture("rl007", select=["RL007"])
        bad = by_file(result, "rtr/bad.py")
        assert len(bad) == 2
        messages = " ".join(f.message for f in bad)
        assert "'run_unaudited'" in messages
        assert "'run_half_audited'" in messages  # audit only under if
        assert "audit_and_record" in messages

    def test_direct_and_delegated_audits_are_clean(self):
        result = lint_fixture("rl007", select=["RL007"])
        assert not by_file(result, "rtr/good.py")

    def test_owner_and_auditor_modules_are_exempt(self):
        result = lint_fixture("rl007", select=["RL007"])
        assert not by_file(result, "rtr/events.py")
        assert not by_file(result, "runtime/invariants.py")

    def test_suppressed_probe(self):
        result = lint_fixture("rl007", select=["RL007"])
        assert not by_file(result, "rtr/suppressed.py")
        assert any(
            f.path.endswith("rtr/suppressed.py") for f in result.suppressed
        )


# -- RL008 CLI-surface conformance -----------------------------------------


class TestRL008:
    def expect(self, result, fragment: str) -> Finding:
        hits = [f for f in result.findings if fragment in f.message]
        assert len(hits) == 1, (fragment, result.findings)
        return hits[0]

    def test_all_five_drift_directions(self):
        result = lint_fixture("rl008", select=["RL008"])
        assert len(result.findings) == 5
        self.expect(
            result, "'ghost' is dispatched by _COMMANDS but never "
        )
        self.expect(
            result, "'stale' is registered but missing from the _COMMANDS"
        )
        self.expect(result, "'plot' is undocumented")
        self.expect(result, "'ghost' is undocumented")
        phantom = self.expect(result, "advertises repro verb 'vanished'")
        assert phantom.path == "README.md"

    def test_fully_wired_verb_is_clean(self):
        result = lint_fixture("rl008", select=["RL008"])
        assert not any("'run'" in f.message for f in result.findings)

    def test_suppressed_undocumented_verb(self):
        result = lint_fixture("rl008", select=["RL008"])
        assert [
            f for f in result.suppressed if "'quiet'" in f.message
        ]

    def test_rule_is_inert_without_a_dispatch_table(self):
        result = lint_fixture("rl001", select=["RL008"])
        assert not result.findings


# -- RL009 frozen-config mutation ------------------------------------------


class TestRL009:
    def test_three_write_shapes_are_flagged(self):
        result = lint_fixture("rl009", select=["RL009"])
        bad = by_file(result, "model/bad.py")
        assert len(bad) == 3
        messages = " ".join(f.message for f in bad)
        assert "object.__setattr__(...) writes Spec.n_ops" in messages
        assert "setattr(...) writes Spec.scale" in messages
        assert "assignment to Spec.n_ops" in messages
        assert "dataclasses.replace" in messages

    def test_constructor_and_replace_and_unfrozen_are_clean(self):
        result = lint_fixture("rl009", select=["RL009"])
        assert not by_file(result, "model/spec.py")  # __post_init__ path
        assert not by_file(result, "model/clean.py")

    def test_suppressed_thaw(self):
        result = lint_fixture("rl009", select=["RL009"])
        assert not by_file(result, "model/suppressed.py")
        assert any(
            f.path.endswith("model/suppressed.py")
            for f in result.suppressed
        )


# -- RL010 unreached code --------------------------------------------------


class TestRL010:
    """Reach follows every name read, from every kind of root."""

    def test_only_the_test_reached_def_is_flagged(self):
        result = lint_fixture("rl010", select=["RL010"])
        assert [f.message.split(" is ")[0] for f in result.findings] == [
            "function 'test_only'"
        ]
        # a package re-export of it does not count as reach
        assert result.findings[0].path.endswith("lib/shapes.py")

    @pytest.mark.parametrize("name", [
        "example_only",    # imported by an examples/ file
        "bench_only",      # spelled in a benchmarks/ dotted-string table
        "RegistryOnly",    # a value in a module-level registry dict
        "CaughtOnly",      # named in an except clause
        "CheckedOnly",     # named in an isinstance check
        "callback_only",   # passed as a callback argument
        "_oracle_helper",  # read by a suppressed oracle
    ])
    def test_reach_shapes_are_followed(self, name):
        result = lint_fixture("rl010", select=["RL010"])
        assert not [f for f in result.findings if f"'{name}'" in f.message]

    def test_suppressed_oracle(self):
        result = lint_fixture("rl010", select=["RL010"])
        assert [f.message.split(" is ")[0] for f in result.suppressed] == [
            "function 'oracle_only'"
        ]

    def test_rule_is_inert_without_an_entry_point(self):
        result = lint_fixture("rl001", select=["RL010"])
        assert not result.findings

    def test_editing_an_example_reruns_the_global_pass(self, tmp_path):
        """Examples are inputs of the cached global verdict."""
        root = tmp_path / "rl010"
        shutil.copytree(FIXTURES / "rl010", root)
        cache = tmp_path / "cache.json"
        run_lint(root / "src", root, cache_path=cache)
        warm = run_lint(root / "src", root, cache_path=cache)
        assert warm.parsed == 0
        assert not [f for f in warm.findings if "example_only" in f.message]
        (root / "examples" / "demo.py").write_text("print('no reach')\n")
        edited = run_lint(root / "src", root, cache_path=cache)
        assert edited.parsed == 0  # no source file changed ...
        assert [  # ... yet the verdict was recomputed, not replayed
            f for f in edited.findings if "'example_only'" in f.message
        ]


class TestResolution:
    """Re-export resolution the reach closure depends on."""

    def project(self, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from .impl import run\n\n\n"
            "def __getattr__(name):\n"
            "    from . import lazy\n\n"
            "    return getattr(lazy, name)\n"
        )
        (pkg / "impl.py").write_text("def run():\n    return 1\n")
        (pkg / "lazy.py").write_text("def late():\n    return 2\n")
        return engine_mod.Project(tmp_path / "src", tmp_path)

    def test_package_relative_import_anchors_at_the_package(self, tmp_path):
        symbols = self.project(tmp_path).symbols
        assert symbols.by_module["pkg"].imports["run"] == "pkg.impl.run"
        assert symbols.top_level_def("pkg.run") == ("pkg/impl.py", "run")

    def test_pep562_lazy_export_resolves(self, tmp_path):
        symbols = self.project(tmp_path).symbols
        assert symbols.top_level_def("pkg.late") == ("pkg/lazy.py", "late")


# -- engine mechanics ------------------------------------------------------


class TestEngine:
    def test_select_and_ignore(self):
        everything = lint_fixture("rl001")
        only = lint_fixture("rl001", select=["RL001"])
        none = lint_fixture("rl001", ignore=["RL001"])
        assert {f.rule for f in everything.findings} == {"RL001"}
        assert len(only.findings) == len(everything.findings)
        assert not none.findings

    def test_findings_are_sorted_and_carry_context(self):
        result = lint_fixture("rl001", select=["RL001"])
        keys = [f.sort_key() for f in result.findings]
        assert keys == sorted(keys)
        for finding in result.findings:
            assert finding.context  # the stripped source line

    def test_baseline_round_trip(self, tmp_path):
        result = lint_fixture("rl001", select=["RL001"])
        assert result.findings
        path = tmp_path / "baseline.json"
        write_baseline(path, result.findings)
        entries = load_baseline(path)
        assert len(entries) == len(result.findings)
        assert all(e["justification"] for e in entries)
        new, matched, stale = result.partition(entries)
        assert not new and not stale
        assert len(matched) == len(result.findings)

    def test_baseline_does_not_absorb_second_occurrence(self):
        result = lint_fixture("rl001", select=["RL001"])
        one = result.findings[0]
        entries = [
            {"rule": one.rule, "path": one.path, "context": one.context}
        ]
        new, matched, _ = result.partition(entries)
        assert len(matched) == 1
        assert len(new) == len(result.findings) - 1

    def test_stale_baseline_entry_is_reported(self):
        result = lint_fixture("rl001", select=["RL001"])
        entries = [
            {"rule": "RL001", "path": "gone.py", "context": "x = 1"}
        ]
        new, _, stale = result.partition(entries)
        assert len(stale) == 1
        assert len(new) == len(result.findings)

    def test_load_baseline_rejects_garbage(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_parse_error_is_reported_not_fatal(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "broken.py").write_text("def oops(:\n")
        (src / "fine.py").write_text('"""Doc."""\n')
        result = run_lint(src, tmp_path)
        assert len(result.errors) == 1
        assert result.files == 1

    def test_rule_registry_metadata(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert ids == sorted(ids)
        assert ids == [f"RL{i:03d}" for i in range(1, 11)]
        for rule in rules:
            assert rule.title and rule.rationale and rule.example


class TestCommandLine:
    def test_main_exit_codes_and_json(self, tmp_path, capsys, monkeypatch):
        fixture = FIXTURES / "rl001"
        rc = engine_mod.main(
            [
                "--repo-root", str(fixture),
                "--root", str(fixture / "src"),
                "--no-baseline", "--json", "--no-cache",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["findings"]
        assert payload["suppressed"]
        assert payload["files"] == 3

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        fixture = FIXTURES / "rl001"
        baseline = tmp_path / "baseline.json"
        rc = engine_mod.main(
            [
                "--repo-root", str(fixture),
                "--root", str(fixture / "src"),
                "--baseline", str(baseline),
                "--write-baseline", "--no-cache",
            ]
        )
        assert rc == 0 and baseline.exists()
        capsys.readouterr()
        rc = engine_mod.main(
            [
                "--repo-root", str(fixture),
                "--root", str(fixture / "src"),
                "--baseline", str(baseline), "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out

    def test_missing_root_is_usage_error(self, tmp_path, capsys):
        rc = engine_mod.main(
            ["--repo-root", str(tmp_path), "--root", str(tmp_path / "nope")]
        )
        assert rc == 2

    def test_unknown_rule_id_is_usage_error(self, capsys):
        fixture = FIXTURES / "rl001"
        rc = engine_mod.main(
            [
                "--repo-root", str(fixture),
                "--root", str(fixture / "src"),
                "--select", "RL999", "--no-cache",
            ]
        )
        assert rc == 2
        assert "unknown rule id" in capsys.readouterr().err
        with pytest.raises(ValueError):
            run_lint(fixture / "src", fixture, ignore=["NOPE"])

    def test_repro_lint_cli_verb(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_repro_lint_select_listing(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005",
                        "RL006", "RL007", "RL008", "RL009", "RL010"):
            assert rule_id in out
        # every rule ships a worked example and declares its pass
        assert out.count("e.g.") >= 10
        assert "whole-program" in out and "per-file" in out


# -- incremental cache -----------------------------------------------------


class TestCache:
    def copy_fixture(self, tmp_path, name="rl001"):
        root = tmp_path / name
        shutil.copytree(FIXTURES / name, root)
        return root

    def test_warm_run_reparses_zero_files(self, tmp_path):
        root = self.copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        cold = run_lint(root / "src", root, cache_path=cache)
        assert cold.parsed == cold.files > 0
        warm = run_lint(root / "src", root, cache_path=cache)
        assert warm.parsed == 0
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed

    def test_editing_one_file_reparses_only_that_file(self, tmp_path):
        root = self.copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        cold = run_lint(root / "src", root, cache_path=cache)
        target = root / "src" / "sim" / "clean_clock.py"
        target.write_text(
            target.read_text(encoding="utf-8") + "\n\nX = 1\n",
            encoding="utf-8",
        )
        warm = run_lint(root / "src", root, cache_path=cache)
        assert warm.parsed == 1
        assert warm.findings == cold.findings

    def test_cached_parse_errors_are_replayed(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "broken.py").write_text("def oops(:\n")
        cache = tmp_path / "cache.json"
        cold = run_lint(src, tmp_path, cache_path=cache)
        warm = run_lint(src, tmp_path, cache_path=cache)
        assert len(cold.errors) == len(warm.errors) == 1
        assert warm.parsed == 0

    def test_ruleset_change_drops_the_cache(self, tmp_path):
        root = self.copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        cold = run_lint(root / "src", root, cache_path=cache)
        data = json.loads(cache.read_text(encoding="utf-8"))
        data["ruleset"] = "someone-edited-a-rule"
        cache.write_text(json.dumps(data), encoding="utf-8")
        warm = run_lint(root / "src", root, cache_path=cache)
        assert warm.parsed == cold.files  # wholesale invalidation

    def test_select_runs_never_touch_the_global_cache(self, tmp_path):
        """A --select run must not poison the cached full-run verdict."""
        root = self.copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        full = run_lint(root / "src", root, cache_path=cache)
        partial = run_lint(
            root / "src", root, cache_path=cache, select=["RL002"]
        )
        assert not partial.findings  # rl001 has no RL002 hits
        again = run_lint(root / "src", root, cache_path=cache)
        assert again.findings == full.findings
        assert again.parsed == 0


# -- SARIF export ----------------------------------------------------------


class TestSarif:
    def render(self, tmp_path):
        fixture = FIXTURES / "rl001"
        out = tmp_path / "lint.sarif"
        rc = engine_mod.main(
            [
                "--repo-root", str(fixture),
                "--root", str(fixture / "src"),
                "--no-baseline", "--no-cache",
                "--sarif", str(out),
            ]
        )
        assert rc == 1
        return json.loads(out.read_text(encoding="utf-8"))

    def test_document_matches_the_2_1_0_shape(self, tmp_path, capsys):
        doc = self.render(tmp_path)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert {r["id"] for r in driver["rules"]} == {
            rule.id for rule in all_rules()
        }
        for descriptor in driver["rules"]:
            assert descriptor["shortDescription"]["text"]
            assert descriptor["fullDescription"]["text"]

    def test_results_carry_location_region_and_snippet(
        self, tmp_path, capsys
    ):
        doc = self.render(tmp_path)
        results = doc["runs"][0]["results"]
        assert results
        for row in results:
            assert row["ruleId"].startswith("RL")
            location = row["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]
            region = location["region"]
            assert region["startLine"] >= 1
            assert region["snippet"]["text"]

    def test_suppressed_findings_are_dismissed_not_dropped(
        self, tmp_path, capsys
    ):
        doc = self.render(tmp_path)
        results = doc["runs"][0]["results"]
        kinds = {
            s["kind"] for row in results
            for s in row.get("suppressions", [])
        }
        assert "inSource" in kinds
        plain = [row for row in results if "suppressions" not in row]
        assert plain  # the live findings are still first-class


# -- the live tree ---------------------------------------------------------


@pytest.fixture(scope="module")
def live_lint():
    """One whole-tree lint shared by the live-tree meta-tests."""
    return run_lint(REPO / "src" / "repro", REPO)


class TestLiveTree:
    def test_tree_is_clean_under_committed_baseline(self, live_lint):
        """The CI gate: zero unbaselined findings on the real tree."""
        result = live_lint
        assert not result.errors
        baseline = load_baseline(
            TOOLS / "reprolint" / "baseline.json"
        )
        new, _, stale = result.partition(baseline)
        assert not new, [f"{f.path}:{f.line} {f.rule} {f.message}"
                         for f in new]
        assert not stale, f"stale baseline entries: {stale}"

    def test_live_tree_suppressions_are_justified(self, live_lint):
        """Every inline suppression sits next to a why-comment."""
        for finding in live_lint.suppressed:
            text = (REPO / finding.path).read_text(encoding="utf-8")
            lines = text.splitlines()
            above = "\n".join(lines[max(0, finding.line - 6):
                                    finding.line - 1])
            assert "#" in above, (
                f"suppression at {finding.path}:{finding.line} has no "
                "justifying comment above it"
            )

    def test_no_dead_suppressions_in_the_live_tree(self, live_lint):
        """Every inline ``# reprolint: disable=RLxxx`` in src/repro
        names a rule that actually fires on that exact line.  A
        suppression that no longer suppresses anything is drift: the
        hazard it excused was either fixed or moved."""
        fired = {(f.path, f.line, f.rule) for f in live_lint.suppressed}
        declared = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            text = path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                match = engine_mod._SUPPRESS_RE.search(line)
                if not match:
                    continue
                for part in match.group(1).split(","):
                    if part.strip():
                        declared.append(
                            (rel, lineno, part.strip().upper())
                        )
        assert declared  # the tree does use the mechanism
        dead = [entry for entry in declared if entry not in fired]
        assert not dead, f"dead suppressions: {dead}"

    def test_rl010_suppressions_name_their_oracle_test(self, live_lint):
        """A def kept despite RL010 must say which test uses it as an
        oracle: the comment above it names an existing test file that
        references the def."""
        kept = [f for f in live_lint.suppressed if f.rule == "RL010"]
        assert kept
        for finding in kept:
            lines = (REPO / finding.path).read_text(
                encoding="utf-8"
            ).splitlines()
            above = "\n".join(lines[max(0, finding.line - 6):
                                    finding.line - 1])
            name = finding.message.split("'")[1]
            tests = re.findall(r"tests/[\w/]+\.py", above)
            assert tests, f"{finding.path}:{finding.line} names no test"
            for test in tests:
                text = (REPO / test).read_text(encoding="utf-8")
                assert re.search(rf"\b{name}\b", text), (test, name)

    def test_planted_regression_is_caught(self, tmp_path):
        """Copy the tree, plant a wall-clock read in the DES kernel,
        assert the linter newly flags it."""
        src = tmp_path / "src" / "repro"
        shutil.copytree(REPO / "src" / "repro", src)
        engine = src / "sim" / "engine.py"
        text = engine.read_text(encoding="utf-8")
        text = text.replace(
            "import heapq",
            "import heapq\nimport time as _wall\n\n"
            "def _leak():\n    return _wall.time()\n",
            1,
        )
        engine.write_text(text, encoding="utf-8")
        result = run_lint(src, tmp_path)
        hits = [
            f for f in result.findings
            if f.rule == "RL001" and f.path.endswith("sim/engine.py")
        ]
        assert len(hits) == 1


class TestServiceScope:
    """RL001/RL003 cover the service package (open-arrival scheduler)."""

    def test_rule_scopes_include_service(self):
        from reprolint.rules import DeterminismRule, ForkSafetyRule

        class Mod:
            src_rel = "service/scheduler.py"

        assert "service/" in DeterminismRule.scope
        assert DeterminismRule().applies(Mod())
        # RL003 has no scope restriction: empty tuple == whole tree.
        assert ForkSafetyRule.scope == ()
        assert ForkSafetyRule().applies(Mod())

    def test_planted_wall_clock_in_service_is_caught(self, tmp_path):
        src = tmp_path / "src" / "repro"
        shutil.copytree(REPO / "src" / "repro", src)
        sched = src / "service" / "scheduler.py"
        text = sched.read_text(encoding="utf-8")
        text = text.replace(
            "from __future__ import annotations",
            "from __future__ import annotations\nimport time as _wall\n"
            "def _leak():\n    return _wall.time()\n",
            1,
        )
        sched.write_text(text, encoding="utf-8")
        result = run_lint(src, tmp_path)
        hits = [
            f for f in result.findings
            if f.rule == "RL001"
            and f.path.endswith("service/scheduler.py")
        ]
        assert len(hits) == 1

    def test_planted_unseeded_rng_in_arrivals_is_caught(self, tmp_path):
        src = tmp_path / "src" / "repro"
        shutil.copytree(REPO / "src" / "repro", src)
        arrivals = src / "service" / "arrivals.py"
        text = arrivals.read_text(encoding="utf-8")
        text = text.replace(
            "import math",
            "import math\nimport random\n\n"
            "def _leaky_jitter():\n    return random.random()\n",
            1,
        )
        arrivals.write_text(text, encoding="utf-8")
        result = run_lint(src, tmp_path)
        hits = [
            f for f in result.findings
            if f.rule == "RL001"
            and f.path.endswith("service/arrivals.py")
        ]
        assert len(hits) == 1
