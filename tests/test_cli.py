"""Tests for the command-line interface (``python -m repro ...``)."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        for cmd in (
            "table1", "table2", "profiles", "validate",
            "ablation-prefetch", "ablation-granularity",
        ):
            args = build_parser().parse_args([cmd])
            assert args.command == cmd

    def test_every_dispatch_verb_is_registered(self):
        # the linter's RL008 checks this bidirectionally against the
        # docs; here we pin parser registration, including "all"
        from repro.cli import _COMMANDS

        parser = build_parser()
        assert "all" in _COMMANDS
        for verb in _COMMANDS:
            sub = parser.parse_args([verb] if verb != "sweep" and
                                    verb != "power" else
                                    [verb, "--run-dir", "r"])
            assert sub.command == verb

    def test_fig5_options(self):
        args = build_parser().parse_args(
            ["fig5", "--x-prtr", "0.05", "--csv", "out.csv"]
        )
        assert args.x_prtr == 0.05
        assert args.csv == "out.csv"

    def test_fig9_panel_choices(self):
        args = build_parser().parse_args(["fig9", "--panel", "measured"])
        assert args.panel == "measured"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "--panel", "wrong"])


class TestCommands:
    def test_table1_exits_zero(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Median Filter" in out
        assert "match the published" in out

    def test_table2_exits_zero(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Dual PRR" in out
        assert "Out-of-sample" in out

    def test_fig5_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "fig5.csv"
        assert main(["fig5", "--csv", str(csv)]) == 0
        assert csv.exists()
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_fig9_one_panel(self, capsys, tmp_path):
        csv = tmp_path / "fig9.csv"
        rc = main([
            "fig9", "--panel", "measured", "--calls", "24",
            "--csv", str(csv),
        ])
        assert rc == 0
        assert (tmp_path / "fig9_measured.csv").exists()
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_profiles(self, capsys):
        assert main(["profiles", "--width", "50"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_ablation_prefetch_small(self, capsys):
        assert main(["ablation-prefetch", "--calls", "200"]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "belady" in out

    def test_ablation_granularity(self, capsys):
        assert main(["ablation-granularity"]) == 0
        assert "PRRs" in capsys.readouterr().out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        assert "VALIDATION PASS" in capsys.readouterr().out

    def test_faults_sweep(self, capsys, tmp_path):
        csv = tmp_path / "faults.csv"
        rc = main([
            "faults", "--rates", "0,0.03,0.2", "--hit-ratios", "0,0.9",
            "--calls", "12", "--csv", str(csv),
        ])
        assert rc == 0
        assert csv.exists()
        out = capsys.readouterr().out
        assert "crossover" in out
        assert "PASS" in out and "FAIL" not in out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


SWEEP_ARGS = [
    "--rates", "0,0.01", "--hit-ratios", "0", "--calls", "6",
    "--task-time", "0.05", "--quiet",
]


class TestSweep:
    def test_end_to_end_writes_journal_and_report(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        csv = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--run-dir", str(run_dir), "--csv", str(csv)]
            + SWEEP_ARGS
        )
        assert rc == 0
        assert (run_dir / "journal.jsonl").exists()
        assert (run_dir / "invariants.json").exists()
        assert csv.exists()
        out = capsys.readouterr().out
        assert "Crash-safe fault sweep" in out
        assert "invariants: " in out and "OK" in out

    def test_zero_deadline_exits_3_then_resume_completes(
        self, capsys, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        rc = main(
            ["sweep", "--run-dir", run_dir, "--deadline", "0"] + SWEEP_ARGS
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "rerun with --resume" in err

        rc = main(["sweep", "--run-dir", run_dir, "--resume"] + SWEEP_ARGS)
        assert rc == 0
        assert "replayed 0, computed 2" in capsys.readouterr().out

    def test_resume_replays_a_finished_run(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        assert main(["sweep", "--run-dir", run_dir] + SWEEP_ARGS) == 0
        capsys.readouterr()
        assert (
            main(["sweep", "--run-dir", run_dir, "--resume"] + SWEEP_ARGS)
            == 0
        )
        assert "replayed 2, computed 0" in capsys.readouterr().out

    def test_strict_invariants_flag_accepted(self, capsys, tmp_path):
        rc = main(
            ["sweep", "--run-dir", str(tmp_path / "r"),
             "--strict-invariants"] + SWEEP_ARGS
        )
        assert rc == 0
        # The global strict flag must be restored afterwards.
        from repro.runtime.invariants import strict_enabled

        assert not strict_enabled()


class TestErrorHandling:
    """Usage failures exit 2 with one stderr line and no traceback."""

    def one_line(self, capsys) -> str:
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1, err
        assert "Traceback" not in err
        return lines[0]

    def test_existing_run_dir_without_resume(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        assert main(["sweep", "--run-dir", run_dir] + SWEEP_ARGS) == 0
        capsys.readouterr()
        rc = main(["sweep", "--run-dir", run_dir] + SWEEP_ARGS)
        assert rc == 2
        line = self.one_line(capsys)
        assert line.startswith("repro: error:") and "--resume" in line

    @pytest.mark.parametrize("verb, grid", [
        ("sweep", SWEEP_ARGS),
        ("power", ["--prrs", "2", "--hit-ratios", "0", "--calls", "6",
                   "--quiet"]),
    ])
    def test_resume_with_drifted_seed_names_the_field(
        self, capsys, tmp_path, verb, grid
    ):
        run_dir = str(tmp_path / "run")
        assert main([verb, "--run-dir", run_dir] + grid) == 0
        capsys.readouterr()
        rc = main(
            [verb, "--run-dir", run_dir, "--resume", "--seed", "1"] + grid
        )
        assert rc == 2
        line = self.one_line(capsys)
        assert line.startswith("repro: error:") and "does not match" in line
        assert "seed: journaled 0, requested 1" in line

    def test_resume_of_missing_run_dir(self, capsys, tmp_path):
        rc = main(
            ["sweep", "--run-dir", str(tmp_path / "nope"), "--resume"]
            + SWEEP_ARGS
        )
        assert rc == 2
        assert "no journal" in self.one_line(capsys)

    def test_bad_rates_value(self, capsys):
        assert main(["faults", "--rates", "abc"]) == 2
        line = self.one_line(capsys)
        assert "comma-separated numbers" in line and "abc" in line

    def test_bad_sweep_hit_ratios(self, capsys, tmp_path):
        rc = main(
            ["sweep", "--run-dir", str(tmp_path / "r"),
             "--hit-ratios", "x,y"]
        )
        assert rc == 2
        assert "--hit-ratios" in self.one_line(capsys)

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2


class TestReport:
    def test_report_generates_and_passes(self, capsys, tmp_path):
        out_path = tmp_path / "REPORT.md"
        rc = main(["report", "--calls", "24", "--output", str(out_path)])
        assert rc == 0
        text = out_path.read_text()
        assert "# Reproduction report" in text
        assert "Table 1" in text and "Figure 9" in text
        assert "**PASS**" in text and "**FAIL**" not in text

    def test_all_excludes_report(self, capsys):
        from repro.cli import _COMMANDS

        assert "report" in _COMMANDS  # present as its own command


class TestObservabilityVerbs:
    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", "--out", str(out), "--calls", "9"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "perfetto" in printed
        from repro.obs.tracing import validate_chrome_trace

        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert document["displayTimeUnit"] == "ms"
        assert any(
            ev["ph"] == "X" for ev in document["traceEvents"]
        )

    def test_trace_leaves_observability_disabled(self, tmp_path):
        from repro.obs import metrics

        main(["trace", "--out", str(tmp_path / "t.json"), "--calls", "6"])
        assert not metrics.enabled()

    def test_metrics_prints_counters_and_rollup(self, capsys):
        rc = main(["metrics", "--calls", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_cache_events_total" in out
        assert "ICAP occupancy" in out
        assert "measured speedup" in out
        assert "invariants: 1 checked, OK" in out

    def test_metrics_json_snapshot(self, capsys):
        import json

        rc = main(["metrics", "--calls", "6", "--json"])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "repro_calls_total" in snapshot
        assert snapshot["repro_calls_total"]["kind"] == "counter"

    def test_metrics_profile_table(self, capsys):
        rc = main(["metrics", "--calls", "6", "--profile", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DES hot-path profile" in out
        assert "event type" in out


class TestFig5Golden:
    """``repro fig5`` stdout and CSV bytes, pinned in ``tests/golden/fig5/``.

    Eq. (7) is closed form, so the grid is evaluated once and shared by
    the plot and the CSV.  Stdout is stored verbatim; the 1,200-row CSV
    is pinned by its SHA-256.
    """

    GOLDEN = Path(__file__).parent / "golden" / "fig5"

    def test_stdout_is_pinned(self, capsys):
        assert main(["fig5"]) == 0
        expected = (self.GOLDEN / "stdout.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_csv_run_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig5", "--csv", "fig5.csv"]) == 0
        expected = (self.GOLDEN / "csv-stdout.txt").read_text(
            encoding="utf-8"
        )
        assert capsys.readouterr().out == expected
        digest = hashlib.sha256((tmp_path / "fig5.csv").read_bytes())
        assert digest.hexdigest() == (
            self.GOLDEN / "fig5.csv.sha256"
        ).read_text(encoding="utf-8").strip()


class TestFig9Golden:
    """``repro fig9 --calls 24`` stdout and both panels' CSVs, pinned in
    ``tests/golden/fig9/`` (recorded before the CLI shared one
    simulation per panel between the plot and the CSV)."""

    GOLDEN = Path(__file__).parent / "golden" / "fig9"

    def test_stdout_is_pinned(self, capsys):
        assert main(["fig9", "--calls", "24"]) == 0
        expected = (self.GOLDEN / "stdout.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_csv_run_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig9", "--calls", "24", "--csv", "fig9.csv"]) == 0
        expected = (self.GOLDEN / "csv-stdout.txt").read_text(
            encoding="utf-8"
        )
        assert capsys.readouterr().out == expected
        for which in ("estimated", "measured"):
            name = f"fig9_{which}.csv"
            assert (tmp_path / name).read_bytes() == (
                self.GOLDEN / name
            ).read_bytes()

    def test_csv_run_simulates_each_panel_once(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.experiments import fig9

        panels = []
        real = fig9.simulate_points

        def counting(p, *args, **kwargs):
            panels.append(p.name)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(fig9, "simulate_points", counting)
        monkeypatch.chdir(tmp_path)
        assert main(["fig9", "--calls", "12", "--csv", "fig9.csv"]) == 0
        assert panels == ["Fig 9(a) estimated", "Fig 9(b) measured"]


class TestFaultsGolden:
    """``repro faults`` stdout and CSV, pinned in ``tests/golden/faults/``.

    The default 24-cell grid runs 21 cells on the DES with up to 85
    ICAP write aborts each, so these bytes pin the faulty configuration
    path end to end.
    """

    GOLDEN = Path(__file__).parent / "golden" / "faults"

    def test_stdout_is_pinned(self, capsys):
        assert main(["faults"]) == 0
        expected = (self.GOLDEN / "stdout.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_csv_run_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["faults", "--csv", "faults.csv"]) == 0
        expected = (self.GOLDEN / "csv-stdout.txt").read_text(
            encoding="utf-8"
        )
        assert capsys.readouterr().out == expected
        assert (tmp_path / "faults.csv").read_bytes() == (
            self.GOLDEN / "faults.csv"
        ).read_bytes()


class TestLintForwarding:
    """``repro lint`` hands its arguments to reprolint's own parser."""

    def test_help_lists_every_reprolint_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--json", "--baseline", "--no-baseline", "--write-baseline",
            "--select", "--ignore", "--list-rules", "--sarif", "--no-cache",
        ):
            assert flag in out

    def test_unknown_flag_on_another_verb_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--no-such-flag"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error: unrecognized arguments: --no-such-flag" in err
