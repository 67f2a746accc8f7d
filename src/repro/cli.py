"""Command-line interface: regenerate any paper artifact from a shell.

    python -m repro table1
    python -m repro table2
    python -m repro fig5 --x-prtr 0.17 --csv fig5.csv
    python -m repro fig9 --panel measured --calls 120
    python -m repro profiles
    python -m repro ablation-prefetch --calls 2000
    python -m repro ablation-granularity
    python -m repro faults --rates 0,0.01,0.1,0.3
    python -m repro sweep --run-dir runs/night --deadline 3600
    python -m repro sweep --run-dir runs/night --resume
    python -m repro power --run-dir runs/pareto --contract-deadline 6
    python -m repro trace --out trace.json
    python -m repro metrics --profile
    python -m repro validate
    python -m repro lint --json
    python -m repro all

Every subcommand prints the same text tables/plots the benchmark harness
shows, and optionally writes the figure's data series as CSV.

Exit codes: 0 success, 1 a claim or invariant check failed, 2 usage
error (bad arguments, missing or already-existing run directory — one
line on stderr, no traceback), 3 a watchdog deadline interrupted the
run (resume it with ``--resume``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .analysis import render_table, write_csv
from .runtime.invariants import InvariantError, set_strict, strict_enabled

if TYPE_CHECKING:
    from .runtime.parallel import GridOutcome

__all__ = ["main", "build_parser"]


def _parse_floats(
    text: str, what: str, default: Sequence[float] = ()
) -> list[float]:
    """Parse ``"0,0.5,0.9"`` (``default`` when empty) with a one-line error."""
    if not text:
        return list(default)
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--{what} expects comma-separated numbers, got {text!r}"
        ) from None


def _series_by_h(
    points: Sequence[Any],
    hit_ratios: Sequence[float],
    x: Callable[[Any], float],
    y: Callable[[Any], float],
) -> dict[str, tuple[list[float], list[float]]]:
    """One ``H=<h>`` plot/CSV series per target hit ratio."""
    return {
        f"H={h:g}": (
            [x(p) for p in points if p.target_hit_ratio == h],
            [y(p) for p in points if p.target_hit_ratio == h],
        )
        for h in hit_ratios
    }


def _run_journaled(
    args: argparse.Namespace,
    verb: str,
    run: Callable[..., "GridOutcome"],
    render: Callable[["GridOutcome"], None],
    *,
    unit: str = "points",
    rows: Sequence[tuple[str, str]] = (),
    csv_rows: Callable[["GridOutcome"], Any] | None = None,
) -> int:
    """The lifecycle every journaled verb (sweep/power/serve/chaos) shares.

    Calls ``run`` — a ``crash_safe_*`` driver with its grid bound — with
    the shared run flags, lets ``render`` print the results, prints the
    run-dir summary block (``rows`` first), writes ``--csv`` from
    ``csv_rows``, and maps the outcome to the exit code: 3 when the
    deadline cut the run short (resumable), else 0/1 from the audit.
    """
    outcome = run(
        args.run_dir,
        resume=args.resume,
        deadline_s=args.deadline,
        workers=args.workers,
        progress=None if args.quiet else (lambda m: print(f"... {m}")),
    )
    render(outcome)
    rows = [
        *rows,
        ("run dir", args.run_dir),
        (
            f"journaled {unit}",
            f"{outcome.journal.n_points} (replayed "
            f"{outcome.resumed_points}, computed {outcome.computed_points})",
        ),
    ]
    # Labels pad to a 17-column minimum (the sweep verbs' layout).
    width = max(17, *(len(label) for label, _ in rows))
    print()
    for label, value in rows:
        print(f"  {label:<{width}}: {value}")
    print(f"  {outcome.audit.summary_line()}")
    if csv_rows is not None and args.csv:
        write_csv(args.csv, csv_rows(outcome))
        print(f"\nwrote {args.csv}")
    if outcome.interrupted is not None:
        done = "work is" if unit == "points" else f"{unit} are"
        print(
            f"repro: {verb} interrupted ({outcome.interrupted}); "
            f"completed {done} journaled — rerun with --resume",
            file=sys.stderr,
        )
        return 3
    return 0 if outcome.audit.ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import table1

    print(table1.render())
    mismatches = table1.verify_against_published()
    if mismatches:
        print(f"\nMISMATCHES vs published: {mismatches}")
        return 1
    print("\nAll cells match the published Table 1 exactly.")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .analysis import cross_validate
    from .experiments import table2

    print(table2.render())
    failures = table2.verify_against_published()
    for check in cross_validate():
        print(
            f"\nOut-of-sample check: {check.layout} predicted "
            f"{check.predicted_s * 1e3:.2f} ms vs published "
            f"{check.published_s * 1e3:.2f} ms "
            f"({check.rel_error:.2%} error)"
        )
    if failures:
        print(f"\nCELLS OUT OF TOLERANCE: {failures}")
        return 1
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .experiments import fig5

    # Eq. (7) is closed form: evaluate the panel grid once and share it
    # between the plot and the CSV.
    result = fig5.run((args.x_prtr,), fig5.DEFAULT_HIT_RATIOS)
    print(fig5.render(x_prtr=args.x_prtr, result=result))
    claims = fig5.shape_claims(x_prtr=args.x_prtr)
    print()
    for name, ok in claims.items():
        print(f"  claim {name}: {'PASS' if ok else 'FAIL'}")
    if args.csv:
        write_csv(args.csv, fig5.to_csv(x_prtr=args.x_prtr, result=result))
        print(f"\nwrote {args.csv}")
    return 0 if all(claims.values()) else 1


def _cmd_fig9(args: argparse.Namespace) -> int:
    from .experiments import fig9

    panels = (
        ["estimated", "measured"] if args.panel == "both" else [args.panel]
    )
    ok = True
    for which in panels:
        # Simulate each panel once; the plot and the CSV share the points.
        points = fig9.simulate_points(
            fig9.panel(which), n_calls=args.calls, workers=args.workers,
            hybrid=args.hybrid,
        )
        print(fig9.render(which, n_calls=args.calls, points=points))
        print()
        if args.csv:
            path = args.csv.replace(".csv", f"_{which}.csv")
            write_csv(
                path, fig9.to_csv(which, n_calls=args.calls, points=points)
            )
            print(f"wrote {path}\n")
    claims = fig9.shape_claims()
    for name, passed in claims.items():
        print(f"  claim {name}: {'PASS' if passed else 'FAIL'}")
        ok &= passed
    return 0 if ok else 1


def _cmd_profiles(args: argparse.Namespace) -> int:
    from .experiments import fig234_profiles

    print(fig234_profiles.render_all(width=args.width))
    return 0


def _cmd_ablation_prefetch(args: argparse.Namespace) -> int:
    from .experiments.ablations import prefetch_ablation

    cells = prefetch_ablation(slots=args.slots, n_calls=args.calls)
    rows = [
        {
            "trace": c.trace,
            "policy": c.policy,
            "prefetcher": c.prefetcher,
            "H": c.hit_ratio,
            "accuracy": c.prefetch_accuracy,
            "S_inf": c.predicted_speedup,
        }
        for c in cells
    ]
    print(render_table(rows, title="Prefetch ablation"))
    return 0


def _cmd_ablation_granularity(args: argparse.Namespace) -> int:
    from .experiments.ablations import granularity_ablation

    points = granularity_ablation()
    rows = []
    for p in points:
        row: dict[str, object] = {
            "PRRs": p.n_prrs,
            "cols": p.columns_each,
            "bytes": p.bitstream_bytes,
            "T_PRTR_ms": p.t_prtr * 1e3,
            "X_PRTR": p.x_prtr,
        }
        for i, s in enumerate(p.speedups):
            row[f"S[{i}]"] = s
        rows.append(row)
    print(render_table(rows, title="PRR granularity ablation"))
    return 0


def _payload_exit(verb: str, payload: dict[str, Any]) -> int:
    """Exit code of one unjournaled realization: 3 if cut short, else audit."""
    reason = payload["report"]["interrupted"]
    if reason:
        print(f"repro: {verb} interrupted ({reason})", file=sys.stderr)
        return 3
    return 0 if payload["audit"]["ok"] else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from .analysis import ascii_plot, series_to_csv
    from .analysis.reliability import (
        DEFAULT_FAULT_RATES,
        DEFAULT_HIT_RATIOS,
        find_crossover,
        sweep_fault_hit_grid,
    )

    rates = _parse_floats(args.rates, "rates", DEFAULT_FAULT_RATES)
    hit_ratios = _parse_floats(
        args.hit_ratios, "hit-ratios", DEFAULT_HIT_RATIOS
    )
    points = sweep_fault_hit_grid(
        rates, hit_ratios,
        n_calls=args.calls, task_time=args.task_time, seed=args.seed,
        workers=args.workers, hybrid=args.hybrid,
    )
    print(render_table(
        [p.as_row() for p in points],
        title="Effective speedup under ICAP chunk-abort faults",
    ))
    series = _series_by_h(
        points, hit_ratios, lambda p: p.fault_rate, lambda p: p.speedup
    )
    print()
    print(ascii_plot(
        series,
        title="effective speedup vs chunk-abort rate",
        xlabel="chunk abort rate", ylabel="S_eff", logx=True,
    ))
    print()
    claims = {}
    h_lo, h_hi = min(hit_ratios), max(hit_ratios)
    zero_rate = [p for p in points if p.fault_rate == 0.0]
    claims["fault_free_prtr_wins"] = all(p.speedup > 1.0 for p in zero_rate)
    cross_lo = find_crossover(points, h_lo)
    claims["crossover_at_low_hit_ratio"] = cross_lo is not None
    cross_hi = find_crossover(points, h_hi)
    claims["high_hit_ratio_more_robust"] = cross_hi is None or (
        cross_lo is not None and cross_hi >= cross_lo
    )
    for h in hit_ratios:
        c = find_crossover(points, h)
        print(f"  H={h:g}: PRTR->FRTR crossover at rate "
              f"{'(none in sweep)' if c is None else format(c, 'g')}")
    print()
    for name, ok in claims.items():
        print(f"  claim {name}: {'PASS' if ok else 'FAIL'}")
    if args.csv:
        write_csv(args.csv, series_to_csv(series, x_name="chunk_abort_rate"))
        print(f"\nwrote {args.csv}")
    return 0 if all(claims.values()) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import series_to_csv
    from .analysis.reliability import DEFAULT_FAULT_RATES, DEFAULT_HIT_RATIOS
    from .runtime import crash_safe_fault_sweep

    rates = _parse_floats(args.rates, "rates", DEFAULT_FAULT_RATES)
    hit_ratios = _parse_floats(
        args.hit_ratios, "hit-ratios", DEFAULT_HIT_RATIOS
    )
    return _run_journaled(
        args,
        "sweep",
        functools.partial(
            crash_safe_fault_sweep,
            fault_rates=rates, hit_ratios=hit_ratios, n_calls=args.calls,
            task_time=args.task_time, seed=args.seed, hybrid=args.hybrid,
        ),
        lambda outcome: print(render_table(
            [p.as_row() for p in outcome.results],
            title="Crash-safe fault sweep (journaled)",
        )),
        csv_rows=lambda outcome: series_to_csv(
            _series_by_h(
                outcome.results, hit_ratios,
                lambda p: p.fault_rate, lambda p: p.speedup,
            ),
            x_name="chunk_abort_rate",
        ),
    )


def _cmd_power(args: argparse.Namespace) -> int:
    from .analysis import series_to_csv
    from .power.contracts import (
        max_throughput_under_cap,
        min_energy_under_deadline,
    )
    from .power.pareto import (
        DEFAULT_POWER_HIT_RATIOS,
        DEFAULT_PRR_COUNTS,
        crash_safe_power_sweep,
        power_pareto_front,
    )

    prr_counts = [
        int(p) for p in _parse_floats(args.prrs, "prrs", DEFAULT_PRR_COUNTS)
    ]
    hit_ratios = _parse_floats(
        args.hit_ratios, "hit-ratios", DEFAULT_POWER_HIT_RATIOS
    )

    def render(outcome: "GridOutcome") -> None:
        print(render_table(
            [p.as_row() for p in outcome.results],
            title="Time-vs-energy sweep (journaled)",
        ))
        print()
        print(render_table(
            [p.as_row() for p in power_pareto_front(outcome.results)],
            title="Pareto frontier (PRTR time vs energy)",
        ))
        contracts = []
        if args.contract_deadline is not None:
            contracts.append(min_energy_under_deadline(
                outcome.results, args.contract_deadline
            ))
        if args.power_cap is not None:
            contracts.append(max_throughput_under_cap(
                outcome.results, args.power_cap
            ))
        if contracts:
            print()
            for c in contracts:
                print(f"  {c.summary_line()}")

    return _run_journaled(
        args,
        "power sweep",
        functools.partial(
            crash_safe_power_sweep,
            prr_counts=prr_counts, hit_ratios=hit_ratios, n_calls=args.calls,
            task_time=args.task_time, seed=args.seed, hybrid=args.hybrid,
        ),
        render,
        csv_rows=lambda outcome: series_to_csv(
            _series_by_h(
                outcome.results, hit_ratios,
                lambda p: float(p.n_prrs), lambda p: p.prtr_energy_j,
            ),
            x_name="n_prrs",
        ),
    )


def _parse_degrade(text: str) -> tuple[tuple[float, int], ...]:
    """Parse ``"5:1,20:0"`` into ``((5.0, 1), (20.0, 0))``."""
    if not text:
        return ()
    out = []
    for part in text.split(","):
        try:
            t, slot = part.split(":")
            out.append((float(t), int(slot)))
        except ValueError:
            raise ValueError(
                f"--degrade-at expects comma-separated time:slot pairs "
                f"(e.g. 5:1,20:0), got {text!r}"
            ) from None
    return tuple(out)


def _show_payloads(
    args: argparse.Namespace, payloads: Sequence[dict], json_doc: Any
) -> None:
    """Print realizations: ``json_doc`` under ``--json``, else each SLO
    report (numbered when journaled) plus any chaos resilience summary."""
    import json

    from .service.slo import render_report

    if args.json:
        print(json.dumps(json_doc, sort_keys=True, indent=2))
        return
    for rep, payload in enumerate(payloads):
        if args.run_dir:
            print(f"-- replication {rep} " + "-" * 50)
        print(render_report(payload["report"]))
        if "resilience" in payload:
            print(_render_resilience(payload["resilience"]))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import (
        ServiceConfig,
        crash_safe_serve,
        default_tenants,
        load_tenants,
        run_service,
        serve_payload,
    )
    from .service.slo import render_report, report_json

    tenants = (
        load_tenants(args.tenants) if args.tenants else default_tenants()
    )
    config = ServiceConfig(
        horizon=args.ticks,
        admission=not args.no_admission,
        preemption=not args.no_preempt,
        degrade_at=_parse_degrade(args.degrade_at),
        prrs=args.prrs,
        power_cap_w=args.power_cap,
    )
    if args.run_dir:
        return _run_journaled(
            args,
            "serve",
            functools.partial(
                crash_safe_serve, tenants=tenants, config=config,
                seed=args.seed, replications=args.replications,
            ),
            lambda outcome: _show_payloads(
                args, outcome.results,
                [p["report"] for p in outcome.results],
            ),
            unit="replications",
        )
    payload = serve_payload(run_service(tenants, config, seed=args.seed))
    if args.json:
        print(report_json(payload["report"]))
    else:
        print(render_report(payload["report"]))
    return _payload_exit("serve", payload)


def _render_resilience(resilience: dict) -> str:
    """Human summary lines for one chaos realization's resilience."""
    import math

    lines = [
        f"resilience: goodput retention "
        f"{100.0 * resilience['goodput_retention']:.2f}% "
        f"({resilience['completed']}/{resilience['baseline_completed']} "
        f"vs fault-free), {resilience['outages']} outage(s), "
        f"{resilience['migrations']} migration(s), "
        f"{resilience['breaker_transitions']} breaker transition(s), "
        f"{resilience['brownout_epochs']} brownout epoch(s)",
    ]
    if resilience["mttr"]:
        mttr = ", ".join(
            f"{domain}={value:.4f}s"
            for domain, value in resilience["mttr"].items()
        )
        lines.append(f"mttr: {mttr}")
    under = resilience["latency_under_failure"]
    base = resilience["latency_baseline"]

    def _cell(v: float | None) -> str:
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return "-"
        return f"{v:.4f}"

    lines.append(
        f"latency p50/p99/p999: {_cell(under['p50'])}/"
        f"{_cell(under['p99'])}/{_cell(under['p999'])} under failure, "
        f"{_cell(base['p50'])}/{_cell(base['p99'])}/{_cell(base['p999'])} "
        f"fault-free"
    )
    avail = ", ".join(
        f"{name}={100.0 * value:.2f}%"
        for name, value in resilience["availability"].items()
    )
    lines.append(f"availability: {avail}")
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import build_scenario, scenario_names
    from .chaos.harness import crash_safe_chaos, run_chaos
    from .chaos.scenarios import SCENARIOS
    from .service import ServiceConfig, default_tenants, load_tenants

    if args.list_scenarios:
        width = max(len(name) for name in scenario_names())
        for name in scenario_names():
            print(f"{name:<{width}}  {SCENARIOS[name][0]}")
        return 0
    spec = build_scenario(
        args.scenario,
        seed=args.seed,
        horizon=args.ticks,
        prrs=args.prrs,
        blades=args.blades,
    )
    tenants = (
        load_tenants(args.tenants) if args.tenants else default_tenants()
    )
    config = ServiceConfig(
        horizon=args.ticks, prrs=args.prrs, chaos=spec
    )

    if args.run_dir:
        return _run_journaled(
            args,
            "chaos",
            functools.partial(
                crash_safe_chaos, tenants=tenants, config=config,
                scenario=args.scenario, seed=args.seed,
                replications=args.replications,
            ),
            lambda outcome: _show_payloads(
                args, outcome.results, outcome.results
            ),
            unit="replications",
            rows=[("scenario", args.scenario)],
        )
    payload = run_chaos(tenants, config, seed=args.seed)
    _show_payloads(args, [payload], payload)
    return _payload_exit("chaos", payload)


def _observability_workload(n_calls: int):
    """The quickstart workload both observability verbs instrument."""
    from .workloads import CallTrace, HardwareTask

    names = ("median", "sobel", "smoothing")
    lib = {name: HardwareTask(name, 0.05) for name in names}
    return CallTrace(
        [lib[names[i % len(names)]] for i in range(n_calls)],
        name="quickstart",
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import metrics as obsm
    from .obs.tracing import (
        comparison_to_chrome,
        trace_document,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from .rtr.runner import compare

    with obsm.observed():
        comparison = compare(_observability_workload(args.calls))
    events = comparison_to_chrome(comparison)
    problems = validate_chrome_trace(trace_document(events))
    if problems:
        for problem in problems:
            print(f"repro: trace schema: {problem}", file=sys.stderr)
        return 1
    write_chrome_trace(args.out, events)
    n_spans = sum(1 for ev in events if ev["ph"] == "X")
    print(
        f"wrote {args.out}: {n_spans} spans across 2 runs "
        f"(FRTR {comparison.frtr.total_time:.4g} s, "
        f"PRTR {comparison.prtr.total_time:.4g} s, "
        f"speedup {comparison.speedup:.2f}x)"
    )
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    if args.json:
        print(json.dumps(obsm.get_registry().snapshot(), indent=2))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs import metrics as obsm
    from .obs.profile import profiled
    from .obs.report import render_utilization
    from .rtr.runner import ComparisonResult, make_node
    from .rtr.frtr import FrtrExecutor
    from .rtr.prtr import PrtrExecutor
    from .runtime.invariants import audit_metrics

    trace = _observability_workload(args.calls)
    with obsm.observed():
        frtr = FrtrExecutor(make_node()).run(trace)
        prtr_node = make_node()
        if args.profile:
            with profiled(prtr_node.sim) as profiler:
                prtr = PrtrExecutor(prtr_node).run(trace)
        else:
            prtr = PrtrExecutor(prtr_node).run(trace)
        comparison = ComparisonResult(frtr=frtr, prtr=prtr)
        snapshot = obsm.snapshot()
        audit = audit_metrics(snapshot)
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0 if audit.ok else 1
    print(obsm.render())
    print()
    print(render_utilization(prtr))
    print()
    print(f"measured speedup      : {comparison.speedup:.2f}x")
    if args.profile:
        print()
        print("DES hot-path profile (PRTR run, wall clock):")
        print(profiler.render(args.top))
    print(f"\n{audit.summary_line()}")
    return 0 if audit.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import validate_frtr, validate_prtr
    from .experiments import fig9
    from .hardware import PUBLISHED_TABLE2
    from .rtr import FrtrExecutor, PrtrExecutor, make_node
    from .workloads import CallTrace, HardwareTask

    worst_pipe = worst_model = worst_frtr = 0.0
    for which in ("estimated", "measured"):
        p = fig9.panel(which)
        for x_task in np.logspace(-2, 0.5, 5):
            t_task = float(x_task) * p.t_frtr
            lib = {
                n: HardwareTask(n, t_task)
                for n in ("median", "sobel", "smoothing")
            }
            trace = CallTrace(
                [lib[n] for n in ("median", "sobel", "smoothing") * 20],
                name="val",
            )
            frtr = FrtrExecutor(
                make_node(), estimated=p.estimated,
                control_time=p.t_control,
            ).run(trace)
            rep = validate_frtr(
                frtr, t_frtr=frtr.notes["t_config_full"],
                t_control=p.t_control, t_task=t_task,
            )
            worst_frtr = max(worst_frtr, rep.model_rel_error)
            prtr = PrtrExecutor(
                make_node(), estimated=p.estimated,
                control_time=p.t_control, force_miss=True,
                bitstream_bytes=PUBLISHED_TABLE2["dual_prr"].bitstream_bytes,
            ).run(trace)
            rep = validate_prtr(
                prtr, t_frtr=prtr.notes["t_config_full"],
                t_prtr=prtr.notes["t_config_partial"],
                t_control=p.t_control,
            )
            worst_pipe = max(worst_pipe, rep.pipeline_rel_error or 0.0)
            worst_model = max(worst_model, rep.model_rel_error)
    print(f"max FRTR vs Eq.(1) rel error   : {worst_frtr:.3e}")
    print(f"max PRTR vs pipeline rel error : {worst_pipe:.3e}")
    print(f"max PRTR vs Eq.(3) rel error   : {worst_model:.3e}")
    ok = worst_frtr < 1e-9 and worst_pipe < 1e-9 and worst_model < 0.05
    print("VALIDATION", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint on this checkout; its own parser reads the flags."""
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    tools = repo_root / "tools"
    if not (tools / "reprolint" / "engine.py").exists():
        raise OSError(
            "repro lint needs a repository checkout "
            f"(no tools/reprolint under {repo_root})"
        )
    if str(tools) not in sys.path:
        sys.path.insert(0, str(tools))
    import reprolint

    return reprolint.main(["--repo-root", str(repo_root), *args.lint_argv])


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    text, ok = generate_report(
        n_calls=args.calls, progress=lambda m: print(f"... {m}")
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines); "
          f"checks {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_all(args: argparse.Namespace) -> int:
    rc = 0
    for name, fn in _COMMANDS.items():
        # "sweep" and "power" need a --run-dir; "report" and "trace"
        # write files; "lint" needs a source checkout; "serve" and
        # "chaos" run long service horizons; none belongs in the
        # zero-argument smoke pass.
        if name in (
            "all", "report", "sweep", "power", "serve", "chaos",
            "trace", "lint",
        ):
            continue
        print("=" * 72)
        print(f"== {name}")
        print("=" * 72)
        ns = build_parser().parse_args([name])
        rc |= fn(ns)
        print()
    return rc


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig5": _cmd_fig5,
    "fig9": _cmd_fig9,
    "profiles": _cmd_profiles,
    "ablation-prefetch": _cmd_ablation_prefetch,
    "ablation-granularity": _cmd_ablation_granularity,
    "faults": _cmd_faults,
    "sweep": _cmd_sweep,
    "power": _cmd_power,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
    "report": _cmd_report,
    "all": _cmd_all,
}


def _add_workers(parser: argparse.ArgumentParser) -> None:
    """``--workers``, shared by every grid and replication verb."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="fork workers; results (and merged journals) are "
             "bit-identical to --workers 1",
    )


def _add_hybrid(parser: argparse.ArgumentParser) -> None:
    """``--hybrid``, shared by every verb with an analytic fast path."""
    from .model.hybrid import HybridMode

    parser.add_argument(
        "--hybrid", choices=list(HybridMode.ALL), default=HybridMode.OFF,
        help="analytic fast path: 'on' answers exactness-proven points by "
             "closed-form replay (bit-identical, no event loop), 'verify' "
             "additionally shadow-runs a seeded sample on the DES and "
             "fails on any mismatch (docs/PERFORMANCE.md)",
    )


def _add_json(parser: argparse.ArgumentParser, help: str) -> None:
    """``--json``; each verb says what it prints."""
    parser.add_argument("--json", action="store_true", help=help)


def _add_grid_flags(
    parser: argparse.ArgumentParser, *, rates: bool = False
) -> None:
    """The sweep-grid flags of ``faults``, ``sweep`` and ``power``."""
    if rates:
        parser.add_argument(
            "--rates", type=str, default="",
            help="comma-separated chunk-abort rates (default: built-in "
                 "sweep)",
        )
    parser.add_argument(
        "--hit-ratios", type=str, default="",
        help="comma-separated target hit ratios (default: 0,0.5,0.9)",
    )
    parser.add_argument("--calls", type=int, default=30)
    parser.add_argument("--task-time", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", type=str, default="")
    _add_workers(parser)
    _add_hybrid(parser)


def _add_run_flags(
    parser: argparse.ArgumentParser, *, run_dir_required: bool = False
) -> None:
    """The crash-safe run flags of every journaled verb."""
    parser.add_argument(
        "--run-dir", type=str, default="", required=run_dir_required,
        help="directory holding the run journal (journal.jsonl); kill + "
             "--resume is byte-identical to an unbroken run",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed work from an existing journal",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on expiry exits 3 with completed work "
             "journaled",
    )
    parser.add_argument(
        "--strict-invariants", action="store_true",
        help="raise on any invariant violation instead of recording it",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """The tenant/horizon/replication flags of ``serve`` and ``chaos``."""
    parser.add_argument(
        "--ticks", type=float, default=30.0, metavar="SECONDS",
        help="simulated arrival horizon, measured from service boot",
    )
    parser.add_argument(
        "--tenants", type=str, default="",
        help="tenant spec JSON (default: built-in gold/silver/bronze)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--replications", type=int, default=1,
        help="independent realizations (replication i seeds from "
             "seed + i); needs --run-dir for more than one",
    )
    _add_run_flags(parser)
    _add_workers(parser)


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: resource usage")
    sub.add_parser("table2", help="Table 2: configuration times")

    p5 = sub.add_parser("fig5", help="Figure 5: asymptotic bounds")
    p5.add_argument("--x-prtr", type=float, default=0.17)
    p5.add_argument("--csv", type=str, default="")

    p9 = sub.add_parser("fig9", help="Figure 9: the XD1 experiment")
    p9.add_argument(
        "--panel", choices=["estimated", "measured", "both"],
        default="both",
    )
    p9.add_argument("--calls", type=int, default=90)
    p9.add_argument("--csv", type=str, default="")
    _add_workers(p9)
    _add_hybrid(p9)

    pp = sub.add_parser("profiles", help="Figures 2-4: execution profiles")
    pp.add_argument("--width", type=int, default=72)

    pa = sub.add_parser(
        "ablation-prefetch", help="prefetch policy ablation"
    )
    pa.add_argument("--slots", type=int, default=2)
    pa.add_argument("--calls", type=int, default=2000)

    sub.add_parser(
        "ablation-granularity", help="PRR granularity ablation"
    )
    pf = sub.add_parser(
        "faults", help="effective speedup under injected faults"
    )
    _add_grid_flags(pf, rates=True)

    ps = sub.add_parser(
        "sweep",
        help="crash-safe fault sweep: journaled, resumable, audited",
    )
    _add_run_flags(ps, run_dir_required=True)
    _add_grid_flags(ps, rates=True)

    pw = sub.add_parser(
        "power",
        help="time-vs-energy Pareto sweep over PRR counts and hit "
             "ratios: journaled, resumable, energy-conservation audited",
    )
    _add_run_flags(pw, run_dir_required=True)
    pw.add_argument(
        "--contract-deadline", type=float, default=None,
        metavar="SIM_SECONDS",
        help="minimize-energy contract: cheapest configuration whose "
             "PRTR makespan meets this simulated-time deadline",
    )
    pw.add_argument(
        "--power-cap", type=float, default=None, metavar="WATTS",
        help="maximize-throughput contract: fastest configuration whose "
             "mean PRTR draw stays under this power budget",
    )
    pw.add_argument("--prrs", type=str, default="",
                    help="comma-separated PRR counts (default: 1,2,3,4)")
    _add_grid_flags(pw)

    pv = sub.add_parser(
        "serve",
        help="multi-tenant service mode: open arrivals, admission "
             "control, preemptive PRR scheduling, per-tenant SLO report",
    )
    _add_service_flags(pv)
    pv.add_argument(
        "--no-admission", action="store_true",
        help="disable the admission controller (admit everything)",
    )
    pv.add_argument(
        "--no-preempt", action="store_true",
        help="disable preemptive time-sharing (run-to-completion)",
    )
    pv.add_argument(
        "--degrade-at", type=str, default="", metavar="T:SLOT,...",
        help="retire PRR slots mid-run, e.g. 5:1 retires slot 1 at t=5",
    )
    pv.add_argument(
        "--prrs", type=int, default=0,
        help="PRR count (0 = the paper's dual-PRR floorplan)",
    )
    pv.add_argument(
        "--power-cap", type=float, default=None, metavar="WATTS",
        help="node power budget; arrivals whose grant would push the "
             "projected draw above it are shed with reason power_cap",
    )
    _add_json(pv, "print the canonical SLO report JSON instead of tables")

    pc = sub.add_parser(
        "chaos",
        help="chaos-resilient service mode: named seeded failure "
             "scenarios vs a fault-free baseline (availability, MTTR, "
             "goodput retention, tail latency under failure)",
    )
    _add_service_flags(pc)
    pc.add_argument(
        "--scenario", type=str, default="compound",
        help="scenario name (see --list-scenarios; 'none' is bit-"
             "identical to plain serve)",
    )
    pc.add_argument(
        "--list-scenarios", action="store_true",
        help="print the scenario library and exit",
    )
    pc.add_argument(
        "--prrs", type=int, default=4,
        help="PRR count (chaos needs an explicit floorplan, >= 1)",
    )
    pc.add_argument(
        "--blades", type=int, default=2,
        help="blades the PRRs spread over (failure-domain topology)",
    )
    _add_json(pc, "print the canonical realization payload JSON")

    pt = sub.add_parser(
        "trace",
        help="export an instrumented FRTR/PRTR run as Chrome trace JSON",
    )
    pt.add_argument(
        "--out", type=str, default="trace.json",
        help="output path (load it in Perfetto / chrome://tracing)",
    )
    pt.add_argument("--calls", type=int, default=30)
    _add_json(pt, "also print the metrics snapshot as JSON")

    pm = sub.add_parser(
        "metrics",
        help="run the quickstart workload instrumented; print counters "
             "and the utilization rollup",
    )
    pm.add_argument("--calls", type=int, default=30)
    _add_json(pm, "print the raw metrics snapshot as JSON instead of tables")
    pm.add_argument(
        "--profile", action="store_true",
        help="profile the DES hot path (wall clock per event type)",
    )
    pm.add_argument("--top", type=int, default=10,
                    help="profile rows to show")

    sub.add_parser("validate", help="model-vs-simulation validation")
    # reprolint's own parser defines (and --help lists) the lint flags;
    # main() forwards everything after "lint" to it unchanged.
    sub.add_parser(
        "lint",
        help="run reprolint, the AST-based domain linter "
             "(docs/STATIC_ANALYSIS.md)",
        add_help=False,
    )
    pr = sub.add_parser("report", help="write the full REPORT.md")
    pr.add_argument("--output", type=str, default="REPORT.md")
    pr.add_argument("--calls", type=int, default=90)
    sub.add_parser("all", help="run everything")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, lint_argv = parser.parse_known_args(argv)
    if lint_argv and args.command != "lint":
        parser.error(f"unrecognized arguments: {' '.join(lint_argv)}")
    args.lint_argv = lint_argv
    # --strict-invariants arms the audits inside every executor, not just
    # the run-level report; the process-wide flag is restored on return.
    previous = set_strict(getattr(args, "strict_invariants", strict_enabled()))
    try:
        return _COMMANDS[args.command](args)
    except InvariantError as exc:
        print(f"repro: invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        # Usage-level failures (bad argument values, missing or
        # pre-existing run directories) get one line, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_strict(previous)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
