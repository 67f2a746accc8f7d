"""One-shot reproduction report: every artifact, one markdown document.

:func:`generate_report` regenerates Tables 1-2 with the Table 2
calibration's out-of-sample check (:func:`~repro.analysis.calibration
.cross_validate`), checks every Figure 5/9 shape claim, and summarizes
the ablations into a single markdown string (``python -m repro report``
writes it to disk).  The sim-vs-model validation is ``python -m repro
validate`` (:func:`repro.experiments.fig9.validation_grid`).  The report
is *evidence*, not prose: every number in it was computed by the call
that produced the document.
"""

from __future__ import annotations

import io
from typing import Callable

__all__ = ["generate_report"]


def _section(buf: io.StringIO, title: str) -> None:
    buf.write(f"\n## {title}\n\n")


def _code(buf: io.StringIO, text: str) -> None:
    buf.write("```\n")
    buf.write(text.rstrip("\n"))
    buf.write("\n```\n")


def _claims(buf: io.StringIO, claims: dict[str, bool]) -> bool:
    ok = True
    for name, passed in claims.items():
        buf.write(f"- `{name}`: {'PASS' if passed else '**FAIL**'}\n")
        ok &= passed
    return ok


def generate_report(
    *,
    n_calls: int = 90,
    ablation_calls: int = 1000,
    progress: Callable[[str], None] | None = None,
) -> tuple[str, bool]:
    """Build the report; returns ``(markdown, all_checks_passed)``."""
    from ..experiments import fig5, fig9, table1, table2
    from ..experiments.ablations import (
        granularity_ablation,
        prefetch_ablation,
    )
    from ..experiments.heterogeneity import run as hetero_run
    from ..experiments.scaling import run as scaling_run
    from . import cross_validate
    from .tables import render_table

    note = progress or (lambda _msg: None)
    buf = io.StringIO()
    all_ok = True

    buf.write("# Reproduction report\n\n")
    buf.write(
        "Regenerated from the `repro` library in one pass; every number "
        "below\nwas computed by the run that wrote this file.\n"
    )

    note("table 1")
    _section(buf, "Table 1 — resource usage")
    _code(buf, table1.render())
    mism = table1.verify_against_published()
    buf.write(
        f"\nMismatches vs published: **{len(mism)}** "
        f"{'(cell-exact)' if not mism else mism}\n"
    )
    all_ok &= not mism

    note("table 2")
    _section(buf, "Table 2 — configuration times")
    _code(buf, table2.render())
    failures = table2.verify_against_published()
    checks = cross_validate()
    buf.write(f"\nCells out of tolerance: **{len(failures)}**\n")
    for c in checks:
        buf.write(
            f"\nOut-of-sample prediction: {c.layout} "
            f"{c.predicted_s * 1e3:.2f} ms vs published "
            f"{c.published_s * 1e3:.2f} ms ({c.rel_error:.2%})\n"
        )
        all_ok &= c.rel_error < 0.01
    all_ok &= not failures

    note("figure 5")
    _section(buf, "Figure 5 — asymptotic bounds")
    _code(buf, fig5.render(x_prtr=0.17))
    buf.write("\n")
    all_ok &= _claims(buf, fig5.shape_claims())

    note("figure 9")
    _section(buf, "Figure 9 — the Cray XD1 experiment")
    for which in ("estimated", "measured"):
        _code(buf, fig9.render(which, n_calls=n_calls))
        buf.write("\n")
    all_ok &= _claims(buf, fig9.shape_claims())

    note("prefetch ablation")
    _section(buf, "Ablation A — prefetching (the paper's future work)")
    cells = prefetch_ablation(n_calls=ablation_calls)
    rows = [
        {
            "trace": c.trace, "policy": c.policy,
            "prefetcher": c.prefetcher, "H": c.hit_ratio,
            "S_inf": c.predicted_speedup,
        }
        for c in cells
    ]
    _code(buf, render_table(rows))

    note("granularity ablation")
    _section(buf, "Ablation B — PRR granularity")
    g_rows = []
    for p in granularity_ablation():
        g_rows.append({
            "PRRs": p.n_prrs, "bytes": p.bitstream_bytes,
            "T_PRTR_ms": p.t_prtr * 1e3, "X_PRTR": p.x_prtr,
            "S@2ms": p.speedups[0], "S@2s": p.speedups[-1],
        })
    _code(buf, render_table(g_rows))

    note("heterogeneity")
    _section(buf, "Ablation D — task-time heterogeneity (model limits)")
    h_rows = [
        {
            "distribution": p.distribution, "cv": p.cv,
            "S_true": p.true_speedup,
            "S_mean_based": p.mean_based_speedup,
            "overestimate_%": p.overestimate_pct,
        }
        for p in hetero_run(n_samples=30_000)
    ]
    _code(buf, render_table(h_rows))

    note("scaling")
    _section(buf, "Ablation E — technology scaling")
    s_rows = [
        {
            "device": p.device, "scenario": p.scenario,
            "T_FRTR_ms": p.t_frtr * 1e3, "X_PRTR": p.x_prtr,
            "peak_S": p.peak_speedup,
        }
        for p in scaling_run()
    ]
    _code(buf, render_table(s_rows))

    _section(buf, "Verdict")
    buf.write(
        "All published-artifact checks "
        f"{'**PASS**' if all_ok else '**FAIL**'}.\n"
    )
    return buf.getvalue(), all_ok
