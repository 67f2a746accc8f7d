"""Figure output without matplotlib: ASCII plots and CSV series export.

The environment has no plotting backend, so "regenerating a figure" means
(1) emitting the exact data series behind it as CSV, and (2) rendering a
log-log ASCII chart good enough to eyeball the curve shapes (the 2x
plateau, the peak at ``X_task = X_PRTR``).
"""

from __future__ import annotations

import csv
import io
from typing import Mapping, Sequence

import numpy as np

__all__ = ["ascii_plot", "series_to_csv", "write_csv"]


def ascii_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 72,
    height: int = 20,
    logx: bool = True,
    logy: bool = False,
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Render named (x, y) series on a character grid.

    Each series gets a distinct glyph; overlapping points show the last
    series plotted.  Axes are annotated with min/max (and decade ticks on
    log axes).
    """
    if not series:
        return "(no series)"
    glyphs = "*o+x#@%&$~"
    all_x = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    all_y = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    finite = np.isfinite(all_x) & np.isfinite(all_y)
    if logx:
        finite &= all_x > 0
    if logy:
        finite &= all_y > 0
    if not finite.any():
        return "(no finite data)"
    x_lo, x_hi = all_x[finite].min(), all_x[finite].max()
    y_lo, y_hi = all_y[finite].min(), all_y[finite].max()

    def fx(x: np.ndarray) -> np.ndarray:
        return np.log10(x) if logx else x

    def fy(y: np.ndarray) -> np.ndarray:
        return np.log10(y) if logy else y

    x0, x1 = fx(np.array([x_lo, x_hi]))
    y0, y1 = fy(np.array([y_lo, y_hi]))
    x_span = max(x1 - x0, 1e-12)
    y_span = max(y1 - y0, 1e-12)
    grid = [[" "] * width for _ in range(height)]
    for (name, (xs, ys)), glyph in zip(series.items(), glyphs):
        xs = np.asarray(xs, float)
        ys = np.asarray(ys, float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            ok &= xs > 0
        if logy:
            ok &= ys > 0
        cols = ((fx(xs[ok]) - x0) / x_span * (width - 1)).round().astype(int)
        rows = ((fy(ys[ok]) - y0) / y_span * (height - 1)).round().astype(int)
        for c, r in zip(cols, rows):
            grid[height - 1 - r][c] = glyph
    lines = []
    if title:
        lines.append(title)
    y_hi_label = f"{y_hi:.3g}"
    y_lo_label = f"{y_lo:.3g}"
    label_w = max(len(y_hi_label), len(y_lo_label))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = y_hi_label.rjust(label_w)
        elif i == height - 1:
            prefix = y_lo_label.rjust(label_w)
        else:
            prefix = " " * label_w
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_w + " +" + "-" * width)
    lines.append(
        " " * label_w
        + f"  {x_lo:.3g}{' ' * max(width - 16, 1)}{x_hi:.3g}"
    )
    lines.append(f"x: {xlabel}{' (log)' if logx else ''}   y: {ylabel}"
                 f"{' (log)' if logy else ''}")
    legend = "   ".join(
        f"{glyph}={name}" for (name, _), glyph in zip(series.items(), glyphs)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def series_to_csv(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    x_name: str = "x",
) -> str:
    """Long-format CSV text: columns ``series, x, y``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["series", x_name, "y"])
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: len(x) != len(y)")
        for x, y in zip(xs, ys):
            writer.writerow([name, repr(float(x)), repr(float(y))])
    return buf.getvalue()


def write_csv(path: str, text: str) -> None:
    """Write CSV text to ``path`` (tiny wrapper for symmetry in examples)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
