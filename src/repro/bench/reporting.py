"""Table/CSV reporting helpers shared by the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures as a
text table (and optionally CSV for downstream plotting); these helpers
keep the formatting uniform.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, Sequence

__all__ = ["format_table", "write_csv", "ascii_series", "results_dir"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str | None = None) -> str:
    """Render a fixed-width text table."""
    rows = [[_fmt(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    lines = []
    if title:
        lines.append(title)
    lines.append(sep.join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep.join("-" * w for w in widths))
    for row in rows:
        lines.append(sep.join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        if abs(cell) >= 1e5 or abs(cell) < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)


def results_dir() -> str:
    """Directory where benchmarks drop their CSV outputs."""
    path = os.environ.get("REPRO_RESULTS_DIR", os.path.join(os.getcwd(), "results"))
    os.makedirs(path, exist_ok=True)
    return path


def write_csv(name: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write rows to ``results/<name>.csv``; returns the path."""
    path = os.path.join(results_dir(), f"{name}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
    return path


def ascii_series(xs: Sequence[float], ys: Sequence[float], *, label: str = "") -> str:
    """Tiny 60×12 ASCII line plot for quick visual inspection of a series."""
    width, height = 60, 12
    if not xs or not ys or len(xs) != len(ys):
        return "(empty series)"
    lo, hi = min(ys), max(ys)
    span = hi - lo if hi > lo else 1.0
    grid = [[" "] * width for _ in range(height)]
    n = len(xs)
    for i, y in enumerate(ys):
        col = int(i * (width - 1) / max(1, n - 1))
        row = height - 1 - int((y - lo) / span * (height - 1))
        grid[row][col] = "*"
    lines = ["".join(r) for r in grid]
    header = f"{label}  [min={lo:.4g}, max={hi:.4g}]"
    return header + "\n" + "\n".join(lines)
