"""Plain-text rendering of experiment results.

Benchmarks print the same rows/series the paper's figures plot; these
helpers keep that output consistent and diffable, so the series of two
runs compare line by line.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_series"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 *, title: str | None = None) -> str:
    """Fixed-width ASCII table."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(title: str, xlabel: str,
                  data: Mapping[object, Mapping[str, float]],
                  series: Sequence[str]) -> str:
    """One row per x value, one column per series — a figure as a table."""
    headers = [xlabel] + list(series)
    rows = []
    for x in data:
        row = [x] + [data[x].get(s, float("nan")) for s in series]
        rows.append(row)
    return format_table(headers, rows, title=title)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
