"""ASCII line charts for experiment series.

Minimal but real: multiple named series over a shared x axis, linear or
logarithmic x scaling (the paper's error-rate sweeps are log-x), y-axis
ticks, a legend, and sensible degenerate-input behaviour.  Used by the CLI
(``python -m repro figure 5``) and available to library users via
:func:`render_series`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

#: Glyphs assigned to series in order.
SERIES_GLYPHS = "*o+x#@%&"


class AsciiChart:
    """A fixed-size character canvas with chart-drawing helpers."""

    def __init__(self, width: int = 64, height: int = 16):
        if width < 16 or height < 4:
            raise ValueError("chart too small to be legible")
        self.width = width
        self.height = height
        self._rows: List[List[str]] = [
            [" "] * width for _ in range(height)
        ]

    def plot(self, column: int, row: int, glyph: str) -> None:
        """Place a glyph; out-of-canvas points are clipped silently."""
        if 0 <= row < self.height and 0 <= column < self.width:
            self._rows[self.height - 1 - row][column] = glyph

    def render(self) -> List[str]:
        return ["".join(row) for row in self._rows]


def _scale_positions(
    xs: Sequence[float], width: int, log_x: bool
) -> List[int]:
    if log_x:
        if any(x <= 0 for x in xs):
            raise ValueError("log-x scaling requires positive x values")
        values = [math.log10(x) for x in xs]
    else:
        values = list(xs)
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        return [0 for _ in values]
    return [round((v - lo) / span * (width - 1)) for v in values]


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.1e}"
    return f"{value:.2f}".rstrip("0").rstrip(".")


def render_series(
    title: str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 14,
    log_x: bool = False,
    y_label: str = "",
) -> str:
    """Render named series over a shared x axis as an ASCII chart.

    >>> print(render_series("t", [1, 2, 3], {"a": [1.0, 2.0, 3.0]},
    ...                     width=20, height=5))  # doctest: +SKIP
    """
    if not series:
        raise ValueError("need at least one series")
    lengths = {len(v) for v in series.values()}
    if lengths != {len(xs)}:
        raise ValueError("every series must have one value per x")
    if len(xs) == 0:
        raise ValueError("need at least one point")
    if len(series) > len(SERIES_GLYPHS):
        raise ValueError(f"at most {len(SERIES_GLYPHS)} series supported")

    all_values = [v for vs in series.values() for v in vs]
    y_lo = min(all_values)
    y_hi = max(all_values)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    columns = _scale_positions(xs, width, log_x)

    chart = AsciiChart(width, height)
    for glyph, (name, values) in zip(SERIES_GLYPHS, series.items()):
        prev: Optional[tuple] = None
        for col, value in zip(columns, values):
            row = round((value - y_lo) / (y_hi - y_lo) * (height - 1))
            if prev is not None:
                _draw_segment(chart, prev, (col, row), glyph)
            chart.plot(col, row, glyph)
            prev = (col, row)

    gutter = max(len(_format_tick(y_hi)), len(_format_tick(y_lo))) + 1
    lines = [title]
    if y_label:
        lines.append(y_label)
    body = chart.render()
    for i, row_text in enumerate(body):
        if i == 0:
            tick = _format_tick(y_hi)
        elif i == len(body) - 1:
            tick = _format_tick(y_lo)
        elif i == len(body) // 2:
            tick = _format_tick((y_hi + y_lo) / 2)
        else:
            tick = ""
        lines.append(f"{tick:>{gutter}} |{row_text}")
    axis = "-" * width
    lines.append(f"{'':>{gutter}} +{axis}")
    x_lo = _format_tick(xs[0])
    x_hi = _format_tick(xs[-1])
    scale = " (log x)" if log_x else ""
    pad = width - len(x_lo) - len(x_hi)
    lines.append(f"{'':>{gutter}}  {x_lo}{' ' * max(1, pad)}{x_hi}{scale}")
    legend = "   ".join(
        f"{glyph}={name}" for glyph, name in zip(SERIES_GLYPHS, series)
    )
    lines.append(f"{'':>{gutter}}  {legend}")
    return "\n".join(lines)


def _draw_segment(chart: AsciiChart, a: tuple, b: tuple, glyph: str) -> None:
    """Sparse linear interpolation between consecutive points."""
    (c0, r0), (c1, r1) = a, b
    steps = max(abs(c1 - c0), abs(r1 - r0))
    for i in range(1, steps):
        col = c0 + (c1 - c0) * i // steps
        row = r0 + (r1 - r0) * i // steps
        chart.plot(col, row, glyph if (col + row) % 2 == 0 else ".")


def render_comparison_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """A plain fixed-width table (results summaries, Table 1, etc.)."""
    if not headers:
        raise ValueError("need at least one column")
    str_rows = [[_cell(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_figure(
    title: str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    log_x: bool = False,
    *,
    chart: bool = True,
) -> str:
    """One table of a paper figure (an ``experiments.figureN.tables()``
    entry, unpacked) as a fixed-width table and, with ``chart``, the ASCII
    chart under it — the renderer ``repro figure N`` prints through."""
    rows = [[x] + [values[i] for values in series.values()] for i, x in enumerate(xs)]
    text = render_comparison_table(["x"] + list(series), rows, title)
    if chart:
        text += "\n\n" + render_series(title, xs, series, log_x=log_x)
    return text


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_heatmap(
    grid: Sequence[Sequence[Optional[float]]],
    title: str = "",
    fmt: str = "{:.2f}",
    empty: str = "·",
) -> str:
    """Render a mesh-shaped value grid (``TelemetryReport.heatmap``) as a
    fixed-width table, row ``y=0`` at the bottom (matching node numbering).

    ``None`` cells (no samples for that component) render as ``empty``.
    """
    if not grid or not grid[0]:
        raise ValueError("need a non-empty grid")
    cells = [
        [empty if v is None else fmt.format(v) for v in row] for row in grid
    ]
    width = max(len(c) for row in cells for c in row)
    gutter = len(str(len(grid) - 1)) + 2
    lines = []
    if title:
        lines.append(title)
    for y in range(len(grid) - 1, -1, -1):
        row = "  ".join(c.rjust(width) for c in cells[y])
        lines.append(f"{f'y{y}':>{gutter}} |{row}")
    lines.append(f"{'':>{gutter}} +{'-' * (len(grid[0]) * (width + 2) - 2)}")
    xs = "  ".join(f"x{x}".rjust(width) for x in range(len(grid[0])))
    lines.append(f"{'':>{gutter}}  {xs}")
    return "\n".join(lines)
