"""Terminal line charts for the figure benchmarks.

The paper's figures are speedup curves; rendering them directly in the
terminal makes `python -m repro experiments fig8` a self-contained
reproduction (no plotting stack needed offline).
"""

from __future__ import annotations

import typing as t

__all__ = ["ascii_chart"]

_MARKERS = "*o+x#@%&"


def ascii_chart(
    series: t.Mapping[str, t.Sequence[tuple[float, float]]],
    width: int = 70,
    height: int = 18,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named (x, y) series as a fixed-size ASCII line chart.

    Points are plotted with one marker character per series; overlapping
    points show the later series' marker.  Axes are linear and
    auto-scaled to the data's bounding box.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]

    def plot(x: float, y: float, marker: str) -> None:
        col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[height - 1 - row][col] = marker

    legend = []
    for (name, pts), marker in zip(series.items(), _MARKERS):
        legend.append(f"{marker} {name}")
        # Interpolate between consecutive points for visually connected
        # curves.
        ordered = sorted(pts)
        for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
            steps = max(
                2, int((x1 - x0) / (x_hi - x_lo) * width) if x_hi > x_lo else 2
            )
            for k in range(steps + 1):
                f = k / steps
                plot(x0 + f * (x1 - x0), y0 + f * (y1 - y0), marker)
        for x, y in ordered:
            plot(x, y, marker)

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.1f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_lo:10.1f} ┤" + "".join(grid[-1]))
    lines.append(
        " " * 10 + " └" + "─" * width
    )
    lines.append(
        " " * 12 + f"{x_lo:<10.0f}{x_label:^{max(0, width - 20)}}{x_hi:>10.0f}"
    )
    lines.append(" " * 12 + "   ".join(legend))
    return "\n".join(lines)
