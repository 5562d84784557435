"""Terminal plots for the benchmark figures.

The paper presents Figures 4-7 as latency/throughput line charts; this
module renders the same series as ASCII charts, so the Figure 4 and
Figure 7 sections of ``python -m repro.eval`` show curve *shapes* with
no plotting dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.eval.atomic_burst import BurstResult

CHART_WIDTH = 64
CHART_HEIGHT = 14
MARKERS = "ox+*#@%&"


@dataclass(frozen=True)
class Series:
    """One labelled line: x values and y values, same length."""

    label: str
    xs: list[float]
    ys: list[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("series x and y lengths differ")
        if not self.xs:
            raise ValueError("series needs at least one point")


def _scale(value: float, lo: float, hi: float, steps: int, log: bool) -> int:
    if hi <= lo:
        return 0
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    position = (value - lo) / (hi - lo)
    return min(steps - 1, max(0, round(position * (steps - 1))))


def render_chart(
    series: list[Series],
    *,
    title: str,
    x_label: str,
    y_label: str,
    log_x: bool = False,
    log_y: bool = False,
    width: int = CHART_WIDTH,
    height: int = CHART_HEIGHT,
) -> str:
    """Render line series into a monospace chart."""
    if not series:
        raise ValueError("nothing to plot")
    xs = [x for s in series for x in s.xs]
    ys = [y for s in series for y in s.ys]
    if (log_x and min(xs) <= 0) or (log_y and min(ys) <= 0):
        raise ValueError("log scale requires positive values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    grid = [[" "] * width for _ in range(height)]
    for index, one in enumerate(series):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in zip(one.xs, one.ys):
            column = _scale(x, x_lo, x_hi, width, log_x)
            row = height - 1 - _scale(y, y_lo, y_hi, height, log_y)
            grid[row][column] = marker
    lines = [title]
    top_label = f"{y_hi:g}"
    bottom_label = f"{y_lo:g}"
    gutter = max(len(top_label), len(bottom_label), len(y_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(gutter)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(gutter)
        elif row_index == height // 2:
            prefix = y_label[: gutter - 1].rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    x_axis = f"{x_lo:g}".ljust(width - len(f"{x_hi:g}")) + f"{x_hi:g}"
    lines.append(" " * (gutter + 1) + x_axis)
    lines.append(" " * (gutter + 1) + x_label)
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append(" " * (gutter + 1) + legend)
    return "\n".join(lines)


def burst_latency_chart(results: list[BurstResult], title: str) -> str:
    """The latency half of Figures 4-6: one series per message size."""
    return render_chart(
        _series_by_size(results, lambda r: r.latency_s * 1e3),
        title=title,
        x_label="burst size k (log)",
        y_label="ms",
        log_x=True,
        log_y=True,
    )


def burst_throughput_chart(results: list[BurstResult], title: str) -> str:
    """The throughput half of Figures 4-6."""
    return render_chart(
        _series_by_size(results, lambda r: r.throughput_msgs_s),
        title=title,
        x_label="burst size k (log)",
        y_label="msg/s",
        log_x=True,
    )


def agreement_cost_chart(results: list[BurstResult]) -> str:
    """Figure 7's dilution curve."""
    ordered = sorted(results, key=lambda r: r.burst_size)
    series = Series(
        label="agreement cost",
        xs=[float(r.burst_size) for r in ordered],
        ys=[r.agreement_cost * 100 for r in ordered],
    )
    return render_chart(
        [series],
        title="Figure 7 -- relative cost of agreement (%)",
        x_label="burst size k (log)",
        y_label="%",
        log_x=True,
    )


def _series_by_size(results, metric) -> list[Series]:
    by_size: dict[int, list[BurstResult]] = {}
    for result in results:
        by_size.setdefault(result.message_bytes, []).append(result)
    series = []
    for size in sorted(by_size):
        ordered = sorted(by_size[size], key=lambda r: r.burst_size)
        series.append(
            Series(
                label=f"{size} B",
                xs=[float(r.burst_size) for r in ordered],
                ys=[metric(r) for r in ordered],
            )
        )
    return series
