"""Minimal static SVG line plots.

Plots are rendered directly as SVG text (line paths plus axis ticks), with
no external plotting process, so identical inputs give identical bytes.
A log-scale y axis is the default; indicator curves span several decades.
"""

from __future__ import annotations

import math
from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 18
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 48


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    if last == first:  # all values on one decade boundary
        last += 1
    return [10.0 ** e for e in range(first, last + 1)]


def _linear_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_y: bool = True,
) -> str:
    """Render labeled (x, y) series as an SVG line plot.

    Args:
        series: sequence of (label, xs, ys) triples; ys must be positive
            when log_y is set.  A series may be empty; if all are, only
            the axes and the legend are drawn.
        log_y: use a logarithmic y axis (decade ticks).

    Returns:
        The SVG document as a string.
    """
    if not series:
        raise ValueError("nothing to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:  # no point to draw: the axes alone, over one decade
        xs_all, ys_all = [0.0, 1.0], [1.0, 10.0]
    if log_y and min(ys_all) <= 0.0:
        raise ValueError("log-scale plot needs positive values")

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if log_y:
        ticks_y = _log_ticks(y_lo, y_hi)
        y_lo, y_hi = ticks_y[0], ticks_y[-1]
        y_pos_lo, y_pos_hi = math.log10(y_lo), math.log10(y_hi)
    else:
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        ticks_y = _linear_ticks(y_lo, y_hi)
        y_pos_lo, y_pos_hi = y_lo, y_hi
    ticks_x = _linear_ticks(x_lo, x_hi)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        pos = math.log10(y) if log_y else y
        return _MARGIN_TOP + (y_pos_hi - pos) / (y_pos_hi - y_pos_lo) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )

    # axes
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    for tx in ticks_x:
        px = sx(tx)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{tx:.3f}</text>'
        )
    for ty in ticks_y:
        py = sy(ty)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
        label = f"{ty:.0e}" if log_y else f"{ty:.3g}"
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
        if log_y:
            parts.append(
                f'<line x1="{x0}" y1="{_fmt(py)}" x2="{x0 + plot_w}" y2="{_fmt(py)}" '
                f'stroke="#dddddd" stroke-width="0.5"/>'
            )
    if xlabel:
        parts.append(
            f'<text x="{x0 + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" font-family="monospace" '
            f'font-size="12" transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_TOP + 14 + 15 * idx
        lx = x0 + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="monospace" font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
