"""Minimal deterministic SVG line charts (no external renderer).

Charts are a pure render of the numbers they are given; convergence figures
use a log10 y-axis and skip non-finite or non-positive points.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 44

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def _drawn(xs: Sequence[float], ys: Sequence[float], log_y: bool):
    """The (x, y) pairs a chart draws, y as plotted: finite points only, and on a log axis positive y as log10 y."""
    for x, y in zip(xs, ys):
        if math.isfinite(x) and math.isfinite(y) and not (log_y and y <= 0):
            yield float(x), math.log10(y) if log_y else float(y)


def line_chart(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    """Render named (x, y) series to an SVG document string."""
    points = [p for _, xs, ys in series for p in _drawn(xs, ys, log_y)]
    if not points:
        points = [(0.0, 0.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(p[1] for p in points)
    y_hi = max(p[1] for p in points)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes and grid
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" x2="{px:.2f}" y2="{MARGIN_T + plot_h + 4}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        label = _fmt(10 ** t) if log_y else _fmt(t)
        out.append(f'<line x1="{MARGIN_L - 4}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end">{label}</text>')
        out.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" x2="{MARGIN_L + plot_w}" y2="{py:.2f}" stroke="#ddd" stroke-width="0.5"/>')
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in _drawn(xs, ys, log_y)]
        if coords:
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(coords)}"/>'
            )
        ly = MARGIN_T + 14 + 16 * i
        out.append(f'<line x1="{MARGIN_L + plot_w - 130}" y1="{ly - 4}" x2="{MARGIN_L + plot_w - 110}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{MARGIN_L + plot_w - 104}" y="{ly}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
