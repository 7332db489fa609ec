"""Minimal hand-written SVG line charts (no plotting dependency).

Only what the experiment reports need: multiple polyline series over a
shared numeric axis pair, optional log scales, ticks, and a small legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 56


@dataclass
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    dashed: bool = field(default=False)


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_exp, hi_exp + 1) if lo <= 10.0**e <= hi]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 10000 or abs(v) < 0.01:
        return f"{v:.0e}"
    return f"{v:g}"


def line_chart(
    series: Sequence[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
    width: int = 720,
    height: int = 480,
) -> str:
    """Render the series as an SVG document string."""
    pts = []
    for s in series:
        for x, y in zip(s.xs, s.ys):
            if (not logx or x > 0) and (not logy or y > 0):
                pts.append((float(x), float(y)))
    if not pts:
        pts = [(1.0, 1.0)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if logx:
        x_lo, x_hi = math.log10(x_lo), math.log10(max(x_hi, x_lo * 1.0001))
    if logy:
        y_lo, y_hi = math.log10(y_lo), math.log10(max(y_hi, y_lo * 1.0001))
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        v = math.log10(x) if logx else x
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        v = math.log10(y) if logy else y
        return _MARGIN_TOP + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )

    if logx:
        x_ticks = _log_ticks(10**x_lo, 10**x_hi)
    else:
        x_ticks = _nice_ticks(x_lo, x_hi)
    for t in x_ticks:
        x = px(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_TOP + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    if logy:
        y_ticks = _log_ticks(10**y_lo, 10**y_hi)
    else:
        y_ticks = _nice_ticks(y_lo, y_hi)
    for t in y_ticks:
        y = py(t)
        out.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.1f}" x2="{_MARGIN_LEFT}" '
            f'y2="{y:.1f}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" x2="{_MARGIN_LEFT + plot_w}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{height - 12}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>'
        )

    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = [
            (px(x), py(y))
            for x, y in zip(s.xs, s.ys)
            if (not logx or x > 0) and (not logy or y > 0)
        ]
        if not coords:
            continue
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        ly = _MARGIN_TOP + 16 + 16 * i
        lx = _MARGIN_LEFT + 10
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{s.label}</text>')

    out.append("</svg>")
    return "\n".join(out)


def write_chart(path, *args, **kwargs) -> None:
    with open(path, "w") as fh:
        fh.write(line_chart(*args, **kwargs))
