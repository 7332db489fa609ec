"""Minimal hand-written SVG line charts (no plotting dependency).

Only what the experiment reports need: multiple polyline series over a
shared numeric axis pair, optional log scales, ticks, and a small legend,
on a 720 x 480 canvas.  ``_axis`` sets up each of the two axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 72, 24, 40, 56
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_BOTTOM = _MARGIN_TOP + _PLOT_H  # the pixel row of the x axis


@dataclass
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    dashed: bool = False


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10 ** math.floor(math.log10(raw))
    step = next((m * mag for m in (1, 2, 5) if raw <= m * mag), 10 * mag)
    ticks, t = [], math.ceil(lo / step) * step
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
    return f"{v:.0e}" if abs(v) >= 10000 or abs(v) < 0.01 else f"{v:g}"


def _axis(
    values: list[float], log: bool, pad: float, origin: int, scale: int
) -> tuple[Callable[[float], float], list[float]]:
    """The pixel position of a value on one axis, and the axis's tick values.

    The axis spans ``values`` (their log10 when ``log``), widened by ``pad``
    of that span at each end, from pixel ``origin`` to ``origin + scale``.
    """
    lo, hi = min(values), max(values)
    if log:
        lo, hi = math.log10(lo), math.log10(max(hi, lo * 1.0001))
    if hi == lo:
        hi = lo + 1
    lo, hi = lo - pad * (hi - lo), hi + pad * (hi - lo)

    def position(v: float) -> float:
        return origin + ((math.log10(v) if log else v) - lo) / (hi - lo) * scale

    return position, _log_ticks(10**lo, 10**hi) if log else _nice_ticks(lo, hi)


def line_chart(
    series: Sequence[Series], title: str = "", xlabel: str = "", ylabel: str = "",
    logx: bool = False, logy: bool = False,
) -> str:
    """Render the series as an SVG document string, leaving out the points
    that a log axis cannot show (x or y <= 0)."""

    def shown(s: Series) -> list[tuple[float, float]]:
        return [(x, y) for x, y in zip(s.xs, s.ys) if (not logx or x > 0) and (not logy or y > 0)]

    pts = [(float(x), float(y)) for s in series for x, y in shown(s)] or [(1.0, 1.0)]
    px, x_ticks = _axis([x for x, _ in pts], logx, 0, _MARGIN_LEFT, _PLOT_W)
    py, y_ticks = _axis([y for _, y in pts], logy, 0.05, _BOTTOM, -_PLOT_H)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )
    for t in x_ticks:
        x = f"{px(t):.1f}"
        out += [f'<line x1="{x}" y1="{_BOTTOM}" x2="{x}" y2="{_BOTTOM + 5}" stroke="#444"/>',
                f'<text x="{x}" y="{_BOTTOM + 18}" text-anchor="middle">{_fmt(t)}</text>']
    for t in y_ticks:
        y = py(t)
        out += [
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.1f}" x2="{_MARGIN_LEFT}" y2="{y:.1f}" '
            'stroke="#444"/>',
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>',
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" x2="{_MARGIN_LEFT + _PLOT_W}" y2="{y:.1f}" '
            'stroke="#ddd" stroke-width="0.5"/>',
        ]
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_LEFT + _PLOT_W / 2:.1f}" y="{_HEIGHT - 12}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_TOP + _PLOT_H / 2
        out.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>'
        )
    for i, s in enumerate(series):
        coords = [(px(x), py(y)) for x, y in shown(s)]
        if not coords:
            continue
        color = _COLORS[i % len(_COLORS)]
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        lx, ly = _MARGIN_LEFT + 10, _MARGIN_TOP + 16 + 16 * i
        out += [
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>',
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash}/>',
            f'<text x="{lx + 28}" y="{ly}">{s.label}</text>',
        ]
    out.append("</svg>")
    return "\n".join(out)


def write_chart(path, *args, **kwargs) -> None:
    with open(path, "w") as fh:
        fh.write(line_chart(*args, **kwargs))
