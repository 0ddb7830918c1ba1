"""Minimal dependency-free log-log SVG line charts for decay series."""

from __future__ import annotations

import math

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float):
    """Decade ticks spanning [lo, hi], thinned to about seven."""
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    step = max(1, (hi_e - lo_e) // 6)
    return [10.0**e for e in range(lo_e, hi_e + 1, step)]


def _escape(text: str) -> str:
    """text with the markup characters & < > as XML entities.

    The same as xml.sax.saxutils.escape, whose import pulls in urllib and
    adds about 2 MiB to every ylab process.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_chart(path, xs, ys, title: str, xlabel: str, ylabel: str):
    """Write one polyline chart on log-log axes; nonpositive points are dropped.

    The title and axis labels are plain text, escaped for XML.
    """
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        raise ValueError("need at least 2 plottable points")
    log = math.log10
    pxs = [log(p[0]) for p in pts]
    pys = [log(p[1]) for p in pts]
    x0, x1 = min(pxs), max(pxs)
    y0, y1 = min(pys), max(pys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return _ML + (log(v) - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (log(v) - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16">{_escape(title)}</text>',
        f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle" font-size="12">{_escape(xlabel)}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2})">{_escape(ylabel)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
    ]
    for tv in _ticks(10.0**x0, 10.0**x1):
        if log(tv) < x0 - 1e-9 or log(tv) > x1 + 1e-9:
            continue
        x = sx(tv)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="10">{tv:g}</text>')
    for tv in _ticks(10.0**y0, 10.0**y1):
        if log(tv) < y0 - 1e-9 or log(tv) > y1 + 1e-9:
            continue
        y = sy(tv)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 3:.1f}" text-anchor="end" font-size="10">{tv:g}</text>')
    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts.append(f'<polyline points="{poly}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
