"""Minimal SVG line plots.

Good enough for convergence curves: a log10 y axis, decade ticks, solid or
dash-dotted polylines, and a small legend.  No external plotting packages.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
XLABEL = "iteration"
WIDTH, HEIGHT = 640, 420


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped.

    Same result as ``xml.sax.saxutils.escape``, whose import pulls in
    ``urllib.request`` and adds about 7 MB to the resident set.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def log_line_plot(
    path: str,
    curves: list,
    title: str = "",
    ylabel: str = "",
) -> None:
    """Write a WIDTH x HEIGHT SVG with one polyline per curve, y on a log scale.

    Each curve is a dict with keys ``label``, ``x``, ``y`` and an optional
    boolean ``dashed``.  Nonpositive or nonfinite y values are dropped
    pointwise (a log axis cannot show them).  The title, axis labels and
    curve labels are plain text; ``&``, ``<`` and ``>`` are escaped.
    """
    cleaned = []
    for cv in curves:
        x = np.asarray(cv["x"], dtype=float)
        y = np.asarray(cv["y"], dtype=float)
        keep = np.isfinite(x) & np.isfinite(y) & (y > 0)
        if keep.any():
            cleaned.append((cv.get("label", ""), x[keep], np.log10(y[keep]), cv.get("dashed", False)))
    if not cleaned:
        raise ValueError("nothing to plot: no positive finite values")

    x_lo = min(float(x.min()) for _, x, _, _ in cleaned)
    x_hi = max(float(x.max()) for _, x, _, _ in cleaned)
    y_lo = min(float(y.min()) for _, _, y, _ in cleaned)
    y_hi = max(float(y.max()) for _, _, y, _ in cleaned)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = math.floor(y_lo)
    y_hi = math.ceil(y_hi)
    if y_hi == y_lo:
        y_hi = y_lo + 1

    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="13">'
            f"{_escape(title)}</text>"
        )

    # decade grid and y tick labels
    step = max(1, (y_hi - y_lo) // 8)
    for d in range(y_lo, y_hi + 1, step):
        yy = sy(d)
        parts.append(
            f'<line x1="{ml}" y1="{yy:.1f}" x2="{ml + pw}" y2="{yy:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{yy + 4:.1f}" text-anchor="end">1e{d}</text>'
        )
    # x ticks: five evenly spaced
    for i in range(6):
        xv = x_lo + i * (x_hi - x_lo) / 5
        xx = sx(xv)
        parts.append(
            f'<line x1="{xx:.1f}" y1="{mt + ph}" x2="{xx:.1f}" y2="{mt + ph + 4}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.1f}" y="{mt + ph + 18}" text-anchor="middle">{xv:.0f}</text>'
        )
    # axes
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle">'
        f"{XLABEL}</text>"
    )
    if ylabel:
        parts.append(
            f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{_escape(ylabel)}</text>'
        )

    for i, (label, x, y, dashed) in enumerate(cleaned):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx(x).tolist(), sy(y).tolist()))
        dash = ' stroke-dasharray="8 3 2 3"' if dashed else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        ly = mt + 14 + 14 * i
        lx = ml + pw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{ly}">{_escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
