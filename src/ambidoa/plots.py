"""Dependency-free SVG line charts for tracking-error curves."""

from __future__ import annotations

import numpy as np

__all__ = ["svg_line_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
WIDTH, HEIGHT = 720, 360  # pixels


def svg_line_chart(path, x, series, title="", x_label="", y_label=""):
    """Write a simple multi-series line chart.

    ``series`` maps legend labels to y arrays matching ``x``. Output is
    deterministic for identical inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    width, height = WIDTH, HEIGHT
    margin = 55
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    ys = [np.asarray(v, dtype=np.float64) for v in series.values()]
    y_min = min(v.min() for v in ys)
    y_max = max(v.max() for v in ys)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(x.min()), float(x.max())
    if x_max == x_min:
        x_max = x_min + 1.0

    def sx(v):
        return margin + (v - x_min) / (x_max - x_min) * plot_w

    def sy(v):
        return height - margin - (v - y_min) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"{xv:.2f}</text>"
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.1f}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{y_label}</text>'
    )
    for k, (label, y) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 4}" y="{margin + 14 + 14 * k}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(parts))
        f.write("\n")
