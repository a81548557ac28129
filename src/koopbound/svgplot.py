"""Minimal deterministic SVG scatter plots (no timestamps, no dependencies).

Output is byte-stable for identical inputs: coordinates have a fixed
precision, axis labels four significant digits, and no metadata is embedded.
"""

from __future__ import annotations

import math


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def scatter_svg(xs, ys, shades, xlabel: str = "", ylabel: str = "") -> str:
    """Scatter plot; shades in [0, 1] darken the points (0 light, 1 dark)."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be nonempty and the same length")
    width, height, margin = 560, 420, 55
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for x, y, shade in zip(xs, ys, shades):
        s = min(1.0, max(0.0, float(shade)))
        gray = int(round(210 * (1.0 - s)))
        parts.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" '
            f'fill="rgb({gray},{gray},{gray})"/>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * x_span
        yv = y_lo + frac * y_span
        parts.append(
            f'<text x="{_fmt(px(xv))}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{_fmt(py(yv) + 4)}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _unit_scaled(values) -> list[float]:
    """values times 2^-e, e the binary exponent of the largest magnitude: every
    magnitude ends at most 1, exactly unless it falls below the normal range."""
    exponent = math.frexp(max(abs(v) for v in values))[1]
    return [math.ldexp(v, -exponent) for v in values]


def pearson(xs, ys) -> float:
    """Pearson correlation, written out to keep the plot module dependency-free.

    r does not depend on scale, so each series is first scaled by a power
    of two (`_unit_scaled`): deviations of values near float64's limit,
    such as a deep net's `matrix_factor`, would overflow when squared.
    """
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two sequences of equal length >= 2")
    xs, ys = _unit_scaled(xs), _unit_scaled(ys)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)
