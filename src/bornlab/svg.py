"""Minimal SVG line-chart emission (pure text, no rendering dependencies)."""

from __future__ import annotations

import numpy as np

__all__ = ["line_chart_svg"]


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped, as ``xml.sax.saxutils.escape``
    writes it; that module is not imported because it loads ``urllib``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart_svg(xs, ys, title: str = "") -> str:
    """A single polyline chart with min/max axis labels, as a 720 x 400 SVG string."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matching (x, y) points")
    width, height, pad = 720, 400, 46
    span_x = x.max() - x.min() or 1.0
    span_y = y.max() - y.min() or 1.0
    px = pad + (x - x.min()) / span_x * (width - 2 * pad)
    py = height - pad - (y - y.min()) / span_y * (height - 2 * pad)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="11">{x.min():.6g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" font-size="11" '
        f'text-anchor="end">{x.max():.6g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" font-size="11" '
        f'text-anchor="end">{y.min():.6g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" font-size="11" text-anchor="end">{y.max():.6g}</text>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="20" font-size="13" '
                     f'text-anchor="middle">{_escape(title)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
