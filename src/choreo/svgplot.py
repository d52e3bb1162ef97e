"""Dependency-free SVG emission for orbits and saddle overlays.

Output is deterministic (no timestamps, fixed float formatting) so plots can
be diffed in tests.
"""

from __future__ import annotations

import numpy as np

from .loops import FourierLoop, SystemParams, body_samples, resolve_grid_size

# Canvas edge in pixels, the margin around the curves as a fraction of
# their extent, the background colour, and the coordinate plane drawn.
_SIZE = 640
_MARGIN = 0.06
_BACKGROUND = "#ffffff"
_PLANE = (0, 1)

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#393b79",
    "#ad494a",
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def curves_svg(curves) -> str:
    """Render closed polylines.

    ``curves`` is a sequence of (points, color, width, opacity) with points
    an (M, 2) array; the first point is appended to close each curve.
    """
    pts = np.vstack([c[0] for c in curves])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = _MARGIN * span
    x0, y0 = lo[0] - pad, lo[1] - pad
    width = span + 2 * pad

    def to_px(p):
        # y axis flipped: SVG grows downward
        px = (p[:, 0] - x0) / width * _SIZE
        py = _SIZE - (p[:, 1] - y0) / width * _SIZE
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="{_BACKGROUND}"/>',
    ]
    for points, color, width_px, opacity in curves:
        closed = np.vstack([points, points[:1]])
        px, py = to_px(closed)
        coords = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width_px)}" '
            f'stroke-opacity="{_fmt(opacity)}" stroke-linejoin="round"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _body_curves(loop: FourierLoop, n: int, width: float, opacity: float) -> list:
    """The n body curves of ``loop`` on its default grid, projected on the
    rotation plane, one stroke color per body; the loop is sampled once."""
    M = resolve_grid_size(loop.cutoff, n, None)
    bodies = body_samples(loop.sample(M)[:, _PLANE], n)
    return [
        (pts, PALETTE[i % len(PALETTE)], width, opacity) for i, pts in enumerate(bodies)
    ]


def orbit_svg(loop: FourierLoop, params: SystemParams) -> str:
    """All n body curves projected on the rotation plane, one stroke color
    per body."""
    return curves_svg(_body_curves(loop, params.n, 2.0, 0.95))


def saddle_svg(
    saddle: FourierLoop,
    endpoints: tuple[FourierLoop, FourierLoop],
    params: SystemParams,
) -> str:
    """Endpoint orbits (faint) with the saddle candidate overlaid."""
    curves = []
    for end in endpoints:
        curves += _body_curves(end, params.n, 1.0, 0.30)
    return curves_svg(curves + _body_curves(saddle, params.n, 2.5, 1.0))
