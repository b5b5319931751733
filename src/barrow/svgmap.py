"""Static SVG rendering of region maps and slack heatmaps.

Output is byte-deterministic: fixed palette, fixed float formatting, no
timestamps or library-dependent serialization.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .geom import Triangle
from .harness import ScanGrid
from .regions import VERTEX_REGIONS

#: Fill colors per region label, plus marker colors for the three vertices.
REGION_COLORS = {
    "lambda0": "#4c78a8",
    "mu1": "#9ecae9",
    "mu2": "#f58518",
    "mu3": "#ffbf79",
    "mu4": "#54a24b",
    "mu5": "#88d27a",
    "mu6": "#b79a20",
    "vertexA": "#e45756",
    "vertexB": "#72b7b2",
    "vertexC": "#eeca3b",
}

#: Width of every map in SVG user units; the height follows the box's aspect.
_WIDTH = 480

#: Endpoints of the slack heatmap ramp (low to high).
HEAT_LOW = (13, 8, 135)
HEAT_HIGH = (240, 249, 33)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _ramp_color(t: float) -> str:
    channels = (
        round(HEAT_LOW[0] + (HEAT_HIGH[0] - HEAT_LOW[0]) * t),
        round(HEAT_LOW[1] + (HEAT_HIGH[1] - HEAT_LOW[1]) * t),
        round(HEAT_LOW[2] + (HEAT_HIGH[2] - HEAT_LOW[2]) * t),
    )
    return "#{:02x}{:02x}{:02x}".format(*channels)


def render_region_map(grid: ScanGrid, T: Triangle, heatmap: bool = False) -> str:
    """Render a scan as an SVG region map, optionally with a slack overlay.

    Each grid cell becomes a rectangle filled with its region's palette
    color.  With ``heatmap`` a second translucent layer ramps linearly over
    the observed finite slack range (NaN cells are left uncovered).  The
    triangle outline and vertex markers are drawn on top.  Raises
    DomainError when the box is so tall for its width that the map's height
    is not finite.
    """
    x0, y0, x1, y1 = grid.bbox
    span_x = x1 - x0
    span_y = y1 - y0
    height = _WIDTH * span_y / span_x
    if not math.isfinite(height):
        raise DomainError(f"bounding box {grid.bbox} is too tall to draw: the map height overflows")
    cell_w = _WIDTH / grid.resolution
    cell_h = height / grid.resolution

    def px(x: float) -> float:
        return (x - x0) / span_x * _WIDTH

    def py(y: float) -> float:
        # SVG y axis points down.
        return (y1 - y) / span_y * height

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(height)}">',
        '<g id="regions">',
    ]
    # Each cell's rectangle up to its fill color, shared by both layers.
    size = f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}"'
    rects = []
    for row in grid.rows:
        cx = px(row.x) - cell_w / 2.0
        cy = py(row.y) - cell_h / 2.0
        rects.append(f'<rect x="{_fmt(cx)}" y="{_fmt(cy)}" {size} fill="')
        lines.append(f'{rects[-1]}{REGION_COLORS[row.region]}"/>')
    lines.append("</g>")

    if heatmap:
        finite = [row.slack for row in grid.rows if row.slack == row.slack]
        lo = min(finite) if finite else 0.0
        hi = max(finite) if finite else 0.0
        span = hi - lo
        lines.append('<g id="slack" opacity="0.55">')
        for rect, row in zip(rects, grid.rows):
            if row.slack != row.slack:
                continue
            t = 0.5 if span == 0.0 else (row.slack - lo) / span
            lines.append(f'{rect}{_ramp_color(t)}"/>')
        lines.append("</g>")

    outline = (
        f"M {_fmt(px(T.A.x))} {_fmt(py(T.A.y))} "
        f"L {_fmt(px(T.B.x))} {_fmt(py(T.B.y))} "
        f"L {_fmt(px(T.C.x))} {_fmt(py(T.C.y))} Z"
    )
    stroke_w = _WIDTH / 320.0
    marker_r = _WIDTH / 96.0
    lines.append(
        f'<path d="{outline}" fill="none" stroke="#1a1a1a" stroke-width="{_fmt(stroke_w)}"/>'
    )
    for region, V in zip(VERTEX_REGIONS, T.vertices):
        lines.append(
            f'<circle cx="{_fmt(px(V.x))}" cy="{_fmt(py(V.y))}" r="{_fmt(marker_r)}" '
            f'fill="{REGION_COLORS[region.value]}" stroke="#1a1a1a" stroke-width="{_fmt(stroke_w / 2.0)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
