"""Partition of the plane induced by the three sidelines of a triangle.

The three sidelines cut the plane into seven open pieces, distinguished by
the sign pattern of the barycentric coordinates (u, v, w):

    interior        (+, +, +)
    edge strips     (-, +, +), (+, -, +), (+, +, -)   opposite A, B, C
    vertex wedges   (+, -, -), (-, +, -), (-, -, +)   beyond A, B, C

The classifier maps every point to one of ten labels: the interior, the
three strips taken *closed* (each owns its base segment and the two sideline
extension rays in its closure, minus two vertices), the three wedges taken
*open*, and the three vertices themselves.  Boundary points have one or two
coordinates within ``eps`` of zero; the snapping rules below decide which
label owns them, so the ten labels tile the plane without gaps or overlaps.

The partition is written only here, as three tables that the rest of the
package reads: :data:`OPEN_PATTERNS`, :data:`VERTEX_REGIONS` and
:data:`SIDE_ENDS`.
"""

from __future__ import annotations

import enum

from .geom import BaryCoords, Point2, PointFrame, Triangle

DEFAULT_EPS = 1e-12


class Region(enum.Enum):
    """Label of a plane region in the sideline partition."""

    LAMBDA0 = "lambda0"
    MU1 = "mu1"
    MU2 = "mu2"
    MU3 = "mu3"
    MU4 = "mu4"
    MU5 = "mu5"
    MU6 = "mu6"
    VERTEX_A = "vertexA"
    VERTEX_B = "vertexB"
    VERTEX_C = "vertexC"

    @property
    def is_vertex(self) -> bool:
        return self in VERTEX_REGIONS


def sign_pattern(bc: BaryCoords | PointFrame, eps: float = DEFAULT_EPS) -> tuple[int, int, int]:
    """Snap each coordinate u, v, w to -1, 0 or +1, treating |x| <= eps as zero."""
    u, v, w = bc.u, bc.v, bc.w
    return (
        0 if abs(u) <= eps else 1 if u > 0.0 else -1,
        0 if abs(v) <= eps else 1 if v > 0.0 else -1,
        0 if abs(w) <= eps else 1 if w > 0.0 else -1,
    )


#: Coordinate sign pattern of each full-dimensional region's open part.
OPEN_PATTERNS: dict[Region, tuple[int, int, int]] = {
    Region.LAMBDA0: (1, 1, 1),
    Region.MU1: (-1, 1, 1),
    Region.MU2: (1, -1, 1),
    Region.MU3: (1, 1, -1),
    Region.MU4: (1, -1, -1),
    Region.MU5: (-1, 1, -1),
    Region.MU6: (-1, -1, 1),
}

#: The vertex labels, indexed like the vertices A, B, C.
VERTEX_REGIONS = (Region.VERTEX_A, Region.VERTEX_B, Region.VERTEX_C)

#: Vertex indices of the endpoints of side k (0: BC, 1: CA, 2: AB); side k
#: lies opposite vertex k, on the sideline where coordinate k vanishes.
SIDE_ENDS = ((1, 2), (2, 0), (0, 1))

_REGION_BY_PATTERN = {pattern: region for region, pattern in OPEN_PATTERNS.items()}


def classify_pattern(pattern: tuple[int, int, int]) -> Region:
    """Region owning a snapped sign pattern.

    Zeros mark sideline membership and are resolved to the closed region
    that contains the boundary piece.  Two or more zeros are the vertex of
    the largest coordinate, the first on a tie (only a coordinate near 1
    can arise from u + v + w = 1).  A single zero counts as negative when
    no other coordinate is negative (a point of a side segment belongs to
    the strip across it) and as positive otherwise (an extension ray
    belongs to the closed strip, not the open wedge).  The snapped pattern
    then names an open region; ``(-1, -1, -1)`` raises ValueError.
    """
    region = _REGION_BY_PATTERN.get(pattern)
    if region is not None:
        return region
    if pattern.count(0) >= 2:
        return VERTEX_REGIONS[pattern.index(max(pattern))]
    if 0 in pattern:
        zero = 1 if -1 in pattern else -1
        region = _REGION_BY_PATTERN.get(tuple(zero if s == 0 else s for s in pattern))
    if region is None:
        raise ValueError(f"impossible sign pattern {pattern}: u + v + w = 1")
    return region


def classify_frame(F: PointFrame, eps: float = DEFAULT_EPS) -> Region:
    """Region of the sideline partition containing the frame's point."""
    return classify_pattern(sign_pattern(F, eps))


def classify(T: Triangle, M: Point2) -> Region:
    """Region containing M at :data:`DEFAULT_EPS`; :func:`classify_frame` takes another eps."""
    return classify_frame(PointFrame(T, M))
