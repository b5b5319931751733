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
        return self in (Region.VERTEX_A, Region.VERTEX_B, Region.VERTEX_C)

    @property
    def is_interior(self) -> bool:
        return self is Region.LAMBDA0


def sign_pattern(bc: BaryCoords | PointFrame, eps: float = DEFAULT_EPS) -> tuple[int, int, int]:
    """Snap each coordinate u, v, w to -1, 0 or +1, treating |x| <= eps as zero."""
    def sgn(x: float) -> int:
        if abs(x) <= eps:
            return 0
        return 1 if x > 0.0 else -1

    return (sgn(bc.u), sgn(bc.v), sgn(bc.w))


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

_STRIP_BY_NEG = {0: Region.MU1, 1: Region.MU2, 2: Region.MU3}
_WEDGE_BY_POS = {0: Region.MU4, 1: Region.MU5, 2: Region.MU6}
_VERTEX_BY_POS = {0: Region.VERTEX_A, 1: Region.VERTEX_B, 2: Region.VERTEX_C}


def classify_pattern(pattern: tuple[int, int, int]) -> Region:
    """Region owning a snapped sign pattern.

    Zeros mark sideline membership and are resolved to the closed region
    that contains the boundary piece: a point of a side segment belongs to
    the strip across that side, a point of an extension ray belongs to the
    strip whose closure contains that ray, and a double zero is a vertex.
    """
    zeros = [i for i, s in enumerate(pattern) if s == 0]
    negs = [i for i, s in enumerate(pattern) if s < 0]

    if len(zeros) >= 2:
        # Two coordinates vanish only at a vertex: the remaining one is ~1.
        pos = max(range(3), key=lambda i: pattern[i])
        if len(zeros) == 3:  # unreachable for u+v+w = 1, kept for totality
            pos = 0
        return _VERTEX_BY_POS[pos]

    if len(zeros) == 1:
        z = zeros[0]
        if len(negs) == 0:
            # On a side of the triangle (u, v, w >= 0): the opposite strip
            # owns its boundary, so the zero counts as negative.
            return _STRIP_BY_NEG[z]
        if len(negs) == 1:
            # On a sideline extension ray: it separates a strip from a
            # wedge, and the strip is the closed one.
            return _STRIP_BY_NEG[negs[0]]
        # A zero with two negatives cannot arise from u + v + w = 1; resolve
        # to the adjacent wedge for totality.
        return _WEDGE_BY_POS[3 - negs[0] - negs[1]]

    if len(negs) == 0:
        return Region.LAMBDA0
    if len(negs) == 1:
        return _STRIP_BY_NEG[negs[0]]
    if len(negs) == 2:
        return _WEDGE_BY_POS[3 - negs[0] - negs[1]]
    raise ValueError(f"impossible sign pattern {pattern}: u + v + w = 1")


def classify_frame(F: PointFrame, eps: float = DEFAULT_EPS) -> Region:
    """Region of the sideline partition containing the frame's point."""
    return classify_pattern(sign_pattern(F, eps))


def classify(T: Triangle, M: Point2, eps: float = DEFAULT_EPS) -> Region:
    """Region of the sideline partition containing M."""
    return classify_frame(PointFrame(T, M), eps)
