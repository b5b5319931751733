"""Plane primitives: points, triangles, barycentric coordinates and distances.

Everything here is pure 64-bit float geometry.  Signs of barycentric
coordinates carry the semantic payload for the rest of the library, so they
are always derived from one source of truth: the cross product of two
M-relative vertex vectors, computed once per point in a :class:`PointFrame`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateTriangle, DomainError, VertexCoincidence

#: A triangle is rejected when |signed area| <= this factor times diameter^2.
DEGENERACY_FACTOR = 1e-12

#: M counts as coinciding with a vertex at or below this fraction of the diameter.
COINCIDENCE_FACTOR = 1e-12


class _XY(NamedTuple):
    x: float
    y: float


class Point2(_XY):
    """A point of the Euclidean plane: an ``(x, y)`` tuple of finite coordinates."""

    __slots__ = ()

    def __new__(cls, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    @classmethod
    def _make(cls, iterable):
        # The inherited ``_replace`` builds through ``_make``, so both check too.
        return cls(*iterable)


def dist(p: Point2, q: Point2) -> float:
    """Euclidean distance |pq|."""
    return math.hypot(p.x - q.x, p.y - q.y)


def signed_area(p: Point2, q: Point2, r: Point2) -> float:
    """Signed area of the triangle (p, q, r).

    Positive iff the vertices run counterclockwise, exactly 0.0 for inputs
    whose cross product evaluates to zero in floats.
    """
    return ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)) / 2.0


class Triangle:
    """A non-degenerate triangle with cached side lengths and orientation.

    Attributes:
        A, B, C: the vertices.
        a, b, c: side lengths |BC|, |CA|, |AB|.
        area: signed area of (A, B, C).
        orient_sign: 1.0 if (A, B, C) runs counterclockwise, else -1.0.
        diameter: longest side, the natural length scale of the triangle.
        ratio_weights: (c/b + b/c, c/a + a/c, a/b + b/a), pairing the two
            sides that meet side a, b, c; the weights of the Dergiades bound.
    """

    __slots__ = ("A", "B", "C", "a", "b", "c", "area", "orient_sign", "diameter", "ratio_weights")

    def __init__(self, A: Point2, B: Point2, C: Point2):
        self.A = A
        self.B = B
        self.C = C
        self.a = dist(B, C)
        self.b = dist(C, A)
        self.c = dist(A, B)
        self.area = signed_area(A, B, C)
        self.diameter = max(self.a, self.b, self.c)
        if abs(self.area) <= DEGENERACY_FACTOR * self.diameter * self.diameter:
            raise DegenerateTriangle(
                f"triangle {A}, {B}, {C} is degenerate (|area|={abs(self.area):.3e})"
            )
        self.orient_sign = 1.0 if self.area > 0.0 else -1.0
        a, b, c = self.a, self.b, self.c
        self.ratio_weights = (c / b + b / c, c / a + a / c, a / b + b / a)

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.A, self.B, self.C)

    def __repr__(self):
        return f"Triangle({self.A}, {self.B}, {self.C})"


class BaryCoords(NamedTuple):
    """Normalized affine barycentric coordinates (u + v + w = 1)."""

    u: float
    v: float
    w: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u, self.v, self.w)


class DistanceTriple(NamedTuple):
    """Distances from a point to the vertices A, B, C."""

    R_A: float
    R_B: float
    R_C: float


class SignedDistanceTriple(NamedTuple):
    """Signed distances to the sidelines BC, CA, AB.

    ``d_a`` is positive when the point lies on the same side of line BC as
    vertex A, negative on the far side, exactly 0.0 on the line.
    """

    d_a: float
    d_b: float
    d_c: float


def _keep_sign(q: float, cross: float, s: float) -> float:
    """``q``, a ratio of ``cross``, kept off zero unless ``cross`` is zero.

    An underflowed ratio becomes the smallest subnormal with the sign of
    ``s * cross``, so all ratios of one cross product share sign and zero.
    """
    if q == 0.0 and cross != 0.0:
        return math.copysign(5e-324, s * cross)
    return q


def _check_far(M: Point2, R) -> None:
    """Raise DomainError when a product of two of the distances R from M overflows."""
    far = max(R)
    if not math.isfinite(2.0 * far * far):
        # The bisector forms multiply two distances; past this they overflow.
        raise DomainError(f"squared distances from point {M} to the vertices overflow")


class PointFrame:
    """What the library reads about a point M against a triangle T, computed once.

    With the M-relative vertex vectors a = A - M, b = B - M, c = C - M:
    ``R`` = (|a|, |b|, |c|) with sum ``R_sum``; ``cross`` = (b×c, c×a, a×b),
    twice the signed areas of (M, B, C), (M, C, A), (M, A, B); ``dot`` =
    (b·c, c·a, a·b); ``u, v, w`` the barycentric coordinates, the crosses
    over twice the area (so a frame reads like :class:`BaryCoords`);
    ``vertex`` the index of the nearest vertex if M lies within
    ``COINCIDENCE_FACTOR`` of the diameter of it, else None; ``bisectors``
    the unsigned bisectors toward sides a, b, c once
    :func:`~barrow.bisectors.frame_bisectors` has computed them, else None.
    Region, signed distances, bisectors and weights all derive from these,
    so every sign and exact zero comes from one cross product.  Raises
    DomainError when the squared distances from M to the vertices overflow.
    """

    __slots__ = ("T", "M", "R", "R_sum", "cross", "dot", "u", "v", "w", "vertex", "bisectors")

    def __init__(self, T: Triangle, M: Point2):
        mx, my = M
        (Ax, Ay), (Bx, By), (Cx, Cy) = T.A, T.B, T.C
        ax, ay = Ax - mx, Ay - my
        bx, by = Bx - mx, By - my
        cx, cy = Cx - mx, Cy - my
        self.T = T
        self.M = M
        R_A, R_B, R_C = math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy)
        self.R = R = (R_A, R_B, R_C)
        # ``_check_far`` and ``_keep_sign`` are called only where they can
        # act: on an overflowing square and on a zero ratio.  No distance is
        # NaN, so the comparisons pick what max and min would.
        far = R_B if R_B > R_A else R_A
        far = R_C if R_C > far else far
        if 2.0 * far * far == math.inf:
            _check_far(M, R)
        self.R_sum = R_A + R_B + R_C
        self.cross = (k_a, k_b, k_c) = (bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx)
        self.dot = (bx * cx + by * cy, cx * ax + cy * ay, ax * bx + ay * by)
        area = T.area
        u, v, w = k_a / 2.0 / area, k_b / 2.0 / area, k_c / 2.0 / area
        if not (u and v and w):
            s = T.orient_sign
            u, v, w = _keep_sign(u, k_a, s), _keep_sign(v, k_b, s), _keep_sign(w, k_c, s)
        self.u, self.v, self.w = u, v, w
        nearest = R_B if R_B < R_A else R_A
        nearest = R_C if R_C < nearest else nearest
        self.vertex = R.index(nearest) if nearest <= COINCIDENCE_FACTOR * T.diameter else None
        self.bisectors = None

    def check_not_vertex(self, allow: int | None = None) -> None:
        """Raise VertexCoincidence if M sits on a vertex other than ``allow``."""
        if self.vertex is not None and self.vertex != allow:
            name = "ABC"[self.vertex]
            raise VertexCoincidence(f"point {self.M} coincides with vertex {name}", vertex=name)

    def signed_distances(self) -> tuple[float, float, float]:
        """Signed distances to the sidelines BC, CA, AB; see :class:`SignedDistanceTriple`."""
        T = self.T
        s = T.orient_sign
        k_a, k_b, k_c = self.cross
        return (
            _keep_sign(s * 2.0 * (k_a / 2.0) / T.a, k_a, s),
            _keep_sign(s * 2.0 * (k_b / 2.0) / T.b, k_b, s),
            _keep_sign(s * 2.0 * (k_c / 2.0) / T.c, k_c, s),
        )


def side_coordinate(T: Triangle, M: Point2, k: int) -> float:
    """Barycentric coordinate ``k`` of M (u, v, w for k = 0, 1, 2), bit for bit as in a frame.

    It is the one cross product of the M-relative vectors to the endpoints of
    side k (B and C, then C and A, then A and B) over twice the area, without
    the distances and the other products a :class:`PointFrame` computes.
    """
    (px, py), (qx, qy), (mx, my) = T.vertices[(k + 1) % 3], T.vertices[(k + 2) % 3], M
    cross = (px - mx) * (qy - my) - (py - my) * (qx - mx)
    return _keep_sign(cross / 2.0 / T.area, cross, T.orient_sign)


def barycentric(T: Triangle, M: Point2) -> BaryCoords:
    """Normalized barycentric coordinates of M with respect to T (see :class:`PointFrame`)."""
    F = PointFrame(T, M)
    return BaryCoords(F.u, F.v, F.w)


def vertex_distances(T: Triangle, M: Point2) -> DistanceTriple:
    """Euclidean distances from M to the three vertices."""
    return DistanceTriple(*PointFrame(T, M).R)


def signed_distances(T: Triangle, M: Point2) -> SignedDistanceTriple:
    """Signed distances from M to the three sidelines.

    |d_x| is the ordinary point-to-line distance; its sign and exact zero are
    those of the barycentric coordinate, both ratios of one cross product.
    """
    return SignedDistanceTriple(*PointFrame(T, M).signed_distances())
