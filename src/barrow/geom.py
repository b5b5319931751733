"""Plane primitives: points, triangles, barycentric coordinates and distances.

Everything here is pure 64-bit float geometry.  Signs of barycentric
coordinates carry the semantic payload for the rest of the library, so they
are always derived from one source of truth: the cross product of two
M-relative vertex vectors, computed once per point, in a :class:`PointFrame`
for the public point functions and in the same float operations by the
point kernel of :mod:`barrow.inequalities`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateTriangle, DomainError, VertexCoincidence, _shown

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
        try:
            if math.isfinite(x) and math.isfinite(y):
                return tuple.__new__(cls, (x, y))
        except OverflowError:  # an int beyond the float range is not finite either
            pass
        raise ValueError(f"point coordinates must be finite, got ({_shown(x)}, {_shown(y)})")

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
        # The float operations of ``dist(B, C)``, ``dist(C, A)``,
        # ``dist(A, B)``, ``signed_area(A, B, C)`` and ``max(a, b, c)``, on
        # coordinates read once.  ``math.hypot`` is read at each call, as the
        # point kernel reads it.
        (Ax, Ay), (Bx, By), (Cx, Cy) = A, B, C
        hypot = math.hypot
        self.A = A
        self.B = B
        self.C = C
        self.a = a = hypot(Bx - Cx, By - Cy)
        self.b = b = hypot(Cx - Ax, Cy - Ay)
        self.c = c = hypot(Ax - Bx, Ay - By)
        self.area = area = ((Bx - Ax) * (Cy - Ay) - (By - Ay) * (Cx - Ax)) / 2.0
        diameter = b if b > a else a
        self.diameter = diameter = c if c > diameter else diameter
        if abs(area) <= DEGENERACY_FACTOR * diameter * diameter:
            raise DegenerateTriangle(
                f"triangle {A}, {B}, {C} is degenerate (|area|={abs(area):.3e})"
            )
        self.orient_sign = 1.0 if area > 0.0 else -1.0
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
    ``R`` = (|a|, |b|, |c|); ``cross`` = (b×c, c×a, a×b),
    twice the signed areas of (M, B, C), (M, C, A), (M, A, B); ``dot`` =
    (b·c, c·a, a·b); ``u, v, w`` the barycentric coordinates, the crosses
    over twice the area (so a frame reads like :class:`BaryCoords`);
    ``vertex`` the index of the nearest vertex if M lies within
    ``COINCIDENCE_FACTOR`` of the diameter of it, else None.  Region,
    signed distances and bisectors all derive from these,
    so every sign and exact zero comes from one cross product.  Raises
    DomainError when the squared distances from M to the vertices overflow.
    """

    __slots__ = ("T", "M", "R", "cross", "dot", "u", "v", "w", "vertex")

    def __init__(self, T: Triangle, M: Point2):
        mx, my = M
        (Ax, Ay), (Bx, By), (Cx, Cy) = T.A, T.B, T.C
        ax, ay = Ax - mx, Ay - my
        bx, by = Bx - mx, By - my
        cx, cy = Cx - mx, Cy - my
        self.T = T
        self.M = M
        self.R = R = (math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy))
        _check_far(M, R)
        self.cross = (k_a, k_b, k_c) = (bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx)
        self.dot = (bx * cx + by * cy, cx * ax + cy * ay, ax * bx + ay * by)
        area, s = T.area, T.orient_sign
        self.u = _keep_sign(k_a / 2.0 / area, k_a, s)
        self.v = _keep_sign(k_b / 2.0 / area, k_b, s)
        self.w = _keep_sign(k_c / 2.0 / area, k_c, s)
        nearest = min(R)
        self.vertex = R.index(nearest) if nearest <= COINCIDENCE_FACTOR * T.diameter else None

    def check_not_vertex(self) -> None:
        """Raise VertexCoincidence if M sits on a vertex."""
        if self.vertex is not None:
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
