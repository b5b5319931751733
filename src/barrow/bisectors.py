"""Angle bisectors from a point toward the triangle sides.

For a point M and a side, say BC, the quantity of interest is the length of
the internal bisector of the angle ∠BMC, measured from M to where it meets
line BC.  It is evaluated in one closed form, the half-angle form
2 R_B R_C / (R_B + R_C) * cos(alpha/2), whose relative accuracy is that of
cos(alpha/2) as alpha approaches π (M close to the open segment).

When M lies exactly on line BC the angle degenerates and the limit value is
used: 0 on the closed segment [BC], the harmonic-mean scale
2 R_B R_C / (R_B + R_C) outside it.

One underflow rule guards every bisector: a DomainError when 2 R_B R_C is
below the smallest normal float, where the product has lost digits, or,
with M on line BC, when |(B-M)·(C-M)| is, where the zero cross product may
be an underflow rather than a point on the line.
"""

from __future__ import annotations

import sys
from math import atan2, cos
from typing import NamedTuple

from .errors import DomainError, VertexCoincidence
from .geom import COINCIDENCE_FACTOR, Point2, PointFrame, Triangle, _check_far, dist

_MIN_NORMAL = sys.float_info.min


class BisectorTriple(NamedTuple):
    """Unsigned bisector lengths toward sides BC, CA, AB."""

    l_a: float
    l_b: float
    l_c: float


class SignedBisectorTriple(NamedTuple):
    """Bisector lengths signed by the side of the sideline M lies on.

    Positive when M and the opposite vertex share a side of the line,
    negative across it, non-negative (the limit value) on the line itself.
    """

    lp_a: float
    lp_b: float
    lp_c: float


def _bisector(R_B: float, R_C: float, cross: float, dot: float) -> float:
    """The half-angle form from the distances to B and C and (B-M)×(C-M), (B-M)·(C-M)."""
    product = 2.0 * R_B * R_C
    if product < _MIN_NORMAL or cross == 0.0 and abs(dot) < _MIN_NORMAL:
        raise DomainError(
            f"bisector products underflow (R={R_B!r}, {R_C!r}, cross={cross!r}, dot={dot!r})"
        )
    scale = product / (R_B + R_C)
    if cross == 0.0:
        # M exactly on line BC; dot < 0 iff M strictly inside the segment.
        return 0.0 if dot < 0.0 else scale
    return scale * cos(0.5 * atan2(abs(cross), dot))


def bisector_length(M: Point2, B: Point2, C: Point2) -> float:
    """Length of the internal bisector of ∠BMC from M to line BC.

    Returns the limit value when M is exactly on line BC: 0 on [BC], the
    harmonic-mean scale 2 R_B R_C/(R_B + R_C) outside the segment.  Raises
    DomainError when the squared distances from M to B and C overflow, or
    under the module's underflow rule.
    """
    R_B = dist(M, B)
    R_C = dist(M, C)
    _check_far(M, (R_B, R_C))
    threshold = COINCIDENCE_FACTOR * dist(B, C)
    if R_B <= threshold:
        raise VertexCoincidence(f"point {M} coincides with {B}", vertex="B")
    if R_C <= threshold:
        raise VertexCoincidence(f"point {M} coincides with {C}", vertex="C")
    ux, uy = B.x - M.x, B.y - M.y
    vx, vy = C.x - M.x, C.y - M.y
    return _bisector(R_B, R_C, ux * vy - uy * vx, ux * vx + uy * vy)


def _lengths(F: PointFrame) -> tuple[float, float, float]:
    """Unsigned bisector lengths toward sides a, b, c of a non-vertex point."""
    F.check_not_vertex()
    (R_A, R_B, R_C), (k_a, k_b, k_c), (d_a, d_b, d_c) = F.R, F.cross, F.dot
    return (
        _bisector(R_B, R_C, k_a, d_a),
        _bisector(R_C, R_A, k_b, d_b),
        _bisector(R_A, R_B, k_c, d_c),
    )


def bisector_lengths(T: Triangle, M: Point2) -> BisectorTriple:
    """Unsigned bisector lengths from M toward all three sides."""
    return BisectorTriple(*_lengths(PointFrame(T, M)))


def signed_bisectors(T: Triangle, M: Point2) -> SignedBisectorTriple:
    """Bisector lengths from M signed by the side of each sideline M lies on.

    Each takes the sign of its coordinate, which reads the same cross product
    as its collinearity branch, so the two agree by construction.
    """
    F = PointFrame(T, M)
    l_a, l_b, l_c = _lengths(F)
    return SignedBisectorTriple(
        -l_a if F.u < 0.0 else l_a,
        -l_b if F.v < 0.0 else l_b,
        -l_c if F.w < 0.0 else l_c,
    )
