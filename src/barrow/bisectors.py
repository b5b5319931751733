"""Angle bisectors from a point toward the triangle sides.

For a point M and a side, say BC, the quantity of interest is the length of
the internal bisector of the angle ∠BMC, measured from M to where it meets
line BC.  Two closed forms exist for it; both are evaluated on every call
and cross-checked, because they fail in different numerical regimes:

* the half-angle form  2 R_B R_C / (R_B + R_C) * cos(alpha/2)  loses
  relative accuracy when alpha approaches π (M close to the open segment);
* the radical form  sqrt(R_B R_C) / (R_B + R_C) * sqrt((R_B+R_C)^2 - |BC|^2)
  is evaluated through the algebraically equal, cancellation-free expression
  (R_B+R_C)^2 - |BC|^2 = 2 (B-M)·(C-M) + 2 R_B R_C
                       = 2 ((B-M)×(C-M))^2 / (R_B R_C - (B-M)·(C-M)),
  the second rewriting used when the dot product is negative.

When M lies exactly on line BC the angle degenerates and the limit value is
used: 0 on the closed segment [BC], the harmonic-mean scale
2 R_B R_C / (R_B + R_C) outside it.
"""

from __future__ import annotations

import sys
from math import atan2, cos, sqrt
from typing import NamedTuple

from .errors import DomainError, NumericalError, VertexCoincidence
from .geom import COINCIDENCE_FACTOR, Point2, PointFrame, Triangle, _check_far, dist


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
    """Both closed forms from the distances to B and C and (B-M)×(C-M), (B-M)·(C-M)."""
    s = R_B + R_C
    scale = 2.0 * R_B * R_C / s

    if cross == 0.0:
        # M exactly on line BC; dot < 0 iff M strictly inside the segment.
        return 0.0 if dot < 0.0 else scale

    alpha = atan2(abs(cross), dot)
    half_angle_form = scale * cos(0.5 * alpha)

    # (R_B+R_C)^2 - side^2 without the cancellation of the literal parenthesis,
    # in units of s = R_B + R_C: no product of small lengths underflows where
    # the half-angle form's 2 R_B R_C does, so the check still catches that.
    # The radical form is only compared (and printed on a mismatch), never
    # returned, so the rounding of the division by s reaches no result.
    rr = (R_B / s) * (R_C / s)
    if dot >= 0.0:
        excess = 2.0 * (dot / s / s + rr)
    else:
        k = cross / s / s
        excess = 2.0 * k * k / (rr - dot / s / s)
    radical_form = s * sqrt(rr) * sqrt(excess)

    # Cross-check the independent forms on every call.  The absolute floor
    # covers the half-angle form's error (~eps * scale) next to the segment,
    # where both values are genuinely tiny.  ``larger`` is what
    # max(half_angle_form, radical_form) returns, NaN included.
    larger = radical_form if radical_form > half_angle_form else half_angle_form
    if abs(half_angle_form - radical_form) > 1e-10 * larger + 1e-13 * scale:
        raise NumericalError(
            f"bisector closed forms disagree: {half_angle_form!r} vs {radical_form!r} "
            f"(R={R_B!r}, {R_C!r}, cross={cross!r}, dot={dot!r})"
        )
    return half_angle_form


def bisector_length(M: Point2, B: Point2, C: Point2) -> float:
    """Length of the internal bisector of ∠BMC from M to line BC.

    Returns the limit value when M is exactly on line BC: 0 on [BC], the
    harmonic-mean scale 2 R_B R_C/(R_B + R_C) outside the segment.  Raises
    DomainError when the squared distances from M to B and C overflow, or
    when (B-M)×(C-M) is zero and |(B-M)·(C-M)| is below the smallest normal
    float: that zero may be an underflow rather than a point on the line.
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
    cross, dot = ux * vy - uy * vx, ux * vx + uy * vy
    if cross == 0.0 and abs(dot) < sys.float_info.min:
        raise DomainError(f"products of the vectors from point {M} to {B} and {C} underflow")
    return _bisector(R_B, R_C, cross, dot)


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
