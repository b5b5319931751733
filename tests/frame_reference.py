"""The frame path that evaluated every bound before the one point kernel.

Each bound had an evaluator over a :class:`~barrow.geom.PointFrame` and its
region; :func:`frame_values` applied the domain and summed the rhs,
:func:`frame_report` built the report, and :func:`frame_slacks` read the
fuzz's bounds in one pass over a frame.  The tests hold
:func:`barrow.inequalities.values_function`, :func:`barrow.inequalities.bound_report`
and the fuzz's slacks to these functions bit for bit.  Only the bisector
cache on the frame is gone: :func:`frame_bisectors` computes the three
lengths on every call, which gives the same values.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from barrow.bisectors import _bisector
from barrow.errors import OutsideInterior
from barrow.geom import Point2, PointFrame, Triangle
from barrow.inequalities import DEFAULT_TOL_FACTOR, InequalityId, InequalityReport, Term
from barrow.regions import DEFAULT_EPS, SIDE_ENDS, VERTEX_REGIONS, Region, classify_frame


def _weight(x: float, y: float) -> float:
    """sqrt(y/x) + sqrt(x/y), the t + 1/t weight pairing two vertex distances."""
    return math.sqrt(y / x) + math.sqrt(x / y)


def side_bisector(F: PointFrame, k: int) -> float:
    """Unsigned bisector from the frame's point toward side k; M must not be an endpoint."""
    i, j = SIDE_ENDS[k]
    return _bisector(F.R[i], F.R[j], F.cross[k], F.dot[k])


def frame_bisectors(F: PointFrame) -> tuple[float, float, float]:
    """Unsigned bisector lengths toward sides a, b, c of a non-vertex point."""
    F.check_not_vertex()
    (R_A, R_B, R_C), (k_a, k_b, k_c), (d_a, d_b, d_c) = F.R, F.cross, F.dot
    return (
        _bisector(R_B, R_C, k_a, d_a),
        _bisector(R_C, R_A, k_b, d_b),
        _bisector(R_A, R_B, k_c, d_c),
    )


def frame_signed_bisectors(F: PointFrame) -> tuple[float, float, float]:
    """Bisector lengths signed by the barycentric coordinates."""
    l_a, l_b, l_c = frame_bisectors(F)
    return (
        -l_a if F.u < 0.0 else l_a,
        -l_b if F.v < 0.0 else l_b,
        -l_c if F.w < 0.0 else l_c,
    )


_SIDES = (0, 1, 2)
_TWO = (2.0, 2.0, 2.0)
_VERTEX_BOUNDS = (InequalityId.VERTEX_A14, InequalityId.VERTEX_B15, InequalityId.VERTEX_C16)

_Bound = tuple[InequalityId, Region, float, Iterable[tuple[int, float, float]]]
_Entry = tuple[bool, Callable[[PointFrame, Region], _Bound]]
_Values = tuple[InequalityId, Region, float, float, tuple[tuple[int, float, float], ...]]


def _barrow(F: PointFrame, region: Region) -> _Bound:
    return InequalityId.BARROW1, region, F.R_sum, zip(_SIDES, _TWO, frame_bisectors(F))


def _erdos_mordell(F: PointFrame, region: Region) -> _Bound:
    return InequalityId.ERDOS_MORDELL2, region, F.R_sum, zip(_SIDES, _TWO, F.signed_distances())


def _dergiades(F: PointFrame, region: Region) -> _Bound:
    weights = F.T.ratio_weights
    return InequalityId.DERGIADES3, region, F.R_sum, zip(_SIDES, weights, F.signed_distances())


def _weighted(F: PointFrame, region: Region) -> _Bound:
    """The weighted bound with signed bisectors at a non-vertex point."""
    R_A, R_B, R_C = F.R
    lp_a, lp_b, lp_c = frame_signed_bisectors(F)
    terms = (
        (0, _weight(R_B, R_C), lp_a),
        (1, _weight(R_C, R_A), lp_b),
        (2, _weight(R_A, R_B), lp_c),
    )
    inequality = (
        InequalityId.LU_WEIGHTED13 if region is Region.LAMBDA0 else InequalityId.SIGNED_BARROW30
    )
    return inequality, region, F.R_sum, terms


def _vertex_report(F: PointFrame, k: int) -> _Bound:
    """Two-distance bound at (or numerically on top of) vertex k."""
    F.check_not_vertex(allow=k)
    i, j = SIDE_ENDS[k]
    R_i, R_j = F.R[i], F.R[j]
    term = (k, _weight(R_i, R_j), side_bisector(F, k))
    return _VERTEX_BOUNDS[k], VERTEX_REGIONS[k], R_i + R_j, (term,)


def _signed_barrow(F: PointFrame, region: Region) -> _Bound:
    if region in VERTEX_REGIONS:
        return _vertex_report(F, VERTEX_REGIONS.index(region))
    if F.vertex is not None:
        return _vertex_report(F, F.vertex)
    return _weighted(F, region)


BOUNDS: dict[InequalityId, _Entry] = {
    InequalityId.BARROW1: (True, _barrow),
    InequalityId.ERDOS_MORDELL2: (True, _erdos_mordell),
    InequalityId.DERGIADES3: (False, _dergiades),
    InequalityId.LU_WEIGHTED13: (True, _weighted),
    InequalityId.SIGNED_BARROW30: (False, _signed_barrow),
}


def frame_values(bound: _Entry, F: PointFrame, region: Region) -> _Values | None:
    """Values of ``bound``, an entry of :data:`BOUNDS`, at the frame's point in ``region``."""
    interior_only, evaluator = bound
    if interior_only:
        if region is not Region.LAMBDA0:
            return None
        F.check_not_vertex()
    inequality, region, lhs, parts = evaluator(F, region)
    parts = tuple(parts)
    rhs = 0.0
    for _, w, x in parts:
        rhs += w * x
    return inequality, region, lhs, rhs, parts


def frame_slacks(F: PointFrame, region: Region) -> tuple[tuple[str, str, float], ...]:
    """The (bound label, region label, slack) of each bound the fuzz reads at the frame's point."""
    if F.vertex is not None or region in VERTEX_REGIONS:
        return tuple(
            (inequality.value, got.value, lhs - rhs)
            for inequality, got, lhs, rhs, _ in (
                frame_values(BOUNDS[InequalityId.SIGNED_BARROW30], F, region),
                frame_values(BOUNDS[InequalityId.DERGIADES3], F, region),
            )
        )
    lp_a, lp_b, lp_c = frame_signed_bisectors(F)
    d_a, d_b, d_c = F.signed_distances()
    r_a, r_b, r_c = F.T.ratio_weights
    R_A, R_B, R_C = F.R
    lhs = F.R_sum
    label = region.value
    w_a, w_b, w_c = _weight(R_B, R_C), _weight(R_C, R_A), _weight(R_A, R_B)
    signed = lhs - (0.0 + w_a * lp_a + w_b * lp_b + w_c * lp_c)
    dergiades = ("Dergiades3", label, lhs - (0.0 + r_a * d_a + r_b * d_b + r_c * d_c))
    if region is not Region.LAMBDA0:
        return ("SignedBarrow30", label, signed), dergiades
    return (
        ("LuWeighted13", label, signed),
        dergiades,
        ("Barrow1", label, lhs - (0.0 + 2.0 * lp_a + 2.0 * lp_b + 2.0 * lp_c)),
        ("ErdosMordell2", label, lhs - (0.0 + 2.0 * d_a + 2.0 * d_b + 2.0 * d_c)),
    )


def frame_report(
    inequality: InequalityId, F: PointFrame, region: Region, tol_factor: float = DEFAULT_TOL_FACTOR
) -> InequalityReport:
    """Report of one bound of :data:`BOUNDS` at the frame's point, which lies in ``region``."""
    values = frame_values(BOUNDS[inequality], F, region)
    if values is None:
        raise OutsideInterior(f"point {F.M} classifies as {region.value}, not the interior")
    inequality, region, lhs, rhs, parts = values
    slack = lhs - rhs
    tight = abs(slack) <= tol_factor * F.R_sum
    terms = tuple(Term("abc"[side], w, x, w * x) for side, w, x in parts)
    return InequalityReport(inequality, region, lhs, rhs, slack, tight, terms)


def bound_report(
    inequality: InequalityId, T: Triangle, M: Point2, eps: float = DEFAULT_EPS,
    tol_factor: float = DEFAULT_TOL_FACTOR,
) -> InequalityReport:
    """The report the frame path gave for ``inequality`` at M, classified at ``eps``."""
    F = PointFrame(T, M)
    return frame_report(inequality, F, classify_frame(F, eps), tol_factor)


def report_row(inequality: InequalityId, T: Triangle, x: float, y: float, eps: float = DEFAULT_EPS):
    """The ``ScanRow``-ordered values of that report at (x, y), NaN for a side without a term."""
    F = PointFrame(T, Point2(x, y))
    rep = frame_report(inequality, F, classify_frame(F, eps))
    t = [math.nan, math.nan, math.nan]
    for term in rep.terms:
        t["abc".index(term.side)] = term.value
    return (x, y, rep.region.value, *F.R, *t, rep.lhs, rep.rhs, rep.slack)
