"""Slack evaluators for the distance/bisector inequalities.

Every named bound is an entry of one table, :data:`BOUNDS`, that maps its
identifier to its domain and to its evaluator on a
:class:`~barrow.geom.PointFrame`.  An evaluator returns a ``_Bound``: the
bound, the region, the lhs and the (side, weight, value) parts of the rhs,
each side its index 0, 1 or 2.  :func:`frame_values` applies the domain and
sums the rhs; the fuzz, scan and search read those values and build no
records.  Only :func:`frame_report` builds an :class:`InequalityReport`:
the slack ``lhs - rhs`` (non-negative for all valid inputs, up to
floating-point tolerance; that non-negativity is the property the rest of
the repository tests), ``tight`` and one :class:`Term` per rhs part, which
names its side ``a``, ``b`` or ``c``.

The central public evaluator is :func:`evaluate`, which dispatches on the
region of the query point: the weighted bisector bound in the interior, its
signed-bisector extension in the strip and wedge regions, and the reduced
two-distance bound when the point sits on a vertex.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterable, NamedTuple

from .bisectors import frame_bisectors, frame_signed_bisectors, side_bisector
from .errors import DomainError, OutsideInterior, VertexCoincidence
from .geom import DistanceTriple, Point2, PointFrame, Triangle
from .regions import SIDE_ENDS, VERTEX_REGIONS, Region, classify_frame

#: |slack| below this fraction of (R_A+R_B+R_C) is reported as an equality case.
DEFAULT_TOL_FACTOR = 1e-9


class InequalityId(enum.Enum):
    """Stable identifiers of the inequalities this library evaluates."""

    BARROW1 = "Barrow1"
    ERDOS_MORDELL2 = "ErdosMordell2"
    DERGIADES3 = "Dergiades3"
    LU_WEIGHTED13 = "LuWeighted13"
    SIGNED_BARROW30 = "SignedBarrow30"
    VERTEX_A14 = "VertexA14"
    VERTEX_B15 = "VertexB15"
    VERTEX_C16 = "VertexC16"


class WeightTriple(NamedTuple):
    """Per-side weights of the form t + 1/t, hence each >= 2."""

    w_a: float
    w_b: float
    w_c: float


class Term(NamedTuple):
    """One right-hand-side term: weight times a bisector or distance value."""

    side: str
    weight: float
    value: float
    contribution: float


class InequalityReport(NamedTuple):
    """Outcome of evaluating one inequality at one point."""

    inequality: InequalityId
    region: Region
    lhs: float
    rhs: float
    slack: float
    tight: bool
    terms: tuple[Term, ...]

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "inequality": self.inequality.value,
            "region": self.region.value,
            "terms": [t._asdict() for t in self.terms],
        }


def _validate_nonneg(**named: float) -> None:
    for name, value in named.items():
        if not math.isfinite(value) or value < 0.0:
            raise DomainError(f"{name} must be a finite non-negative real, got {value}")


#: Per statement: alpha = offset + sign * beta + sign * gamma, then the signs
#: of the alpha, beta and gamma cosine terms.
_STATEMENTS = {
    "S1": (math.pi, -1.0, (1.0, 1.0, 1.0)),
    "S2": (0.0, 1.0, (-1.0, 1.0, 1.0)),
    "S3": (0.0, 1.0, (1.0, -1.0, -1.0)),
}


def stmt_slack(kind: str, p: float, q: float, r: float, beta: float, gamma: float) -> float:
    """Slack of one of the three scalar inequalities behind the geometry.

    All three bound p + q + r from below by mixed terms 2·sqrt(..)·cos(..);
    they differ in how the third angle alpha is tied to beta and gamma and in
    the sign arrangement:

        S1: alpha = pi - beta - gamma, all three cosine terms added;
        S2: alpha = beta + gamma, the alpha term entering negated;
        S3: alpha = beta + gamma, the beta and gamma terms entering negated.

    Returns lhs - rhs, which is >= 0 for every valid input.
    """
    _validate_nonneg(p=p, q=q, r=r, beta=beta, gamma=gamma)
    if beta + gamma > math.pi + 1e-12:
        raise DomainError(f"beta + gamma = {beta + gamma} exceeds pi")
    if kind not in _STATEMENTS:
        raise ValueError(f"unknown statement kind {kind!r}, expected 'S1', 'S2' or 'S3'")
    offset, sign, (s_alpha, s_beta, s_gamma) = _STATEMENTS[kind]
    alpha = offset + sign * beta + sign * gamma
    sp, sq, sr = math.sqrt(p), math.sqrt(q), math.sqrt(r)
    rhs = (
        s_alpha * 2.0 * sq * sr * math.cos(alpha)
        + s_beta * 2.0 * sp * sr * math.cos(beta)
        + s_gamma * 2.0 * sp * sq * math.cos(gamma)
    )
    return (p + q + r) - rhs


class IdentityResiduals(NamedTuple):
    """Absolute gaps between direct expressions and their square forms."""

    lagrange: float
    case1: float
    case2: float
    discriminant: float


def identity_residuals(p: float, q: float, r: float, beta: float, alpha: float) -> IdentityResiduals:
    """Residuals of the four sum-of-squares rewritings used by the proofs.

    Each rewriting is an algebraic identity, so all residuals must vanish up
    to roundoff (<= 1e-12 * max(1, p+q+r)).  The two case forms apply on
    complementary half-ranges of alpha; the inapplicable one is reported as
    exactly 0.  Requires gamma = alpha - beta >= 0.
    """
    _validate_nonneg(p=p, q=q, r=r, beta=beta, alpha=alpha)
    if alpha > math.pi + 1e-12 or beta > math.pi + 1e-12:
        raise DomainError(f"angles must lie in [0, pi], got alpha={alpha}, beta={beta}")
    gamma = alpha - beta
    if gamma < 0.0:
        raise DomainError(f"alpha - beta = {gamma} must be non-negative")

    sp, sq, sr = math.sqrt(p), math.sqrt(q), math.sqrt(r)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)

    direct_plus = p + q + r + 2.0 * sq * sr * ca - 2.0 * sp * sr * cb - 2.0 * sp * sq * cg
    square_plus = (sr - sp * cb + sq * ca) ** 2 + (sp * sb - sq * sa) ** 2
    lagrange = abs(direct_plus - square_plus)

    direct_minus = p + q + r - 2.0 * sq * sr * ca + 2.0 * sp * sr * cb + 2.0 * sp * sq * cg
    if ca <= 0.0:
        square_obtuse = (sr + sp * cb + sq * ca) ** 2 + (sp * sb + sq * sa) ** 2 - 4.0 * sq * sr * ca
        case1 = abs(direct_minus - square_obtuse)
        case2 = 0.0
    else:
        square_acute = (sr - sp * cb - sq * ca) ** 2 + (sp * sb + sq * sa) ** 2 + 4.0 * sp * sr * cb
        case1 = 0.0
        case2 = abs(direct_minus - square_acute)

    disc_direct = 4.0 * ((sr * cb + sq * cg) ** 2 - (q + r + 2.0 * sq * sr * ca))
    disc_closed = -4.0 * (sr * sb - sq * sg) ** 2
    discriminant = abs(disc_direct - disc_closed)

    return IdentityResiduals(lagrange, case1, case2, discriminant)


def _weight(x: float, y: float) -> float:
    """sqrt(y/x) + sqrt(x/y), the t + 1/t weight pairing two vertex distances."""
    return math.sqrt(y / x) + math.sqrt(x / y)


def lu_weights(R: DistanceTriple) -> WeightTriple:
    """Weights sqrt(R_y/R_x) + sqrt(R_x/R_y) pairing the two distances off each side.

    Diverges as any distance tends to 0, which is why callers route
    (near-)vertex points to the reduced vertex inequality instead.
    """
    for name, value in zip("ABC", R):
        if value <= 0.0:
            raise VertexCoincidence(
                f"distance to vertex {name} is {value}; weights are undefined there", vertex=name
            )
    return WeightTriple(*[_weight(R[i], R[j]) for i, j in SIDE_ENDS])


_SIDES = (0, 1, 2)
_TWO = (2.0, 2.0, 2.0)
_VERTEX_BOUNDS = (InequalityId.VERTEX_A14, InequalityId.VERTEX_B15, InequalityId.VERTEX_C16)

# The members every evaluation reads, bound once: on Python 3.10 and 3.11
# reading an enum member off its class runs Python code.
_LAMBDA0 = Region.LAMBDA0
_BARROW1 = InequalityId.BARROW1
_ERDOS_MORDELL2 = InequalityId.ERDOS_MORDELL2
_DERGIADES3 = InequalityId.DERGIADES3
_LU_WEIGHTED13 = InequalityId.LU_WEIGHTED13
_SIGNED_BARROW30 = InequalityId.SIGNED_BARROW30

#: What an evaluator says its bound is at a point: the bound, the region it
#: reports, the lhs, and the (side index, weight, value) of each rhs term.
_Bound = tuple[InequalityId, Region, float, Iterable[tuple[int, float, float]]]

#: A bound's entry in :data:`BOUNDS`: whether it is interior-only, and its evaluator.
_Entry = tuple[bool, Callable[[PointFrame, Region], _Bound]]

#: What :func:`frame_values` returns: an evaluator's bound, region and lhs,
#: then the rhs and the (side, weight, value) parts it sums.
_Values = tuple[InequalityId, Region, float, float, tuple[tuple[int, float, float], ...]]


def _barrow(F: PointFrame, region: Region) -> _Bound:
    return _BARROW1, region, F.R_sum, zip(_SIDES, _TWO, frame_bisectors(F))


def _erdos_mordell(F: PointFrame, region: Region) -> _Bound:
    return _ERDOS_MORDELL2, region, F.R_sum, zip(_SIDES, _TWO, F.signed_distances())


def _dergiades(F: PointFrame, region: Region) -> _Bound:
    weights = F.T.ratio_weights
    return _DERGIADES3, region, F.R_sum, zip(_SIDES, weights, F.signed_distances())


def _weighted(F: PointFrame, region: Region) -> _Bound:
    """The weighted bound with signed bisectors at a non-vertex point.

    One arithmetic path for both regimes, so the interior report is
    bit-identical to what the signed formula yields there.
    """
    R_A, R_B, R_C = F.R
    lp_a, lp_b, lp_c = frame_signed_bisectors(F)
    terms = (
        (0, _weight(R_B, R_C), lp_a),
        (1, _weight(R_C, R_A), lp_b),
        (2, _weight(R_A, R_B), lp_c),
    )
    inequality = _LU_WEIGHTED13 if region is _LAMBDA0 else _SIGNED_BARROW30
    return inequality, region, F.R_sum, terms


def _vertex_report(F: PointFrame, k: int) -> _Bound:
    """Two-distance bound at (or numerically on top of) vertex k.

    Only the bisector toward the side opposite the coincident vertex stays
    well-defined, so the report has a single right-hand-side term.
    """
    F.check_not_vertex(allow=k)
    i, j = SIDE_ENDS[k]
    R_i, R_j = F.R[i], F.R[j]
    term = (k, _weight(R_i, R_j), side_bisector(F, k))
    return _VERTEX_BOUNDS[k], VERTEX_REGIONS[k], R_i + R_j, (term,)


def _signed_barrow(F: PointFrame, region: Region) -> _Bound:
    if region in VERTEX_REGIONS:
        return _vertex_report(F, VERTEX_REGIONS.index(region))
    if F.vertex is not None:
        # Numerically on a vertex even though the sign pattern says otherwise
        # (possible for thin triangles); the weights are unusable there.
        return _vertex_report(F, F.vertex)
    return _weighted(F, region)


#: Every bound that can be requested by name: whether it is interior-only,
#: and its evaluator ``(frame, region) -> _Bound``.  The vertex bounds are
#: absent: each holds at one point, where the signed bound routes.
BOUNDS: dict[InequalityId, _Entry] = {
    InequalityId.BARROW1: (True, _barrow),
    InequalityId.ERDOS_MORDELL2: (True, _erdos_mordell),
    InequalityId.DERGIADES3: (False, _dergiades),
    InequalityId.LU_WEIGHTED13: (True, _weighted),
    InequalityId.SIGNED_BARROW30: (False, _signed_barrow),
}

#: Inequalities restricted to the open interior.
INTERIOR_IDS = frozenset(i for i, (interior_only, _) in BOUNDS.items() if interior_only)

#: Inequalities defined only pointwise at a vertex (no 2-D domain to search).
VERTEX_IDS = frozenset(InequalityId).difference(BOUNDS)


def frame_values(bound: _Entry, F: PointFrame, region: Region) -> _Values | None:
    """Values of ``bound``, an entry of :data:`BOUNDS`, at the frame's point in ``region``.

    None when the bound is interior-only and ``region`` is not the open
    interior; VertexCoincidence when it is interior-only and the point is on
    a vertex.  The rhs is summed left to right from 0.0.  The jobs read these
    values directly; :func:`frame_report` builds the records from them.
    """
    interior_only, evaluator = bound
    if interior_only:
        if region is not _LAMBDA0:
            return None
        F.check_not_vertex()
    inequality, region, lhs, parts = evaluator(F, region)
    parts = tuple(parts)
    rhs = 0.0
    for _, w, x in parts:
        rhs += w * x
    return inequality, region, lhs, rhs, parts


def frame_report(
    inequality: InequalityId, F: PointFrame, region: Region, tol_factor: float = DEFAULT_TOL_FACTOR
) -> InequalityReport:
    """Report of one bound of :data:`BOUNDS` at the frame's point, which lies in ``region``.

    The values are those of :func:`frame_values`; the report adds the
    ``Term`` records and is ``tight`` when |slack| <= ``tol_factor`` *
    (R_A + R_B + R_C).  An interior-only bound raises OutsideInterior off the
    open interior and VertexCoincidence on a vertex.
    """
    values = frame_values(BOUNDS[inequality], F, region)
    if values is None:
        raise OutsideInterior(f"point {F.M} classifies as {region.value}, not the interior")
    inequality, region, lhs, rhs, parts = values
    slack = lhs - rhs
    tight = abs(slack) <= tol_factor * F.R_sum
    terms = tuple(Term("abc"[side], w, x, w * x) for side, w, x in parts)
    return InequalityReport(inequality, region, lhs, rhs, slack, tight, terms)


def bound_report(inequality: InequalityId, T: Triangle, M: Point2) -> InequalityReport:
    """Report of one bound of :data:`BOUNDS` at M, at the default eps and tol_factor."""
    F = PointFrame(T, M)
    return frame_report(inequality, F, classify_frame(F))


def dergiades_report(T: Triangle, M: Point2) -> InequalityReport:
    """Side-ratio weighted bound on the vertex distances, valid in the whole plane.

    The right-hand side pairs each signed sideline distance with the weight
    built from the two adjacent side lengths (c/b + b/c against side a, and
    cyclically).  Signed distances make the bound hold for every point, not
    just interior ones.
    """
    return bound_report(InequalityId.DERGIADES3, T, M)


def classic_reports(T: Triangle, M: Point2) -> tuple[InequalityReport, InequalityReport]:
    """The two classical interior bounds: bisector-based and distance-based.

    Both bound R_A + R_B + R_C by twice a sum: of the angle-bisector lengths
    from M in the first report, of the sideline distances in the second.
    Restricted to the open interior, where both right-hand sides are sums of
    positive terms.
    """
    F = PointFrame(T, M)
    region = classify_frame(F)
    return (
        frame_report(InequalityId.BARROW1, F, region),
        frame_report(InequalityId.ERDOS_MORDELL2, F, region),
    )


def evaluate(T: Triangle, M: Point2) -> InequalityReport:
    """Region-dispatched evaluation of the weighted bisector bound.

    Interior points get the weighted bound with all bisectors positive;
    points in the strips and wedges get the same formula with signed
    bisectors (whose sign pattern is exactly the region's coordinate sign
    pattern); points on a vertex get the reduced two-distance bound.  The
    interior and non-interior branches share one arithmetic path, so the
    interior report is bit-identical to what the signed formula yields.
    The eps and tol_factor are those of :func:`bound_report`.
    """
    return bound_report(InequalityId.SIGNED_BARROW30, T, M)
