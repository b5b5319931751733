"""Slack evaluators for the distance/bisector inequalities.

Every evaluator returns an :class:`InequalityReport` carrying the left- and
right-hand sides, the slack ``lhs - rhs`` (non-negative for all valid inputs,
up to floating-point tolerance; that non-negativity is the property the rest
of the repository tests), and a per-side breakdown of the right-hand side.

The central evaluator is :func:`evaluate`, which dispatches on the region of
the query point: the weighted bisector bound in the interior, its
signed-bisector extension in the strip and wedge regions, and the reduced
two-distance bound when the point sits on a vertex.  Every named bound is
an entry of one table, :data:`BOUNDS`, that maps its identifier to its
domain and to its evaluator on a :class:`~barrow.geom.PointFrame`.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

from .bisectors import frame_bisectors, frame_signed_bisectors, side_bisector
from .errors import DomainError, OutsideInterior, VertexCoincidence
from .geom import DistanceTriple, Point2, PointFrame, Triangle
from .regions import DEFAULT_EPS, SIDE_ENDS, VERTEX_REGIONS, Region, classify_frame

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

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_a, self.w_b, self.w_c)


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


def _build_report(
    inequality: InequalityId,
    region: Region,
    lhs: float,
    weights: tuple[float, ...],
    values: tuple[float, ...],
    sides: tuple[str, ...] = ("a", "b", "c"),
    tol_factor: float = DEFAULT_TOL_FACTOR,
    scale: float | None = None,
) -> InequalityReport:
    terms = tuple(Term(s, w, x, w * x) for s, w, x in zip(sides, weights, values))
    rhs = 0.0
    for t in terms:
        rhs += t.contribution
    slack = lhs - rhs
    if scale is None:
        scale = lhs
    return InequalityReport(
        inequality=inequality,
        region=region,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        tight=abs(slack) <= tol_factor * scale,
        terms=terms,
    )


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


def _side_weights(R) -> tuple[float, float, float]:
    """The weight of each side k, pairing the distances to its two endpoints."""
    return tuple([_weight(R[i], R[j]) for i, j in SIDE_ENDS])


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
    return WeightTriple(*_side_weights(R))


_TWO = (2.0, 2.0, 2.0)
_VERTEX_BOUNDS = (InequalityId.VERTEX_A14, InequalityId.VERTEX_B15, InequalityId.VERTEX_C16)


def _barrow(F: PointFrame, region: Region, tol: float) -> InequalityReport:
    ell = frame_bisectors(F)
    return _build_report(InequalityId.BARROW1, region, F.R_sum, _TWO, ell, tol_factor=tol)


def _erdos_mordell(F: PointFrame, region: Region, tol: float) -> InequalityReport:
    d = F.signed_distances()
    return _build_report(InequalityId.ERDOS_MORDELL2, region, F.R_sum, _TWO, d, tol_factor=tol)


def _dergiades(F: PointFrame, region: Region, tol: float) -> InequalityReport:
    T = F.T
    weights = (T.c / T.b + T.b / T.c, T.c / T.a + T.a / T.c, T.a / T.b + T.b / T.a)
    d = F.signed_distances()
    return _build_report(InequalityId.DERGIADES3, region, F.R_sum, weights, d, tol_factor=tol)


def _weighted(F: PointFrame, region: Region, tol: float) -> InequalityReport:
    """The weighted bound with signed bisectors at a non-vertex point.

    One arithmetic path for both regimes, so the interior report is
    bit-identical to what the signed formula yields there.
    """
    weights = _side_weights(F.R)
    lp = frame_signed_bisectors(F)
    interior = region is Region.LAMBDA0
    inequality = InequalityId.LU_WEIGHTED13 if interior else InequalityId.SIGNED_BARROW30
    return _build_report(inequality, region, F.R_sum, weights, lp, tol_factor=tol)


def _vertex_report(F: PointFrame, k: int, tol: float) -> InequalityReport:
    """Two-distance bound at (or numerically on top of) vertex k.

    Only the bisector toward the side opposite the coincident vertex stays
    well-defined, so the report has a single right-hand-side term.
    """
    F.check_not_vertex(allow=k)
    i, j = SIDE_ENDS[k]
    R_i, R_j = F.R[i], F.R[j]
    return _build_report(
        _VERTEX_BOUNDS[k], VERTEX_REGIONS[k], R_i + R_j, (_weight(R_i, R_j),),
        (side_bisector(F, k),), sides=("abc"[k],), tol_factor=tol, scale=F.R_sum,
    )


def _signed_barrow(F: PointFrame, region: Region, tol: float) -> InequalityReport:
    if region.is_vertex:
        return _vertex_report(F, VERTEX_REGIONS.index(region), tol)
    if F.vertex is not None:
        # Numerically on a vertex even though the sign pattern says otherwise
        # (possible for thin triangles); the weights are unusable there.
        return _vertex_report(F, F.vertex, tol)
    return _weighted(F, region, tol)


#: Every bound that can be requested by name: whether it is interior-only,
#: and its evaluator ``(frame, region, tol_factor) -> report``.  The vertex
#: bounds are absent: each holds at one point, where the signed bound routes.
BOUNDS: dict[InequalityId, tuple[bool, Callable[[PointFrame, Region, float], InequalityReport]]] = {
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


def frame_report(
    inequality: InequalityId, F: PointFrame, region: Region, tol_factor: float = DEFAULT_TOL_FACTOR
) -> InequalityReport:
    """Report of one bound of :data:`BOUNDS` at the frame's point, which lies in ``region``.

    An interior-only bound raises OutsideInterior off the open interior and
    VertexCoincidence on a vertex.
    """
    interior_only, evaluator = BOUNDS[inequality]
    if interior_only:
        if region is not Region.LAMBDA0:
            raise OutsideInterior(f"point {F.M} classifies as {region.value}, not the interior")
        F.check_not_vertex()
    return evaluator(F, region, tol_factor)


def bound_report(
    inequality: InequalityId, T: Triangle, M: Point2, eps: float = DEFAULT_EPS,
    tol_factor: float = DEFAULT_TOL_FACTOR,
) -> InequalityReport:
    """Report of one bound of :data:`BOUNDS` at M, classified with ``eps``."""
    F = PointFrame(T, M)
    return frame_report(inequality, F, classify_frame(F, eps), tol_factor)


def dergiades_report(
    T: Triangle, M: Point2, eps: float = DEFAULT_EPS, tol_factor: float = DEFAULT_TOL_FACTOR
) -> InequalityReport:
    """Side-ratio weighted bound on the vertex distances, valid in the whole plane.

    The right-hand side pairs each signed sideline distance with the weight
    built from the two adjacent side lengths (c/b + b/c against side a, and
    cyclically).  Signed distances make the bound hold for every point, not
    just interior ones.
    """
    return bound_report(InequalityId.DERGIADES3, T, M, eps, tol_factor)


def classic_reports(
    T: Triangle, M: Point2, eps: float = DEFAULT_EPS, tol_factor: float = DEFAULT_TOL_FACTOR
) -> tuple[InequalityReport, InequalityReport]:
    """The two classical interior bounds: bisector-based and distance-based.

    Both bound R_A + R_B + R_C by twice a sum: of the angle-bisector lengths
    from M in the first report, of the sideline distances in the second.
    Restricted to the open interior, where both right-hand sides are sums of
    positive terms.
    """
    F = PointFrame(T, M)
    region = classify_frame(F, eps)
    return (
        frame_report(InequalityId.BARROW1, F, region, tol_factor),
        frame_report(InequalityId.ERDOS_MORDELL2, F, region, tol_factor),
    )


def evaluate(
    T: Triangle, M: Point2, eps: float = DEFAULT_EPS, tol_factor: float = DEFAULT_TOL_FACTOR
) -> InequalityReport:
    """Region-dispatched evaluation of the weighted bisector bound.

    Interior points get the weighted bound with all bisectors positive;
    points in the strips and wedges get the same formula with signed
    bisectors (whose sign pattern is exactly the region's coordinate sign
    pattern); points on a vertex get the reduced two-distance bound.  The
    interior and non-interior branches share one arithmetic path, so the
    interior report is bit-identical to what the signed formula yields.
    """
    return bound_report(InequalityId.SIGNED_BARROW30, T, M, eps, tol_factor)
