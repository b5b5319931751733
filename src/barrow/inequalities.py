"""Slack evaluators for the distance/bisector inequalities.

Every named bound is an entry of one table, :data:`BOUNDS`: whether it is
interior-only, whether its terms are signed sideline distances or signed
bisectors, and its weights.  One row kernel, :func:`values_function`,
evaluates them all from a point's M-relative vertex vectors and their
crosses, without a :class:`~barrow.geom.PointFrame`, in one pass per point
that snaps its sign pattern once and computes each term once, rare branches
(a snapped pattern, a vertex, overflowing distances) included.  The scan
reads its rows, and the fuzz every bound of a sample from one pass through
:func:`slacks_function`.  The search reads one slack-only closure for
every bound, :func:`slack_function`, bound per bound: it computes the slack
of a common point in the row's float operations and builds no row, and
hands every rare point to the row kernel.  Only :func:`bound_report` builds
an :class:`InequalityReport`, from one kernel row: the slack ``lhs - rhs``
(non-negative for all valid inputs, up to floating-point tolerance; that
non-negativity is the property the rest of the repository tests),
``tight`` and one :class:`Term` per rhs part, naming its side ``a``, ``b``
or ``c``.

The central public evaluator is :func:`evaluate`, which dispatches on the
region of the query point: the weighted bisector bound in the interior, its
signed-bisector extension in the strip and wedge regions, and the reduced
two-distance bound when the point sits on a vertex.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

from .bisectors import _bisector
from .errors import DomainError, GeometryError, OutsideInterior, VertexCoincidence, _check_number, _shown
from .geom import (
    COINCIDENCE_FACTOR,
    DistanceTriple,
    Point2,
    Triangle,
    _check_far,
    _keep_sign,
)
from .regions import (
    DEFAULT_EPS,
    OPEN_PATTERNS,
    SIDE_ENDS,
    VERTEX_REGIONS,
    Region,
    classify_pattern,
)

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
        _check_number(value, name, non_negative=True)


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
        raise ValueError(f"unknown statement kind {_shown(kind)}, expected 'S1', 'S2' or 'S3'")
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


_TWO = (2.0, 2.0, 2.0)
_VERTEX_BOUNDS = (InequalityId.VERTEX_A14, InequalityId.VERTEX_B15, InequalityId.VERTEX_C16)
# Labels bound once: on Python 3.10 and 3.11 reading an enum member's value runs Python code.
_LAMBDA0 = Region.LAMBDA0.value
_VERTEX_LABELS = tuple(region.value for region in VERTEX_REGIONS)
_LABEL_BY_PATTERN = {pattern: region.value for region, pattern in OPEN_PATTERNS.items()}

#: How a bound weighs its terms: 2 on every side, the triangle's side-ratio
#: weights, or the t + 1/t weight of the two vertex distances off each side.
_TWO_WEIGHTS, _SIDE_WEIGHTS, _DISTANCE_WEIGHTS = "two", "sides", "distances"

#: Every bound that can be requested by name, as the point kernel evaluates
#: it: whether it is interior-only, whether its terms are the signed
#: sideline distances (else the signed bisectors), and its weights.  The
#: whole-plane bound with distance weights, the signed one, reports a point
#: on a vertex with that vertex's bound; the vertex bounds hold at one point
#: each and have no entry.
BOUNDS: dict[InequalityId, tuple[bool, bool, str]] = {
    InequalityId.BARROW1: (True, False, _TWO_WEIGHTS),
    InequalityId.ERDOS_MORDELL2: (True, True, _TWO_WEIGHTS),
    InequalityId.DERGIADES3: (False, True, _SIDE_WEIGHTS),
    InequalityId.LU_WEIGHTED13: (True, False, _DISTANCE_WEIGHTS),
    InequalityId.SIGNED_BARROW30: (False, False, _DISTANCE_WEIGHTS),
}

#: Inequalities restricted to the open interior.
INTERIOR_IDS = frozenset(i for i, (interior_only, _, _) in BOUNDS.items() if interior_only)

#: Inequalities defined only pointwise at a vertex (no 2-D domain to search).
VERTEX_IDS = frozenset(InequalityId).difference(BOUNDS)

# The labels of the bounds the fuzz reads, in BOUNDS order, bound once like the region labels.
_BARROW, _ERDOS, _DERGIADES, _LU, _SIGNED = (bound.value for bound in BOUNDS)


def _rule(inequality: InequalityId) -> tuple[bool, bool, str]:
    """The :data:`BOUNDS` entry of ``inequality``; DomainError for any other value."""
    # A bound's value, such as "Barrow1", would end in a KeyError from BOUNDS.
    if not isinstance(inequality, InequalityId):
        raise DomainError(f"inequality must be an InequalityId, got {_shown(inequality)}")
    if inequality in VERTEX_IDS:
        raise DomainError(f"{inequality.value} holds only at its vertex, where "
                          f"{InequalityId.SIGNED_BARROW30.value} reports it")
    return BOUNDS[inequality]


def _weights(kind: str, T: Triangle, R_A: float, R_B: float, R_C: float) -> tuple:
    """The weights of sides a, b, c of a bound that weighs its terms by ``kind``."""
    if kind is _DISTANCE_WEIGHTS:
        return _weight(R_B, R_C), _weight(R_C, R_A), _weight(R_A, R_B)
    return T.ratio_weights if kind is _SIDE_WEIGHTS else _TWO


def _coincidence(x: float, y: float, k: int) -> VertexCoincidence:
    return VertexCoincidence(f"point {Point2(x, y)} coincides with vertex {'ABC'[k]}", vertex="ABC"[k])


def _vertex_row(x: float, y: float, k: int, vertex: int | None, R: tuple, vectors: tuple,
                cross: float) -> tuple:
    """Vertex k's bound, R_i + R_j against the bisector toward side k, from M's vertex vectors.

    Raises VertexCoincidence when M lies on another vertex, ``vertex``.
    """
    if vertex is not None and vertex != k:
        raise _coincidence(x, y, vertex)
    i, j = SIDE_ENDS[k]
    (px, py), (qx, qy) = vectors[i], vectors[j]
    R_i, R_j = R[i], R[j]
    weight, value = _weight(R_i, R_j), _bisector(R_i, R_j, cross, px * qx + py * qy)
    t = [value if side == k else math.nan for side in range(3)]
    lhs = R_i + R_j
    rhs = 0.0 + weight * value
    return (x, y, _VERTEX_LABELS[k], *R, *t, lhs, rhs, lhs - rhs)


def _kernel(T: Triangle, rule: tuple[bool, bool, str], eps: float, every: bool = False):
    """``point(x, y, want=None)`` for ``rule``, a :data:`BOUNDS` entry, on T at ``eps``.

    None when ``want`` is another region label; else the row of
    :func:`values_function`, or with ``every`` that of :func:`slacks_function`.
    """
    interior_only, distances, kind = rule
    # A coordinate snaps to +1 above hi, -1 below lo, else 0, as sign_pattern
    # snaps it at eps; at eps < 0 (or NaN) 0.0 itself takes -1.
    hi = eps if eps > 0.0 else 0.0
    lo = -hi if eps >= 0.0 else math.inf
    # The row's weights when no distance sets them, or the fuzz's Dergiades3 weights.
    fixed = T.ratio_weights if every else None if kind is _DISTANCE_WEIGHTS else _weights(kind, T, 0, 0, 0)
    # One tuple, not a cell per name, as the fuzz binds a triangle per sample.
    consts = (
        *T.A, *T.B, *T.C, T.area, T.orient_sign, COINCIDENCE_FACTOR * T.diameter, T.a, T.b, T.c,
        T.orient_sign * 2.0, hi, lo, math.hypot, interior_only, distances, kind, every, fixed,
    )

    def point(x: float, y: float, want: str | None = None):
        (Ax, Ay, Bx, By, Cx, Cy, area, s, near, a, b, c, s2, hi, lo, hypot,
         interior_only, distances, kind, every, fixed) = consts
        ax, ay = Ax - x, Ay - y
        bx, by = Bx - x, By - y
        cx, cy = Cx - x, Cy - y
        k_a, k_b, k_c = bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx
        u, v, w = k_a / 2.0 / area, k_b / 2.0 / area, k_c / 2.0 / area
        if not (u and v and w):
            # A ratio that underflowed to zero keeps the sign of its cross.
            u, v, w = _keep_sign(u, k_a, s), _keep_sign(v, k_b, s), _keep_sign(w, k_c, s)
        R_A, R_B, R_C = hypot(ax, ay), hypot(bx, by), hypot(cx, cy)
        far = R_B if R_B > R_A else R_A
        far = R_C if R_C > far else far
        nearest = R_B if R_B < R_A else R_A
        nearest = R_C if R_C < nearest else nearest
        if 2.0 * far * far == math.inf:
            _check_far(Point2(x, y), (R_A, R_B, R_C))
        if interior_only:
            if not (u > hi and v > hi and w > hi):
                Point2(x, y)  # a NaN coordinate raises ValueError here
                return None
            label = _LAMBDA0
        else:
            pattern = (
                1 if u > hi else -1 if u < lo else 0,
                1 if v > hi else -1 if v < lo else 0,
                1 if w > hi else -1 if w < lo else 0,
            )
            label = _LABEL_BY_PATTERN.get(pattern)
        snapped = label is None
        if snapped:
            Point2(x, y)  # a non-finite coordinate raises ValueError here
            label = classify_pattern(pattern)._value_
        if want is not None and label != want:
            return None
        lhs = R_A + R_B + R_C
        if every or distances:
            d_a, d_b, d_c = s2 * (k_a / 2.0) / a, s2 * (k_b / 2.0) / b, s2 * (k_c / 2.0) / c
            if not (d_a and d_b and d_c):
                d_a, d_b, d_c = _keep_sign(d_a, k_a, s), _keep_sign(d_b, k_b, s), _keep_sign(d_c, k_c, s)
        if every:
            # Dergiades3 evaluates a vertex as any other point; each rhs sums from 0.0 in side order.
            r_a, r_b, r_c = fixed
            dergiades = (_DERGIADES, label, lhs - (0.0 + r_a * d_a + r_b * d_b + r_c * d_c))
        if nearest <= near or snapped and label in _VERTEX_LABELS:
            vertex = (R_A, R_B, R_C).index(nearest) if nearest <= near else None
            if interior_only:
                raise _coincidence(x, y, vertex)
            if kind is _DISTANCE_WEIGHTS:  # the signed bound
                k = _VERTEX_LABELS.index(label) if label in _VERTEX_LABELS else vertex
                row = _vertex_row(x, y, k, vertex, (R_A, R_B, R_C),
                                  ((ax, ay), (bx, by), (cx, cy)), (k_a, k_b, k_c)[k])
                if every:
                    return lhs, [(_VERTEX_BOUNDS[k].value, row[2], row[11]), dergiades]
                return row
        if every or not distances:
            l_a = _bisector(R_B, R_C, k_a, bx * cx + by * cy)
            l_b = _bisector(R_C, R_A, k_b, cx * ax + cy * ay)
            l_c = _bisector(R_A, R_B, k_c, ax * bx + ay * by)
            l_a, l_b, l_c = -l_a if u < 0.0 else l_a, -l_b if v < 0.0 else l_b, -l_c if w < 0.0 else l_c
        if every:
            w_a, w_b, w_c = _weight(R_B, R_C), _weight(R_C, R_A), _weight(R_A, R_B)
            signed = lhs - (0.0 + w_a * l_a + w_b * l_b + w_c * l_c)
            if label != _LAMBDA0:
                return lhs, [(_SIGNED, label, signed), dergiades]
            return lhs, [(_LU, label, signed), dergiades,
                         (_BARROW, label, lhs - (0.0 + 2.0 * l_a + 2.0 * l_b + 2.0 * l_c)),
                         (_ERDOS, label, lhs - (0.0 + 2.0 * d_a + 2.0 * d_b + 2.0 * d_c))]
        t_a, t_b, t_c = (d_a, d_b, d_c) if distances else (l_a, l_b, l_c)
        w_a, w_b, w_c = fixed or (_weight(R_B, R_C), _weight(R_C, R_A), _weight(R_A, R_B))
        rhs = 0.0 + w_a * t_a + w_b * t_b + w_c * t_c
        return x, y, label, R_A, R_B, R_C, t_a, t_b, t_c, lhs, rhs, lhs - rhs

    return point


def values_function(
    T: Triangle, inequality: InequalityId, eps: float = DEFAULT_EPS
) -> Callable[[float, float], tuple | None]:
    """The values ``bound_report(inequality, T, Point2(x, y), eps)`` reports, as a function of (x, y).

    The one point kernel: ``(x, y, region label, R_A, R_B, R_C, t_a, t_b,
    t_c, lhs, rhs, slack)`` in ``ScanRow`` order, ``t`` NaN on a side without
    a term, or None off an interior-only bound's domain; it raises what that
    call raises.  It reads the vertex vectors, their crosses and three
    ``hypot`` in :class:`PointFrame`'s float operations; a pattern snapped
    as ``sign_pattern`` snaps it at eps takes ``classify_pattern``'s label,
    and a vertex label or a point within ``COINCIDENCE_FACTOR`` of the
    diameter of a vertex that vertex's bound.
    """
    return _kernel(T, _rule(inequality), eps)


def slacks_function(T: Triangle) -> Callable:
    """The fuzz's kernel on T: ``point(x, y, want=None)`` reads every bound of a sample in one pass.

    It returns ``(R_A + R_B + R_C, [(bound label, region label, slack),
    ...])``: the signed bound (``LuWeighted13`` inside, a vertex bound on a
    vertex), ``Dergiades3``, then inside ``Barrow1`` and ``ErdosMordell2``;
    None when ``want`` is another region label.
    """
    return _kernel(T, BOUNDS[InequalityId.SIGNED_BARROW30], DEFAULT_EPS, True)


def slack_function(T: Triangle, inequality: InequalityId) -> Callable[[float, float], float]:
    """The slack ``bound_report(inequality, T, Point2(x, y))`` reports, as a function of (x, y).

    It is inf wherever that call raises GeometryError or ValueError, and off
    the bound's domain.  The search's objective, a slack-only closure with
    the bound's domain, terms and weights fixed when T is bound, one closure
    for all five bounds: at a point whose sign pattern is open, whose squared
    distances are finite and which lies farther than ``COINCIDENCE_FACTOR``
    times the diameter from every vertex, it returns ``lhs - rhs`` in the
    float operations and order of :func:`values_function`'s row, and builds
    no row.  An interior-only bound is inf at once off its open interior; a
    whole-plane bound signs its bisectors by the point's ratios.  Every other
    point is handed to the row kernel, whose row's slack it returns.
    """
    rule = _rule(inequality)
    row = _kernel(T, rule, DEFAULT_EPS)
    interior_only, distances, kind = rule
    inf, hypot, sqrt = math.inf, math.hypot, math.sqrt
    (Ax, Ay), (Bx, By), (Cx, Cy) = T.A, T.B, T.C
    area, near, a, b, c = T.area, COINCIDENCE_FACTOR * T.diameter, T.a, T.b, T.c
    s2 = T.orient_sign * 2.0
    # A ratio within DEFAULT_EPS of zero (an underflowed one too) snaps, so
    # an open pattern has no zero ratio; nor, on a triangle that is not
    # degenerate, a signed distance that underflows to zero.
    hi, lo = DEFAULT_EPS, -DEFAULT_EPS
    weighted = kind is _DISTANCE_WEIGHTS
    w_a, w_b, w_c = (None, None, None) if weighted else _weights(kind, T, 0, 0, 0)

    def rare(x: float, y: float) -> float:
        try:
            values = row(x, y)
        except (GeometryError, ValueError):
            return inf
        return inf if values is None else values[11]

    def slack(x: float, y: float) -> float:
        ax, ay = Ax - x, Ay - y
        bx, by = Bx - x, By - y
        cx, cy = Cx - x, Cy - y
        k_a, k_b, k_c = bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx
        if interior_only:
            if not (k_a / 2.0 / area > hi and k_b / 2.0 / area > hi and k_c / 2.0 / area > hi):
                return inf
        else:
            u, v, w = k_a / 2.0 / area, k_b / 2.0 / area, k_c / 2.0 / area
            # (-1, -1, -1) is no region: the row kernel raises ValueError there.
            if (not ((u > hi or u < lo) and (v > hi or v < lo) and (w > hi or w < lo))
                    or u < 0.0 and v < 0.0 and w < 0.0):
                return rare(x, y)
        R_A, R_B, R_C = hypot(ax, ay), hypot(bx, by), hypot(cx, cy)
        far = R_B if R_B > R_A else R_A
        far = R_C if R_C > far else far
        if not (R_A > near and R_B > near and R_C > near) or 2.0 * far * far == inf:
            return rare(x, y)
        lhs = R_A + R_B + R_C
        if distances:
            d_a, d_b, d_c = s2 * (k_a / 2.0) / a, s2 * (k_b / 2.0) / b, s2 * (k_c / 2.0) / c
            return lhs - (0.0 + w_a * d_a + w_b * d_b + w_c * d_c)
        try:
            l_a = _bisector(R_B, R_C, k_a, bx * cx + by * cy)
            l_b = _bisector(R_C, R_A, k_b, cx * ax + cy * ay)
            l_c = _bisector(R_A, R_B, k_c, ax * bx + ay * by)
        except DomainError:  # the bisector underflow rule
            return inf
        if not interior_only:
            l_a, l_b, l_c = -l_a if u < 0.0 else l_a, -l_b if v < 0.0 else l_b, -l_c if w < 0.0 else l_c
        if weighted:
            return lhs - (0.0 + (sqrt(R_C / R_B) + sqrt(R_B / R_C)) * l_a
                          + (sqrt(R_A / R_C) + sqrt(R_C / R_A)) * l_b
                          + (sqrt(R_B / R_A) + sqrt(R_A / R_B)) * l_c)
        return lhs - (0.0 + w_a * l_a + w_b * l_b + w_c * l_c)

    return slack


def bound_report(
    inequality: InequalityId, T: Triangle, M: Point2, eps: float = DEFAULT_EPS,
    tol_factor: float = DEFAULT_TOL_FACTOR,
) -> InequalityReport:
    """Report of one bound of :data:`BOUNDS` at M, classified at ``eps``, from one kernel row.

    It names the bound that holds there (``LuWeighted13`` for the signed bound
    inside, a vertex bound on a vertex), adds a ``Term`` per rhs part with the
    bound's weights, and is ``tight`` when |slack| <= ``tol_factor`` *
    (R_A + R_B + R_C).  An interior-only bound raises OutsideInterior off the
    open interior and VertexCoincidence on a vertex; distances whose squares
    overflow raise DomainError first, on any bound.
    """
    row = values_function(T, inequality, eps)(*M)
    if row is None:
        # Dergiades3 holds in the whole plane: its row names the point's region.
        region = values_function(T, InequalityId.DERGIADES3, eps)(*M)[2]
        raise OutsideInterior(f"point {M} classifies as {region}, not the interior")
    _, _, label, R_A, R_B, R_C, t_a, t_b, t_c, lhs, rhs, slack = row
    kind = BOUNDS[inequality][2]
    R, t, weighted = (R_A, R_B, R_C), (t_a, t_b, t_c), kind is _DISTANCE_WEIGHTS
    if weighted and label in _VERTEX_LABELS:
        k = _VERTEX_LABELS.index(label)
        i, j = SIDE_ENDS[k]
        inequality, parts = _VERTEX_BOUNDS[k], [(k, _weight(R[i], R[j]))]
    else:
        if weighted and label == _LAMBDA0:
            inequality = InequalityId.LU_WEIGHTED13
        parts = enumerate(_weights(kind, T, *R))
    terms = tuple(Term("abc"[k], w, t[k], w * t[k]) for k, w in parts)
    tight = abs(slack) <= tol_factor * (R_A + R_B + R_C)
    return InequalityReport(inequality, Region(label), lhs, rhs, slack, tight, terms)


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
    return (
        bound_report(InequalityId.BARROW1, T, M),
        bound_report(InequalityId.ERDOS_MORDELL2, T, M),
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
