import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barrow import (
    BaryCoords,
    BisectorTriple,
    DistanceTriple,
    DomainError,
    GeometryError,
    InequalityId,
    InequalityReport,
    OutsideInterior,
    PointFrame,
    Point2,
    Region,
    SignedBisectorTriple,
    SignedDistanceTriple,
    Term,
    Triangle,
    VertexCoincidence,
    WeightTriple,
    classic_reports,
    dergiades_report,
    evaluate,
    identity_residuals,
    lu_weights,
    stmt_slack,
)
from barrow.bisectors import bisector_length, bisector_lengths
from barrow.geom import barycentric, dist, signed_distances, vertex_distances
from barrow.harness import STRATA, TRIANGLE_SHAPES, sample_point, sample_triangle
from barrow.inequalities import BOUNDS, DEFAULT_TOL_FACTOR, frame_report
from barrow.regions import OPEN_PATTERNS, VERTEX_REGIONS, classify_frame, classify_pattern

from conftest import points_in, triangles

# Reference slacks recomputed independently through plain trigonometry.
EVAL_11_LHS = 3.4142135623730949
EVAL_11_RHS = 2.9805228914981461
EVAL_11_SLACK = 0.43369067087494884
DERGIADES_QUARTER_LHS = 1.9346922206774635
DERGIADES_QUARTER_RHS = 1.7677669529663689
DERGIADES_QUARTER_SLACK = 0.16692526771109462
EM_QUARTER_SLACK = 0.22758543949091603
BARROW_QUARTER_SLACK = 0.20009914274490015

angle = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
magnitude = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_stmt_slack_equilateral_equality():
    slack = stmt_slack("S1", 1.0, 1.0, 1.0, math.pi / 3.0, math.pi / 3.0)
    assert abs(slack) <= 1e-12 * 3.0


def test_stmt_slack_s2_right_angle():
    slack = stmt_slack("S2", 1.0, 1.0, 1.0, math.pi / 4.0, math.pi / 4.0)
    assert math.isclose(slack, 3.0 - 2.0 * math.sqrt(2.0), rel_tol=1e-12)


def test_stmt_slack_s3_flipped_signs():
    slack = stmt_slack("S3", 1.0, 1.0, 1.0, math.pi / 3.0, math.pi / 3.0)
    assert math.isclose(slack, 6.0, rel_tol=1e-14)


def test_stmt_slack_boundary_equality():
    assert stmt_slack("S2", 1.0, 0.0, 1.0, 0.0, 0.7) == 0.0


def test_stmt_slack_rejects_bad_input():
    with pytest.raises(DomainError):
        stmt_slack("S1", -1.0, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        stmt_slack("S1", 1.0, 1.0, 1.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        stmt_slack("S2", 1.0, float("nan"), 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        stmt_slack("S9", 1.0, 1.0, 1.0, 0.5, 0.5)


@settings(max_examples=300)
@given(
    st.sampled_from(["S1", "S2", "S3"]),
    magnitude,
    magnitude,
    magnitude,
    angle,
    angle,
)
def test_stmt_slack_never_negative(kind, p, q, r, beta, gamma):
    assume(beta + gamma <= math.pi)
    slack = stmt_slack(kind, p, q, r, beta, gamma)
    assert slack >= -1e-12 * (p + q + r)


def test_identity_residuals_known_point():
    res = identity_residuals(2.0, 3.0, 5.0, 0.7, 1.9)
    for value in res:
        assert value <= 1e-12 * 10.0
    # alpha = 1.9 is obtuse, so the acute-case residual is skipped.
    assert res.case2 == 0.0


def test_identity_residuals_zero_masses():
    res = identity_residuals(0.0, 0.0, 0.0, 0.3, 0.9)
    assert res == (0.0, 0.0, 0.0, 0.0)


def test_identity_residuals_acute_branch():
    res = identity_residuals(2.0, 3.0, 5.0, 0.2, 0.9)
    assert res.case1 == 0.0
    assert res.case2 <= 1e-12 * 10.0


def test_identity_residuals_rejects_gamma_negative():
    with pytest.raises(DomainError):
        identity_residuals(1.0, 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        identity_residuals(1.0, 1.0, 1.0, 0.5, 4.0)


@settings(max_examples=300)
@given(magnitude, magnitude, magnitude, angle, angle)
def test_identity_residuals_vanish(p, q, r, beta, alpha):
    assume(alpha >= beta)
    res = identity_residuals(p, q, r, beta, alpha)
    bound = 1e-12 * max(1.0, p + q + r)
    for value in res:
        assert value <= bound


def test_lu_weights_values():
    assert tuple(lu_weights(DistanceTriple(1.0, 1.0, 1.0))) == (2.0, 2.0, 2.0)
    w = lu_weights(DistanceTriple(math.sqrt(2.0), 1.0, 1.0))
    assert w.w_a == 2.0
    assert math.isclose(w.w_b, 2.0301035302564356, rel_tol=1e-15)
    assert w.w_c == w.w_b
    assert tuple(lu_weights(DistanceTriple(4.0, 1.0, 1.0))) == (2.0, 2.5, 2.5)


def test_lu_weights_reject_zero_distance():
    with pytest.raises(VertexCoincidence) as err:
        lu_weights(DistanceTriple(1.0, 0.0, 1.0))
    assert err.value.vertex == "B"


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_lu_weights_at_least_two(ra, rb, rc):
    for w in lu_weights(DistanceTriple(ra, rb, rc)):
        assert w >= 2.0 - 1e-12


def test_dergiades_known_point(unit_right):
    rep = dergiades_report(unit_right, Point2(0.25, 0.25))
    assert rep.inequality is InequalityId.DERGIADES3
    assert rep.region is Region.LAMBDA0
    assert math.isclose(rep.lhs, DERGIADES_QUARTER_LHS, rel_tol=1e-12)
    assert math.isclose(rep.rhs, DERGIADES_QUARTER_RHS, rel_tol=1e-12)
    assert math.isclose(rep.slack, DERGIADES_QUARTER_SLACK, rel_tol=1e-11)
    weights = [t.weight for t in rep.terms]
    assert weights[0] == 2.0
    assert math.isclose(weights[1], 2.1213203435596428, rel_tol=1e-14)
    assert math.isclose(weights[2], 2.1213203435596428, rel_tol=1e-14)


def test_dergiades_center_equality(equilateral):
    center = Point2(0.5, math.sqrt(3.0) / 6.0)
    rep = dergiades_report(equilateral, center)
    assert abs(rep.slack) <= 1e-12
    assert rep.tight


def test_dergiades_far_point_positive(unit_right):
    rep = dergiades_report(unit_right, Point2(10.0, 10.0))
    assert rep.slack > 0.0
    assert any(t.value < 0.0 for t in rep.terms)


def test_classic_reports_known_point(unit_right):
    barrow, em = classic_reports(unit_right, Point2(0.25, 0.25))
    assert barrow.inequality is InequalityId.BARROW1
    assert em.inequality is InequalityId.ERDOS_MORDELL2
    assert barrow.lhs == em.lhs
    assert all(t.weight == 2.0 for t in barrow.terms + em.terms)
    assert math.isclose(em.slack, EM_QUARTER_SLACK, rel_tol=1e-11)
    assert math.isclose(barrow.slack, BARROW_QUARTER_SLACK, rel_tol=1e-10)


def test_classic_reports_equilateral_circumcenter_equality():
    # Circumradius-1 equilateral: LHS is 3 and both bounds are tight at the
    # circumcenter.
    t = Triangle(
        Point2(0.0, 1.0),
        Point2(-math.sqrt(3.0) / 2.0, -0.5),
        Point2(math.sqrt(3.0) / 2.0, -0.5),
    )
    barrow, em = classic_reports(t, Point2(0.0, 0.0))
    assert math.isclose(barrow.lhs, 3.0, rel_tol=1e-15)
    assert abs(barrow.slack) <= 1e-12 * 3.0
    assert abs(em.slack) <= 1e-12 * 3.0
    assert barrow.tight and em.tight


def test_classic_reports_reject_exterior(unit_right):
    with pytest.raises(OutsideInterior) as err:
        classic_reports(unit_right, Point2(1.0, 1.0))
    assert str(err.value) == "point Point2(x=1.0, y=1.0) classifies as mu1, not the interior"
    with pytest.raises(OutsideInterior):
        classic_reports(unit_right, Point2(0.5, 0.5))


@settings(max_examples=200)
@given(triangles(), st.floats(0.05, 0.9), st.floats(0.05, 0.9))
def test_bisector_dominates_distance_inside(t, s1, s2):
    assume(s1 + s2 < 0.95)
    u, v, w = 1.0 - s1 - s2, s1, s2
    m = Point2(
        u * t.A.x + v * t.B.x + w * t.C.x,
        u * t.A.y + v * t.B.y + w * t.C.y,
    )
    assume(min(barycentric(t, m).as_tuple()) > 1e-6)
    assume(min(dist(m, v) for v in t.vertices) > 1e-9 * t.diameter)
    ell = bisector_lengths(t, m)
    d = signed_distances(t, m)
    scale = sum(vertex_distances(t, m))
    for left, right in ((ell.l_a, d.d_a), (ell.l_b, d.d_b), (ell.l_c, d.d_c)):
        assert left >= right - 1e-12 * scale


def test_evaluate_exterior_known_point(unit_right):
    rep = evaluate(unit_right, Point2(1.0, 1.0))
    assert rep.inequality is InequalityId.SIGNED_BARROW30
    assert rep.region is Region.MU1
    assert math.isclose(rep.lhs, 2.0 + math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(rep.lhs, EVAL_11_LHS, rel_tol=1e-15)
    assert math.isclose(rep.rhs, EVAL_11_RHS, rel_tol=1e-12)
    assert math.isclose(rep.slack, EVAL_11_SLACK, rel_tol=1e-11)
    signs = [math.copysign(1.0, t.value) for t in rep.terms]
    assert signs == [-1.0, 1.0, 1.0]


def test_evaluate_interior_is_weighted_bound(unit_right):
    rep = evaluate(unit_right, Point2(0.25, 0.25))
    assert rep.inequality is InequalityId.LU_WEIGHTED13
    assert rep.region is Region.LAMBDA0
    # The interior report must be the exact same arithmetic as composing the
    # weights with the signed bisectors by hand.
    weights = lu_weights(vertex_distances(unit_right, Point2(0.25, 0.25)))
    ell = bisector_lengths(unit_right, Point2(0.25, 0.25))
    rhs = 0.0
    for w, x in zip(weights, (ell.l_a, ell.l_b, ell.l_c)):
        rhs += w * x
    assert rep.rhs == rhs


def test_evaluate_measures_each_vertex_distance_once(unit_right, monkeypatch):
    calls = []
    hypot = math.hypot
    monkeypatch.setattr(math, "hypot", lambda *xs: calls.append(xs) or hypot(*xs))
    evaluate(unit_right, Point2(0.25, 0.25))
    assert len(calls) == 3
    evaluate(unit_right, Point2(1.0, 1.0))
    assert len(calls) == 6


def test_evaluate_equilateral_circumcenter_tight():
    t = Triangle(
        Point2(0.0, 1.0),
        Point2(-math.sqrt(3.0) / 2.0, -0.5),
        Point2(math.sqrt(3.0) / 2.0, -0.5),
    )
    rep = evaluate(t, Point2(0.0, 0.0))
    assert abs(rep.slack) <= 1e-12 * 3.0
    assert rep.tight


@pytest.mark.parametrize(
    "point, eps, region",
    [
        ((0.25, 0.25), 1e-12, Region.LAMBDA0),
        ((0.75, 0.75), 1e-12, Region.MU1),
        # Labelled vertex B by the wide eps, 1.4e-4 away from it: R_B is part
        # of R_A + R_B + R_C but not of the vertex bound's lhs R_A + R_C.
        ((1.0001, 0.0001), 1e-3, Region.VERTEX_B),
    ],
)
def test_tight_flips_at_slack_over_distance_sum(unit_right, point, eps, region):
    M = Point2(*point)
    F = PointFrame(unit_right, M)

    def report(tol_factor=DEFAULT_TOL_FACTOR):
        return frame_report(InequalityId.SIGNED_BARROW30, F, classify_frame(F, eps), tol_factor)

    ratio = abs(report().slack) / sum(vertex_distances(unit_right, M))
    assert report().region is region
    assert report(ratio * (1.0 + 1e-9)).tight
    assert not report(ratio * (1.0 - 1e-9)).tight


def test_evaluate_at_vertex(unit_right):
    rep = evaluate(unit_right, Point2(1.0, 0.0))
    assert rep.inequality is InequalityId.VERTEX_B15
    assert rep.region is Region.VERTEX_B
    assert math.isclose(rep.lhs, 1.0 + math.sqrt(2.0), rel_tol=1e-15)
    assert len(rep.terms) == 1
    assert rep.terms[0].side == "b"
    assert rep.slack >= 0.0


def test_evaluate_near_vertex_routes_to_vertex_bound(unit_right):
    rep = evaluate(unit_right, Point2(1.0 + 1e-13, 0.0))
    assert rep.inequality is InequalityId.VERTEX_B15
    assert rep.region is Region.VERTEX_B


def test_evaluate_thin_triangle_vertex_distance_routing():
    # On a thin triangle a point can sit a hair off a vertex in euclidean
    # terms while its snapped sign pattern still reads as interior; the
    # distance check must still route it to the vertex bound.
    t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-3))
    m = Point2(0.5, 1e-3 - 5e-13)
    rep = evaluate(t, m)
    assert rep.inequality is InequalityId.VERTEX_C16
    assert rep.region is Region.VERTEX_C
    assert rep.slack >= -1e-9 * rep.lhs


def test_evaluate_all_vertices(unit_right):
    for point, inequality in (
        (unit_right.A, InequalityId.VERTEX_A14),
        (unit_right.B, InequalityId.VERTEX_B15),
        (unit_right.C, InequalityId.VERTEX_C16),
    ):
        rep = evaluate(unit_right, point)
        assert rep.inequality is inequality
        assert rep.slack >= -1e-9 * rep.lhs


def test_evaluate_vertex_bound_is_triangle_bisector(unit_right):
    # At M = B the surviving term is the triangle's own bisector from B.
    rep = evaluate(unit_right, Point2(1.0, 0.0))
    expected = bisector_length(Point2(1.0, 0.0), unit_right.C, unit_right.A)
    assert rep.terms[0].value == expected


def test_report_json_shape(unit_right):
    rep = evaluate(unit_right, Point2(0.25, 0.25))
    data = rep.to_json_dict()
    assert list(data) == ["inequality", "region", "lhs", "rhs", "slack", "tight", "terms"]
    assert data["inequality"] == "LuWeighted13"
    assert data["region"] == "lambda0"
    assert list(data["terms"][0]) == ["side", "weight", "value", "contribution"]
    assert data["lhs"] - data["rhs"] == data["slack"]


@pytest.mark.parametrize(
    "record, fields",
    [
        (BaryCoords, ("u", "v", "w")),
        (DistanceTriple, ("R_A", "R_B", "R_C")),
        (SignedDistanceTriple, ("d_a", "d_b", "d_c")),
        (BisectorTriple, ("l_a", "l_b", "l_c")),
        (SignedBisectorTriple, ("lp_a", "lp_b", "lp_c")),
        (WeightTriple, ("w_a", "w_b", "w_c")),
        (Term, ("side", "weight", "value", "contribution")),
        (InequalityReport, ("inequality", "region", "lhs", "rhs", "slack", "tight", "terms")),
    ],
)
def test_records_unpack_to_their_fields_in_order(record, fields):
    values = tuple(float(i) for i in range(len(fields)))
    rec = record(*values)
    *unpacked, = rec
    assert unpacked == [getattr(rec, name) for name in fields] == list(values)


@pytest.mark.parametrize("exponent", [-270, -330])
@pytest.mark.parametrize("point", [(0.3, 0.3), (-1.0, 0.5), (2.0, -0.5)], ids=["interior", "strip", "wedge"])
def test_reports_scale_exactly_at_small_scale(unit_right, exponent, point):
    # Scaling every coordinate by a power of two is exact, and the bounds are
    # homogeneous of degree 1, so the report must scale bit for bit.
    def up(x):
        return math.ldexp(x, exponent)

    T = Triangle(*(Point2(up(v.x), up(v.y)) for v in unit_right.vertices))
    base = evaluate(unit_right, Point2(*point))
    rep = evaluate(T, Point2(up(point[0]), up(point[1])))
    assert rep.region is base.region
    assert (rep.lhs, rep.rhs, rep.slack) == (up(base.lhs), up(base.rhs), up(base.slack))
    assert rep.terms == tuple((t.side, t.weight, up(t.value), up(t.contribution)) for t in base.terms)


@settings(max_examples=300)
@given(triangles(), points_in())
def test_evaluate_never_negative(t, m):
    rep = evaluate(t, m)
    scale = sum(vertex_distances(t, m))
    assert rep.slack >= -1e-9 * scale


@settings(max_examples=300)
@given(triangles(), points_in())
def test_dergiades_never_negative(t, m):
    rep = dergiades_report(t, m)
    scale = sum(vertex_distances(t, m))
    assert rep.slack >= -1e-9 * scale


@settings(max_examples=200)
@given(triangles(), points_in(), st.floats(min_value=0.01, max_value=100.0))
def test_evaluate_homogeneity(t, m, k):
    base = evaluate(t, m)
    scaled_t = Triangle(
        Point2(k * t.A.x, k * t.A.y),
        Point2(k * t.B.x, k * t.B.y),
        Point2(k * t.C.x, k * t.C.y),
    )
    scaled = evaluate(scaled_t, Point2(k * m.x, k * m.y))
    scale = sum(vertex_distances(t, m))
    assert abs(scaled.slack - k * base.slack) <= 1e-10 * k * scale


@settings(max_examples=200)
@given(triangles())
def test_evaluate_sign_pattern_matches_region(t):
    rng = random.Random(7)
    for region, pattern in OPEN_PATTERNS.items():
        m = sample_point(rng, t, region)
        rep = evaluate(t, m)
        if rep.region is not region:
            continue  # constructed point fell on a boundary; covered elsewhere
        got = tuple(1 if term.value > 0.0 else -1 for term in rep.terms)
        assert got == pattern


#: The relabellings (A, B, C) -> (B, C, A), (C, A, B), (A, C, B): the old
#: index of each new vertex.
_RELABELLINGS = ((1, 2, 0), (2, 0, 1), (0, 2, 1))


def _relabelled(region, perm):
    """The label of ``region`` after the vertices are relabelled by ``perm``."""
    if region in VERTEX_REGIONS:
        return VERTEX_REGIONS[perm.index(VERTEX_REGIONS.index(region))]
    pattern = OPEN_PATTERNS[region]
    return classify_pattern(tuple(pattern[k] for k in perm))


def _report_or_error(inequality, T, M):
    F = PointFrame(T, M)
    try:
        return frame_report(inequality, F, classify_frame(F))
    except GeometryError as exc:
        return type(exc)


def test_relabelling_the_vertices_permutes_the_region_and_keeps_the_slack():
    # 1800 samples: 200 per stratum, each shape in turn; a near-vertex
    # sample also checks the vertex itself.
    for i in range(1800):
        rng = random.Random(i)
        T = sample_triangle(rng, TRIANGLE_SHAPES[i % 3])
        stratum = STRATA[i // 3 % len(STRATA)]
        vertices = (T.A, T.B, T.C)
        M = sample_point(rng, T, stratum)
        points = (M, vertices[i % 3]) if stratum == "near-vertex" else (M,)
        for point, inequality in itertools.product(points, BOUNDS):
            rep = _report_or_error(inequality, T, point)
            for perm in _RELABELLINGS:
                relabelled = Triangle(*(vertices[k] for k in perm))
                got = _report_or_error(inequality, relabelled, point)
                if isinstance(rep, type):
                    assert got is rep, (i, inequality, perm)
                    continue
                assert got.region is _relabelled(rep.region, perm), (i, inequality, perm)
                scale = rep.lhs + sum(abs(term.contribution) for term in rep.terms)
                assert abs(got.slack - rep.slack) <= 1e-15 * scale, (i, inequality, perm)
