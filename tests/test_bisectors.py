import math

import pytest
from hypothesis import assume, given, settings

from barrow import (
    DomainError,
    GeometryError,
    NumericalError,
    Point2,
    VertexCoincidence,
    bisector_length,
    bisector_lengths,
    signed_bisectors,
)
from barrow.bisectors import _bisector
from barrow.geom import barycentric, dist
from barrow.regions import SIDE_ENDS

from conftest import points_in, triangles
from oracles import ray_bisector_length

# Independently computed reference values (bisector ray intersected with the
# opposite line, printed to 17 significant digits).
LENGTH_4030 = 1.0025221363557746
HARMONIC_OUTSIDE = 1.8856180831641269  # 4*sqrt(2)/3


def test_bisector_lengths_reject_vertex(unit_right):
    for measure in (bisector_lengths, signed_bisectors):
        with pytest.raises(VertexCoincidence) as err:
            measure(unit_right, Point2(1.0, 0.0))
        assert err.value.vertex == "B"
        with pytest.raises(VertexCoincidence):
            measure(unit_right, Point2(1e-14, -1e-14))


def test_bisector_length_known_values():
    got = bisector_length(Point2(1.0, 1.0), Point2(4.0, 0.0), Point2(0.0, 3.0))
    assert math.isclose(got, LENGTH_4030, rel_tol=1e-12)
    got = bisector_length(Point2(1.0, 1.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    assert math.isclose(got, math.sqrt(2.0) / 2.0, rel_tol=1e-14)


def test_bisector_length_circumradius_one_equilateral():
    # From the circumcenter both distances are 1 and the subtended angle is
    # 2*pi/3, so the bisector length is cos(pi/3) = 1/2.
    b = Point2(-math.sqrt(3.0) / 2.0, -0.5)
    c = Point2(math.sqrt(3.0) / 2.0, -0.5)
    got = bisector_length(Point2(0.0, 0.0), b, c)
    assert math.isclose(got, 0.5, rel_tol=1e-15)


def test_bisector_length_on_segment_is_zero(unit_right):
    assert bisector_length(Point2(0.5, 0.5), Point2(1.0, 0.0), Point2(0.0, 1.0)) == 0.0


def test_bisector_length_on_extension_is_harmonic_mean():
    got = bisector_length(Point2(-1.0, 2.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    assert math.isclose(got, HARMONIC_OUTSIDE, rel_tol=1e-15)
    assert math.isclose(got, 4.0 * math.sqrt(2.0) / 3.0, rel_tol=1e-14)


def test_bisector_length_rejects_coincident_endpoint():
    with pytest.raises(VertexCoincidence) as err:
        bisector_length(Point2(1.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    assert err.value.vertex == "B"
    with pytest.raises(VertexCoincidence) as err:
        bisector_length(Point2(1e-14, 1.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    assert err.value.vertex == "C"


def test_bisector_length_rejects_overflowing_squares():
    # 2 R_B R_C overflows although the bisector itself (R/sqrt(2)) is finite.
    for far in (1e300, 1e154):
        with pytest.raises(DomainError):
            bisector_length(Point2(0.0, 0.0), Point2(far, 0.0), Point2(0.0, far))
    got = bisector_length(Point2(0.0, 0.0), Point2(1e153, 0.0), Point2(0.0, 1e153))
    assert math.isclose(got, 1e153 / math.sqrt(2.0), rel_tol=1e-15)


def _scaled_unit_right_bisectors(m, k):
    """The three kernel calls of the unit right triangle at point m, all scaled by 2^k."""
    rel = [(math.ldexp(x - m[0], k), math.ldexp(y - m[1], k)) for x, y in ((0, 0), (1, 0), (0, 1))]
    for i, j in SIDE_ENDS:
        (ux, uy), (vx, vy) = rel[i], rel[j]
        _bisector(math.hypot(ux, uy), math.hypot(vx, vy), ux * vy - uy * vx, ux * vx + uy * vy)


def test_bisector_cross_check_is_live_at_every_scale():
    # R_B = R_C = 1 with cross = dot = 1/2 is no triangle: the half-angle
    # form reads cos(pi/8), the radical form sqrt(3)/2.
    for k in (-400, 0, 400):
        r, q = math.ldexp(1.0, k), math.ldexp(0.5, 2 * k)
        with pytest.raises(NumericalError):
            _bisector(r, r, q, q)
    # At 2^-540, R_B R_C underflows to zero and so does the half-angle form.
    # A radical form built on that product would read zero too and agree.
    r, q = math.ldexp(1.0, -540), math.ldexp(1.0, -1000)
    with pytest.raises(NumericalError):
        _bisector(r, r, q, q)
    # Interior, strip and wedge points.  Near 2^-530 the half-angle form's
    # 2 R_B R_C is subnormal and loses digits that the radical form keeps,
    # so the check must fire.  (Below about 2^-539 every cross product
    # underflows to zero and nothing is left to compare; Triangle refuses
    # such triangles from 2^-536 on.)
    for m in ((0.25, 0.25), (1.0, 1.0), (-0.5, -0.5), (2.0, -0.5)):
        _scaled_unit_right_bisectors(m, -500)
        with pytest.raises(NumericalError):
            _scaled_unit_right_bisectors(m, -530)


def test_bisector_length_is_exact_or_raises_at_tiny_scales():
    # Homogeneity: at scale 2^k the bisector is 2^k times the unit-scale one.
    # Below about 2^-537 cross products underflow to zero and the collinear
    # branch used to return 0.0 or a wrong limit value without an error.
    # Interior, strip, wedge and sideline points of the unit right triangle,
    # dyadic so that scaling by 2^k is exact until they go subnormal.
    points = (
        (0.25, 0.25), (0.125, 0.5), (0.75, 0.75), (-0.25, 0.5), (0.5, -0.25),
        (-0.5, -0.5), (1.5, -0.25), (-0.25, 1.5), (0.5, 0.0), (3.0, 0.0),
    )
    V = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def scaled(p, k):
        return Point2(math.ldexp(p[0], k), math.ldexp(p[1], k))

    raised = 0
    for m in points:
        for i, j in SIDE_ENDS:
            if m in (V[i], V[j]):
                continue
            unit = bisector_length(Point2(*m), Point2(*V[i]), Point2(*V[j]))
            assert bisector_length(scaled(m, -500), scaled(V[i], -500), scaled(V[j], -500)) == (
                math.ldexp(unit, -500))
            for k in range(-400, -1075, -1):
                want = math.ldexp(unit, k)
                try:
                    got = bisector_length(scaled(m, k), scaled(V[i], k), scaled(V[j], k))
                except GeometryError:
                    raised += 1
                    continue
                assert abs(got - want) <= 1e-9 * abs(want), (m, (i, j), k, got, want)
    assert raised > 0
    assert bisector_length(Point2(0.25, 0.25), Point2(1.0, 0.0), Point2(0.0, 1.0)) == (
        0.35355339059327384)


def test_bisector_length_continuous_at_segment():
    # Approaching a point of the open segment, the length decays linearly
    # with the offset; approaching the extension, it tends to the
    # harmonic-mean value quadratically.
    b, c = Point2(1.0, 0.0), Point2(0.0, 1.0)
    n = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    for h in (1e-3, 1e-6, 1e-9):
        on_segment = bisector_length(Point2(0.5 + h * n[0], 0.5 + h * n[1]), b, c)
        assert 0.0 < on_segment <= 4.0 * h
        off_segment = bisector_length(Point2(-1.0 + h * n[0], 2.0 + h * n[1]), b, c)
        assert abs(off_segment - HARMONIC_OUTSIDE) <= h * HARMONIC_OUTSIDE


@settings(max_examples=300)
@given(points_in(-10, 10), points_in(-10, 10), points_in(-10, 10))
def test_bisector_length_matches_ray_intersection(m, b, c):
    rb, rc, side = dist(m, b), dist(m, c), dist(b, c)
    assume(side > 1e-3 and rb > 1e-3 and rc > 1e-3)
    cross = (b.x - m.x) * (c.y - m.y) - (b.y - m.y) * (c.x - m.x)
    # The ray oracle needs a well-conditioned intersection, so stay away
    # from collinear configurations here; the limits get their own tests.
    assume(abs(cross) > 1e-3 * rb * rc)
    got = bisector_length(m, b, c)
    expected = ray_bisector_length((m.x, m.y), (b.x, b.y), (c.x, c.y))
    assert math.isclose(got, expected, rel_tol=1e-9)


@settings(max_examples=200)
@given(points_in(-10, 10), points_in(-10, 10), points_in(-10, 10))
def test_bisector_length_dual_forms_stay_consistent(m, b, c):
    # The implementation asserts agreement of its two closed forms on every
    # call; any drawn configuration that is not degenerate must pass.
    rb, rc, side = dist(m, b), dist(m, c), dist(b, c)
    assume(side > 1e-6 and rb > 1e-3 * side and rc > 1e-3 * side)
    value = bisector_length(m, b, c)
    assert value >= 0.0
    assert value <= 2.0 * rb * rc / (rb + rc)


def test_bisector_lengths_interior(unit_right):
    ell = bisector_lengths(unit_right, Point2(0.25, 0.25))
    assert math.isclose(ell.l_a, 0.35355339059327379, rel_tol=1e-12)
    assert math.isclose(ell.l_b, 0.25687157418650391, rel_tol=1e-12)
    assert math.isclose(ell.l_c, 0.25687157418650391, rel_tol=1e-12)


def test_signed_bisectors_known_point(unit_right):
    lp = signed_bisectors(unit_right, Point2(1.0, 1.0))
    assert math.isclose(lp.lp_a, -math.sqrt(2.0) / 2.0, rel_tol=1e-14)
    assert math.isclose(lp.lp_b, 1.0823922002923942, rel_tol=1e-12)
    assert math.isclose(lp.lp_c, 1.0823922002923942, rel_tol=1e-12)


def test_signed_bisectors_interior_all_positive(unit_right):
    lp = signed_bisectors(unit_right, Point2(0.25, 0.25))
    assert lp.lp_a > 0.0 and lp.lp_b > 0.0 and lp.lp_c > 0.0


def test_signed_bisectors_on_sideline_exact_zero(unit_right):
    # (0.5, 0.5) sits on segment BC with an exactly vanishing cross product.
    lp = signed_bisectors(unit_right, Point2(0.5, 0.5))
    assert lp.lp_a == 0.0
    assert lp.lp_b > 0.0 and lp.lp_c > 0.0


@settings(max_examples=300)
@given(triangles(), points_in())
def test_signed_bisector_signs_follow_barycentric(t, m):
    assume(min(dist(m, v) for v in t.vertices) > 1e-6 * t.diameter)
    bc = barycentric(t, m)
    lp = signed_bisectors(t, m)
    for coordinate, value in zip(bc.as_tuple(), (lp.lp_a, lp.lp_b, lp.lp_c)):
        if coordinate > 0.0:
            assert value >= 0.0
        elif coordinate < 0.0:
            assert value <= 0.0
        else:
            assert value >= 0.0


@settings(max_examples=100)
@given(points_in(-5, 5), points_in(-5, 5), points_in(-5, 5), points_in(-5, 5))
def test_bisector_length_translation_invariance(m, b, c, shift):
    rb, rc, side = dist(m, b), dist(m, c), dist(b, c)
    assume(side > 1e-2 and rb > 1e-2 and rc > 1e-2)
    cross = (b.x - m.x) * (c.y - m.y) - (b.y - m.y) * (c.x - m.x)
    assume(abs(cross) > 1e-2 * rb * rc)
    base = bisector_length(m, b, c)
    moved = bisector_length(
        Point2(m.x + shift.x, m.y + shift.y),
        Point2(b.x + shift.x, b.y + shift.y),
        Point2(c.x + shift.x, c.y + shift.y),
    )
    assert math.isclose(base, moved, rel_tol=1e-9)
