import math
import pickle
import random

import pytest
from hypothesis import example, given, settings

from barrow import DegenerateTriangle, Point2, PointFrame, Triangle, sample_point, sample_triangle
from barrow.geom import barycentric, dist, side_coordinate, signed_area, signed_distances, vertex_distances

from conftest import points_in, triangles
from oracles import point_line_distance


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_point_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        Point2(bad, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, bad)


def test_point_contract():
    p = Point2(1.0, 2.0)
    assert repr(p) == str(p) == "Point2(x=1.0, y=2.0)"
    assert (p.x, p.y) == tuple(p) == (1.0, 2.0)
    assert hash(p) == hash((1.0, 2.0))
    assert p == Point2(1, 2) == (1.0, 2.0)
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(AttributeError):
        p.x = 3.0
    with pytest.raises(AttributeError):
        p.z = 3.0
    with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \(nan, 0\.0\)$"):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \(1\.0, -inf\)$"):
        Point2(1.0, -float("inf"))
    assert p._replace(y=5.0) == Point2(1.0, 5.0) and type(p._replace(y=5.0)) is Point2
    assert Point2._make((3.0, 4.0)) == Point2(3.0, 4.0)
    with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \(nan, 2\.0\)$"):
        p._replace(x=float("nan"))
    with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \(inf, 0\.0\)$"):
        Point2._make((float("inf"), 0.0))
    with pytest.raises(ValueError, match="unexpected field names"):
        p._replace(z=1.0)


def test_signed_area_orientation():
    p, q, r = Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)
    assert signed_area(p, q, r) == 0.5
    assert signed_area(p, r, q) == -0.5
    assert signed_area(p, q, Point2(2.0, 0.0)) == 0.0


def test_triangle_metrics(unit_right):
    assert unit_right.a == math.sqrt(2.0)
    assert unit_right.b == 1.0
    assert unit_right.c == 1.0
    assert unit_right.area == 0.5
    assert unit_right.diameter == math.sqrt(2.0)
    assert unit_right.orient_sign == 1.0


def test_triangle_cw_orientation():
    t = Triangle(Point2(0.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 0.0))
    assert t.orient_sign == -1.0
    assert t.area == -0.5


@pytest.mark.parametrize(
    "b,c",
    [
        (Point2(1.0, 0.0), Point2(2.0, 0.0)),  # collinear
        (Point2(0.0, 0.0), Point2(1.0, 1.0)),  # repeated vertex
        (Point2(1.0, 0.0), Point2(0.5, 1e-14)),  # area below threshold
    ],
)
def test_degenerate_triangle_rejected(b, c):
    with pytest.raises(DegenerateTriangle):
        Triangle(Point2(0.0, 0.0), b, c)


def test_barely_valid_triangle_accepted():
    # Area 5e-11 against a diameter^2 threshold of ~1e-12.
    t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-10))
    assert t.area > 0.0


def test_barycentric_known_values(unit_right):
    u, v, w = barycentric(unit_right, Point2(2.0, 2.0)).as_tuple()
    assert (u, v, w) == (-3.0, 2.0, 2.0)
    assert barycentric(unit_right, unit_right.A).as_tuple() == (1.0, 0.0, 0.0)
    assert barycentric(unit_right, unit_right.B).as_tuple() == (0.0, 1.0, 0.0)
    assert barycentric(unit_right, unit_right.C).as_tuple() == (0.0, 0.0, 1.0)


def test_barycentric_centroid(scalene):
    g = Point2(
        (scalene.A.x + scalene.B.x + scalene.C.x) / 3.0,
        (scalene.A.y + scalene.B.y + scalene.C.y) / 3.0,
    )
    for coordinate in barycentric(scalene, g).as_tuple():
        assert math.isclose(coordinate, 1.0 / 3.0, rel_tol=1e-12)


@settings(max_examples=200)
@given(triangles(), points_in())
def test_barycentric_partition_of_unity(t, m):
    u, v, w = barycentric(t, m).as_tuple()
    assert abs(u + v + w - 1.0) <= 1e-9 * max(1.0, abs(u) + abs(v) + abs(w))


@settings(max_examples=200)
@given(triangles(), points_in())
def test_barycentric_reconstructs_point(t, m):
    u, v, w = barycentric(t, m).as_tuple()
    x = u * t.A.x + v * t.B.x + w * t.C.x
    y = u * t.A.y + v * t.B.y + w * t.C.y
    scale = t.diameter * (abs(u) + abs(v) + abs(w))
    assert math.hypot(x - m.x, y - m.y) <= 1e-9 * scale


def test_vertex_distances(unit_right):
    r = vertex_distances(unit_right, Point2(1.0, 1.0))
    assert r.R_A == math.sqrt(2.0)
    assert r.R_B == 1.0
    assert r.R_C == 1.0
    assert r.R_A + r.R_B + r.R_C == math.sqrt(2.0) + 2.0


def test_signed_distances_interior_positive(unit_right):
    d = signed_distances(unit_right, Point2(0.25, 0.25))
    assert d.d_a > 0.0 and d.d_b > 0.0 and d.d_c > 0.0
    assert math.isclose(d.d_b, 0.25, rel_tol=1e-15)
    assert math.isclose(d.d_c, 0.25, rel_tol=1e-15)


def test_signed_distances_cw_triangle_interior_positive():
    t = Triangle(Point2(0.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 0.0))
    d = signed_distances(t, Point2(0.25, 0.25))
    assert d.d_a > 0.0 and d.d_b > 0.0 and d.d_c > 0.0


@settings(max_examples=200)
@given(triangles(), points_in())
def test_signed_distance_magnitude_matches_line_distance(t, m):
    d = signed_distances(t, m)
    pairs = [
        (d.d_a, (t.B.x, t.B.y), (t.C.x, t.C.y)),
        (d.d_b, (t.C.x, t.C.y), (t.A.x, t.A.y)),
        (d.d_c, (t.A.x, t.A.y), (t.B.x, t.B.y)),
    ]
    for value, p, q in pairs:
        expected = point_line_distance((m.x, m.y), p, q)
        assert math.isclose(abs(value), expected, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=200)
@given(triangles(), points_in())
@example(
    # The cross product for side c is the smallest subnormal: its ratio over
    # the area underflows to zero, its ratio over the side does not.
    t=Triangle(
        Point2(0.0, 5e-324), Point2(2.0, 5e-324), Point2(2.161209223472559, 3.365883939231586)
    ),
    m=Point2(0.0, 0.0),
)
def test_signed_distance_signs_follow_barycentric(t, m):
    bc = barycentric(t, m)
    d = signed_distances(t, m)
    for coordinate, value in zip(bc.as_tuple(), (d.d_a, d.d_b, d.d_c)):
        if coordinate > 0.0:
            assert value > 0.0
        elif coordinate < 0.0:
            assert value < 0.0
        else:
            assert value == 0.0


def test_frame_cross_exactly_zero_between_vertices(unit_right):
    # Strictly between B and C the cross product vanishes exactly and the
    # dot product is negative: the angle BMC is exactly pi.
    frame = PointFrame(unit_right, Point2(0.5, 0.5))
    assert frame.cross[0] == 0.0 and frame.dot[0] < 0.0
    assert frame.u == 0.0 and frame.vertex is None


def test_frame_cross_exactly_zero_outside_segment(unit_right):
    # On line BC beyond C the angle BMC is exactly zero.
    frame = PointFrame(unit_right, Point2(-1.0, 2.0))
    assert frame.cross[0] == 0.0 and frame.dot[0] > 0.0


def test_frame_vertex_check(unit_right):
    assert PointFrame(unit_right, Point2(1.0, 0.0)).vertex == 1
    assert PointFrame(unit_right, Point2(1e-14, -1e-14)).vertex == 0
    assert PointFrame(unit_right, Point2(1e-9, 0.0)).vertex is None


@settings(max_examples=100)
@given(triangles(), points_in())
def test_frame_reproduces_distance_and_area_bits(t, m):
    frame = PointFrame(t, m)
    assert frame.R == (dist(m, t.A), dist(m, t.B), dist(m, t.C))
    for k, (p, q) in enumerate(((t.B, t.C), (t.C, t.A), (t.A, t.B))):
        assert frame.cross[k] / 2.0 == signed_area(m, p, q)


def test_side_coordinate_has_the_frame_bits(unit_right):
    # The sideline sampler reads one coordinate without building a frame;
    # it must be the frame's coordinate bit for bit, including the signed
    # subnormal that stands for an underflowed nonzero ratio.
    huge = Triangle(Point2(0.0, 0.0), Point2(1e150, 0.0), Point2(0.0, 1e150))
    cases = [(huge, Point2(1e-200, 1.0)), (unit_right, Point2(0.5, 0.5)), (unit_right, Point2(-1.0, 2.0))]
    assert PointFrame(*cases[0]).v == 5e-324
    rng = random.Random(31)
    for i in range(2000):
        T = sample_triangle(rng, ("random", "near-degenerate", "equilateral-perturbed")[i % 3])
        for stratum in ("sideline", "lambda0", "mu5", "near-vertex"):
            cases.append((T, sample_point(rng, T, stratum)))
        cases.append((T, Point2(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))))
    for T, M in cases:
        F = PointFrame(T, M)
        for k, coordinate in enumerate((F.u, F.v, F.w)):
            assert side_coordinate(T, M, k).hex() == coordinate.hex()


def test_dist():
    assert dist(Point2(0.0, 0.0), Point2(3.0, 4.0)) == 5.0
