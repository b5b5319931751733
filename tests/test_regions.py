import math

import pytest
from hypothesis import given, settings

from barrow import Point2, PointFrame, Region, Triangle, classify
from barrow.geom import barycentric
from barrow.regions import OPEN_PATTERNS, classify_frame, classify_pattern, sign_pattern

from conftest import points_in, triangles
from oracles import oracle_region


# Every sign triple that can arise from normalized coordinates summing to 1,
# paired with the region that owns it.
REALIZABLE_PATTERNS = {
    (1, 1, 1): Region.LAMBDA0,
    (-1, 1, 1): Region.MU1,
    (1, -1, 1): Region.MU2,
    (1, 1, -1): Region.MU3,
    (1, -1, -1): Region.MU4,
    (-1, 1, -1): Region.MU5,
    (-1, -1, 1): Region.MU6,
    (0, 1, 1): Region.MU1,
    (0, 1, -1): Region.MU3,
    (0, -1, 1): Region.MU2,
    (1, 0, 1): Region.MU2,
    (-1, 0, 1): Region.MU1,
    (1, 0, -1): Region.MU3,
    (1, 1, 0): Region.MU3,
    (-1, 1, 0): Region.MU1,
    (1, -1, 0): Region.MU2,
    (1, 0, 0): Region.VERTEX_A,
    (0, 1, 0): Region.VERTEX_B,
    (0, 0, 1): Region.VERTEX_C,
}


# The patterns u + v + w = 1 rules out, except (-1, -1, -1): the classifier
# is total on them, a zero with two negatives joining the adjacent wedge and
# two or three zeros naming the vertex of the largest coordinate (the first
# on a tie).
UNREALIZABLE_PATTERNS = {
    (0, -1, -1): Region.MU4,
    (-1, 0, -1): Region.MU5,
    (-1, -1, 0): Region.MU6,
    (0, 0, -1): Region.VERTEX_A,
    (0, -1, 0): Region.VERTEX_A,
    (-1, 0, 0): Region.VERTEX_B,
    (0, 0, 0): Region.VERTEX_A,
}


@pytest.mark.parametrize(
    "pattern,region",
    sorted(REALIZABLE_PATTERNS.items()) + sorted(UNREALIZABLE_PATTERNS.items()),
)
def test_classify_pattern_table(pattern, region):
    assert classify_pattern(pattern) is region


def test_all_negative_pattern_rejected():
    with pytest.raises(ValueError):
        classify_pattern((-1, -1, -1))


def test_open_patterns_round_trip():
    for region, pattern in OPEN_PATTERNS.items():
        assert classify_pattern(pattern) is region


@pytest.mark.parametrize(
    "x,y,region",
    [
        (0.25, 0.25, Region.LAMBDA0),
        (2.0, 2.0, Region.MU1),
        (0.5, 0.5, Region.MU1),  # midpoint of the far side
        (-0.5, 0.5, Region.MU2),
        (0.0, 0.5, Region.MU2),
        (0.5, -0.5, Region.MU3),
        (0.5, 0.0, Region.MU3),
        (-1.0, 0.0, Region.MU2),  # line AB beyond A
        (2.0, 0.0, Region.MU1),  # line AB beyond B
        (-1.0, -1.0, Region.MU4),
        (3.0, -1.0, Region.MU5),
        (-1.0, 3.0, Region.MU6),
        (-1.0, 2.0 + 1e-15, Region.MU2),  # snaps onto line BC beyond C
        (0.0, 0.0, Region.VERTEX_A),
        (1.0, 0.0, Region.VERTEX_B),
        (0.0, 1.0, Region.VERTEX_C),
    ],
)
def test_classify_unit_right(unit_right, x, y, region):
    assert classify(unit_right, Point2(x, y)) is region


def test_classify_sideline_beyond_vertices(unit_right):
    # Extension rays of a sideline belong to the strips, not the wedges.
    assert classify(unit_right, Point2(-1.0, 2.0)) is Region.MU2  # line BC beyond C
    assert classify(unit_right, Point2(2.0, -1.0)) is Region.MU3  # line BC beyond B
    assert classify(unit_right, Point2(3.0, -2.0)) is Region.MU3
    assert classify(unit_right, Point2(0.0, -1.0)) is Region.MU3  # line CA below A
    assert classify(unit_right, Point2(0.0, 2.0)) is Region.MU1  # line CA beyond C


def test_eps_snaps_near_boundary(unit_right):
    m = Point2(1e-13, 0.5)
    assert classify(unit_right, m) is Region.MU2
    assert classify_frame(PointFrame(unit_right, m), 0.0) is Region.LAMBDA0


def test_eps_snaps_near_vertex(unit_right):
    m = Point2(1.0 - 5e-13, 1e-13)
    assert classify(unit_right, m) is Region.VERTEX_B
    assert classify_frame(PointFrame(unit_right, m), 0.0) is Region.LAMBDA0


def test_sign_pattern_uses_absolute_eps(unit_right):
    bc = barycentric(unit_right, Point2(1e-13, 0.5))
    assert sign_pattern(bc, 1e-12) == (1, 0, 1)
    assert sign_pattern(bc, 0.0) == (1, 1, 1)


def test_classify_matches_vertex_order_independence():
    # Region labels follow the vertex labels, so a relabeled triangle maps
    # the same point into the permuted region.
    t1 = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    t2 = Triangle(Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(0.0, 0.0))
    m = Point2(2.0, 2.0)
    assert classify(t1, m) is Region.MU1
    assert classify(t2, m) is Region.MU3


def test_region_properties():
    assert Region("lambda0") is Region.LAMBDA0
    assert Region("mu1") is not Region.LAMBDA0
    assert Region.VERTEX_A.is_vertex
    assert not Region.MU4.is_vertex
    assert Region.MU2.value == "mu2"


def test_strip_labels_lie_in_strip_closure(unit_right):
    # A boundary point labeled MuK must sit in the closure of the open
    # region with MuK's sign pattern: some point within 1e-6 of the
    # diameter shows the open pattern.
    boundary = [
        (0.5, 0.5), (2.0, -1.0), (-1.0, 2.0),
        (0.0, 0.5), (0.0, -1.0), (0.0, 2.0),
        (0.5, 0.0), (-1.0, 0.0), (2.0, 0.0),
    ]
    radius = 5e-7 * unit_right.diameter
    for x, y in boundary:
        region = classify(unit_right, Point2(x, y))
        pattern = OPEN_PATTERNS[region]
        probes = []
        for k in range(8):
            ang = k * math.pi / 4.0
            m = Point2(x + radius * math.cos(ang), y + radius * math.sin(ang))
            probes.append(sign_pattern(barycentric(unit_right, m), 1e-12))
        assert pattern in probes


@settings(max_examples=300)
@given(triangles(), points_in())
def test_classify_matches_side_of_line_oracle(t, m):
    got = classify(t, m).value
    expected = oracle_region(
        (t.A.x, t.A.y), (t.B.x, t.B.y), (t.C.x, t.C.y), (m.x, m.y)
    )
    assert got == expected


@settings(max_examples=200)
@given(triangles())
def test_classify_centroid_interior(t):
    g = Point2(
        (t.A.x + t.B.x + t.C.x) / 3.0, (t.A.y + t.B.y + t.C.y) / 3.0
    )
    assert classify(t, g) is Region.LAMBDA0
