import hashlib
import json
import math
import os
import random
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import pytest

from barrow import (
    DomainError,
    FuzzConfig,
    InequalityId,
    Point2,
    Region,
    Triangle,
    classify,
    fuzz,
    grid_scan,
    sample_point,
    sample_triangle,
    tightness_search,
)
from barrow import bisectors, errors, harness, inequalities, regions
from barrow.errors import GeometryError
from barrow.geom import PointFrame, barycentric, dist, vertex_distances
from barrow.harness import (
    DEFAULT_REGION_MIX,
    SIDELINE_HEIGHT_BAND,
    STRATA,
    TRIANGLE_SHAPES,
    _nelder_mead,
)
from barrow.inequalities import bound_report, frame_report
from barrow.regions import classify_frame


def fuzz_snapshot(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


def test_sample_triangle_deterministic():
    a = sample_triangle(random.Random(5), "random")
    b = sample_triangle(random.Random(5), "random")
    assert (a.A, a.B, a.C) == (b.A, b.B, b.C)


@pytest.mark.parametrize("shape", TRIANGLE_SHAPES)
def test_sample_triangle_shapes_valid(shape):
    rng = random.Random(11)
    for _ in range(200):
        t = sample_triangle(rng, shape)
        # Construction succeeded, so the degeneracy guard already passed;
        # check the stronger harness-level margin.
        assert abs(t.area) > 10.0 * 1e-12 * t.diameter ** 2


def test_sample_triangle_near_degenerate_is_flat():
    rng = random.Random(3)
    ratios = []
    for _ in range(100):
        t = sample_triangle(rng, "near-degenerate")
        ratios.append(2.0 * abs(t.area) / t.diameter ** 2)
    assert max(ratios) < 2e-2
    assert min(ratios) < 1e-6


def test_sample_triangle_exact_equilateral():
    t = sample_triangle(random.Random(0), "equilateral-perturbed", perturbation=0.0)
    assert (t.A.x, t.A.y) == (0.0, 0.0)
    assert (t.B.x, t.B.y) == (1.0, 0.0)
    assert (t.C.x, t.C.y) == (0.5, math.sqrt(3.0) / 2.0)


def test_sample_triangle_perturbed_equilateral_is_close():
    t = sample_triangle(random.Random(9), "equilateral-perturbed", perturbation=1e-4)
    assert dist(t.A, Point2(0.0, 0.0)) <= 2e-4
    assert dist(t.B, Point2(1.0, 0.0)) <= 2e-4


def test_sample_triangle_unknown_shape():
    with pytest.raises(DomainError):
        sample_triangle(random.Random(0), "isoceles-ish")


@pytest.mark.parametrize("target", [r for r in STRATA if r not in ("sideline", "near-vertex")])
def test_sample_point_hits_region(target):
    rng = random.Random(17)
    for _ in range(50):
        t = sample_triangle(rng, "random")
        m = sample_point(rng, t, target)
        assert classify(t, m).value == target


def test_sample_point_accepts_region_enum(unit_right):
    m = sample_point(random.Random(2), unit_right, Region.MU4)
    assert classify(unit_right, m) is Region.MU4


def test_sample_point_sideline_snaps(unit_right):
    rng = random.Random(23)
    for _ in range(50):
        t = sample_triangle(rng, "random")
        m = sample_point(rng, t, "sideline")
        assert min(abs(c) for c in barycentric(t, m).as_tuple()) <= 1e-12


def test_sample_point_near_vertex_band(unit_right):
    rng = random.Random(29)
    for _ in range(50):
        t = sample_triangle(rng, "random")
        m = sample_point(rng, t, "near-vertex")
        nearest = min(dist(m, v) for v in t.vertices)
        assert 0.0 < nearest <= 1e-6 * t.diameter


def test_sample_point_unknown_target(unit_right):
    with pytest.raises(DomainError):
        sample_point(random.Random(0), unit_right, "everywhere")


def test_fuzz_config_validation():
    with pytest.raises(DomainError):
        FuzzConfig(n=0, seed=1)
    with pytest.raises(DomainError):
        FuzzConfig(n=10, seed=1, triangle_shape="pointy")
    with pytest.raises(DomainError):
        FuzzConfig(n=10, seed=1, region_mix={"lambda0": 0.5})
    with pytest.raises(DomainError):
        FuzzConfig(n=10, seed=1, region_mix={"lambda0": 1.0, "hyperbolic": 0.0})
    with pytest.raises(DomainError):
        FuzzConfig(n=10, seed=1, region_mix={"lambda0": 2.0, "mu1": -1.0})
    # NaN passes both the sign and the sum test; every sample would then
    # fall through the stratum draw.
    with pytest.raises(DomainError):
        FuzzConfig(n=200, seed=0, region_mix={"lambda0": float("nan")})
    with pytest.raises(DomainError):
        FuzzConfig(n=10, seed=1, region_mix={"lambda0": 1.0, "mu1": float("nan")})


def _fixed_draw(x):
    return SimpleNamespace(random=lambda: x)


def test_pick_stratum_never_draws_a_zero_share_stratum():
    # The shares sum to 0.9999999999, within FuzzConfig's tolerance of 1; a
    # draw above that sum goes to the last stratum with a positive share.
    mix = {"lambda0": 0.3, "mu1": 0.3, "mu2": 0.4 - 1e-10}
    FuzzConfig(n=10, seed=1, region_mix=mix)
    table = harness._stratum_table(mix)
    assert harness._pick_stratum(_fixed_draw(0.99999999995), table) == "mu2"
    assert harness._pick_stratum(_fixed_draw(0.0), table) == "lambda0"
    assert harness._pick_stratum(_fixed_draw(0.6), table) == "mu2"
    # The default mix sums to just under 1, and its last stratum has a share.
    table = harness._stratum_table(DEFAULT_REGION_MIX)
    assert [name for _, name in table] == list(STRATA)
    assert harness._pick_stratum(_fixed_draw(0.9999999999999999), table) == "near-vertex"


def test_fuzz_no_violations_small():
    report = fuzz(FuzzConfig(n=400, seed=7))
    assert report.violation_count == 0
    assert report.total_reports >= 400
    regions = {key.split("/")[1] for key in report.cells}
    assert "lambda0" in regions and "mu1" in regions


def test_fuzz_deterministic_and_worker_independent():
    config = FuzzConfig(n=300, seed=13)
    sequential = fuzz_snapshot(fuzz(config, workers=1))
    assert fuzz_snapshot(fuzz(config, workers=1)) == sequential
    assert fuzz_snapshot(fuzz(config, workers=3)) == sequential
    assert fuzz_snapshot(fuzz(config, workers=8)) == sequential


def test_fuzz_pool_is_bounded_by_cpu_count(monkeypatch):
    # A fake executor that runs in-process: no test may start one process
    # per requested worker.
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    config = FuzzConfig(n=300, seed=13)
    report = fuzz(config, workers=10_000)
    assert len(pools) == 1 and 1 <= pools[0] <= (os.cpu_count() or 1)
    assert fuzz_snapshot(report) == fuzz_snapshot(fuzz(config, workers=1))


class _PoolWontStart:
    def __init__(self, max_workers):
        raise OSError("no process pool here")


class _PoolBreaks:
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        raise BrokenProcessPool("a worker died")


@pytest.mark.parametrize("pool", [_PoolWontStart, _PoolBreaks])
def test_fuzz_falls_back_to_the_same_report_without_a_pool(monkeypatch, pool):
    config = FuzzConfig(n=300, seed=13)
    sequential = fuzz_snapshot(fuzz(config, workers=1))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
    assert fuzz_snapshot(fuzz(config, workers=3)) == sequential

def test_fuzz_evaluates_the_frame_its_sampler_accepted(monkeypatch):
    # Only a rejected region draw or a missed sideline snap builds a second
    # frame: at most 1.008 frames per sample here, against 2 when each
    # sample's point was measured again for its reports.
    frames = []
    init = PointFrame.__init__
    monkeypatch.setattr(PointFrame, "__init__", lambda F, T, M: frames.append(M) or init(F, T, M))
    for shape in TRIANGLE_SHAPES:
        frames.clear()
        fuzz(FuzzConfig(n=1000, seed=3, triangle_shape=shape))
        assert len(frames) <= 1020


def test_fuzz_does_each_kernel_step_once_per_sample(monkeypatch):
    # Each sample computes its three bisectors once, however many of its
    # reports read them, and is classified once, by its sampler.
    calls = {"bisector": 0, "classify": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(bisectors, "_bisector", counted("bisector", bisectors._bisector))
    monkeypatch.setattr(regions, "classify_pattern", counted("classify", regions.classify_pattern))
    for shape in TRIANGLE_SHAPES:
        calls.update(bisector=0, classify=0)
        fuzz(FuzzConfig(n=1000, seed=3, triangle_shape=shape))
        assert calls == {"bisector": 3000, "classify": 1000}


def test_fuzz_near_degenerate_shape():
    report = fuzz(FuzzConfig(n=300, seed=19, triangle_shape="near-degenerate"))
    assert report.violation_count == 0


def test_fuzz_focused_mix():
    mix = {name: 0.0 for name in DEFAULT_REGION_MIX}
    mix["mu6"] = 1.0
    report = fuzz(FuzzConfig(n=120, seed=3, region_mix=mix))
    regions = {key.split("/")[1] for key in report.cells}
    assert regions == {"mu6"}
    for key in report.cells:
        assert key.split("/")[0] in ("SignedBarrow30", "Dergiades3")


def test_fuzz_negative_tolerance_reports_violations():
    # A negative tolerance flags ordinary positive slacks, which exercises
    # the violation bookkeeping without a genuine counterexample.
    report = fuzz(FuzzConfig(n=50, seed=5, tol_factor=-1.0))
    assert report.violation_count > 0
    first = report.violations[0]
    assert set(first) == {"index", "inequality", "region", "slack", "tol", "triangle", "point"}
    cells_total = sum(cell["violation_count"] for cell in report.cells.values())
    assert cells_total == report.violation_count


def test_fuzz_report_shape():
    report = fuzz(FuzzConfig(n=60, seed=1))
    data = report.to_json_dict()
    assert list(data) == [
        "n", "seed", "triangle_shape", "tol_factor",
        "total_reports", "violation_count", "violations", "cells",
    ]
    assert list(data["cells"]) == sorted(data["cells"])
    for cell in data["cells"].values():
        assert cell["count"] > 0
        assert cell["argmin_index"] >= 0
        assert len(cell["argmin_triangle"]) == 3
        assert len(cell["argmin_point"]) == 2


def test_nelder_mead_quadratic_bowl():
    point, value = _nelder_mead(
        lambda x, y: (x - 3.0) ** 2 + 2.0 * (y + 1.0) ** 2,
        (0.0, 0.0),
        step=0.5,
        tol=1e-12,
    )
    assert math.hypot(point[0] - 3.0, point[1] + 1.0) < 1e-6
    assert value < 1e-12


def test_tightness_search_equilateral_finds_circumcenter(equilateral):
    point, slack = tightness_search(equilateral, InequalityId.BARROW1, starts=6, seed=4)
    center = Point2(0.5, math.sqrt(3.0) / 6.0)
    assert dist(point, center) <= 1e-6 * equilateral.diameter
    assert abs(slack) <= 1e-9


def test_tightness_search_interior_only_for_interior_ids(scalene):
    point, slack = tightness_search(scalene, InequalityId.LU_WEIGHTED13, starts=4, seed=8)
    assert classify(scalene, point) is Region.LAMBDA0
    assert slack >= -1e-9 * sum(vertex_distances(scalene, point))


def test_tightness_search_deterministic(scalene):
    first = tightness_search(scalene, InequalityId.DERGIADES3, starts=5, seed=21)
    second = tightness_search(scalene, InequalityId.DERGIADES3, starts=5, seed=21)
    assert first == second


def test_tightness_search_rejects_vertex_ids(unit_right):
    with pytest.raises(DomainError):
        tightness_search(unit_right, InequalityId.VERTEX_A14)
    with pytest.raises(DomainError):
        tightness_search(unit_right, InequalityId.BARROW1, starts=0)


def test_grid_scan_shape_and_order(unit_right):
    grid = grid_scan(unit_right, (0.0, 0.0, 1.0, 1.0), 4)
    assert len(grid.rows) == 16
    # Row-major with y slowest, cell centers at (i + 0.5) spacing.
    assert grid.rows[0].x == 0.125 and grid.rows[0].y == 0.125
    assert grid.rows[1].x == 0.375 and grid.rows[1].y == 0.125
    assert grid.rows[4].x == 0.125 and grid.rows[4].y == 0.375
    for row in grid.rows:
        assert row.slack == row.lhs - row.rhs


def test_grid_scan_validation(unit_right):
    with pytest.raises(DomainError):
        grid_scan(unit_right, (0.0, 0.0, 1.0, 1.0), 1)
    with pytest.raises(DomainError):
        grid_scan(unit_right, (1.0, 0.0, 0.0, 1.0), 4)


def test_grid_scan_vertex_cell_has_nan_columns():
    t = Triangle(Point2(0.5, 0.5), Point2(2.0, 0.0), Point2(0.0, 2.0))
    grid = grid_scan(t, (-1.0, -1.0, 1.0, 1.0), 2)
    vertex_rows = [row for row in grid.rows if row.region == "vertexA"]
    assert len(vertex_rows) == 1
    row = vertex_rows[0]
    assert row.x == 0.5 and row.y == 0.5
    assert math.isnan(row.lp_b) and math.isnan(row.lp_c)
    assert not math.isnan(row.lp_a)
    assert not math.isnan(row.slack)


def test_grid_scan_region_fractions(unit_right):
    # With the box exactly around the triangle, the interior cell share
    # approaches area(T) / area(box) = 1/2.
    grid = grid_scan(unit_right, (0.0, 0.0, 1.0, 1.0), 100)
    interior = sum(1 for row in grid.rows if row.region == "lambda0")
    assert abs(interior / len(grid.rows) - 0.5) < 0.05


def test_grid_scan_rejects_overflowing_cells(scalene):
    # x1 - x0 overflows, so every cell center would be inf.
    with pytest.raises(DomainError, match="too wide"):
        grid_scan(scalene, (-1e308, 0.0, 1e308, 1.0), 2)
    with pytest.raises(DomainError, match="too wide"):
        grid_scan(scalene, (0.0, -1e308, 1.0, 1e308), 2)


def same_bits(a, b):
    """Equal strings, or floats with equal bits (NaN equals NaN)."""
    return a == b if isinstance(a, str) else float.hex(a) == float.hex(b)


#: Interior, the six strips and wedges, sidelines and their extensions, the
#: vertices and a point 1e-13 off one, far points and non-finite coordinates.
OBJECTIVE_POINTS = [
    (1.3, 0.7), (2.0, -0.5), (3.0, 2.0), (-0.5, 1.0), (-0.5, -0.5), (5.0, -0.5), (1.0, 3.0),
    (2.0, 0.0), (-1.0, 0.0), (0.5, 1.0), (0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (1e-13, 1e-13),
    (1e150, 0.0), (1e200, 0.0), (0.0, -1e200), (-1e200, 1e200),
    (math.inf, 0.0), (0.5, -math.inf), (math.nan, 1.0),
]


@pytest.mark.parametrize("inequality", list(inequalities.BOUNDS), ids=lambda i: i.value)
def test_search_objective_is_the_report_slack(scalene, inequality):
    # The search reads the slack without building a report; it must be the
    # report's slack bit for bit, and inf wherever the report raises.
    objective = harness._objective_for(scalene, inequality)
    for x, y in OBJECTIVE_POINTS:
        try:
            expected = bound_report(inequality, scalene, Point2(x, y)).slack
        except (GeometryError, ValueError):
            expected = math.inf
        assert same_bits(objective(x, y), expected), (inequality, x, y)


@pytest.mark.parametrize("triangle, bbox, resolution", [
    (Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 2.0)), (-1.0, -1.0, 5.0, 3.0), 16),
    (Triangle(Point2(0.5, 0.5), Point2(2.0, 0.0), Point2(0.0, 2.0)), (-1.0, -1.0, 1.0, 1.0), 2),
])
def test_grid_scan_rows_are_the_report_values(triangle, bbox, resolution):
    grid = grid_scan(triangle, bbox, resolution)
    assert len(grid.rows) == resolution * resolution
    for row in grid.rows:
        F = PointFrame(triangle, Point2(row.x, row.y))
        rep = frame_report(InequalityId.SIGNED_BARROW30, F, classify_frame(F))
        lp = [math.nan, math.nan, math.nan]
        for term in rep.terms:
            lp["abc".index(term.side)] = term.value
        expected = (row.x, row.y, rep.region.value, *F.R, *lp, rep.lhs, rep.rhs, rep.slack)
        assert all(same_bits(got, want) for got, want in zip(row, expected, strict=True)), row


def test_jobs_build_no_reports(monkeypatch, scalene):
    # The jobs read values, not records: no report and no discarded
    # OutsideInterior, while the public bound_report still builds one report.
    calls = {"frame_report": 0, "OutsideInterior": 0}
    frame_report_ = inequalities.frame_report
    outside_init = errors.OutsideInterior.__init__

    def counted_report(*args):
        calls["frame_report"] += 1
        return frame_report_(*args)

    def counted_outside(self, *args):
        calls["OutsideInterior"] += 1
        outside_init(self, *args)

    # harness too, so the count holds should it import the name itself.
    for module in (inequalities, harness):
        monkeypatch.setattr(module, "frame_report", counted_report, raising=False)
    monkeypatch.setattr(errors.OutsideInterior, "__init__", counted_outside)

    for inequality in inequalities.BOUNDS:
        tightness_search(scalene, inequality, starts=3, seed=1)
    grid_scan(scalene, (-1.0, -1.0, 5.0, 3.0), 16)
    fuzz(FuzzConfig(n=300, seed=5))
    assert calls == {"frame_report": 0, "OutsideInterior": 0}

    bound_report(InequalityId.BARROW1, scalene, Point2(1.3, 0.7))
    assert calls == {"frame_report": 1, "OutsideInterior": 0}
    with pytest.raises(errors.OutsideInterior):
        bound_report(InequalityId.BARROW1, scalene, Point2(-0.5, -0.5))
    assert calls == {"frame_report": 2, "OutsideInterior": 1}


def _hex_bytes(values) -> bytes:
    return "".join(float.hex(v) + "," for v in values).encode("ascii")


def _triangle_bytes() -> bytes:
    # Each draw, then the stream's next number: a sampler that consumes one
    # draw more or less than before moves the sample after it.
    draws = [(shape, {}) for shape in TRIANGLE_SHAPES] + [
        ("near-degenerate", {"height_band": SIDELINE_HEIGHT_BAND}),
        ("equilateral-perturbed", {"perturbation": 0.0}),
    ]
    values = []
    for shape, options in draws:
        for seed in range(200):
            rng = random.Random(seed)
            T = sample_triangle(rng, shape, **options)
            values.extend((*T.A, *T.B, *T.C, rng.random()))
    return _hex_bytes(values)


def _point_bytes() -> bytes:
    values = []
    for stratum in STRATA:
        for seed in range(200):
            rng = random.Random(seed)
            T = sample_triangle(rng, TRIANGLE_SHAPES[seed % 3])
            M = sample_point(rng, T, stratum)
            values.extend((M.x, M.y, rng.random()))
    return _hex_bytes(values)


def _fuzz_bytes() -> bytes:
    configs = [
        FuzzConfig(n=2000, seed=7, region_mix={"sideline": 0.5, "near-vertex": 0.5},
                   triangle_shape="near-degenerate"),
        FuzzConfig(n=300, seed=5, tol_factor=-1.0),
    ]
    return "\n".join(fuzz_snapshot(fuzz(config)) for config in configs).encode("ascii")


#: SHA-256 of what the samplers draw, which the fuzz, the search and
#: bench/spans.py read: 200 seeds of every triangle shape (plus the sideline
#: height band and the exact equilateral), 200 seeds of each of the nine
#: point strata, and the JSON of a non-default-mix fuzz and of a violating
#: one.  Like the CLI pins they were made with the libm of glibc 2.36.
PINNED_SAMPLER_SHA256 = {
    "triangles": "ff1f03e5f5c701a1c9c747c30bbf39609e0fb7caa174e7270f7b5b8649b95c9d",
    "points": "befa9a09d784444c499e07071660d9a3a879cd851f4d545ac9cb88796cf6cdd1",
    "fuzz": "c775506ca8199c3bc06772c767e84cfa18a6915ab54f456bf8b16aca1b4effd6",
}
_SAMPLER_BYTES = {"triangles": _triangle_bytes, "points": _point_bytes, "fuzz": _fuzz_bytes}


@pytest.mark.parametrize("name", list(PINNED_SAMPLER_SHA256))
def test_sampler_streams_are_pinned(name):
    assert hashlib.sha256(_SAMPLER_BYTES[name]()).hexdigest() == PINNED_SAMPLER_SHA256[name]
