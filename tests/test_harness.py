import hashlib
import json
import math
import os
import random
import tracemalloc
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
from barrow import bisectors, cli, errors, harness, inequalities, regions
from barrow.errors import GeometryError
from barrow.geom import PointFrame, barycentric, dist, vertex_distances
from barrow.harness import (
    DEFAULT_HEIGHT_BAND,
    DEFAULT_REGION_MIX,
    SIDELINE_HEIGHT_BAND,
    STRATA,
    TRIANGLE_SHAPES,
    _nelder_mead,
)
from barrow.inequalities import bound_report, frame_report
from barrow.regions import OPEN_PATTERNS, classify_frame
import oracles


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
    # Only a dict of int or float shares is a mix: a string or None share
    # would reach math.isfinite, a list has no get, and True would pass for 1.
    for mix in ({"lambda0": "1"}, {"lambda0": None}, ["lambda0"], {"lambda0": True}):
        with pytest.raises(DomainError, match="must be a dict|must be an int or a float"):
            FuzzConfig(n=10, seed=1, region_mix=mix)
    # The seed names the streams and n counts samples: only an int will do.
    # 1.0 compares equal to 1 but would name other streams; a bool is an int
    # subclass that no caller means as a seed.
    for n, seed in ((10, 1.5), (10.5, 1), (10, 1.0), (10.0, 1), (10, True), (True, 1),
                    (10, "1"), (None, 1)):
        with pytest.raises(DomainError):
            FuzzConfig(n=n, seed=seed)
    # A NaN tolerance flags no violation, and neither it nor inf is JSON; a
    # finite negative one stays allowed.
    for tol_factor in (float("nan"), math.inf, -math.inf):
        with pytest.raises(DomainError):
            FuzzConfig(n=100, seed=1, tol_factor=tol_factor)
    # Only an int or a float is a tolerance: True would be written to the
    # JSON as true, and a string or None would reach math.isfinite.
    for tol_factor in (True, False, "1e-9", None, [1e-9]):
        with pytest.raises(DomainError, match="tol_factor must be an int or a float"):
            FuzzConfig(n=10, seed=1, tol_factor=tol_factor)
    assert FuzzConfig(n=10, seed=1, tol_factor=0).tol_factor == 0


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


def _cells_without_indices(report):
    return {key: {k: v for k, v in cell.items() if k != "argmin_index"}
            for key, cell in report.cells.items()}


def test_distinct_seeds_draw_distinct_samples():
    # Seeds that differ only in low bits once drew the same samples in
    # another order: every cell but its argmin index matched.
    cells = [_cells_without_indices(fuzz(FuzzConfig(n=1024, seed=s))) for s in (0, 1, 5)]
    assert cells[0] != cells[1] and cells[0] != cells[2] and cells[1] != cells[2]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1000])
def test_fuzz_json_is_worker_independent_at_block_edges(n):
    # Chunks start at stream-block boundaries: below, at and past one block.
    config = FuzzConfig(n=n, seed=21)
    sequential = fuzz_snapshot(fuzz(config, workers=1))
    assert fuzz_snapshot(fuzz(config, workers=2)) == sequential
    assert fuzz_snapshot(fuzz(config, workers=3)) == sequential


def test_fuzz_seeds_one_stream_per_block(monkeypatch):
    # Seeding the Mersenne Twister costs about a quarter of a sample, so the
    # fuzz seeds once per block of 64 samples, not once per sample.
    seeds = []

    class CountingRandom(random.Random):
        def seed(self, *args, **kwargs):
            seeds.append(args[0] if args else None)
            super().seed(*args, **kwargs)

    monkeypatch.setattr(harness.random, "Random", CountingRandom)
    for n, expected in ((1, 1), (64, 1), (65, 2), (100, 2), (1000, 16)):
        seeds.clear()
        fuzz(FuzzConfig(n=n, seed=9))
        assert len(seeds) == expected
    assert seeds == [f"9/{block}" for block in range(16)]


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

def _counting_frames(monkeypatch) -> list:
    """The points of the frames built from here on, one per ``PointFrame.__init__``."""
    frames = []
    init = PointFrame.__init__
    monkeypatch.setattr(PointFrame, "__init__", lambda F, T, M: frames.append(M) or init(F, T, M))
    return frames


def test_fuzz_evaluates_the_frame_its_sampler_accepted(monkeypatch):
    # Only a rejected region draw or a missed sideline snap builds a second
    # frame: at most 1.008 frames per sample here, against 2 when each
    # sample's point was measured again for its reports.
    frames = _counting_frames(monkeypatch)
    for shape in TRIANGLE_SHAPES:
        frames.clear()
        fuzz(FuzzConfig(n=1000, seed=3, triangle_shape=shape))
        assert len(frames) <= 1020


def test_fuzz_does_each_kernel_step_once_per_sample(monkeypatch):
    # Each sample computes its three bisectors once, however many of its
    # reports read them, and is classified once, by its sampler.
    calls = {"bisector": 0, "classify": 0, "signed_distances": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(bisectors, "_bisector", counted("bisector", bisectors._bisector))
    monkeypatch.setattr(regions, "classify_pattern", counted("classify", regions.classify_pattern))
    # Its signed distances are computed once too, though two bounds of an
    # interior sample read them.
    monkeypatch.setattr(PointFrame, "signed_distances",
                        counted("signed_distances", PointFrame.signed_distances))
    for shape in TRIANGLE_SHAPES:
        calls.update(bisector=0, classify=0, signed_distances=0)
        fuzz(FuzzConfig(n=1000, seed=3, triangle_shape=shape))
        assert calls == {"bisector": 3000, "classify": 1000, "signed_distances": 1000}


def _hex_slacks(triples):
    return [(inequality, region, float.hex(slack)) for inequality, region, slack in triples]


def _slacks_from_frame_values(T, M, region):
    """The fuzz's triples at M, read bound by bound from ``frame_values`` on a new frame."""
    F = PointFrame(T, M)
    ids = [InequalityId.SIGNED_BARROW30, InequalityId.DERGIADES3]
    values = [inequalities.frame_values(inequalities.BOUNDS[i], F, region) for i in ids]
    # A lambda0 signed report rules out a vertex, so the interior-only
    # bounds are defined there.
    if values[0][1] is Region.LAMBDA0:
        ids = [InequalityId.BARROW1, InequalityId.ERDOS_MORDELL2]
        values += [inequalities.frame_values(inequalities.BOUNDS[i], F, region) for i in ids]
    return _hex_slacks((i.value, r.value, lhs - rhs) for i, r, lhs, rhs, _ in values)


def test_frame_slacks_are_the_frame_values_slacks(unit_right):
    # Every stratum of every shape, then frames in the three vertex regions
    # and one on a vertex of a thin triangle whose sign pattern is open.
    cases = []
    for shape in TRIANGLE_SHAPES:
        for stratum in STRATA:
            band = SIDELINE_HEIGHT_BAND if stratum == "sideline" else DEFAULT_HEIGHT_BAND
            for seed in range(30):
                rng = random.Random(f"{shape}/{stratum}/{seed}")
                T = sample_triangle(rng, shape, height_band=band)
                cases.append((T, *harness._sample_frame(rng, T, stratum)))
    for M in unit_right.vertices:
        F = PointFrame(unit_right, M)
        cases.append((unit_right, F, classify_frame(F)))
    thin = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-3))
    F = PointFrame(thin, Point2(0.5, 1e-3 - 5e-13))
    cases.append((thin, F, classify_frame(F)))
    assert F.vertex == 2 and cases[-1][2] is Region.LAMBDA0
    seen = set()
    for T, F, region in cases:
        got = _hex_slacks(inequalities.frame_slacks(F, region))
        assert got == _slacks_from_frame_values(T, F.M, region)
        seen.update((inequality, region) for inequality, region, _ in got)
    assert {label for label, _ in seen} == {
        "SignedBarrow30", "LuWeighted13", "Dergiades3", "Barrow1", "ErdosMordell2",
        "VertexA14", "VertexB15", "VertexC16",
    }
    assert {region for _, region in seen} == {region.value for region in Region}


def test_fuzz_config_keeps_its_own_mix():
    # Changing the caller's dict after validation changes no run.
    mix = {"lambda0": 1.0}
    config = FuzzConfig(n=128, seed=1, region_mix=mix)
    mix["lambda0"] = -3.0
    mix["mu1"] = 4.0
    assert config.region_mix == {"lambda0": 1.0}
    expected = fuzz_snapshot(fuzz(FuzzConfig(n=128, seed=1, region_mix={"lambda0": 1.0})))
    assert fuzz_snapshot(fuzz(config)) == expected
    assert fuzz_snapshot(fuzz(config, workers=2)) == expected


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


def _walled_bowl(x, y):
    """A bowl with NaN left of x = -1 and inf above y = 1."""
    if x < -1.0:
        return math.nan
    if y > 1.0:
        return math.inf
    return (x + 0.5) ** 2 + 2.0 * (y - 0.5) ** 2


def _simplex_cases():
    """``(name, objective, x0, step, tol)`` for the simplex reference test."""
    cases = [
        ("bowl", lambda x, y: (x - 3.0) ** 2 + 2.0 * (y + 1.0) ** 2, (0.0, 0.0), 0.5, 1e-12),
        # Every value ties, so every pass shrinks.
        ("constant", lambda x, y: 1.0, (0.3, -0.2), 0.5, 1e-12),
        # Unbounded below: the descent runs all _MAX_ITER passes.
        ("plane", lambda x, y: x + y, (0.0, 0.0), 0.5, 1e-12),
        # inf - inf: the first side is NaN, which never stops the descent.
        ("infinite", lambda x, y: x * x + y * y, (math.inf, 0.0), 0.5, 1e-12),
    ]
    # Starts next to either wall, in the corner where they meet and behind
    # the NaN wall, where the first vertex keeps its NaN.
    for x0 in [(-0.9, 0.0), (0.0, 0.9), (-0.95, 0.95), (-0.8, -0.5), (1.5, 0.8), (-1.2, 0.0)]:
        cases.append(("walls", _walled_bowl, x0, 0.3, 1e-12))
    # The search's own objective, steps and starts; off their domain the
    # interior-only bounds read inf.
    rng = random.Random(11)
    for shape in ("random", "equilateral-perturbed"):
        for _ in range(2):
            T = sample_triangle(rng, shape)
            for inequality in inequalities.BOUNDS:
                interior = inequality in inequalities.INTERIOR_IDS
                cycle = (Region.LAMBDA0,) if interior else tuple(OPEN_PATTERNS)
                objective = inequalities.slack_function(T, inequality)
                for k in range(3):
                    start = sample_point(rng, T, cycle[k % len(cycle)])
                    cases.append((
                        inequality.value, objective, (start.x, start.y),
                        0.05 * T.diameter, 1e-10 * T.diameter,
                    ))
    return cases


def test_nelder_mead_visits_the_reference_points():
    # The descent keeps its vertices in locals and orders them with three
    # compares; it must visit the points of the list-based reference, in
    # their order, and return its bits.
    assert harness._MAX_ITER == oracles._MAX_ITER
    walls = {}
    for name, f, x0, step, tol in _simplex_cases():
        visited = {"new": [], "reference": []}

        def recorded(key):
            def g(x, y):
                value = f(x, y)
                visited[key].append((x.hex(), y.hex(), float(value).hex()))
                return value
            return g

        got = _nelder_mead(recorded("new"), x0, step, tol)
        want = oracles.reference_nelder_mead(recorded("reference"), x0, step, tol)
        assert visited["new"] == visited["reference"], (name, x0)
        assert [float.hex(v) for v in (*got[0], got[1])] == [
            float.hex(v) for v in (*want[0], want[1])
        ], (name, x0)
        walls.setdefault(name, set()).update(
            value for _, _, value in visited["new"] if value in ("nan", "inf")
        )
    # The walled bowl meets both walls, the interior-only bounds their inf.
    assert walls["walls"] == {"nan", "inf"}
    for inequality in inequalities.INTERIOR_IDS:
        assert walls[inequality.value] == {"inf"}, inequality


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


def test_tightness_search_builds_no_list_of_its_starts(scalene, monkeypatch):
    # Stopped at its first start: a list of a million targets would hold 8 MB.
    class FirstStart(Exception):
        pass

    def first_start(*_):
        raise FirstStart

    monkeypatch.setattr(harness, "sample_point", first_start)
    tracemalloc.start()
    try:
        with pytest.raises(FirstStart):
            tightness_search(scalene, InequalityId.SIGNED_BARROW30, starts=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tightness_search_rejects_vertex_ids(unit_right):
    with pytest.raises(DomainError):
        tightness_search(unit_right, InequalityId.VERTEX_A14)
    with pytest.raises(DomainError):
        tightness_search(unit_right, InequalityId.BARROW1, starts=0)
    # As for FuzzConfig's n: 2.5 would reach range() and True would run one start.
    for starts in (2.5, 2.0, True, "3", None):
        with pytest.raises(DomainError):
            tightness_search(unit_right, InequalityId.BARROW1, starts=starts)
    # None would seed from os.urandom, and equal calls would differ.
    for seed in (None, 1.0, True, "1"):
        with pytest.raises(DomainError):
            tightness_search(unit_right, InequalityId.BARROW1, starts=1, seed=seed)
    # A bound's value or name is not its id; it would end in a KeyError.
    for inequality in ("Barrow1", "BARROW1", None):
        with pytest.raises(DomainError):
            tightness_search(unit_right, inequality)


def test_search_builds_one_frame_per_start(scalene, monkeypatch):
    # Each start's sampler builds one frame; the slack kernel evaluates every
    # simplex point of this triangle without one.
    frames = _counting_frames(monkeypatch)
    for inequality in inequalities.BOUNDS:
        frames.clear()
        tightness_search(scalene, inequality, starts=14)
        assert len(frames) == 14, inequality


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
    # As for tightness_search's starts: 4.0 and 2.5 would reach range(), "4"
    # the comparison with 2, and True would pass for a resolution of 1.
    for resolution in (4.0, 2.5, "4", True, None):
        with pytest.raises(DomainError, match=f"resolution must be an int, got {resolution!r}"):
            grid_scan(unit_right, (0.0, 0.0, 1.0, 1.0), resolution)


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


def _sampled_objective_cases():
    """Seeded triangles of every shape, each with its points to compare.

    Those are three points of every stratum, the vertices and a point 1e-14
    of the diameter off vertex A.
    """
    rng = random.Random(17)
    cases = []
    for shape in TRIANGLE_SHAPES:
        for _ in range(10):
            T = sample_triangle(rng, shape)
            points = [sample_point(rng, T, stratum) for stratum in STRATA for _ in range(3)]
            points += [*T.vertices, Point2(T.A.x + 1e-14 * T.diameter, T.A.y)]
            cases.append((T, points))
    return cases


@pytest.mark.parametrize("inequality", list(inequalities.BOUNDS), ids=lambda i: i.value)
def test_search_objective_is_the_report_slack(scalene, inequality):
    # The search and the scan read the point kernel's rows without building
    # a report: each row must hold the report's values bit for bit, with NaN
    # for a side without a term.  Where the report raises, the kernel raises
    # the same error or, off an interior-only bound's domain, returns None,
    # and the search's slack is inf.
    for T, points in [(scalene, OBJECTIVE_POINTS), *_sampled_objective_cases()]:
        row = inequalities.values_function(T, inequality)
        objective = inequalities.slack_function(T, inequality)
        for x, y in points:
            try:
                rep = bound_report(inequality, T, Point2(x, y))
            except (GeometryError, ValueError) as exc:
                try:
                    got = row(x, y)
                except (GeometryError, ValueError) as raised:
                    got = type(raised)
                assert got is type(exc) or (got is None and inequality in inequalities.INTERIOR_IDS)
                assert objective(x, y) == math.inf, (inequality, T, x, y)
                continue
            terms = [math.nan, math.nan, math.nan]
            for term in rep.terms:
                terms["abc".index(term.side)] = term.value
            want = (x, y, rep.region.value, *PointFrame(T, Point2(x, y)).R, *terms,
                    rep.lhs, rep.rhs, rep.slack)
            got = row(x, y)
            assert all(same_bits(g, w) for g, w in zip(got, want, strict=True)), (T, x, y)
            assert same_bits(objective(x, y), rep.slack), (inequality, T, x, y)


def _scan_cases():
    """Grids for the bit-for-bit scan test; together they reach every branch of the scan.

    The scalene golden grid; an exact vertex cell; six cells exactly on the
    hypotenuse of the unit right triangle; a cell 5e-13 of the diameter off
    vertex A of a flat triangle, whose sign pattern is open; 24-squared
    grids of three seeded triangles of every shape over the CLI's default
    box; and two boxes whose squared distances overflow.
    """
    A = Point2(0.5 + 4e-13, 0.5 - 3e-13)
    flat = Triangle(A, Point2(A.x + 1.0, A.y), Point2(A.x + 0.5, A.y + 1e-4))
    cases = [
        (Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 2.0)), (-1.0, -1.0, 5.0, 3.0), 16),
        (Triangle(Point2(0.5, 0.5), Point2(2.0, 0.0), Point2(0.0, 2.0)), (-1.0, -1.0, 1.0, 1.0), 2),
        (Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)), (-1.0, -1.0, 2.0, 2.0), 6),
        (flat, (-1.0, -1.0, 1.0, 1.0), 2),
    ]
    rng = random.Random(23)
    for shape in TRIANGLE_SHAPES:
        for _ in range(3):
            T = sample_triangle(rng, shape)
            cases.append((T, cli._default_bbox(T), 24))
    # At 1e200 the crosses overflow too and snap to zero.  Near 1e154 from a
    # triangle 1e140 wide only the squares do: the cells have open patterns.
    cases.append((cases[0][0], (-1e200, -1e200, 1e200, 1e200), 4))
    wide = Triangle(Point2(0.0, 0.0), Point2(4e140, 0.0), Point2(1e140, 2e140))
    cases.append((wide, (1e154, 2e153, 1.1e154, 3e153), 2))
    return cases


def _report_rows(triangle, bbox, resolution):
    """The ``frame_report(SIGNED_BARROW30)`` row of every cell center, in scan order.

    Each row comes with the frame of its cell center.
    """
    x0, y0, x1, y1 = bbox
    dx, dy = (x1 - x0) / resolution, (y1 - y0) / resolution
    for iy in range(resolution):
        y = y0 + (iy + 0.5) * dy
        for ix in range(resolution):
            x = x0 + (ix + 0.5) * dx
            F = PointFrame(triangle, Point2(x, y))
            rep = frame_report(InequalityId.SIGNED_BARROW30, F, classify_frame(F))
            lp = [math.nan, math.nan, math.nan]
            for term in rep.terms:
                lp["abc".index(term.side)] = term.value
            yield (x, y, rep.region.value, *F.R, *lp, rep.lhs, rep.rhs, rep.slack), F


def _framed(F) -> bool:
    """Whether the scan builds a frame for this cell: it snaps onto a sideline or is a vertex."""
    return 0 in regions.sign_pattern(F) or F.vertex is not None


@pytest.mark.parametrize("triangle, bbox, resolution", _scan_cases())
def test_grid_scan_rows_are_the_report_values(triangle, bbox, resolution, monkeypatch):
    # Row for row the values of frame_report, bit for bit, and the error
    # the first failing cell's frame raises; only the snapped and the
    # vertex cells build a frame.
    try:
        expected = list(_report_rows(triangle, bbox, resolution))
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            grid_scan(triangle, bbox, resolution)
        assert str(info.value) == str(exc)
        return
    frames = _counting_frames(monkeypatch)
    grid = grid_scan(triangle, bbox, resolution)
    assert len(grid.rows) == len(expected) == resolution * resolution
    for row, (want, _) in zip(grid.rows, expected):
        assert all(same_bits(got, w) for got, w in zip(row, want, strict=True)), row
    assert len(frames) == sum(_framed(F) for _, F in expected)


def test_scan_cases_reach_every_fallback_branch():
    # The grids above hold cells on a sideline (six on each of the first and
    # the third grid), on a vertex by their sign pattern, on a vertex under
    # an open sign pattern, and too far away.
    seen = {"sideline": 0, "vertex": 0, "open-vertex": 0, "overflow": 0}
    for triangle, bbox, resolution in _scan_cases():
        try:
            frames = [F for _, F in _report_rows(triangle, bbox, resolution)]
        except DomainError as exc:
            assert "overflow" in str(exc)
            seen["overflow"] += 1
            continue
        for F in frames:
            zeros = regions.sign_pattern(F).count(0)
            if F.vertex is not None:
                seen["vertex" if zeros >= 2 else "open-vertex"] += 1
            elif zeros:
                seen["sideline"] += 1
    assert seen == {"sideline": 12, "vertex": 1, "open-vertex": 1, "overflow": 2}


def test_readme_scan_builds_a_frame_per_snapped_or_vertex_cell(scalene, monkeypatch):
    # The README's scan: every cell off the sidelines and the vertices is
    # evaluated from its crosses, without a frame.
    bbox = cli._default_bbox(scalene)
    framed = sum(_framed(F) for _, F in _report_rows(scalene, bbox, 64))
    frames = _counting_frames(monkeypatch)
    grid_scan(scalene, bbox, 64)
    assert len(frames) == framed == 22


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
    "fuzz": "45ebbe3a5dbed983d3aa290f27d8c4885a4ff6a671794d568ddf4ed5b8dccbab",
}
_SAMPLER_BYTES = {"triangles": _triangle_bytes, "points": _point_bytes, "fuzz": _fuzz_bytes}


@pytest.mark.parametrize("name", list(PINNED_SAMPLER_SHA256))
def test_sampler_streams_are_pinned(name):
    assert hashlib.sha256(_SAMPLER_BYTES[name]()).hexdigest() == PINNED_SAMPLER_SHA256[name]
