import concurrent.futures
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
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
    identity_residuals,
    sample_point,
    sample_triangle,
    stmt_slack,
    tightness_search,
)
from barrow import cli, errors, harness, inequalities, regions
from barrow.bisectors import bisector_length, signed_bisectors
from barrow.errors import GeometryError, OutsideInterior
from barrow.geom import (
    PointFrame,
    barycentric,
    dist,
    signed_distances,
    vertex_distances,
)
from barrow.harness import (
    DEFAULT_HEIGHT_BAND,
    DEFAULT_REGION_MIX,
    SIDELINE_HEIGHT_BAND,
    STRATA,
    TRIANGLE_SHAPES,
    _nelder_mead,
)
from barrow.inequalities import bound_report
from barrow.regions import DEFAULT_EPS, OPEN_PATTERNS, VERTEX_REGIONS, classify_frame
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


@pytest.mark.parametrize("shape,options,message", [
    ("near-degenerate", {"height_band": (0.0, 1e-3)}, r"height_band ends must be positive, got \(0\.0, 0\.001\)"),
    ("near-degenerate", {"height_band": (-1, 1)}, r"height_band ends must be positive, got \(-1, 1\)"),
    ("near-degenerate", {"height_band": (float("nan"), 1)}, r"height_band end must be finite, got nan"),
    ("near-degenerate", {"height_band": (1e-9, "x")},
     r"height_band end must be an int or a float, got 'x'"),
    ("equilateral-perturbed", {"perturbation": float("nan")}, r"perturbation must be finite, got nan"),
    ("equilateral-perturbed", {"perturbation": float("inf")}, r"perturbation must be finite, got inf"),
    ("equilateral-perturbed", {"perturbation": 10**400},
     r"perturbation must be finite, got 1" + "0" * 400),
    ("equilateral-perturbed", {"perturbation": "x"},
     r"perturbation must be an int or a float, got 'x'"),
])
def test_sample_triangle_refuses_bad_parameters(shape, options, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        sample_triangle(random.Random(0), shape, **options)


def test_sample_triangle_checks_only_the_parameters_its_shape_reads():
    # A reversed band draws as before; a shape that does not read a
    # parameter does not check it.
    t = sample_triangle(random.Random(4), "near-degenerate", height_band=(1e-3, 1e-9))
    assert 2.0 * abs(t.area) / t.diameter ** 2 < 2e-3
    for shape in TRIANGLE_SHAPES:
        options = {"perturbation": float("nan")} if shape != "equilateral-perturbed" else {}
        if shape != "near-degenerate":
            options["height_band"] = (0.0, 1e-3)
        t = sample_triangle(random.Random(6), shape, **options)
        assert t.vertices == sample_triangle(random.Random(6), shape).vertices


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
    # An int beyond the float range is not finite either: math.isfinite
    # would raise OverflowError on it.
    with pytest.raises(DomainError, match="tol_factor must be finite"):
        FuzzConfig(n=10, seed=1, tol_factor=10**400)
    with pytest.raises(DomainError, match="stratum 'lambda0' must be finite"):
        FuzzConfig(n=10, seed=1, region_mix={"lambda0": 10**400})


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


def test_fold_counts_a_plain_report_as_its_cell_fold_would(monkeypatch):
    # A scripted sampler feeds the reports no pinned fuzz produces: ties, NaN
    # slacks, violations above the minimum, a minimum after a NaN and -inf.
    # Folding each report through _fold_cell must give the same cells and
    # violations, the earliest index keeping a tied minimum.
    nan, inf = float("nan"), float("inf")
    signed, dergiades = ("SignedBarrow30", "lambda0"), ("Dergiades3", "lambda0")
    script = [
        [(*signed, 0.5), (*dergiades, nan)],
        [(*signed, 0.5), (*dergiades, 0.25)],
        [(*signed, nan), (*dergiades, nan)],
        [(*signed, -1.0)],
        [(*signed, -0.5)],
        [(*signed, nan), (*dergiades, 0.125)],
        [(*signed, -inf), (*dergiades, 0.125)],
        [(*signed, 0.5)],
        [(*signed, -inf)],
    ]
    drawn = []

    def scripted(rng, T, stratum, point):
        M = Point2(float(len(drawn)), 0.0)
        drawn.append((T, M))
        return M, (1.0, script[len(drawn) - 1])

    monkeypatch.setattr(harness, "_sample", scripted)
    config = FuzzConfig(n=len(script), seed=1)
    cells, violations = harness._chunk_aggregate(config, 0, config.n)

    tol = config.tol_factor * 1.0
    ref_cells, ref_violations = {}, []
    for index, ((T, M), slacks) in enumerate(zip(drawn, script)):
        triangle, point = [[T.A.x, T.A.y], [T.B.x, T.B.y], [T.C.x, T.C.y]], [M.x, M.y]
        for inequality, label, slack in slacks:
            violated = slack < -tol
            harness._fold_cell(ref_cells, f"{inequality}/{label}", 1, violated, slack, index,
                               lambda: (triangle, point))
            if violated:
                ref_violations.append({"index": index, "inequality": inequality, "region": label,
                                       "slack": slack, "tol": tol, "triangle": triangle,
                                       "point": point})
    assert cells == ref_cells
    assert violations == ref_violations
    signed_cell, dergiades_cell = cells["SignedBarrow30/lambda0"], cells["Dergiades3/lambda0"]
    assert (signed_cell["count"], signed_cell["violation_count"]) == (9, 4)
    assert (signed_cell["min_slack"], signed_cell["argmin_index"]) == (-inf, 6)
    assert (dergiades_cell["count"], dergiades_cell["violation_count"]) == (5, 0)
    assert (dergiades_cell["min_slack"], dergiades_cell["argmin_index"]) == (0.125, 5)
    assert [v["index"] for v in violations] == [3, 4, 6, 8]


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = FuzzConfig(n=300, seed=13)
    report = fuzz(config, workers=10_000)
    assert len(pools) == 1 and 1 <= pools[0] <= (os.cpu_count() or 1)
    assert fuzz_snapshot(report) == fuzz_snapshot(fuzz(config, workers=1))


def test_fuzz_cuts_chunks_in_integer_arithmetic(monkeypatch):
    # A worker count beyond the float range still cuts whole-block chunks:
    # two blocks make two chunks, so at most two processes start.
    config = FuzzConfig(n=100, seed=1)
    assert fuzz_snapshot(fuzz(config, workers=10**400)) == fuzz_snapshot(fuzz(config, workers=1))
    # So does a sample count beyond it: one worker takes one chunk.
    bounds = []
    monkeypatch.setattr(harness, "_chunk_aggregate",
                        lambda config, lo, hi: bounds.append((lo, hi)) or ({}, []))
    fuzz(FuzzConfig(n=10**400, seed=1))
    assert bounds == [(0, 10**400)]


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    assert fuzz_snapshot(fuzz(config, workers=3)) == sequential


#: What ``ProcessPoolExecutor`` (concurrent.futures, multiprocessing),
#: dataclasses (inspect) and the CLI's file writes (tempfile) load; importing
#: barrow loads none of them.
POOL_MACHINERY = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "tempfile")


def test_import_loads_no_pool_until_a_fuzz_starts_one():
    # A fresh interpreter without site, which would import tempfile itself.
    src = os.path.dirname(os.path.dirname(harness.__file__))
    script = f"""
import sys
sys.path.insert(0, {src!r})
import barrow, barrow.cli, barrow.svgmap
loaded = [name for name in {POOL_MACHINERY!r} if name in sys.modules]
assert not loaded, loaded
config = barrow.FuzzConfig(n=300, seed=13)
assert barrow.fuzz(config, workers=2).to_json_dict() == barrow.fuzz(config).to_json_dict()
"""
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_fuzz_config_is_a_validating_named_tuple():
    config = FuzzConfig(n=10, seed=1)
    # The string the frozen dataclass printed.
    assert repr(config) == (
        "FuzzConfig(n=10, seed=1, tol_factor=1e-09, region_mix={'lambda0': 0.19, 'mu1': 0.1, "
        "'mu2': 0.1, 'mu3': 0.1, 'mu4': 0.1, 'mu5': 0.1, 'mu6': 0.1, 'sideline': 0.12, "
        "'near-vertex': 0.09}, triangle_shape='random')"
    )
    assert config == (10, 1, 1e-9, DEFAULT_REGION_MIX, "random")
    # Every way to build one checks the fields and copies the mix.
    unchecked = tuple.__new__(FuzzConfig, (0, *config[1:]))
    for build in (lambda: config._replace(n=0), lambda: FuzzConfig._make(unchecked),
                  lambda: pickle.loads(pickle.dumps(unchecked))):
        with pytest.raises(DomainError, match="sample count must be >= 1, got 0"):
            build()
    for copy in (config._replace(seed=2), FuzzConfig._make(config),
                 pickle.loads(pickle.dumps(config)), FuzzConfig(*config)):
        assert copy.region_mix == config.region_mix and copy.region_mix is not config.region_mix
    assert config.region_mix is not DEFAULT_REGION_MIX
    # It holds a dict, so it stays unhashable, and it stays read-only.
    with pytest.raises(TypeError):
        hash(config)
    with pytest.raises(AttributeError):
        config.n = 5
    with pytest.raises(AttributeError):
        config.workers = 2


def test_oversized_ints_reach_their_domain_error(scalene):
    # repr() refuses an int of more than 4300 digits; the message names its size.
    huge = 10**5000
    for build in (lambda: FuzzConfig(n=10, seed=1, tol_factor=huge),
                  lambda: FuzzConfig(n=10, seed=1, region_mix={"lambda0": huge}),
                  lambda: FuzzConfig(n=-huge, seed=1),
                  lambda: grid_scan(scalene, (0, 0, huge, 1), 2),
                  lambda: grid_scan(scalene, [huge, 0, 0, 1], 2),
                  lambda: grid_scan(scalene, (0, 0, 1, 1, huge), 2),
                  lambda: FuzzConfig(n=10, seed=1, triangle_shape=huge),
                  lambda: FuzzConfig(n=10, seed=1, region_mix={huge: 1.0}),
                  lambda: grid_scan(scalene, (0, 0, 1, 1), -huge),
                  lambda: tightness_search(scalene, InequalityId.BARROW1, starts=-huge),
                  lambda: tightness_search(scalene, huge),
                  lambda: bound_report(huge, scalene, Point2(1.0, 0.5)),
                  lambda: stmt_slack("S1", huge, 1.0, 1.0, 0.1, 0.1),
                  lambda: identity_residuals(huge, 1.0, 1.0, 0.1, 0.2)):
        with pytest.raises(DomainError, match="<int of 16610 bits>"):
            build()
    # A point or a statement kind that is no number keeps its ValueError.
    for build in (lambda: Point2(huge, 0.0), lambda: Point2(0.0, -huge),
                  lambda: stmt_slack(huge, 1.0, 1.0, 1.0, 0.1, 0.1)):
        with pytest.raises(ValueError, match="<int of 16610 bits>"):
            build()
    with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \(1000"):
        Point2(10**400, 0.0)
    # Unknown strata of types that do not compare are listed in the order of their reprs.
    with pytest.raises(DomainError, match=r"^unknown region-mix strata \['x', 1\]$"):
        FuzzConfig(n=10, seed=1, region_mix={"x": 0.5, 1: 0.5})
    # An ordinary value keeps its message.
    with pytest.raises(DomainError, match=r"^empty bounding box \[1, 0, 0, 1\]$"):
        grid_scan(scalene, [1, 0, 0, 1], 2)
    with pytest.raises(DomainError, match=r"^sample count must be >= 1, got -3$"):
        FuzzConfig(n=-3, seed=1)


def _counting_frames(monkeypatch) -> list:
    """The points of the frames built from here on, one per ``PointFrame.__init__``."""
    frames = []
    init = PointFrame.__init__
    monkeypatch.setattr(PointFrame, "__init__", lambda F, T, M: frames.append(M) or init(F, T, M))
    return frames


def test_fuzz_builds_no_frame(monkeypatch):
    # The samplers accept a draw by the kernel's label and the fuzz reads the
    # accepted point's bounds from the same kernel: no frame at all, against
    # at most 1.008 frames per sample when the samplers built them.
    frames = _counting_frames(monkeypatch)
    for shape in TRIANGLE_SHAPES:
        fuzz(FuzzConfig(n=1000, seed=3, triangle_shape=shape))
    assert frames == []


#: The calls of ``fuzz(FuzzConfig(n=1000, seed=3, triangle_shape=shape))``:
#: three bisectors a sample; ``classify_pattern`` for the snapped samples
#: only; three ``hypot`` a sample for its point and three for its triangle's
#: sides (four for a near-degenerate one), plus the sides of rejected
#: triangles and the distances of rejected region draws.
_KERNEL_CALLS = {
    "random": {"bisector": 3000, "classify": 118, "hypot": 6009},
    "near-degenerate": {"bisector": 3000, "classify": 114, "hypot": 7006},
    "equilateral-perturbed": {"bisector": 3000, "classify": 133, "hypot": 6000},
}


def test_fuzz_does_each_kernel_step_once_per_sample(monkeypatch):
    # Each sample computes its three bisectors once, however many of its
    # bounds read them, and its three vertex distances once; only a sign
    # pattern that snapped onto a sideline is classified by classify_pattern.
    calls = {"bisector": 0, "classify": 0, "hypot": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(inequalities, "_bisector", counted("bisector", inequalities._bisector))
    monkeypatch.setattr(inequalities, "classify_pattern",
                        counted("classify", inequalities.classify_pattern))
    # The kernel reads hypot from math when it binds a triangle, and so do
    # the triangle's own three sides.
    monkeypatch.setattr(math, "hypot", counted("hypot", math.hypot))
    for shape in TRIANGLE_SHAPES:
        calls.update(bisector=0, classify=0, hypot=0)
        fuzz(FuzzConfig(n=1000, seed=3, triangle_shape=shape))
        assert calls == _KERNEL_CALLS[shape]


def test_fuzz_binds_the_kernel_once_per_sample(monkeypatch, unit_right):
    # One kernel bind a sample, a vertex sample too: the fuzz reads every
    # bound, Dergiades3 included, from the one pass slacks_function binds.
    binds = []
    kernel = inequalities._kernel

    def counted(*args):
        binds.append(args)
        return kernel(*args)

    monkeypatch.setattr(inequalities, "_kernel", counted)
    config = FuzzConfig(n=1000, seed=5)
    harness._chunk_aggregate(config, 0, config.n)
    assert len(binds) == config.n
    thin = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-3))
    for T, M in [*((unit_right, M) for M in unit_right.vertices), (thin, Point2(0.5, 1e-3 - 5e-13))]:
        binds.clear()
        _, slacks = inequalities.slacks_function(T)(*M)
        assert slacks[0][0].startswith("Vertex") and slacks[1][0] == "Dergiades3"
        assert len(binds) == 1, (T, M)


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


def test_search_builds_no_frame(scalene, monkeypatch):
    # The starts are drawn by the kernel's label and every simplex point is
    # evaluated by the kernel: no frame, against one per start when the
    # samplers built them.
    frames = _counting_frames(monkeypatch)
    for inequality in inequalities.BOUNDS:
        tightness_search(scalene, inequality, starts=14)
    assert frames == []


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
    # True would pass for 1 and reach ScanGrid.bbox, "1" would end in a bare
    # TypeError and a fifth coordinate in an unpacking ValueError.
    for bbox in ((0, 0, True, 1), (0.0, 0.0, "1", 1.0), (0.0, 0.0, 1.0, 1.0, 2.0),
                 (0.0, 0.0, 1.0), (0.0, 0.0, 1.0, None), "0,0,1,1", None):
        with pytest.raises(DomainError, match="bbox must be four int or float numbers") as info:
            grid_scan(unit_right, bbox, 4)
        assert repr(bbox) in str(info.value)
    assert grid_scan(unit_right, (0, 0, 1, 1), 2).bbox == (0, 0, 1, 1)


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
    # An int box coordinate beyond the float range overflows in the int to
    # float conversion instead of reading inf: in the cell size, or in the
    # cell centers of a narrow box.
    with pytest.raises(DomainError, match="too wide"):
        grid_scan(scalene, (0, 0, 10**400, 1), 2)
    with pytest.raises(DomainError, match="too wide"):
        grid_scan(scalene, (10**400, 0, 10**400 + 1, 1), 2)


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


def _pair(y, z):
    """The weight sqrt(z/y) + sqrt(y/z) of two vertex distances."""
    return math.sqrt(z / y) + math.sqrt(y / z)


def _pair_weights(T, R):
    R_A, R_B, R_C = R
    return _pair(R_B, R_C), _pair(R_C, R_A), _pair(R_A, R_B)


#: Each bound's documented formula: whether it is interior-only, its terms
#: at M and its weights, from the public point functions.
FORMULAS = {
    InequalityId.BARROW1: (True, signed_bisectors, lambda T, R: (2.0, 2.0, 2.0)),
    InequalityId.ERDOS_MORDELL2: (True, signed_distances, lambda T, R: (2.0, 2.0, 2.0)),
    InequalityId.DERGIADES3: (False, signed_distances, lambda T, R: T.ratio_weights),
    InequalityId.LU_WEIGHTED13: (True, signed_bisectors, _pair_weights),
    InequalityId.SIGNED_BARROW30: (False, signed_bisectors, _pair_weights),
}


def formula_row(inequality, T, x, y, eps=DEFAULT_EPS):
    """The ``values_function`` row of ``inequality`` at (x, y), from its documented formula.

    The label is ``classify_frame(PointFrame(T, M), eps)``.  An
    interior-only bound is None off ``lambda0`` and raises
    VertexCoincidence on a vertex.  The signed bound gives a point with a
    vertex's label, or on a vertex, that vertex's bound and label: with side
    k from V_i to V_j, R_i + R_j against ``_pair(R_i, R_j)`` times
    ``bisector_length(M, V_i, V_j)``; on another vertex it raises
    VertexCoincidence.  Every other row sums the weights times the terms
    from 0.0 in side order.  A non-finite coordinate raises ValueError and
    distances whose squares overflow DomainError, on every bound.
    """
    interior_only, terms, weights = FORMULAS[inequality]
    F = PointFrame(T, Point2(x, y))
    region = classify_frame(F, eps)
    if interior_only and region is not Region.LAMBDA0:
        return None
    if interior_only:
        F.check_not_vertex()
    M, R = F.M, vertex_distances(T, F.M)
    k = VERTEX_REGIONS.index(region) if region in VERTEX_REGIONS else F.vertex
    if inequality is InequalityId.SIGNED_BARROW30 and k is not None:
        if F.vertex != k:
            F.check_not_vertex()
        i, j = (k + 1) % 3, (k + 2) % 3
        t = [math.nan] * 3
        t[k] = bisector_length(M, T.vertices[i], T.vertices[j])
        lhs, rhs = R[i] + R[j], 0.0 + _pair(R[i], R[j]) * t[k]
        return (x, y, VERTEX_REGIONS[k].value, *R, *t, lhs, rhs, lhs - rhs)
    (t_a, t_b, t_c), (w_a, w_b, w_c) = terms(T, M), weights(T, R)
    lhs, rhs = R.R_A + R.R_B + R.R_C, 0.0 + w_a * t_a + w_b * t_b + w_c * t_c
    return (x, y, region.value, *R, t_a, t_b, t_c, lhs, rhs, lhs - rhs)


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the GeometryError or ValueError it raises."""
    try:
        return f(*args)
    except (GeometryError, ValueError) as exc:
        return exc


def same_row(got, want) -> bool:
    """Rows equal bit for bit, errors of one type and text, or both None."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    if isinstance(got, tuple) and isinstance(want, tuple):
        return all(same_bits(g, w) for g, w in zip(got, want, strict=True))
    return got is want


def assert_rows_are_the_formula(inequality, T, points):
    """Each kernel row is the formula's row, its error or its None.

    The search's slack is that row's slack, whether its slack-only closure
    evaluates the point or hands it to the row kernel, and inf where the
    row is None or an error.
    """
    row = inequalities.values_function(T, inequality)
    objective = inequalities.slack_function(T, inequality)
    for x, y in points:
        want = _outcome(formula_row, inequality, T, x, y)
        assert same_row(_outcome(row, x, y), want), (inequality, T, x, y, want)
        slack = want[11] if isinstance(want, tuple) else math.inf
        assert same_bits(objective(x, y), slack), (inequality, T, x, y)


#: The bound a report or the fuzz names for the signed bound's row, by its label.
_SIGNED_NAMES = {"lambda0": "LuWeighted13", "vertexA": "VertexA14", "vertexB": "VertexB15",
                 "vertexC": "VertexC16"}


def _hex_slacks(triples):
    return [(inequality, region, float.hex(slack)) for inequality, region, slack in triples]


def test_fuzz_slacks_are_the_formula_rows(unit_right):
    # The fuzz's one kernel pass gives the slacks and labels of the formula
    # rows bit for bit: the signed bound's, named for the bound that holds
    # there, Dergiades3's, and inside Barrow1's and ErdosMordell2's; and the
    # sum of vertex_distances.  On every stratum of every shape, at the three
    # vertices, and on a vertex of a thin triangle whose sign pattern is open.
    cases = []
    for shape in TRIANGLE_SHAPES:
        for stratum in STRATA:
            band = SIDELINE_HEIGHT_BAND if stratum == "sideline" else DEFAULT_HEIGHT_BAND
            for seed in range(30):
                rng = random.Random(f"{shape}/{stratum}/{seed}")
                T = sample_triangle(rng, shape, height_band=band)
                cases.append((T, *harness._sample(rng, T, stratum, inequalities.slacks_function(T))))
    thin = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-3))
    for T, M in [*((unit_right, M) for M in unit_right.vertices), (thin, Point2(0.5, 1e-3 - 5e-13))]:
        cases.append((T, M, inequalities.slacks_function(T)(*M)))
    F = PointFrame(thin, cases[-1][1])
    assert F.vertex == 2 and classify_frame(F) is Region.LAMBDA0
    seen = set()
    for T, M, (R_sum, slacks) in cases:
        signed, dergiades = (formula_row(i, T, *M) for i in (InequalityId.SIGNED_BARROW30,
                                                              InequalityId.DERGIADES3))
        label = signed[2]
        want = [(_SIGNED_NAMES.get(label, "SignedBarrow30"), label, signed[11]),
                ("Dergiades3", dergiades[2], dergiades[11])]
        if label == "lambda0":
            want += [(i.value, label, formula_row(i, T, *M)[11])
                     for i in (InequalityId.BARROW1, InequalityId.ERDOS_MORDELL2)]
        assert _hex_slacks(slacks) == _hex_slacks(want), (T, M)
        R_A, R_B, R_C = vertex_distances(T, M)
        assert same_bits(R_sum, R_A + R_B + R_C)
        seen.update((inequality, region) for inequality, region, _ in want)
    assert {label for label, _ in seen} == {
        "SignedBarrow30", "LuWeighted13", "Dergiades3", "Barrow1", "ErdosMordell2",
        "VertexA14", "VertexB15", "VertexC16",
    }
    assert {region for _, region in seen} == {region.value for region in Region}


@pytest.mark.parametrize("inequality", list(inequalities.BOUNDS), ids=lambda i: i.value)
def test_search_objective_is_the_report_slack(scalene, inequality):
    # The search and the scan read the point kernel's rows without building
    # a report; the bound's formula over the public point functions is the reference.
    for T, points in [(scalene, OBJECTIVE_POINTS), *_sampled_objective_cases()]:
        assert_rows_are_the_formula(inequality, T, points)


def _handoff_cases():
    """The underflow points, and an interior point of a triangle 1e-160 wide.

    There the product 2 R_B R_C of the half-angle bisector form is subnormal
    and ``_bisector`` raises the underflow DomainError: for the bounds with
    bisector terms the formula raises it and the search's slack is inf; the
    two distance bounds read a finite slack.
    """
    tiny = Triangle(Point2(0.0, 0.0), Point2(1e-160, 0.0), Point2(0.0, 1e-160))
    return [*_underflow_cases(), (tiny, [(3e-161, 3e-161)])]


@pytest.mark.parametrize("inequality", list(inequalities.BOUNDS), ids=lambda i: i.value)
def test_search_objective_hands_rare_points_to_the_row_kernel(inequality):
    # A ratio that underflowed to zero snaps, so its point goes to the row
    # kernel; an underflow DomainError of the closure's own bisectors reads as inf.
    for T, points in _handoff_cases():
        assert_rows_are_the_formula(inequality, T, points)


@pytest.mark.parametrize("inequality", sorted(inequalities.INTERIOR_IDS, key=lambda i: i.value),
                         ids=lambda i: i.value)
def test_search_objective_is_inf_off_the_interior_at_once(scalene, monkeypatch, inequality):
    # An interior-only bound reads inf in a strip or a wedge from the three
    # crosses alone: no distance and no bisector is computed there.
    outside = OBJECTIVE_POINTS[1:7]  # the six strips and wedges
    assert {classify_frame(PointFrame(scalene, Point2(*M))) for M in outside} == {
        region for region in OPEN_PATTERNS if region is not Region.LAMBDA0}
    calls = {"hypot": 0, "bisector": 0}
    hypot, bisector = math.hypot, inequalities._bisector

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    # The closure binds hypot when the triangle is bound, so patch first.
    monkeypatch.setattr(math, "hypot", counted("hypot", hypot))
    monkeypatch.setattr(inequalities, "_bisector", counted("bisector", bisector))
    objective = inequalities.slack_function(scalene, inequality)
    assert [objective(x, y) for x, y in outside] == [math.inf] * 6
    assert calls == {"hypot": 0, "bisector": 0}


def _counting_row_calls(monkeypatch) -> dict:
    """Calls of the search's objectives, and of the row kernel they hand points to, from here on."""
    calls = {"objective": 0, "row": 0}
    kernel, slack_function = inequalities._kernel, inequalities.slack_function

    def counted_kernel(*args):
        row = kernel(*args)

        def counted(x, y):
            calls["row"] += 1
            return row(x, y)
        return counted

    def counted_slack_function(T, inequality):
        # Only the objective's own kernel is counted, not the samplers'.
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "_kernel", counted_kernel)
            objective = slack_function(T, inequality)

        def counted(x, y):
            calls["objective"] += 1
            return objective(x, y)
        return counted

    monkeypatch.setattr(harness, "slack_function", counted_slack_function)
    return calls


def _handed_off(T, inequality, x, y) -> bool:
    """Whether the search's objective hands a finite (x, y) to the row kernel.

    A whole-plane bound hands over a point that snaps onto a sideline or
    lies on a vertex; an interior-only bound reads inf off its open
    interior and hands over an interior point on a vertex.
    """
    F = PointFrame(T, Point2(x, y))
    pattern = regions.sign_pattern(F)
    if inequality in inequalities.INTERIOR_IDS:
        return pattern == (1, 1, 1) and F.vertex is not None
    return 0 in pattern or F.vertex is not None


def test_search_takes_the_common_path(scalene, monkeypatch):
    # Every point the searches visit is evaluated by the slack-only closure.
    calls = _counting_row_calls(monkeypatch)
    for inequality in inequalities.BOUNDS:
        calls.update(objective=0, row=0)
        tightness_search(scalene, inequality, starts=14)
        assert calls["objective"] > 2000 and calls["row"] == 0, (inequality, calls)
    # The rare points of the sampled cases do reach the row kernel, once
    # each: for the whole-plane bounds every vertex and every sideline
    # point that snaps (two of the near-degenerate ones do not).
    side, vertices = 3 * STRATA.index("sideline"), 3 * len(STRATA)
    rare = {*range(side, side + 3), *range(vertices, vertices + 3)}
    reached = dict.fromkeys(inequalities.BOUNDS, 0)
    for T, points in _sampled_objective_cases():
        for inequality in inequalities.BOUNDS:
            objective = harness.slack_function(T, inequality)
            for k, (x, y) in enumerate(points):
                calls["row"] = 0
                objective(x, y)
                assert calls["row"] == _handed_off(T, inequality, x, y), (inequality, T, x, y)
                if k in rare:
                    reached[inequality] += calls["row"]
    whole_plane = {inequality: 88 + 90 for inequality in inequalities.BOUNDS
                   if inequality not in inequalities.INTERIOR_IDS}
    assert reached == dict.fromkeys(inequalities.INTERIOR_IDS, 0) | whole_plane


def _underflow_cases():
    """Points whose barycentric ratio underflows to zero while its cross does not.

    On a triangle 1e10 wide, 5e-324 off side AB the cross is about 5e-314 and
    its ratio to the area 5e-334: it keeps the sign of the cross, so the
    point is inside at eps 0 and snaps onto the side at eps 1e-12.
    """
    T = Triangle(Point2(0.0, 0.0), Point2(1e10, 0.0), Point2(0.0, 1e10))
    return [(T, [(5e9, 5e-324), (5e9, -5e-324), (5e9, 0.0), (-5e-324, 5e9), (5e9, 5e9)])]


@pytest.mark.parametrize("eps, tol_factor", [
    (1e-12, 1e-9), (0.4, 1e-9), (1e-3, 0.5), (0.0, 1e-9), (-0.5, 1e-9), (1.5, 1e-9),
])
def test_bound_report_is_the_reference_report(scalene, eps, tol_factor):
    # Every bound at every finite objective point, classified at a narrow
    # and two wide snap thresholds, at eps 0 and below, where only the sign
    # a ratio keeps decides, and at eps 1.5, where every point near the
    # triangle snaps to vertex A and one on vertex B or C raises
    # VertexCoincidence: the report of the formula row, or the same error
    # with the same text.  Where the row is None the report raises
    # OutsideInterior naming the region of Dergiades3's row, or that row's error.
    cases = [(scalene, OBJECTIVE_POINTS), *_underflow_cases()]
    if eps > 0.0:
        cases += _sampled_objective_cases()
    for T, points in cases:
        for (x, y), inequality in itertools.product(points, FORMULAS):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            M = Point2(x, y)
            want = _outcome(formula_row, inequality, T, x, y, eps)
            report = _outcome(bound_report, inequality, T, M, eps, tol_factor)
            if want is None:
                want = _outcome(formula_row, InequalityId.DERGIADES3, T, x, y, eps)
                if isinstance(want, tuple):
                    want = OutsideInterior(f"point {M} classifies as {want[2]}, not the interior")
            if isinstance(want, Exception):
                assert same_row(report, want), (inequality, T, x, y, report, want)
                continue
            _assert_report_is_the_row(report, inequality, want, tol_factor)


def _assert_report_is_the_row(report, inequality, row, tol_factor):
    """The report holds the row's values, with one term per side the row has a term on."""
    label, R, t, (lhs, rhs, slack) = row[2], row[3:6], row[6:9], row[9:]
    name = inequality.value
    if inequality is InequalityId.SIGNED_BARROW30:
        name = _SIGNED_NAMES.get(label, name)
    sides = [k for k in range(3) if not math.isnan(t[k])]
    assert (report.inequality.value, report.region.value) == (name, label)
    assert [term.side for term in report.terms] == ["abc"[k] for k in sides]
    total = 0.0
    for term, k in zip(report.terms, sides):
        assert same_bits(term.value, t[k]) and same_bits(term.contribution, term.weight * t[k])
        total += term.contribution
    got = (report.lhs, report.rhs, report.slack, total)
    assert all(map(same_bits, got, (lhs, rhs, slack, rhs))), (report, row)
    assert report.tight is (abs(slack) <= tol_factor * (R[0] + R[1] + R[2]))


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


def _cell_centers(bbox, resolution):
    """The cell centers of a scan, in scan order."""
    x0, y0, x1, y1 = bbox
    dx, dy = (x1 - x0) / resolution, (y1 - y0) / resolution
    return [(x0 + (ix + 0.5) * dx, y0 + (iy + 0.5) * dy)
            for iy in range(resolution) for ix in range(resolution)]


def _snapped(T, x, y) -> bool:
    """Whether the cell center snaps onto a sideline or lies on a vertex."""
    F = PointFrame(T, Point2(x, y))
    return 0 in regions.sign_pattern(F) or F.vertex is not None


@pytest.mark.parametrize("triangle, bbox, resolution", _scan_cases())
def test_grid_scan_rows_are_the_report_values(triangle, bbox, resolution, monkeypatch):
    # Row for row the signed bound's formula rows, bit for bit, and the
    # error the first failing cell raises; no cell builds a frame.  Every
    # bound's kernel rows on the same cells are the formula's too.
    cells = _cell_centers(bbox, resolution)
    for inequality in FORMULAS:
        assert_rows_are_the_formula(inequality, triangle, cells)
    try:
        expected = [formula_row(InequalityId.SIGNED_BARROW30, triangle, x, y) for x, y in cells]
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            grid_scan(triangle, bbox, resolution)
        assert str(info.value) == str(exc)
        return
    frames = _counting_frames(monkeypatch)
    grid = grid_scan(triangle, bbox, resolution)
    assert frames == []
    assert len(grid.rows) == len(expected) == resolution * resolution
    for row, want in zip(grid.rows, expected):
        assert all(same_bits(got, w) for got, w in zip(row, want, strict=True)), row


def test_scan_cases_reach_every_fallback_branch():
    # The grids above hold cells on a sideline (six on each of the first and
    # the third grid), on a vertex by their sign pattern, on a vertex under
    # an open sign pattern, and too far away.
    seen = {"sideline": 0, "vertex": 0, "open-vertex": 0, "overflow": 0}
    for triangle, bbox, resolution in _scan_cases():
        try:
            frames = [PointFrame(triangle, Point2(x, y)) for x, y in _cell_centers(bbox, resolution)]
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


def test_readme_scan_builds_no_frame(scalene, monkeypatch):
    # The README's scan: its 22 cells on a sideline take the kernel's snapped
    # branch, and no cell builds a frame (22 did, one per snapped cell).
    bbox = cli._default_bbox(scalene)
    assert sum(_snapped(scalene, x, y) for x, y in _cell_centers(bbox, 64)) == 22
    frames = _counting_frames(monkeypatch)
    grid_scan(scalene, bbox, 64)
    assert frames == []


def test_jobs_build_no_reports(monkeypatch, scalene):
    # The jobs read values, not records: no report and no discarded
    # OutsideInterior, while the public bound_report still builds one report.
    calls = {"report": 0, "OutsideInterior": 0}
    report_new = inequalities.InequalityReport.__new__
    outside_init = errors.OutsideInterior.__init__

    def counted_report(cls, *args):
        calls["report"] += 1
        return report_new(cls, *args)

    def counted_outside(self, *args):
        calls["OutsideInterior"] += 1
        outside_init(self, *args)

    monkeypatch.setattr(inequalities.InequalityReport, "__new__", counted_report)
    monkeypatch.setattr(errors.OutsideInterior, "__init__", counted_outside)

    for inequality in inequalities.BOUNDS:
        tightness_search(scalene, inequality, starts=3, seed=1)
    grid_scan(scalene, (-1.0, -1.0, 5.0, 3.0), 16)
    fuzz(FuzzConfig(n=300, seed=5))
    assert calls == {"report": 0, "OutsideInterior": 0}

    bound_report(InequalityId.BARROW1, scalene, Point2(1.3, 0.7))
    assert calls == {"report": 1, "OutsideInterior": 0}
    with pytest.raises(errors.OutsideInterior):
        bound_report(InequalityId.BARROW1, scalene, Point2(-0.5, -0.5))
    assert calls == {"report": 1, "OutsideInterior": 1}


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
