"""Workload inputs, the timed jobs and their output checks.

Everything a workload feeds the program is a pure function of the workload
seed.  The jobs call only barrow's public API, the way a user of the library
or the CLI runs it.  This module is also imported by the set-up probe and by
the spawned worker processes, so importing it starts nothing.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time

from barrow import FuzzConfig, InequalityId, Point2, Triangle, fuzz, grid_scan, tightness_search
from barrow.cli import CSV_HEADER, write_csv
from barrow.harness import DEFAULT_REGION_MIX, STRATA, TRIANGLE_SHAPES, sample_triangle
from barrow.inequalities import DEFAULT_TOL_FACTOR
from barrow.svgmap import REGION_COLORS, render_region_map

WORKLOADS = ("fuzz-mixed", "scan-emit", "tighten-multi")

#: One-worker fuzz calls and their samples; one call is one latency sample.
FUZZ_CALLS = 100
FUZZ_CALL_N = 100
#: Two-worker fuzz calls, one per shape, large enough to amortize pool start.
FUZZ_W2_CALLS = 3
FUZZ_W2_N = 6000
#: Samples of the per-run config checked for worker-count-independent JSON.
FUZZ_CHECK_N = 2400

#: Seed-drawn scan triangles, at the resolution ``barrow scan`` defaults to.
SCAN_TRIANGLES = 12
SCAN_RESOLUTION = 64

#: The five bounds that have a two-dimensional domain to search.
SEARCHABLE = (
    InequalityId.BARROW1,
    InequalityId.ERDOS_MORDELL2,
    InequalityId.DERGIADES3,
    InequalityId.LU_WEIGHTED13,
    InequalityId.SIGNED_BARROW30,
)
TIGHTEN_SHAPES = ("random", "equilateral-perturbed")
#: Searches per run, each on its own triangle: with 100, p90 has ten beyond it.
TIGHTEN_SEARCHES = 100

ALL_REGION_LABELS = frozenset({"lambda0", "mu1", "mu2", "mu3", "mu4", "mu5", "mu6"})


def call_seed(seed: int, label: str, k: int) -> int:
    """Seed of fuzz call ``k``, with its low 20 bits clear.

    Fuzz sample ``i`` draws from ``random.Random(call_seed ^ i)``.  Clearing
    the low bits keeps the streams of one call (``i < 2**20``) inside its own
    block, and hashing ``(seed, label, k)`` gives each call, phase and
    workload seed a different block, so no two calls share a sample.  String
    seeds are hashed with SHA-512, independently of ``PYTHONHASHSEED``.
    """
    return random.Random(f"{seed}/{label}/{k}").getrandbits(40) << 20


def coords(T: Triangle) -> tuple[float, ...]:
    return (T.A.x, T.A.y, T.B.x, T.B.y, T.C.x, T.C.y)


def triangle(c) -> Triangle:
    return Triangle(Point2(c[0], c[1]), Point2(c[2], c[3]), Point2(c[4], c[5]))


def default_bbox(T: Triangle) -> tuple[float, float, float, float]:
    """The scan window ``barrow scan`` uses without ``--bbox``."""
    pad = 0.25 * T.diameter
    xs = (T.A.x, T.B.x, T.C.x)
    ys = (T.A.y, T.B.y, T.C.y)
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


# --------------------------------------------------------------------- inputs


def fuzz_configs(seed: int, label: str, count: int, n: int) -> list[FuzzConfig]:
    """``count`` configs with the default region mix, cycling the three shapes."""
    return [
        FuzzConfig(n=n, seed=call_seed(seed, label, k), triangle_shape=TRIANGLE_SHAPES[k % 3])
        for k in range(count)
    ]


def _is_scalene(T: Triangle) -> bool:
    a, b, c = sorted((T.a, T.b, T.c))
    return b - a > 0.05 * c and c - b > 0.05 * c and abs(T.area) >= 0.05 * T.diameter ** 2


def scan_triangles(seed: int, count: int = SCAN_TRIANGLES) -> list[tuple[float, ...]]:
    rng = random.Random(f"{seed}/scan")
    out = []
    while len(out) < count:
        T = sample_triangle(rng, "random")
        if _is_scalene(T):
            out.append(coords(T))
    return out


def tighten_specs(seed: int, count: int = TIGHTEN_SEARCHES) -> list[tuple]:
    """Search specs ``(coords, inequality value, search seed)``.

    Every search gets its own triangle, and each (shape, bound) pair gets the
    same number of searches, so the run's mix of search costs varies little
    from seed to seed.
    """
    rng = random.Random(f"{seed}/tighten")
    pairs = [(shape, ineq) for shape in TIGHTEN_SHAPES for ineq in SEARCHABLE]
    specs = []
    for k in range(count):
        shape, ineq = pairs[k % len(pairs)]
        specs.append((coords(sample_triangle(rng, shape)), ineq.value, rng.getrandbits(32)))
    rng.shuffle(specs)
    return specs


def build_inputs(workload: str, seed: int) -> dict:
    """Everything the timed phases of ``workload`` feed the program."""
    if workload == "fuzz-mixed":
        return {
            "w1": fuzz_configs(seed, "w1", FUZZ_CALLS, FUZZ_CALL_N),
            "w2": fuzz_configs(seed, "w2", FUZZ_W2_CALLS, FUZZ_W2_N),
            "check": fuzz_configs(seed, "check", 3, FUZZ_CHECK_N)[seed % 3],
        }
    if workload == "scan-emit":
        tris = scan_triangles(seed)
        return {"jobs": [(c, default_bbox(triangle(c)), SCAN_RESOLUTION) for c in tris]}
    if workload == "tighten-multi":
        return {"specs": tighten_specs(seed)}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------- jobs


def report_json(report) -> bytes:
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")).encode()


def fuzz_job(config: FuzzConfig, workers: int) -> dict:
    """One timed fuzz call; a violating sample counts as failed."""
    t0 = time.perf_counter()
    try:
        report = fuzz(config, workers=workers)
    except Exception as exc:  # an unexpected exception fails every sample of the call
        return {"seconds": time.perf_counter() - t0, "items": config.n, "failed": config.n,
                "error": repr(exc), "report": None}
    elapsed = time.perf_counter() - t0
    failed = len({v["index"] for v in report.violations})
    return {"seconds": elapsed, "items": config.n, "failed": failed, "report": report}


def fuzz_coverage_problems(keys: set) -> list[str]:
    """The stratum coverage the acceptance gate asks of a default-mix fuzz.

    ``keys`` are the ``inequality/region`` cell keys of the run's reports.
    """
    problems = []
    if not all(DEFAULT_REGION_MIX.get(name, 0.0) > 0.0 for name in STRATA):
        problems.append("default mix leaves a stratum out")
    regions = {key.split("/")[1] for key in keys}
    dergiades = {key.split("/")[1] for key in keys if key.startswith("Dergiades3/")}
    if not regions >= ALL_REGION_LABELS:
        problems.append(f"regions not covered: {sorted(ALL_REGION_LABELS - regions)}")
    if dergiades != ALL_REGION_LABELS:
        problems.append(f"Dergiades3 covers {sorted(dergiades)}")
    if "LuWeighted13/lambda0" not in keys:
        problems.append("LuWeighted13/lambda0 not covered")
    missing = {f"SignedBarrow30/mu{k}" for k in range(1, 7)} - keys
    if missing:
        problems.append(f"not covered: {sorted(missing)}")
    return problems


def scan_job(c, bbox, resolution: int) -> dict:
    """grid_scan, then CSV to a memory stream and the heatmap SVG, checked.

    Runs in the benchmark process and in spawned workers, so it takes and
    returns plain values.
    """
    T = triangle(c)
    t0 = time.perf_counter()
    failed = resolution * resolution
    try:
        grid = grid_scan(T, bbox, resolution)
        t1 = time.perf_counter()
        buf = io.StringIO()
        write_csv(grid, buf)
        csv_text = buf.getvalue()
        t2 = time.perf_counter()
        svg = render_region_map(grid, T, heatmap=True)
        t3 = time.perf_counter()
    except Exception as exc:  # counted as failed cells, reported by the caller
        return {"items": failed, "failed": failed, "error": repr(exc),
                "seconds": time.perf_counter() - t0}
    failed = 0
    finite = 0
    for row in grid.rows:
        scale = row.R_A + row.R_B + row.R_C
        ok = math.isfinite(row.slack) and row.slack >= -DEFAULT_TOL_FACTOR * scale
        ok = ok and row.region in REGION_COLORS
        failed += not ok
        finite += row.slack == row.slack
    problems = []
    if len(grid.rows) != resolution * resolution:
        problems.append("row count")
    lines = csv_text.count("\n")
    if not csv_text.startswith(CSV_HEADER + "\n") or lines != resolution * resolution + 1:
        problems.append("CSV shape")
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        problems.append("SVG frame")
    if svg.count("<rect ") != resolution * resolution + finite:
        problems.append("SVG cell count")
    if problems:
        failed = resolution * resolution
    return {
        "items": resolution * resolution,
        "failed": failed,
        "problems": problems,
        "seconds": t3 - t0,
        "grid_s": t1 - t0,
        "csv_s": t2 - t1,
        "svg_s": t3 - t2,
        "stages": {"grid": t1 - t0, "csv": t2 - t1, "svg": t3 - t2},
        "csv_bytes": len(csv_text),
        "svg_bytes": len(svg),
        "csv_sha256": hashlib.sha256(csv_text.encode("ascii")).hexdigest(),
        "svg_sha256": hashlib.sha256(svg.encode("ascii")).hexdigest(),
    }


def search_job(c, inequality: str, seed: int) -> dict:
    """One tightness search with the default 14 starts, checked."""
    T = triangle(c)
    t0 = time.perf_counter()
    try:
        point, slack = tightness_search(T, InequalityId(inequality), seed=seed)
    except Exception as exc:
        return {"seconds": time.perf_counter() - t0, "items": 1, "failed": 1, "error": repr(exc)}
    elapsed = time.perf_counter() - t0
    scale = sum(math.hypot(point.x - V.x, point.y - V.y) for V in T.vertices)
    ok = math.isfinite(slack) and slack >= -DEFAULT_TOL_FACTOR * scale
    return {"seconds": elapsed, "items": 1, "failed": int(not ok), "slack": slack,
            "point": (point.x, point.y)}
