"""Deterministic sampling, fuzzing, tightness search and grid scans.

Everything here is reproducible by construction: sample ``i`` of a run is
derived from its own ``random.Random(seed ^ i)`` stream, so results do not
depend on execution order and a parallel run folds to the same report as a
sequential one (partial aggregates are merged in sample-index order).
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import DomainError, GeometryError
from .geom import Point2, PointFrame, Triangle, barycentric
from .inequalities import (
    DEFAULT_TOL_FACTOR,
    INTERIOR_IDS,
    VERTEX_IDS,
    InequalityId,
    bound_report,
    frame_report,
)
from .regions import DEFAULT_EPS, OPEN_PATTERNS, SIDE_ENDS, Region, classify, classify_frame

#: Sampling strata, in the canonical order used to resolve mix proportions:
#: the seven open regions, then the sidelines and the vertex neighbourhoods.
STRATA = tuple(region.value for region in OPEN_PATTERNS) + ("sideline", "near-vertex")

DEFAULT_REGION_MIX = {
    "lambda0": 0.19,
    "mu1": 0.10,
    "mu2": 0.10,
    "mu3": 0.10,
    "mu4": 0.10,
    "mu5": 0.10,
    "mu6": 0.10,
    "sideline": 0.12,
    "near-vertex": 0.09,
}

TRIANGLE_SHAPES = ("random", "near-degenerate", "equilateral-perturbed")

#: Height of near-degenerate triangles as a fraction of the long side.
DEFAULT_HEIGHT_BAND = (1e-9, 1e-3)
#: Taller band used when a sideline point must sit within the snap threshold:
#: converting plane coordinates back to barycentric divides by the area, so
#: on very flat triangles a constructed on-line point misses the threshold.
SIDELINE_HEIGHT_BAND = (1e-3, 1e-2)

_MAX_RESAMPLE = 64


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzzing run; two equal configs give equal reports."""

    n: int
    seed: int
    tol_factor: float = DEFAULT_TOL_FACTOR
    region_mix: dict = field(default_factory=lambda: dict(DEFAULT_REGION_MIX))
    triangle_shape: str = "random"

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"sample count must be >= 1, got {self.n}")
        if self.triangle_shape not in TRIANGLE_SHAPES:
            raise DomainError(
                f"unknown triangle shape {self.triangle_shape!r}, expected one of {TRIANGLE_SHAPES}"
            )
        unknown = set(self.region_mix) - set(STRATA)
        if unknown:
            raise DomainError(f"unknown region-mix strata {sorted(unknown)}")
        total = 0.0
        for name in STRATA:
            share = self.region_mix.get(name, 0.0)
            if share < 0.0:
                raise DomainError(f"negative proportion for stratum {name!r}")
            total += share
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"region-mix proportions sum to {total}, expected 1")


def sample_triangle(
    rng: random.Random,
    shape: str = "random",
    perturbation: float | None = None,
    height_band: tuple[float, float] = DEFAULT_HEIGHT_BAND,
) -> Triangle:
    """Draw one triangle of the requested shape from the stream.

    ``random``: vertices uniform in a scaled, offset box, rejecting thin
    results.  ``near-degenerate``: one vertex sits just off the segment
    spanned by the other two, at a height drawn log-uniformly from
    ``height_band`` times the segment length.  ``equilateral-perturbed``:
    the unit equilateral with every coordinate jiggled by ``perturbation``
    (log-uniform random when not given; 0 gives the exact equilateral).
    """
    if shape == "random":
        for _ in range(_MAX_RESAMPLE):
            sc = 10.0 ** rng.uniform(-1.0, 1.5)
            ox, oy = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            coords = [
                (ox + sc * rng.uniform(-1.0, 1.0), oy + sc * rng.uniform(-1.0, 1.0))
                for _ in range(3)
            ]
            try:
                T = Triangle(*(Point2(x, y) for x, y in coords))
            except GeometryError:
                continue
            if abs(T.area) >= 1e-3 * T.diameter * T.diameter:
                return T
        return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))

    if shape == "near-degenerate":
        lo, hi = height_band
        for _ in range(_MAX_RESAMPLE):
            sc = 10.0 ** rng.uniform(-1.0, 1.5)
            ox, oy = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            B = Point2(ox + sc * rng.uniform(-1.0, 1.0), oy + sc * rng.uniform(-1.0, 1.0))
            C = Point2(ox + sc * rng.uniform(-1.0, 1.0), oy + sc * rng.uniform(-1.0, 1.0))
            s = rng.uniform(0.2, 0.8)
            h = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
            flip = 1.0 if rng.random() < 0.5 else -1.0
            ex, ey = C.x - B.x, C.y - B.y
            length = math.hypot(ex, ey)
            if length < 0.1 * sc:
                continue
            nx, ny = -ey / length, ex / length
            A = Point2(B.x + s * ex + flip * h * length * nx, B.y + s * ey + flip * h * length * ny)
            try:
                return Triangle(A, B, C)
            except GeometryError:
                continue
        return Triangle(Point2(0.0, 1e-6), Point2(1.0, 0.0), Point2(0.0, 0.0))

    if shape == "equilateral-perturbed":
        if perturbation is None:
            perturbation = 10.0 ** rng.uniform(-6.0, -0.5)
        base = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
        if perturbation == 0.0:
            return Triangle(*(Point2(x, y) for x, y in base))
        for _ in range(_MAX_RESAMPLE):
            coords = [
                (x + perturbation * rng.uniform(-1.0, 1.0), y + perturbation * rng.uniform(-1.0, 1.0))
                for x, y in base
            ]
            try:
                return Triangle(*(Point2(x, y) for x, y in coords))
            except GeometryError:
                continue
        return Triangle(*(Point2(x, y) for x, y in base))

    raise DomainError(f"unknown triangle shape {shape!r}")


_REGION_TARGETS = {r.value: r for r in OPEN_PATTERNS}
#: Barycentric magnitude floor keeping constructed points off region boundaries.
_BARY_MARGIN = 1e-3


def _sample_region_point(rng: random.Random, T: Triangle, region: Region) -> Point2:
    pattern = OPEN_PATTERNS[region]
    negs = [i for i, s in enumerate(pattern) if s < 0]
    best = None
    for _ in range(_MAX_RESAMPLE):
        vals = [0.0, 0.0, 0.0]
        if len(negs) == 0:
            vals[0] = rng.uniform(_BARY_MARGIN, 1.0 - 2.0 * _BARY_MARGIN)
            vals[1] = rng.uniform(_BARY_MARGIN, 1.0 - _BARY_MARGIN - vals[0])
            vals[2] = 1.0 - vals[0] - vals[1]
        elif len(negs) == 1:
            vals[negs[0]] = -rng.uniform(_BARY_MARGIN, 2.0)
            rest = 1.0 - vals[negs[0]]
            p1, p2 = [i for i in range(3) if i not in negs]
            vals[p1] = rng.uniform(_BARY_MARGIN, rest - _BARY_MARGIN)
            vals[p2] = rest - vals[p1]
        else:
            vals[negs[0]] = -rng.uniform(_BARY_MARGIN, 2.0)
            vals[negs[1]] = -rng.uniform(_BARY_MARGIN, 2.0)
            pos = 3 - negs[0] - negs[1]
            vals[pos] = 1.0 - vals[negs[0]] - vals[negs[1]]
        u, v, w = vals
        M = Point2(
            u * T.A.x + v * T.B.x + w * T.C.x,
            u * T.A.y + v * T.B.y + w * T.C.y,
        )
        best = M
        if classify(T, M) is region:
            return M
    return best


def _sample_sideline_point(rng: random.Random, T: Triangle) -> Point2:
    V = T.vertices
    best = None
    best_coord = math.inf
    for _ in range(_MAX_RESAMPLE):
        k = rng.randrange(3)
        t = rng.uniform(-2.0, 3.0)
        if abs(t) < 0.05 or abs(t - 1.0) < 0.05:
            continue
        i, j = SIDE_ENDS[k]
        P, Q, opp = V[i], V[j], V[k]
        M = Point2(P.x + t * (Q.x - P.x), P.y + t * (Q.y - P.y))
        # The target coordinate is affine with value 1 at the opposite vertex
        # and 0 at P, so one correction step removes the construction error.
        co = barycentric(T, M)[k]
        M = Point2(M.x - co * (opp.x - P.x), M.y - co * (opp.y - P.y))
        co = abs(barycentric(T, M)[k])
        if co < best_coord:
            best, best_coord = M, co
        if co <= DEFAULT_EPS:
            return M
    return best


def _sample_near_vertex_point(rng: random.Random, T: Triangle) -> Point2:
    V = T.vertices[rng.randrange(3)]
    r = T.diameter * 10.0 ** rng.uniform(-10.0, -6.0)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Point2(V.x + r * math.cos(theta), V.y + r * math.sin(theta))


def sample_point(rng: random.Random, T: Triangle, target) -> Point2:
    """Draw a point from the requested stratum of the plane of T.

    ``target`` is a region (or its label) for the seven full-dimensional
    regions, ``"sideline"`` for points on the lines through the sides (both
    the segments and their extensions), or ``"near-vertex"`` for points
    within 1e-6 of the diameter of a vertex, exercising the weight blow-up
    without hitting the vertex itself.
    """
    if isinstance(target, Region):
        target = target.value
    if target in _REGION_TARGETS:
        return _sample_region_point(rng, T, _REGION_TARGETS[target])
    if target == "sideline":
        return _sample_sideline_point(rng, T)
    if target == "near-vertex":
        return _sample_near_vertex_point(rng, T)
    raise DomainError(f"unknown sampling target {target!r}")


def _pick_stratum(rng: random.Random, mix: dict) -> str:
    x = rng.random()
    acc = 0.0
    for name in STRATA:
        acc += mix.get(name, 0.0)
        if x < acc:
            return name
    return STRATA[-1]


def _run_sample(config: FuzzConfig, index: int):
    """Evaluate all applicable inequalities on sample ``index``."""
    rng = random.Random(config.seed ^ index)
    stratum = _pick_stratum(rng, config.region_mix)
    band = DEFAULT_HEIGHT_BAND
    if config.triangle_shape == "near-degenerate" and stratum == "sideline":
        band = SIDELINE_HEIGHT_BAND
    T = sample_triangle(rng, config.triangle_shape, height_band=band)
    M = sample_point(rng, T, stratum)
    F = PointFrame(T, M)
    region = classify_frame(F)
    tol = config.tol_factor
    reports = [
        frame_report(InequalityId.SIGNED_BARROW30, F, region, tol),
        frame_report(InequalityId.DERGIADES3, F, region, tol),
    ]
    if reports[0].region is Region.LAMBDA0:
        reports.append(frame_report(InequalityId.BARROW1, F, region, tol))
        reports.append(frame_report(InequalityId.ERDOS_MORDELL2, F, region, tol))
    return T, M, F.R_sum, reports


def _new_aggregate() -> dict:
    return {"total_reports": 0, "cells": {}, "violations": []}


def _lower_min(cell: dict, slack: float, index: int, where: Callable[[], tuple]) -> None:
    """Record ``slack`` of sample ``index`` if it is below the cell's minimum.

    ``where()`` builds the (triangle, point) payload, only for a new minimum.
    Strict comparison keeps the earliest index on ties, so merging partial
    aggregates in index order matches a sequential fold.
    """
    if slack < cell["min_slack"]:
        cell["min_slack"] = slack
        cell["argmin_index"] = index
        cell["argmin_triangle"], cell["argmin_point"] = where()


def _fold_sample(agg: dict, config: FuzzConfig, index: int) -> None:
    T, M, scale, reports = _run_sample(config, index)
    tol = config.tol_factor * scale

    def where():
        return [[T.A.x, T.A.y], [T.B.x, T.B.y], [T.C.x, T.C.y]], [M.x, M.y]

    for rep in reports:
        agg["total_reports"] += 1
        key = f"{rep.inequality.value}/{rep.region.value}"
        cell = agg["cells"].get(key)
        if cell is None:
            cell = {
                "count": 0,
                "min_slack": math.inf,
                "argmin_index": -1,
                "argmin_triangle": None,
                "argmin_point": None,
                "violation_count": 0,
            }
            agg["cells"][key] = cell
        cell["count"] += 1
        _lower_min(cell, rep.slack, index, where)
        if rep.slack < -tol:
            cell["violation_count"] += 1
            triangle, point = where()
            agg["violations"].append(
                {
                    "index": index,
                    "inequality": rep.inequality.value,
                    "region": rep.region.value,
                    "slack": rep.slack,
                    "tol": tol,
                    "triangle": triangle,
                    "point": point,
                }
            )


def _merge_aggregates(into: dict, part: dict) -> None:
    into["total_reports"] += part["total_reports"]
    for key, cell in part["cells"].items():
        mine = into["cells"].get(key)
        if mine is None:
            into["cells"][key] = dict(cell)
            continue
        mine["count"] += cell["count"]
        mine["violation_count"] += cell["violation_count"]
        _lower_min(mine, cell["min_slack"], cell["argmin_index"],
                   lambda: (cell["argmin_triangle"], cell["argmin_point"]))
    into["violations"].extend(part["violations"])


def _chunk_aggregate(config: FuzzConfig, lo: int, hi: int) -> dict:
    agg = _new_aggregate()
    for index in range(lo, hi):
        _fold_sample(agg, config, index)
    return agg


@dataclass(frozen=True)
class FuzzReport:
    """Aggregated fuzz outcome; a pure function of the config."""

    config: FuzzConfig
    total_reports: int
    cells: dict
    violations: list

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json_dict(self) -> dict:
        return {
            "n": self.config.n,
            "seed": self.config.seed,
            "triangle_shape": self.config.triangle_shape,
            "tol_factor": self.config.tol_factor,
            "total_reports": self.total_reports,
            "violation_count": self.violation_count,
            "violations": self.violations,
            "cells": {key: self.cells[key] for key in sorted(self.cells)},
        }


def fuzz(config: FuzzConfig, workers: int = 1) -> FuzzReport:
    """Run the stratified non-negativity fuzz described by ``config``.

    Violations (slack below ``-tol_factor`` times the local distance scale)
    are recorded with full reproduction data, not raised.  The report is
    independent of ``workers``: each sample owns a seed-derived stream and
    partial results merge in sample-index order.  The run is split into
    ``workers`` chunks, served by at most one process per CPU.
    """
    chunk = max(1, math.ceil(config.n / max(1, workers)))
    bounds = [(lo, min(lo + chunk, config.n)) for lo in range(0, config.n, chunk)]
    parts = None
    if len(bounds) > 1:
        try:
            with ProcessPoolExecutor(max_workers=min(len(bounds), os.cpu_count() or 1)) as pool:
                parts = list(
                    pool.map(_chunk_aggregate, [config] * len(bounds), *zip(*bounds))
                )
        except (OSError, RuntimeError):
            # Process pools may be unavailable in restricted environments;
            # the sequential path produces the identical report.
            pass
    if parts is None:
        parts = [_chunk_aggregate(config, lo, hi) for lo, hi in bounds]
    agg = _new_aggregate()
    for part in parts:
        _merge_aggregates(agg, part)
    return FuzzReport(
        config=config,
        total_reports=agg["total_reports"],
        cells=agg["cells"],
        violations=agg["violations"],
    )


def _objective_for(T: Triangle, inequality: InequalityId) -> Callable[[float, float], float]:
    def f(x: float, y: float) -> float:
        try:
            return bound_report(inequality, T, Point2(x, y)).slack
        except (GeometryError, ValueError):
            # Off the bound's domain, or a coordinate the simplex sent to inf.
            return math.inf

    return f


def _simplex_size(pts) -> float:
    return max(
        math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
        for i in range(3)
        for j in range(i + 1, 3)
    )


def _nelder_mead(f, x0, step, tol, max_iter=500):
    """Plain 2-D simplex descent (reflection 1, expansion 2, contraction 0.5)."""
    pts = [x0, (x0[0] + step, x0[1]), (x0[0], x0[1] + step)]
    vals = [f(*p) for p in pts]
    for _ in range(max_iter):
        order = sorted(range(3), key=lambda i: (vals[i], i))
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if _simplex_size(pts) < tol:
            break
        cx = (pts[0][0] + pts[1][0]) / 2.0
        cy = (pts[0][1] + pts[1][1]) / 2.0
        xr = (cx + (cx - pts[2][0]), cy + (cy - pts[2][1]))
        fr = f(*xr)
        if fr < vals[0]:
            xe = (cx + 2.0 * (cx - pts[2][0]), cy + 2.0 * (cy - pts[2][1]))
            fe = f(*xe)
            if fe < fr:
                pts[2], vals[2] = xe, fe
            else:
                pts[2], vals[2] = xr, fr
            continue
        if fr < vals[1]:
            pts[2], vals[2] = xr, fr
            continue
        if fr < vals[2]:
            xc = (cx + 0.5 * (xr[0] - cx), cy + 0.5 * (xr[1] - cy))
            fc = f(*xc)
            if fc <= fr:
                pts[2], vals[2] = xc, fc
                continue
        else:
            xc = (cx - 0.5 * (cx - pts[2][0]), cy - 0.5 * (cy - pts[2][1]))
            fc = f(*xc)
            if fc < vals[2]:
                pts[2], vals[2] = xc, fc
                continue
        for i in (1, 2):
            pts[i] = (
                pts[0][0] + 0.5 * (pts[i][0] - pts[0][0]),
                pts[0][1] + 0.5 * (pts[i][1] - pts[0][1]),
            )
            vals[i] = f(*pts[i])
    order = sorted(range(3), key=lambda i: (vals[i], i))
    return pts[order[0]], vals[order[0]]


def tightness_search(
    T: Triangle, inequality: InequalityId, starts: int = 14, seed: int = 0
) -> tuple[Point2, float]:
    """Multi-start derivative-free minimization of an inequality's slack.

    Starts are drawn per region (interior only for the interior-domain
    inequalities, cycling over all seven regions otherwise) and refined by
    simplex descent with a step tolerance of 1e-10 of the diameter.  Returns
    the best point found and its slack; deterministic in (T, starts, seed).
    """
    if inequality in VERTEX_IDS:
        raise DomainError(
            f"{inequality.value} is defined only at a single vertex; there is no domain to search"
        )
    if starts < 1:
        raise DomainError(f"starts must be >= 1, got {starts}")
    objective = _objective_for(T, inequality)
    rng = random.Random(seed)
    cycle = (Region.LAMBDA0,) if inequality in INTERIOR_IDS else tuple(OPEN_PATTERNS)
    targets = [cycle[i % len(cycle)] for i in range(starts)]
    best_pt = None
    best_val = math.inf
    for target in targets:
        start = sample_point(rng, T, target)
        pt, val = _nelder_mead(
            objective, (start.x, start.y), step=0.05 * T.diameter, tol=1e-10 * T.diameter
        )
        if val < best_val:
            best_pt, best_val = pt, val
    if best_pt is None:
        raise DomainError(f"the slack of {inequality.value} is not finite at any start")
    return Point2(best_pt[0], best_pt[1]), best_val


class ScanRow(NamedTuple):
    """One grid cell: position, region label and evaluation values."""

    x: float
    y: float
    region: str
    R_A: float
    R_B: float
    R_C: float
    lp_a: float
    lp_b: float
    lp_c: float
    lhs: float
    rhs: float
    slack: float


@dataclass(frozen=True)
class ScanGrid:
    """Row-major cell-center scan of a bounding box (y varies slowest)."""

    bbox: tuple[float, float, float, float]
    resolution: int
    rows: list

    def __iter__(self):
        return iter(self.rows)


def grid_scan(T: Triangle, bbox: tuple[float, float, float, float], resolution: int) -> ScanGrid:
    """Classify and evaluate the weighted bound at every cell center.

    Vertex-coincident cells report the reduced vertex bound, with the two
    undefined bisector columns as NaN.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    x0, y0, x1, y1 = bbox
    if not (x1 > x0 and y1 > y0):
        raise DomainError(f"empty bounding box {bbox}")
    dx = (x1 - x0) / resolution
    dy = (y1 - y0) / resolution
    rows = []
    for iy in range(resolution):
        y = y0 + (iy + 0.5) * dy
        for ix in range(resolution):
            x = x0 + (ix + 0.5) * dx
            F = PointFrame(T, Point2(x, y))
            rep = frame_report(InequalityId.SIGNED_BARROW30, F, classify_frame(F))
            by_side = {term.side: term.value for term in rep.terms}
            lp = [by_side.get(side, math.nan) for side in "abc"]
            rows.append(ScanRow(x, y, rep.region.value, *F.R, *lp, rep.lhs, rep.rhs, rep.slack))
    return ScanGrid(bbox=bbox, resolution=resolution, rows=rows)
