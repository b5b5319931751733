"""Deterministic sampling, fuzzing, tightness search and grid scans.

Everything here is reproducible by construction: sample ``i`` of a run is
derived from its own stream, the one ``random.Random(seed ^ i)`` starts, so
results do not depend on execution order and a parallel run folds to the
same report as a sequential one.  A fuzz chunk builds what its samples share
once: one ``random.Random``, reseeded with ``seed ^ i`` before sample ``i``
(the same stream), and one table of its stratum thresholds.  One fold
updates a fuzz cell: with each sample's reports in index order, and with
each chunk's cells in chunk order.

The fuzz, the search and the scan read each bound's values from
:func:`~barrow.inequalities.frame_values` and build no report records; their
numbers are the reports' numbers, bit for bit.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import DomainError, GeometryError
from .geom import Point2, PointFrame, Triangle, side_coordinate
from .inequalities import (
    BOUNDS,
    DEFAULT_TOL_FACTOR,
    INTERIOR_IDS,
    VERTEX_IDS,
    InequalityId,
    frame_values,
)
from .regions import DEFAULT_EPS, OPEN_PATTERNS, SIDE_ENDS, Region, classify_frame

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

#: Multi-start count of :func:`tightness_search` and of ``barrow tighten``.
DEFAULT_STARTS = 14


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
            if not (math.isfinite(share) and share >= 0.0):
                raise DomainError(
                    f"proportion for stratum {name!r} must be finite and non-negative, got {share}"
                )
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


#: The plan of each open region's sampler, by label: the region, then the
#: indices of its negative and of its positive barycentric coordinates.
_REGION_PLANS = {
    region.value: (
        region,
        tuple(i for i, s in enumerate(pattern) if s < 0),
        tuple(i for i, s in enumerate(pattern) if s > 0),
    )
    for region, pattern in OPEN_PATTERNS.items()
}
#: Barycentric magnitude floor keeping constructed points off region boundaries.
_BARY_MARGIN = 1e-3


def _sample_region_point(
    rng: random.Random, T: Triangle, plan: tuple[Region, tuple, tuple]
) -> tuple[PointFrame, Region]:
    region, negs, pos = plan
    (ax, ay), (bx, by), (cx, cy) = T.A, T.B, T.C
    uniform = rng.uniform
    for _ in range(_MAX_RESAMPLE):
        vals = [0.0, 0.0, 0.0]
        if not negs:
            vals[0] = uniform(_BARY_MARGIN, 1.0 - 2.0 * _BARY_MARGIN)
            vals[1] = uniform(_BARY_MARGIN, 1.0 - _BARY_MARGIN - vals[0])
            vals[2] = 1.0 - vals[0] - vals[1]
        elif len(negs) == 1:
            (n,), (p1, p2) = negs, pos
            vals[n] = -uniform(_BARY_MARGIN, 2.0)
            rest = 1.0 - vals[n]
            vals[p1] = uniform(_BARY_MARGIN, rest - _BARY_MARGIN)
            vals[p2] = rest - vals[p1]
        else:
            (n1, n2), (p,) = negs, pos
            vals[n1] = -uniform(_BARY_MARGIN, 2.0)
            vals[n2] = -uniform(_BARY_MARGIN, 2.0)
            vals[p] = 1.0 - vals[n1] - vals[n2]
        u, v, w = vals
        F = PointFrame(T, Point2(u * ax + v * bx + w * cx, u * ay + v * by + w * cy))
        got = classify_frame(F)
        if got is region:
            break
    return F, got


def _sample_sideline_point(rng: random.Random, T: Triangle) -> PointFrame:
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
        co = side_coordinate(T, M, k)
        F = PointFrame(T, Point2(M.x - co * (opp.x - P.x), M.y - co * (opp.y - P.y)))
        co = abs((F.u, F.v, F.w)[k])
        if co < best_coord:
            best, best_coord = F, co
        if co <= DEFAULT_EPS:
            return F
    return best


def _sample_near_vertex_point(rng: random.Random, T: Triangle) -> PointFrame:
    V = T.vertices[rng.randrange(3)]
    r = T.diameter * 10.0 ** rng.uniform(-10.0, -6.0)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return PointFrame(T, Point2(V.x + r * math.cos(theta), V.y + r * math.sin(theta)))


def sample_point(rng: random.Random, T: Triangle, target) -> Point2:
    """Draw a point from the requested stratum of the plane of T.

    ``target`` is a region (or its label) for the seven full-dimensional
    regions, ``"sideline"`` for points on the lines through the sides (both
    the segments and their extensions), or ``"near-vertex"`` for points
    within 1e-6 of the diameter of a vertex, exercising the weight blow-up
    without hitting the vertex itself.
    """
    return _sample_frame(rng, T, target)[0].M


def _sample_frame(rng: random.Random, T: Triangle, target) -> tuple[PointFrame, Region]:
    """The frame its sampler built for the point :func:`sample_point` draws, and its region."""
    if isinstance(target, Region):
        target = target._value_
    plan = _REGION_PLANS.get(target)
    if plan is not None:
        return _sample_region_point(rng, T, plan)
    if target == "sideline":
        F = _sample_sideline_point(rng, T)
    elif target == "near-vertex":
        F = _sample_near_vertex_point(rng, T)
    else:
        raise DomainError(f"unknown sampling target {target!r}")
    return F, classify_frame(F)


def _stratum_table(mix: dict) -> list[tuple[float, str]]:
    """The ``(threshold, name)`` of each stratum of ``mix`` with a positive share.

    A threshold is the cumulative share, summed from 0.0 in ``STRATA`` order.
    """
    table = []
    acc = 0.0
    for name in STRATA:
        share = mix.get(name, 0.0)
        acc += share
        if share > 0.0:
            table.append((acc, name))
    return table


def _pick_stratum(rng: random.Random, table: list[tuple[float, str]]) -> str:
    """The first stratum whose threshold exceeds a uniform draw.

    The shares may sum to just under 1; a draw above their sum goes to the
    last stratum with a positive share, never to a stratum of share 0.
    """
    x = rng.random()
    for threshold, name in table:
        if x < threshold:
            return name
    return table[-1][1]


#: The ``BOUNDS`` entries the fuzz and the scan evaluate, looked up once:
#: hashing an ``InequalityId`` runs Python code on every lookup.
_SIGNED, _DERGIADES, _BARROW, _ERDOS_MORDELL = (
    BOUNDS[InequalityId.SIGNED_BARROW30],
    BOUNDS[InequalityId.DERGIADES3],
    BOUNDS[InequalityId.BARROW1],
    BOUNDS[InequalityId.ERDOS_MORDELL2],
)
#: Read once per sample; on Python 3.10 and 3.11 reading an enum member off
#: its class runs Python code.
_LAMBDA0 = Region.LAMBDA0


def _fold_cell(cells: dict, key: str, count: int, violation_count: int, slack: float,
               index: int, where: Callable[[], tuple]) -> None:
    """Fold ``count`` reports, ``violation_count`` of them violations, into cell ``key``.

    ``slack`` is their least, at sample ``index``; ``where()`` builds its
    (triangle, point) payload, only for a new minimum.  Strict comparison
    keeps the earliest index on ties, so folding chunk cells in chunk order
    matches folding their samples in index order.
    """
    cell = cells.get(key)
    if cell is None:
        cell = cells[key] = {
            "count": 0,
            "min_slack": math.inf,
            "argmin_index": -1,
            "argmin_triangle": None,
            "argmin_point": None,
            "violation_count": 0,
        }
    # Adding to the int 0 keeps the counts ints when a bool is passed.
    cell["count"] += count
    cell["violation_count"] += violation_count
    if slack < cell["min_slack"]:
        cell["min_slack"] = slack
        cell["argmin_index"] = index
        cell["argmin_triangle"], cell["argmin_point"] = where()


def _fold_sample(cells: dict, violations: list, config: FuzzConfig,
                 strata: list[tuple[float, str]], rng: random.Random, index: int) -> None:
    """Evaluate every applicable inequality on sample ``index`` and fold its reports.

    ``rng`` is at the start of the sample's stream and ``strata`` is the
    :func:`_stratum_table` of the config's mix.
    """
    stratum = _pick_stratum(rng, strata)
    band = DEFAULT_HEIGHT_BAND
    if config.triangle_shape == "near-degenerate" and stratum == "sideline":
        band = SIDELINE_HEIGHT_BAND
    T = sample_triangle(rng, config.triangle_shape, height_band=band)
    F, region = _sample_frame(rng, T, stratum)
    tol = config.tol_factor * F.R_sum
    values = [frame_values(_SIGNED, F, region), frame_values(_DERGIADES, F, region)]
    # A lambda0 signed report rules out a vertex, so the interior-only
    # bounds are defined here.
    if values[0][1] is _LAMBDA0:
        values.append(frame_values(_BARROW, F, region))
        values.append(frame_values(_ERDOS_MORDELL, F, region))

    def where():
        return [[T.A.x, T.A.y], [T.B.x, T.B.y], [T.C.x, T.C.y]], [F.M.x, F.M.y]

    for inequality, region, lhs, rhs, _ in values:
        slack = lhs - rhs
        violated = slack < -tol
        # ``_value_`` is ``value`` without the property call.
        _fold_cell(cells, f"{inequality._value_}/{region._value_}", 1, violated, slack, index, where)
        if violated:
            triangle, point = where()
            violations.append(
                {
                    "index": index,
                    "inequality": inequality._value_,
                    "region": region._value_,
                    "slack": slack,
                    "tol": tol,
                    "triangle": triangle,
                    "point": point,
                }
            )


def _chunk_aggregate(config: FuzzConfig, lo: int, hi: int) -> tuple[dict, list]:
    """The cells and violations of samples ``lo`` to ``hi - 1``.

    The samples share one ``random.Random`` and one stratum table.  Reseeding
    with ``seed ^ i`` puts the generator in the state ``random.Random(seed ^ i)``
    starts in, so sample ``i`` draws the same stream in any chunk.
    """
    cells, violations = {}, []
    strata = _stratum_table(config.region_mix)
    rng = random.Random()
    for index in range(lo, hi):
        rng.seed(config.seed ^ index)
        _fold_sample(cells, violations, config, strata, rng, index)
    return cells, violations


@dataclass(frozen=True)
class FuzzReport:
    """Aggregated fuzz outcome; a pure function of the config."""

    config: FuzzConfig
    cells: dict
    violations: list

    @property
    def total_reports(self) -> int:
        return sum(cell["count"] for cell in self.cells.values())

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
    the chunks' cells fold in chunk order.  The run is split into
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
    cells, violations = {}, []
    for part_cells, part_violations in parts:
        for key, cell in part_cells.items():
            _fold_cell(
                cells, key, cell["count"], cell["violation_count"], cell["min_slack"],
                cell["argmin_index"], lambda: (cell["argmin_triangle"], cell["argmin_point"]),
            )
        violations.extend(part_violations)
    return FuzzReport(config=config, cells=cells, violations=violations)


def _objective_for(T: Triangle, inequality: InequalityId) -> Callable[[float, float], float]:
    """The slack ``bound_report(inequality, T, Point2(x, y))`` gives, or inf where that raises."""
    bound = BOUNDS[inequality]

    def f(x: float, y: float) -> float:
        try:
            F = PointFrame(T, Point2(x, y))
            values = frame_values(bound, F, classify_frame(F))
        except (GeometryError, ValueError):
            # Off the bound's domain, or a coordinate the simplex sent to inf.
            return math.inf
        if values is None:
            # Outside the interior, for an interior-only bound.
            return math.inf
        _, _, lhs, rhs, _ = values
        return lhs - rhs

    return f


def _simplex_size(pts) -> float:
    (x0, y0), (x1, y1), (x2, y2) = pts
    return max(
        math.hypot(x0 - x1, y0 - y1), math.hypot(x0 - x2, y0 - y2), math.hypot(x1 - x2, y1 - y2)
    )


_INDICES = (0, 1, 2)
_MAX_ITER = 500


def _nelder_mead(f, x0, step, tol):
    """Plain 2-D simplex descent (reflection 1, expansion 2, contraction 0.5)."""
    pts = [x0, (x0[0] + step, x0[1]), (x0[0], x0[1] + step)]
    vals = [f(*p) for p in pts]
    for _ in range(_MAX_ITER):
        # Ordered by (value, index): the index breaks ties and no point is compared.
        (v0, _, p0), (v1, _, p1), (v2, _, p2) = sorted(zip(vals, _INDICES, pts))
        pts = [p0, p1, p2]
        vals = [v0, v1, v2]
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
    best_val, _, best_pt = sorted(zip(vals, _INDICES, pts))[0]
    return best_pt, best_val


def tightness_search(
    T: Triangle, inequality: InequalityId, starts: int = DEFAULT_STARTS, seed: int = 0
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
    best_pt = None
    best_val = math.inf
    for k in range(starts):
        start = sample_point(rng, T, cycle[k % len(cycle)])
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
    """Row-major cell-center scan of a bounding box (y varies slowest).

    ``rows`` holds ``resolution**2`` rows, one grid line of ``resolution``
    rows after another.  Every row of a grid line has the same ``y``, and
    every row of a column has the same ``x``, so the CSV and SVG emitters
    format each ``x`` from the first grid line and each ``y`` from a line's
    first row.  They raise ValueError on a grid with another row count.
    """

    bbox: tuple[float, float, float, float]
    resolution: int
    rows: list


def grid_scan(T: Triangle, bbox: tuple[float, float, float, float], resolution: int) -> ScanGrid:
    """Classify and evaluate the weighted bound at every cell center.

    Each row holds the values ``frame_report(SIGNED_BARROW30, ...)`` reports
    at its cell center.  Vertex-coincident cells report the reduced vertex
    bound, with the two undefined bisector columns as NaN.  Raises
    DomainError when the box is empty or its cells are too wide for floats.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    x0, y0, x1, y1 = bbox
    if not (x1 > x0 and y1 > y0):
        raise DomainError(f"empty bounding box {bbox}")
    dx = (x1 - x0) / resolution
    dy = (y1 - y0) / resolution
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise DomainError(f"bounding box {bbox} is too wide: its cell size overflows")
    rows = []
    for iy in range(resolution):
        y = y0 + (iy + 0.5) * dy
        for ix in range(resolution):
            x = x0 + (ix + 0.5) * dx
            F = PointFrame(T, Point2(x, y))
            _, region, lhs, rhs, parts = frame_values(_SIGNED, F, classify_frame(F))
            lp = [math.nan, math.nan, math.nan]
            for side, _, value in parts:
                lp[side] = value
            rows.append(ScanRow(x, y, region.value, *F.R, *lp, lhs, rhs, lhs - rhs))
    return ScanGrid(bbox=bbox, resolution=resolution, rows=rows)
