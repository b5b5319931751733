"""Deterministic sampling, fuzzing, tightness search and grid scans.

Everything here is reproducible by construction.  The fuzz cuts its samples
into fixed blocks of 64: block ``b`` of a run with seed ``s`` draws from one
``random.Random(f"{s}/{b}")``, sample after sample, so each block owns its
stream.  A string seed goes through SHA-512, so the streams do not depend on
``PYTHONHASHSEED``, and distinct seeds give distinct streams.  Worker chunks
start at block boundaries, so results do not depend on execution order and
a parallel run folds to the same report as a sequential one.  To replay
sample ``i``, draw block ``i // 64`` from its first sample up to ``i``.  A
fuzz chunk builds one table of its stratum thresholds.  One fold creates a
fuzz cell or moves its minimum: with each sample's reports in index order,
and with each chunk's cells in chunk order.  A sample's report that would do
neither and is no violation only adds to its cell's count.

The jobs build no frame and no report.  The scan reads the rows of the
point kernel (:func:`~barrow.inequalities.values_function`), the fuzz every
bound of a sample from one kernel pass, and the samplers accept a draw by
the kernel's label.  The search reads its own slack-only closure
(:func:`~barrow.inequalities.slack_function`), which hands every rare point
to the row kernel.  Their numbers are the reports', bit for bit.

The config, the fuzz report and the scan grid are named tuples, like every
value record of the package.  Only a fuzz that starts a process pool
imports one, so importing this module loads no pool machinery.
"""

from __future__ import annotations

import math
import os
import random
from typing import Callable, NamedTuple

from .errors import DomainError, GeometryError, _check_number, _shown
from .geom import Point2, Triangle, side_coordinate
from .inequalities import (
    DEFAULT_TOL_FACTOR,
    INTERIOR_IDS,
    InequalityId,
    slack_function,
    slacks_function,
    values_function,
)
from .regions import DEFAULT_EPS, OPEN_PATTERNS, SIDE_ENDS, Region

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
#: Samples per fuzz stream: one seeding per block, not per sample.
_BLOCK = 64

#: Multi-start count of :func:`tightness_search` and of ``barrow tighten``.
DEFAULT_STARTS = 14


class _FuzzFields(NamedTuple):
    n: int
    seed: int
    tol_factor: float
    region_mix: dict
    triangle_shape: str


class FuzzConfig(_FuzzFields):
    """Parameters of one fuzzing run; two equal configs give equal reports."""

    __slots__ = ()

    def __new__(cls, n: int, seed: int, tol_factor: float = DEFAULT_TOL_FACTOR,
                region_mix: dict = DEFAULT_REGION_MIX, triangle_shape: str = "random"):
        for name, value in (("n", n), ("seed", seed)):
            # bool is an int subclass; 1.0 would name another stream than 1.
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an int, got {_shown(value)}")
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {_shown(n)}")
        _check_number(tol_factor, "tol_factor")
        if triangle_shape not in TRIANGLE_SHAPES:
            raise DomainError(
                f"unknown triangle shape {_shown(triangle_shape)}, expected one of {TRIANGLE_SHAPES}"
            )
        # A list has no ``get``; a bool share would pass for 1 or 0.
        if not isinstance(region_mix, dict):
            raise DomainError(f"region_mix must be a dict, got {_shown(region_mix)}")
        # The config keeps its own copy, so a change to the caller's dict
        # after validation reaches no run.  A dict, not a read-only view,
        # because the chunks are pickled to the workers.
        region_mix = dict(region_mix)
        unknown = set(region_mix) - set(STRATA)
        if unknown:
            try:
                unknown = sorted(unknown)
            except TypeError:  # keys of types that do not compare, such as 1 and "x"
                unknown = sorted(unknown, key=_shown)
            raise DomainError(f"unknown region-mix strata {_shown(unknown)}")
        total = 0.0
        for name in STRATA:
            share = region_mix.get(name, 0.0)
            _check_number(share, f"proportion for stratum {name!r}", non_negative=True)
            total += share
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"region-mix proportions sum to {total}, expected 1")
        return tuple.__new__(cls, (n, seed, tol_factor, region_mix, triangle_shape))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, unpickling through ``__new__``: both check.
        return cls(*iterable)


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
    # Each draw is ``a + (b - a) * random()``, what ``rng.uniform(a, b)``
    # computes, without its call.
    random = rng.random
    if shape == "random":
        for _ in range(_MAX_RESAMPLE):
            sc = 10.0 ** (-1.0 + (1.5 - -1.0) * random())
            ox, oy = -10.0 + (10.0 - -10.0) * random(), -10.0 + (10.0 - -10.0) * random()
            try:
                T = Triangle(
                    Point2(ox + sc * (-1.0 + (1.0 - -1.0) * random()),
                           oy + sc * (-1.0 + (1.0 - -1.0) * random())),
                    Point2(ox + sc * (-1.0 + (1.0 - -1.0) * random()),
                           oy + sc * (-1.0 + (1.0 - -1.0) * random())),
                    Point2(ox + sc * (-1.0 + (1.0 - -1.0) * random()),
                           oy + sc * (-1.0 + (1.0 - -1.0) * random())),
                )
            except GeometryError:
                continue
            if abs(T.area) >= 1e-3 * T.diameter * T.diameter:
                return T
        return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))

    if shape == "near-degenerate":
        for end in height_band[0], height_band[1]:
            _check_number(end, "height_band end")
            if end <= 0:
                raise DomainError(f"height_band ends must be positive, got {_shown(height_band)}")
        log_lo, log_hi = math.log10(height_band[0]), math.log10(height_band[1])
        for _ in range(_MAX_RESAMPLE):
            sc = 10.0 ** (-1.0 + (1.5 - -1.0) * random())
            ox, oy = -10.0 + (10.0 - -10.0) * random(), -10.0 + (10.0 - -10.0) * random()
            B = Point2(ox + sc * (-1.0 + (1.0 - -1.0) * random()),
                       oy + sc * (-1.0 + (1.0 - -1.0) * random()))
            C = Point2(ox + sc * (-1.0 + (1.0 - -1.0) * random()),
                       oy + sc * (-1.0 + (1.0 - -1.0) * random()))
            s = 0.2 + (0.8 - 0.2) * random()
            h = 10.0 ** (log_lo + (log_hi - log_lo) * random())
            flip = 1.0 if random() < 0.5 else -1.0
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
            perturbation = 10.0 ** (-6.0 + (-0.5 - -6.0) * random())
        else:
            _check_number(perturbation, "perturbation")
        h = math.sqrt(3.0) / 2.0
        if perturbation == 0.0:
            return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, h))
        for _ in range(_MAX_RESAMPLE):
            try:
                return Triangle(
                    Point2(0.0 + perturbation * (-1.0 + (1.0 - -1.0) * random()),
                           0.0 + perturbation * (-1.0 + (1.0 - -1.0) * random())),
                    Point2(1.0 + perturbation * (-1.0 + (1.0 - -1.0) * random()),
                           0.0 + perturbation * (-1.0 + (1.0 - -1.0) * random())),
                    Point2(0.5 + perturbation * (-1.0 + (1.0 - -1.0) * random()),
                           h + perturbation * (-1.0 + (1.0 - -1.0) * random())),
                )
            except GeometryError:
                continue
        return Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, h))

    raise DomainError(f"unknown triangle shape {_shown(shape)}")


#: The plan of each open region's sampler, by label: the indices of its
#: negative and of its positive barycentric coordinates.
_REGION_PLANS = {
    region.value: (
        tuple(i for i, s in enumerate(pattern) if s < 0),
        tuple(i for i, s in enumerate(pattern) if s > 0),
    )
    for region, pattern in OPEN_PATTERNS.items()
}
#: Barycentric magnitude floor keeping constructed points off region boundaries.
_BARY_MARGIN = 1e-3


def _sample_region_point(rng: random.Random, T: Triangle, label: str, point: Callable) -> tuple:
    """The first draw ``point`` labels ``label``, or the last of ``_MAX_RESAMPLE`` draws."""
    negs, pos = _REGION_PLANS[label]
    (ax, ay), (bx, by), (cx, cy) = T.A, T.B, T.C
    # ``rng.uniform`` draws written out, as in :func:`sample_triangle`.
    random, m = rng.random, _BARY_MARGIN
    for attempt in range(_MAX_RESAMPLE - 1, -1, -1):
        vals = [0.0, 0.0, 0.0]
        if not negs:
            vals[0] = m + ((1.0 - 2.0 * m) - m) * random()
            vals[1] = m + ((1.0 - m - vals[0]) - m) * random()
            vals[2] = 1.0 - vals[0] - vals[1]
        elif len(negs) == 1:
            (n,), (p1, p2) = negs, pos
            vals[n] = -(m + (2.0 - m) * random())
            rest = 1.0 - vals[n]
            vals[p1] = m + ((rest - m) - m) * random()
            vals[p2] = rest - vals[p1]
        else:
            (n1, n2), (p,) = negs, pos
            vals[n1] = -(m + (2.0 - m) * random())
            vals[n2] = -(m + (2.0 - m) * random())
            vals[p] = 1.0 - vals[n1] - vals[n2]
        u, v, w = vals
        M = Point2(u * ax + v * bx + w * cx, u * ay + v * by + w * cy)
        got = point(*M, label if attempt else None)
        if got is not None:
            return M, got


def _sample_sideline_point(rng: random.Random, T: Triangle) -> Point2:
    V = T.vertices
    best, best_coord = None, math.inf
    # ``rng.uniform`` draws written out, as in :func:`sample_triangle`.
    randrange, random = rng.randrange, rng.random
    for _ in range(_MAX_RESAMPLE):
        k = randrange(3)
        t = -2.0 + (3.0 - -2.0) * random()
        if abs(t) < 0.05 or abs(t - 1.0) < 0.05:
            continue
        i, j = SIDE_ENDS[k]
        P, Q, opp = V[i], V[j], V[k]
        M = Point2(P.x + t * (Q.x - P.x), P.y + t * (Q.y - P.y))
        # The target coordinate is affine with value 1 at the opposite vertex
        # and 0 at P, so one correction step removes the construction error.
        co = side_coordinate(T, M, k)
        M = Point2(M.x - co * (opp.x - P.x), M.y - co * (opp.y - P.y))
        co = abs(side_coordinate(T, M, k))
        if co < best_coord:
            best, best_coord = M, co
        if co <= DEFAULT_EPS:
            return M
    return best


def _sample_near_vertex_point(rng: random.Random, T: Triangle) -> Point2:
    # ``rng.uniform`` draws written out, as in :func:`sample_triangle`.
    random = rng.random
    V = T.vertices[rng.randrange(3)]
    r = T.diameter * 10.0 ** (-10.0 + (-6.0 - -10.0) * random())
    theta = 0.0 + (2.0 * math.pi - 0.0) * random()
    return Point2(V.x + r * math.cos(theta), V.y + r * math.sin(theta))


def sample_point(rng: random.Random, T: Triangle, target) -> Point2:
    """Draw a point from the requested stratum of the plane of T.

    ``target`` is a region (or its label) for the seven full-dimensional
    regions, ``"sideline"`` for points on the lines through the sides (both
    the segments and their extensions), or ``"near-vertex"`` for points
    within 1e-6 of the diameter of a vertex, exercising the weight blow-up
    without hitting the vertex itself.
    """
    # Dergiades3 holds in the whole plane and labels a vertex point by its region.
    return _sample(rng, T, target, values_function(T, InequalityId.DERGIADES3))[0]


def _sample(rng: random.Random, T: Triangle, target, point: Callable) -> tuple:
    """The point :func:`sample_point` draws, and what the point kernel ``point`` returns there."""
    if isinstance(target, Region):
        target = target._value_
    if target in _REGION_PLANS:
        return _sample_region_point(rng, T, target, point)
    if target == "sideline":
        M = _sample_sideline_point(rng, T)
    elif target == "near-vertex":
        M = _sample_near_vertex_point(rng, T)
    else:
        raise DomainError(f"unknown sampling target {_shown(target)}")
    return M, point(*M)


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
    M, (R_sum, slacks) = _sample(rng, T, stratum, slacks_function(T))
    tol = config.tol_factor * R_sum

    def where():
        return [[T.A.x, T.A.y], [T.B.x, T.B.y], [T.C.x, T.C.y]], [M.x, M.y]

    for inequality, label, slack in slacks:
        key = f"{inequality}/{label}"
        violated = slack < -tol
        cell = cells.get(key)
        # A report that moves no minimum and is no violation only counts.
        if cell is not None and not violated and not slack < cell["min_slack"]:
            cell["count"] += 1
            continue
        _fold_cell(cells, key, 1, violated, slack, index, where)
        if violated:
            triangle, point = where()
            violations.append(
                {
                    "index": index,
                    "inequality": inequality,
                    "region": label,
                    "slack": slack,
                    "tol": tol,
                    "triangle": triangle,
                    "point": point,
                }
            )


def _chunk_aggregate(config: FuzzConfig, lo: int, hi: int) -> tuple[dict, list]:
    """The cells and violations of samples ``lo`` to ``hi - 1``.

    ``lo`` is a multiple of the block size.  Each block's samples draw one
    after another from one ``random.Random(f"{seed}/{block}")``, seeded at the
    block's first sample, so a sample draws the same numbers in any chunk
    that starts at a block boundary.  The chunk's samples share one stratum
    table.
    """
    cells, violations = {}, []
    strata = _stratum_table(config.region_mix)
    for start in range(lo, hi, _BLOCK):
        rng = random.Random(f"{config.seed}/{start // _BLOCK}")
        for index in range(start, min(start + _BLOCK, hi)):
            _fold_sample(cells, violations, config, strata, rng, index)
    return cells, violations


class FuzzReport(NamedTuple):
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
    independent of ``workers``: each block of 64 samples owns the stream
    seeded by the string ``f"{seed}/{block}"``, every chunk holds whole
    blocks, and the chunks' cells fold in chunk order.  Sample ``i`` is
    replayed by drawing block ``i // 64`` from its first sample.  The run is
    split into at most ``workers`` chunks, served by at most one process per
    CPU.
    """
    # Integer ceilings: a float quotient overflows for a huge n and rounds
    # to a zero chunk for a huge worker count.
    blocks = -(-config.n // _BLOCK)
    chunk = _BLOCK * -(-blocks // max(1, workers))
    bounds = [(lo, min(lo + chunk, config.n)) for lo in range(0, config.n, chunk)]
    parts = None
    if len(bounds) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor  # loaded by a pool run only
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


_MAX_ITER = 500


def _nelder_mead(f, x0, step, tol):
    """Plain 2-D simplex descent (reflection 1, expansion 2, contraction 0.5).

    The simplex is three vertices ``a``, ``b``, ``c`` and their values, held
    in locals.  Each pass orders them by value with an insertion network:
    compare ``(a, b)``, then ``(b, c)``, then ``(a, b)`` again only if ``c``
    moved.  A pair is swapped only when the later value is strictly less, so
    ties keep their order and a NaN value never moves.  The search stops
    when the longest side of the ordered simplex is below ``tol``, tested
    side by side as ``max`` would: a NaN ``a``-``b`` side never stops it, a
    NaN later side is passed over, and usually only the first side is
    measured.  After ``_MAX_ITER`` passes the vertices are ordered once
    more.  Returns the first vertex and its value.
    """
    hypot = math.hypot
    ax, ay = x0
    bx, by = ax + step, ay
    cx, cy = ax, ay + step
    fa, fb, fc = f(ax, ay), f(bx, by), f(cx, cy)
    # The last pass only orders the vertices.
    for left in range(_MAX_ITER, -1, -1):
        if fb < fa:
            ax, ay, fa, bx, by, fb = bx, by, fb, ax, ay, fa
        if fc < fb:
            bx, by, fb, cx, cy, fc = cx, cy, fc, bx, by, fb
            if fb < fa:
                ax, ay, fa, bx, by, fb = bx, by, fb, ax, ay, fa
        if not left or (
            hypot(ax - bx, ay - by) < tol
            and not hypot(ax - cx, ay - cy) >= tol
            and not hypot(bx - cx, by - cy) >= tol
        ):
            break
        mx = (ax + bx) / 2.0
        my = (ay + by) / 2.0
        rx, ry = mx + (mx - cx), my + (my - cy)
        fr = f(rx, ry)
        if fr < fa:
            ex, ey = mx + 2.0 * (mx - cx), my + 2.0 * (my - cy)
            fe = f(ex, ey)
            if fe < fr:
                cx, cy, fc = ex, ey, fe
            else:
                cx, cy, fc = rx, ry, fr
            continue
        if fr < fb:
            cx, cy, fc = rx, ry, fr
            continue
        if fr < fc:
            kx, ky = mx + 0.5 * (rx - mx), my + 0.5 * (ry - my)
            fk = f(kx, ky)
            if fk <= fr:
                cx, cy, fc = kx, ky, fk
                continue
        else:
            kx, ky = mx - 0.5 * (mx - cx), my - 0.5 * (my - cy)
            fk = f(kx, ky)
            if fk < fc:
                cx, cy, fc = kx, ky, fk
                continue
        bx, by = ax + 0.5 * (bx - ax), ay + 0.5 * (by - ay)
        fb = f(bx, by)
        cx, cy = ax + 0.5 * (cx - ax), ay + 0.5 * (cy - ay)
        fc = f(cx, cy)
    return (ax, ay), fa


def tightness_search(
    T: Triangle, inequality: InequalityId, starts: int = DEFAULT_STARTS, seed: int = 0
) -> tuple[Point2, float]:
    """Multi-start derivative-free minimization of an inequality's slack.

    Starts are drawn per region (interior only for the interior-domain
    inequalities, cycling over all seven regions otherwise) and refined by
    simplex descent with a step tolerance of 1e-10 of the diameter.  Returns
    the best point found and its slack; deterministic in (T, starts, seed).
    Raises DomainError when ``inequality`` is not an :class:`InequalityId`
    or is a vertex bound, or when ``starts`` or ``seed`` is not an int.
    """
    objective = slack_function(T, inequality)
    # A float or a bool start count is refused as FuzzConfig refuses one for n.
    if not isinstance(starts, int) or isinstance(starts, bool):
        raise DomainError(f"starts must be an int, got {_shown(starts)}")
    if starts < 1:
        raise DomainError(f"starts must be >= 1, got {_shown(starts)}")
    # None would seed from os.urandom, so equal calls would differ.
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DomainError(f"seed must be an int, got {_shown(seed)}")
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


class ScanGrid(NamedTuple):
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

    Each row is the row of :func:`~barrow.inequalities.values_function` for
    SIGNED_BARROW30 at its cell center: the values ``evaluate`` reports
    there, bit for bit.  Vertex-coincident cells report the reduced vertex
    bound, with the two undefined bisector columns as NaN.  Raises
    DomainError when ``resolution`` is not an int of at least 2, when
    ``bbox`` is not a tuple or list of four int or float numbers (bools
    excluded), when the box is empty, or when its cells are too wide for
    floats.
    """
    # A float or a bool resolution is refused as FuzzConfig refuses one for n.
    if not isinstance(resolution, int) or isinstance(resolution, bool):
        raise DomainError(f"resolution must be an int, got {_shown(resolution)}")
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {_shown(resolution)}")
    # A bool would pass as 0 or 1, a string end in a bare TypeError and a
    # fifth coordinate in an unpacking ValueError.
    if not (isinstance(bbox, (tuple, list)) and len(bbox) == 4 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in bbox)):
        raise DomainError(f"bbox must be four int or float numbers, got {_shown(bbox)}")
    x0, y0, x1, y1 = bbox
    if not (x1 > x0 and y1 > y0):
        raise DomainError(f"empty bounding box {_shown(bbox)}")
    try:
        dx = (x1 - x0) / resolution
        dy = (y1 - y0) / resolution
        xs = [x0 + (ix + 0.5) * dx for ix in range(resolution)]
        ys = [y0 + (iy + 0.5) * dy for iy in range(resolution)]
        too_wide = not (math.isfinite(dx) and math.isfinite(dy))
    except OverflowError:  # an int beyond the float range raises where a float reads inf
        too_wide = True
    if too_wide:
        raise DomainError(f"bounding box {_shown(bbox)} is too wide: its cells overflow the float range")
    row = values_function(T, InequalityId.SIGNED_BARROW30)
    # ``tuple.__new__`` builds the same row as ``ScanRow(...)`` without the
    # generated ``__new__``, a Python function.
    rows = [tuple.__new__(ScanRow, row(x, y)) for y in ys for x in xs]
    return ScanGrid(bbox=bbox, resolution=resolution, rows=rows)
