"""The traced replay: per-layer timings from spans recorded in memory.

The replay regenerates a workload's inputs and calls the public function of
each layer on them from here, so no program code changes.  Every call is a
span ``(span id, parent id, operation id, name, start ns, end ns)``.  One
operation is one fuzz sample, one scan cell or one search; its spans share
the operation id.  A point span groups the layer calls made at one point,
so ``evaluate``'s self time is its span minus the spans of the calls it
makes, replayed separately at the same point.
The replay alternates passes with and without recording on the same inputs;
the ratio of their fastest passes is the tracing overhead.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from pathlib import Path

from barrow import Point2, Triangle
from barrow.bisectors import bisector_lengths, signed_bisectors
from barrow.errors import GeometryError, OutsideInterior
from barrow.geom import barycentric, signed_distances, vertex_distances
from barrow.harness import (
    DEFAULT_HEIGHT_BAND,
    SIDELINE_HEIGHT_BAND,
    STRATA,
    sample_point,
    sample_triangle,
)
from barrow.inequalities import (
    INTERIOR_IDS,
    VERTEX_IDS,
    InequalityId,
    classic_reports,
    dergiades_report,
    evaluate,
    lu_weights,
)
from barrow.regions import DEFAULT_EPS, Region, classify

from workloads import triangle

#: Calls a fuzz sample makes; the fold/merge residual subtracts their time.
FUZZ_SAMPLE_CALLS = (
    "harness.sample_triangle",
    "harness.sample_point",
    "geom.vertex_distances",
    "inequalities.evaluate",
    "inequalities.dergiades_report",
    "inequalities.classic_reports",
)

#: Layer calls whose time ``evaluate`` contains; the rest is report building.
EVALUATE_CHILDREN = (
    "regions.classify",
    "geom.vertex_distances",
    "inequalities.lu_weights",
    "bisectors.signed_bisectors",
)

#: tightness_search draws its default 14 starts from these strata: the
#: interior for the interior-only bounds, the seven regions in turn otherwise.
SEARCH_STARTS = 14
SEARCH_CYCLE = STRATA[:7]


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    """Records spans in a list; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[list] = []

    def begin(self, name: str, parent, op: int) -> int:
        sid = len(self.spans)
        self.spans.append([sid, parent, op, name, time.perf_counter_ns(), 0])
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter_ns()

    def call(self, parent, op: int, name: str, fn, *args):
        rec = [len(self.spans), parent, op, name, 0, 0]
        self.spans.append(rec)
        rec[4] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[5] = time.perf_counter_ns()


class NullTracer:
    """Same interface, records nothing: the untraced pass of the replay."""

    def begin(self, name, parent, op):
        return None

    def end(self, sid):
        pass

    def call(self, parent, op, name, fn, *args):
        return fn(*args)


def kernel_point(tr, parent, op: int, T: Triangle, M) -> Region:
    """Call every kernel layer at one point; returns the evaluated region.

    The same calls run at every point of every workload, so a layer's
    per-call figure is comparable across workloads; only the points differ.
    """
    pid = tr.begin("point", parent, op)
    tr.call(pid, op, "geom.barycentric", barycentric, T, M)
    R = tr.call(pid, op, "geom.vertex_distances", vertex_distances, T, M)
    tr.call(pid, op, "geom.signed_distances", signed_distances, T, M)
    region = tr.call(pid, op, "regions.classify", classify, T, M)
    rep = tr.call(pid, op, "inequalities.evaluate", evaluate, T, M)
    if rep.inequality not in VERTEX_IDS:
        tr.call(pid, op, "inequalities.lu_weights", lu_weights, R)
        tr.call(pid, op, "bisectors.signed_bisectors", signed_bisectors, T, M)
        tr.call(pid, op, "bisectors.bisector_lengths", bisector_lengths, T, M)
    tr.call(pid, op, "inequalities.dergiades_report", dergiades_report, T, M)
    if region is Region.LAMBDA0:
        tr.call(pid, op, "inequalities.classic_reports", classic_reports, T, M)
    else:
        try:
            tr.call(pid, op, "inequalities.classic_reports_reject", classic_reports, T, M)
        except OutsideInterior:
            pass
    tr.end(pid)
    return rep.region


# ------------------------------------------------------------------- streams


def _pick_stratum(rng: random.Random, mix: dict) -> str:
    """The stratum draw that opens every fuzz sample stream."""
    x = rng.random()
    acc = 0.0
    for name in STRATA:
        acc += mix.get(name, 0.0)
        if x < acc:
            return name
    return STRATA[-1]


def _landed(T: Triangle, M, stratum: str) -> bool:
    if stratum == "sideline":
        return min(abs(x) for x in barycentric(T, M).as_tuple()) <= DEFAULT_EPS
    if stratum == "near-vertex":
        return min(math.hypot(M.x - V.x, M.y - V.y) for V in T.vertices) <= 1e-6 * T.diameter
    return classify(T, M).value == stratum


class Stream:
    """Replayed operations of one kind, with their exact counts."""

    def __init__(self):
        self.ops = 0
        self.points = 0
        self.reports = 0
        self.errors = 0
        self.requested: dict[str, int] = {}
        self.landed: dict[str, int] = {}


def replay_fuzz(tr, stream: Stream, configs) -> None:
    """Replay fuzz samples exactly as ``fuzz`` draws and evaluates them."""
    for cfg in configs:
        for i in range(cfg.n):
            op = stream.ops
            stream.ops += 1
            oid = tr.begin("op.sample", None, op)
            rng = random.Random(cfg.seed ^ i)
            stratum = _pick_stratum(rng, cfg.region_mix)
            band = DEFAULT_HEIGHT_BAND
            if cfg.triangle_shape == "near-degenerate" and stratum == "sideline":
                band = SIDELINE_HEIGHT_BAND
            T = tr.call(oid, op, "harness.sample_triangle", sample_triangle,
                        rng, cfg.triangle_shape, None, band)
            M = tr.call(oid, op, "harness.sample_point", sample_point, rng, T, stratum)
            tr.call(oid, op, "geom.triangle_init", Triangle, T.A, T.B, T.C)
            try:
                region = kernel_point(tr, oid, op, T, M)
                stream.reports += 4 if region is Region.LAMBDA0 else 2
            except GeometryError:
                stream.errors += 1
            stream.points += 1
            tr.end(oid)
            shape = cfg.triangle_shape
            stream.requested[shape] = stream.requested.get(shape, 0) + 1
            stream.landed[shape] = stream.landed.get(shape, 0) + _landed(T, M, stratum)


def replay_scan(tr, stream: Stream, job) -> None:
    """Replay the cells of one scan, in grid order."""
    c, (x0, y0, x1, y1), res = job
    T = triangle(c)
    dx = (x1 - x0) / res
    dy = (y1 - y0) / res
    for iy in range(res):
        y = y0 + (iy + 0.5) * dy
        for ix in range(res):
            op = stream.ops
            stream.ops += 1
            oid = tr.begin("op.cell", None, op)
            tr.call(oid, op, "geom.triangle_init", Triangle, T.A, T.B, T.C)
            try:
                kernel_point(tr, oid, op, T, Point2(x0 + (ix + 0.5) * dx, y))
                stream.reports += 1
            except GeometryError:
                stream.errors += 1
            stream.points += 1
            tr.end(oid)


def replay_search(tr, stream: Stream, specs) -> None:
    """Replay the start simplices of searches: each start and its two steps.

    ``tightness_search`` draws its starts with ``sample_point`` from
    ``random.Random(seed)`` and opens its simplex at the start and one step
    of 0.05 diameter along each axis; the later simplex points are not
    observable from outside the search.
    """
    for c, ineq_value, seed in specs:
        op = stream.ops
        stream.ops += 1
        oid = tr.begin("op.search", None, op)
        T = triangle(c)
        tr.call(oid, op, "geom.triangle_init", Triangle, T.A, T.B, T.C)
        ineq = InequalityId(ineq_value)
        rng = random.Random(seed)
        interior = ineq in INTERIOR_IDS
        step = 0.05 * T.diameter
        for k in range(SEARCH_STARTS):
            target = "lambda0" if interior else SEARCH_CYCLE[k % len(SEARCH_CYCLE)]
            M0 = tr.call(oid, op, "harness.sample_point", sample_point, rng, T, target)
            for M in (M0, Point2(M0.x + step, M0.y), Point2(M0.x, M0.y + step)):
                try:
                    region = kernel_point(tr, oid, op, T, M)
                except GeometryError:
                    stream.errors += 1
                    continue
                stream.points += 1
                if ineq in (InequalityId.BARROW1, InequalityId.ERDOS_MORDELL2):
                    stream.reports += 2 if region is Region.LAMBDA0 else 0
                else:
                    stream.reports += 1
        tr.end(oid)


# ------------------------------------------------------------------- metrics


def durations_us(spans) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for _, _, _, name, t0, t1 in spans:
        out.setdefault(name, []).append((t1 - t0) / 1000.0)
    return out


def evaluate_self_us(spans) -> float:
    """Median over points of evaluate minus the layer calls it makes."""
    per_point: dict[int, dict[str, float]] = {}
    for _, parent, _, name, t0, t1 in spans:
        if name == "inequalities.evaluate" or name in EVALUATE_CHILDREN:
            per_point.setdefault(parent, {})[name] = (t1 - t0) / 1000.0
    selfs = [
        d["inequalities.evaluate"] - sum(d[n] for n in EVALUATE_CHILDREN)
        for d in per_point.values()
        if all(n in d for n in EVALUATE_CHILDREN) and "inequalities.evaluate" in d
    ]
    return statistics.median(selfs)


def timed_pass(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


# ----------------------------------------------------------------- the run

#: Replay sizes: fuzz calls (100 samples each), searches.  The scan replay
#: takes every cell of the first grid.
REPLAY_FUZZ_CALLS = 30
REPLAY_SEARCHES = 30
#: Sampling and fold/merge probe of the workloads that do not fuzz.
PROBE_FUZZ_CALLS = 18
#: Emission probe of the workloads that do not scan: cells per axis, repeats.
PROBE_SCAN_RESOLUTION = 32
PROBE_SCAN_REPEATS = 3
#: Replay passes, untraced and traced alternating.  Each figure that
#: compares two timings takes the fastest pass of each side.
REPLAY_ROUNDS = 5


def _spans_per_call(spans, n: int, calls: int) -> list[float]:
    """Seconds the calls a fuzz sample makes took, per fuzz call of n samples."""
    out = [0.0] * calls
    for _, _, op, name, t0, t1 in spans:
        if name in FUZZ_SAMPLE_CALLS:
            out[op // n] += (t1 - t0) / 1e9
    return out


def _fold_merge(W, configs, span_seconds) -> tuple[float, int]:
    """Residual of ``fuzz`` over the replayed sampling and kernel calls.

    Per fuzz call, the fastest untraced ``fuzz`` minus the fastest traced
    replay of the same samples; also returns the reports ``fuzz`` built.
    """
    best = [math.inf] * len(configs)
    reports = 0
    for r in range(REPLAY_ROUNDS):
        for k, cfg in enumerate(configs):
            res = W.fuzz_job(cfg, 1)
            best[k] = min(best[k], res["seconds"])
            if r == 0 and res["report"] is not None:
                reports += res["report"].total_reports
    replayed = [min(per_pass[k] for per_pass in span_seconds) for k in range(len(configs))]
    return sum(best) - sum(replayed), reports


def per_layer(workload: str, seed: int, inputs: dict, phases: dict, env: dict, out: Path):
    """Replay the workload through every layer; returns (metrics, extra).

    The spans of the last traced pass go to a file in ``out``.
    """
    import workloads as W

    if workload == "fuzz-mixed":
        fuzz_configs = inputs["w1"][:REPLAY_FUZZ_CALLS]

        def replay(tr, stream):
            replay_fuzz(tr, stream, fuzz_configs)
    elif workload == "scan-emit":
        def replay(tr, stream):
            replay_scan(tr, stream, inputs["jobs"][0])
    else:
        def replay(tr, stream):
            replay_search(tr, stream, inputs["specs"][:REPLAY_SEARCHES])

    # Sampling and fold/merge come from fuzz samples: the workload's own on
    # fuzz-mixed, a small seed-drawn probe elsewhere.
    if workload != "fuzz-mixed":
        fuzz_configs = W.fuzz_configs(seed, "probe", PROBE_FUZZ_CALLS, W.FUZZ_CALL_N)
    n = W.FUZZ_CALL_N
    plain, traced, fuzz_span_s = [], [], []
    for _ in range(REPLAY_ROUNDS):
        plain.append(timed_pass(replay, NullTracer(), Stream()))
        own_tr, own = Tracer(), Stream()
        traced.append(timed_pass(replay, own_tr, own))
        if workload == "fuzz-mixed":
            fuzz_tr, fuzz_stream = own_tr, own
        else:
            fuzz_tr, fuzz_stream = Tracer(), Stream()
            replay_fuzz(fuzz_tr, fuzz_stream, fuzz_configs)
        fuzz_span_s.append(_spans_per_call(fuzz_tr.spans, n, len(fuzz_configs)))
    plain_s = min(plain)
    traced_s = min(traced)
    fold_merge_s, fuzz_reports = _fold_merge(W, fuzz_configs, fuzz_span_s)

    # Emission comes from the timed scans on scan-emit, a small probe elsewhere.
    if workload == "scan-emit":
        jobs = phases["jobs"]
    else:
        c = W.scan_triangles(seed, 1)[0]
        bbox = W.default_bbox(W.triangle(c))
        jobs = [W.scan_job(c, bbox, PROBE_SCAN_RESOLUTION) for _ in range(PROBE_SCAN_REPEATS)]

    d = durations_us(own_tr.spans)
    f = durations_us(fuzz_tr.spans)
    med = statistics.median
    sampling = d if "harness.sample_point" in d else f
    w1_rate = phases[1]["rate"]
    w2_rate = phases[2]["rate"]
    m = {
        "geom.triangle_init_us": (med(d["geom.triangle_init"]), "us"),
        "geom.barycentric_us": (med(d["geom.barycentric"]), "us"),
        "geom.vertex_distances_us": (med(d["geom.vertex_distances"]), "us"),
        "geom.signed_distances_us": (med(d["geom.signed_distances"]), "us"),
        "regions.classify_us": (med(d["regions.classify"]), "us"),
        "bisectors.signed_bisectors_us": (med(d["bisectors.signed_bisectors"]), "us"),
        "bisectors.bisector_lengths_us": (med(d["bisectors.bisector_lengths"]), "us"),
        "inequalities.evaluate_us_p50": (percentile(d["inequalities.evaluate"], 50), "us"),
        "inequalities.evaluate_us_p99": (percentile(d["inequalities.evaluate"], 99), "us"),
        "inequalities.evaluate_self_us": (evaluate_self_us(own_tr.spans), "us"),
        "inequalities.lu_weights_us": (med(d["inequalities.lu_weights"]), "us"),
        "inequalities.dergiades_report_us": (med(d["inequalities.dergiades_report"]), "us"),
        "inequalities.classic_reports_us": (med(d["inequalities.classic_reports"]), "us"),
        "inequalities.classic_reports_reject_us": (
            med(d["inequalities.classic_reports_reject"]), "us"),
        "inequalities.reports_per_sample": (own.reports / own.points, "count"),
        "harness.sample_triangle_us": (med(f["harness.sample_triangle"]), "us"),
        "harness.sample_point_us": (med(sampling["harness.sample_point"]), "us"),
        "harness.stratum_hit_ratio": (
            sum(fuzz_stream.landed.values()) / sum(fuzz_stream.requested.values()), "ratio"),
    }
    for shape in sorted(fuzz_stream.requested):
        m[f"harness.stratum_hit_ratio.{shape}"] = (
            fuzz_stream.landed[shape] / fuzz_stream.requested[shape], "ratio")
    m.update({
        "harness.fold_merge_s": (fold_merge_s, "s"),
        "harness.items_per_s_w2": (w2_rate, "1/s"),
        "harness.parallel_efficiency": (w2_rate / (2.0 * w1_rate), "ratio"),
        "harness.grid_scan_s": (med(j["grid_s"] for j in jobs), "s"),
        "cli.write_csv_s": (med(j["csv_s"] for j in jobs), "s"),
        "cli.csv_bytes": (med(j["csv_bytes"] for j in jobs), "bytes"),
        "svgmap.render_s": (med(j["svg_s"] for j in jobs), "s"),
        "svgmap.svg_bytes": (med(j["svg_bytes"] for j in jobs), "bytes"),
    })

    out.mkdir(exist_ok=True)
    span_file = out / f"spans-{workload}-seed{seed}.json"
    fields = ["span_id", "parent_id", "op_id", "name", "start_ns", "end_ns"]
    streams = {workload: own_tr.spans}
    if fuzz_tr is not own_tr:
        streams["fuzz-probe"] = fuzz_tr.spans
    with open(span_file, "w", encoding="ascii") as handle:
        json.dump({"workload": workload, "seed": seed, "env": env, "fields": fields,
                   "streams": streams}, handle)
    trace = {
        "overhead": traced_s / plain_s - 1.0,
        "replay_untraced_s": plain_s,
        "replay_traced_s": traced_s,
        "spans": sum(len(v) for v in streams.values()),
        "span_file": str(span_file.relative_to(out.parent)),
        "replayed_ops": own.ops,
        "replay_errors": own.errors + fuzz_stream.errors,
        "fuzz_replay_source": "workload" if workload == "fuzz-mixed" else "probe",
        "fuzz_replay_faithful": fuzz_stream.reports == fuzz_reports,
        "emission_source": "workload" if workload == "scan-emit" else "probe",
        "fold_merge_samples": fuzz_stream.ops,
    }
    return m, {"trace": trace}
