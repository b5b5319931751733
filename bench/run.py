"""Benchmark of barrow's three user jobs: fuzz, grid scan with emission, search.

Usage (from the root of a checkout):

    python3 bench/run.py --workload fuzz-mixed --seed 1 --seconds 30 --trace 0

Workloads: fuzz-mixed, scan-emit, tighten-multi (see bench/NOTES.md).  With
``--trace 0`` the run times the workload untraced on one worker and prints
the end-to-end metrics.  With ``--trace 1`` it times one and two workers,
then replays the workload's inputs through every layer with spans recorded
in memory, and prints the per-layer metrics.
Every run checks the program's outputs.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
checkout holds no barrow sources or the arguments are wrong.  Result and
span files go to ``bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
GOLDEN = ROOT / "tests" / "data"

#: Set-up measurements per untraced run, each the fastest of
#: ``SETUP_BURST`` probes spread over the timed phase.
SETUP_MEASUREMENTS = 8
SETUP_BURST = 3
#: A traced run times one and two workers in these shares of --seconds and
#: replays the inputs after them; an untraced run times one worker only.
TRACED_W1_SHARE = 0.3
TRACED_W2_SHARE = 0.2
#: Rounds over the same calls; each call keeps its fastest round.
MIN_ROUNDS = 3
#: Share of --seconds an untraced run measures.  A round of the 100
#: searches takes seven seconds or more, and a scan call is long and its
#: p90 rests on a dozen calls, so those two workloads get the whole run for
#: their rounds; the fuzz calls, many and short, need 60 % of it.
PHASE_SHARE = {"fuzz-mixed": 0.6, "scan-emit": 1.0, "tighten-multi": 1.0}


def read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except (OSError, ValueError):
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg_before": read_loadavg(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class SetupProbe:
    """Import plus input building timed in fresh interpreters, in seconds.

    The timed phase calls ``between`` after each call, and a probe runs
    whenever ``interval`` seconds have passed since the last one, so the
    probes spread evenly over the phase.  Measurement ``k`` is the fastest of
    probes ``k``, ``k + 8`` and ``k + 16``: three probes seconds apart, which
    filters the stretches of a second or more in which a core of a shared
    machine runs slow, as back-to-back probes cannot.  The first probe
    compiles and caches bytecode and is not counted.
    """

    def __init__(self, workload: str, seed: int, phase_s: float):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(SRC)]
        self.probes: list[float] = []
        self.interval = phase_s / (SETUP_MEASUREMENTS * SETUP_BURST)
        self.due = 0.0
        self._run()

    def _run(self) -> float:
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        if Path(probe["barrow"]).resolve().parent != SRC / "barrow":
            raise RuntimeError(f"set-up probe imported {probe['barrow']}")
        return probe["import_s"] + probe["build_s"]

    def between(self) -> None:
        if len(self.probes) < SETUP_MEASUREMENTS * SETUP_BURST and time.perf_counter() >= self.due:
            self.probes.append(self._run())
            self.due = time.perf_counter() + self.interval

    def median(self) -> float:
        while len(self.probes) < SETUP_MEASUREMENTS * SETUP_BURST:
            self.probes.append(self._run())
        return statistics.median(
            min(self.probes[k::SETUP_MEASUREMENTS]) for k in range(SETUP_MEASUREMENTS))


def _no_probe() -> None:
    pass


class Tally:
    """Attempted and failed operations, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        self.add(1, 0 if ok else 1, None if ok else problem)


# ------------------------------------------------------------------- phases


def measure(phase_s: float, calls, job, pool, record, between=_no_probe) -> dict:
    """Run the same calls in rounds until ``phase_s`` has passed.

    Each call keeps its fastest time over at least ``MIN_ROUNDS`` rounds.
    On a shared machine the speed of a core drifts by up to 1.9x for
    seconds at a time; the fastest of many spaced repeats of the same work is
    its least disturbed measurement.  A job that times its stages returns
    them as ``stages``; its call time is then the sum of each stage's
    fastest time, because a short stage finds an undisturbed stretch more
    often than the whole call does.  Every result of every round is checked
    by ``record``.  With a ``pool`` two calls run at once and the rate
    counts both workers busy.
    """
    def run_round():
        if pool is None:
            return (job(*args) for args in calls)
        return pool.map(job, *zip(*calls))

    stage_best: list[dict] = [{} for _ in calls]
    items = [0] * len(calls)
    t0 = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 < phase_s:
        for i, res in enumerate(run_round()):
            record(i, res)
            for stage, seconds in (res.get("stages") or {"call": res["seconds"]}).items():
                stage_best[i][stage] = min(stage_best[i].get(stage, math.inf), seconds)
            items[i] = res["items"]
            between()
        rounds += 1
    best = [sum(stages.values()) for stages in stage_best]
    return {"calls": len(calls), "rounds": rounds, "items": sum(items), "best_s": best,
            "wall_s": time.perf_counter() - t0,
            "rate": (1 if pool is None else 2) * sum(items) / sum(best)}


def spawn_pool() -> ProcessPoolExecutor:
    """Two spawned workers, each running whole jobs, as two users would."""
    pool = ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"))
    list(pool.map(time.sleep, (0.3, 0.3)))  # start and import both workers before timing
    return pool


def run_phases(job, calls_w1, calls_w2, seconds, record, w2_in_program, setup) -> dict:
    """The one-worker phase and, in a traced run (no ``setup``), the two-worker one.

    With ``w2_in_program`` the program runs its own two workers inside each
    call; otherwise two benchmark workers run the calls side by side.
    """
    for args in calls_w1[:2]:
        job(*args)  # warm-up
    if setup is not None:
        return {1: measure(seconds, calls_w1, job, None, record, setup.between)}
    phases = {1: measure(TRACED_W1_SHARE * seconds, calls_w1, job, None, record)}
    w2_s = TRACED_W2_SHARE * seconds
    if w2_in_program:
        job(*calls_w2[0])
        phases[2] = measure(w2_s, calls_w2, job, None, record)
    else:
        with spawn_pool() as pool:
            phases[2] = measure(w2_s, calls_w2, job, pool, record)
    return phases


# ----------------------------------------------------------------- fuzz-mixed


def run_fuzz(W, inputs: dict, seconds: float, tally: Tally, setup) -> dict:
    check = inputs["check"]
    one = W.fuzz_job(check, 1)["report"]
    two = W.fuzz_job(check, 2)["report"]
    same = one is not None and two is not None and W.report_json(one) == W.report_json(two)
    tally.check(same, "fuzz JSON differs between workers=1 and workers=2")

    keys: set = set()

    def record(i: int, res: dict) -> None:
        bad = res["failed"]
        tally.add(res["items"], bad,
                  f"fuzz call {i}: {bad} samples failed {res.get('error', 'the slack check')}"
                  if bad else None)
        if res["report"] is not None:
            keys.update(res["report"].cells)
        res["report"] = None

    phases = run_phases(W.fuzz_job, [(c, 1) for c in inputs["w1"]],
                        [(c, 2) for c in inputs["w2"]], seconds, record, True, setup)
    problems = W.fuzz_coverage_problems(keys)
    tally.check(not problems, "; ".join(problems))
    return phases


# ------------------------------------------------------------------ scan-emit


def golden_scan_ok(W) -> tuple[bool, bool]:
    from barrow import grid_scan
    from barrow.svgmap import render_region_map

    T = W.triangle((0.0, 0.0, 4.0, 0.0, 1.0, 2.0))
    grid = grid_scan(T, (-1.0, -1.0, 5.0, 3.0), 24)
    plain = render_region_map(grid, T).encode("ascii")
    heat = render_region_map(grid, T, heatmap=True).encode("ascii")
    return (
        plain == (GOLDEN / "scalene_regions_24.svg").read_bytes(),
        heat == (GOLDEN / "scalene_slack_24.svg").read_bytes(),
    )


def run_scan(W, inputs: dict, seconds: float, tally: Tally, setup, seed: int) -> dict:
    plain_ok, heat_ok = golden_scan_ok(W)
    tally.check(plain_ok, "region map differs from tests/data/scalene_regions_24.svg")
    tally.check(heat_ok, "slack map differs from tests/data/scalene_slack_24.svg")

    jobs = inputs["jobs"]
    digests: dict[int, tuple[str, str]] = {}
    mismatches = set()
    timings = []

    def record(i: int, res: dict) -> None:
        bad = res["failed"]
        why = res.get("error") or res.get("problems") or "the slack check"
        tally.add(res["items"], bad, f"scan job {i}: {bad} cells failed {why}" if bad else None)
        if "csv_sha256" in res:
            pair = (res["csv_sha256"], res["svg_sha256"])
            if digests.setdefault(i, pair) != pair:
                mismatches.add(i)
            timings.append(res)

    phases = run_phases(W.scan_job, jobs, jobs, seconds, record, False, setup)
    tally.check(not mismatches, f"scan output changed between repeats of jobs {sorted(mismatches)}")
    expected = json.loads((BENCH / "digests.json").read_text()).get(str(seed))
    if expected is not None:
        tally.check(list(digests.get(0, ())) == expected,
                    f"scan digests of seed {seed} differ from bench/digests.json")
    phases["digests"] = {str(k): list(v) for k, v in sorted(digests.items())}
    one_worker = timings[: phases[1]["calls"] * phases[1]["rounds"]]  # phase 1 runs first
    phases["jobs"] = [{k: v for k, v in t.items() if k.endswith(("_s", "_bytes"))}
                      for t in one_worker]
    return phases


# -------------------------------------------------------------- tighten-multi


def equilateral_checks(W, seed: int, tally: Tally) -> None:
    from barrow import InequalityId

    c = (0.0, 0.0, 1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0)
    # The weighted bound's slack is flat to fourth order at the circumcenter,
    # so a slack within 1e-9 only pins its minimizer to about 1e-4.
    for ineq, offset in ((InequalityId.BARROW1, 1e-6), (InequalityId.SIGNED_BARROW30, 1e-3)):
        res = W.search_job(c, ineq.value, seed)
        ok = not res["failed"]
        if ok:
            x, y = res["point"]
            ok = abs(res["slack"]) <= 1e-9
            ok = ok and math.hypot(x - 0.5, y - math.sqrt(3.0) / 6.0) <= offset
        tally.check(ok, f"{ineq.value} search on the equilateral missed the circumcenter: {res}")


def run_tighten(W, inputs: dict, seconds: float, tally: Tally, setup, seed: int) -> dict:
    equilateral_checks(W, seed, tally)
    specs = inputs["specs"]

    def record(i: int, res: dict) -> None:
        tally.add(1, res["failed"], f"search {specs[i]}: {res}" if res["failed"] else None)

    # Two workers run half the searches; their rounds take a quarter of the time.
    return run_phases(W.search_job, specs, specs[: len(specs) // 2], seconds, record, False,
                      setup)


# ---------------------------------------------------------------------- main


def end_to_end(phases: dict, setup_s: float) -> dict:
    from spans import percentile

    lat_ms = [x * 1000.0 for x in phases[1]["best_s"]]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "items_per_s": (phases[1]["rate"], "1/s"),
        "call_ms_p50": (percentile(lat_ms, 50), "ms"),
        "call_ms_p90": (percentile(lat_ms, 90), "ms"),
    }


def stop_helpers() -> None:
    """Stop the helper processes multiprocessing leaves behind, and wait for them.

    A spawn pool starts a resource tracker, and a forkserver pool a fork
    server; both outlive the pool and end only some time after this process
    exits.  Stopping them here, and joining any child still known to
    multiprocessing, leaves no process of the run behind.
    """
    for child in multiprocessing.active_children():
        child.join(10)
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(resource_tracker, "_resource_tracker", None),
                   getattr(forkserver, "_forkserver", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_helpers()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "barrow" / "__init__.py").is_file():
        print(f"no barrow sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import barrow

    if Path(barrow.__file__).resolve().parent != SRC / "barrow":
        print(f"imported barrow from {barrow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {W.WORKLOADS}", file=sys.stderr)
        return 2

    env = environment()
    tally = Tally()
    seconds = args.seconds if args.trace else PHASE_SHARE[args.workload] * args.seconds
    setup = None if args.trace else SetupProbe(args.workload, args.seed, seconds)
    inputs = W.build_inputs(args.workload, args.seed)
    if args.workload == "fuzz-mixed":
        phases = run_fuzz(W, inputs, seconds, tally, setup)
    elif args.workload == "scan-emit":
        phases = run_scan(W, inputs, seconds, tally, setup, args.seed)
    else:
        phases = run_tighten(W, inputs, seconds, tally, setup, args.seed)

    extra = {}
    if args.trace:
        import spans

        metrics, extra = spans.per_layer(args.workload, args.seed, inputs, phases, env, OUT)
    else:
        metrics = end_to_end(phases, setup.median())
    env["loadavg_after"] = read_loadavg()

    failed_ratio = tally.failed / max(1, tally.attempted)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ops_ratio": failed_ratio,
        "problems": tally.problems[:50],
        "phases": {f"w{k}": {kk: vv for kk, vv in phases[k].items() if kk != "best_s"}
                   for k in (1, 2) if k in phases},
        "scan_digests": phases.get("digests"),
        **extra,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# env: {json.dumps(env)}")
    for problem in tally.problems[:20]:
        print(f"# FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ops_ratio = {failed_ratio:.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    if extra:
        print(f"# trace: {json.dumps(extra['trace'])}")
    print(f"# result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
