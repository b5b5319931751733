"""End-to-end acceptance gate for the package.

Each test checks one shipping criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in failure output).  Tolerances are part of
the contract and are asserted literally; expected values come from
independent constructions in ``oracles.py`` or from closed-form limits.
"""

import math
import random
import time
from pathlib import Path

import numpy as np

from barrow import Point2, Triangle
from barrow.bisectors import bisector_length, bisector_lengths, signed_bisectors
from barrow.cli import main
from barrow.geom import barycentric, dist, signed_distances, vertex_distances
from barrow.harness import (
    DEFAULT_REGION_MIX,
    STRATA,
    FuzzConfig,
    fuzz,
    sample_point,
    sample_triangle,
    tightness_search,
)
from barrow.inequalities import (
    InequalityId,
    classic_reports,
    dergiades_report,
    evaluate,
    identity_residuals,
    lu_weights,
    stmt_slack,
)
from barrow.regions import OPEN_PATTERNS, classify, sign_pattern

from oracles import oracle_region, ray_bisector_length

DATA_DIR = Path(__file__).parent / "data"

EQUILATERAL = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, math.sqrt(3.0) / 2.0))
CIRCUMCENTER = Point2(0.5, math.sqrt(3.0) / 6.0)
SCALENE = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 2.0))

ALL_REGION_LABELS = {"lambda0", "mu1", "mu2", "mu3", "mu4", "mu5", "mu6"}


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_equality_case_equilateral_circumcenter():
    t0 = time.perf_counter()
    weighted = evaluate(EQUILATERAL, CIRCUMCENTER)
    barrow, erdos = classic_reports(EQUILATERAL, CIRCUMCENTER)
    dergiades = dergiades_report(EQUILATERAL, CIRCUMCENTER)
    slacks = {
        "weighted": weighted.slack,
        "barrow": barrow.slack,
        "erdos-mordell": erdos.slack,
        "dergiades": dergiades.slack,
    }
    elapsed = time.perf_counter() - t0
    worst = max(abs(s) for s in slacks.values())
    ok = worst <= 1e-12 and elapsed < 1.0
    ok = ok and all(r.tight for r in (weighted, barrow, erdos, dergiades))
    _verdict(
        "equality at the equilateral circumcenter for all four bounds",
        ok,
        f"max |slack| {worst:.3e}, {elapsed:.3f}s",
    )


def test_fuzz_nonnegativity_stratified_100k():
    t0 = time.perf_counter()
    random_run = fuzz(FuzzConfig(n=60000, seed=42))
    flat_run = fuzz(FuzzConfig(n=40000, seed=43, triangle_shape="near-degenerate"))
    elapsed = time.perf_counter() - t0

    ok = random_run.violation_count == 0 and flat_run.violation_count == 0
    ok = ok and elapsed < 60.0
    # The default mix draws every stratum: all seven regions plus sideline
    # (segments and extension rays) and near-vertex bands.
    ok = ok and all(DEFAULT_REGION_MIX[name] > 0.0 for name in STRATA)
    for run in (random_run, flat_run):
        regions = {key.split("/")[1] for key in run.cells}
        dergiades_regions = {
            key.split("/")[1] for key in run.cells if key.startswith("Dergiades3/")
        }
        ok = ok and regions >= ALL_REGION_LABELS and dergiades_regions == ALL_REGION_LABELS
        ok = ok and "LuWeighted13/lambda0" in run.cells
        ok = ok and {f"SignedBarrow30/mu{k}" for k in range(1, 7)} <= set(run.cells)
    _verdict(
        "100k stratified samples, zero slack below -1e-9 of the distance scale",
        ok,
        f"violations {random_run.violation_count}+{flat_run.violation_count}, {elapsed:.1f}s",
    )


def test_bisector_closed_forms_agree_and_match_foot_oracle():
    # The literal radical parenthesis (R_B+R_C)^2 - |BC|^2 cancels as the
    # apex angle approaches pi and the ray-intersection oracle loses its
    # conditioning as it approaches 0, so the random sweep keeps the angle
    # in [1e-3, pi - 0.1]; the near-line regime is covered separately by
    # the approach sequences below.
    rng = random.Random(20260815)
    accepted = 0
    bad = None
    while accepted < 100000:
        m = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        b = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        c = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        ux, uy = b[0] - m[0], b[1] - m[1]
        vx, vy = c[0] - m[0], c[1] - m[1]
        rb, rc = math.hypot(ux, uy), math.hypot(vx, vy)
        side = math.hypot(b[0] - c[0], b[1] - c[1])
        if rb < 1e-6 or rc < 1e-6 or side < 1e-6:
            continue
        cross, dot = ux * vy - uy * vx, ux * vx + uy * vy
        if cross == 0.0:
            continue
        alpha = math.atan2(abs(cross), dot)
        if not 1e-3 <= alpha <= math.pi - 0.1:
            continue
        accepted += 1
        half_angle = 2.0 * rb * rc / (rb + rc) * math.cos(0.5 * alpha)
        radical = math.sqrt(rb * rc * ((rb + rc) ** 2 - side * side)) / (rb + rc)
        lib = bisector_length(Point2(*m), Point2(*b), Point2(*c))
        foot = ray_bisector_length(m, b, c)
        if abs(half_angle - radical) > 1e-10 * max(half_angle, radical):
            bad = f"forms disagree at {m}, {b}, {c}"
            break
        if abs(lib - half_angle) > 1e-12 * half_angle:
            bad = f"library value off the closed form at {m}, {b}, {c}"
            break
        if abs(half_angle - foot) > 1e-9 * max(half_angle, foot) or abs(
            radical - foot
        ) > 1e-9 * max(radical, foot):
            bad = f"foot oracle disagrees at {m}, {b}, {c}"
            break

    # Collinear limits along approach sequences: toward the open segment the
    # value decays like the offset; toward the extension it converges to the
    # harmonic-mean scale 2*R_B*R_C/(R_B+R_C) = 1.5 quadratically.
    B, C = Point2(1.0, 0.0), Point2(3.0, 0.0)
    if bad is None:
        for k in range(3, 10):
            h = 10.0 ** -k
            for s in (h, -h):
                on = bisector_length(Point2(2.0, s), B, C)
                off = bisector_length(Point2(4.0, s), B, C)
                if not 0.0 < on <= 4.0 * h or abs(on - h) > 1e-6 * h:
                    bad = f"segment approach off at offset {s}"
                    break
                if abs(off - 1.5) > 10.0 * h * h + 1e-13:
                    bad = f"extension approach off at offset {s}"
                    break
            if bad:
                break
        if bisector_length(Point2(2.0, 0.0), B, C) != 0.0:
            bad = "exact on-segment value is not 0"
        if abs(bisector_length(Point2(4.0, 0.0), B, C) - 1.5) > 1e-15:
            bad = "exact extension value is not the harmonic mean"
    _verdict(
        "both bisector closed forms agree and match the foot oracle over 100k configurations",
        bad is None,
        bad or "forms 1e-10, oracle 1e-9, limits down to 1e-9 offsets",
    )


def test_scalar_identities_and_statement_slacks():
    rng = random.Random(11)
    bad = None
    for _ in range(10000):
        p, q, r = (10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3))
        beta = rng.uniform(0.0, math.pi)
        alpha = rng.uniform(beta, math.pi)
        res = identity_residuals(p, q, r, beta, alpha)
        if max(res) > 1e-12 * max(1.0, p + q + r):
            bad = f"identity residual {max(res)} at {(p, q, r, beta, alpha)}"
            break
    if bad is None:
        for _ in range(100000):
            p, q, r = (10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3))
            beta = rng.uniform(0.0, math.pi)
            gamma = rng.uniform(0.0, math.pi - beta)
            for kind in ("S1", "S2", "S3"):
                if stmt_slack(kind, p, q, r, beta, gamma) < -1e-12 * (p + q + r):
                    bad = f"{kind} negative at {(p, q, r, beta, gamma)}"
                    break
            if bad:
                break
    _verdict(
        "square-form identities within 1e-12 and statement slacks never negative",
        bad is None,
        bad or "10k identity tuples, 100k statement tuples",
    )


def test_region_classifier_matches_independent_oracle():
    rng = random.Random(5)
    bad = None
    for _ in range(100000):
        T = sample_triangle(rng)
        xs = (T.A.x, T.B.x, T.C.x)
        ys = (T.A.y, T.B.y, T.C.y)
        d = T.diameter
        mx = rng.uniform(min(xs) - 0.75 * d, max(xs) + 0.75 * d)
        my = rng.uniform(min(ys) - 0.75 * d, max(ys) + 0.75 * d)
        got = classify(T, Point2(mx, my)).value
        want = oracle_region((T.A.x, T.A.y), (T.B.x, T.B.y), (T.C.x, T.C.y), (mx, my))
        if got != want:
            bad = f"{got} != {want} at ({mx}, {my}) in {T}"
            break

    # Exact boundary constructions: vertices, points on the side segments and
    # on the extension rays.  All coordinates below are reached without
    # rounding, so both sides see exact zeros.
    if bad is None:
        for T in (
            Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)),
            EQUILATERAL,
            SCALENE,
            Triangle(Point2(-3.5, 2.25), Point2(4.75, -1.5), Point2(0.25, 6.0)),
        ):
            frames = ((T.B, T.C), (T.C, T.A), (T.A, T.B))
            points = [(v.x, v.y) for v in T.vertices]
            for P, Q in frames:
                for t in (0.25, 0.5, 0.75, -1.0, 2.0):
                    points.append((P.x + t * (Q.x - P.x), P.y + t * (Q.y - P.y)))
            for mx, my in points:
                got = classify(T, Point2(mx, my)).value
                want = oracle_region((T.A.x, T.A.y), (T.B.x, T.B.y), (T.C.x, T.C.y), (mx, my))
                if got != want:
                    bad = f"boundary {got} != {want} at ({mx}, {my}) in {T}"
                    break
            if bad:
                break
    _verdict(
        "classifier agrees with the side-of-line oracle on 100k random and all boundary points",
        bad is None,
        bad or "100% agreement",
    )


def test_signed_bisector_sign_coherence():
    rng = random.Random(6)
    bad = None
    checked = 0
    for i in range(20000):
        T = sample_triangle(rng)
        stratum = STRATA[i % len(STRATA)]
        M = sample_point(rng, T, stratum)
        rep = evaluate(T, M)
        if rep.region.is_vertex:
            continue
        checked += 1
        coords = barycentric(T, M).as_tuple()
        lp = signed_bisectors(T, M)
        snapped = sign_pattern(barycentric(T, M))
        pattern = OPEN_PATTERNS[rep.region]
        for coord, value, signed_value, snap, pat in zip(
            coords,
            [t.value for t in rep.terms],
            (lp.lp_a, lp.lp_b, lp.lp_c),
            snapped,
            pattern,
        ):
            if value != signed_value:
                bad = f"report term differs from the signed bisector at {M} in {T}"
                break
            if coord > 0.0 and not value > 0.0:
                bad = f"positive coordinate, non-positive term at {M} in {T}"
                break
            if coord < 0.0 and not value < 0.0:
                bad = f"negative coordinate, non-negative term at {M} in {T}"
                break
            if coord == 0.0 and value < 0.0:
                bad = f"zero coordinate, negative term at {M} in {T}"
                break
            # Off the snap band the term sign must equal the region's
            # canonical sign pattern entry.
            if snap != 0 and (snap != pat or (value > 0.0) != (pat > 0)):
                bad = f"pattern mismatch {snapped} vs {pattern} at {M} in {T}"
                break
        if bad:
            break
    ok = bad is None and checked >= 19000
    _verdict(
        "term signs equal barycentric signs exactly and follow the region pattern",
        ok,
        bad or f"{checked} points across all strata",
    )


def test_interior_reduction_and_distance_domination():
    rng = random.Random(7)
    bad = None
    for _ in range(10000):
        T = sample_triangle(rng)
        M = sample_point(rng, T, "lambda0")
        rep = evaluate(T, M)
        if rep.inequality is not InequalityId.LU_WEIGHTED13:
            bad = f"interior point dispatched to {rep.inequality.value} at {M} in {T}"
            break
        R = vertex_distances(T, M)
        w = lu_weights(R)
        ell = bisector_lengths(T, M)
        rhs = 0.0
        for weight, value in zip(w, (ell.l_a, ell.l_b, ell.l_c)):
            rhs += weight * value
        if rep.rhs != rhs:
            bad = f"weighted rhs not bit-identical to the interior form at {M} in {T}"
            break
        d = signed_distances(T, M)
        tol = 1e-12 * sum(R)
        if (
            ell.l_a < d.d_a - tol
            or ell.l_b < d.d_b - tol
            or ell.l_c < d.d_c - tol
        ):
            bad = f"bisector below the sideline distance at {M} in {T}"
            break
    _verdict(
        "interior dispatch reproduces the weighted form bit-for-bit and dominates distances",
        bad is None,
        bad or "10k interior points",
    )


def _slack_grid_min(T: Triangle, bbox, n: int):
    """Vectorized minimum of the plain bisector bound's slack over a grid."""
    x0, y0, x1, y1 = bbox
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    X, Y = np.meshgrid(xs, ys)

    def bary(P, Q):
        return ((P.x - X) * (Q.y - Y) - (P.y - Y) * (Q.x - X)) / (2.0 * T.area)

    inside = (bary(T.B, T.C) > 1e-9) & (bary(T.C, T.A) > 1e-9) & (bary(T.A, T.B) > 1e-9)

    def bisector(P, Q):
        ux, uy = P.x - X, P.y - Y
        vx, vy = Q.x - X, Q.y - Y
        rp, rq = np.hypot(ux, uy), np.hypot(vx, vy)
        alpha = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)
        return 2.0 * rp * rq / (rp + rq) * np.cos(0.5 * alpha), rp

    la, rb = bisector(T.B, T.C)
    lb, rc = bisector(T.C, T.A)
    lc, ra = bisector(T.A, T.B)
    slack = np.where(inside, (ra + rb + rc) - 2.0 * (la + lb + lc), np.inf)
    k = int(np.argmin(slack))
    iy, ix = divmod(k, n)
    return float(slack.flat[k]), float(X[iy, ix]), float(Y[iy, ix])


def test_tightness_search_equilateral_and_scalene_grid_oracle():
    pt, slack = tightness_search(EQUILATERAL, InequalityId.BARROW1, starts=8, seed=3)
    ok = dist(pt, CIRCUMCENTER) <= 1e-6 * EQUILATERAL.diameter and abs(slack) <= 1e-9
    detail = f"equilateral offset {dist(pt, CIRCUMCENTER):.2e}, slack {slack:.2e}"

    if ok:
        _, found = tightness_search(SCALENE, InequalityId.BARROW1, starts=8, seed=11)
        xs = (SCALENE.A.x, SCALENE.B.x, SCALENE.C.x)
        ys = (SCALENE.A.y, SCALENE.B.y, SCALENE.C.y)
        bbox = (min(xs), min(ys), max(xs), max(ys))
        n = 2000
        oracle, cx, cy = _slack_grid_min(SCALENE, bbox, n)
        for _ in range(2):
            wx = 2.0 * (bbox[2] - bbox[0]) / n
            wy = 2.0 * (bbox[3] - bbox[1]) / n
            bbox = (cx - wx, cy - wy, cx + wx, cy + wy)
            oracle, cx, cy = _slack_grid_min(SCALENE, bbox, n)
        ok = found > 0.0 and oracle > 0.0 and abs(found - oracle) <= 1e-6 * oracle
        detail += f"; scalene search {found:.12e} vs grid {oracle:.12e}"
    _verdict(
        "slack minimization hits the circumcenter and matches the refined grid oracle",
        ok,
        detail,
    )


def test_cli_determinism_csv_header_svg_goldens(capsys, tmp_path):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    ok = True
    detail = ""

    code1, summary1 = run("fuzz", "--n", "100000", "--seed", "42")
    code2, summary2 = run("fuzz", "--n", "100000", "--seed", "42", "--workers", "2")
    ok = code1 == 0 and code2 == 0 and summary1 == summary2
    if not ok:
        detail = "summary output differs across worker counts"

    if ok:
        _, json1 = run("fuzz", "--n", "100000", "--seed", "42", "--json")
        _, json3 = run("fuzz", "--n", "100000", "--seed", "42", "--json", "--workers", "3")
        ok = json1 == json3
        if not ok:
            detail = "JSON report differs across worker counts"

    if ok:
        code, out = run("scan", "--triangle", "0,0;4,0;1,2", "--bbox=-1,-1,5,3",
                        "--resolution", "8")
        ok = code == 0 and out.splitlines()[0] == "x,y,region,R_A,R_B,R_C,lp_a,lp_b,lp_c,lhs,rhs,slack"
        if not ok:
            detail = "CSV header is not the specified byte sequence"

    if ok:
        plain = tmp_path / "regions.svg"
        heat = tmp_path / "slack.svg"
        run("scan", "--triangle", "0,0;4,0;1,2", "--bbox=-1,-1,5,3", "--resolution", "24",
            "--out", str(tmp_path / "grid.csv"), "--svg", str(plain))
        run("scan", "--triangle", "0,0;4,0;1,2", "--bbox=-1,-1,5,3", "--resolution", "24",
            "--out", str(tmp_path / "grid2.csv"), "--svg", str(heat), "--heatmap")
        ok = plain.read_bytes() == (DATA_DIR / "scalene_regions_24.svg").read_bytes()
        ok = ok and heat.read_bytes() == (DATA_DIR / "scalene_slack_24.svg").read_bytes()
        if not ok:
            detail = "SVG output differs from the golden files"

    _verdict(
        "fuzz reports are worker-count independent, CSV header exact, SVGs match goldens",
        ok,
        detail or "byte-identical outputs",
    )
