"""Command-line interface: classify, eval, fuzz, scan, tighten.

Exit codes: 0 success, 1 fuzz found violations, 2 bad usage, 3 geometric or
domain errors (degenerate triangle, point outside a required region, ...).

All stdout is deterministic for a fixed invocation: JSON objects are printed
one per line with compact separators, CSV numbers carry 17 significant
digits (lossless for 64-bit floats), and SVG output uses fixed formatting.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .errors import GeometryError, UsageError
from .geom import Point2, PointFrame, Triangle
from .harness import (
    DEFAULT_STARTS,
    TRIANGLE_SHAPES,
    FuzzConfig,
    ScanGrid,
    ScanRow,
    fuzz,
    grid_scan,
    tightness_search,
)
from .inequalities import DEFAULT_TOL_FACTOR, InequalityId, frame_report
from .regions import DEFAULT_EPS, classify_frame
from .svgmap import render_region_map

CSV_HEADER = ",".join(ScanRow._fields)
#: A CSV line's fields after ``x,y``: the region label, then nine floats at
#: 17 significant digits.
_CSV_CELL = ",%s" + ",%.17g" * 9 + "\n"

_INEQUALITY_CHOICES = {
    "signed-barrow": InequalityId.SIGNED_BARROW30,
    "barrow": InequalityId.BARROW1,
    "erdos-mordell": InequalityId.ERDOS_MORDELL2,
    "dergiades": InequalityId.DERGIADES3,
    "lu": InequalityId.LU_WEIGHTED13,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports errors through UsageError."""

    def error(self, message):
        raise UsageError(message)


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"bad {what} {text!r}: not finite")
    return values


def _finite_float(text: str) -> float:
    """argparse type of --eps and --tol: any finite float, negative included."""
    return _parse_floats(text, 1, "value")[0]


def parse_triangle(text: str) -> tuple[float, ...]:
    """Six floats from the flag format ``ax,ay;bx,by;cx,cy``."""
    corners = text.split(";")
    if len(corners) != 3:
        raise UsageError(f"--triangle needs three ';'-separated vertices, got {text!r}")
    out: list[float] = []
    for corner in corners:
        out.extend(_parse_floats(corner, 2, "vertex"))
    return tuple(out)


def parse_point(text: str) -> tuple[float, float]:
    x, y = _parse_floats(text, 2, "--point")
    return (x, y)


def _compact(value):
    """Render integral floats as ints so JSON output stays minimal."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {k: _compact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_compact(v) for v in value]
    return value


def _print_json(obj) -> None:
    print(json.dumps(_compact(obj), separators=(",", ":")))


def build_parser() -> _Parser:
    parser = _Parser(prog="barrow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def triangle_arg(p):
        p.add_argument("--triangle", required=True, metavar='"ax,ay;bx,by;cx,cy"',
                       help="triangle vertices")

    p = sub.add_parser("classify", help="region of a point in the sideline partition")
    triangle_arg(p)
    p.add_argument("--point", required=True, metavar='"x,y"', help="query point")
    p.add_argument("--eps", type=_finite_float, default=DEFAULT_EPS,
                   help="boundary snap threshold on barycentric coordinates")

    p = sub.add_parser("eval", help="evaluate an inequality at a point")
    triangle_arg(p)
    p.add_argument("--point", required=True, metavar='"x,y"', help="query point")
    p.add_argument("--inequality", choices=sorted(_INEQUALITY_CHOICES), default="signed-barrow",
                   help="which bound to evaluate (default: signed-barrow)")
    p.add_argument("--eps", type=_finite_float, default=DEFAULT_EPS,
                   help="classification snap threshold")
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL_FACTOR,
                   help="scale-relative tolerance for the tightness flag")

    p = sub.add_parser("fuzz", help="stratified non-negativity fuzz")
    p.add_argument("--n", type=int, default=1000, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="seed of the run")
    p.add_argument("--shape", choices=TRIANGLE_SHAPES, default="random",
                   help="triangle population to draw from")
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL_FACTOR,
                   help="scale-relative violation tolerance")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers (report is worker-count independent)")
    p.add_argument("--json", action="store_true",
                   help="print the full report object instead of the summary line")

    p = sub.add_parser("scan", help="grid scan to CSV (optionally SVG)")
    triangle_arg(p)
    p.add_argument("--bbox", metavar='"x0,y0,x1,y1"',
                   help="scan window (default: triangle box padded by a quarter diameter)")
    p.add_argument("--resolution", type=int, default=64, help="cells per axis")
    p.add_argument("--out", metavar="FILE", help="CSV destination (default stdout)")
    p.add_argument("--svg", metavar="FILE", help="also render a region map")
    p.add_argument("--heatmap", action="store_true", help="add the slack layer to the SVG")

    p = sub.add_parser("tighten", help="search for the minimum slack of an inequality")
    triangle_arg(p)
    p.add_argument("--inequality", choices=sorted(_INEQUALITY_CHOICES), default="signed-barrow",
                   help="which bound to minimize (default: signed-barrow)")
    p.add_argument("--starts", type=int, default=DEFAULT_STARTS, help="multi-start count")
    p.add_argument("--seed", type=int, default=0, help="seed for the start points")

    return parser


def _triangle_from_args(args) -> Triangle:
    ax, ay, bx, by, cx, cy = parse_triangle(args.triangle)
    return Triangle(Point2(ax, ay), Point2(bx, by), Point2(cx, cy))


def _cmd_classify(args) -> int:
    T = _triangle_from_args(args)
    F = PointFrame(T, Point2(*parse_point(args.point)))
    region = classify_frame(F, eps=args.eps)
    _print_json({"region": region.value, "bary": [F.u, F.v, F.w]})
    return 0


def _cmd_eval(args) -> int:
    T = _triangle_from_args(args)
    F = PointFrame(T, Point2(*parse_point(args.point)))
    which = _INEQUALITY_CHOICES[args.inequality]
    report = frame_report(which, F, classify_frame(F, eps=args.eps), args.tol)
    _print_json(report.to_json_dict())
    return 0


def _cmd_fuzz(args) -> int:
    config = FuzzConfig(n=args.n, seed=args.seed, tol_factor=args.tol,
                        triangle_shape=args.shape)
    report = fuzz(config, workers=args.workers)
    args.code = 0 if report.violation_count == 0 else 1
    if args.json:
        _print_json(report.to_json_dict())
    else:
        print(
            f"fuzz: n={config.n} seed={config.seed} shape={config.triangle_shape} "
            f"reports={report.total_reports} violations={report.violation_count}"
        )
        for violation in report.violations:
            _print_json(violation)
    return args.code


def write_csv(grid: ScanGrid, stream) -> None:
    """Write a scan as CSV with a fixed header and lossless float formatting.

    One CSV line per :class:`~barrow.harness.ScanRow`, every float at 17
    significant digits, written to the text stream ``stream``.  A column's
    ``x`` (from the first grid line) and a line's ``y`` are formatted once,
    and each grid line goes out in one ``writelines`` call.  Raises
    ValueError when the grid does not hold ``resolution**2`` rows.
    """
    n = grid.resolution
    rows = grid.rows
    if len(rows) != n * n:
        raise ValueError(f"a {n}x{n} scan grid needs {n * n} rows, got {len(rows)}")
    stream.write(CSV_HEADER + "\n")
    xs = ["%.17g," % row.x for row in rows[:n]]
    for start in range(0, n * n, n):
        line = rows[start:start + n]
        # A formatted float holds no "%", so the line's y can head the template.
        cell = "%.17g" % line[0].y + _CSV_CELL
        # writelines rather than one joined string: as fast, and without the
        # extra line-sized string, which raised a scan's peak memory.
        stream.writelines([x + cell % row[2:] for x, row in zip(xs, line)])


def _default_bbox(T: Triangle) -> tuple[float, float, float, float]:
    pad = 0.25 * T.diameter
    xs = (T.A.x, T.B.x, T.C.x)
    ys = (T.A.y, T.B.y, T.C.y)
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def _open_output(path: str):
    try:
        return open(path, "w", encoding="ascii", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _cmd_scan(args) -> int:
    T = _triangle_from_args(args)
    if args.bbox is not None:
        x0, y0, x1, y1 = _parse_floats(args.bbox, 4, "--bbox")
        bbox = (x0, y0, x1, y1)
    else:
        bbox = _default_bbox(T)
    grid = grid_scan(T, bbox, args.resolution)
    # A box the map cannot draw or a path that cannot be written fails before
    # any output; the map goes out first, so a closed stdout cannot cut it.
    svg = render_region_map(grid, T, heatmap=args.heatmap) if args.svg else None
    with _open_output(args.svg) if args.svg else contextlib.nullcontext() as svg_out:
        with _open_output(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
            if svg is not None:
                svg_out.write(svg)
            write_csv(grid, out)
    return 0


def _cmd_tighten(args) -> int:
    T = _triangle_from_args(args)
    which = _INEQUALITY_CHOICES[args.inequality]
    point, slack = tightness_search(T, which, starts=args.starts, seed=args.seed)
    _print_json({"inequality": which.value, "point": [point.x, point.y], "slack": slack})
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "eval": _cmd_eval,
    "fuzz": _cmd_fuzz,
    "scan": _cmd_scan,
    "tighten": _cmd_tighten,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = argparse.Namespace(code=0)  # a command's code, settled before it prints
    try:
        parser.parse_args(argv, namespace=args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout; devnull takes the interpreter's last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return args.code


if __name__ == "__main__":
    sys.exit(main())
