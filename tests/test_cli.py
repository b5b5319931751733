import ast
import hashlib
import importlib
import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barrow
from barrow import FuzzConfig, Point2, ScanGrid, Triangle, evaluate, fuzz, grid_scan
from barrow.cli import CSV_HEADER, main, parse_point, parse_triangle, write_csv
from barrow.errors import UsageError
from barrow.svgmap import HEAT_HIGH, HEAT_LOW, REGION_COLORS, render_region_map

from conftest import triangles

UNIT_RIGHT = "0,0;1,0;0,1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_triangle():
    assert parse_triangle("0,0;1,0;0,1") == (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(UsageError):
        parse_triangle("0,0;1,0")
    with pytest.raises(UsageError):
        parse_triangle("0,0;1,0;zero,1")


def test_parse_point():
    assert parse_point("2,1.5") == (2.0, 1.5)
    with pytest.raises(UsageError):
        parse_point("2")


def test_classify_output_is_byte_stable(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--triangle", UNIT_RIGHT, "--point", "2,2"
    )
    assert code == 0
    assert out == '{"region":"mu1","bary":[-3,2,2]}\n'
    assert err == ""
    # A value with a leading minus is attached with "=", or argparse reads it as a flag.
    assert run_cli(capsys, "classify", "--triangle=-1,-1;0,-1;-1,0", "--point=1,1") == (0, out, "")
    assert run_cli(capsys, "classify", "--triangle", UNIT_RIGHT, "--point=-0.5,0.25") == (
        0, '{"region":"mu2","bary":[1.25,-0.5,0.25]}\n', "")
    assert run_cli(capsys, "classify", "--triangle", UNIT_RIGHT, "--point", "-0.5,0.25")[0] == 2


def test_classify_eps_flag(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--triangle", UNIT_RIGHT, "--point", "1e-13,0.5",
        "--eps", "0",
    )
    assert code == 0
    assert json.loads(out)["region"] == "lambda0"


def test_eval_default_matches_library(capsys):
    code, out, _ = run_cli(capsys, "eval", "--triangle", UNIT_RIGHT, "--point", "1,1")
    assert code == 0
    data = json.loads(out)
    rep = evaluate(
        Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)),
        Point2(1.0, 1.0),
    )
    assert data["inequality"] == "SignedBarrow30"
    assert data["region"] == "mu1"
    assert data["lhs"] == rep.lhs
    assert data["slack"] == rep.slack
    assert [t["side"] for t in data["terms"]] == ["a", "b", "c"]


# stdout of `eval` on the unit right triangle, one report per line.
_LU_QUARTER = (
    '{"inequality":"LuWeighted13","region":"lambda0","lhs":1.9346922206774635,'
    '"rhs":1.8188927216893898,"slack":0.11579949898807373,"tight":false,"terms":['
    '{"side":"a","weight":2,"value":0.35355339059327384,"contribution":0.7071067811865477},'
    '{"side":"b","weight":2.1640890861976425,"value":0.25687157418650386,"contribution":0.555892970251421},'
    '{"side":"c","weight":2.1640890861976425,"value":0.25687157418650386,"contribution":0.555892970251421}]}'
)
EVAL_STDOUT = {
    ("0.25,0.25", "signed-barrow"): _LU_QUARTER,
    ("0.25,0.25", "lu"): _LU_QUARTER,
    ("0.25,0.25", "barrow"): (
        '{"inequality":"Barrow1","region":"lambda0","lhs":1.9346922206774635,'
        '"rhs":1.7345930779325631,"slack":0.20009914274490037,"tight":false,"terms":['
        '{"side":"a","weight":2,"value":0.35355339059327384,"contribution":0.7071067811865477},'
        '{"side":"b","weight":2,"value":0.25687157418650386,"contribution":0.5137431483730077},'
        '{"side":"c","weight":2,"value":0.25687157418650386,"contribution":0.5137431483730077}]}'
    ),
    ("0.25,0.25", "erdos-mordell"): (
        '{"inequality":"ErdosMordell2","region":"lambda0","lhs":1.9346922206774635,'
        '"rhs":1.7071067811865475,"slack":0.22758543949091603,"tight":false,"terms":['
        '{"side":"a","weight":2,"value":0.35355339059327373,"contribution":0.7071067811865475},'
        '{"side":"b","weight":2,"value":0.25,"contribution":0.5},'
        '{"side":"c","weight":2,"value":0.25,"contribution":0.5}]}'
    ),
    ("0.25,0.25", "dergiades"): (
        '{"inequality":"Dergiades3","region":"lambda0","lhs":1.9346922206774635,'
        '"rhs":1.7677669529663689,"slack":0.16692526771109462,"tight":false,"terms":['
        '{"side":"a","weight":2,"value":0.35355339059327373,"contribution":0.7071067811865475},'
        '{"side":"b","weight":2.121320343559643,"value":0.25,"contribution":0.5303300858899107},'
        '{"side":"c","weight":2.121320343559643,"value":0.25,"contribution":0.5303300858899107}]}'
    ),
    ("-1,0.5", "signed-barrow"): (
        '{"inequality":"SignedBarrow30","region":"mu2","lhs":4.2976207903086205,'
        '"rhs":3.866006104542285,"slack":0.43161468576633544,"tight":false,"terms":['
        '{"side":"a","weight":2.0943340316208436,"value":1.3597478431007204,"contribution":2.8477661822288782},'
        '{"side":"b","weight":2,"value":-1,"contribution":-2},'
        '{"side":"c","weight":2.0943340316208436,"value":1.4411454317903316,"contribution":3.018239922313407}]}'
    ),
    ("2,-0.5", "signed-barrow"): (
        '{"inequality":"SignedBarrow30","region":"mu5","lhs":5.679586801558726,'
        '"rhs":-1.8978391705308342,"slack":7.57742597208956,"tight":false,"terms":['
        '{"side":"a","weight":2.1640890861976425,"value":-1.5388417685876268,"contribution":-3.3301906767855614},'
        '{"side":"b","weight":2.0093031753085935,"value":2.2149924825976557,"contribution":4.450591428568134},'
        '{"side":"c","weight":2.0943340316208436,"value":-1.4411454317903316,"contribution":-3.018239922313407}]}'
    ),
    ("1,0", "signed-barrow"): (
        '{"inequality":"VertexB15","region":"vertexB","lhs":2.414213562373095,'
        '"rhs":2.1973682269356205,"slack":0.21684533543747442,"tight":false,"terms":['
        '{"side":"b","weight":2.0301035302564356,"value":1.0823922002923942,"contribution":2.1973682269356205}]}'
    ),
}


@pytest.mark.parametrize("point, inequality", list(EVAL_STDOUT))
def test_eval_output_is_byte_stable(capsys, point, inequality):
    code, out, err = run_cli(capsys, "eval", "--triangle", UNIT_RIGHT, f"--point={point}",
                             "--inequality", inequality)
    assert (code, out, err) == (0, EVAL_STDOUT[point, inequality] + "\n", "")


#: Exit code, stdout and stderr of `eval` on the unit right triangle where
#: it takes a rare branch: a vertex label at a wide eps (the signed bound
#: routes to the vertex bound, an interior-only bound refuses it, Dergiades
#: keeps its three terms), a point on side AB and one on its extension, a
#: tolerance that flags a report tight, and a point an eps snaps onto a
#: sideline.  The CI job cli-smoke checks the same commands' digests.
EVAL_RARE_BRANCHES = {
    ("--point=0.9,0.05", "--eps", "0.4", "--inequality", "signed-barrow"): (0, (
        '{"inequality":"VertexB15","region":"vertexB","lhs":2.2100130516962375,'
        '"rhs":1.9708266510953512,"slack":0.23918640060088636,"tight":false,"terms":['
        '{"side":"b","weight":2.034845082910971,"value":0.968538916130147,'
        '"contribution":1.9708266510953512}]}\n'), ""),
    ("--point=0.9,0.05", "--eps", "0.4", "--inequality", "lu"): (3, "", (
        "error: point Point2(x=0.9, y=0.05) classifies as vertexB, not the interior\n")),
    ("--point=0.9,0.05", "--eps", "0.4", "--inequality", "dergiades"): (0, (
        '{"inequality":"Dergiades3","region":"vertexB","lhs":2.321816450571227,'
        '"rhs":2.0859650045003155,"slack":0.23585144607091157,"tight":false,"terms":['
        '{"side":"a","weight":2,"value":0.03535533905932735,"contribution":0.0707106781186547},'
        '{"side":"b","weight":2.121320343559643,"value":0.9,"contribution":1.9091883092036785},'
        '{"side":"c","weight":2.121320343559643,"value":0.05,"contribution":0.10606601717798214}]}\n'
    ), ""),
    ("--point=0.5,0", "--inequality", "signed-barrow"): (0, (
        '{"inequality":"SignedBarrow30","region":"mu3","lhs":2.118033988749895,'
        '"rhs":2.0581710272714924,"slack":0.05986296147840253,"tight":false,"terms":['
        '{"side":"a","weight":2.1640890861976425,"value":0.3632712640026804,'
        '"contribution":0.7861513777574232},'
        '{"side":"b","weight":2.1640890861976425,"value":0.5877852522924731,'
        '"contribution":1.272019649514069},'
        '{"side":"c","weight":2,"value":0,"contribution":0}]}\n'), ""),
    ("--point=2,0", "--inequality", "signed-barrow"): (0, (
        '{"inequality":"SignedBarrow30","region":"mu1","lhs":5.23606797749979,'
        '"rhs":4.034075798838467,"slack":1.2019921786613228,"tight":false,"terms":['
        '{"side":"a","weight":2.1640890861976425,"value":-1.3449970239279145,'
        '"contribution":-2.9106933804507094},'
        '{"side":"b","weight":2.00311287244374,"value":2.0549725934920313,'
        '"contribution":4.116342054542986},'
        '{"side":"c","weight":2.121320343559643,"value":1.3333333333333333,'
        '"contribution":2.8284271247461903}]}\n'), ""),
    ("--point=0.3,0.3", "--tol", "1"): (0, (
        '{"inequality":"LuWeighted13","region":"lambda0","lhs":1.9474186898847101,'
        '"rhs":1.8403928844961577,"slack":0.10702580538855244,"tight":true,"terms":['
        '{"side":"a","weight":2,"value":0.2828427124746189,"contribution":0.5656854249492378},'
        '{"side":"b","weight":2.0861785518604723,"value":0.30551255030642616,'
        '"contribution":0.6373537297734598},'
        '{"side":"c","weight":2.0861785518604723,"value":0.30551255030642616,'
        '"contribution":0.6373537297734598}]}\n'), ""),
    ("--point=0.5,1e-13", "--eps", "1e-3", "--inequality", "barrow"): (3, "", (
        "error: point Point2(x=0.5, y=1e-13) classifies as mu3, not the interior\n")),
    # On the extension of side c at eps 0 the zero of w snaps, and the point
    # belongs to the closed strip mu2; below eps 0 nothing snaps and 0.0
    # counts as negative, so the point lies in the wedge mu4.
    ("--point=-1,0", "--eps", "0", "--inequality", "signed-barrow"): (0, (
        '{"inequality":"SignedBarrow30","region":"mu2","lhs":4.414213562373095,'
        '"rhs":3.7386068458706445,"slack":0.6756067165024504,"tight":false,"terms":['
        '{"side":"a","weight":2.0301035302564356,"value":1.5307337294603591,'
        '"contribution":3.1075479480600747},'
        '{"side":"b","weight":2.0301035302564356,"value":-1.0823922002923942,'
        '"contribution":-2.1973682269356205},'
        '{"side":"c","weight":2.121320343559643,"value":1.3333333333333333,'
        '"contribution":2.8284271247461903}]}\n'), ""),
    ("--point=-1,0", "--eps=-0.5", "--inequality", "signed-barrow"): (0, (
        '{"inequality":"SignedBarrow30","region":"mu4","lhs":4.414213562373095,'
        '"rhs":3.7386068458706445,"slack":0.6756067165024504,"tight":false,"terms":['
        '{"side":"a","weight":2.0301035302564356,"value":1.5307337294603591,'
        '"contribution":3.1075479480600747},'
        '{"side":"b","weight":2.0301035302564356,"value":-1.0823922002923942,'
        '"contribution":-2.1973682269356205},'
        '{"side":"c","weight":2.121320343559643,"value":1.3333333333333333,'
        '"contribution":2.8284271247461903}]}\n'), ""),
    ("--point=-1,0", "--eps", "0", "--inequality", "lu"): (3, "", (
        "error: point Point2(x=-1.0, y=0.0) classifies as mu2, not the interior\n")),
    ("--point=-1,0", "--eps=-0.5", "--inequality", "lu"): (3, "", (
        "error: point Point2(x=-1.0, y=0.0) classifies as mu4, not the interior\n")),
    # A point on a vertex takes the vertex bound at every eps.
    ("--point=0,0", "--eps=-0.5"): (0, (
        '{"inequality":"VertexA14","region":"vertexA","lhs":2,"rhs":1.4142135623730951,'
        '"slack":0.5857864376269049,"tight":false,"terms":['
        '{"side":"a","weight":2,"value":0.7071067811865476,"contribution":1.4142135623730951}]}\n'
    ), ""),
}


@pytest.mark.parametrize("args", list(EVAL_RARE_BRANCHES), ids=" ".join)
def test_eval_rare_branches_are_pinned(capsys, args):
    assert run_cli(capsys, "eval", "--triangle", UNIT_RIGHT, *args) == EVAL_RARE_BRANCHES[args]


def test_eval_named_inequalities(capsys):
    for name, expected in (
        ("barrow", "Barrow1"),
        ("erdos-mordell", "ErdosMordell2"),
        ("dergiades", "Dergiades3"),
        ("lu", "LuWeighted13"),
    ):
        code, out, _ = run_cli(
            capsys, "eval", "--triangle", UNIT_RIGHT, "--point", "0.25,0.25",
            "--inequality", name,
        )
        assert code == 0
        assert json.loads(out)["inequality"] == expected


def test_eval_interior_bound_outside_interior_fails(capsys):
    for inequality in ("lu", "barrow", "erdos-mordell"):
        code, out, err = run_cli(
            capsys, "eval", "--triangle", UNIT_RIGHT, "--point", "1,1",
            "--inequality", inequality,
        )
        assert code == 3
        assert out == ""
        assert err == "error: point Point2(x=1.0, y=1.0) classifies as mu1, not the interior\n"


def test_eval_classic_outside_interior_fails(capsys):
    code, _, _ = run_cli(
        capsys, "eval", "--triangle", UNIT_RIGHT, "--point", "5,5",
        "--inequality", "barrow",
    )
    assert code == 3


def test_degenerate_triangle_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--triangle", "0,0;1,1;2,2", "--point", "0,0"
    )
    assert code == 3
    assert "error" in err


def test_usage_errors(capsys, tmp_path):
    assert run_cli(capsys, "classify", "--triangle", UNIT_RIGHT)[0] == 2
    assert run_cli(capsys, "classify", "--triangle", "garbage", "--point", "0,0")[0] == 2
    assert run_cli(capsys, "eval", "--triangle", UNIT_RIGHT, "--point", "1,1",
                   "--inequality", "unknown")[0] == 2
    assert run_cli(capsys, "scan", "--triangle", UNIT_RIGHT, "--json")[0] == 2
    for point in ("nan,0", "inf,0", "0,1e400"):
        assert run_cli(capsys, "eval", "--triangle", UNIT_RIGHT, "--point", point)[0] == 2
    assert run_cli(capsys, "classify", "--triangle", "0,0;1e400,0;0,1", "--point", "0,0")[0] == 2
    assert run_cli(capsys, "scan", "--triangle", UNIT_RIGHT, "--bbox", "0,0,inf,1")[0] == 2
    assert run_cli(capsys, "fuzz", "--n", "50", "--seed", "1", "--tol", "nan")[0] == 2
    assert run_cli(capsys, "classify", "--triangle", UNIT_RIGHT, "--point", "0,0",
                   "--eps", "nan")[0] == 2
    missing = tmp_path / "missing"
    assert run_cli(capsys, "scan", "--triangle", UNIT_RIGHT, "--resolution", "2",
                   "--out", str(missing / "scan.csv"))[0] == 2
    assert run_cli(capsys, "scan", "--triangle", UNIT_RIGHT, "--resolution", "2",
                   "--out", str(tmp_path / "scan.csv"), "--svg", str(missing / "map.svg"))[0] == 2


@pytest.mark.parametrize("command", [("eval", "--point", "3e-161,3e-161"), ("tighten",)])
def test_underflow_exit_code(capsys, command):
    # At this scale the product 2 R_B R_C of the half-angle bisector form is
    # subnormal, so every bisector raises the underflow DomainError; the
    # search reads it as an inf slack at every start.
    code, out, err = run_cli(capsys, command[0], "--triangle", "0,0;1e-160,0;0,1e-160",
                             *command[1:])
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert ("underflow" if command[0] == "eval" else "not finite at any start") in err


@pytest.mark.parametrize("command, point", [
    ("eval", "1e300,1e300"),
    ("classify", "1e300,1e300"),
    ("eval", "1e155,3"),
])
def test_far_point_exit_code(capsys, command, point):
    # Squared distances overflow: a domain error, not a traceback or NaN in the JSON.
    code, out, err = run_cli(capsys, command, "--triangle", UNIT_RIGHT, "--point", point)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_fuzz_summary_line(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--n", "200", "--seed", "42")
    assert code == 0
    report = fuzz(FuzzConfig(n=200, seed=42))
    assert out == (
        f"fuzz: n=200 seed=42 shape=random "
        f"reports={report.total_reports} violations=0\n"
    )


def test_fuzz_json_deterministic_across_workers(capsys):
    args = ("fuzz", "--n", "200", "--seed", "42", "--json")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    json.loads(first)
    code, second, _ = run_cli(capsys, *args, "--workers", "2")
    assert code == 0
    assert second == first


#: SHA-256 of the stdout of fuzz JSON and tighten runs, which other tests
#: check only for consistency: a kernel change that moves a single bit of a
#: slack, a term or a search path changes these bytes.  Like
#: bench/digests.json they were made with the libm of glibc 2.36.
PINNED_STDOUT_SHA256 = {
    ("fuzz", "--n", "2000", "--seed", "7", "--json", "--shape", "random"):
        "5a9a6b56fb6a2809e2738494f482df103b107cb05b97dc012e73f23e4c6b0b0f",
    ("fuzz", "--n", "2000", "--seed", "7", "--json", "--shape", "near-degenerate"):
        "6c1d6ffd1f2a94a867bc0d0a11b720462d88bff1e06843f493ba6436becd6947",
    ("fuzz", "--n", "2000", "--seed", "7", "--json", "--shape", "equilateral-perturbed"):
        "b4ef53a79afaca099f78eff25f7d2bb8a5337a7e60363022c942a42bd0b438b1",
    ("tighten", "--triangle", "0,0;4,0;1,2", "--inequality", "barrow"):
        "99197987d06780c331d3ecf35ae203d823928d078085519e5b716f25f85b20c9",
    ("tighten", "--triangle", "0,0;4,0;1,2", "--inequality", "dergiades"):
        "ffdd776824ba2b92119205e4c37559028f04269eb1d5b6506bf4a4a5f6532f89",
    ("tighten", "--triangle", "0,0;4,0;1,2", "--inequality", "erdos-mordell"):
        "8f9607da6c50a118a5771668aa9478a9787edeb447cd53646ccf387bb34dc686",
    ("tighten", "--triangle", "0,0;4,0;1,2", "--inequality", "lu"):
        "94fbfed4317ca3a431817e51fc8eb9a5a9a56cb5d49e8260191072614e6c51a1",
    ("tighten", "--triangle", "0,0;4,0;1,2", "--inequality", "signed-barrow"):
        "7e88281b19dd47db06559c4036938698381a824f073f8bd59c539803dc63a92d",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT_SHA256), ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_fuzz_and_tighten_stdout_bytes_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == PINNED_STDOUT_SHA256[argv]


#: SHA-256 of the CSV on stdout and of the SVG of ``scan --svg FILE`` runs:
#: the default 64x64 grid, with and without the slack layer, and a
#: non-square box at an odd resolution.  Made with the libm of glibc 2.36.
PINNED_SCAN_SHA256 = {
    ("--triangle", "0,0;4,0;1,2", "--resolution", "64", "--heatmap"): (
        "2653affc285947d4471d9a31d7e55662dcbf5e31f8bfea9f1eaffd835fec3fc5",
        "b5b21d1ee7a57fd6eca922818849c299dbcc47d7d912b0740ccec7c2364d65a9"),
    ("--triangle", "0,0;4,0;1,2", "--resolution", "64"): (
        "2653affc285947d4471d9a31d7e55662dcbf5e31f8bfea9f1eaffd835fec3fc5",
        "a3bc7fd45da06215fd84173553f05be9093dadf9d6878af8914d86527d955a72"),
    ("--triangle", "0,0;4,0;1,2", "--bbox=-1,-1,7,2", "--resolution", "37", "--heatmap"): (
        "cf8a3abe8df40db923b534bea48b0946847cace9ccf82068e4c78605aa39a795",
        "4477b2a0df3524f3b8eaf1ba6a362e4dcc15cf4272c6aca51ad610aae455a87c"),
}


@pytest.mark.parametrize("argv", list(PINNED_SCAN_SHA256),
                         ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv[2:]))
def test_scan_csv_and_svg_bytes_are_pinned(tmp_path, capsys, argv):
    svg = tmp_path / "map.svg"
    code, out, err = run_cli(capsys, "scan", *argv, "--svg", str(svg))
    assert (code, err) == (0, "")
    digests = (hashlib.sha256(out.encode("ascii")).hexdigest(),
               hashlib.sha256(svg.read_bytes()).hexdigest())
    assert digests == PINNED_SCAN_SHA256[argv]


#: SHA-256 of the stdout of fuzz JSON runs whose tolerance makes every
#: report a violation, so each record's inequality, region, slack, tol,
#: triangle, point and place in the list is pinned.  Made with the libm of
#: glibc 2.36.
PINNED_VIOLATIONS_SHA256 = {
    "random": "90e51127037d2668df492f8047828e2f13e6b0c2eb12124fffdcb28009252184",
    "near-degenerate": "5b09d8b86ac668870605086ac29068718e10269629f14c9cbc69ab0a03316ab4",
    "equilateral-perturbed": "21b31345b8b97d547f2a4be7e9b928a77c772128ba7e6ae3b8a80af0ba778581",
}


@pytest.mark.parametrize("shape", list(PINNED_VIOLATIONS_SHA256))
def test_fuzz_violation_records_are_pinned(capsys, shape):
    code, out, err = run_cli(
        capsys, "fuzz", "--n", "300", "--seed", "7", "--json", "--tol=-1e3", "--shape", shape
    )
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["violation_count"] == report["total_reports"]
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == PINNED_VIOLATIONS_SHA256[shape]


def test_fuzz_violation_exit_code(capsys):
    # A negative tolerance flags ordinary results, driving the failure path.
    code, out, _ = run_cli(capsys, "fuzz", "--n", "20", "--seed", "1", "--tol", "-1")
    assert code == 1
    lines = out.splitlines()
    assert "violations=" in lines[0]
    flagged = json.loads(lines[1])
    assert flagged["slack"] < -flagged["tol"]


def test_scan_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--triangle", UNIT_RIGHT, "--bbox", "0,0,1,1",
        "--resolution", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[0]) == 0.125 and float(first[1]) == 0.125
    assert first[2] in ("lambda0", "mu1", "mu2", "mu3", "mu4", "mu5", "mu6",
                        "vertexA", "vertexB", "vertexC")


def test_scan_csv_floats_round_trip(capsys, unit_right):
    code, out, _ = run_cli(
        capsys, "scan", "--triangle", UNIT_RIGHT, "--bbox=-0.3,-0.3,1.2,1.2",
        "--resolution", "5",
    )
    assert code == 0
    grid = grid_scan(unit_right, (-0.3, -0.3, 1.2, 1.2), 5)
    lines = out.splitlines()[1:]
    assert len(lines) == len(grid.rows)
    for line, row in zip(lines, grid.rows):
        parts = line.split(",")
        for text, expected in zip(parts, row):
            if isinstance(expected, str):
                assert text == expected
            elif math.isnan(expected):
                assert text == "nan"
            else:
                assert float(text) == expected


def test_scan_files_and_svg(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    out_svg = tmp_path / "map.svg"
    code, out, _ = run_cli(
        capsys, "scan", "--triangle", UNIT_RIGHT, "--resolution", "8",
        "--out", str(out_csv), "--svg", str(out_svg),
    )
    assert code == 0
    assert out == ""
    content = out_csv.read_text(encoding="ascii")
    assert content.startswith(CSV_HEADER + "\n")
    assert content.count("\n") == 65
    svg = out_svg.read_text(encoding="ascii")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect ") == 64


def test_scan_svg_heatmap_layer(tmp_path, capsys):
    plain = tmp_path / "plain.svg"
    heat = tmp_path / "heat.svg"
    run_cli(capsys, "scan", "--triangle", UNIT_RIGHT, "--resolution", "6",
            "--svg", str(plain), "--out", str(tmp_path / "a.csv"))
    run_cli(capsys, "scan", "--triangle", UNIT_RIGHT, "--resolution", "6",
            "--heatmap", "--svg", str(heat), "--out", str(tmp_path / "b.csv"))
    assert '<g id="slack"' not in plain.read_text(encoding="ascii")
    assert '<g id="slack"' in heat.read_text(encoding="ascii")


def test_scan_deterministic_files(tmp_path, capsys):
    paths = []
    for name in ("one.svg", "two.svg"):
        target = tmp_path / name
        run_cli(capsys, "scan", "--triangle", "0,0;4,0;1,2", "--resolution", "10",
                "--heatmap", "--svg", str(target), "--out", str(tmp_path / (name + ".csv")))
        paths.append(target)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tighten_json(capsys):
    code, out, _ = run_cli(
        capsys, "tighten", "--triangle", "0,0;1,0;0.5,0.8660254037844386",
        "--inequality", "barrow", "--starts", "4", "--seed", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["inequality"] == "Barrow1"
    assert abs(data["slack"]) <= 1e-9
    assert math.hypot(data["point"][0] - 0.5, data["point"][1] - 0.28867513459481287) <= 1e-6


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "barrow", "classify", "--triangle", UNIT_RIGHT,
         "--point", "2,2"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert result.stdout == '{"region":"mu1","bary":[-3,2,2]}\n'


def test_scan_overflowing_bbox_exits_3():
    # The cell width overflows; that is a domain error (exit 3), not the
    # "violations found" exit 1 of a traceback.
    result = subprocess.run(
        [sys.executable, "-m", "barrow", "scan", "--triangle", "0,0;4,0;1,2",
         "--bbox=-1e308,0,1e308,1", "--resolution", "2"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("bbox, to_stdout", [
    pytest.param(bbox, to_stdout, id=str(to_stdout) if bbox == "0,0,1e-310,1" else f"{bbox}-{to_stdout}")
    for bbox in ("0,0,1e-310,1", "0,0,1e150,1e-170", "0,0,1,1e-300")
    for to_stdout in (False, True)
])
def test_scan_undrawable_svg_exits_3_before_any_output(tmp_path, capsys, bbox, to_stdout):
    # A box 1e-310 wide and 1 tall gives the map an infinite height, and the
    # two flat boxes a height written as 0.000000, which draws no cell: a
    # domain error before the CSV is opened or printed, and no SVG file.
    out_csv = tmp_path / "scan.csv"
    out_svg = tmp_path / "map.svg"
    csv_args = () if to_stdout else ("--out", str(out_csv))
    code, out, err = run_cli(
        capsys, "scan", "--triangle", UNIT_RIGHT, "--bbox", bbox,
        "--resolution", "2", *csv_args, "--svg", str(out_svg),
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("to_stdout", [False, True])
def test_scan_unwritable_svg_exits_2_before_any_csv_byte(tmp_path, capsys, to_stdout):
    out_csv = tmp_path / "grid.csv"
    csv_args = () if to_stdout else ("--out", str(out_csv))
    code, out, err = run_cli(
        capsys, "scan", "--triangle", UNIT_RIGHT, "--resolution", "2", "--bbox", "0,0,1,1",
        *csv_args, "--svg", str(tmp_path / "missing" / "map.svg"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write ")
    assert list(tmp_path.iterdir()) == []


SCAN_8 = ("scan", "--triangle", "0,0;4,0;1,2", "--resolution", "8")


@pytest.mark.parametrize("out, svg, existing", [
    pytest.param("same", "same", b"kept\n", id="one-name"),
    pytest.param("same", "./same", None, id="two-spellings-new"),
    pytest.param("link", "same", b"kept\n", id="symlink"),
])
def test_scan_one_file_named_twice_exits_2_before_any_byte(tmp_path, capsys, out, svg, existing):
    # Both destinations would land in one file: once the map's bytes with
    # the CSV's written over them.  Exit 2 and leave the file as it was.
    if existing is not None:
        (tmp_path / "same").write_bytes(existing)
    if out == "link":
        (tmp_path / "link").symlink_to("same")
    before = sorted(path.name for path in tmp_path.iterdir())
    code, stdout, err = run_cli(capsys, *SCAN_8, "--out", str(tmp_path / out),
                                "--svg", str(tmp_path / svg))
    assert (code, stdout) == (2, "")
    assert err.startswith("usage error: --out and --svg name one file")
    assert sorted(path.name for path in tmp_path.iterdir()) == before
    if existing is not None:
        assert (tmp_path / "same").read_bytes() == existing


def test_scan_unwritable_out_leaves_the_existing_map(tmp_path, capsys):
    svg = tmp_path / "map.svg"
    assert run_cli(capsys, *SCAN_8, "--out", str(tmp_path / "grid.csv"), "--svg", str(svg))[0] == 0
    kept = svg.read_bytes()
    assert len(kept) == 6331
    code, out, err = run_cli(capsys, *SCAN_8, "--heatmap", "--svg", str(svg),
                             "--out", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot write ")
    assert svg.read_bytes() == kept
    assert sorted(path.name for path in tmp_path.iterdir()) == ["grid.csv", "map.svg"]


def test_scan_failed_write_leaves_every_destination_as_it_was(tmp_path, capsys, monkeypatch):
    # The map is written, then the CSV fails halfway: neither file changes
    # and no temporary file is left behind.
    csv, svg = tmp_path / "grid.csv", tmp_path / "map.svg"
    csv.write_bytes(b"old csv\n")

    def failing_write_csv(grid, stream):
        stream.write(CSV_HEADER + "\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(barrow.cli, "write_csv", failing_write_csv)
    code, out, err = run_cli(capsys, *SCAN_8, "--out", str(csv), "--svg", str(svg))
    assert (code, out) == (2, "")
    assert err == f"usage error: cannot write {str(csv)!r}: No space left on device\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["grid.csv"]
    assert csv.read_bytes() == b"old csv\n"


def test_scan_refuses_a_file_it_may_not_write(tmp_path, capsys, monkeypatch):
    # Renaming over a read-only file would succeed where opening it fails;
    # the scan must refuse it as opening did.  os.access is faked because
    # root may write any file.
    csv = tmp_path / "grid.csv"
    csv.write_bytes(b"read-only\n")
    monkeypatch.setattr(barrow.cli.os, "access", lambda path, mode: False)
    code, out, err = run_cli(capsys, *SCAN_8, "--out", str(csv))
    assert (code, out) == (2, "")
    assert err == f"usage error: cannot write {str(csv)!r}: Permission denied\n"
    assert csv.read_bytes() == b"read-only\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["grid.csv"]


def test_scan_replaced_file_keeps_its_mode(tmp_path, capsys):
    csv = tmp_path / "grid.csv"
    csv.write_bytes(b"")
    csv.chmod(0o640)
    assert run_cli(capsys, *SCAN_8, "--out", str(csv))[0] == 0
    assert csv.read_text(encoding="ascii").startswith(CSV_HEADER + "\n")
    assert csv.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("argv, code", [
    pytest.param(("scan", "--triangle", "0,0;4,0;1,2", "--resolution", "200"), 0, id="scan"),
    # Every report violates a negative tolerance: about 290 kB of violations.
    pytest.param(("fuzz", "--n", "500", "--seed", "42", "--tol=-1"), 1, id="fuzz"),
])
def test_closed_stdout_ends_quietly_with_the_commands_code(argv, code):
    # The reader takes one byte and closes the pipe; the output is larger
    # than a pipe buffer, so the command writes to the closed pipe.
    proc = subprocess.Popen([sys.executable, "-m", "barrow", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        first = proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read()
    assert len(first) == 1
    assert err == b""
    assert proc.returncode == code


#: The per-cell CSV line the emitter once formatted, kept as its reference.
_CSV_ROW = "%.17g,%.17g,%s" + ",%.17g" * 9 + "\n"


def per_cell_svg_cells(grid):
    """Both SVG cell layers, each cell formatted on its own from its row."""
    x0, y0, x1, y1 = grid.bbox
    height = 480 * (y1 - y0) / (x1 - x0)
    cell_w = 480 / grid.resolution
    cell_h = height / grid.resolution
    rects = [
        f'<rect x="{(row.x - x0) / (x1 - x0) * 480 - cell_w / 2.0:.6f}" '
        f'y="{(y1 - row.y) / (y1 - y0) * height - cell_h / 2.0:.6f}" '
        f'width="{cell_w:.6f}" height="{cell_h:.6f}" fill="'
        for row in grid.rows
    ]
    regions = [f'{rect}{REGION_COLORS[row.region]}"/>' for rect, row in zip(rects, grid.rows)]
    finite = [row.slack for row in grid.rows if not math.isnan(row.slack)]
    lo, hi = min(finite), max(finite)
    heat = []
    for rect, row in zip(rects, grid.rows):
        if not math.isnan(row.slack):
            t = 0.5 if hi == lo else (row.slack - lo) / (hi - lo)
            rgb = (round(a + (b - a) * t) for a, b in zip(HEAT_LOW, HEAT_HIGH))
            heat.append(rect + "#{:02x}{:02x}{:02x}".format(*rgb) + '"/>')
    return regions, heat


@st.composite
def scan_boxes(draw):
    """Boxes of independent width and height, so most are not square."""
    x0 = draw(st.floats(-40.0, 40.0))
    y0 = draw(st.floats(-40.0, 40.0))
    return (x0, y0, x0 + draw(st.floats(0.05, 80.0)), y0 + draw(st.floats(0.05, 80.0)))


@settings(max_examples=60, deadline=None)
@given(triangles(), scan_boxes(), st.integers(2, 9))
@example(Triangle(Point2(0.5, 0.5), Point2(2.0, 0.0), Point2(0.0, 2.0)), (-1.0, -1.0, 1.0, 1.0), 2)
def test_emitters_match_per_cell_references(triangle, bbox, resolution):
    # The emitters format a column's x and a line's y once; the bytes must be
    # those of formatting every cell on its own.  The example holds a vertex
    # cell, whose two undefined bisector columns are NaN.
    grid = grid_scan(triangle, bbox, resolution)
    buf = io.StringIO()
    write_csv(grid, buf)
    assert buf.getvalue() == CSV_HEADER + "\n" + "".join(_CSV_ROW % row for row in grid.rows)
    regions, heat = per_cell_svg_cells(grid)
    svg = render_region_map(grid, triangle, heatmap=True)
    head, _, tail = svg.partition('<g id="slack" opacity="0.55">')
    assert [line for line in head.splitlines() if line.startswith("<rect ")] == regions
    assert [line for line in tail.splitlines() if line.startswith("<rect ")] == heat


def test_emitters_reject_a_grid_one_row_short(scalene):
    grid = grid_scan(scalene, (-1.0, -1.0, 5.0, 3.0), 4)
    short = ScanGrid(bbox=grid.bbox, resolution=grid.resolution, rows=grid.rows[:-1])
    with pytest.raises(ValueError, match="needs 16 rows, got 15"):
        write_csv(short, io.StringIO())
    with pytest.raises(ValueError, match="needs 16 rows, got 15"):
        render_region_map(short, scalene)


ROOT = Path(__file__).resolve().parents[1]


def test_readme_examples_print_what_the_readme_shows(capsys):
    # Every "$ barrow ..." line of the README followed by an output line must
    # print that line; "..." stands for an omitted middle.  A change to the
    # seed streams must regenerate these examples.
    lines = (ROOT / "README.md").read_text().splitlines()
    checked = []
    for command, shown in zip(lines, lines[1:]):
        if not command.startswith("$ barrow ") or not shown or shown[0] in "$`":
            continue
        argv = shlex.split(command)[2:]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), command
        if "..." in shown:
            head, tail = shown.split("...")
            assert out.startswith(head) and out.endswith(tail + "\n"), command
        else:
            assert out == shown + "\n", command
        checked.append(argv[0])
    assert checked == ["classify", "eval", "fuzz", "tighten"]
    assert "fuzz: n=2000 seed=7 shape=random reports=4810 violations=0" in lines
    # The library quick tour.
    T = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    slack = evaluate(T, Point2(0.3, 0.3)).slack
    assert slack == 0.10702580538855244
    assert any(line.startswith("rep.slack ") and f"# {slack!r} " in line for line in lines)


#: The README's points where the signed bound holds with equality outside
#: the triangle 0,0;4,0;1,2, and their regions.
README_EQUALITY_POINTS = {
    "3.7132821818687,0.2323452798276": "mu1",
    "-0.3799488485354,1.1009880535057": "mu2",
}


def test_readme_equality_points_print_zero_slack(capsys):
    # The equilateral circumcenter is not the only equality case: `eval`
    # prints a zero slack at these points, and 1e-4 away from each the
    # slack is positive in eight directions (at least 2.8e-9).
    text = " ".join((ROOT / "README.md").read_text().split())
    T = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 2.0))
    for point, region in README_EQUALITY_POINTS.items():
        assert f"`{point}` (in `{region}`)" in text
        code, out, err = run_cli(capsys, "eval", "--triangle", "0,0;4,0;1,2", f"--point={point}")
        data = json.loads(out)
        assert (code, err, data["inequality"], data["region"]) == (0, "", "SignedBarrow30", region)
        assert (data["slack"], data["tight"]) == (0, True)
        x, y = map(float, point.split(","))
        for k in range(8):
            angle = 2.0 * math.pi * k / 8
            M = Point2(x + 1e-4 * math.cos(angle), y + 1e-4 * math.sin(angle))
            assert evaluate(T, M).slack > 0.0


def _imported_barrow_names(path: Path):
    """(module, name) per ``from barrow... import name``, (module, None) per ``import barrow...``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "barrow":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "barrow":
                    yield alias.name, None


def test_public_names_the_benchmark_uses_resolve():
    # Tier-1 does not run bench/, so a public name it imports could vanish unnoticed.
    imported = {pair for path in sorted((ROOT / "bench").glob("*.py"))
                for pair in _imported_barrow_names(path)}
    assert ("barrow.inequalities", "evaluate") in imported
    for module, name in sorted(imported, key=str):
        found = importlib.import_module(module)
        assert name is None or hasattr(found, name), f"{module}.{name}"
    for name in barrow.__all__:
        assert hasattr(barrow, name), name
    # bench/spans.py reads the coordinates of barycentric(...) through as_tuple.
    T = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
    assert barrow.barycentric(T, Point2(0.25, 0.5)).as_tuple() == (0.25, 0.25, 0.5)
