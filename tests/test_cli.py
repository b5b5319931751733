import json
import math
import subprocess
import sys

import pytest

from barrow import FuzzConfig, Point2, Triangle, evaluate, fuzz, grid_scan
from barrow.cli import CSV_HEADER, main, parse_point, parse_triangle
from barrow.errors import UsageError

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
    code, _, err = run_cli(
        capsys, "eval", "--triangle", UNIT_RIGHT, "--point", "1,1",
        "--inequality", "lu",
    )
    assert code == 3
    assert "error" in err


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
def test_numerical_error_exit_code(capsys, command):
    # At this scale the product 2 R_B R_C of the half-angle bisector form
    # underflows and the cross-check between the two closed forms fails.
    code, out, err = run_cli(capsys, command[0], "--triangle", "0,0;1e-160,0;0,1e-160",
                             *command[1:])
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


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
