import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from qrgxy import cli
from qrgxy.blocks import CouplingParams
from qrgxy.rgflow import rg_trajectory


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "qrgxy", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


def test_flow_csv_matches_library_trajectory():
    proc = run_cli("flow", "--dim", "1", "--gamma0", "-0.26", "--steps", "2")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "dim,step,gamma,j"
    assert len(lines) == 4
    traj = rg_trajectory(CouplingParams(1.0, -0.26), 1, 2)
    for line, (k, p) in zip(lines[1:], enumerate(traj.steps)):
        dim, step, gamma, j = line.split(",")
        assert (int(dim), int(step)) == (1, k)
        assert abs(float(gamma) - p.gamma) < 1e-10
        assert abs(float(j) - p.j) < 1e-10


def test_flow_json_format():
    proc = run_cli("flow", "--dim", "2", "--gamma0", "0.3", "--steps", "1", "--format", "json")
    rows = json.loads(proc.stdout)
    assert [r["step"] for r in rows] == [0, 1]
    assert rows[0]["gamma"] == 0.3


def test_concurrence_rows_and_isotropic_value():
    proc = run_cli("concurrence", "--dim", "1", "--steps", "1", "--grid", "11")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "dim,step,gamma,concurrence,abs_derivative"
    assert len(lines) == 1 + 2 * 11
    by_key = {}
    for line in lines[1:]:
        dim, step, gamma, conc, deriv = line.split(",")
        by_key[(int(step), float(gamma))] = float(conc)
    assert abs(by_key[(0, 0.0)] - 0.5) < 1e-9
    assert by_key[(0, 1.0)] <= 1e-9
    assert by_key[(0, -1.0)] <= 1e-9


def test_concurrence_does_not_depend_on_j(capsys):
    # the flow carries gamma only: a J whose image underflows to 0 after
    # one step gives the bytes of J = 1
    argv = ["concurrence", "--dim", "3", "--steps", "64", "--grid", "5"]
    assert cli.main(argv + ["--j", "1"]) == 0
    want = capsys.readouterr().out
    assert cli.main(argv + ["--j", "1e-300"]) == 0
    assert capsys.readouterr().out == want
    assert len(want.splitlines()) == 1 + 65 * 5


def test_scaling_report_structure():
    proc = run_cli("scaling", "--dim", "1", "--steps", "1,2", "--grid", "101", "--threads", "4")
    report = json.loads(proc.stdout)
    assert report["dimension"] == 1
    assert [p["step"] for p in report["points"]] == [1, 2]
    assert [p["N"] for p in report["points"]] == [3, 9]
    for p in report["points"]:
        assert p["gamma_m"] < 0.0
        assert p["max_abs_derivative"] > 0.0
    assert set(report["derivative_fit"]) == {"slope", "intercept", "r2"}
    assert set(report["exponent_fit"]) == {"theta", "r2"}
    assert "n_B" in report["conventions"]["N_definition"]
    assert report["conventions"]["step_range"] == [1, 2]


def test_groundstate_csv_shape_and_amplitudes():
    proc = run_cli("groundstate", "--dim", "1")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "basis_index,basis_label,phi1,phi2"
    assert len(lines) == 9
    pattern = re.compile(r"^\d+,[↑↓]{3},-?\d\.\d{12},-?\d\.\d{12}$")
    for line in lines[1:]:
        assert pattern.match(line), line
    amps = []
    for line in lines[1:]:
        _i, _label, p1, p2 = line.split(",")
        amps.extend([abs(float(p1)), abs(float(p2))])
    # at gamma = 1 every doublet amplitude is 0 or 1/2
    for a in amps:
        assert min(a, abs(a - 0.5)) < 1e-9


def test_groundstate_json_round_trip():
    proc = run_cli("groundstate", "--dim", "1", "--gamma0", "0.0", "--format", "json")
    rows = json.loads(proc.stdout)
    assert len(rows) == 8
    assert {r["basis_label"] for r in rows} == {
        "↑↑↑", "↑↑↓", "↑↓↑", "↑↓↓", "↓↑↑", "↓↑↓", "↓↓↑", "↓↓↓"
    }
    n1 = sum(r["phi1"] ** 2 for r in rows)
    n2 = sum(r["phi2"] ** 2 for r in rows)
    assert abs(n1 - 1.0) < 1e-12 and abs(n2 - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_groundstate_prints_no_negative_zero_and_exact_parity_zeros(dim, capsys):
    n = 2 * dim + 1
    odd = [bin(i).count("1") % 2 for i in range(2 ** n)]
    for gamma in ("-1", "-0.3", "0", "0.3", "1"):
        argv = ["groundstate", "--dim", str(dim), "--gamma0", gamma]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert not any("-0.000000000000" in line for line in lines)
        for line, parity in zip(lines, odd):
            phi1, phi2 = line.split(",")[2:]
            assert (phi2 if parity == 0 else phi1) == "0.000000000000"
        assert cli.main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row, parity in zip(rows, odd):
            assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in (row["phi1"], row["phi2"]))
            forbidden = row["phi2"] if parity == 0 else row["phi1"]
            assert forbidden == 0.0 and math.copysign(1.0, forbidden) > 0


def test_fixed_points_json_and_curve_file(tmp_path):
    curve_path = tmp_path / "curve.csv"
    proc = run_cli("fixed-points", "--dim", "1", "--grid", "101", "--curve-out", str(curve_path))
    points = json.loads(proc.stdout)
    assert [round(p["gamma"], 8) for p in points] == [-1.0, 0.0, 1.0]
    assert [p["stability"] for p in points] == ["stable", "unstable", "stable"]
    assert abs(points[1]["slope_at_root"] - 3.0) < 1e-4
    lines = curve_path.read_text().strip().split("\n")
    assert lines[0] == "gamma,gamma_prime"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0


def test_jsweep_reports_flat_j_axis():
    proc = run_cli("jsweep", "--dim", "1", "--grid", "5")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "gamma,j,concurrence"
    assert len(lines) == 1 + 5 * 3 + 1
    tag, value = lines[-1].split(",")
    assert tag == "max_j_spread"
    assert float(value) <= 1e-10
    js = {line.split(",")[1] for line in lines[1:-1]}
    assert js == {"0.1", "1", "10"}


def test_out_flag_writes_file_and_silences_stdout(tmp_path):
    out = tmp_path / "flow.csv"
    direct = run_cli("flow", "--dim", "1", "--gamma0", "0.5", "--steps", "1")
    filed = run_cli("flow", "--dim", "1", "--gamma0", "0.5", "--steps", "1", "--out", str(out))
    assert filed.stdout == ""
    assert out.read_text() == direct.stdout


def test_config_file_supplies_defaults_flags_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 2, "gamma0": 0.5, "steps": 1}))
    pure = run_cli("flow", "--config", str(cfg))
    lines = pure.stdout.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "2"
    assert float(lines[1].split(",")[2]) == 0.5
    mixed = run_cli("flow", "--config", str(cfg), "--dim", "1", "--gamma0", "-0.26")
    lines = mixed.stdout.strip().split("\n")
    assert lines[1].split(",")[0] == "1"
    assert float(lines[1].split(",")[2]) == -0.26


def test_config_format_key_selects_json(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "json"}))
    proc = run_cli("flow", "--dim", "1", "--gamma0", "0.3", "--steps", "1", "--config", str(cfg))
    rows = json.loads(proc.stdout)
    assert [r["step"] for r in rows] == [0, 1]


def test_config_format_key_is_validated(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    proc = run_cli("flow", "--dim", "1", "--gamma0", "0.3", "--config", str(cfg), expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("qrg-error: ")
    assert len(proc.stderr.strip().split("\n")) == 1


BAD_INVOCATIONS = [
    ("flow", "--gamma0", "0.1"),                      # dim missing
    ("flow", "--dim", "5", "--gamma0", "0.1"),        # dim out of range
    ("flow", "--dim", "1"),                           # gamma0 required
    ("flow", "--dim", "1", "--gamma0", "1.5"),        # gamma0 out of range
    ("flow", "--dim", "1", "--gamma0", "0.1", "--j", "0"),
    ("flow", "--dim", "1", "--gamma0", "0.1", "--format", "xml"),
    ("concurrence", "--dim", "1", "--grid", "4"),     # even grid
    ("scaling", "--dim", "1", "--steps", "3"),        # fits need two steps
    ("scaling", "--dim", "3", "--steps", "2,2", "--grid", "51"),  # ... two distinct ones
    ("scaling", "--dim", "1", "--steps", "1,banana"),
    ("scaling", "--dim", "1", "--threads", "0"),     # ignored, still validated
    ("flow", "--dim", "1", "--gamma0", "0.1", "--threads", "0"),
    ("groundstate", "--dim", "1", "--threads", "-5"),
    ("fixed-points", "--dim", "1", "--threads", "0"),
    ("jsweep", "--dim", "1", "--js", "1,0"),
    ("fixed-points", "--dim", "1", "--grid", "50"),
    ("fixed-points", "--dim", "1", "--j", "-1"),      # j unused, still validated
    ("scaling", "--dim", "1", "--grid", "5", "--j", "-3"),
    ("jsweep", "--dim", "1", "--grid", "3", "--j", "0"),
    ("flow", "--dim", "1", "--gamma0", "0.1", "--j", "inf"),   # j must be finite
    ("groundstate", "--dim", "1", "--j", "inf"),
    ("fixed-points", "--dim", "1", "--j", "inf"),
    ("jsweep", "--dim", "1", "--js", "inf", "--grid", "3"),
    ("jsweep", "--dim", "1", "--js", "1,nan", "--grid", "3"),
    ("groundstate", "--dim", "1", "--config", "/nonexistent/config.json"),
]


@pytest.mark.parametrize("argv", BAD_INVOCATIONS, ids=lambda a: " ".join(a))
def test_configuration_mistakes_exit_2(argv):
    proc = run_cli(*argv, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("qrg-error: ")
    assert len(proc.stderr.strip().split("\n")) == 1


# values that the flags refuse are refused from a config file too, not
# truncated to an int or read as 1
@pytest.mark.parametrize(
    "command,config,message",
    [
        pytest.param(*case, id=f"{case[0]}-{case[2].split()[1]}")
        for case in (
            ("flow", {"dim": 2.7, "gamma0": 0.1, "steps": 1.9}, "field 'dim' must be an integer, got 2.7"),
            ("flow", {"dim": 2, "gamma0": 0.1, "steps": 1.9}, "field 'steps' must be an integer, got 1.9"),
            ("flow", {"dim": 2, "gamma0": True}, "field 'gamma0' must be a number, got True"),
            ("fixed-points", {"dim": True, "grid": 100.9, "j": True}, "field 'dim' must be an integer, got True"),
            ("fixed-points", {"dim": 1, "grid": 100.9, "j": True}, "field 'j' must be a number, got True"),
            ("fixed-points", {"dim": 1, "grid": 100.9}, "field 'grid' must be an integer, got 100.9"),
        )
    ],
)
def test_config_file_values_are_checked_as_flags_are(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qrg-error: {message}\n"


def test_config_file_accepts_whole_floats_as_integers(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 2.0, "gamma0": 0.3, "steps": 1.0}))
    assert cli.main(["flow", "--config", str(cfg)]) == 0
    filed = capsys.readouterr().out
    assert cli.main(["flow", "--dim", "2", "--gamma0", "0.3", "--steps", "1"]) == 0
    assert capsys.readouterr().out == filed


def test_config_file_must_hold_an_object(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    proc = run_cli("flow", "--dim", "1", "--gamma0", "0.1", "--config", str(cfg), expect=2)
    assert proc.stderr.startswith("qrg-error: ")


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin.json"
    cfg.write_bytes(b'\xff{"dim": 1}')
    assert cli.main(["scaling", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qrg-error: config: '{cfg}' is not valid JSON: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


# 2**50 + 1 float64 points are 8 PiB, more than any address space holds, so
# the allocation fails at once and never touches memory
HUGE_GRID = 2 ** 50 + 1


@pytest.mark.parametrize("command", ["concurrence", "scaling", "fixed-points", "jsweep"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_grid_too_large_to_allocate_is_a_config_error(tmp_path, capsys, command, source):
    argv = [command, "--dim", "1"]
    if source == "flag":
        argv += ["--grid", str(HUGE_GRID)]
    else:
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"grid": HUGE_GRID}))
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qrg-error: out of memory: Unable to allocate 8.00 PiB")
    assert err.count("\n") == 1


def test_unknown_flag_exits_2_with_prefix():
    proc = run_cli("flow", "--dim", "1", "--gamma0", "0.1", "--nope", expect=2)
    assert "qrg-error: " in proc.stderr


def test_numerical_contract_failures_exit_3():
    # force an impossible degeneracy tolerance so the solver's doublet check
    # trips; that class of failure must map to exit code 3, not 2
    code = (
        "import qrgxy.rgflow as r, qrgxy.cli as c, sys;"
        "r.DEGENERACY_RTOL = -1.0;"
        "sys.exit(c.main(['groundstate', '--dim', '1']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("qrg-error: ")
    assert "degenerate" in proc.stderr


def test_the_cli_pulls_in_no_undeclared_dependency():
    # numpy is the one runtime dependency: scipy and mpmath may be
    # installed, but no import and no run of the package may load them
    code = (
        "import json, sys, qrgxy.cli as c;"
        "code = c.main(['concurrence', '--dim', '3', '--steps', '1', '--grid', '5']);"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath'))),"
        " file=sys.stderr);"
        "sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == []
    assert proc.stdout.startswith("dim,step,gamma,concurrence")


def test_thread_count_never_changes_output():
    fixed = [
        ("concurrence", "--dim", "1", "--steps", "1", "--grid", "21"),
        ("jsweep", "--dim", "1", "--grid", "7"),
    ]
    for argv in fixed:
        one = run_cli(*argv, "--threads", "1")
        again = run_cli(*argv, "--threads", "1")
        eight = run_cli(*argv, "--threads", "8")
        assert one.stdout == again.stdout == eight.stdout
        assert one.stdout  # something was actually produced


# stdout captured from the Gram solve (the flow bytes from earlier
# releases): a moved byte in the flow, the fixed-point roots and slopes or
# the refined peak positions is a change in the numbers the package
# reports, not in formatting
GOLDEN_FIXED_POINTS_3D = """[
  {
    "gamma": -1.0,
    "stability": "stable",
    "slope_at_root": 0.0
  },
  {
    "gamma": 2.940335965727841e-13,
    "stability": "unstable",
    "slope_at_root": 22.999999563191725
  },
  {
    "gamma": 1.0,
    "stability": "stable",
    "slope_at_root": 0.0
  }
]
"""

GOLDEN_FLOW_3D = """dim,step,gamma,j
3,0,-0.26,1
3,1,-0.999821105067,0.613272961827
3,2,-1,0.613218105919
3,3,-1,0.613218105919
3,4,-1,0.613218105919
"""

GOLDEN_GAMMA_M_3D = [-0.00210403356560512, -9.14815447101092e-05, -4.070069948786908e-06]


@pytest.mark.parametrize(
    "argv,want",
    [
        pytest.param(argv, want, id=argv)
        for argv, want in (
            ("fixed-points --dim 3 --grid 100", GOLDEN_FIXED_POINTS_3D),
            ("flow --dim 3 --gamma0 -0.26 --steps 4", GOLDEN_FLOW_3D),
        )
    ],
)
def test_stdout_matches_the_golden_bytes(argv, want, capsys):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == want


def test_scaling_gamma_m_matches_the_golden_values(capsys):
    assert cli.main(["scaling", "--dim", "3", "--grid", "51"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["gamma_m"] for p in report["points"]] == GOLDEN_GAMMA_M_3D
