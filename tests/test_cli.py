import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    for grid in (101, 100):
        proc = run_cli("fixed-points", "--dim", "1", "--grid", str(grid), "--curve-out", str(curve_path))
        points = json.loads(proc.stdout)
        assert [p["gamma"] for p in points] == [-1.0, 0.0, 1.0]
        assert [p["stability"] for p in points] == ["stable", "unstable", "stable"]
        assert abs(points[1]["slope_at_root"] - 3.0) < 1e-4
        lines = curve_path.read_text().strip().split("\n")
        assert lines[0] == "gamma,gamma_prime"
        # the curve is the grid asked for, without the 0.0 that the root
        # scan puts in an even grid
        assert [line.split(",")[0] for line in lines[1:]] == [cli._fmt(g) for g in np.linspace(-1.0, 1.0, grid)]
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
    # a grid of 2**64 points or more, past every numpy integer
    ("fixed-points", "--dim", "1", "--grid", "100000000000000000001"),
    ("scaling", "--dim", "1", "--grid", "100000000000000000001"),
    ("concurrence", "--dim", "1", "--grid", "100000000000000000001"),
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


# a key that is no command's field is refused, so that a misspelt one does
# not silently leave its field at the default; a key of another command is
# not, so that one config can serve several
def test_config_keys_must_be_fields_of_some_command(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dim": 1, "gamma0": 0.3, "stpes": 1, "fromat": "json"}))
    assert cli.main(["flow", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qrg-error: config: '{cfg}' has keys that no command takes: 'stpes', 'fromat'\n"
    cfg.write_text(json.dumps({"dim": 1, "steps": "1,2", "grid": 51, "format": "json", "gamma0": 0.3,
                               "curve_out": None, "js": [1.0]}))
    assert cli.main(["scaling", "--config", str(cfg)]) == 0
    shared = capsys.readouterr().out
    assert cli.main(["scaling", "--dim", "1", "--steps", "1,2", "--grid", "51"]) == 0
    assert capsys.readouterr().out == shared


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


# a grid of more points than one numpy float64 array can describe is
# refused by the grid field's check, which names the field and the value,
# not in numpy's words
@pytest.mark.parametrize("command", ["concurrence", "scaling", "fixed-points", "jsweep"])
@pytest.mark.parametrize("grid", [2 ** 59 + 1, 2 ** 60 + 1, 10 ** 20 + 1])
def test_a_grid_past_numpy_array_sizes_is_a_config_error(capsys, command, grid):
    assert cli.main([command, "--dim", "1", "--grid", str(grid)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qrg-error: field 'grid' must be <= {2 ** 59 - 1}, got {grid}\n"


def test_unknown_flag_exits_2_with_prefix():
    proc = run_cli("flow", "--dim", "1", "--gamma0", "0.1", "--nope", expect=2)
    assert "qrg-error: " in proc.stderr


def test_numerical_contract_failures_exit_3():
    # force an impossible degeneracy tolerance, one no third level clears,
    # so the solver's doublet check trips; that class of failure must map
    # to exit code 3, not 2
    code = (
        "import qrgxy.rgflow as r, qrgxy.cli as c, sys;"
        "r.DEGENERACY_RTOL = 1.0;"
        "sys.exit(c.main(['groundstate', '--dim', '1']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("qrg-error: ")
    assert "not twofold" in proc.stderr


def test_the_cli_pulls_in_no_undeclared_dependency():
    # numpy is the one runtime dependency: scipy and mpmath may be
    # installed, but no import and no run of the package may load them
    # nor may an exact argv load argparse, which only help and errors need,
    # nor dataclasses, whose decorator costs start-up and whose records the
    # package does not use, nor __future__: under its string annotations
    # each NamedTuple record compiles a ForwardRef per field
    code = (
        "import json, sys, qrgxy.cli as c;"
        "code = c.main(['concurrence', '--dim', '3', '--steps', '1', '--grid', '5']);"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'mpmath', 'argparse', 'dataclasses', '__future__'))), file=sys.stderr);"
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


# stdout captured from the secular solve (the flow bytes from earlier
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
    "gamma": 0.0,
    "stability": "unstable",
    "slope_at_root": 22.999999563200053
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

GOLDEN_GAMMA_M_3D = [-0.00210402783203125, -9.148437499999999e-05, -4.071289062499999e-06]


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


# a config value of the wrong type is refused by its field's check, before
# anything is computed or written: none reaches a library call or open(),
# which takes true or 2 for a file descriptor (capfd sees those writes)
@pytest.mark.parametrize(
    "command,config,message",
    [
        ("groundstate", {"dim": 1, "gamma0": None}, "field 'gamma0' is required"),
        ("flow", {"dim": 1, "gamma0": 0.2, "out": True}, "field 'out' must be a string, got True"),
        ("flow", {"dim": 1, "gamma0": 0.2, "out": 2}, "field 'out' must be a string, got 2"),
        ("fixed-points", {"dim": 1, "curve_out": ["a"]},
         "field 'curve_out' must be a string, got ['a']"),
    ],
    ids=["gamma0-null", "out-true", "out-2", "curve_out-list"],
)
def test_config_values_of_the_wrong_type_are_config_errors(tmp_path, capfd, command, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"qrg-error: {message}\n"


def test_a_null_out_or_curve_out_means_the_default(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": None, "curve_out": None}))
    assert cli.main(["fixed-points", "--dim", "1", "--config", str(cfg)]) == 0
    filed = capsys.readouterr().out
    assert cli.main(["fixed-points", "--dim", "1"]) == 0
    assert capsys.readouterr().out == filed


def test_an_unwritable_curve_out_is_named_and_leaves_stdout_empty(tmp_path, capsys):
    path = tmp_path / "missing" / "curve.csv"
    assert cli.main(["fixed-points", "--dim", "1", "--grid", "101", "--curve-out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qrg-error: field 'curve_out': cannot write '{path}': ")
    assert err.count("\n") == 1


# with two bad fields the first in check order is reported: dim, j, the
# command's own fields in their order, threads, format, out
@pytest.mark.parametrize(
    "command,config,message",
    [
        ("fixed-points", {"dim": 0, "j": -1}, "field 'dim' must be 1, 2 or 3, got 0"),
        ("scaling", {"dim": 1, "j": 0, "steps": 3}, "field 'j' must be finite and > 0, got 0.0"),
        ("jsweep", {"dim": 1, "grid": 4, "js": [0]},
         "field 'grid' must be odd so gamma = 0 is a grid point, got 4"),
        ("concurrence", {"dim": 1, "grid": 4, "threads": 0}, "field 'grid' must be >= 5, got 4"),
        ("flow", {"dim": 1, "gamma0": 0.1, "threads": 0, "format": "xml"},
         "field 'threads' must be >= 1, got 0"),
        ("groundstate", {"dim": 1, "format": "xml", "out": True},
         "field 'format' must be 'csv' or 'json', got 'xml'"),
    ],
    ids=["dim-j", "j-steps", "grid-js", "grid-threads", "threads-format", "format-out"],
)
def test_the_first_bad_field_in_check_order_is_reported(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qrg-error: {message}\n"


# the parser builds only the dispatched command's flags, so its --help is
# the one place where they all show
COMMAND_FLAGS = {
    "flow": ["--gamma0", "--steps", "--format"],
    "concurrence": ["--steps", "--grid", "--format"],
    "scaling": ["--steps", "--grid"],
    "groundstate": ["--gamma0", "--format"],
    "fixed-points": ["--grid", "--curve-out"],
    "jsweep": ["--grid", "--js"],
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_each_command_help_lists_its_flags(command, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "--help"])
    assert stop.value.code == 0
    listed = re.findall(r"^  (?:-\w, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    common = ["--help", "--config", "--dim", "--j", "--threads", "--out"]
    assert sorted(listed) == sorted(common + COMMAND_FLAGS[command])


_DESCRIPTION = cli._build_parser([]).description


def _parser_of_every_command(argv):
    """The parser with a subparser for each of the six commands, whatever
    argv is, and the flags of the first command named in argv."""
    parser = cli._Parser(prog="qrg", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((token for token in argv if token in cli._COMMANDS), None)
    for name, (help_text, _run, fields) in cli._COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == command:
            sp.add_argument("--config", help="JSON config file; flags override it")
            for field, type_, field_help, _default, _check in fields:
                sp.add_argument("--" + field.replace("_", "-"), type=type_, help=field_help)
    return parser


def _run_main(argv, capsys):
    """(exit code, stdout, stderr) of cli.main(argv), also where argparse exits."""
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return code, out, err


# argv that starts with a command builds that command's subparser only;
# help, usage errors and their exit codes read as with all six
@pytest.mark.parametrize(
    "argv",
    ["--help", "", "bogus", "-h scaling", "--dim 3 scaling", "scaling --bogus 1", "scaling scaling",
     "fixed-points --grid x", "fixed-points --dim=3 --grid 100", "fixed-points --gri 100 --dim 3",
     "flow --dim 1 --gamma0 -1e-3", "fixed-points --grid 100 --grid x"]
    + [f"{command} --help" for command in cli._COMMANDS],
)
def test_a_parser_of_one_command_prints_what_one_of_all_six_does(argv, capsys, monkeypatch):
    got = _run_main(argv.split(), capsys)
    monkeypatch.setattr(cli, "_build_parser", _parser_of_every_command)
    assert _run_main(argv.split(), capsys) == got
    assert got[0] in (0, 2) and (got[1] or got[2])


def test_a_command_given_first_gets_the_only_subparser():
    assert cli._build_parser(["scaling", "--dim", "3"]).format_usage() == "usage: qrg [-h] {scaling} ...\n"
    every = "{" + ",".join(cli._COMMANDS) + "}"
    for argv in ([], ["-h", "scaling"], ["--dim", "3", "scaling"]):
        assert every in cli._build_parser(argv).format_usage()


def test_help_in_a_fresh_process_prints_what_the_parser_formats(monkeypatch):
    # argparse is imported only for help and errors; the help it prints is
    # that of the parser with all six commands
    monkeypatch.setenv("COLUMNS", "80")
    want = _parser_of_every_command(["--help"]).format_help()
    proc = run_cli("--help")
    assert proc.stdout == want and proc.stderr == ""


# -- the exact argv that main reads without argparse ------------------------

_ALL_FLAGS = sorted({cli._flag(field[0]) for _help, _run, fields in cli._COMMANDS.values() for field in fields})
_VALUES = st.one_of(
    st.integers(-3, 2001).map(str),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["-0.26", "-1e-3", "", "x", "1,2", "0.1 1", *cli._COMMANDS]),
)


@st.composite
def _argv(draw):
    """A command and tokens over its flags: mostly exact pairs, and also
    abbreviated and --flag=value flags, flags of other commands and -h."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    own = ["--config"] + [cli._flag(field[0]) for field in cli._COMMANDS[command][2]]
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        flag, value = draw(st.sampled_from(own)), draw(_VALUES)
        kind = draw(st.sampled_from(["exact"] * 8 + ["abbreviated", "equals", "other", "help"]))
        if kind == "abbreviated":
            argv += [flag[:draw(st.integers(3, len(flag)))], value]
        elif kind == "equals":
            argv.append(f"{flag}={value}")
        elif kind == "other":
            argv += [draw(st.sampled_from(_ALL_FLAGS)), value]
        elif kind == "help":
            argv.append(draw(st.sampled_from(["-h", "--help"])))
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argv())
def test_an_argv_read_exactly_parses_as_argparse_parses_it(argv):
    args = cli._exact_args(argv)
    if args is not None:
        assert args == vars(cli._build_parser(argv).parse_args(argv))


def _readme_examples():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Command line\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("qrg ")]


def _bench_argv(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while it is made
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [list(w.argv) for w in workloads.WORKLOADS.values()]


def test_the_bench_and_readme_argv_are_read_exactly(monkeypatch):
    readme = [argv for argv in _readme_examples() if not any(v.startswith("-") for v in argv[2::2])]
    assert len(readme) == 5
    for argv in _bench_argv(monkeypatch) + readme:
        args = cli._exact_args(argv)
        assert args is not None, argv
        assert args == vars(cli._build_parser(argv).parse_args(argv))


# -- a stdout that cannot be written -----------------------------------------

class _FullStdout:
    """A stdout on a descriptor whose every write fails, as on a full disk."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise OSError(28, "No space left on device")

    def fileno(self):
        return self.fd


def test_a_stdout_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch):
    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _FullStdout(fh.fileno()))
        assert cli.main(["fixed-points", "--dim", "1"]) == 2
        # its descriptor now points at os.devnull, so the flush at exit
        # has nothing to fail on
        os.write(fh.fileno(), b"flushed at exit")
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == "qrg-error: field 'out': cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_2_with_one_error_line():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qrgxy", "fixed-points", "--dim", "1"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == "qrg-error: field 'out': cannot write stdout: [Errno 28] No space left on device\n"
