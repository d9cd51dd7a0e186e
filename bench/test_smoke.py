"""Smoke check of the benchmark harness at tiny inputs; runs in seconds.

    python3 -m pytest -q -p no:cacheprovider bench/test_smoke.py
"""

import functools
import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    SEED_ROWS_3D,
    Workload,
    check_curve_1d,
    check_fixed_points,
    check_scaling,
    closed_form_1d,
)

TINY_CURVE = Workload(
    "tiny-curve",
    ("concurrence", "--dim", "1", "--steps", "2", "--grid", "21", "--threads", "1"),
    "tiny 1D curve",
    functools.partial(check_curve_1d, steps=2, grid=21),
)
TINY_FIXED_POINTS = Workload(
    "tiny-fixed-points",
    ("fixed-points", "--dim", "1", "--grid", "100"),
    "tiny 1D fixed points",
    functools.partial(check_fixed_points, dim=1),
)


def _declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    results = run.measure([TINY_CURVE, TINY_FIXED_POINTS], 0.0, False, random.Random(0))
    for w in (TINY_CURVE, TINY_FIXED_POINTS):
        res = results[w.name]
        assert (res["attempted"], res["failures"]) == (1, [])
        summary = run.summarize(res, trace=False)
        assert {k: unit for k, (_v, unit, _s) in summary.items()} == _declared("end_to_end")
        assert all(value > 0 for value, _unit, _s in summary.values())
        scale = run.speed_scale(res)
        assert summary["run_s"][0] == scale * statistics.median(res["samples"]["run_s"])
        cpu_scale = run.speed_scale(res, "reference_cpu_s")
        assert summary["cpu_s"][0] == cpu_scale * statistics.median(res["samples"]["cpu_s"])
        assert summary["peak_rss_mb"][0] == statistics.median(res["samples"]["peak_rss_mb"])
        assert len(res["samples"]["setup_s"]) == 1 + run.FIRST_ROUND_SETUP_PROBES


def test_traced_run_reports_every_layer_metric():
    res = run.measure([TINY_CURVE], 0.0, True, random.Random(0))["tiny-curve"]
    assert (res["attempted"], res["failures"], res["absent"]) == (2, [], [])
    summary = run.summarize(res, trace=True)
    assert {k: unit for k, (_v, unit, _s) in summary.items()} == _declared("per_layer")
    value = {k: v for k, (v, _u, _s) in summary.items()}
    assert 0.0 < value["rgflow.flow_cache_hit_ratio"] < 1.0
    assert 0.0 < value["concurrence.cache_hit_ratio"] < 1.0
    assert value["scaling.probe.calls"] == 0
    assert value["concurrence.partial_trace_pair.calls"] == value["concurrence.wootters_concurrence.calls"]
    assert value["numerics.eigh_symmetric.dim3_sum"] >= 8 ** 3 * value["rgflow.ground_doublet.calls"]
    for name in tracer.FUNCTIONS:
        assert value[f"{name}.self_s"] <= value[f"{name}.total_s"] + 1e-9


def test_a_wrong_reference_fails_the_checks():
    report, status, _usage = run.run_child(list(TINY_CURVE.argv), None, 60)
    assert status == 0
    assert check_curve_1d(report["stdout"], 2, 21) == []
    wrong = lambda g, step: closed_form_1d(g, step) + 1e-9  # noqa: E731
    assert check_curve_1d(report["stdout"], 2, 21, reference=wrong)
    assert check_curve_1d(report["stdout"], 3, 21)
    assert check_fixed_points(run.run_child(list(TINY_FIXED_POINTS.argv), None, 60)[0]["stdout"], dim=3)


def test_scaling_check_against_the_seed_rows():
    report = {
        "points": [{"step": s, "N": n, "gamma_m": g, "max_abs_derivative": p} for s, n, g, p in SEED_ROWS_3D],
        "derivative_fit": {"r2": 0.999998},
        "exponent_fit": {"theta": 1.6054, "r2": 0.999996},
    }
    assert check_scaling(json.dumps(report)) == []
    wrong = [(s, n, 2.0 * g, p) for s, n, g, p in SEED_ROWS_3D]
    assert check_scaling(json.dumps(report), reference=wrong)
    report["exponent_fit"]["theta"] = 1.3
    assert check_scaling(json.dumps(report))


def test_tracer_rebinds_names_and_reports_absent_functions():
    pkg = "fakeqrg"
    rgflow = types.ModuleType(f"{pkg}.rgflow")
    exec(
        "def ground_doublet(g):\n    return g\n"
        "def rg_map(g):\n    return ground_doublet(g)\n",
        rgflow.__dict__,
    )
    cli = types.ModuleType(f"{pkg}.cli")
    cli.ground_doublet = rgflow.ground_doublet
    modules = {pkg: types.ModuleType(pkg), rgflow.__name__: rgflow, cli.__name__: cli}
    sys.modules.update(modules)
    try:
        t = tracer.Tracer(package=pkg)
        t.install()
        rgflow.rg_map(0.5)
        cli.ground_doublet(0.25)
    finally:
        for name in modules:
            del sys.modules[name]
    assert set(t.absent) == set(tracer.FUNCTIONS) - {"rgflow.ground_doublet", "rgflow.rg_map"}
    value = {k: v for k, (v, _u) in tracer.layer_metrics(t.spans).items()}
    assert value["rgflow.ground_doublet.calls"] == 2
    assert value["rgflow.rg_map.calls"] == 1
    assert value["rgflow.flow_cache_hit_ratio"] == 0.0  # the one rg_map call missed


def test_self_time_is_computed_per_thread():
    main, pool = threading.get_ident(), -1
    spans = [
        (0, "concurrence.concurrence_curve", main, None, 0.0, 10.0, 0),
        (1, "rgflow.rg_map", main, 0, 1.0, 4.0, 0),
        (2, "concurrence.flowed_concurrence", pool, None, 2.0, 9.0, 0),
    ]
    value = {k: v for k, (v, _u) in tracer.layer_metrics(spans).items()}
    assert value["concurrence.concurrence_curve.self_s"] == 7.0
    assert value["concurrence.flowed_concurrence.self_s"] == 7.0
    assert value["scaling.probe.calls"] == 0


def test_without_the_sources_the_benchmark_exits_nonzero_without_a_result():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curve-1d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
