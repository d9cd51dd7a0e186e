"""Cold-process benchmark of the `qrg` command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S      # every workload

Every measured repetition is a fresh Python process (bench/child.py), so the
flow and block-concurrence caches start cold, as they do for every CLI user.
The loop is closed with one client: one invocation at a time, in rounds,
until the next round would end after --seconds. A round holds one
repetition of each workload plus import-only processes that sample set-up
time; --seed only shuffles the order of the jobs in a round. Each job is
pinned to as many vCPUs as the workload has threads. The parent reads each
child's CPU time and peak memory with os.wait4 and checks the captured
output.

--trace 0 reports the end-to-end metrics: medians over repetitions, with
times scaled to the host's nominal speed by a reference computation timed
between repetitions (see REFERENCE_SHARE).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see bench/tracer.py), with the tracing
overhead against the untraced ones.

Every metric is printed by name and unit; the last line of stdout is one
JSON object with keys correct, attempted, failed and metrics. Results, the
machine description and the spans of the last traced repetition are written
to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one BLAS thread, so that a run uses no more threads than its --threads
# (at most 2, the cores of the machine the benchmark was set up on)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# import-only processes per workload in a round, for setup_s samples; the
# first round takes more, so that a run of one long repetition still has a
# steady median
SETUP_PROBES = 2
FIRST_ROUND_SETUP_PROBES = 10
# a child still running this long after the run began is killed and counts
# as failed, so that a run ends within 180 s whatever --seconds says
RUN_LIMIT_S = 170

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# the reference samples that scale each time metric
SCALED_BY = {"setup_s": "reference_s", "run_s": "reference_s", "cpu_s": "reference_cpu_s"}

# The host is a shared VM whose speed drifts by a third within minutes, and
# each of its two vCPUs drifts on its own (their speeds correlated 0.1 to 0.4
# over 0.5 to 4 s windows): the same fixed-points-3d repetition took a median
# 1.46 s in one 58 s run and 2.37 s in another two minutes later. That drift,
# not the program, would set the spread between runs. So each repetition runs
# on as many vCPUs as it has threads, and after it the parent times a fixed
# reference computation on each of those vCPUs in turn, for REFERENCE_SHARE
# of the repetition's time. The reported times are the medians scaled to the
# host's nominal speed: wall-clock times by REFERENCE_NOMINAL_S over the mean
# wall-clock reference time, which counts the time the host takes a vCPU away
# as the repetition's wall clock does; CPU times by REFERENCE_NOMINAL_S over
# the mean CPU time of the reference, which like the child's CPU time does
# not. The medians as measured are printed and written beside them.
REFERENCE_SHARE = 0.2
# about the mean reference time on the 2-core Xeon VM the benchmark was set
# up on, so that scaled and measured times read alike there
REFERENCE_NOMINAL_S = 0.012
# the vCPUs this process may use when it starts; repetitions are pinned to
# the first of them
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0], [1.0, 0.0]])

NOTE = ("shared 2-core sandbox: CPU time tracks wall time on single-threaded "
        "workloads, so run-to-run spread comes from the host; end-to-end times are "
        "medians scaled to the host's nominal speed by a reference computation")


def reference_kernel():
    """A fixed stand-in for the program's two kinds of work that shares none
    of its code: the XX - YY centre-corner bond sum of a 7-spin block, built
    from Kronecker products, with its eigensolve; and a pure-Python loop of
    about the same length, for the interpreter work between numpy calls.
    Either part alone tracked the host's speed less closely than the two."""
    h = np.zeros((128, 128))
    for corner in range(1, 7):
        for op, sign in ((_X, 1.0), (_Y, -1.0)):
            m = np.ones((1, 1))
            for k in range(7):
                m = np.kron(m, op if k in (0, corner) else np.eye(2))
            h += sign * m
    total = 0
    for i in range(60000):
        total += i * i
    return np.linalg.eigvalsh(h)[0] + total


def time_reference(seconds, cpus):
    """Wall-clock and CPU durations of back-to-back reference kernels over
    about `seconds`, split evenly over `cpus`, each share pinned to its vCPU."""
    walls, cpu_times = [], []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        end = time.monotonic() + seconds / len(cpus)
        first = len(walls)
        while len(walls) == first or time.monotonic() < end:
            start, start_cpu = time.perf_counter(), time.thread_time()
            reference_kernel()
            walls.append(time.perf_counter() - start)
            cpu_times.append(time.thread_time() - start_cpu)
    os.sched_setaffinity(0, cpus)
    return walls, cpu_times


def run_child(argv, spans_path, timeout):
    """Run bench/child.py; returns (report or None, exit status, rusage)."""
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), repr(spawn), spans_path or "-", *argv],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    # reaped by wait4 above; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(out.decode().strip().split("\n")[-1])
    except ValueError:
        report = None
    return report, proc.returncode, usage


def _problems(workload, report, status):
    if status != 0 or report is None:
        return [f"child exited with status {status}"]
    if report["exit"] != 0:
        return [f"qrg exited {report['exit']}: {report['stderr'].strip()}"]
    try:
        return workload.check(report["stdout"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _round(workloads, trace, probes):
    jobs = []
    for w in workloads:
        if trace:
            jobs += [(w, "untraced"), (w, "traced")]
        else:
            jobs += [(w, "untraced")] + [(w, "setup")] * probes
    return jobs


def measure(workloads, seconds, trace, rng):
    """Rounds of cold-process repetitions; returns per-workload samples.

    A further round starts only if it would end within `seconds`, judged by
    the longest time each of its jobs has taken so far."""
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    run_child([], None, RUN_LIMIT_S)  # compiles bytecode and warms the file cache
    results = {w.name: {"samples": defaultdict(list), "layers": [], "absent": [],
                        "attempted": 0, "failures": []} for w in workloads}
    longest = defaultdict(float)
    jobs = _round(workloads, trace, FIRST_ROUND_SETUP_PROBES)
    while True:
        rng.shuffle(jobs)
        for w, kind in jobs:
            if time.monotonic() >= limit:
                break
            res = results[w.name]
            spans = str(OUT / f"spans-{w.name}.csv") if kind == "traced" else None
            argv = [] if kind == "setup" else list(w.argv)
            cpus = ALLOWED_CPUS[:w.threads]
            os.sched_setaffinity(0, cpus)  # the child inherits it
            began = time.monotonic()
            report, status, usage = run_child(argv, spans, limit - began)
            if kind == "untraced":
                walls, cpu_times = time_reference(REFERENCE_SHARE * (time.monotonic() - began), cpus)
                res["samples"]["reference_s"] += walls
                res["samples"]["reference_cpu_s"] += cpu_times
            longest[w.name, kind] = max(longest[w.name, kind], time.monotonic() - began)
            if report is not None:
                res["samples"]["setup_s"].append(report["setup_s"])
            if kind == "setup":
                continue
            res["attempted"] += 1
            problems = _problems(w, report, status)
            if problems:
                res["failures"].append(problems)
                continue
            if kind == "traced":
                layers = {k: v for k, (v, _unit) in report["layers"].items()}
                layers["cli.out_bytes"] = len(report["stdout"].encode())
                res["layers"].append(layers)
                res["absent"] = report["absent"]
                res["samples"]["traced_run_s"].append(report["run_s"])
            else:
                res["samples"]["run_s"].append(report["run_s"])
                res["samples"]["cpu_s"].append(usage.ru_utime + usage.ru_stime)
                res["samples"]["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        jobs = _round(workloads, trace, SETUP_PROBES)
        if time.monotonic() - start + sum(longest[w.name, kind] for w, kind in jobs) > seconds:
            os.sched_setaffinity(0, ALLOWED_CPUS)
            return results


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def speed_scale(res, reference="reference_s"):
    """REFERENCE_NOMINAL_S over the run's mean reference time."""
    return REFERENCE_NOMINAL_S / statistics.fmean(res["samples"][reference])


def summarize(res, trace):
    """{metric: (value, unit, samples)} for one workload; times are scaled to
    the host's nominal speed, the samples are as measured."""
    samples = res["samples"]
    out = {}
    if not trace:
        for name, unit in END_TO_END:
            if samples[name]:
                scale = speed_scale(res, SCALED_BY[name]) if name in SCALED_BY else 1.0
                out[name] = (scale * statistics.median(samples[name]), unit, samples[name])
        return out
    units = {k: unit for k, (_v, unit) in layer_metrics([]).items()}
    units["cli.out_bytes"] = "bytes"
    for name, unit in units.items():
        values = [layers[name] for layers in res["layers"]]
        if values:
            out[name] = (statistics.median(values), unit, values)
    if samples["traced_run_s"] and samples["run_s"]:
        ratio = statistics.median(samples["traced_run_s"]) / statistics.median(samples["run_s"])
        out["trace.overhead_frac"] = (ratio - 1.0, "frac", [])
    return out


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable: not a git checkout"


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine():
    import numpy as np

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": PINNED,
        "git_revision": _git_revision(),
        "note": NOTE,
    }


def _line(name, value, unit, values):
    extra = ""
    if values:
        q1, q3 = _quartiles(values)
        extra = (f"  as measured: median={statistics.median(values):.6g} n={len(values)} "
                 f"min={min(values):.6g} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}")
    return f"  {name:<44} {value:>14.6g} {unit:<14}{extra}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qrgxy" / "cli.py").is_file():
        print(f"bench: no qrgxy sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    env = machine()
    env["loadavg_before"] = _read("/proc/loadavg").strip()
    results = measure(workloads, args.seconds, bool(args.trace), random.Random(args.seed))
    env["loadavg_after"] = _read("/proc/loadavg").strip()

    for key, value in env.items():
        print(f"# {key}: {value}")
    metrics, attempted, failed = {}, 0, 0
    for w in workloads:
        res = results[w.name]
        attempted += res["attempted"]
        failed += len(res["failures"])
        print(f"# workload {w.name}: qrg {' '.join(w.argv)}")
        print(f"#   why: {w.why}")
        print(f"#   attempted {res['attempted']}, failed {len(res['failures'])}, "
              f"fail_frac {len(res['failures']) / max(res['attempted'], 1):.3f}")
        for problems in res["failures"]:
            print(f"#   FAILED: {'; '.join(problems)}")
        if res["absent"]:
            print(f"#   absent (reported as 0): {', '.join(res['absent'])}")
        prefix = f"{w.name}." if args.workload == "all" else ""
        summary = summarize(res, bool(args.trace))
        if res["samples"]["reference_s"]:
            print(f"#   host speed scale {speed_scale(res):.4f} wall-clock, "
                  f"{speed_scale(res, 'reference_cpu_s'):.4f} CPU: mean reference "
                  f"{statistics.fmean(res['samples']['reference_s']):.6g} s wall-clock, "
                  f"{statistics.fmean(res['samples']['reference_cpu_s']):.6g} s CPU, "
                  f"nominal {REFERENCE_NOMINAL_S} s")
        for name, (value, unit, values) in summary.items():
            print(_line(prefix + name, value, unit, values))
            metrics[prefix + name] = {"value": value, "unit": unit}
        (OUT / f"result-{w.name}-trace{args.trace}.json").write_text(json.dumps({
            "workload": w.name, "argv": list(w.argv), "why": w.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "machine": env,
            "attempted": res["attempted"], "failures": res["failures"], "absent": res["absent"],
            "speed_scale": ({ref: speed_scale(res, ref) for ref in ("reference_s", "reference_cpu_s")}
                            if res["samples"]["reference_s"] else None),
            "samples": res["samples"],
            "metrics": {name: {"value": v, "unit": u} for name, (v, u, _s) in summary.items()},
        }, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
