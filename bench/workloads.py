"""The benchmark's workloads and the checks on their output.

Each workload is one `qrg` invocation. Its check reads the captured stdout
and returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]
    why: str
    check: Callable[[str], list]

    @property
    def threads(self):
        """Threads the run computes on: its --threads value, else 1."""
        return int(self.argv[self.argv.index("--threads") + 1]) if "--threads" in self.argv else 1


# -- curve-1d --------------------------------------------------------------

def closed_form_1d(gamma0, step):
    """Exact 1D corner-pair concurrence after `step` rg steps:
    g = tanh(3**step atanh gamma0), C = (1-|g|)^2 / (2(1+g^2))."""
    with np.errstate(divide="ignore"):
        g = np.tanh(3.0 ** step * np.arctanh(gamma0))
    return (1.0 - np.abs(g)) ** 2 / (2.0 * (1.0 + g * g))


def check_curve_1d(text, steps, grid, reference=closed_form_1d):
    """`qrg concurrence --dim 1` rows against the closed form: concurrence to
    1e-12, abs_derivative against np.gradient of the closed form. The CSV
    prints 12 significant digits, which the derivative tolerance allows for."""
    lines = text.strip().split("\n")
    if lines[0] != "dim,step,gamma,concurrence,abs_derivative":
        return [f"unexpected header {lines[0]!r}"]
    if len(lines) - 1 != (steps + 1) * grid:
        return [f"{len(lines) - 1} rows, expected {(steps + 1) * grid}"]
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    gs = np.linspace(-1.0, 1.0, grid)
    problems = []
    for step in range(steps + 1):
        rows = table[step * grid:(step + 1) * grid]
        if not (np.all(rows[:, 0] == 1) and np.all(rows[:, 1] == step)):
            problems.append(f"step {step}: dim/step columns out of order")
            continue
        if np.max(np.abs(rows[:, 2] - gs)) > 1e-12:
            problems.append(f"step {step}: gamma column is not the uniform grid")
        conc = reference(gs, step)
        err = np.max(np.abs(rows[:, 3] - conc))
        if not err <= 1e-12:
            problems.append(f"step {step}: concurrence off the closed form by {err:.3e}")
        deriv = np.abs(np.gradient(conc, gs, edge_order=1))
        err = np.max(np.abs(rows[:, 4] - deriv) / (1.0 + deriv))
        if not err <= 1e-9:
            problems.append(f"step {step}: abs_derivative off the closed form by {err:.3e} (relative)")
    return problems


# -- fixed-points-3d -------------------------------------------------------

SLOPE_AT_ZERO = {1: 3.0, 2: 11.0, 3: 23.0}


def check_fixed_points(text, dim):
    """Roots -1, 0, +1 within 1e-8, stable/unstable/stable, slope at 0 of
    3 / 11 / 23 in 1 / 2 / 3 dimensions within 1e-3."""
    points = json.loads(text)
    if len(points) != 3:
        return [f"{len(points)} fixed points, expected 3"]
    problems = []
    for p, root, stability in zip(points, (-1.0, 0.0, 1.0), ("stable", "unstable", "stable")):
        if not abs(p["gamma"] - root) <= 1e-8:
            problems.append(f"root {p['gamma']!r}, expected {root}")
        if p["stability"] != stability:
            problems.append(f"root {root}: {p['stability']}, expected {stability}")
    slope = points[1]["slope_at_root"]
    if not abs(slope - SLOPE_AT_ZERO[dim]) <= 1e-3:
        problems.append(f"slope at 0 is {slope!r}, expected {SLOPE_AT_ZERO[dim]}")
    return problems


# -- scaling-3d ------------------------------------------------------------

# (step, N, gamma_m, max_abs_derivative) of `qrg scaling --dim 3` at the
# commit that introduced the benchmark; --grid 51 and --grid 201 give the same
# rows to the last digit, because the golden-section probes, not the grid,
# place the peak
SEED_ROWS_3D = (
    (1, 7, -2.104029242783804e-03, 22.88480474461592),
    (2, 49, -9.148546691961401e-05, 526.333510642603),
    (3, 343, -4.070069948786908e-06, 11933.462411061368),
)
# gamma_m and the peak may move by this share of the seed rows. The finite
# difference behind them has half-width 1e-6, a quarter of |gamma_m| at
# step 3, so a derivative without that stencil can move them by up to about
# that much; a larger change is a different physics result.
ROW_RTOL = 0.25
THETA_BAND = (1.45, 1.75)
MIN_R2 = 0.98


def check_scaling(text, reference=SEED_ROWS_3D):
    """theta in 1.60 +- 0.15, both fits r^2 >= 0.98, gamma_m rising strictly
    toward 0, peaks growing strictly, rows within ROW_RTOL of `reference`."""
    report = json.loads(text)
    rows = [(p["step"], p["N"], p["gamma_m"], p["max_abs_derivative"]) for p in report["points"]]
    problems = []
    theta = report["exponent_fit"]["theta"]
    if not THETA_BAND[0] <= theta <= THETA_BAND[1]:
        problems.append(f"theta {theta!r} outside {THETA_BAND}")
    for fit in ("derivative_fit", "exponent_fit"):
        if not report[fit]["r2"] >= MIN_R2:
            problems.append(f"{fit} r2 {report[fit]['r2']!r} below {MIN_R2}")
    gms = [r[2] for r in rows]
    peaks = [r[3] for r in rows]
    if not all(a < b for a, b in zip(gms, gms[1:])) or not gms[-1] < 0.0:
        problems.append(f"gamma_m does not rise strictly toward 0: {gms}")
    if not all(a < b for a, b in zip(peaks, peaks[1:])):
        problems.append(f"peaks do not grow strictly: {peaks}")
    if [r[:2] for r in rows] != [r[:2] for r in reference]:
        problems.append(f"(step, N) {[r[:2] for r in rows]}, expected {[r[:2] for r in reference]}")
    else:
        for (step, _n, gm, pk), (_s, _n2, gm_ref, pk_ref) in zip(rows, reference):
            for label, got, ref in (("gamma_m", gm, gm_ref), ("peak", pk, pk_ref)):
                if not abs(got - ref) <= ROW_RTOL * abs(ref):
                    problems.append(f"step {step}: {label} {got!r} is off the seed row {ref!r}")
    return problems


# BENCHMARK.json lists scaling-3d and fixed-points-3d only: with two workloads
# a run can last 58 s and still fit the time allowed for all runs, and the
# two pair every planned optimization (precomputed blocks, Dicke sector,
# batched grid, cache and thread-pool removal) with a workload that exercises
# it and, except the block changes, one that bypasses it. curve-1d stays for
# runs by hand (--workload curve-1d or all).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scaling-3d",
            ("scaling", "--dim", "3", "--grid", "51", "--threads", "2"),
            "128x128 blocks: scalar golden-section probes plus a grid sweep on a 2-thread "
            "pool; the headline theta result",
            check_scaling,
        ),
        Workload(
            "curve-1d",
            ("concurrence", "--dim", "1", "--steps", "6", "--grid", "201", "--threads", "1"),
            "8x8 blocks, pure single-threaded grid sweep: per-point Python overhead and "
            "cache reuse dominate",
            functools.partial(check_curve_1d, steps=6, grid=201),
        ),
        Workload(
            "fixed-points-3d",
            ("fixed-points", "--dim", "3", "--grid", "100"),
            "sequential scalar gamma_prime calls with almost no cache reuse and no "
            "concurrence layer: the control workload",
            functools.partial(check_fixed_points, dim=3),
        ),
    )
}
