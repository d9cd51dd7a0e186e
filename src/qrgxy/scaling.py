"""Critical-point analysis: derivative curves, peak location, and log-log
scaling of the derivative divergence and of the peak-position approach to
the critical point.

The concurrence stays continuous through the transition while its gamma
derivative sharpens with every coarse-graining step; the two scaling
quantities extracted here are the growth of the derivative maximum with
represented system size N and the exponent theta in gamma_m = gamma_c -
N^(-theta), with gamma_c = 0 taken as exact.

peak_points finds the peaks without the grid: the refinement probes the
derivative through the full flow + concurrence pipeline over the whole
side, and only a step whose peak is a cusp at the critical point, every
step in 1D and no default step in 2D or 3D, reads its gamma_m off a grid
curve, the curves of all such steps read off one flow of the grid. The
refinement's steps are generators that ask for probe points and are sent
the values; _probed turns each batch of points into the flows of their
stencils, and the refinements of all steps of a peak_points call run
together on concurrence.concurrence_searches, each at its own pace: the
flows of every batch in flight share each tick's solve, and a refinement
asks for its next batch as soon as its own flows end, so the short flows
of a low step do not wait for the long ones of a high step. A batch holds
the pre-scan of the side with the cusp probe, or one round of a section
search (_section_max): seven points across the bracket at first, then the
six new points of a bracket four times narrower around the best one.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .blocks import block_geometry
from .concurrence import ConcurrenceCurve, checked_grid, concurrence_curves, concurrence_searches
from .errors import ScalingUnderflowError
from .rgflow import step_counts

FD_STEP = 1e-6        # central-difference step of the derivative probe
PEAK_TOL = 1e-8       # width of the bracket a peak search ends on
CUSP_PROBE = 2.0      # in units of FD_STEP; see _refine
CUSP_DROP = 1e-3      # relative drop separating an interior peak from a cusp
PLATEAU_FRACTION = 0.9
UNDERFLOW_FLOOR = 1e-12

# step ranges keeping gamma_m resolvable: higher dimensions collapse onto the
# fixed point after fewer iterations
DEFAULT_STEPS = {1: (1, 2, 3, 4, 5, 6), 2: (1, 2, 3, 4), 3: (1, 2, 3)}


class DerivativeCurve(NamedTuple):
    gamma_grid: np.ndarray
    abs_derivative: np.ndarray
    rg_step: int
    dimension: int


class ScalingFit(NamedTuple):
    points: Tuple[Tuple[float, float], ...]  # (ln N, ln value)
    slope: float
    intercept: float
    r_squared: float


class ExponentEstimate(NamedTuple):
    theta: float
    gamma_c: float
    fit: ScalingFit


def derivative_curve(curve: ConcurrenceCurve) -> DerivativeCurve:
    """|dC/dgamma| on the curve's grid: central differences on interior
    points, one-sided at the two ends."""
    g = np.asarray(curve.gamma_grid, dtype=float)
    if g.size < 5:
        raise ValueError(f"derivative needs at least 5 grid points, got {g.size}")
    d = np.gradient(np.asarray(curve.values, dtype=float), g, edge_order=1)
    return DerivativeCurve(
        gamma_grid=g,
        abs_derivative=np.abs(d),
        rg_step=curve.rg_step,
        dimension=curve.dimension,
    )


def _probed(search, rg_step: int):
    """The point search `search` run on the derivative probe: |dC/dgamma|
    after rg_step coarse-graining steps, by a central difference of
    half-width FD_STEP, cut to [-1, 1], through the full flow + concurrence
    pipeline. A search for concurrence.concurrence_searches: each batch of
    points that `search` asks for becomes one batch of flows, both stencil
    points of every point, and `search` is sent their differences. A batch
    holds 6 to 21 points, so the stencils and the differences are taken
    point by point on floats, each by the operation an array would take,
    to the same bits."""
    values = None
    while True:
        try:
            points = search.send(values)
        except StopIteration as done:
            return done.value
        lo = [max(gamma - FD_STEP, -1.0) for gamma in points]
        hi = [min(gamma + FD_STEP, 1.0) for gamma in points]
        c = (yield lo + hi, rg_step).tolist()
        values = [abs(b - a) / (h - l) for a, b, l, h in zip(c, c[len(points) :], lo, hi)]


def _section_max(lo: float, hi: float):
    """Maximization over [lo, hi] as a generator: it yields the batches of
    points it needs the function at and is sent their values, and returns
    (argmax, its value), a point it asked for. It holds a center c and a
    half-width h, at first those of [lo, hi]. Its first batch asks for the
    seven points c + h k / 4, k = -3..3. Each round keeps the best point
    as c, ties going right, cuts h to h / 4 and asks for the six points
    c + h k / 4 other than c, whose value it has, so each round narrows
    the bracket 4 times. It stops once 2h <= PEAK_TOL: a bracket no wider
    than that asks for its midpoint alone. Every point lies inside
    [lo, hi], and none is asked twice."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if 2.0 * h <= PEAK_TOL:
        (fc,) = yield [c]
        return c, fc
    points = [c + 0.25 * k * h for k in range(-3, 4)]
    values = list((yield points))
    while True:
        best = max(range(7), key=lambda i: (values[i], i))
        c, fc, h = points[best], values[best], 0.25 * h
        if 2.0 * h <= PEAK_TOL:
            return c, fc
        points = [c + 0.25 * k * h for k in range(-3, 4)]
        new = list((yield points[:3] + points[4:]))
        values = new[:3] + [fc] + new[3:]


def _scan_distances() -> list:
    """Distances from gamma = 0 of the geometric pre-scan of one side:
    factor-2 steps from the innermost stencil-clean distance, CUSP_PROBE *
    FD_STEP, out to the side's edge 1."""
    dists = [CUSP_PROBE * FD_STEP]
    while dists[-1] * 2.0 < 1.0:
        dists.append(dists[-1] * 2.0)
    dists.append(1.0)
    return dists


def _scan_then_section(side: str, dists: list, vals):
    """Maximize a function over one side of gamma = 0, given its values
    `vals` at the pre-scan distances `dists`; a generator like _section_max.

    Deep rg steps push the derivative maximum orders of magnitude closer to
    the critical point than the scale of the side, while much of the side
    is exactly flat (the concurrence clamps to zero well before the
    anisotropic fixed point). A section search started blind on the side
    ties on the flat part and can walk away from the peak, so the geometric
    pre-scan (_scan_distances) localizes it first, and the section search
    then refines the best scan cell, the scan points next to the best one."""
    m = int(np.argmax(vals))
    d_in = dists[m - 1] if m > 0 else dists[0]
    d_out = dists[m + 1] if m + 1 < len(dists) else dists[-1]
    if side == "positive":
        return (yield from _section_max(d_in, d_out))
    return (yield from _section_max(-d_out, -d_in))


def _refine(side: str):
    """(gamma, peak |dC/dgamma|, interior) of the derivative maximum on one
    sign side of gamma, as a generator that yields the points it needs the
    derivative probe at and is sent its values (see _probed and
    _refinements).

    The derivative probe (_probed: central difference, step 1e-6, computed
    through the full flow + concurrence pipeline) is maximized over the
    whole side down to an interval of PEAK_TOL: a geometric pre-scan of
    the side, then a section search on the best scan cell (see
    _scan_then_section). The refined position is classified by one extra
    probe at 2 * FD_STEP from the critical point, the closest position
    whose difference stencil stays on a single side. The pre-scan and this
    cusp probe go in one batch; the section search then asks for 7 points
    and for 6 per round (see _section_max).

    * if the derivative there has dropped below (1 - 1e-3) of the refined
      peak, the peak is a genuine interior maximum (the smooth,
      higher-dimensional situation: the probe at the near point sits far
      down the flank, at a small fraction of the peak), interior is True
      and the refined position is gamma_m;
    * otherwise the derivative stays at its supremum essentially all the
      way into the critical point, i.e. the curve has a cusp there rather
      than an interior maximum, and interior is False. The refined
      position is then meaningless (the search lands on evaluation noise
      somewhere in the flat approach region, wherever its probe sequence
      happens to stall), and gamma_m is read off a grid curve instead
      (_located).

    The peak value always comes from the refined probe; in both regimes it
    saturates at the derivative supremum on the side.
    """
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    sign = 1.0 if side == "positive" else -1.0
    dists = _scan_distances()
    *scan, near = yield [sign * dist for dist in dists] + [sign * CUSP_PROBE * FD_STEP]
    gamma_hat, peak = yield from _scan_then_section(side, dists, scan)
    return float(gamma_hat), float(peak), bool(near < (1.0 - CUSP_DROP) * peak)


def _refinements(dimension: int, rg_steps, side: str) -> list:
    """The _refine result of each of rg_steps on one sign side of gamma.
    The refinements run together in concurrence.concurrence_searches, each
    probing at its own rg step and each at its own pace: the flows of every
    probe batch in flight share each tick's solve, and a refinement asks
    for its next batch as soon as its own flows end. Every refinement sees
    the values it would see alone, in the same order."""
    searches = [_probed(_refine(side), step) for step in rg_steps]
    return concurrence_searches(dimension, searches)


def _located(curve: DerivativeCurve, side: str, refined) -> Tuple[float, float]:
    """(gamma_m, peak |dC/dgamma|) on one sign side of gamma from the
    _refine result `refined` at the curve's rg step, once the curve passes
    the side checks: the refined position when the peak is interior, else
    the knee of the cusp, the outermost grid point on the side whose
    tabulated derivative is still within 10% of the side maximum, where
    the divergence visibly saturates at grid resolution. The knee still
    marches monotonically toward the critical point with the rg step,
    which is what downstream fits need."""
    g = np.asarray(curve.gamma_grid, dtype=float)
    d = np.asarray(curve.abs_derivative, dtype=float)
    if not np.any(d > 0.0):
        raise ValueError("cannot locate a maximum of an all-zero derivative curve")
    side_idx = np.flatnonzero((g > 0.0) if side == "positive" else (g < 0.0))
    if side_idx.size == 0 or not np.any(d[side_idx] > 0.0):
        raise ValueError(f"derivative curve vanishes on the {side} side")
    gamma_hat, peak, interior = refined
    if interior:
        return gamma_hat, peak
    side_d = d[side_idx]
    plateau = side_idx[side_d >= PLATEAU_FRACTION * float(side_d.max())]
    edge = plateau[-1] if side == "positive" else plateau[0]
    return float(g[int(edge)]), peak


def _refined_peaks(curves, side: str):
    """(gamma_m, peak |dC/dgamma|) of each of curves, all of one dimension,
    on one sign side of gamma: the refinements at the curves' rg steps
    (_refinements), each placed by _located on its curve. A curve serves
    only its dimension, its rg step, the side checks and the knee of a
    cusp."""
    refined = _refinements(curves[0].dimension, [curve.rg_step for curve in curves], side)
    return [_located(curve, side, r) for curve, r in zip(curves, refined)]


def locate_max(curve: DerivativeCurve, side: str) -> float:
    """Position gamma_m of the derivative maximum on one sign side of gamma;
    see _refine for the refinement and _located for its cusp-limited
    fallback."""
    return _refined_peaks([curve], side)[0][0]


def system_size(dimension: int, rg_step: int) -> int:
    """Sites represented per renormalized site: N = n_B^step with n_B the
    block size 3/5/7."""
    n_sites = block_geometry(dimension).n_sites
    rg_step = int(step_counts(rg_step))
    if rg_step < 1:
        raise ValueError(
            f"rg_step must be >= 1 for a scaling point (step 0 represents no "
            f"coarse-graining), got {rg_step}"
        )
    return n_sites ** rg_step


def fit_loglog(ln_x: Sequence[float], ln_y: Sequence[float]) -> ScalingFit:
    """Ordinary least squares through the (ln x, ln y) points, in closed
    form on the centered points, every sum taken by math.fsum, correctly
    rounded, so that no BLAS kernel or summation order sets the bits."""
    x = np.atleast_1d(np.asarray(ln_x, dtype=float))
    y = np.atleast_1d(np.asarray(ln_y, dtype=float))
    # min and max, not np.unique: the first np.unique call of a process
    # imports numpy.ma, which costs more than the fit
    if x.size != y.size or x.size < 2 or x.min() == x.max():
        raise ValueError("need (x, y) points of equal count with at least two distinct x")
    x_mean, y_mean = math.fsum(x) / x.size, math.fsum(y) / y.size
    dx, dy = x - x_mean, y - y_mean
    slope = math.fsum(dx * dy) / math.fsum(dx * dx)
    intercept = y_mean - slope * x_mean
    resid = y - (slope * x + intercept)
    ss_tot = math.fsum(dy * dy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - math.fsum(resid * resid) / ss_tot
    return ScalingFit(points=tuple(zip(x.tolist(), y.tolist())), slope=slope, intercept=intercept, r_squared=r2)


def peak_points(
    dimension: int,
    steps: Sequence[int] | None = None,
    grid: int = 2001,
):
    """(step, N, gamma_m, peak |dC/dgamma|) rows for the requested steps.
    The peaks of all steps are refined first, together and without the
    grid (_refinements); only the steps whose cusp probe finds no interior
    maximum, every step in 1D and none of the default 2D and 3D steps,
    then get their curves, read off one flow of the grid, for the side
    checks and the knee (_located). So in 2D and 3D gamma_m does not
    depend on the grid.

    gamma_m is taken on the negative side so the distance to the critical
    point gamma_c = 0 is the positive number -gamma_m.
    """
    if steps is None:
        steps = DEFAULT_STEPS[block_geometry(dimension).dimension]
    steps = tuple(step_counts(steps).tolist())
    if len(set(steps)) < 2:
        raise ValueError(f"scaling needs at least two distinct rg steps, got {steps}")
    sizes = [system_size(dimension, step) for step in steps]
    grid = checked_grid(grid)
    if grid < 5:
        raise ValueError(f"derivative needs at least 5 grid points, got {grid}")
    peaks = _refinements(dimension, steps, "negative")
    cusps = [k for k, (_gamma, _peak, interior) in enumerate(peaks) if not interior]
    if cusps:
        curves = concurrence_curves(dimension, [steps[k] for k in cusps], grid)
        for k, curve in zip(cusps, curves):
            peaks[k] = _located(derivative_curve(curve), "negative", peaks[k])
    return [(step, n, *peak[:2]) for step, n, peak in zip(steps, sizes, peaks)]


def entanglement_exponent(rows: Sequence[tuple]) -> ExponentEstimate:
    """theta from the least-squares line through (ln N, ln(gamma_c - gamma_m))
    with gamma_c = 0; theta = -slope. rows are the (step, N, gamma_m, peak)
    rows of peak_points, or any others: an exact power law gamma_m =
    -N**-t must return theta = t."""
    for step, _n, gamma_m, _peak in rows:
        if -gamma_m < UNDERFLOW_FLOOR:
            raise ScalingUnderflowError(
                f"step {step}: gamma_m = {gamma_m:.6g} sits within {UNDERFLOW_FLOOR:g} "
                f"of the critical point and cannot enter the log fit"
            )
    fit = fit_loglog(
        [np.log(n) for _s, n, _g, _p in rows],
        [np.log(-gamma_m) for _s, _n, gamma_m, _p in rows],
    )
    return ExponentEstimate(theta=-fit.slope, gamma_c=0.0, fit=fit)


def derivative_scaling(rows: Sequence[tuple]) -> ScalingFit:
    """Least-squares line through (ln N, ln max|dC/dgamma|) of the
    (step, N, gamma_m, peak) rows, as in entanglement_exponent."""
    for step, _n, _gamma_m, peak in rows:
        if not peak > 0.0:
            raise ScalingUnderflowError(
                f"step {step}: the derivative peak vanished at probe resolution "
                f"and cannot enter the log fit"
            )
    return fit_loglog(
        [np.log(n) for _s, n, _g, _p in rows],
        [np.log(peak) for _s, _n, _g, peak in rows],
    )
