"""Critical-point analysis: derivative curves, peak location, and log-log
scaling of the derivative divergence and of the peak-position approach to
the critical point.

The concurrence stays continuous through the transition while its gamma
derivative sharpens with every coarse-graining step; the two scaling
quantities extracted here are the growth of the derivative maximum with
represented system size N and the exponent theta in gamma_m = gamma_c -
N^(-theta), with gamma_c = 0 taken as exact.

peak_points reads the curves of all its steps off one flow of the grid.
The refinement probes the derivative through the full flow + concurrence
pipeline. Its steps are generators that ask for probe points and are sent
the values; _probed turns each batch of points into the flows of their
stencils, and the refinements of all steps of a peak_points call run
together on concurrence.concurrence_searches, each at its own pace: the
flows of every batch in flight share each tick's solve, and a refinement
asks for its next batch as soon as its own flows end, so the short flows
of a low step do not wait for the long ones of a high step. A batch holds
the pre-scan of a bracket with the cusp probe, or the two starting points
of golden section with the points of its first _GOLDEN_LEVELS - 1
iterations along both branches of the first comparison, or the points of
its next _GOLDEN_LEVELS iterations along both branches of every comparison
it cannot yet make (rgflow.lookahead). Golden section takes the iterations
one at a time on their values, so its iterations and its result are those
of asking for one point at a time.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .blocks import block_geometry
from .concurrence import ConcurrenceCurve, concurrence_curves, concurrence_searches
from .errors import ScalingUnderflowError
from .rgflow import lookahead, step_counts

FD_STEP = 1e-6        # central-difference step of the derivative probe
GOLDEN_TOL = 1e-8     # refinement interval width
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
    points of every point, and `search` is sent their differences."""
    values = None
    while True:
        try:
            points = search.send(values)
        except StopIteration as done:
            return done.value
        gammas = np.asarray(points, dtype=float)
        lo = np.maximum(gammas - FD_STEP, -1.0)
        hi = np.minimum(gammas + FD_STEP, 1.0)
        c = yield np.concatenate([lo, hi]), rg_step
        values = abs(c[len(gammas):] - c[: len(gammas)]) / (hi - lo)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_LEVELS = 3  # golden-section iterations per round of probes


def _golden_step(a: float, b: float, c: float, d: float, left: bool):
    """One golden-section iteration on the bracket [a, b] with inner points
    c < d: the bracket it leaves and the new inner point it asks for. It
    keeps the left part [a, d] when left (f(c) < f(d)), else the right
    part [c, b]."""
    if left:
        a, c = c, d
        d = a + _INVPHI * (b - a)
        return (a, b, c, d), d
    b, d = d, c
    c = b - _INVPHI * (b - a)
    return (a, b, c, d), c


def _golden_children(bracket):
    """The golden-section iterations that can follow one that leaves
    bracket (a, b, c, d): one keeping each part of it, where it is wider
    than GOLDEN_TOL."""
    if bracket[1] - bracket[0] <= GOLDEN_TOL:
        return []
    return [_golden_step(*bracket, left) for left in (True, False)]


def _golden_max(lo: float, hi: float):
    """Golden-section maximization as a generator: it yields the points it
    needs the function at and is sent their values, and returns (argmax,
    best value). Never evaluates outside [lo, hi].

    It asks in rounds. The point an iteration needs depends only on
    whether the iteration keeps the left or the right part of its bracket,
    so the first round asks for the two starting points c and d together
    with every point that the first _GOLDEN_LEVELS - 1 iterations can need
    whichever way the first comparison goes (rgflow.lookahead over
    _golden_children of each child of the starting bracket, up to
    2^_GOLDEN_LEVELS - 2 points besides c and d). When a later iteration
    needs a point it has no value for, it asks for every point that this
    and the next _GOLDEN_LEVELS - 1 iterations can need (up to
    2^_GOLDEN_LEVELS - 1) and has not asked for before. Branches meet: a
    point asked for on a branch not taken can be the very float that a
    later iteration needs, which then needs no round. The iterations are
    those of asking for one point at a time, with the same expressions and
    comparisons, ties going right, so they ask for the same floats and
    return the same result; the points they do not take cost only their
    share of the batch."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    tree = [p for child in _golden_children((a, b, c, d))
            for p in lookahead(child, _golden_children, _GOLDEN_LEVELS - 1)]
    asked = [c, d] + [p for p in tree if p not in (c, d)]
    known = dict(zip(asked, (yield asked)))
    fc, fd = known[c], known[d]
    while b - a > GOLDEN_TOL:
        left = fc < fd
        bracket, point = _golden_step(a, b, c, d, left)
        if point not in known:
            tree = lookahead((bracket, point), _golden_children, _GOLDEN_LEVELS)
            asked = [p for p in tree if p not in known]
            known.update(zip(asked, (yield asked)))
        a, b, c, d = bracket
        if left:
            fc, fd = fd, known[point]
        else:
            fc, fd = known[point], fc
    return 0.5 * (a + b), max(fc, fd)


def _scan_distances(lo: float, hi: float, side: str) -> list:
    """Distances from gamma = 0 of the geometric pre-scan of the bracket
    [lo, hi] lying on one side of gamma = 0: factor-2 steps from the
    innermost stencil-clean distance out to the far bracket edge; empty when
    no part of the bracket is stencil-clean."""
    if side == "positive":
        dmin, dmax = max(lo, CUSP_PROBE * FD_STEP), hi
    else:
        dmin, dmax = max(-hi, CUSP_PROBE * FD_STEP), -lo
    if not dmin < dmax:
        return []
    dists = [dmin]
    while dists[-1] * 2.0 < dmax:
        dists.append(dists[-1] * 2.0)
    dists.append(dmax)
    return dists


def _scan_then_golden(lo: float, hi: float, side: str, dists: list, vals):
    """Maximize a function over the bracket [lo, hi] lying on one side of
    gamma = 0, given its values `vals` at the pre-scan distances `dists`;
    a generator like _golden_max.

    Deep rg steps push the derivative maximum orders of magnitude inside a
    single grid cell, right next to the critical point, while the rest of
    the cell is exactly flat (the concurrence clamps to zero well before the
    anisotropic fixed point). Golden section started blind on such a cell
    ties on the flat part and walks away from the peak, so the geometric
    pre-scan (_scan_distances) localizes it first, and golden section then
    refines the best scan cell. All evaluations stay inside [lo, hi]."""
    if not dists:
        return (yield from _golden_max(lo, hi))
    m = int(np.argmax(vals))
    d_in = dists[m - 1] if m > 0 else dists[0]
    d_out = dists[m + 1] if m + 1 < len(dists) else dists[-1]
    if side == "positive":
        return (yield from _golden_max(d_in, d_out))
    return (yield from _golden_max(-d_out, -d_in))


def _refine(curve: DerivativeCurve, side: str):
    """(gamma_m, peak |dC/dgamma|) on one sign side of gamma, as a
    generator that yields the points it needs the derivative probe at and
    is sent its values (see _probed and _refined_peaks).

    The grid argmax is bracketed by its neighboring grid points and refined
    inside the bracket on the derivative probe (_probed: central
    difference, step 1e-6, computed through the full flow + concurrence
    pipeline) down to an interval of 1e-8: a geometric pre-scan
    of the bracket, then golden section on the best scan cell (see
    _scan_then_golden). The refined position is classified by one extra
    probe at 2 * FD_STEP from the critical point, the closest position
    whose difference stencil stays on a single side. The pre-scan and this
    cusp probe are independent of each other and go in one batch; golden
    section asks for its two starting points together with the points of
    its first _GOLDEN_LEVELS - 1 iterations, and then for the points of
    _GOLDEN_LEVELS iterations per round (see _golden_max).

    * if the derivative there has dropped below (1 - 1e-3) of the refined
      peak, the peak is a genuine interior maximum and its position is
      gamma_m (the smooth, higher-dimensional situation: the probe at the
      near point sits far down the flank, at a small fraction of the peak);
    * otherwise the derivative stays at its supremum essentially all the
      way into the critical point, i.e. the curve has a cusp there rather
      than an interior maximum. The refined position is then meaningless
      (golden section lands on evaluation noise somewhere in the flat
      approach region, wherever its probe sequence happens to stall), so
      the reported gamma_m falls back to the outermost grid point on the
      requested side whose tabulated derivative is still within 10% of the
      side maximum: the knee where the divergence visibly saturates at grid
      resolution. The knee still marches monotonically toward the critical
      point with the rg step, which is what downstream fits need.

    The peak value always comes from the refined probe; in both regimes it
    saturates at the derivative supremum on the side.
    """
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    g = np.asarray(curve.gamma_grid, dtype=float)
    d = np.asarray(curve.abs_derivative, dtype=float)
    if not np.any(d > 0.0):
        raise ValueError("cannot locate a maximum of an all-zero derivative curve")
    mask = (g > 0.0) if side == "positive" else (g < 0.0)
    side_idx = np.flatnonzero(mask)
    if side_idx.size == 0 or not np.any(d[side_idx] > 0.0):
        raise ValueError(f"derivative curve vanishes on the {side} side")
    i = int(side_idx[int(np.argmax(d[side_idx]))])
    lo = g[i - 1] if i > 0 else g[i]
    hi = g[i + 1] if i + 1 < g.size else g[i]
    sign = 1.0 if side == "positive" else -1.0
    dists = _scan_distances(lo, hi, side)
    *scan, near = yield [sign * dist for dist in dists] + [sign * CUSP_PROBE * FD_STEP]
    gamma_hat, peak = yield from _scan_then_golden(lo, hi, side, dists, scan)
    if near < (1.0 - CUSP_DROP) * peak:
        return float(gamma_hat), float(peak)
    side_d = d[side_idx]
    plateau = side_idx[side_d >= PLATEAU_FRACTION * float(side_d.max())]
    edge = plateau[-1] if side == "positive" else plateau[0]
    return float(g[int(edge)]), float(peak)


def _refined_peaks(curves, side: str):
    """(gamma_m, peak |dC/dgamma|) of each of curves, all of one dimension,
    on one sign side of gamma (see _refine). The refinements run together
    in concurrence.concurrence_searches, each probing at its own curve's rg
    step and each at its own pace: the flows of every probe batch in
    flight share each tick's solve, and a refinement asks for its next
    batch as soon as its own flows end. Every refinement sees the values it
    would see alone, in the same order."""
    searches = [_probed(_refine(curve, side), curve.rg_step) for curve in curves]
    return concurrence_searches(curves[0].dimension, searches)


def locate_max(curve: DerivativeCurve, side: str) -> float:
    """Position gamma_m of the derivative maximum on one sign side of gamma;
    see _refine for the refinement and its cusp-limited fallback."""
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
    """Ordinary least squares through the (ln x, ln y) points."""
    x = np.asarray(ln_x, dtype=float)
    y = np.asarray(ln_y, dtype=float)
    # min and max, not np.unique: the first np.unique call of a process
    # imports numpy.ma, which costs more than the fit
    if x.size != y.size or x.size < 2 or x.min() == x.max():
        raise ValueError("need (x, y) points of equal count with at least two distinct x")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        points=tuple(zip(x.tolist(), y.tolist())),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
    )


def peak_points(
    dimension: int,
    steps: Sequence[int] | None = None,
    grid: int = 2001,
):
    """(step, N, gamma_m, peak |dC/dgamma|) rows for the requested steps,
    their curves read off one flow of the grid up to the largest step and
    their peaks refined together (_refined_peaks).

    gamma_m is taken on the negative side so the distance to the critical
    point gamma_c = 0 is the positive number -gamma_m.
    """
    if steps is None:
        steps = DEFAULT_STEPS[block_geometry(dimension).dimension]
    steps = tuple(step_counts(steps).tolist())
    if len(set(steps)) < 2:
        raise ValueError(f"scaling needs at least two distinct rg steps, got {steps}")
    sizes = [system_size(dimension, step) for step in steps]
    curves = [derivative_curve(curve) for curve in concurrence_curves(dimension, steps, grid)]
    peaks = _refined_peaks(curves, "negative")
    return [(step, n, gamma_m, peak) for step, n, (gamma_m, peak) in zip(steps, sizes, peaks)]


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
