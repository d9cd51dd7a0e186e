import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrgxy.concurrence import ConcurrenceCurve, concurrence_curve
from qrgxy.errors import ScalingUnderflowError
from qrgxy.rgflow import fixed_points
from qrgxy.scaling import (
    PEAK_TOL,
    derivative_curve,
    derivative_scaling,
    entanglement_exponent,
    fit_loglog,
    locate_max,
    peak_points,
    system_size,
    _refined_peaks,
    _section_max,
)

import qrgxy.blocks
import qrgxy.rgflow

from test_rgflow import record_solve_batches


def make_curve(values, lo=-1.0, hi=1.0, dim=1, step=0):
    values = np.asarray(values, dtype=float)
    return ConcurrenceCurve(
        dimension=dim,
        rg_step=step,
        gamma_grid=np.linspace(lo, hi, values.size),
        values=values,
    )


# -- finite differences on tabulated curves


def test_derivative_of_constant_is_zero():
    d = derivative_curve(make_curve(np.full(11, 0.3)))
    assert np.max(d.abs_derivative) == 0.0


def test_derivative_of_linear_is_the_slope():
    g = np.linspace(-1.0, 1.0, 21)
    d = derivative_curve(make_curve(0.1 - 0.05 * g))
    assert np.max(np.abs(d.abs_derivative - 0.05)) < 1e-14


def test_derivative_of_quadratic_exact_inside_first_order_at_edges():
    g = np.linspace(-1.0, 1.0, 41)
    h = g[1] - g[0]
    d = derivative_curve(make_curve(g ** 2))
    assert np.max(np.abs(d.abs_derivative[1:-1] - np.abs(2.0 * g[1:-1]))) < 1e-13
    assert abs(d.abs_derivative[0] - abs(2.0 * g[0])) <= h + 1e-13
    assert abs(d.abs_derivative[-1] - abs(2.0 * g[-1])) <= h + 1e-13


def test_derivative_needs_five_points():
    with pytest.raises(ValueError, match="5"):
        derivative_curve(make_curve(np.zeros(4)))


# -- the least-squares helper


def test_fit_recovers_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = fit_loglog(x, 2.0 * x + 1.0)
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12
    assert len(fit.points) == 4


def test_fit_constant_y_has_unit_r_squared():
    fit = fit_loglog([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert abs(fit.slope) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_loglog([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_loglog([1.0, 2.0], [1.0, 2.0, 3.0])


def test_fit_flags_scatter():
    fit = fit_loglog([0.0, 1.0, 2.0, 3.0], [0.0, 1.1, 1.8, 3.2])
    assert fit.r_squared < 1.0


@settings(max_examples=30, deadline=None)
@given(
    slope=st.floats(min_value=-5.0, max_value=5.0),
    intercept=st.floats(min_value=-5.0, max_value=5.0),
)
def test_fit_identity_on_random_exact_lines(slope, intercept):
    x = np.linspace(0.5, 4.0, 6)
    fit = fit_loglog(x, slope * x + intercept)
    assert abs(fit.slope - slope) < 1e-8
    assert abs(fit.intercept - intercept) < 1e-8


# -- fits on injected rows: the estimators must invert exact power laws


def test_exponent_fit_inverts_exact_power_law():
    rows = [(s, 3 ** s, -float(3 ** s) ** -2.0, 1.0) for s in range(1, 6)]
    est = entanglement_exponent(rows)
    assert abs(est.theta - 2.0) < 1e-10
    assert est.gamma_c == 0.0
    assert est.fit.r_squared > 1.0 - 1e-12


def test_derivative_fit_inverts_exact_power_law():
    rows = [(s, 5 ** s, -0.1, 5.0 * float(5 ** s) ** 1.5) for s in range(1, 5)]
    fit = derivative_scaling(rows)
    assert abs(fit.slope - 1.5) < 1e-10
    assert abs(fit.intercept - math.log(5.0)) < 1e-10


def test_exponent_fit_rejects_collapsed_peak_position():
    rows = [(3, 27, -0.01, 1.0), (4, 81, -1e-13, 2.0)]
    with pytest.raises(ScalingUnderflowError, match="step 4"):
        entanglement_exponent(rows)


def test_derivative_fit_rejects_vanished_peak():
    rows = [(2, 9, -0.1, 0.0), (3, 27, -0.05, 1.0)]
    with pytest.raises(ScalingUnderflowError, match="step 2"):
        derivative_scaling(rows)


# -- represented system size


def test_system_size_values():
    assert system_size(1, 1) == 3
    assert system_size(1, 2) == 9
    assert system_size(2, 2) == 25
    assert system_size(2, 3) == 125
    assert system_size(3, 2) == 49
    assert system_size(3, 3) == 343


def test_system_size_validation():
    with pytest.raises(ValueError, match="rg_step"):
        system_size(1, 0)
    with pytest.raises(ValueError, match="dimension"):
        system_size(4, 1)


def test_scaling_steps_follow_the_flow_step_rule():
    # a fractional step was cut to its integer part
    with pytest.raises(ValueError, match="n_steps must be a whole number, got 1.5"):
        system_size(1, 1.5)
    with pytest.raises(ValueError, match="n_steps must be a whole number, got 1.5"):
        peak_points(1, steps=(1.5, 2.7), grid=101)
    with pytest.raises(ValueError, match="n_steps must be between 0 and 64, got 65"):
        system_size(1, 65)
    assert system_size(2, 3.0) == 125


def test_a_grid_size_must_be_a_whole_number():
    # a whole-number float grid works as its int; any other grid is refused
    # by name rather than by numpy's TypeError
    assert [fp.gamma for fp in fixed_points(1, 100.0)] == [fp.gamma for fp in fixed_points(1, 100)]
    assert np.array_equal(concurrence_curve(1, 1, 5.0).values, concurrence_curve(1, 1, 5).values)
    assert peak_points(1, (1, 2), 51.0) == peak_points(1, (1, 2), 51)
    # an int past every float or numpy integer is whole as it is
    for whole in (10**20 + 1, 10**400 + 1, np.int64(101)):
        assert qrgxy.rgflow.grid_size(whole) == whole
    for call, bad in (
        (lambda: fixed_points(1, 100.5), "100.5"),
        (lambda: concurrence_curve(1, 1, 5.5), "5.5"),
        (lambda: peak_points(1, (1, 2), 51.5), "51.5"),
        (lambda: peak_points(3, (1, 2), 51.5), "51.5"),
        (lambda: concurrence_curve(1, 1, math.nan), "nan"),
    ):
        with pytest.raises(ValueError, match=f"grid must be a whole number, got {bad}"):
            call()


# -- peak location on synthetic curves


def test_locate_max_rejects_flat_and_one_sided_curves():
    # in 3D at step 1 the refinement finds an interior peak without the
    # curve; the curve still has to pass the side checks
    g = np.linspace(-1.0, 1.0, 41)
    for dim, step in ((1, 0), (3, 1)):
        flat = derivative_curve(make_curve(np.zeros(11), dim=dim, step=step))
        with pytest.raises(ValueError, match="all-zero"):
            locate_max(flat, "negative")
        ramp = derivative_curve(make_curve(np.where(g > 0.0, g, 0.0) ** 2, dim=dim, step=step))
        with pytest.raises(ValueError, match="negative side"):
            locate_max(ramp, "negative")


def test_peak_points_checks_a_grid_that_no_curve_needs():
    # no 3D default step reads the grid, which is still held to what a
    # cusp step would need of it
    with pytest.raises(ValueError, match="odd and >= 3, got 50"):
        peak_points(3, grid=50)
    with pytest.raises(ValueError, match="at least 5 grid points, got 3"):
        peak_points(3, grid=3)


def test_locate_max_side_argument_checked():
    d = derivative_curve(make_curve(np.linspace(0.0, 1.0, 11) ** 2))
    with pytest.raises(ValueError, match="side"):
        locate_max(d, "left")


# -- peak location through the full pipeline


def test_smooth_peak_2d_position_and_symmetry():
    curve = concurrence_curve(2, 1, grid=201)
    d = derivative_curve(curve)
    neg = locate_max(d, "negative")
    pos = locate_max(d, "positive")
    assert -0.0095 < neg < -0.0070  # interior maximum, not a grid point
    assert abs(pos + neg) < 5e-5
    assert not np.any(np.isclose(d.gamma_grid, neg, atol=1e-12))


def test_cusp_knee_1d_lands_on_the_saturation_grid_point():
    curve = concurrence_curve(1, 1, grid=201)
    d = derivative_curve(curve)
    gm = locate_max(d, "negative")
    g = d.gamma_grid
    vals = d.abs_derivative
    k = int(np.flatnonzero(np.isclose(g, gm, atol=1e-15))[0])
    side = np.flatnonzero(g < 0.0)
    side_max = float(vals[side].max())
    assert vals[k] >= 0.9 * side_max
    assert np.all(vals[side[side < k]] < 0.9 * side_max)  # knee is outermost
    pos = locate_max(d, "positive")
    assert abs(pos + gm) < 1e-12  # even curve, symmetric grids


def test_cusp_peak_values_follow_the_map_slope():
    # each coarse-graining step multiplies the slope at the critical point
    # by the map derivative 3, and the bare curve has unit slope at 0
    c1 = concurrence_curve(1, 1, grid=201)
    c2 = concurrence_curve(1, 2, grid=201)
    p1, p2 = (_refined_peaks([derivative_curve(c)], "negative")[0][1] for c in (c1, c2))
    assert abs(p1 - 3.0) < 1e-3
    assert abs(p2 - 9.0) < 1e-3


# -- assembled scaling rows


def test_peak_points_rows_and_monotone_march():
    rows = peak_points(2, steps=(1, 2), grid=201)
    assert [r[0] for r in rows] == [1, 2]
    assert [r[1] for r in rows] == [5, 25]
    g1, g2 = rows[0][2], rows[1][2]
    p1, p2 = rows[0][3], rows[1][3]
    assert g1 < 0.0 and g2 < 0.0
    assert g2 > g1  # marches toward the critical point
    assert p2 > p1  # derivative maximum grows with the step


@pytest.mark.parametrize("dim,steps", [(1, (1, 3, 5)), (2, (1, 2, 3, 4)), (3, (1, 2, 3))])
def test_lockstep_refinement_is_each_refinement_alone(dim, steps):
    # the refinements of several steps share their probe batches; each must
    # still see exactly its own values, and peak_points must report them
    curves = [derivative_curve(concurrence_curve(dim, step, 101)) for step in steps]
    alone = [_refined_peaks([curve], "negative")[0] for curve in curves]
    assert _refined_peaks(curves, "negative") == alone
    assert [row[2:] for row in peak_points(dim, steps, 101)] == alone


def test_peak_points_solve_count(monkeypatch):
    # no flow of the grid: every 3D step has an interior peak. The
    # refinements run each at its own pace, a batch of step s taking s + 1
    # ticks: the three pre-scans of the whole side, 20 distances from
    # 2e-6 to 1, with their cusp probes share tick 0 (39 points); each
    # section search then asks for its first 7 points and for 6 per round,
    # both stencil points of each, in 10, 7 and 5 batches for steps 1, 2
    # and 3. Step 1 asks at ticks 0, 2, ..., 20 and is done after tick 21,
    # step 2 asks at 0, 3, ..., 21 and step 3 at 0, 4, ..., 20, both done
    # after tick 23: 24 calls on 1128 points, each tick solving every
    # gamma that every flow in flight asks for
    batches = record_solve_batches(monkeypatch)
    peak_points(3, grid=51)
    assert (len(batches), sum(batches)) == (24, 1128)


def test_peak_points_checks_each_flow_once(monkeypatch):
    # each of the 24 ticks range-checks its gammas in one test, and
    # coupling_arrays runs only where that test fails: the probe points
    # and the gamma' the flows move on to all lie in [-1, 1]
    calls = []
    real = qrgxy.rgflow.coupling_arrays

    def counting(j, gamma):
        calls.append(len(np.atleast_1d(gamma)))
        return real(j, gamma)

    monkeypatch.setattr(qrgxy.rgflow, "coupling_arrays", counting)
    monkeypatch.setattr(qrgxy.blocks, "coupling_arrays", counting)
    peak_points(3, grid=51)
    assert calls == []


@pytest.mark.parametrize("dim", [2, 3])
def test_2d_and_3d_peaks_do_not_depend_on_the_grid(dim, monkeypatch):
    # the default steps all have interior peaks, found without the grid:
    # the rows are the same at every grid, and no solve batch is as large
    # as the grid
    rows = [peak_points(dim, grid=grid) for grid in (51, 201)]
    batches = record_solve_batches(monkeypatch)
    rows.append(peak_points(dim, grid=2001))
    assert rows[0] == rows[1] == rows[2]
    assert max(batches) < 2001


def test_a_cusp_step_in_3d_falls_back_to_the_grid_knee():
    # step 4 in 3D leaves no interior maximum at the cusp probe's
    # resolution, so its gamma_m is the knee of its grid curve, -0.04 on a
    # 51-point grid; step 5 too
    rows = peak_points(3, steps=(4, 5), grid=51)
    assert [row[0] for row in rows] == [4, 5]
    assert [row[2] for row in rows] == [-0.040000000000000036] * 2


def _drive(search, f):
    """Run a maximization generator on f: its result and every batch of
    points it asked for, in order."""
    batches = []
    try:
        points = next(search)
        while True:
            batches.append(list(points))
            points = search.send(np.array([f(x) for x in points]))
    except StopIteration as done:
        return done.value, batches


# test functions with the ties a peak search meets in the pipeline: the
# flat top of the 1D cusp, the exactly-zero concurrence flank, and values
# that agree to the last digit kept
SYNTHETIC = {
    "rounded peak": lambda m, k: lambda x: round(-((x - m) ** 2), k),
    "rounded cusp": lambda m, k: lambda x: round(-abs(x - m), k),
    "plateau": lambda m, k: lambda x: max(0.0, 1.0 - abs(x - m) * 10.0 ** k),
    "staircase": lambda m, k: lambda x: float(math.floor((x - m) * 2.0 ** k)),
    "rounded waves": lambda m, k: lambda x: round(math.sin(7.0 * x + m), k),
    "flat": lambda m, k: lambda x: 0.0,
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(SYNTHETIC)),
    center=st.floats(min_value=-1.0, max_value=1.0),
    digits=st.integers(min_value=0, max_value=12),
    lo=st.floats(min_value=-1.0, max_value=1.0),
    width=st.one_of(st.just(0.0), st.floats(min_value=PEAK_TOL / 4.0, max_value=2.0)),
)
@example(kind="rounded peak", center=0.25, digits=12, lo=0.3, width=0.0)
@example(kind="rounded peak", center=0.3, digits=12, lo=0.3, width=PEAK_TOL / 2.0)
def test_section_rounds_stay_in_the_bracket_and_keep_their_best(kind, center, digits, lo, width):
    f = SYNTHETIC[kind](center, digits)
    hi = lo + width
    (point, value), batches = _drive(_section_max(lo, hi), f)
    asked = [x for batch in batches for x in batch]
    assert all(lo <= x <= hi for x in asked)
    assert len(set(asked)) == len(asked)
    if hi - lo <= PEAK_TOL:  # a bracket this narrow asks for its midpoint once
        assert batches == [[0.5 * (lo + hi)]]
    else:
        assert len(batches[0]) == 7 and all(len(batch) <= 6 for batch in batches[1:])
    assert point in asked and value == f(point)
    assert all(value >= f(x) for x in batches[-1])
    if kind == "rounded peak" and digits >= 10 and lo <= center <= hi:
        # rounding leaves the peak a flat top of value 0, at least 1.4e-6
        # wide; ties go right, so the search ends on that top within
        # PEAK_TOL of its right end
        assert value == 0.0
        assert point + PEAK_TOL > hi or f(point + PEAK_TOL) < 0.0


@pytest.mark.parametrize("center", [-0.7, -1e-5, 0.0, 0.3, 0.999])
def test_section_search_ends_within_the_tolerance_of_a_sharp_peak(center):
    (point, value), _batches = _drive(_section_max(-1.0, 1.0), lambda x: -((x - center) ** 2))
    assert abs(point - center) <= 0.5 * PEAK_TOL
    assert value == -((point - center) ** 2)


def test_peak_points_needs_two_steps():
    with pytest.raises(ValueError, match="two"):
        peak_points(1, steps=(3,))


def test_a_fit_needs_two_distinct_steps():
    # one distinct step is one point: a line through it has any slope and r^2 = 1
    with pytest.raises(ValueError, match="two distinct rg steps, got \\(2, 2\\)"):
        peak_points(3, steps=(2, 2), grid=51)
    with pytest.raises(ValueError, match="two distinct x"):
        fit_loglog([np.log(49.0)] * 2, [-6.1, -6.1])


def test_scaling_entry_points_reject_a_bad_dimension():
    # the default step table is looked up only after the dimension check
    with pytest.raises(ValueError, match="dimension must be 1, 2 or 3"):
        peak_points(4)
