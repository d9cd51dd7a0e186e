import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrgxy.concurrence import ConcurrenceCurve, concurrence_curve
from qrgxy.errors import ScalingUnderflowError
from qrgxy.rgflow import fixed_points
import qrgxy.scaling
from qrgxy.scaling import (
    GOLDEN_TOL,
    derivative_curve,
    derivative_scaling,
    entanglement_exponent,
    fit_loglog,
    locate_max,
    peak_points,
    system_size,
    _golden_max,
    _refined_peaks,
)

from oracles import golden_max_one_at_a_time
from test_rgflow import record_eigh_batches


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
    for call, bad in (
        (lambda: fixed_points(1, 100.5), "100.5"),
        (lambda: concurrence_curve(1, 1, 5.5), "5.5"),
        (lambda: peak_points(1, (1, 2), 51.5), "51.5"),
        (lambda: concurrence_curve(1, 1, math.nan), "nan"),
    ):
        with pytest.raises(ValueError, match=f"grid must be a whole number, got {bad}"):
            call()


# -- peak location on synthetic curves


def test_locate_max_rejects_flat_and_one_sided_curves():
    flat = derivative_curve(make_curve(np.zeros(11)))
    with pytest.raises(ValueError, match="all-zero"):
        locate_max(flat, "negative")
    g = np.linspace(-1.0, 1.0, 41)
    ramp = derivative_curve(make_curve(np.where(g > 0.0, g, 0.0) ** 2))
    with pytest.raises(ValueError, match="negative side"):
        locate_max(ramp, "negative")


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
    # one flow of the grid: ticks 0-3, 106 points. Then the refinements,
    # each at its own pace, a batch of step s taking s + 1 ticks: the three
    # pre-scans with their cusp probes share tick 4 (33 points); each
    # golden section then asks for its starting pair together with the 6
    # points of its first two iterations along both branches, and then for
    # batches of up to 7 points, both stencil points of each. Step 1 asks
    # at ticks 4, 6, ..., 22 and is done after tick 23, step 3 asks at 4,
    # 8, ..., 20 and is done after 23, and step 2 asks at 4, 7, ..., 25
    # and is done after 27: 28 calls on 973 points, where asking for the
    # starting pair alone took 31 calls on 979
    batches = record_eigh_batches(monkeypatch)
    peak_points(3, grid=51)
    assert (len(batches), sum(batches)) == (28, 973)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("grid", [51, 101, 2001])
def test_peak_points_are_those_of_one_point_golden_section(monkeypatch, dim, grid):
    rows = peak_points(dim, grid=grid)
    monkeypatch.setattr(qrgxy.scaling, "_golden_max", golden_max_one_at_a_time)
    assert peak_points(dim, grid=grid) == rows


@pytest.mark.parametrize("dim", [1, 2])  # a 1D cusp and a smooth 2D peak
def test_located_maxima_are_those_of_one_point_golden_section(monkeypatch, dim):
    d = derivative_curve(concurrence_curve(dim, 1, grid=201))
    found = [locate_max(d, side) for side in ("negative", "positive")]
    monkeypatch.setattr(qrgxy.scaling, "_golden_max", golden_max_one_at_a_time)
    assert [locate_max(d, side) for side in ("negative", "positive")] == found


def _drive(search, f):
    """Run a maximization generator on f: its result and every point it
    asked for, in order."""
    asked = []
    try:
        points = next(search)
        while True:
            asked += points
            points = search.send(np.array([f(x) for x in points]))
    except StopIteration as done:
        return done.value, asked


# test functions with the ties golden section meets in the pipeline: the
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
    width=st.one_of(st.just(0.0), st.floats(min_value=GOLDEN_TOL / 4.0, max_value=2.0)),
)
def test_golden_rounds_walk_as_one_point_golden_section(kind, center, digits, lo, width):
    f = SYNTHETIC[kind](center, digits)
    hi = lo + width
    result, asked = _drive(_golden_max(lo, hi), f)
    want, needed = _drive(golden_max_one_at_a_time(lo, hi), f)
    assert result == want
    assert set(needed) <= set(asked)
    # no point is asked for twice, but the starting pair is one point when
    # the bracket is
    start, rounds = asked[:2], asked[2:]
    assert len(set(rounds)) == len(rounds) and not set(start) & set(rounds)
    assert all(lo <= x <= hi for x in asked)


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
