import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qrgxy.concurrence
import qrgxy.rgflow
from qrgxy.blocks import CouplingParams, block_geometry
from qrgxy.concurrence import (
    block_concurrence,
    concurrence_curve,
    concurrence_curves,
    concurrence_j_sweep,
    flowed_concurrence,
    flowed_concurrences,
    partial_trace_pair,
    wootters_concurrence,
)
from qrgxy.errors import ContractError
from qrgxy.rgflow import fixed_points, gamma_prime, ground_doublet, rg_map, rg_trajectory
from qrgxy.scaling import peak_points

from oracles import (
    corner_pair_state,
    density_matrix,
    ground_doublet_full,
    partial_trace_bruteforce,
    wootters_concurrence_complex,
    x_state_concurrence,
)
from test_rgflow import record_solve_batches


def random_state(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def partial_trace_max_error(n_states=200, seed=20250311):
    """Largest deviation between the reshape-based partial trace and the
    defining-formula index summation, over random states and random pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        n = int(rng.choice([3, 5, 7]))
        psi = random_state(rng, 2 ** n)
        i, j = rng.choice(n, size=2, replace=False)
        pair = (int(i), int(j))
        got = partial_trace_pair(np.outer(psi, psi), pair)
        want = partial_trace_bruteforce(psi, pair, n)
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert abs(np.trace(got) - 1.0) < 1e-12
    return worst


# oracle first: the production partial trace against brute-force summation
def test_partial_trace_matches_bruteforce_oracle():
    assert partial_trace_max_error() < 1e-12


def test_partial_trace_leg_order_follows_pair_order():
    rng = np.random.default_rng(7)
    psi = random_state(rng, 8)
    rho = np.outer(psi, psi)
    ab = partial_trace_pair(rho, (0, 2))
    ba = partial_trace_pair(rho, (2, 0))
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[2 * b + a, 2 * a + b] = 1.0
    assert np.max(np.abs(ba - swap @ ab @ swap)) < 1e-14


def test_partial_trace_input_validation():
    with pytest.raises(ValueError, match="power-of-two"):
        partial_trace_pair(np.eye(6) / 6.0, (0, 1))
    with pytest.raises(ValueError, match="power-of-two"):
        partial_trace_pair(np.eye(2), (0, 1))
    with pytest.raises(ValueError, match="power-of-two"):
        partial_trace_pair(np.zeros((4, 5)), (0, 1))
    with pytest.raises(ValueError, match="coincident"):
        partial_trace_pair(np.eye(8) / 8.0, (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace_pair(np.eye(8) / 8.0, (0, 3))


# -- the oracle projector that the full-basis checks build on


def test_density_matrix_rank_one_projector():
    rho = density_matrix([1.0, 0.0, 0.0, 0.0])
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.array_equal(rho, want)
    rng = np.random.default_rng(11)
    psi = random_state(rng, 16)
    rho = density_matrix(psi)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho @ rho - rho)) < 1e-12


def test_density_matrix_rejects_unnormalized():
    with pytest.raises(ContractError, match="normalized"):
        density_matrix([1.0, 1.0, 0.0, 0.0])


def test_density_matrix_rejects_nan():
    with pytest.raises(ContractError, match="normalized"):
        density_matrix([np.nan, 0.0, 0.0, 0.0])


# -- spin-flip concurrence against closed forms


def bell(a, b):
    """Normalized a|ud> + b|du> as a 4x4 density matrix."""
    v = np.array([0.0, a, b, 0.0])
    return np.outer(v, v) / (a * a + b * b)


def test_concurrence_closed_forms():
    assert abs(wootters_concurrence(bell(1.0, 1.0)) - 1.0) < 1e-10
    assert abs(wootters_concurrence(bell(1.0, -1.0)) - 1.0) < 1e-10
    assert abs(wootters_concurrence(bell(0.6, 0.8)) - 0.96) < 1e-10
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    assert wootters_concurrence(product) == 0.0


def test_concurrence_werner_threshold():
    singlet = bell(1.0, -1.0)
    for p, want in [(0.8, 0.7), (0.5, 0.25), (0.2, 0.0), (1.0 / 3.0, 0.0)]:
        rho = p * singlet + (1.0 - p) * np.eye(4) / 4.0
        assert abs(wootters_concurrence(rho) - want) < 1e-10


def test_concurrence_rejects_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        wootters_concurrence(np.eye(3) / 3.0)
    with pytest.raises(ValueError, match="4x4"):
        wootters_concurrence(np.array([bell(1.0, 1.0)] * 2))


def test_concurrence_matches_complex_eigenvalue_oracle():
    # the oracle diagonalizes the non-symmetric product rho rho~ and takes
    # square roots of eigenvalues that may sit at ~1e-16; sqrt turns that
    # rounding into ~1e-8, so the comparison floor is set above it
    rng = np.random.default_rng(20240911)
    for _ in range(25):
        w = rng.random(3)
        w /= w.sum()
        rho = sum(wk * np.outer(s, s) for wk, s in ((wk, random_state(rng, 4)) for wk in w))
        got = wootters_concurrence(rho)
        want = wootters_concurrence_complex(rho.astype(complex))
        assert abs(got - want) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
def test_concurrence_pure_state_formula(amplitudes):
    # for a pure two-spin state (a, b, c, d) the concurrence is 2 |ad - bc|
    v = np.array(amplitudes)
    nrm = np.linalg.norm(v)
    assume(nrm > 1e-2)
    v = v / nrm
    want = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
    # sqrt of an eigenvalue rounded at 1e-16 can move the result by ~1e-8
    assert abs(wootters_concurrence(np.outer(v, v)) - want) < 5e-8


# -- block-level concurrences


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_pairs_match_one_partial_trace_per_pair(dim):
    geometry = block_geometry(dim)
    for gamma, j in [(-0.6, 1.0), (-0.2, 2.5), (0.0, 1.0), (0.3, 0.4), (0.7, 1.0)]:
        params = CouplingParams(j, gamma)
        c = block_concurrence(params, dim)
        rho = density_matrix(ground_doublet(params, geometry).phi1)
        for a, b in itertools.combinations(geometry.corners, 2):
            assert abs(c - wootters_concurrence(partial_trace_pair(rho, (a.site, b.site)))) < 1e-13


# every corner pair of the oracle doublet is an X state; the block value is
# its closed form, down to the tails where the Wootters spectrum sits at 1e-12
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_block_concurrence_is_the_x_state_form_of_the_oracle_state(dim):
    geometry = block_geometry(dim)
    x_entries = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)
    for gamma0 in (-0.45, 0.0, 0.3, 0.8):
        for params in rg_trajectory(CouplingParams(1.0, gamma0), dim, 2).steps:
            c = block_concurrence(params, dim)
            phi1 = ground_doublet_full(params, geometry)[1]
            for a, b in itertools.combinations(geometry.corners, 2):
                rho = partial_trace_bruteforce(phi1, (a.site, b.site), geometry.n_sites)
                assert np.max(np.abs(rho[~x_entries])) < 1e-15
                assert abs(c - x_state_concurrence(rho)) < 1e-12


def test_small_concurrence_is_not_cut_by_the_spectrum_floor():
    # d = 2, one step from gamma0 = 0.3: C ~ 7.4e-7, where a 1e-12 * l_max
    # floor on the spin-flip spectrum drops true eigenvalues. The reference
    # is the exact X-state value of the full-basis state: the general
    # Wootters oracle takes square roots of eigenvalues of rho rho~ that
    # vanish (a corner-symmetric pair has no singlet part), which leaves it
    # ~3e-9 of noise that moves with the last bits of J'
    params = rg_trajectory(CouplingParams(1.0, 0.3), 2, 1).steps[-1]
    geometry = block_geometry(2)
    rho = partial_trace_bruteforce(ground_doublet_full(params, geometry)[1], (1, 2), geometry.n_sites)
    want = x_state_concurrence(rho)
    assert 7e-7 < want < 8e-7
    assert abs(wootters_concurrence_complex(rho) - want) < 1e-8
    assert abs(flowed_concurrence(2, 1, 0.3) - want) < 1e-10


def test_block_pair_count_and_maximum_at_isotropy():
    for dim, n_pairs in [(1, 1), (2, 6), (3, 15)]:
        assert len(list(itertools.combinations(block_geometry(dim).corners, 2))) == n_pairs
        assert abs(block_concurrence(CouplingParams(1.0, 0.0), dim) - 0.5 / dim) < 1e-9


def test_block_concurrence_vanishes_at_ising_points():
    for dim in (1, 2, 3):
        for g in (-1.0, 1.0):
            assert block_concurrence(CouplingParams(1.0, g), dim) <= 1e-9


def test_ising_corner_state_is_bell_mixture_1d():
    # at gamma = 1 the corner pair is an equal mix of two Bell states:
    # eigenvalues (1/2, 1/2, 0, 0) and no concurrence survives the mixing
    d = ground_doublet(CouplingParams(1.0, 1.0), block_geometry(1))
    red = partial_trace_pair(density_matrix(d.phi1), (0, 2))
    w = np.linalg.eigvalsh(red)
    assert np.max(np.abs(w - np.array([0.0, 0.0, 0.5, 0.5]))) < 1e-9
    assert wootters_concurrence(red) <= 1e-9


def test_both_doublet_members_give_the_same_concurrence():
    for dim, pair in [(1, (0, 2)), (2, (1, 2))]:
        d = ground_doublet(CouplingParams(1.0, 0.3), block_geometry(dim))
        c1 = wootters_concurrence(partial_trace_pair(density_matrix(d.phi1), pair))
        c2 = wootters_concurrence(partial_trace_pair(density_matrix(d.phi2), pair))
        assert abs(c1 - c2) < 1e-12


def test_concurrence_is_even_in_gamma():
    for dim in (1, 2):
        for g in (0.2, 0.7):
            a = flowed_concurrence(dim, 0, g)
            b = flowed_concurrence(dim, 0, -g)
            assert abs(a - b) < 1e-9
    assert abs(flowed_concurrence(1, 1, 0.4) - flowed_concurrence(1, 1, -0.4)) < 1e-9


def test_flowed_concurrence_composes_with_the_map():
    # evaluating after two steps must match a cold start from the flowed
    # couplings; J differs between the two, so this also exercises the
    # J-independence of the block state
    g0 = -0.26
    flowed = flowed_concurrence(1, 2, g0)
    g2 = rg_trajectory(CouplingParams(1.0, g0), 1, 2).steps[-1].gamma
    direct = flowed_concurrence(1, 0, g2)
    assert abs(flowed - direct) < 1e-10


def test_one_dimensional_flow_and_concurrence_follow_the_closed_form():
    # gamma_k = tanh(3^k atanh gamma0) and C = (1-|gamma_k|)^2 / (2(1+gamma_k^2))
    # on the chain, endpoints included
    gammas = np.linspace(-1.0, 1.0, 201)
    for k in range(4):
        with np.errstate(divide="ignore"):
            want_g = np.tanh(3.0 ** k * np.arctanh(gammas))
        want_c = (1.0 - np.abs(want_g)) ** 2 / (2.0 * (1.0 + want_g ** 2))
        for g0, wg, wc in zip(gammas, want_g, want_c):
            traj = rg_trajectory(CouplingParams(1.0, float(g0)), 1, k)
            assert abs(traj.steps[-1].gamma - wg) < 1e-12
            assert abs(flowed_concurrence(1, k, float(g0)) - wc) < 1e-12


def _record_solves(monkeypatch):
    """Patch the batched block solver behind solve_many and the flow; the
    returned list gets one list of (gamma, j) points per call."""
    calls = []
    real = qrgxy.rgflow._solve

    def recording(dimension, couplings):
        calls.append(list(zip(couplings.gamma.tolist(), couplings.j.tolist())))
        return real(dimension, couplings)

    monkeypatch.setattr(qrgxy.rgflow, "_solve", recording)
    return calls


def test_curve_solves_each_gamma_of_its_trajectories_once(monkeypatch):
    # the flow and the concurrence read one unit-J solve per gamma and step:
    # one batched call per step, on the distinct gammas the trajectories
    # reach at that step
    grid = np.linspace(-1.0, 1.0, 21)
    trajectories = [rg_trajectory(CouplingParams(1.0, float(g)), 2, 2).steps for g in grid]
    calls = _record_solves(monkeypatch)
    concurrence_curve(2, 2, 21)
    assert len(calls) == 3
    for step, points in enumerate(calls):
        gammas = {steps[step].gamma for steps in trajectories}
        assert len(points) == len(gammas)
        assert {g for g, _j in points} == gammas
        assert all(j == 1.0 for _g, j in points)


def test_curves_of_one_flow_are_the_curves_of_each_step():
    curves = concurrence_curves(2, (0, 3, 1), 101)
    assert [curve.rg_step for curve in curves] == [0, 3, 1]
    for curve in curves:
        assert np.array_equal(curve.values, concurrence_curve(2, curve.rg_step, 101).values)


def test_each_point_flows_for_its_own_number_of_steps():
    gammas, steps = [0.1, 0.1, -0.3, 0.1, 1.0], [0, 2, 1, 3, 2]
    batch = flowed_concurrences(2, steps, gammas)
    for got, gamma, step in zip(batch, gammas, steps):
        params = rg_trajectory(CouplingParams(1.0, gamma), 2, step).steps[-1]
        assert got == block_concurrence(params, 2)


def test_a_step_count_must_be_a_whole_number():
    # a fractional count was truncated or never ended a flow, and the value
    # of such a point was whatever the output buffer held
    with pytest.raises(ValueError, match="n_steps must be a whole number, got 0.5"):
        flowed_concurrence(3, 0.5, -0.2)
    with pytest.raises(ValueError, match="n_steps must be a whole number, got 1.5"):
        flowed_concurrences(2, [1.5, 2.5, 0.5], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="n_steps must be a whole number, got 1.5"):
        concurrence_curves(2, (1, 1.5), 5)
    whole = flowed_concurrences(2, [1.0, 2.0, 0.0], [0.1, 0.2, 0.3])
    assert np.array_equal(whole, flowed_concurrences(2, [1, 2, 0], [0.1, 0.2, 0.3]))


def test_curve_steps_follow_the_flow_step_rule():
    # whole-number float steps come back as the ints they stand for, and a
    # step out of range raises the flow's own error
    curves = concurrence_curves(2, (1.0, 2.0), 5)
    assert [type(c.rg_step) for c in curves] == [int, int]
    assert [c.rg_step for c in curves] == [1, 2]
    for curve, same in zip(curves, concurrence_curves(2, (1, 2), 5)):
        assert np.array_equal(curve.values, same.values)
    with pytest.raises(ValueError, match="n_steps must be between 0 and 64, got 65"):
        concurrence_curves(2, (1, 65), 5)


def test_j_sweep_solves_every_point_at_its_own_j(monkeypatch):
    # the sweep measures the J-invariance of the solver, so it must solve
    # every point at its own j rather than at unit J; the whole grid is one
    # batched call
    calls = _record_solves(monkeypatch)
    concurrence_j_sweep(2, [-0.5, 0.2], [0.5, 2.0])
    assert len(calls) == 1
    assert sorted(calls[0]) == [(-0.5, 0.5), (-0.5, 2.0), (0.2, 0.5), (0.2, 2.0)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("step", [0, 2])
def test_curve_makes_one_eigh_per_step(monkeypatch, dim, step):
    # the name is kept from when each solve was one eigh: the curve is one
    # flow of the grid, one solve of its distinct gammas per tick, and no
    # np.linalg call
    calls = record_solve_batches(monkeypatch)
    concurrence_curve(dim, step, 101)
    assert len(calls) == step + 1 and calls[0] == 101


def test_j_sweep_reduces_the_oracle_state_at_each_j():
    gammas, js = [-0.45, 0.0, 0.3], [0.4, 1.0, 7.5]
    for dim in (1, 2, 3):
        geometry = block_geometry(dim)
        sweep = concurrence_j_sweep(dim, gammas, js)
        for row, g in zip(sweep, gammas):
            for c, j in zip(row, js):
                phi1 = ground_doublet_full(CouplingParams(j, g), geometry)[1]
                assert abs(c - x_state_concurrence(corner_pair_state(phi1, geometry))) < 1e-13


def test_ising_point_concurrence_is_at_the_rounding_floor():
    # exactly 0 in exact arithmetic, at gamma = +-1 and after 40 steps from
    # +-0.5, which flow there; the rounding of the S = d ground vector
    # leaves at most a few ulps of 1/4 in |rho03| - rho11, reported as it is
    for dim in (1, 2, 3):
        values = flowed_concurrences(dim, [0, 0, 40, 40], [-1.0, 1.0, -0.5, 0.5])
        assert np.all((0.0 <= values) & (values <= 4.5e-16))


def test_the_pair_state_is_read_only_where_a_flow_ends(monkeypatch):
    # the forms are read once per flow, after its last step, and never by
    # the map, trajectories or fixed points; in peak_points, whose
    # refinements share ticks, at most once per tick
    counts = {"kernel": 0, "flow": 0}
    events = []
    kernel, flow = qrgxy.concurrence._pair_concurrence, qrgxy.concurrence.flowed_concurrences
    solve = qrgxy.rgflow._solve

    def counting_kernel(*args):
        counts["kernel"] += 1
        events.append("kernel")
        return kernel(*args)

    def counting_flow(*args):
        counts["flow"] += 1
        return flow(*args)

    def logged_solve(*args):
        events.append("solve")
        return solve(*args)

    monkeypatch.setattr(qrgxy.concurrence, "_pair_concurrence", counting_kernel)
    monkeypatch.setattr(qrgxy.concurrence, "flowed_concurrences", counting_flow)
    monkeypatch.setattr(qrgxy.rgflow, "_solve", logged_solve)
    gamma_prime(0.3, 3)
    rg_map(CouplingParams(1.0, 0.3), 3)
    rg_trajectory(CouplingParams(1.0, 0.3), 3, 4)
    fixed_points(3, 100)
    assert counts["kernel"] == 0
    for steps, gammas in (
        (0, [0.1, -0.4, 0.9]),
        (3, [0.1, -0.4, 0.9]),
        ([3, 0, 1, 0, 2], [0.1, 0.1, -0.4, 1.0, 0.5]),
        ([4, 4], [0.2, -0.2]),
        (2, []),
    ):
        counts["kernel"] = 0
        flowed_concurrences(3, steps, gammas)
        assert counts["kernel"] == 1
    counts.update(kernel=0, flow=0)
    events.clear()
    peak_points(3, grid=51)
    # every 3D step has an interior peak, so no curve is flowed; the
    # refinements read in the ticks where their flows end, each tick one
    # solve and at most one read after it
    assert counts["flow"] == 0 and counts["kernel"] > 1
    assert events[0] == "solve" and "kernel kernel" not in " ".join(events)
    # every 1D step ends at a cusp: its curves, for the knee, are one flow
    counts.update(kernel=0, flow=0)
    peak_points(1, (1, 2), grid=51)
    assert counts["flow"] == 1


def test_j_sweep_is_flat_in_j():
    gammas = np.linspace(-1.0, 1.0, 11)
    js = (0.1, 0.5, 1.0, 2.0, 10.0)
    sweep = concurrence_j_sweep(1, gammas, js)
    assert sweep.shape == (11, 5)
    spread = np.max(sweep, axis=1) - np.min(sweep, axis=1)
    assert float(np.max(spread)) < 1e-10


def test_j_sweep_of_no_gammas_is_empty():
    for dim in (1, 2, 3):
        assert concurrence_j_sweep(dim, [], [0.5, 1.0, 2.0]).shape == (0, 3)


def test_j_sweep_rejects_bad_j_values():
    with pytest.raises(ValueError, match="j"):
        concurrence_j_sweep(1, [0.0, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError, match="j"):
        concurrence_j_sweep(1, [0.0], [])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            concurrence_j_sweep(1, [0.0], [1.0, bad])


def test_curve_grid_validation():
    with pytest.raises(ValueError, match="odd"):
        concurrence_curve(1, 0, grid=4)
    with pytest.raises(ValueError, match="odd"):
        concurrence_curve(1, 0, grid=1)


def test_curve_contents():
    curve = concurrence_curve(1, 1, grid=41)
    assert curve.dimension == 1 and curve.rg_step == 1
    assert curve.gamma_grid[0] == -1.0 and curve.gamma_grid[-1] == 1.0
    assert len(curve.values) == 41
    assert np.all(curve.values >= 0.0)
    assert curve.values[0] <= 1e-9 and curve.values[-1] <= 1e-9
    assert np.max(np.abs(curve.values - curve.values[::-1])) < 1e-9
