import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qrgxy.concurrence as qc
from qrgxy.blocks import CouplingParams, block_geometry
from qrgxy.concurrence import (
    ReducedDensityMatrix,
    block_concurrence,
    concurrence_curve,
    concurrence_j_sweep,
    density_matrix,
    flowed_concurrence,
    partial_trace_pair,
    wootters_concurrence,
)
from qrgxy.errors import ContractError
from qrgxy.rgflow import ground_doublet, rg_trajectory

from oracles import partial_trace_bruteforce, wootters_concurrence_complex


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
        got = partial_trace_pair(np.outer(psi, psi), pair).rho
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
    ab = partial_trace_pair(rho, (0, 2)).rho
    ba = partial_trace_pair(rho, (2, 0)).rho
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


def test_concurrence_accepts_both_input_forms():
    rho = bell(0.6, 0.8)
    wrapped = ReducedDensityMatrix(rho=rho, pair=(0, 1))
    assert wootters_concurrence(wrapped) == wootters_concurrence(rho)


def test_concurrence_rejects_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        wootters_concurrence(np.eye(3) / 3.0)


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


def test_block_pair_count_and_maximum_at_isotropy():
    for dim, n_pairs in [(1, 1), (2, 6), (3, 15)]:
        bc = block_concurrence(CouplingParams(1.0, 0.0), dim)
        assert len(bc.per_pair) == n_pairs
        assert abs(bc.geometric_mean - 0.5 / dim) < 1e-9


def test_block_pairs_mutually_equal():
    for dim in (1, 2, 3):
        bc = block_concurrence(CouplingParams(1.0, 0.3), dim)
        vals = [c for _, c in bc.per_pair]
        assert max(vals) - min(vals) < 1e-9
        assert abs(bc.geometric_mean - vals[0]) < 1e-9


def test_block_concurrence_vanishes_at_ising_points():
    for dim in (1, 2, 3):
        for g in (-1.0, 1.0):
            assert block_concurrence(CouplingParams(1.0, g), dim).geometric_mean <= 1e-9


def test_ising_corner_state_is_bell_mixture_1d():
    # at gamma = 1 the corner pair is an equal mix of two Bell states:
    # eigenvalues (1/2, 1/2, 0, 0) and no concurrence survives the mixing
    d = ground_doublet(CouplingParams(1.0, 1.0), block_geometry(1))
    red = partial_trace_pair(density_matrix(d.phi1), (0, 2))
    w = np.linalg.eigvalsh(red.rho)
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


def test_j_sweep_is_flat_in_j():
    qc.clear_cache()
    gammas = np.linspace(-1.0, 1.0, 11)
    js = (0.1, 0.5, 1.0, 2.0, 10.0)
    sweep = concurrence_j_sweep(1, gammas, js)
    assert sweep.shape == (11, 5)
    spread = np.max(sweep, axis=1) - np.min(sweep, axis=1)
    assert float(np.max(spread)) < 1e-10


def test_j_sweep_rejects_bad_j_values():
    with pytest.raises(ValueError, match="j"):
        concurrence_j_sweep(1, [0.0, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError, match="j"):
        concurrence_j_sweep(1, [0.0], [])


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
