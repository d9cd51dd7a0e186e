import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrgxy.blocks import CouplingParams, block_geometry, collective_spin, interblock_bonds, pair_forms
from qrgxy.concurrence import _pair_concurrence, concurrence_curve, flowed_concurrence
from qrgxy.errors import DegeneracyError, QRGError, StructureError
from qrgxy.numerics import eigh_symmetric
from qrgxy.rgflow import (
    _BISECT_WIDTH,
    GroundDoublet,
    _bisect,
    fixed_points,
    flow,
    gamma_prime,
    ground_doublet,
    BlockSolve,
    rg_map,
    rg_trajectory,
    run_flows,
    solve_many,
)

import qrgxy.blocks
import qrgxy.rgflow
from qrgxy.pauli import spin_flip

from oracles import (
    bisect_one_at_a_time,
    corner_pair_state,
    fixed_points_one_at_a_time,
    ground_doublet_full,
    renormalized_operators,
    xy_hamiltonian_per_bond,
)
from reference_data import ISING_DOUBLETS, KNOWN_FLOWS, known_flow, ket_index, vector_from_kets


def closed_form_1d(g):
    """One-dimensional anisotropy map in closed form, g (3 + g^2)/(1 + 3 g^2)."""
    return g * (3.0 + g * g) / (1.0 + 3.0 * g * g)


def gamma_prime_from_scratch(params, dimension):
    """gamma' rebuilt directly from the full-basis doublet, bypassing the
    S = d projections of solve_many."""
    geometry = block_geometry(dimension)
    doublet = ground_doublet(params, geometry)
    plus, _minus, _axis = interblock_bonds(geometry)[0]
    ops = renormalized_operators(doublet, plus)
    tx = (params.j / 4.0) * (1.0 + params.gamma) * ops.xi_x ** 2
    ty = (params.j / 4.0) * (1.0 - params.gamma) * ops.xi_y ** 2
    return (tx - ty) / (tx + ty)


# -- closed form first: pin it against tabulated flows, then against the code


def test_closed_form_1d_reproduces_tabulated_flows():
    # the closed form must agree with independently tabulated one-step values
    # before it is allowed to act as an oracle for the implementation
    for g0, want in [(-0.26, -0.663099), (0.24, 0.625703), (0.49, 0.922891)]:
        assert abs(closed_form_1d(g0) - want) < 1e-6


def test_gamma_prime_1d_matches_closed_form_on_grid():
    for g in np.linspace(-1.0, 1.0, 101):
        assert abs(gamma_prime(float(g), 1) - closed_form_1d(float(g))) < 1e-6


# -- ground doublet at the free-fermion point, solvable by hand


def test_doublet_1d_isotropic_energy_and_vectors():
    # three-site chain at gamma = 0: one flipped spin hops on (1/2)[[0,1,0],
    # [1,0,1],[0,1,0]], ground energy -1/sqrt(2), amplitudes (1,-sqrt2,1)/2
    d = ground_doublet(CouplingParams(1.0, 0.0), block_geometry(1))
    e0 = -1.0 / math.sqrt(2.0)
    assert abs(d.energy - e0) < 1e-12
    assert abs(d.gap_to_third - 1.0 / math.sqrt(2.0)) < 1e-12

    odd = {"duu": -0.5, "udu": 1.0 / math.sqrt(2.0), "uud": -0.5}
    even = {"udd": -0.5, "dud": 1.0 / math.sqrt(2.0), "ddu": -0.5}
    want2 = vector_from_kets(odd, 3)
    want1 = vector_from_kets(even, 3)
    assert np.max(np.abs(d.phi2 - want2)) < 1e-12
    assert np.max(np.abs(d.phi1 - want1)) < 1e-12


def test_doublet_vectors_orthonormal_and_parity_split():
    for dim in (1, 2, 3):
        d = ground_doublet(CouplingParams(1.0, 0.37), block_geometry(dim))
        assert abs(np.dot(d.phi1, d.phi1) - 1.0) < 1e-12
        assert abs(np.dot(d.phi2, d.phi2) - 1.0) < 1e-12
        assert abs(np.dot(d.phi1, d.phi2)) < 1e-12
        signs1 = {(-1) ** bin(i).count("1") for i in np.flatnonzero(np.abs(d.phi1) > 1e-10)}
        signs2 = {(-1) ** bin(i).count("1") for i in np.flatnonzero(np.abs(d.phi2) > 1e-10)}
        assert signs1 == {1}
        assert signs2 == {-1}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_doublet_matches_known_ising_amplitudes(dim, support_tol=1e-12):
    d = ground_doublet(CouplingParams(1.0, 1.0), block_geometry(dim))
    ref_even, ref_odd = ISING_DOUBLETS[dim]
    for phi, ref in ((d.phi1, ref_even), (d.phi2, ref_odd)):
        want = vector_from_kets(ref, d.n_spins)
        got_support = set(np.flatnonzero(np.abs(phi) > support_tol))
        want_support = {ket_index(k) for k in ref}
        assert got_support == want_support
        err = min(np.max(np.abs(phi - s * want)) for s in (1.0, -1.0))
        assert err < 1e-9


# -- sector doublet against the full block


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [-1.0, -0.5, -1e-7, 0.0, 0.3, 1.0])
def test_sector_doublet_matches_full_block_oracle(dim, gamma):
    params = CouplingParams(1.0, gamma)
    geometry = block_geometry(dim)
    got = ground_doublet(params, geometry)
    energy, phi1, phi2, gap = ground_doublet_full(params, geometry)
    assert abs(got.energy - energy) < 1e-12
    assert abs(got.gap_to_third - gap) < 1e-12
    for mine, ref in ((got.phi1, phi1), (got.phi2, phi2)):
        assert min(np.max(np.abs(mine - s * ref)) for s in (1.0, -1.0)) < 1e-12


def _fake_spin(dim, top, lower=()):
    """The collective-spin tables of `dim` with diagonal coupling blocks and
    b = 0, mirrored as the real ones are: each half of S = d has the
    singular values top, and each half of S = 1..d-1 those of
    lower[S - 1], so that at J = 4 and gamma = 0 the levels of each half
    are minus and plus these, and 0. The solve's entries are cut from
    these tables, as from the real ones."""
    spin = collective_spin(block_geometry(dim))
    coupling = np.zeros_like(spin.coupling)
    coupling[0, 0, :dim] = np.diag(top)
    coupling[:, 1] = coupling[:, 0, ::-1, ::-1]
    gram = np.zeros_like(spin.gram)
    gram[0] = coupling[0].swapaxes(-1, -2) @ coupling[0]
    fake_lower = np.zeros_like(spin.lower)
    for s, sigma in enumerate(lower):
        big, small = np.square(list(sigma) + [0.0])[:2]
        fake_lower[0, :, 2 * s : 2 * s + 2] = [[0.5 * (big + small)], [0.5 * (big - small)], [0.0]]
    fake = spin._replace(coupling=coupling, gram=gram, lower=fake_lower)
    qrgxy.blocks._check_tables(fake)
    return qrgxy.blocks._solve_entries(fake)


def test_two_lowest_levels_of_one_parity_raise_structure_error():
    # tables whose two lowest levels are both even, with the odd ground
    # level above them, break the spin-flip mirror: they are refused where
    # the tables are checked, before any point is solved
    spin = _fake_spin(2, [1.0, 0.75], [[0.125]])
    coupling, gram = spin.coupling.copy(), spin.gram.copy()
    coupling[0, 1] *= 0.5
    gram[0, 1] *= 0.25
    fake = spin._replace(coupling=coupling, gram=gram)
    with pytest.raises(StructureError, match="collective-spin table coupling: the odd half"):
        qrgxy.blocks._check_tables(fake)


def test_a_ground_doublet_outside_the_top_spin_raises_structure_error(monkeypatch):
    # a fake sector cache whose lowest level pair lies in S = 1, with the
    # ground level of each S = d half far above it: the doublet and gap
    # checks pass, the one that asks for one even and one odd level of
    # S = d must not
    fake = _fake_spin(2, [0.5, 0.25], [[1.0]])
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    with pytest.raises(StructureError, match="one even and one odd"):
        ground_doublet(CouplingParams(4.0, 0.0), block_geometry(2))


def test_doublet_tolerance_is_relative_to_the_spectral_spread(monkeypatch):
    # the spectrum is symmetric about 0, so its spread, top level minus E1,
    # is -2 E1: at E1 = -1 the tolerance is 2e-8, which a third level
    # 2.5e-8 above the doublet passes and one 1.5e-8 above fails
    for gap, passes in ((2.5e-8, True), (1.5e-8, False)):
        fake = _fake_spin(2, [1.0, 1.0 - gap])
        monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
        if passes:
            ground_doublet(CouplingParams(4.0, 0.0), block_geometry(2))
        else:
            with pytest.raises(DegeneracyError, match="falls inside the doublet tolerance 2.000e-08"):
                ground_doublet(CouplingParams(4.0, 0.0), block_geometry(2))


def test_third_level_of_a_lower_spin_block_sets_the_gap(monkeypatch):
    # the S = 1 block of d = 2 holds the third level, 0.5 above the doublet;
    # the S = d halves alone would put it 0.75 above, the zero levels 1
    fake = _fake_spin(2, [1.0, 0.25], [[0.5]])
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    assert ground_doublet(CouplingParams(4.0, 0.0), block_geometry(2)).gap_to_third == 0.5
    fake = _fake_spin(2, [1.0, 0.25], [[1.0]])
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    with pytest.raises(DegeneracyError, match="third level"):
        ground_doublet(CouplingParams(4.0, 0.0), block_geometry(2))
    # the zero levels, of S = 0 and of each half, are never solved, yet
    # they count
    fake = _fake_spin(1, [1.0])
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    assert ground_doublet(CouplingParams(4.0, 0.0), block_geometry(1)).gap_to_third == 1.0


def _asymmetric_sx(dim):
    """The collective-spin tables of `dim` with <phi1|sx|phi2> read through
    a form that is not the transpose of the <phi2|sx|phi1> one: the two
    off-diagonals of the projected sx differ by |phi1|^2 = 1 at every point,
    each point with its own values."""
    spin = collective_spin(block_geometry(dim))
    xi = spin.xi.copy()
    xi[0] += np.eye(xi.shape[-1])
    return spin._replace(xi=xi)


# -- projected corner operators, by the full-basis oracle


def test_corner_operators_equal_across_corners():
    # equal couplings on every axis make all corners equivalent up to signs
    for dim in (2, 3):
        geometry = block_geometry(dim)
        d = ground_doublet(CouplingParams(1.0, 0.3), geometry)
        xs = []
        ys = []
        for corner in range(1, geometry.n_sites):
            ops = renormalized_operators(d, corner)
            xs.append(ops.xi_x ** 2)
            ys.append(ops.xi_y ** 2)
        assert np.max(np.abs(np.diff(xs))) < 1e-10
        assert np.max(np.abs(np.diff(ys))) < 1e-10


def test_corner_operators_ising_limit_1d():
    d = ground_doublet(CouplingParams(1.0, 1.0), block_geometry(1))
    ops = renormalized_operators(d, 2)
    assert abs(abs(ops.xi_x) - 1.0) < 1e-9


def test_corner_operators_isotropic_symmetry():
    # at gamma = 0 the x and y channels are related by a spin rotation
    for dim in (1, 2):
        geometry = block_geometry(dim)
        d = ground_doublet(CouplingParams(1.0, 0.0), geometry)
        ops = renormalized_operators(d, geometry.n_sites - 1)
        assert abs(abs(ops.xi_x) - abs(ops.xi_y)) < 1e-10


def test_corner_operators_gauge_free_squares():
    geometry = block_geometry(1)
    d = ground_doublet(CouplingParams(1.0, 0.4), geometry)
    flipped = GroundDoublet(
        energy=d.energy,
        phi1=-d.phi1,
        phi2=d.phi2,
        gap_to_third=d.gap_to_third,
        n_spins=d.n_spins,
    )
    a = renormalized_operators(d, 2)
    b = renormalized_operators(flipped, 2)
    assert abs(a.xi_x + b.xi_x) < 1e-12
    assert abs(a.xi_y + b.xi_y) < 1e-12
    assert abs(a.xi_x ** 2 - b.xi_x ** 2) < 1e-12
    assert abs(a.xi_y ** 2 - b.xi_y ** 2) < 1e-12


def test_corner_operators_reject_parity_mixed_vectors():
    phi1 = np.zeros(8)
    phi1[0] = phi1[1] = 1.0 / math.sqrt(2.0)  # mixes even and odd parity
    phi2 = np.zeros(8)
    phi2[2] = 1.0
    fake = GroundDoublet(energy=0.0, phi1=phi1, phi2=phi2, gap_to_third=1.0, n_spins=3)
    with pytest.raises(StructureError, match="sigma'"):
        renormalized_operators(fake, 2)


def test_degeneracy_guard_trips_when_tolerance_is_impossible(monkeypatch):
    # no third level lies more than the spectral spread above the doublet
    monkeypatch.setattr(qrgxy.rgflow, "DEGENERACY_RTOL", 1.0)
    with pytest.raises(DegeneracyError, match="not twofold"):
        ground_doublet(CouplingParams(1.0, 0.5), block_geometry(1))


# -- the coupling map


def test_rg_map_reproduces_tabulated_values():
    for dim, g0, want in [(1, -0.26, -0.663099), (2, 0.24, 0.984742), (3, -0.01, -0.225734)]:
        out = rg_map(CouplingParams(1.0, g0), dim)
        assert abs(out.gamma - want) < 1e-6
        assert out.j > 0.0


def test_rg_map_j_component_is_linear_in_j():
    base = rg_map(CouplingParams(1.0, 0.3), 2)
    scaled = rg_map(CouplingParams(3.0, 0.3), 2)
    assert abs(scaled.j - 3.0 * base.j) < 1e-12 * abs(base.j)
    assert scaled.gamma == base.gamma


def test_gamma_prime_is_j_independent_without_cache():
    for dim in (1, 2, 3):
        for g in (-0.7, -0.1, 0.33, 0.9):
            a = gamma_prime_from_scratch(CouplingParams(1.0, g), dim)
            b = gamma_prime_from_scratch(CouplingParams(7.3, g), dim)
            assert abs(a - b) < 1e-10


def test_gamma_prime_is_odd():
    for dim in (1, 2, 3):
        for g in (0.05, 0.3, 0.62, 0.97):
            assert abs(gamma_prime(g, dim) + gamma_prime(-g, dim)) < 1e-9


# the global spin flip takes phi1 onto phi2, bit for bit up to the sign
# gauge
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0, 0.7, 1.0])
def test_phi2_is_the_spin_flip_of_phi1_bitwise(dim, gamma):
    doublet = ground_doublet(CouplingParams(1.0, gamma), block_geometry(dim))
    n = doublet.n_spins
    index = np.arange(2 ** n)
    for site in range(n):
        index = index[spin_flip(site, n)[0]]
    flipped = doublet.phi1[index]
    assert any(np.array_equal(doublet.phi2, sign * flipped) for sign in (1.0, -1.0))


# a quarter turn about z takes H(gamma) to H(-gamma) and sigma^x to
# sigma^y: gamma' is odd and xi_x^2 and xi_y^2 swap, bit for bit, as the
# exact fixed-point roots of fixed_points need
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_map_is_odd_and_swaps_xi_bitwise(dim):
    gs = np.linspace(-1.0, 1.0, 2001)[1:-1]
    plus, minus = solve_many(dim, gs), solve_many(dim, -gs)
    assert np.array_equal(minus.gamma_prime, -plus.gamma_prime)
    assert np.array_equal(plus.xi_x2, minus.xi_y2)
    assert np.array_equal(plus.xi_y2, minus.xi_x2)


def test_gamma_prime_amplifies_anisotropy():
    for dim in (1, 2, 3):
        for g in np.linspace(0.05, 0.95, 10):
            gp = gamma_prime(float(g), dim)
            assert gp > g
            assert gp <= 1.0


def test_scalar_flowed_concurrence_is_its_curve_value_bitwise():
    # a point flowed alone gives the bits it gets inside a whole grid, and
    # a neighbor in its batch never changes a result
    curves = [concurrence_curve(2, step, 101) for step in (0, 1, 2)]
    for curve in curves:
        for g, c in zip(curve.gamma_grid, curve.values):
            assert flowed_concurrence(2, curve.rg_step, float(g)) == c
    pair = solve_many(1, [0.3, 0.3 + 1e-13]).gamma_prime
    assert gamma_prime(0.3 + 1e-13, 1) == pair[1]


# -- the S = d path of the block solve


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [-1.0, -0.6, 0.0, 0.1, 0.45, 1.0])
def test_block_solve_matches_the_full_basis_oracle(dim, gamma):
    geometry = block_geometry(dim)
    energy, phi1, phi2, gap = ground_doublet_full(CouplingParams(1.0, gamma), geometry)
    doublet = GroundDoublet(energy=energy, phi1=phi1, phi2=phi2, gap_to_third=gap, n_spins=geometry.n_sites)
    ops = renormalized_operators(doublet, interblock_bonds(geometry)[0][0])
    solve = solve_many(dim, gamma)
    assert abs(solve.xi_x2[0] - ops.xi_x ** 2) <= 1e-14
    assert abs(solve.xi_y2[0] - ops.xi_y ** 2) <= 1e-14
    # the X-state entries rho00, rho11, rho33, rho03 of the corner pair
    forms = [solve.even[0] @ form @ solve.even[0] for form in pair_forms(geometry)]
    rho = corner_pair_state(phi1, geometry)
    assert np.max(np.abs(forms - rho[[0, 1, 3, 0], [0, 1, 3, 3]])) <= 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cold_block_solve_never_builds_a_full_basis_vector(monkeypatch, dim):
    # the per-dimension tables are built afresh here, and neither they nor
    # the solve touch the 2^n basis: only ground_doublet's embedding does
    fresh = functools.cache(qrgxy.blocks._collective_spin.__wrapped__)
    monkeypatch.setattr(qrgxy.blocks, "_collective_spin", fresh)

    def refuse(*args, **kwargs):
        raise AssertionError("the block solve reached a full-basis helper")

    for module, name in (
        (qrgxy.blocks, "spin_flip"),
        (qrgxy.rgflow, "embedding"),
        (qrgxy.rgflow, "ground_doublet"),
    ):
        monkeypatch.setattr(module, name, refuse)
    even = solve_many(dim, 0.3).even
    assert even.shape == (1, 2 * dim + 1)
    assert not even.flags.writeable
    assert fresh.cache_info().currsize == 1


def test_only_a_concurrence_builds_the_pair_forms(monkeypatch):
    fresh = functools.cache(qrgxy.blocks._pair_forms.__wrapped__)
    monkeypatch.setattr(qrgxy.blocks, "_pair_forms", fresh)
    fixed_points(3, 100)
    rg_trajectory(CouplingParams(1.0, 0.3), 3, 2)
    assert fresh.cache_info().currsize == 0
    flowed_concurrence(3, 1, 0.3)
    assert fresh.cache_info().currsize == 1


def record_solve_batches(monkeypatch):
    """The batch size of every rgflow._solve call made from now on. Any
    np.linalg function called from now on fails the test: the blocks are
    solved through the secular equation of their Grams, with no LAPACK."""
    batches = []

    def recording(dimension, couplings, _real=qrgxy.rgflow._solve):
        batches.append(len(couplings.gamma))
        return _real(dimension, couplings)

    def refuse(*args, **kwargs):
        raise AssertionError("a flow path called np.linalg")

    monkeypatch.setattr(qrgxy.rgflow, "_solve", recording)
    for name in dir(np.linalg):
        value = getattr(np.linalg, name)
        if callable(value) and not isinstance(value, type) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, refuse)
    return batches


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cold_block_solve_makes_one_eigh_of_the_gram_stack(monkeypatch, dim):
    # the name is kept from when the Grams went to LAPACK's eigh: a batch of
    # one and a batch of five are each one solve of the whole batch, and
    # neither, nor the tables built afresh for them, calls np.linalg
    fresh = functools.cache(qrgxy.blocks._collective_spin.__wrapped__)
    monkeypatch.setattr(qrgxy.blocks, "_collective_spin", fresh)
    batches = record_solve_batches(monkeypatch)
    for batch, solve in (
        (1, lambda: gamma_prime(0.3, dim)),
        (5, lambda: solve_many(dim, np.linspace(-0.8, 0.8, 5))),
    ):
        batches.clear()
        solve()
        assert batches == [batch]
    assert fresh.cache_info().currsize == 1


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    gammas=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=12),
)
def test_batched_solve_is_the_scalar_solve_of_each_point(dim, gammas):
    batch = solve_many(dim, gammas)
    concurrences = _pair_concurrence(dim, batch.even)
    for k, gamma in enumerate(gammas):
        one = solve_many(dim, gamma)
        assert batch.gamma_prime[k] == one.gamma_prime[0]
        assert abs(batch.xi_x2[k] - one.xi_x2[0]) <= 1e-15
        assert abs(batch.xi_y2[k] - one.xi_y2[0]) <= 1e-15
        assert np.array_equal(batch.even[k], one.even[0])
        assert concurrences[k] == _pair_concurrence(dim, one.even)[0]
    assert not batch.even.flags.writeable


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_an_empty_batch_solves_to_empty_arrays(dim):
    solved = solve_many(dim, [])
    assert [a.shape for a in solved] == [(0,), (0,), (0,), (0, 2 * dim + 1)]
    assert not solved.even.flags.writeable


def test_fixed_points_solve_count(monkeypatch):
    # one call: the residual grid and the 0.0 put in it, 101 points, and
    # the two-point stencils of -1, 0 and 1, which the map fixes exactly;
    # they are the only roots, so nothing is bisected and no stencil is left
    batches = record_solve_batches(monkeypatch)
    fixed_points(3, 100)
    assert batches == [107]


# gamma' to the bit, at points near gamma = 0 where t_x - t_y cancels
# unless it is read as (xi_x - xi_y)(xi_x + xi_y); each lies within 4.1
# ulps of a 60-digit solve of the same tables
GOLDEN_GAMMA_PRIME = [
    (1, 0.3665738120065143, 0.8188699868453527),
    (2, 1.081602518910922e-06, 1.189762770742291e-05),
    (3, 5.034867904158609e-06, 0.00011580196123814562),
    (3, 2.223105778133823e-06, 5.1131432849086633e-05),
]


@pytest.mark.parametrize("dim,gamma,want", GOLDEN_GAMMA_PRIME)
def test_gamma_prime_keeps_its_golden_bits(dim, gamma, want):
    assert gamma_prime(gamma, dim) == want
    assert solve_many(dim, [0.5, gamma]).gamma_prime[1] == want


def _scalar_error(dim, gamma):
    with pytest.raises(QRGError) as info:
        solve_many(dim, [gamma])
    return type(info.value), str(info.value)


def test_batch_raises_the_scalar_error_of_its_first_failing_point(monkeypatch):
    # without the sy sy bonds (a = b = XX) the block at gamma = -1 is zero:
    # its ground level is not twofold, while every other gamma is an Ising
    # block; the Gram of XX alone is (P0 + P1 + P2) / 4 times (1 + gamma)^2
    spin = collective_spin(block_geometry(2))
    xx = 0.5 * (spin.coupling[0] + spin.coupling[1])
    gram, lower = (np.sum(t, axis=0) / 4.0 for t in (spin.gram, spin.lower))
    fake = qrgxy.blocks._solve_entries(spin._replace(
        coupling=np.stack([xx, xx]),
        gram=np.stack([gram, 2.0 * gram, gram]),
        lower=np.stack([lower, 2.0 * lower, lower]),
    ))
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    solve_many(2, [0.3, 0.7, 0.5])
    want = _scalar_error(2, -1.0)
    assert want[0] is DegeneracyError
    with pytest.raises(want[0]) as info:
        solve_many(2, [0.3, 0.7, -1.0, 0.5])
    assert str(info.value) == want[1]
    # an sx form that is not the transpose of its mirror fails every point,
    # each with its own text
    fake = _asymmetric_sx(2)
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    first, second = _scalar_error(2, 0.3), _scalar_error(2, 0.6)
    assert first[0] is StructureError and first[1] != second[1]
    with pytest.raises(first[0]) as info:
        solve_many(2, [0.3, 0.6])
    assert str(info.value) == first[1]


def test_block_solve_checks_the_projected_corner_sigma_x(monkeypatch):
    # an sx form that is not the transpose of its mirror: the doublet no
    # longer projects sx onto a pure sigma'^x, and the solve says so instead
    # of squaring it away
    fake = _asymmetric_sx(2)
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    with pytest.raises(StructureError, match="at site 2 is not proportional to sigma'"):
        solve_many(2, 0.3)


# the secular solve of the star Grams against LAPACK's eigh of the same
# assembled Grams, on the grid, both signs of |gamma| from 1e-12 to 1e-2,
# 0, +-2^-53 and +-1. Measured: at most 0 / 2 / 3 ulps off the top
# eigenvalue, 4 / 7 ulps (d = 2 / 3) off the second, and 0 / 1.5 / 3.75
# eps off the unit top vector, for d = 1 / 2 / 3; the bounds are about
# twice the worst of these
SMALL_GAMMAS = np.geomspace(1e-12, 1e-2, 41)
ORACLE_GAMMAS = np.concatenate(
    [np.linspace(-1.0, 1.0, 2001), SMALL_GAMMAS, -SMALL_GAMMAS, [0.0, 2.0**-53, -(2.0**-53), 1.0, -1.0]]
)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_solve_entries_are_cut_from_the_tables(dim, monkeypatch):
    # what the solve reads of the collective-spin tables is cut out of
    # them where they are built, bit for bit and read-only, and a fake is
    # solved from the entries cut out of its own tables
    spin = collective_spin(block_geometry(dim))
    star, lower = np.split(spin.poly[..., 0], [2 * dim - 1], axis=1)
    assert star.tobytes() == spin.gram[:, 0, spin.star[0], spin.star[1]].tobytes()
    assert lower.tobytes() == spin.lower[..., ::2].tobytes()
    for table, ladder in zip(spin.coupling[:, 0], spin.ladder[..., 0]):
        assert ladder.tobytes() == np.concatenate([np.diagonal(table), np.diagonal(table, -1)]).tobytes()
    placed = np.empty(dim, dtype=int)
    placed[spin.star[0, :dim]] = np.arange(dim)
    assert spin.place.tolist() == placed.tolist()
    # at J = 4 and gamma = 0 a fake's ground level is minus its largest
    # singular value
    top = {1: [0.75], 2: [0.75, 0.25], 3: [0.25, 0.75, 0.125]}[dim]  # largest at main
    fake = _fake_spin(dim, top, [[0.0625], [0.0625, 0.03125]][: dim - 1])
    for cut in (spin, fake):
        assert not any(table.flags.writeable for table in (cut.poly, cut.place, cut.ladder))
    assert fake.poly.tobytes() != spin.poly.tobytes()
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    assert ground_doublet(CouplingParams(4.0, 0.0), block_geometry(dim)).energy == -0.75


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_star_solve_matches_eigh_of_the_assembled_gram(dim):
    spin = collective_spin(block_geometry(dim))
    p0, p1, p2 = spin.gram[:, 0]
    g = ORACLE_GAMMAS[:, None, None]
    want, vectors = eigh_symmetric(p0 + g * (p1 + g * p2))
    star = spin.poly[:, : 2 * dim - 1]  # the star's entries
    entries = star[0] + ORACLE_GAMMAS * (star[1] + ORACLE_GAMMAS * star[2])
    top, second, star_vector = qrgxy.rgflow._star_top(entries, dim)
    main = spin.star[0, 0]
    vector = star_vector[spin.place]
    assert np.all(vector[main] > 0.0)
    want_vector = (vectors[..., -1] * np.sign(vectors[:, main, -1])[:, None]).T
    assert np.max(np.abs(top - want[:, -1]) / np.spacing(want[:, -1])) <= 6.0
    assert np.max(np.abs(vector - want_vector)) <= 8.0 * np.finfo(float).eps
    if dim == 1:
        assert second is None
    else:
        assert np.max(np.abs(second - want[:, -2]) / np.spacing(want[:, -2])) <= 14.0


# the S = d Grams, the S = 1..d-1 Grams and the zero levels hold every
# level of the block, and nothing else: each half's levels are minus and
# plus the square roots of its Gram's eigenvalues, and 0
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_merged_levels_are_the_levels_of_the_block(dim):
    geometry = block_geometry(dim)
    spin = collective_spin(geometry)
    for gamma in (-1.0, -0.6, 0.0, 0.1, 0.45, 1.0):
        params = CouplingParams(1.3, gamma)
        grams = spin.gram[0] + gamma * spin.gram[1] + gamma * gamma * spin.gram[2]
        m, h, r = spin.lower[0] + gamma * spin.lower[1] + gamma * gamma * spin.lower[2]
        lower = np.moveaxis(np.array([[m + h, r], [r, m - h]]), -1, 0)  # the 2x2 Grams, S = 1 padded
        squares = np.concatenate([np.linalg.eigvalsh(grams).reshape(-1), np.linalg.eigvalsh(lower).reshape(-1)])
        sigma = (params.j / 4.0) * np.sqrt(np.clip(squares, 0.0, None))
        merged = np.concatenate([-sigma, sigma, np.zeros(2)])
        bonds = [(center, corner) for center, corner, _axis in geometry.intra_bonds]
        full = np.linalg.eigvalsh(xy_hamiltonian_per_bond(params.j, gamma, geometry.n_sites, bonds))
        assert np.max(np.min(np.abs(full[:, None] - merged), axis=1)) <= 1e-12
        assert np.max(np.min(np.abs(merged[:, None] - full), axis=1)) <= 1e-12
        solved = ground_doublet(params, geometry)
        assert abs(solved.energy - full[0]) <= 1e-12
        assert abs(solved.gap_to_third - (full[2] - full[1])) <= 1e-12


# -- trajectories


def test_trajectory_shape_and_initial_entry():
    start = CouplingParams(1.0, -0.26)
    traj = rg_trajectory(start, 1, 4)
    assert traj.dimension == 1
    assert len(traj.steps) == 5
    assert traj.steps[0] == start
    short = rg_trajectory(start, 1, 0)
    assert short.steps == (start,)


def test_trajectory_matches_two_step_table():
    for g0 in (-0.51, -0.01, 0.24):
        for dim in (1, 2, 3):
            traj = rg_trajectory(CouplingParams(1.0, g0), dim, 2)
            assert abs(traj.steps[1].gamma - known_flow(g0, dim, 1)) < 1e-4
            assert abs(traj.steps[2].gamma - known_flow(g0, dim, 2)) < 1e-4


def test_trajectory_endpoints_stay_put():
    for g0 in (-1.0, 1.0):
        traj = rg_trajectory(CouplingParams(1.0, g0), 2, 3)
        for p in traj.steps:
            assert p.gamma == g0


def test_trajectory_step_count_bounds():
    with pytest.raises(ValueError, match="n_steps"):
        rg_trajectory(CouplingParams(1.0, 0.1), 1, 65)
    with pytest.raises(ValueError, match="n_steps"):
        rg_trajectory(CouplingParams(1.0, 0.1), 1, -1)


def test_trajectory_takes_a_whole_number_float_step_count():
    # the one step rule of the flow: 2.0 is two steps, 1.5 is refused
    start = CouplingParams(1.0, 0.3)
    assert rg_trajectory(start, 1, 2.0) == rg_trajectory(start, 1, 2)
    with pytest.raises(ValueError, match="n_steps must be a whole number, got 1.5"):
        rg_trajectory(start, 1, 1.5)


def test_trajectory_checks_j_at_every_step():
    # J' underflows to 0 on the first step and the next couplings refuse it
    with pytest.raises(ValueError, match=r"coupling j must be finite and > 0, got 0\.0"):
        rg_trajectory(CouplingParams(5e-324, 0.3), 1, 2)


# -- fixed points


@pytest.mark.parametrize("dim,slope0", [(1, 3.0), (2, 11.0), (3, 23.0)])
def test_fixed_points_roots_and_stability(dim, slope0):
    fps = fixed_points(dim)
    assert [round(fp.gamma, 8) for fp in fps] == [-1.0, 0.0, 1.0]
    assert [fp.stability for fp in fps] == ["stable", "unstable", "stable"]
    assert abs(fps[1].slope - slope0) < 1e-6
    assert fps[0].slope < 1.0
    assert fps[2].slope < 1.0


# the exact 0.0 is on every residual grid: linspace misses it on every even
# grid and rounds the middle of 197 to -1.1e-16, where the 1D residual's
# sign is rounding noise
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fixed_points_do_not_depend_on_the_grid(dim):
    want = [(fp.gamma, fp.stability, fp.slope) for fp in fixed_points(dim, 401)]
    assert [(gamma, stability) for gamma, stability, _slope in want] == [
        (-1.0, "stable"), (0.0, "unstable"), (1.0, "stable")
    ]
    assert np.linspace(-1.0, 1.0, 197)[98] == -2.0 ** -53
    for grid in (100, 101, 197, 400, 1000):
        got = [(fp.gamma, fp.stability, fp.slope) for fp in fixed_points(dim, grid)]
        assert got == want
        assert math.copysign(1.0, got[1][0]) == 1.0


@pytest.mark.parametrize("grid", [100, 101, 157, 197, 401, 1000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fixed_points_are_those_of_one_point_bisection(dim, grid):
    # on the same grid, solve_many gives each point the bits of its batch
    # of one; the real map leaves no bracket to bisect, and the bisection walk
    # is held to one-point bisection on synthetic maps below
    want = fixed_points_one_at_a_time(lambda gs: solve_many(dim, gs).gamma_prime, grid)
    assert [(fp.gamma, fp.stability, fp.slope) for fp in fixed_points(dim, grid)] == want


# maps gamma -> gamma' whose residuals meet the cases the bisection walk
# branches on: a jump across the root, residuals of exactly 0 (which the
# real map only reaches at +-1), and values rounded to few digits, whose
# residuals are exactly 0 or change sign all over the bracket
SYNTHETIC_MAPS = {
    "step": lambda m, k: lambda x: x + (2.0 ** -k if x > m else -(2.0 ** -k)),
    "zero band": lambda m, k: lambda x: x if abs(x - m) <= 10.0 ** -k else x + (x - m),
    "rounded identity": lambda m, k: lambda x: round(x, k),
    "rounded slope 3": lambda m, k: lambda x: round(m + 3.0 * (x - m), k),
    "tanh": lambda m, k: lambda x: math.tanh(3.0 * (x - m)),
}


def map_solve(f, calls=None):
    """A stand-in for rgflow._solve, which solve_many and each tick of
    run_flows call on checked points, whose gamma' is f(gamma), for the
    searches of run_flows on a synthetic map; calls gets the gammas of
    every call."""

    def solve(dimension, couplings):
        gammas = couplings.gamma.tolist()
        if calls is not None:
            calls.append(gammas)
        n = len(gammas)
        return BlockSolve(np.zeros(n), np.zeros(n), np.array([f(g) for g in gammas]), np.zeros((n, 2 * dimension + 1)))

    return solve


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(SYNTHETIC_MAPS)),
    center=st.floats(min_value=-1.0, max_value=1.0),
    digits=st.integers(min_value=0, max_value=14),
    a=st.floats(min_value=-1.0, max_value=1.0),
    width=st.one_of(st.just(0.0), st.floats(min_value=_BISECT_WIDTH / 4.0, max_value=2.0)),
)
def test_bisection_walks_as_one_point_bisection(kind, center, digits, a, width):
    # the bracket is cut to [-1, 1], where run_flows checks the points
    f = SYNTHETIC_MAPS[kind](center, digits)
    b = min(a + width, 1.0)
    fa = f(a) - a
    needed, asked = [], []

    def one(x):
        needed.append(x)
        return f(x)

    want = bisect_one_at_a_time(one, a, b, fa, _BISECT_WIDTH)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qrgxy.rgflow, "_solve", map_solve(f, asked))
        assert run_flows(1, [_bisect(a, b, fa)]) == [want]
    assert asked == [[x] for x in needed]  # one midpoint per tick, in order
    assert all(a <= x <= b for x in needed)


def test_a_root_off_the_exact_three_gets_its_stencil_in_one_more_solve(monkeypatch):
    # a map that fixes -1, 0 and 1 exactly and crosses gamma' = gamma at
    # 0.3, which no grid point holds: the residual grid and the stencils of
    # the exact three in one solve, the bisection in 35 ticks of one
    # midpoint each, then one solve for the stencil of the bisected root
    def f(x):
        return x + 0.01 * x * (1.0 - x * x) * (x - 0.3)

    calls = []
    monkeypatch.setattr(qrgxy.rgflow, "_solve", map_solve(f, calls))
    got = [(fp.gamma, fp.stability, fp.slope) for fp in fixed_points(1, 100)]
    assert got == fixed_points_one_at_a_time(lambda gs: np.array([f(g) for g in gs]), 100)
    assert [gamma for gamma, _stability, _slope in got] == [-1.0, 0.0, got[2][0], 1.0]
    assert abs(got[2][0] - 0.3) < 1e-12
    assert len(calls[0]) == 107 and len(calls[-1]) == 2 and len(calls) > 2


def test_run_flows_sends_each_search_its_own_values(monkeypatch):
    # each search is sent, in the order it asked, the rows of the gammas it
    # asked for, here flows whose gamma' is half the gamma they reached; a
    # search that returns at once, here a bracket already narrow enough,
    # asks for nothing, and a flow of no gammas takes an empty part of each
    # tick
    calls = []
    monkeypatch.setattr(qrgxy.rgflow, "_solve", map_solve(lambda g: 0.5 * g, calls))

    def search(k, asks):
        seen = []
        for gammas, steps in asks:
            end = yield from flow(gammas, steps)
            assert isinstance(end, BlockSolve)
            seen.append((gammas, steps, end.gamma_prime))
        return k, seen

    asks = {1: [([0.1, 0.2], 1), ([0.3], 0)], 2: [([0.4, 0.5, 0.6], 2)], 3: [([], 2)]}
    done = run_flows(1, [_bisect(0.0, _BISECT_WIDTH, -1.0)] + [search(k, a) for k, a in asks.items()])
    assert done[0] == 0.5 * _BISECT_WIDTH
    for k, a in asks.items():
        who, seen = done[k]
        assert who == k and len(seen) == len(a)
        for gammas, steps, values in seen:
            # halving is exact
            assert values.tolist() == [g * 0.5 ** (steps + 1) for g in gammas]
    # one solve per tick on the gammas of every search that asks in it, in
    # the order of the searches; a search whose flow ends asks its next
    # flow in the next tick
    assert calls == [[0.1, 0.2, 0.4, 0.5, 0.6], [0.05, 0.1, 0.2, 0.25, 0.3], [0.3, 0.1, 0.125, 0.15]]
    assert run_flows(1, []) == [] and len(calls) == 3


def test_a_search_asks_again_at_the_next_tick(monkeypatch):
    # searches whose flows take 1, 2 and 3 steps and that ask 6, 4 and 3
    # times need 12 ticks each, and together they take 12: rounds in which
    # every search waits for the slowest would take 4 + 4 + 4 + 3 + 3 + 2
    calls = []
    monkeypatch.setattr(qrgxy.rgflow, "_solve", map_solve(lambda g: 0.5 * g, calls))

    def search(steps, asks):
        for ask in range(asks):
            start = 0.1 * steps + 0.01 * ask
            (value,) = (yield from flow([start], steps)).gamma_prime
            assert value == start * 0.5 ** (steps + 1)
        return steps

    assert run_flows(1, [search(1, 6), search(2, 4), search(3, 3)]) == [1, 2, 3]
    assert [len(points) for points in calls] == [3] * 12


def test_run_flows_checks_each_batch_in_the_order_asked(monkeypatch):
    # the gammas of a tick are range-checked together; where one fails,
    # each search's gammas are checked in the order asked, and the first
    # that fails raises the error of its batch of one; a flow's steps are
    # checked by step_counts
    def search(gammas, steps=1):
        yield from flow([0.2], 1)
        yield from flow(gammas, steps)

    for gammas, bad in (([0.5, 2.0, -3.0], 2.0), ([0.1, math.nan, 5.0], math.nan)):
        with pytest.raises(ValueError) as want:
            solve_many(2, [bad])
        with pytest.raises(ValueError) as info:
            run_flows(2, [search([0.3]), search(gammas)])
        assert str(info.value) == str(want.value)
    with pytest.raises(ValueError, match="whole number, got 1.5"):
        run_flows(2, [search([0.1], 1.5)])
    with pytest.raises(ValueError, match="between 0 and 64, got 65"):
        run_flows(2, [search([0.1, 0.2], 65)])
    # a point that fails in a tick's solve raises the error of its batch of
    # one: an asymmetric sx form fails every point, each with its own
    # text, and 0.2 is the first point of the first tick
    fake = _asymmetric_sx(2)
    monkeypatch.setattr(qrgxy.rgflow, "collective_spin", lambda geometry: fake)
    want = _scalar_error(2, 0.2)
    assert want[0] is StructureError and want[1] != _scalar_error(2, 0.3)[1]
    with pytest.raises(want[0]) as info:
        run_flows(2, [search([0.3, 0.4], 0), search([0.5])])
    assert str(info.value) == want[1]


def test_a_gamma_prime_that_leaves_the_range_stops_the_flow(monkeypatch):
    # the gammas of a tick are checked as it solves them: a gamma' beyond
    # [-1, 1] raises in the next tick the error that CouplingParams, and
    # solve_many, give it; the solve clamps only rounding, so only faked
    # tables or a faked map get here
    calls = []
    monkeypatch.setattr(qrgxy.rgflow, "_solve", map_solve(lambda g: 2.0 * g, calls))

    with pytest.raises(ValueError) as want:
        CouplingParams(1.0, 1.2)
    for flows in (
        [flow([0.3, -0.1, 0.6], 2)],
        [flow([0.3], 2), flow([-0.1], 2), flow([0.6], 2)],
        [flow([0.3], 0), flow([-0.1], 1), flow([0.6], 2)],
    ):
        calls.clear()
        with pytest.raises(ValueError, match=r"anisotropy gamma must lie in \[-1, 1\], got 1.2") as info:
            run_flows(1, flows)
        assert str(info.value) == str(want.value)
        # the tick that would move on -0.2 and 1.2 raises before it solves
        assert calls == [[0.3, -0.1, 0.6]]
    # the gamma' of the solve where a flow ends is read, not solved, and so
    # not checked
    assert run_flows(1, [flow([0.3, -0.1, 0.6], 0)])[0].gamma_prime.tolist() == [0.6, -0.2, 1.2]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_every_point_of_a_fine_grid_passes_every_check(dim):
    # a bisection or a peak search may ask for any point of [-1, 1]; none
    # of a fine grid may fail a check
    gs = np.linspace(-1.0, 1.0, 20001)
    assert np.all(np.abs(solve_many(dim, gs).gamma_prime) <= 1.0)


def test_fixed_points_grid_floor():
    with pytest.raises(ValueError, match="100"):
        fixed_points(1, grid=99)


@settings(max_examples=30, deadline=None)
@given(
    g=st.floats(min_value=-1.0, max_value=1.0).filter(lambda x: abs(x) >= 1e-6),
    dim=st.sampled_from([1, 2]),
)
def test_gamma_prime_bounded_and_sign_preserving(g, dim):
    gp = gamma_prime(g, dim)
    assert abs(gp) <= 1.0
    assert math.copysign(1.0, gp) == math.copysign(1.0, g)
