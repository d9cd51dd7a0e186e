import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrgxy.blocks import (
    CouplingParams,
    block_geometry,
    block_hamiltonian,
    interblock_bonds,
)
from qrgxy.numerics import eigh_symmetric
from qrgxy.pauli import Axis, parity_operator

from oracles import xy_hamiltonian_complex, xy_hamiltonian_per_bond


def _complex_twin(params, geometry):
    """The same Hamiltonian built with textbook complex Paulis; every
    center-corner bond has unit weight."""
    bonds = [(center, corner, 1.0) for center, corner, _axis in geometry.intra_bonds]
    return xy_hamiltonian_complex(params.j, params.gamma, geometry.n_sites, bonds)


# oracle first: the real assembly equals the complex one exactly
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0, 0.7, 1.0])
def test_block_hamiltonian_matches_complex_oracle(dim, gamma):
    params = CouplingParams(1.3, gamma)
    geometry = block_geometry(dim)
    h = block_hamiltonian(params, geometry)
    twin = _complex_twin(params, geometry)
    assert np.max(np.abs(twin.imag)) == 0.0
    assert np.max(np.abs(h - twin.real)) <= 1e-14


# summing the bonds once per geometry changes no bit of the per-bond sum
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0, 1e-7, 0.7, 1.0])
def test_block_hamiltonian_bit_identical_to_per_bond_build(dim, gamma):
    geometry = block_geometry(dim)
    bonds = [(center, corner) for center, corner, _axis in geometry.intra_bonds]
    for j in (0.1, 1.3, 10.0):
        h = block_hamiltonian(CouplingParams(j, gamma), geometry)
        ref = xy_hamiltonian_per_bond(j, gamma, geometry.n_sites, bonds)
        assert np.array_equal(h, ref)
        assert np.array_equal(np.signbit(h), np.signbit(ref))


def test_block_hamiltonian_is_a_fresh_writable_array():
    geometry = block_geometry(1)
    h = block_hamiltonian(CouplingParams(1.0, 0.2), geometry)
    h[0, 0] = 5.0  # callers own the result; the cached bond sums stay intact
    assert block_hamiltonian(CouplingParams(1.0, 0.2), geometry)[0, 0] == 0.0


def test_coupling_params_validation():
    CouplingParams(1e-6, 1.0)
    CouplingParams(10.0, -1.0)
    for j, gamma in [(0.0, 0.0), (-1.0, 0.0), (float("nan"), 0.0),
                     (1.0, 1.0001), (1.0, -2.0), (1.0, float("nan"))]:
        with pytest.raises(ValueError):
            CouplingParams(j, gamma)


def test_coupling_params_frozen():
    p = CouplingParams(1.0, 0.5)
    with pytest.raises(Exception):
        p.gamma = 0.2


def test_geometry_line():
    g = block_geometry(1)
    assert (g.n_sites, g.center) == (3, 1)
    assert [(c.site, c.axis, c.sign) for c in g.corners] == [
        (0, Axis.X, -1),
        (2, Axis.X, +1),
    ]
    assert g.intra_bonds == ((1, 0, Axis.X), (1, 2, Axis.X))


def test_geometry_star_2d_3d():
    for dim in (2, 3):
        g = block_geometry(dim)
        assert g.n_sites == 2 * dim + 1
        assert g.center == 0
        sites = [c.site for c in g.corners]
        assert sorted(sites) == list(range(1, g.n_sites))
        assert g.center not in sites
        # one corner on each side of each of the first `dim` axes
        for k in range(dim):
            signs = sorted(c.sign for c in g.corners if c.axis == Axis(list("xyz")[k]))
            assert signs == [-1, 1]
        assert len(g.intra_bonds) == 2 * dim
        for center, corner, _axis in g.intra_bonds:
            assert center == g.center
            assert corner in sites
    with pytest.raises(ValueError):
        block_geometry(4)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hamiltonian_symmetric_traceless(dim):
    h = block_hamiltonian(CouplingParams(2.0, 0.4), block_geometry(dim))
    assert np.array_equal(h, h.T)
    assert abs(np.trace(h)) == 0.0


def test_hamiltonian_linear_in_j():
    geometry = block_geometry(2)
    h1 = block_hamiltonian(CouplingParams(1.0, 0.3), geometry)
    h2 = block_hamiltonian(CouplingParams(2.0, 0.3), geometry)
    assert np.array_equal(h2, 2.0 * h1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gamma_sign_flip_is_isospectral(dim):
    geometry = block_geometry(dim)
    wp = eigh_symmetric(block_hamiltonian(CouplingParams(1.0, 0.6), geometry)).eigenvalues
    wm = eigh_symmetric(block_hamiltonian(CouplingParams(1.0, -0.6), geometry)).eigenvalues
    assert np.max(np.abs(wp - wm)) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_parity_commutes(dim):
    geometry = block_geometry(dim)
    h = block_hamiltonian(CouplingParams(1.0, 0.37), geometry)
    p = parity_operator(geometry.n_sites)
    assert np.max(np.abs(h @ p - p @ h)) <= 1e-12


def test_line_ground_energy_closed_form():
    # at gamma = 0 the 3-site chain is a free hopping problem with
    # single-magnon energies (j/2) * {-sqrt(2), 0, +sqrt(2)}
    w = eigh_symmetric(block_hamiltonian(CouplingParams(1.0, 0.0), block_geometry(1))).eigenvalues
    assert abs(w[0] - (-1.0 / math.sqrt(2.0))) <= 1e-12
    assert abs(w[0] - w[1]) <= 1e-12  # the doublet


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ground_space_is_a_doublet_across_gamma(dim):
    geometry = block_geometry(dim)
    for gamma in np.linspace(-1.0, 1.0, 21):
        w = eigh_symmetric(block_hamiltonian(CouplingParams(1.0, float(gamma)), geometry)).eigenvalues
        span = w[-1] - w[0]
        assert w[1] - w[0] <= 1e-8 * span
        assert w[2] - w[0] > 1e-6 * span


def test_interblock_bonds():
    assert interblock_bonds(block_geometry(1)) == [(2, 0, Axis.X)]
    assert interblock_bonds(block_geometry(2)) == [(2, 1, Axis.X), (4, 3, Axis.Y)]
    assert interblock_bonds(block_geometry(3)) == [
        (2, 1, Axis.X),
        (4, 3, Axis.Y),
        (6, 5, Axis.Z),
    ]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_spectrum_symmetric_about_zero_property(dim, gamma, j):
    # bipartite star: flipping the center spin's sign maps H to -H
    w = eigh_symmetric(block_hamiltonian(CouplingParams(j, gamma), block_geometry(dim))).eigenvalues
    assert np.max(np.abs(w + w[::-1])) <= 1e-10 * max(1.0, np.max(np.abs(w)))
