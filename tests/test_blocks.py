import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrgxy.blocks import (
    CouplingParams,
    block_geometry,
    collective_spin,
    coupling_arrays,
    embedding,
    interblock_bonds,
)
from qrgxy import blocks
from qrgxy.errors import StructureError
from qrgxy.pauli import Axis
from qrgxy.rgflow import ground_doublet

from oracles import (
    SX,
    SY,
    collective_spin_kron_tables,
    corner_pair_state,
    embed_complex,
    xy_hamiltonian_complex,
    xy_hamiltonian_per_bond,
)


def _complex_twin(params, geometry):
    """The same Hamiltonian built with textbook complex Paulis; every
    center-corner bond has unit weight."""
    bonds = [(center, corner, 1.0) for center, corner, _axis in geometry.intra_bonds]
    return xy_hamiltonian_complex(params.j, params.gamma, geometry.n_sites, bonds)


def _bonds(geometry):
    return [(center, corner) for center, corner, _axis in geometry.intra_bonds]


# oracle first: the doublet solved in S = d and embedded into the full basis
# is the ground eigenpair of the textbook complex block Hamiltonian
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0, 0.7, 1.0])
def test_block_hamiltonian_matches_complex_oracle(dim, gamma):
    params = CouplingParams(1.3, gamma)
    geometry = block_geometry(dim)
    twin = _complex_twin(params, geometry)
    doublet = ground_doublet(params, geometry)
    for phi in (doublet.phi1, doublet.phi2):
        assert np.max(np.abs(twin @ phi - doublet.energy * phi)) <= 1e-13
    assert abs(np.linalg.eigvalsh(twin)[0] - doublet.energy) <= 1e-12


# the real per-bond build, with sy sy = -(K K) for the real K = -i sy, is the
# complex textbook Hamiltonian bit for bit: every entry gets one bond's term
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0, 1e-7, 0.7, 1.0])
def test_block_hamiltonian_bit_identical_to_per_bond_build(dim, gamma):
    geometry = block_geometry(dim)
    for j in (0.1, 1.3, 10.0):
        twin = _complex_twin(CouplingParams(j, gamma), geometry)
        ref = xy_hamiltonian_per_bond(j, gamma, geometry.n_sites, _bonds(geometry))
        assert np.max(np.abs(twin.imag)) == 0.0
        assert np.array_equal(twin.real, ref)
        assert np.array_equal(np.signbit(twin.real), np.signbit(ref))


def _embedding(geometry):
    """The S = d embedding as a 2^n x 2(2d+1) matrix."""
    embed = embedding(geometry)
    e = np.zeros((2 ** geometry.n_sites, 2 * (2 * geometry.dimension + 1)))
    e[np.arange(len(embed.column)), embed.column] = embed.weight
    return e


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collective_spin_embedding_is_an_isometry(dim):
    e = _embedding(block_geometry(dim))
    assert np.max(np.abs(e.T @ e - np.eye(e.shape[1]))) <= 1e-14


def _coupling_blocks(spin, params):
    """(J/4)(a + gamma b): the coupling block of the even and of the odd
    half of S = d at one point, (2, d+1, d)."""
    return (params.j / 4.0) * (spin.coupling[0] + params.gamma * spin.coupling[1])


def _top_block(spin, params):
    """H_B on S = d, 2(2d+1) wide, assembled from the coupling blocks of
    its two halves: each half couples its even-k states, listed first in
    spin.half, only to its odd-k states."""
    top = np.zeros((2 * spin.half.shape[-1],) * 2)
    for a, half in zip(_coupling_blocks(spin, params), spin.half):
        rows, cols = half[: len(a)], half[len(a) :]
        top[np.ix_(rows, cols)] = a
        top[np.ix_(cols, rows)] = a.T
    return top


def _half_levels(squares, params):
    """The levels of a half whose coupling block, at J = 4, has the squared
    singular values `squares`: minus and plus (J/4) times each, and 0;
    rounding can leave a vanishing square just below 0."""
    sigma = (params.j / 4.0) * np.sqrt(np.clip(squares, 0.0, None))
    return np.concatenate([-sigma, [0.0], sigma])


def _levels_by_spin(spin, params):
    """The levels of each S block, S = 0..d, counted once: the zero S = 0
    block, the S = 1..d-1 blocks from their 2x2 Grams [[m + h, r],
    [r, m - h]] (S = 1 padded with zeros, so only its larger eigenvalue is
    its own) and S = d from its d x d Grams."""
    g, d = params.gamma, spin.gram.shape[-1]
    levels = [np.zeros(2)]
    m, h, r = spin.lower[0] + g * spin.lower[1] + g * g * spin.lower[2]
    for s in range(1, d):
        halves = []
        for k in (2 * s - 2, 2 * s - 1):  # its even and its odd half
            gram = [[m[k] + h[k], r[k]], [r[k], m[k] - h[k]]]
            halves.append(_half_levels(np.linalg.eigvalsh(gram)[2 - s :], params))
        levels.append(np.concatenate(halves))
    grams = spin.gram[0] + g * spin.gram[1] + g * g * spin.gram[2]
    levels.append(np.concatenate([_half_levels(np.linalg.eigvalsh(gram), params) for gram in grams]))
    return levels


def _block_levels(params, dim):
    """Every level of the block, each S block counted once, ascending."""
    return np.sort(np.concatenate(_levels_by_spin(collective_spin(block_geometry(dim)), params)))


# S = d is an invariant subspace of the per-bond build, the embedding carries
# its block onto it, and the parity halves are the popcount parity there
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collective_spin_top_block_is_the_restriction_of_the_block(dim):
    geometry = block_geometry(dim)
    n = geometry.n_sites
    spin = collective_spin(geometry)
    e = _embedding(geometry)
    popcount_parity = np.array([bin(i).count("1") % 2 for i in range(2 ** n)])
    for parity, half in enumerate(spin.half):
        assert set(embedding(geometry).column[popcount_parity == parity]) == set(half)
    bonds = _bonds(geometry)
    for gamma in (-1.0, -0.3, 0.0, 1e-7, 0.7, 1.0):
        params = CouplingParams(1.3, gamma)
        ref = xy_hamiltonian_per_bond(params.j, gamma, n, bonds)
        assert np.max(np.abs(ref @ e - e @ _top_block(spin, params))) <= 1e-14
        assert np.max(np.abs((e.T @ ref @ e)[np.ix_(*spin.half)])) <= 1e-14  # the halves never mix


# each S block counted once, the merged levels hold the full block's lowest
# three and its top level; counted with the multiplicity of spin S among 2d
# spins-1/2, they are the full spectrum
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_merged_collective_spin_levels_match_the_full_block(dim):
    geometry = block_geometry(dim)
    spin = collective_spin(geometry)
    assert spin.coupling.shape == (2, 2, dim + 1, dim)
    assert spin.gram.shape == (3, 2, dim, dim)
    assert spin.lower.shape == (3, 3, 2 * (dim - 1))
    multiplicity = [math.comb(2 * dim, dim - s) - math.comb(2 * dim, dim - s - 1) for s in range(dim)]
    bonds = _bonds(geometry)
    for gamma in (-1.0, -1 + 1e-7, -0.6, -1e-7, 0.0, 1e-7, 0.45, 1 - 1e-7, 1.0):
        params = CouplingParams(0.8, gamma)
        levels = _levels_by_spin(spin, params)
        full = np.linalg.eigvalsh(xy_hamiltonian_per_bond(params.j, gamma, geometry.n_sites, bonds))
        merged = np.sort(np.concatenate(levels))
        picks = [0, 1, 2, -1]
        assert np.max(np.abs(merged[picks] - full[picks])) <= 1e-12
        counted = np.sort(np.concatenate([np.repeat(w, m) for w, m in zip(levels, multiplicity + [1])]))
        assert np.max(np.abs(counted - full)) <= 1e-12


# a corner's sx and (-i sy), restricted to S = d, and the X-state entries
# rho00, rho11, rho33, rho03 of two corners of an even S = d vector as
# quadratic forms on its even half, against the full basis
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collective_spin_corner_tables_are_restrictions(dim):
    geometry = block_geometry(dim)
    n = geometry.n_sites
    spin = collective_spin(geometry)
    e = _embedding(geometry)
    rng = np.random.default_rng(dim)
    for corner in geometry.corners:
        sx = embed_complex(SX, corner.site, n).real
        ky = (-1j * embed_complex(SY, corner.site, n)).real
        assert np.max(np.abs(e.T @ sx @ e - spin.corner[0])) <= 1e-15
        assert np.max(np.abs(e.T @ ky @ e - spin.corner[1])) <= 1e-15
    assert blocks.pair_forms(geometry).shape == (4, 2 * dim + 1, 2 * dim + 1)
    even = spin.half[0]
    for _ in range(5):
        v = np.zeros(e.shape[1])
        v[even] = rng.standard_normal(even.size)
        v /= np.linalg.norm(v)
        rho = corner_pair_state(e @ v, geometry)
        forms = [v[even] @ form @ v[even] for form in blocks.pair_forms(geometry)]
        assert np.max(np.abs(forms - rho[[0, 1, 3, 0], [0, 1, 3, 3]])) <= 1e-15
        # the entries the forms leave out: rho22 and rho12 are rho11, and
        # the q = 1 entries, which join the two halves, vanish
        assert rho[1, 1] == rho[2, 2] == rho[1, 2] == rho[2, 1]
        q1 = [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert all(rho[a, b] == rho[b, a] == 0.0 for a, b in q1)


# the tables read off the ladder coefficients are the Kronecker builds bit
# for bit, but for the sign of some corner zeros: np.kron wrote those off
# the two center blocks as 0 * (-x) = -0.0, and no zero is -0.0 now
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collective_spin_tables_are_the_kronecker_builds(dim):
    spin = collective_spin(block_geometry(dim))
    for s in range(1, dim + 1):  # S < d gives the Gram tables of spin.lower
        coupling, corner = collective_spin_kron_tables(s)
        assert np.array_equal(blocks._coupling(s), coupling)
        assert np.array_equal(np.signbit(blocks._coupling(s)), np.signbit(coupling))
    assert np.array_equal(spin.coupling, coupling)
    assert np.array_equal(spin.corner, corner)
    assert np.array_equal(np.signbit(spin.corner), corner < 0)
    assert np.count_nonzero(np.signbit(corner) & (corner == 0))


# the Grams of S = 1..d are built in one stack, each S padded with exact
# zeros to the (d+1) x d of S = d: they are the per-S builds bit for bit
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collective_spin_stacked_tables_are_the_per_spin_builds(dim):
    spin = collective_spin(block_geometry(dim))
    lower = np.zeros((3, 3, dim - 1, 2))
    for s in range(1, dim):
        gram = np.zeros((3, 2, 2, 2))
        gram[..., :s, :s] = blocks._gram(blocks._coupling(s))
        p, q, r = gram[..., 0, 0], gram[..., 1, 1], gram[..., 0, 1]
        lower[:, :, s - 1] = np.array([0.5 * (p + q), 0.5 * (p - q), r]).swapaxes(0, 1)
    coupling = blocks._coupling(dim)
    for table, want in ((spin.coupling, coupling), (spin.gram, blocks._gram(coupling)),
                        (spin.lower, lower.reshape(3, 3, -1))):
        assert table.shape == want.shape and table.tobytes() == want.tobytes()


def _moved(table, index):
    """A copy of `table` with the entry at `index` moved by 1 ulp."""
    moved = table.copy()
    moved[index] = np.nextafter(moved[index], np.inf)
    return moved


# the spin flip reverses S = d and takes each half onto the other: the
# tables are held to it once, where they are built, and a copy with one
# entry off by an ulp is refused, naming its table
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collective_spin_tables_pass_the_mirror_check(dim):
    spin = collective_spin(block_geometry(dim))
    blocks._check_tables(spin)
    # odd-half entries of coupling and gram, and an sx entry within a half
    moves = [("coupling", (0, 1, 0, 0)), ("gram", (0, 1, 0, 0)), ("corner", (0, 0, 0))]
    if dim > 1:
        moves.append(("lower", (0, 0, 1)))  # m of the odd half of S = 1
    for name, index in moves:
        fake = spin._replace(**{name: _moved(getattr(spin, name), index)})
        with pytest.raises(StructureError, match=f"collective-spin table {name}:"):
            blocks._check_tables(fake)
    if dim > 2:
        # h of the odd half of S = 2 is the even one's negated: negating one
        # of its coefficients alone changes the levels
        lower = spin.lower.copy()
        lower[2, 1, 3] *= -1.0
        with pytest.raises(StructureError, match="collective-spin table lower: the halves of S = 2"):
            blocks._check_tables(spin._replace(lower=lower))
    # sx must be symmetric: an entry of its cross-half block moved alone
    even, odd = spin.half
    fake = spin._replace(corner=_moved(spin.corner, (0, even[0], odd[0])))
    with pytest.raises(StructureError, match="collective-spin table corner:"):
        blocks._check_tables(fake)


def _mirrored(table, index, value):
    """A copy of a coupling or Gram table with the entry (i, j) of its
    table k of the even half, index = (k, i, j), set to `value` and the odd
    half made its reversal again, so that the mirror check passes."""
    moved = table.copy()
    k, i, j = index
    moved[k, 0, i, j] = value
    moved[:, 1] = moved[:, 0, ::-1, ::-1]
    return moved


# the secular solve reads the even Gram as a star around its main
# position, whose diagonal is largest there, and A v as bidiagonal sums:
# tables off those shapes, with the mirror kept, are refused
def test_collective_spin_tables_off_the_star_shape_are_refused():
    spin = collective_spin(block_geometry(3))
    assert spin.star.tolist() == [[1, 0, 2, 0, 2], [1, 0, 2, 1, 1]]
    blocks._check_tables(spin)
    gram = spin.gram
    off_star = _mirrored(gram, (1, 0, 2), 1.0)  # P1 joins the two other positions
    off_star = _mirrored(off_star, (1, 2, 0), 1.0)
    tie = _mirrored(gram, (0, 0, 0), gram[0, 0, 1, 1])  # P0 ties the main diagonal entry
    diagonal_p1 = _mirrored(gram, (1, 1, 1), 1.0)
    for fake in (off_star, tie, diagonal_p1, _mirrored(gram, (1, 0, 2), 1.0)):
        with pytest.raises(StructureError, match="collective-spin table gram: the Gram of the even half"):
            blocks._check_tables(spin._replace(gram=fake))
    with pytest.raises(StructureError, match="collective-spin table coupling: a or b of the even half"):
        blocks._check_tables(spin._replace(coupling=_mirrored(spin.coupling, (0, 3, 0), 1.0)))


def test_collective_spin_is_read_only():
    geometry = block_geometry(2)
    for arr in (*collective_spin(geometry), *embedding(geometry), blocks.pair_forms(geometry)):
        with pytest.raises(ValueError):
            arr.flat[0] = 0


def test_collective_spin_is_keyed_on_the_dimension():
    # a geometry that cannot be hashed still finds the tables of its dimension
    geometry = block_geometry(2)
    unhashable = geometry._replace(intra_bonds=list(geometry.intra_bonds))
    assert collective_spin(unhashable) is collective_spin(geometry)


def test_coupling_params_validation():
    CouplingParams(1e-6, 1.0)
    CouplingParams(10.0, -1.0)
    valid = CouplingParams(1.0, 0.5)
    for j, gamma in [(0.0, 0.0), (-1.0, 0.0), (float("nan"), 0.0), (float("inf"), 0.1),
                     (1.0, 1.0001), (1.0, -2.0), (1.0, float("nan"))]:
        with pytest.raises(ValueError) as want:
            CouplingParams(j, gamma)
        # every way of making one is checked, with the same error
        for make in (lambda: CouplingParams(gamma=gamma, j=j),
                     lambda: CouplingParams._make([j, gamma]),
                     lambda: valid._replace(j=j, gamma=gamma)):
            with pytest.raises(ValueError) as got:
                make()
            assert str(got.value) == str(want.value)


def test_coupling_arrays_raise_the_error_of_the_first_bad_point():
    good = coupling_arrays(2.0, [0.0, -1.0, 1.0])
    assert good.j.tolist() == [2.0, 2.0, 2.0] and good.gamma.tolist() == [0.0, -1.0, 1.0]
    nan, inf = float("nan"), float("inf")
    for j, gamma in [(0.0, 0.0), (-1.0, 0.0), (nan, 0.0), (inf, 0.1), (1.0, 1.0001), (1.0, nan)]:
        with pytest.raises(ValueError) as want:
            CouplingParams(j, gamma)
        with pytest.raises(ValueError) as got:
            coupling_arrays([1.0, j, 0.5], [0.2, gamma, 7.0])
        assert str(got.value) == str(want.value)


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


def test_geometry_cache_entry_holds_integers():
    # 1.0 and np.int64(1) share one cache entry, so the float key asked
    # first must not leave float site counts for the integer one
    block_geometry.cache_clear()
    assert block_geometry(1.0).n_sites == 3
    assert type(block_geometry(np.int64(1)).n_sites) is int


# S = d assembled from its coupling blocks is symmetric with a zero
# diagonal, so it is traceless, and its Gram tables are exactly symmetric,
# as the eigensolver's contract asks of every Gram it is given
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hamiltonian_symmetric_traceless(dim):
    spin = collective_spin(block_geometry(dim))
    h = _top_block(spin, CouplingParams(2.0, 0.4))
    assert np.array_equal(h, h.T)
    assert not np.any(np.diagonal(h))
    assert np.array_equal(spin.gram, spin.gram.swapaxes(-1, -2))


def test_hamiltonian_linear_in_j():
    spin = collective_spin(block_geometry(2))
    one, two = (_top_block(spin, CouplingParams(j, 0.3)) for j in (1.0, 2.0))
    assert np.array_equal(two, 2.0 * one)
    assert np.array_equal(np.concatenate(_levels_by_spin(spin, CouplingParams(2.0, 0.3))),
                          2.0 * np.concatenate(_levels_by_spin(spin, CouplingParams(1.0, 0.3))))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gamma_sign_flip_is_isospectral(dim):
    wp = _block_levels(CouplingParams(1.0, 0.6), dim)
    wm = _block_levels(CouplingParams(1.0, -0.6), dim)
    assert np.max(np.abs(wp - wm)) <= 1e-10


# the parity halves rest on this: H_B never mixes states of opposite parity
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_parity_commutes(dim):
    geometry = block_geometry(dim)
    h = xy_hamiltonian_per_bond(1.0, 0.37, geometry.n_sites, _bonds(geometry))
    p = np.diag([(-1.0) ** bin(i).count("1") for i in range(2 ** geometry.n_sites)])
    assert np.max(np.abs(h @ p - p @ h)) <= 1e-12


def test_line_ground_energy_closed_form():
    # at gamma = 0 the 3-site chain is a free hopping problem with
    # single-magnon energies (j/2) * {-sqrt(2), 0, +sqrt(2)}
    w = _block_levels(CouplingParams(1.0, 0.0), 1)
    assert abs(w[0] - (-1.0 / math.sqrt(2.0))) <= 1e-12
    assert abs(w[0] - w[1]) <= 1e-12  # the doublet


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ground_space_is_a_doublet_across_gamma(dim):
    for gamma in np.linspace(-1.0, 1.0, 21):
        w = _block_levels(CouplingParams(1.0, float(gamma)), dim)
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
    # bipartite star: flipping the center spin's sign maps each S block to
    # minus itself
    w = _block_levels(CouplingParams(j, gamma), dim)
    assert np.max(np.abs(w + w[::-1])) <= 1e-10 * max(1.0, np.max(np.abs(w)))
