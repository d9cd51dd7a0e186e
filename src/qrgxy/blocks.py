"""Kadanoff block geometry and the XY block Hamiltonian in d = 1, 2, 3,
held in the collective corner spin.

A block is a star of 2d+1 spins: one center coupled to 2d corners, one corner
on each side of each lattice axis. Blocks tile the lattice and adjacent
blocks touch through corner spins only, so the corners are the spins that
mediate interblock bonds.

Site numbering is frozen once here: d=1 uses line order (0, 1, 2) with the
center in the middle; d=2 and d=3 put the center first, then the corner pairs
in axis order (x-, x+, y-, y+, z-, z+). Ground-state amplitude dumps and the
reference-state comparisons in the tests depend on this ordering bit for bit.

The block Hamiltonian is

    H_B = (J/4) sum over center-corner bonds [(1+gamma) sx sx + (1-gamma) sy sy],

the anisotropy entering with opposite signs on the x and y pair terms. The
center couples to the corners only through their total spin S, so H_B is
the direct sum of center (x) spin-S blocks, S = 0..d, each 2(2S+1) wide and
split in two halves by parity; the S = 0 block is the zero 2x2 matrix, and
the ground doublet lies in S = d (6 / 10 / 14 wide). Each half is
bipartite: it couples its S+1 states of even k only to its S states of odd
k, through the (S+1) x S block (J/4) A with A = a + gamma b, so its levels
are plus and minus the singular values of (J/4) A, and 0. collective_spin
holds a and b of S = d, the Gram tables of A^T A for every S = 1..d and the
S = d restrictions of a corner's sx and (-i sy). a and b are read off the
ladder coefficients 2 sqrt(k (2S + 1 - k)) of the spin-S moves, and the
corner tables are the spin-d operators placed on the two center states; no
Kronecker product and no 2^n basis is used for them. Two tables are built
apart, each only for the callers that need it: the four X-state entries of
the corner-pair state as quadratic forms on the even half of S = d
(pair_forms), read only where a concurrence is, and the map from S = d
back to the 2^n basis (embedding), for callers that ask for full-basis
vectors. No Hamiltonian matrix is built, not even a half.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Tuple

import numpy as np

from .pauli import Axis, spin_flip


class _Couplings(NamedTuple):
    j: float
    gamma: float


class CouplingParams(_Couplings):
    """Couplings at one RG step: finite exchange strength j > 0
    (antiferromagnetic), anisotropy gamma in [-1, 1]."""

    __slots__ = ()

    def __new__(cls, j, gamma):
        if not 0 < j < math.inf:
            raise ValueError(f"coupling j must be finite and > 0, got {j}")
        if not abs(gamma) <= 1:
            raise ValueError(f"anisotropy gamma must lie in [-1, 1], got {gamma}")
        return super().__new__(cls, j, gamma)

    @classmethod
    def _make(cls, iterable):
        # so that _replace, which goes through _make, is checked too
        return cls(*iterable)


class CouplingArrays(NamedTuple):
    """The couplings of a batch of points: one j and one gamma per point,
    made by coupling_arrays, which checks them as CouplingParams does."""

    j: np.ndarray      # (G,)
    gamma: np.ndarray  # (G,)


def coupling_arrays(j, gamma) -> CouplingArrays:
    """gamma as a 1-D array and j broadcast to its shape; the first point
    that CouplingParams would refuse raises CouplingParams' own error."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    j = np.full_like(gamma, j)
    ok = (0 < j) & (j < math.inf) & (abs(gamma) <= 1)
    if np.count_nonzero(ok) < ok.size:
        k = int(np.argmin(ok))
        CouplingParams(float(j[k]), float(gamma[k]))  # raises
    return CouplingArrays(j, gamma)


class Corner(NamedTuple):
    site: int
    axis: Axis
    sign: int  # -1 or +1 side of the axis


class BlockGeometry(NamedTuple):
    dimension: int
    n_sites: int
    center: int
    corners: Tuple[Corner, ...]
    intra_bonds: Tuple[Tuple[int, int, Axis], ...]  # (center, corner, axis)


_AXES = (Axis.X, Axis.Y, Axis.Z)


@functools.cache
def block_geometry(dimension: int) -> BlockGeometry:
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    # equal keys such as 1.0 and np.int64(1) share one cache entry: keep ints
    dimension = int(dimension)
    if dimension == 1:
        center = 1
        corners = (Corner(0, Axis.X, -1), Corner(2, Axis.X, +1))
    else:
        center = 0
        corners = tuple(
            Corner(1 + 2 * k + (1 if sign > 0 else 0), _AXES[k], sign)
            for k in range(dimension)
            for sign in (-1, +1)
        )
    bonds = tuple((center, c.site, c.axis) for c in corners)
    return BlockGeometry(
        dimension=dimension,
        n_sites=2 * dimension + 1,
        center=center,
        corners=corners,
        intra_bonds=bonds,
    )


class CollectiveSpin(NamedTuple):
    """The block in its collective corner spin S = 0..d, read-only.

    The corners enter H_B only through their total spin S, as
    XX = sx_c (2 Sx) and YY = sy_c (2 Sy), so the block is the direct sum of
    center (x) spin-S blocks. Each block has the basis (c, k): c the center
    (0 up), k = S - M the number of lowering steps from M = S, at position
    c (2S + 1) + k, and splits into two halves of parity (-1)^(c + k). The
    S = 0 block is the zero 2x2 matrix (Sx = Sy = 0) and is not stored. The
    ground doublet lies in S = d, whose basis state (c, k) is the center
    state times the Dicke state of k down corners.

    Both bonds flip the center and move k by one, so a half couples its
    S + 1 states of even k only to its S states of odd k: in that order it
    is (J/4) [[0, A], [A^T, 0]] with the (S+1) x S coupling block
    A = a + gamma b, and its levels are the singular values of (J/4) A
    with both signs, plus one exact 0. They are the square roots of the
    eigenvalues of the S x S Gram matrix A^T A = P0 + gamma P1 + gamma^2 P2,
    held here at J = 4. S = d keeps A for the ground vectors and its Gram
    for one stacked eigensolve. S = 1..d-1 are needed for levels only, and
    their Grams are at most 2x2 (d <= 3): each is held as the mean m and
    half difference h of its diagonal and its off-diagonal r, linear in
    the Gram as the Gram is in P0, P1, P2, so that its eigenvalues are
    m +- hypot(h, r); the 1x1 Gram of S = 1 is padded with zeros.
    """

    coupling: np.ndarray  # (2, 2, d+1, d): a and b of the even and the odd half of S = d
    gram: np.ndarray      # (3, 2, d, d): P0, P1, P2 of the even and the odd half of S = d
    lower: np.ndarray     # (3, 3, 2(d-1)): P0, P1, P2 of (m, h, r) of the halves of S = 1..d-1, both halves of S = 1 first
    half: np.ndarray      # (2, 2d+1): S = d positions of parity +1, -1, even k first
    corner: np.ndarray    # (2, 2(2d+1), 2(2d+1)): one corner's sx and (-i sy) restricted to S = d


class Embedding(NamedTuple):
    """The S = d block in the full 2^n basis, read-only: full-basis state
    i has the amplitude weight[i] in the S = d basis state column[i]."""

    column: np.ndarray  # (2^n,): S = d position of each full-basis state
    weight: np.ndarray  # (2^n,): its amplitude 1/sqrt(C(2d, k)) in that Dicke state


def _ladder(s: int) -> np.ndarray:
    """sqrt(k (2s + 1 - k)) for k = 1..2s: the standard positive
    coefficient sqrt(S(S+1) - M(M+1)) with which S+ takes k to k - 1 in the
    spin-s basis k = s - M."""
    k = np.arange(1, 2 * s + 1)
    return np.sqrt(k * (2 * s + 1 - k))


def _spin_operators(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """(2 Sx, -i 2 Sy) for spin s in the basis k = s - M, both real."""
    raise_ = np.diag(_ladder(s), 1)
    return raise_ + raise_.T, raise_.T - raise_


def _halves(s: int) -> np.ndarray:
    """(2, 2s+1): the positions of parity (-1)^(c+k) = +1 and -1 in the
    spin-s block, each half's s+1 states of even k first, then its s
    states of odd k."""
    k = np.arange(2 * s + 1)
    return np.stack([np.concatenate([p * k.size + k[::2], (1 - p) * k.size + k[1::2]]) for p in (0, 1)])


def _coupling(s: int) -> np.ndarray:
    """(2, 2, s+1, s): a and b of the even and the odd half of the spin-s
    block, whose coupling block is a + gamma b at J = 4. H_B / (J/4) is
    (1 + gamma) XX + (1 - gamma) YY, so a = XX + YY and b = XX - YY.

    XX + YY keeps the total Sz: it takes the center up together with k one
    up (one corner down), or both down; XX - YY takes them opposite ways.
    Each move of k between k - 1 and k has the weight 2 sqrt(k (2s + 1 - k)),
    twice the ladder coefficient. Row i of a half is its state of k = 2i
    and column j its state of k = 2j + 1, with the center up in the rows of
    the even half and down in those of the odd one; so a joins k = 2i to
    2i - 1 in the even half and to 2i + 1 in the odd one, and b the other
    way round."""
    ladder = 2.0 * _ladder(s)
    i = np.arange(s)
    up = np.zeros((s + 1, s))    # k = 2i to 2i + 1
    down = np.zeros((s + 1, s))  # k = 2i to 2i - 1
    up[i, i] = ladder[::2]
    down[i + 1, i] = ladder[1::2]
    return np.array([[down, up], [up, down]])


def _gram(coupling: np.ndarray) -> np.ndarray:
    """(3, ...): P0, P1, P2 of the Gram matrix (a + gamma b)^T (a + gamma b)
    of coupling tables a, b, each made exactly symmetric."""
    a, b = coupling
    at, bt = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
    tables = np.stack([at @ a, at @ b + bt @ a, bt @ b])
    return 0.5 * (tables + tables.swapaxes(-1, -2))


@functools.cache
def _pair_forms(dimension: int) -> np.ndarray:
    """The reduced state of two of the N = 2d corners as quadratic forms in
    the 2d+1 amplitudes of an even S = d vector on its half, from the Dicke
    coefficients (Wang and Molmer, Eur. Phys. J. D 18, 385 (2002)). A pair
    leg state meets the rest of D_k with amplitude 1/sqrt(C(N, k)) on each
    of C(N-2, k - #down legs) rest states, so pair entry (a, b) joins D_k to
    D_(k+q), q = #down(b) - #down(a), with weight C(N-2, k - #down(a)) /
    sqrt(C(N, k) C(N, k+q)). The center is traced out, so only equal center
    states meet. The q = 1 entries join the two halves and vanish; rho22
    and rho12 have the weights of rho11. Four forms are left: rho00, rho11,
    rho33 and rho03. On the even half the parity of k fixes the center
    state, so k and k + 2 always share it."""
    d = block_geometry(dimension).dimension
    n = 2 * d
    k = _halves(d)[0] % (n + 1)  # the down corners of each position of the half
    rise = np.sqrt((n - k) * (n - k - 1) * (k + 1.0) * (k + 2.0))
    forms = [np.diag(w) for w in ((n - k) * (n - k - 1), k * (n - k), k * (k - 1))]
    forms.append(np.where(k[:, None] + 2 == k, rise[:, None], 0.0))
    forms = np.stack(forms) / (n * (n - 1))
    forms.flags.writeable = False
    return forms


def pair_forms(geometry: BlockGeometry) -> np.ndarray:
    """(4, 2d+1, 2d+1): rho00, rho11, rho33 and rho03 of two corners as
    quadratic forms on the even half of S = d, read-only; built once per
    dimension and only where a concurrence is read
    (concurrence._pair_concurrence)."""
    return _pair_forms(geometry.dimension)


@functools.cache
def _collective_spin(dimension: int) -> CollectiveSpin:
    d = block_geometry(dimension).dimension
    lower = np.zeros((3, 3, d - 1, 2))
    for s in range(1, d):
        gram = np.zeros((3, 2, 2, 2))
        gram[..., :s, :s] = _gram(_coupling(s))
        p, q, r = gram[..., 0, 0], gram[..., 1, 1], gram[..., 0, 1]
        lower[:, :, s - 1] = np.stack([0.5 * (p + q), 0.5 * (p - q), r], axis=1)
    coupling = _coupling(d)
    width = 2 * d + 1
    corner = np.zeros((2, 2 * width, 2 * width))  # the same on either center state
    corner[:, :width, :width] = corner[:, width:, width:] = np.stack(_spin_operators(d)) / (2 * d)
    spin = CollectiveSpin(
        coupling=coupling,
        gram=_gram(coupling),
        lower=lower.reshape(3, 3, -1),
        half=_halves(d),
        corner=corner,
    )
    for arr in spin:
        arr.flags.writeable = False
    return spin


def collective_spin(geometry: BlockGeometry) -> CollectiveSpin:
    """The coupling and Gram tables of the S blocks and the S = d corner
    tables of the geometry's dimension, built once per dimension.

    sy_c sy_k = -(K_c K_k) with the real K = -i sy, so YY_S is the real
    -(K (x) (-i 2 Sy)). A corner's sx restricted to S = d is 2 Sx / (2d), and
    likewise (-i sy), since every S = d state is symmetric in the corners.
    """
    return _collective_spin(geometry.dimension)


@functools.cache
def _embedding(dimension: int) -> Embedding:
    geometry = block_geometry(dimension)
    d, n = geometry.dimension, geometry.n_sites
    down = {site: spin_flip(site, n)[1] < 0 for site in range(n)}
    k_down = sum(down[c.site] for c in geometry.corners)
    column = down[geometry.center] * (2 * d + 1) + k_down
    weight = 1.0 / np.sqrt(np.bincount(column)[column])  # C(2d, k) states share (c, k)
    column.flags.writeable = False
    weight.flags.writeable = False
    return Embedding(column, weight)


def embedding(geometry: BlockGeometry) -> Embedding:
    """The map from S = d to the full 2^n basis of the geometry's
    dimension, built once per dimension and only for callers that ask for
    full-basis vectors (rgflow.ground_doublet). Whether a site of a
    full-basis state is down is read off the signs of pauli.spin_flip."""
    return _embedding(geometry.dimension)


def interblock_bonds(geometry: BlockGeometry):
    """One representative corner-corner bond per lattice axis: the (axis, +)
    corner of a block meets the (axis, -) corner of the next block along that
    axis. Returned as (site_plus, site_minus, axis) with sites indexed within
    each block."""
    plus = {c.axis: c.site for c in geometry.corners if c.sign > 0}
    minus = {c.axis: c.site for c in geometry.corners if c.sign < 0}
    return [(plus[ax], minus[ax], ax) for ax in _AXES[: geometry.dimension]]
