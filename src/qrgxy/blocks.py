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
are plus and minus the singular values of (J/4) A, and 0. The global
spin flip commutes with H_B, and since the block has an odd number of
spins it changes the parity: on S = d it reverses the basis and takes the
even half onto the odd one. So the odd half's tables are the even half's
with rows and columns reversed, each S block's two halves have equal
levels, and the odd ground vector is the even one reversed.
collective_spin holds a and b of S = d, the Gram tables of A^T A for every
S = 1..d, the S = d restrictions of a corner's sx and (-i sy), and their
projections onto the doublet as quadratic forms on the even half, off
which the flow reads xi_x and xi_y. Where it builds them, it checks the
mirror symmetry and the parity of the corner tables bit for bit, once per
dimension, so that the solve need not check them per point. a and b are
read off the ladder coefficients 2 sqrt(k (2S + 1 - k)) of the spin-S
moves, and the corner tables are the spin-d operators placed on the two
center states; no Kronecker product and no 2^n basis is used for them.
Two tables are built apart, each only for the callers that need it: the
four X-state entries of the corner-pair state as quadratic forms on the
even half of S = d (pair_forms), read only where a concurrence is, and the
map from S = d back to the 2^n basis (embedding), for callers that ask for
full-basis vectors. No Hamiltonian matrix is built, not even a half.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Tuple

import numpy as np

from .errors import StructureError
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
    for the top eigenpair. A is bidiagonal: a and b hold entries only at
    (i, i) and (i + 1, i). Its Gram is a star: only the row and the column
    of one position, main, hold off-diagonal entries, and the diagonal
    entry at main, P0 + gamma^2 P2 there, is the largest at every
    |gamma| <= 1 and strictly at gamma = 0, so that its top eigenpair
    solves a secular equation in the other diagonal entries
    (rgflow._star_top). star indexes the entries that equation reads: the
    diagonal at main, then at the other positions k in order, then the
    main column at those k. S = 1..d-1 are needed for levels only, and
    their Grams are at most 2x2 (d <= 3): each is held as the mean m and
    half difference h of its diagonal and its off-diagonal r, linear in
    the Gram as the Gram is in P0, P1, P2, so that its eigenvalues are
    m +- hypot(h, r); the 1x1 Gram of S = 1 is padded with zeros.

    The global spin flip takes (c, k) to (1 - c, 2S - k), which reverses
    the S = d basis and takes each half onto the other, each of its two
    blocks of states reversed: the odd half's coupling and Gram tables are
    the even half's with rows and columns reversed, so the halves of each
    S have equal levels, and the odd ground vector of S = d is the even
    one reversed. The solve uses the even half only. With phi1 on the
    even half and phi2 its reversal, <phi1|sx|phi2>, <phi2|sx|phi1> and
    <phi1|(-i sy)|phi2> are quadratic forms on the 2d+1 even-half
    amplitudes of phi1 (xi), and so are the difference and the sum of the
    first and the last, one of which vanishes at gamma = 0;
    <phi1|sx|phi1> and <phi2|sx|phi2> vanish, since sx joins states of
    opposite parity only. _check_tables holds the tables to all of this.
    """

    coupling: np.ndarray  # (2, 2, d+1, d): a and b of the even and the odd half of S = d
    gram: np.ndarray      # (3, 2, d, d): P0, P1, P2 of the even and the odd half of S = d
    star: np.ndarray      # (2, 2d-1): row and column in the even half's Gram of D_m, of the other D_k and of their c_k
    lower: np.ndarray     # (3, 3, 2(d-1)): P0, P1, P2 of (m, h, r) of the halves of S = 1..d-1, both halves of S = 1 first
    half: np.ndarray      # (2, 2d+1): S = d positions of parity +1, -1, even k first
    corner: np.ndarray    # (2, 2(2d+1), 2(2d+1)): one corner's sx and (-i sy) restricted to S = d
    xi: np.ndarray        # (5, 2d+1, 2d+1): <phi1|sx|phi2>, <phi2|sx|phi1>, <phi1|(-i sy)|phi2>, xi[0] - xi[2], xi[0] + xi[2]


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
    return np.array([np.concatenate([p * k.size + k[::2], (1 - p) * k.size + k[1::2]]) for p in (0, 1)])


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
    of coupling tables a, b, each made exactly symmetric. Each column of a
    and of b holds one ladder coefficient, so each entry is one product of
    two of them: summed over the rows without BLAS, adding exact zeros."""
    # products[i, k] = table_i^T table_k, summed over the rows
    products = (coupling[:, None, ..., :, :, None] * coupling[None, ..., :, None, :]).sum(axis=-3)
    tables = np.array([products[0, 0], products[0, 1] + products[1, 0], products[1, 1]])
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


def _check_tables(spin: CollectiveSpin) -> None:
    """Refuse tables that break the symmetry the solve rests on, naming
    the table: the odd half of S = d must be the even half with rows and
    columns reversed, bit for bit, in coupling and gram; the two halves of
    each S < d must have equal levels, so equal m and r, and h equal up to
    its sign; and a corner's sx and (-i sy) must be exactly 0 within each
    half, with sx symmetric bit for bit. The even half of S = d must have
    the shapes rgflow._halves_ground reads it through: a and b bidiagonal,
    and a star Gram around main = star[0, 0], P0, P1, P2 exactly symmetric
    and finite, with P1's diagonal zero, P0's diagonal strictly largest at
    main and P0 + P2's no larger elsewhere than at main."""
    for name in ("coupling", "gram"):
        table = getattr(spin, name)
        if table[:, 1].tobytes() != table[:, 0, ::-1, ::-1].tobytes():
            raise StructureError(f"collective-spin table {name}: the odd half of S = d is not the even half reversed")
    m, h, r = spin.lower.transpose(1, 2, 0).tolist()  # [P0, P1, P2] of each half, both halves of S = 1 first
    for s in range(1, len(m) // 2 + 1):
        e, o = 2 * s - 2, 2 * s - 1
        if not (m[e] == m[o] and r[e] == r[o] and h[o] in (h[e], [-x for x in h[e]])):
            raise StructureError(f"collective-spin table lower: the halves of S = {s} do not have equal levels")
    tables = spin.coupling[:, 0].tolist()  # a and b of the even half
    if any(x for t in tables for i, row in enumerate(t) for j, x in enumerate(row) if i - j not in (0, 1)):
        raise StructureError("collective-spin table coupling: a or b of the even half of S = d is not bidiagonal")
    grams = spin.gram[:, 0]
    main, d = int(spin.star[0, 0]), grams.shape[-1]
    p0, p1, p2 = grams.tolist()
    others = [k for k in range(d) if k != main]
    if not (
        grams.tobytes() == grams.swapaxes(-1, -2).tobytes()
        and np.isfinite(grams).all()
        and not any(p[i][j] for p in (p0, p1, p2) for i in others for j in others if i != j)
        and not any(p1[k][k] for k in range(d))
        and all(p0[k][k] < p0[main][main] for k in others)
        and all(p0[k][k] + p2[k][k] <= p0[main][main] + p2[main][main] for k in others)
    ):
        raise StructureError(
            "collective-spin table gram: the Gram of the even half of S = d is not a symmetric star "
            "whose diagonal is largest at its main position"
        )
    sx, half = spin.corner[0], spin.half
    if np.any(spin.corner[:, half[:, :, None], half[:, None]]) or sx.tobytes() != sx.T.tobytes():
        raise StructureError(
            "collective-spin table corner: a corner's sx or (-i sy) joins states of one parity, or its sx is not symmetric"
        )


@functools.cache
def _collective_spin(dimension: int) -> CollectiveSpin:
    d = block_geometry(dimension).dimension
    # the tables of S = 1..d in one stack, each padded with exact zeros to
    # the (d+1) x d of S = d, so that one _gram call builds every Gram
    stack = np.zeros((2, d, 2, d + 1, d))
    for s in range(1, d + 1):
        stack[:, s - 1, :, : s + 1, :s] = _coupling(s)
    grams = _gram(stack)
    coupling, gram = np.ascontiguousarray(stack[:, -1]), np.ascontiguousarray(grams[:, -1])
    lower = np.zeros((3, 3, 0))
    if d > 1:  # the Grams of S = 1..d-1 are at most 2 x 2
        p, q, r = grams[:, :-1, :, 0, 0], grams[:, :-1, :, 1, 1], grams[:, :-1, :, 0, 1]
        lower = np.array([0.5 * (p + q), 0.5 * (p - q), r]).swapaxes(0, 1).reshape(3, 3, -1)
    width = 2 * d + 1
    corner = np.zeros((2, 2 * width, 2 * width))  # the same on either center state
    corner[:, :width, :width] = corner[:, width:, width:] = np.array(_spin_operators(d)) / (2 * d)
    half = _halves(d)
    # phi1 sits at half[0], and its spin flip phi2 at the mirror positions
    sx, ky = corner[:, half[0, :, None], 2 * width - 1 - half[0]]
    xi = np.array([sx, sx.T, ky, sx - ky, sx + ky])  # sx is symmetric: _check_tables
    main = int(np.argmax(np.diagonal(gram[0, 0])))
    positions = [main] + [k for k in range(d) if k != main]
    spin = CollectiveSpin(
        coupling=coupling,
        gram=gram,
        star=np.array([positions + positions[1:], positions + [main] * (d - 1)]),
        lower=lower,
        half=half,
        corner=corner,
        xi=xi,
    )
    _check_tables(spin)
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
