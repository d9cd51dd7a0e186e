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
which the flow reads xi_x and xi_y. It is the one owner of these tables:
each is a closed form in the ladder coefficients 2 sqrt(k (2S + 1 - k))
of the spin-S moves (a and b are bidiagonal, so each Gram table is a
diagonal of squared coefficients or an off-diagonal of their products),
and the corner tables are the spin-d operators over 2d placed on the two
center states; no Kronecker product, no matrix product and no 2^n basis
is used for them. Every entry is computed as a Python float or int, with
the IEEE operations of a whole-array numpy build of the same closed forms
in their order, and only the nonzero entries are written, into zeroed
arrays, so that the tables are that build's bit for bit (none of its
zeros is -0.0): the tables are at most 14 wide and are built in every
process that solves a block, where the first call of each numpy function
such a build uses, or numpy's reading of nested lists, costs more than
the arithmetic. Where it builds them, it checks the mirror symmetry and
the parity of the corner tables bit for bit, once per dimension, so that
the solve need not check them per point, and cuts out of them, once, the
entries the solve reads (_solve_entries). Two tables are built apart,
each only for the callers that need it: the four X-state entries of the
corner-pair state as quadratic forms on the even half of S = d
(pair_forms), read only where a concurrence is, and the map from S = d
back to the 2^n basis (embedding), for callers that ask for full-basis
vectors. No Hamiltonian matrix is built, not even a half.
"""

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
    """gamma, one number or a 1-D batch, as a 1-D array and j broadcast to
    its shape; any other shape is refused, and the first point that
    CouplingParams would refuse raises CouplingParams' own error."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if gamma.ndim != 1:
        raise ValueError(f"gamma must be one number or a 1-D batch, got an array of shape {gamma.shape}")
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

    The last three fields are the entries of these tables that
    rgflow._halves_ground reads, each bit for bit, laid out for its
    arithmetic and cut once by _solve_entries.
    """

    coupling: np.ndarray  # (2, 2, d+1, d): a and b of the even and the odd half of S = d
    gram: np.ndarray      # (3, 2, d, d): P0, P1, P2 of the even and the odd half of S = d
    star: np.ndarray      # (2, 2d-1): row and column in the even half's Gram of D_m, of the other D_k and of their c_k
    lower: np.ndarray     # (3, 3, 2(d-1)): P0, P1, P2 of (m, h, r) of the halves of S = 1..d-1, both halves of S = 1 first
    half: np.ndarray      # (2, 2d+1): S = d positions of parity +1, -1, even k first
    corner: np.ndarray    # (2, 2(2d+1), 2(2d+1)): one corner's sx and (-i sy) restricted to S = d
    xi: np.ndarray        # (5, 2d+1, 2d+1): <phi1|sx|phi2>, <phi2|sx|phi1>, <phi1|(-i sy)|phi2>, xi[0] - xi[2], xi[0] + xi[2]
    poly: np.ndarray      # (3, 2d-1 + 3(d-1), 1): P0, P1, P2 of the star entries of the even Gram, then of lower's even halves
    place: np.ndarray     # (d,): the entry of the star vector, main first, that lands at each position
    ladder: np.ndarray    # (2, 2d, 1): a and b of the even half of S = d at (i, i), then at (i + 1, i)


class Embedding(NamedTuple):
    """The S = d block in the full 2^n basis, read-only: full-basis state
    i has the amplitude weight[i] in the S = d basis state column[i]."""

    column: np.ndarray  # (2^n,): S = d position of each full-basis state
    weight: np.ndarray  # (2^n,): its amplitude 1/sqrt(C(2d, k)) in that Dicke state


def _ladder(s: int) -> list:
    """sqrt(k (2s + 1 - k)) for k = 1..2s: the standard positive
    coefficient sqrt(S(S+1) - M(M+1)) with which S+ takes k to k - 1 in the
    spin-s basis k = s - M."""
    return [math.sqrt(k * (2 * s + 1 - k)) for k in range(1, 2 * s + 1)]


def _halves(s: int) -> list:
    """(2, 2s+1): the positions of parity (-1)^(c+k) = +1 and -1 in the
    spin-s block, each half's s+1 states of even k first, then its s
    states of odd k."""
    width = 2 * s + 1
    return [[p * width + k for k in range(0, width, 2)] + [(1 - p) * width + k for k in range(1, width, 2)]
            for p in (0, 1)]


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
    pairs = n * (n - 1)
    ks = [p % (n + 1) for p in _halves(d)[0]]  # the down corners of each position of the half
    forms = np.zeros((4, n + 1, n + 1))
    for i, k in enumerate(ks):
        forms[0, i, i] = (n - k) * (n - k - 1) / pairs
        forms[1, i, i] = k * (n - k) / pairs
        forms[2, i, i] = k * (k - 1) / pairs
        if k + 2 in ks:
            forms[3, i, ks.index(k + 2)] = math.sqrt((n - k) * (n - k - 1) * (k + 1.0) * (k + 2.0)) / pairs
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
        and all(math.isfinite(x) for p in (p0, p1, p2) for row in p for x in row)
        and not any(p[i][j] for p in (p0, p1, p2) for i in others for j in others if i != j)
        and not any(p1[k][k] for k in range(d))
        and all(p0[k][k] < p0[main][main] for k in others)
        and all(p0[k][k] + p2[k][k] <= p0[main][main] + p2[main][main] for k in others)
    ):
        raise StructureError(
            "collective-spin table gram: the Gram of the even half of S = d is not a symmetric star "
            "whose diagonal is largest at its main position"
        )
    sx, corner = spin.corner[0], spin.corner.tolist()
    within = (t[i][j] for t in corner for half in spin.half.tolist() for i in half for j in half)
    if any(within) or sx.tobytes() != sx.T.tobytes():
        raise StructureError(
            "collective-spin table corner: a corner's sx or (-i sy) joins states of one parity, or its sx is not symmetric"
        )


def _solve_entries(spin: CollectiveSpin) -> CollectiveSpin:
    """spin with poly, place and ladder cut out of its other tables,
    read-only: the star entries of the even Gram of S = d
    (gram[:, 0] at star) and the even halves of lower, as polynomials in
    gamma; the position of each entry of the star vector; and the two
    diagonals of a and b of the even half of S = d. The tables are built
    with them, and a test that hands the solve other tables cuts them
    here too."""
    rows, columns = spin.star.tolist()
    n, d = len(rows), spin.gram.shape[-1]
    poly = np.zeros((3, n + 3 * (d - 1), 1))
    poly[:, :n, 0] = [[p[i][j] for i, j in zip(rows, columns)] for p in spin.gram[:, 0].tolist()]
    poly[:, n:, 0] = spin.lower[..., ::2].reshape(3, -1)  # the even halves
    bands = spin.coupling[:, 0].tolist()
    ladder = np.zeros((2, 2 * d, 1))
    ladder[:, :d, 0] = [[t[i][i] for i in range(d)] for t in bands]
    ladder[:, d:, 0] = [[t[i + 1][i] for i in range(d)] for t in bands]
    place = np.array(sorted(range(d), key=rows.__getitem__), dtype=np.intp)
    for table in (poly, place, ladder):
        table.flags.writeable = False
    return spin._replace(poly=poly, place=place, ladder=ladder)


@functools.cache
def _collective_spin(dimension: int) -> CollectiveSpin:
    d = block_geometry(dimension).dimension
    # Row i of a half is its state of k = 2i and column i its state of
    # k = 2i + 1. a = XX + YY keeps the total Sz and b = XX - YY does not, so
    # a joins row i to column i - 1 and b to column i in the even half, whose
    # rows have the center up, and the other way round in the odd one. up
    # and down are twice the ladder coefficients of the moves from row i to
    # column i and from row i + 1 to column i, so that the even half's Gram
    # has P0 = diag(down^2), P2 = diag(up^2) and the off-diagonal
    # down_i up_(i+1) as P1, the odd half's up and down swapped. Each table
    # starts at +0.0 and only its nonzero entries are written.
    lower = np.zeros((3, 3, 2 * d - 2))  # P0, P1, P2 of (m, h, r) of each half of S = 1..d-1
    for s in range(1, d + 1):
        ladder = [2.0 * x for x in _ladder(s)]
        up, down = ladder[::2], ladder[1::2]
        ups, downs = [x * x for x in up], [x * x for x in down]
        cross = [x * y for x, y in zip(down, up[1:])]
        if s < d:  # at most 2 x 2, S = 1 padded with zeros; P1 has a zero diagonal, P0 and P2 no r
            for k, diagonals in enumerate(((downs, ups), (ups, downs)), start=2 * s - 2):
                for table, diagonal in zip((0, 2), diagonals):
                    p, q = (diagonal + [0.0])[:2]
                    lower[table, 0, k], lower[table, 1, k] = 0.5 * (p + q), 0.5 * (p - q)
                lower[1, 2, k] = (cross + [0.0])[0]
    # S = d, the last in the loop, keeps its Grams and a and b: down at (i + 1, i), up at (i, i)
    gram = np.zeros((3, 2, d, d))  # P0, P1, P2 of each half
    coupling = np.zeros((2, 2, d + 1, d))  # [[a, b], [b, a]], a and b of the even half
    for i in range(d):
        gram[0, 0, i, i] = gram[2, 1, i, i] = downs[i]
        gram[0, 1, i, i] = gram[2, 0, i, i] = ups[i]
        coupling[0, 0, i + 1, i] = coupling[1, 1, i + 1, i] = down[i]
        coupling[0, 1, i, i] = coupling[1, 0, i, i] = up[i]
    for i, x in enumerate(cross):
        gram[1, 0, i, i + 1] = gram[1, 0, i + 1, i] = gram[1, 1, i, i + 1] = gram[1, 1, i + 1, i] = x
    width = 2 * d + 1
    corner = np.zeros((2, 2 * width, 2 * width))  # the same on either center state
    moves = {}  # (sx, -i sy) at each of their nonzero entries
    for i, x in enumerate(_ladder(d)):
        step = x / (2 * d)  # a corner's share of the S = d ladder
        for c in (i, width + i):
            moves[c, c + 1], moves[c + 1, c] = (step, -step), (step, step)  # 2 Sx / (2d), -i 2 Sy / (2d)
    half = _halves(d)
    at = {p: i for i, p in enumerate(half[0])}  # phi1 sits at half[0], and its spin flip phi2 at the mirror positions
    xi = np.zeros((5, width, width))
    for (r, c), (x, y) in moves.items():
        corner[0, r, c], corner[1, r, c] = x, y
        i, j = at.get(r), at.get(2 * width - 1 - c)
        if i is not None and j is not None:
            xi[0, i, j] = xi[1, j, i] = x  # sx is symmetric: _check_tables
            xi[2, i, j], xi[3, i, j], xi[4, i, j] = y, x - y, x + y
    main = max(range(d), key=downs.__getitem__)  # the first largest entry of P0's diagonal
    positions = [main] + [k for k in range(d) if k != main]
    star = np.array([positions + positions[1:], positions + [main] * (d - 1)])
    spin = CollectiveSpin(coupling, gram, star, lower, np.array(half), corner, xi, poly=None, place=None, ladder=None)
    _check_tables(spin)
    spin = _solve_entries(spin)  # cuts poly, place and ladder
    for arr in spin:
        arr.flags.writeable = False
    return spin


def collective_spin(geometry: BlockGeometry) -> CollectiveSpin:
    """The coupling and Gram tables of the S blocks, the S = d corner
    tables and the entries the solve reads of them, of the geometry's
    dimension, built once per dimension.

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
