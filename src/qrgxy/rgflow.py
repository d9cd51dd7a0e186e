"""The coarse-graining step: ground doublet extraction, projected corner
operators, the (J, gamma) map, flow trajectories, and fixed points.

Each block's twofold-degenerate ground space defines an effective spin-1/2.
Projecting the corner Pauli operators onto that space yields single numbers
xi_x, xi_y; combined with the representative interblock bond they give the
renormalized couplings

    t_x = (J/4)(1+gamma) xi_x^2      t_y = (J/4)(1-gamma) xi_y^2
    gamma' = (t_x - t_y)/(t_x + t_y)     J' = 2 (t_x + t_y)

gamma' is a ratio, so it is independent of J and of the (unknowable) number
of corner-corner bonds between adjacent blocks; J' is reported under the
single-representative-bond convention.

The flow never leaves the collective corner spin S = d (2(2d+1) wide).
There is one block solver, and it takes whole arrays of points: solve_many
finds the doublet of every block from the d x d Gram matrices of the even
parity half of S = d (the half is bipartite, so its ground vector follows
from the Gram's top eigenvector), each a star whose top eigenpair solves
a secular equation, for all points at once and with no BLAS or LAPACK
call. The global spin flip commutes with the block and, as the block has
an odd number of spins, takes the even half onto the odd one: the odd
member of the doublet is the even one reversed in the S = d basis, with
the same level, and is never solved. blocks.collective_spin owns the
tables: it checks this symmetry of them once per dimension, where it
builds them, and hands the solve the entries it reads of them, cut out
once per dimension too, as fields of the same record (poly, place and
ladder); the flow keeps no tables of its own. solve_many runs every
check that is left on every point, reads xi_x, xi_y and gamma' off the
even half as quadratic forms and hands back phi1 as its 2d+1 amplitudes
on the even half, off which concurrence reads the corner-pair state of
the points where a flow ends.
Every block of the package goes through it, with no memo: gamma_prime
and rg_map, and through them trajectories, take its batches of one.
Every search of the package runs on one tick loop, run_flows: a search
is a generator that yields the gammas it needs solved in this tick and is
sent back their BlockSolve rows. Each tick is one solve of the gammas of
every search that asks in it, concatenated in ask order, with one range
check; since gamma' and phi1 do not depend on J, a flow carries gamma
only. A flow (flow) is the search that asks for its starting gammas and
then for their gamma' at each of its steps, and returns the rows of the
last; the concurrence flow (concurrence.flowed_concurrences) runs one
flow per distinct number of steps, and each peak refinement of scaling
runs its probe batches as flows, all refinements in one run_flows call.
fixed_points solves its residual grid and the slope stencils of -1, 0
and 1 in one call. That grid holds the exact 0, and the map fixes 0 and
+-1 exactly, so these are exact residual zeros; only a sign change
between grid points would be bisected, one midpoint of every such
bracket per tick, and its root's stencil solved in one call more. Only
ground_doublet, for output and for full-basis callers, embeds the
doublet into the 2^n basis (blocks.embedding). step_counts is the one
rule for a number of rg steps.
"""

import functools
import math
from typing import NamedTuple, Tuple

import numpy as np

from .blocks import (
    BlockGeometry,
    CollectiveSpin,
    CouplingArrays,
    CouplingParams,
    block_geometry,
    collective_spin,
    coupling_arrays,
    embedding,
    interblock_bonds,
)
from .errors import DegeneracyError, QRGError, StructureError

DEGENERACY_RTOL = 1e-8   # least gap from the doublet to the third level, relative to the spectral spread
STRUCTURE_TOL = 1e-9


class GroundDoublet(NamedTuple):
    """Two orthonormal degenerate ground vectors, split by parity.

    phi1 is the even-parity member, phi2 the odd one, each exactly zero
    outside its parity sector; both carry the sign gauge that makes their
    largest-magnitude amplitude positive, so repeated runs reproduce
    identical vectors.
    """

    energy: float
    phi1: np.ndarray
    phi2: np.ndarray
    gap_to_third: float
    n_spins: int


class RGTrajectory(NamedTuple):
    dimension: int
    steps: Tuple[CouplingParams, ...]  # steps[0] = initial couplings


class FixedPoint(NamedTuple):
    gamma: float
    stability: str  # "stable" | "unstable"
    slope: float    # |d gamma'/d gamma| at the root


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    # first entry of largest magnitude made positive: reproducible gauge; the
    # + 0.0 and 0.0 - keep exact zeros from turning into -0.0
    idx = int(np.argmax(np.abs(vec)))
    return vec + 0.0 if vec[idx] > 0 else 0.0 - vec


class HalvesGround(NamedTuple):
    """The ground doublets of a batch of G blocks in the S = d basis of
    blocks.CollectiveSpin. Only the even member is held: the odd one is its
    global spin flip, the even vector reversed in the S = d basis."""

    energy: np.ndarray        # (G,)
    gap_to_third: np.ndarray  # (G,)
    even: np.ndarray          # (G, 2d+1): phi1 at the positions blocks.CollectiveSpin.half[0]


def _raise_first(checks) -> None:
    """checks: (mask over the points, error of point k) pairs, in the order
    a scalar solve makes them. Raise the error of the first point that fails
    any of them, taking that point's checks in order."""
    if any(np.count_nonzero(mask) for mask, _error in checks):
        k = int(np.argmax(functools.reduce(np.logical_or, [mask for mask, _error in checks])))
        raise next(error(k) for mask, error in checks if mask[k])


NEWTON_STEPS = 3  # on the secular equation of the 3D Gram (_star_top)


def _star_top(entries: np.ndarray, d: int):
    """The top eigenvalue mu, the second eigenvalue (None where d = 1) and
    the top eigenvector of each of G d x d Grams, d <= 3, that are stars
    (blocks.CollectiveSpin): only the row and the column of the main
    position hold off-diagonal entries, and the main diagonal entry D_m is
    the largest. entries is (2d - 1, G): D_m, the other diagonal entries
    D_k, and the main-column entries c_k at the other positions k, in
    order. With x = mu - D_m and delta_k = D_m - D_k, the top pair solves
    the secular equation (Golub, SIAM Review 15, 318 (1973))

        x = sum_k c_k^2 / (x + delta_k),    v_k = c_k v_m / (x + delta_k).

    Where d = 2 its root is x = c^2 / (h + sqrt(h^2 + c^2)), h = delta / 2,
    whose denominator stays positive where the two diagonal entries meet,
    at |gamma| = 1; the second eigenvalue is then the trace less mu. Where
    d = 3, Newton's method takes NEWTON_STEPS steps on it from the d = 2
    root with the two deltas merged at their mean, each step written as
    one ratio of sums of nonnegative terms; the second eigenvalue is the
    larger root of the quadratic left by dividing mu out of the
    characteristic polynomial. Every step is + - * / or sqrt, so a row's
    bits depend neither on its batch nor on a BLAS build, and x and the
    v_k, which vanish at gamma = 0, keep their relative precision there.
    The vector comes as one (d, G) array, main first, with v_m > 0. Where
    d = 2, a Gram that is a multiple of the identity, whose top is not
    single and fails the degeneracy check, gives v_k = 0 instead of 0 / 0."""
    top = entries[0]
    if d == 1:
        return top, None, np.ones((1, len(top)))
    if d == 2:
        _, other, off = entries
        half = 0.5 * (top - other)
        den = half + np.sqrt(half * half + off * off)
        ratio = np.divide(off, den, out=np.zeros_like(den), where=den > 0.0)
        x = off * ratio
        main = 1.0 / np.sqrt(1.0 + ratio * ratio)
        return top + x, other - x, np.stack([main, ratio * main])
    other, off = entries[1:3], entries[3:]  # (2, G) each: the D_k and the c_k
    delta = top - other
    w = off * off
    pull, spread = w[0] + w[1], delta[0] + delta[1]
    quarter = 0.25 * spread
    x = pull / (quarter + np.sqrt(quarter * quarter + pull))
    for _ in range(NEWTON_STEPS):
        # x - f / f' for f = x - sum(t), f' = 1 + sum(t / (x + delta))
        shift = x + delta
        t = w / shift
        slope = t / shift
        slope = slope[0] + slope[1]
        x = (x * slope + (t[0] + t[1])) / (1.0 + slope)
    ratio = off / (x + delta)
    square = ratio * ratio
    main = 1.0 / np.sqrt(1.0 + square[0] + square[1])
    # the characteristic polynomial in x' = lambda - D_m is x'^3 + c2 x'^2 +
    # c1 x' - c0, c2 = sum(delta), c1 = prod(delta) - sum(c^2); over
    # (x' - x) it leaves x'^2 + t x' + c1 + x t, t = c2 + x
    t = spread + x
    half = 0.5 * t
    rest = (delta[0] * delta[1] - pull) + x * t
    second = top + (np.sqrt(np.maximum(half * half - rest, 0.0)) - half)
    return top + x, second, np.concatenate([main[None], ratio * main])


def _halves_ground(couplings: CouplingArrays, spin: CollectiveSpin, checks: list) -> HalvesGround:
    """Solve each block of the batch in its collective corner spin S and
    take the ground state of the even parity half of S = d.

    H couples the center only to the total corner spin, so it is the direct
    sum of center (x) spin-S blocks, S = 0..d, 2(2S+1) wide. Each S block
    counted once, their merged spectrum has the lowest three and the top
    level of the full block; it must show an isolated twofold ground level
    made of one even and one odd level of S = d. Each parity half of a
    spin-S block is bipartite, so its levels are plus and minus the
    singular values of its coupling block A, and one 0 (see
    blocks.CollectiveSpin): the merged spectrum is symmetric about 0, its
    top level is -e1, and its lowest three levels are minus the three
    largest singular values, or 0. The global spin flip takes each half
    onto the other (blocks._check_tables holds the tables to it), so the
    two halves of every S have the same levels: those of one half are
    taken once and stand for both, which makes E1 = E2 and the doublet
    exactly twofold. The even half of S = d is solved through its d x d
    Gram matrix A^T A, a star, whose largest two eigenvalues, the squared
    singular values, and top eigenvector v come from its secular equation
    (_star_top); the ground vector of the half is [A v / |A v|, -v] /
    sqrt(2), where |A v| is the top singular value and A v, A bidiagonal,
    is two products summed per entry. The S = 1..d-1 halves give their
    squared singular values from the closed form of their 1x1 and 2x2
    Grams, since one of them can hold the third level; the zero levels, of
    S = 0 and of each half, are not solved. The checks go to `checks` for
    _raise_first. No step calls BLAS or LAPACK.
    """
    poly, place, ladder = spin.poly, spin.place, spin.ladder
    gamma = couplings.gamma
    n, d = len(gamma), len(place)
    entries = poly[0] + gamma * (poly[1] + gamma * poly[2])
    squares, second, v = _star_top(entries[: 2 * d - 1], d)
    v = v.take(place, axis=0)
    levels = [squares[None], np.zeros((1, n))]
    if d > 1:
        mean, half, off = entries[2 * d - 1 :].reshape(3, d - 1, n)
        radius = np.hypot(half, off)
        levels += [second[None], mean + radius, mean - radius]
    # minus J/4 times a singular value is a level; rounding can leave a
    # vanishing squared one just below 0. Each level comes twice, once in
    # each half: the largest two of one half give E1 = E2 and E3
    scale = -0.25 * couplings.j
    levels = np.concatenate(levels)
    levels.sort(axis=0)
    e3, e2 = np.sqrt(np.maximum(levels[-2:], 0.0)) * scale
    top = np.sqrt(np.maximum(squares, 0.0))  # the top singular value of the even half of S = d
    lowest = top * scale  # the ground level of each half of S = d
    tol = DEGENERACY_RTOL * (-2.0 * e2)
    gap = e3 - e2
    checks += [
        (
            gap <= tol,
            lambda k: DegeneracyError(
                f"third level E3 = {e3[k]:.12g} falls inside the doublet tolerance "
                f"{tol[k]:.3e} of E2 = {e2[k]:.12g}; ground space is not twofold"
            ),
        ),
        (
            lowest > e2,
            lambda k: StructureError(
                f"ground doublet is not one even and one odd level: lowest even "
                f"{lowest[k]:.12g}, lowest odd {lowest[k]:.12g}, E2 = {e2[k]:.12g}"
            ),
        ),
    ]
    # A v, A = a + gamma b bidiagonal (blocks._check_tables): entry i is
    # A[i, i] v[i] + A[i, i - 1] v[i - 1]
    ladder = ladder[0] + gamma * ladder[1]
    u = np.zeros((d + 1, n))
    u[:-1] = ladder[:d] * v
    u[1:] += ladder[d:] * v
    np.divide(u, top, out=u, where=top > 0.0)  # A = 0 only where a check fails
    even = (np.concatenate([u, -v]) * math.sqrt(0.5)).T
    return HalvesGround(energy=e2, gap_to_third=gap, even=even)


def ground_doublet(params: CouplingParams, geometry: BlockGeometry) -> GroundDoublet:
    """The ground doublet of the block, solved as a batch of one by
    _halves_ground and embedded into the full 2^n basis with exact zeros
    outside each vector's parity: the parity eigenstates that make the
    projected corner operators come out in pure sigma'^x / sigma'^y form.
    phi2 is embedded from the even S = d vector reversed, so it is the
    global spin flip of phi1 bit for bit, up to the sign gauge. The flow
    does not need the 2^n vectors and reads the S = d solution instead;
    this is for output and for callers that work in the full basis."""
    spin = collective_spin(geometry)
    checks: list = []
    solved = _halves_ground(coupling_arrays(params.j, params.gamma), spin, checks)
    _raise_first(checks)
    vector = np.zeros(2 * spin.half.shape[-1])
    vector[spin.half[0]] = solved.even[0]
    embed = embedding(geometry)
    phi1, phi2 = (_fix_sign(embed.weight * u[embed.column]) for u in (vector, vector[::-1]))
    return GroundDoublet(
        energy=float(solved.energy[0]),
        phi1=phi1,
        phi2=phi2,
        gap_to_third=float(solved.gap_to_third[0]),
        n_spins=geometry.n_sites,
    )


# -- the block solver --------------------------------------------------------


class BlockSolve(NamedTuple):
    """What the flow and the concurrence read off each block of a batch of
    G points, from solve_many. Since H_B(J) = J H_B(1), none of it depends
    on J. even holds the amplitudes of phi1 at the positions
    blocks.CollectiveSpin.half[0]; phi1 is zero elsewhere."""

    xi_x2: np.ndarray        # (G,)
    xi_y2: np.ndarray        # (G,)
    gamma_prime: np.ndarray  # (G,)
    even: np.ndarray         # (G, 2d+1): phi1 on the even half of S = d, read-only


def solve_many(dimension: int, gammas, j=1.0) -> BlockSolve:
    """The blocks at the points (j, gammas), solved together: the d x d
    Grams of the even half of their S = d blocks through their secular
    equation (_star_top), and the S < d levels in closed form. j
    is one number or one per gamma; each point is solved at its own J,
    which scales its levels only, so that its checks run at that J and its
    vectors do not depend on it.

    Everything is read off the even S = d ground vector phi1 of each
    point, its 2d+1 amplitudes on the even half: the odd one, phi2, is its
    global spin flip, and the corner sx and (-i sy) projected onto the
    doublet are quadratic forms on those amplitudes
    (blocks.CollectiveSpin.xi), read in one einsum. sx flips one spin, so
    it is parity-odd and its projection must be a pure sigma'^x. Its diagonal vanishes
    identically, as the corner tables are checked where they are built;
    its two off-diagonals are read apart, and a point where they differ
    raises instead of being squared away. With real vectors,
    <phi1|sy|phi2> is i times <phi1|(-i sy)|phi2>, whose diagonal vanishes
    identically, so the y projection needs no check. phi1 is handed back
    as its even-half amplitudes, the only ones that are not zero. No 2^n
    vector is built. Every check of the halves solve and of the
    projection runs on every point; the first point that fails one raises
    the error its batch of one would. The arithmetic of each point does
    not depend on the others, so a point gives bit for bit what its batch
    of one gives. An empty batch gives empty arrays.
    """
    return _solve(dimension, coupling_arrays(j, gammas))


def _solve(dimension: int, couplings: CouplingArrays) -> BlockSolve:
    """solve_many on couplings that are already checked."""
    geometry = block_geometry(dimension)
    spin = collective_spin(geometry)
    checks: list = []
    even = _halves_ground(couplings, spin, checks).even
    # <phi1|sx|phi2>, <phi2|sx|phi1>, <phi1|(-i sy)|phi2> and the
    # difference and the sum of the first and the last of each point;
    # einsum, with optimize left off, runs its own loops and no BLAS, so a
    # row gets the bits of its batch of one
    off, off_t, y, minus, plus = np.einsum("gi,fij,gj->fg", even, spin.xi, even)
    xx, yy = off * off, y * y
    gamma = couplings.gamma
    # t_x + t_y = (1 + gamma) xx + (1 - gamma) yy, up to J/4. Near gamma =
    # 0, xx - yy cancels, but one factor of (xi_x - xi_y)(xi_x + xi_y)
    # vanishes and keeps its relative precision, read as its own form
    squares, difference = xx + yy, minus * plus
    total = squares + gamma * difference
    checks += [
        (
            ~(abs(off - off_t) <= STRUCTURE_TOL),
            # named by the x-axis representative corner
            lambda k: StructureError(
                f"projected sigma^x at site {interblock_bonds(geometry)[0][0]} is not "
                f"proportional to sigma'^x: off-diagonals ({off[k]:.12g}, {off_t[k]:.12g})"
            ),
        ),
        (
            total <= 1e-300,
            lambda k: QRGError(
                f"renormalized couplings vanished at gamma = {float(gamma[k])}: "
                f"t_x + t_y = {float(total[k])}"
            ),
        ),
    ]
    _raise_first(checks)
    # gamma' = (t_x - t_y) / (t_x + t_y) = (ratio + gamma) / (1 + gamma ratio)
    ratio = difference / squares
    gp = (ratio + gamma) / (1.0 + gamma * ratio)
    # gamma' is <= 1 in magnitude up to rounding; clamp only that much
    over = abs(gp) > 1.0
    if np.count_nonzero(over):
        rounding = over & (abs(gp) <= 1.0 + 1e-12)
        gp[rounding] = np.sign(gp[rounding])
    even.flags.writeable = False
    return BlockSolve(xx, yy, gp, even)


def gamma_prime(gamma: float, dimension: int) -> float:
    """The gamma component of the map (J-free)."""
    return float(solve_many(dimension, gamma).gamma_prime[0])


def rg_map(params: CouplingParams, dimension: int) -> CouplingParams:
    """One coarse-graining step (J, gamma) -> (J', gamma')."""
    j, gamma = params.j, params.gamma
    solve = solve_many(dimension, gamma)
    tx = (j / 4.0) * (1.0 + gamma) * solve.xi_x2[0]
    ty = (j / 4.0) * (1.0 - gamma) * solve.xi_y2[0]
    return CouplingParams(j=float(2.0 * (tx + ty)), gamma=float(solve.gamma_prime[0]))


def step_counts(n_steps) -> np.ndarray:
    """The numbers of rg steps of trajectories, flows and scaling points,
    one number or an array of them, as ints: each must be a whole number
    from 0 to 64. The first that is not raises."""
    counts = np.asarray(n_steps)
    ok = (0 <= counts) & (counts <= 64) & (counts == np.floor(counts))
    if np.count_nonzero(ok) < ok.size:
        bad = counts.flat[int(np.argmin(ok))]
        if not 0 <= bad <= 64:
            raise ValueError(f"n_steps must be between 0 and 64, got {bad}")
        raise ValueError(f"n_steps must be a whole number, got {bad}")
    return counts.astype(int)


def grid_size(grid) -> int:
    """The number of points of a gamma grid as an int: a whole number,
    given as an int or a float."""
    if not (isinstance(grid, (int, np.integer)) or (math.isfinite(grid) and grid == math.floor(grid))):
        raise ValueError(f"grid must be a whole number, got {grid}")
    return int(grid)


def rg_trajectory(initial: CouplingParams, dimension: int, n_steps: int) -> RGTrajectory:
    steps = [initial]
    for _ in range(int(step_counts(n_steps))):
        steps.append(rg_map(steps[-1], dimension))
    return RGTrajectory(dimension=dimension, steps=tuple(steps))


# -- flows -------------------------------------------------------------------


def flow(gammas, steps):
    """The flow of the starting gammas `gammas` for `steps` rg steps, as a
    search for run_flows: it asks for the gammas at the first tick and for
    their gamma' at each of the next `steps`, and returns the BlockSolve
    rows of the last. steps is checked by step_counts."""
    steps = int(step_counts(steps))
    solved = yield gammas
    for _ in range(steps):
        solved = yield solved.gamma_prime
    return solved


def run_flows(dimension: int, searches: list) -> list:
    """Run the searches `searches` on the block solve and return the value
    each returns, in order. A search is a generator that yields the gammas
    it needs solved in this tick and is sent back their BlockSolve rows,
    in the order asked; it may return before it asks.

    Each tick is one solve of the gammas of every search that asks in it,
    concatenated in the order of the searches, and each search asks again
    in the next tick, so no search waits for another. A tick's gammas are
    range-checked at once; where one fails, coupling_arrays checks each
    search's gammas in ask order and raises the error its batch of one
    gives the first bad point. Only faked tables or a faked map take a
    gamma' out of [-1, 1], by more than the solve's rounding clamp. The
    solve gives every point the bits of its batch of one, so a search sees
    the values it sees alone."""
    results = [None] * len(searches)
    sends = dict.fromkeys(range(len(searches)))
    while True:
        asks = {}
        for k, rows in sends.items():
            try:
                asks[k] = searches[k].send(rows)
            except StopIteration as done:
                results[k] = done.value
        if not asks:
            return results
        gammas = np.concatenate(list(asks.values()), dtype=float)
        if not (abs(gammas) <= 1.0).all():
            for ask in asks.values():
                coupling_arrays(1.0, ask)  # raises for the first bad point
        solved = _solve(dimension, CouplingArrays(np.ones(len(gammas)), gammas))
        sends, at = {}, 0
        for k, ask in asks.items():
            rows = slice(at, at + len(ask))
            sends[k] = BlockSolve(*(field[rows] for field in solved))
            at = rows.stop


# -- fixed points ----------------------------------------------------------

FP_SLOPE_STEP = 1e-5
_FP_MERGE_TOL = 1e-7
_BISECT_WIDTH = 1e-12


def _bisect(a, b, fa):
    """The root of gamma' - gamma in the sign-change bracket [a, b] with
    residual fa at a, by bisection down to a residual of exactly 0 or a
    bracket no wider than _BISECT_WIDTH; a search for run_flows that asks
    for the midpoint alone in each tick and reads its gamma'."""
    while b - a > _BISECT_WIDTH:
        mid = 0.5 * (a + b)
        fm = (yield [mid]).gamma_prime[0] - mid
        if fm == 0.0:
            return mid
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _slope_stencil(roots: np.ndarray):
    """The two points of the slope stencil of each root, cut to [-1, 1]."""
    return np.maximum(roots - FP_SLOPE_STEP, -1.0), np.minimum(roots + FP_SLOPE_STEP, 1.0)


def fixed_points(dimension: int, grid: int = 401):
    """Roots of gamma' = gamma on [-1, 1], with stability read off a
    finite-difference slope at each root (< 1 stable, > 1 unstable).

    The residual grid is np.linspace(-1, 1, grid) with the exact 0.0 on
    it: as its middle point where the grid is odd, and as one point more
    where it is even. The map is odd and sends 0, 1 and -1 exactly to
    themselves, so the three fixed points are exact residual zeros at
    every grid and no bracket ends at or straddles one; their two-point
    slope stencils go into the solve of the residual grid. Any other sign
    change of the residuals would be bisected (_bisect) in run_flows, the
    midpoints of every open bracket in one solve per tick, and the
    stencils of any other root are one more solve."""
    grid = grid_size(grid)
    if grid < 100:
        raise ValueError(f"fixed-point grid needs at least 100 points, got {grid}")
    gs = np.linspace(-1.0, 1.0, grid)
    # linspace rounds the middle of 1177 odd grids up to 20001 to
    # -1.1e-16, where the 1D residual's sign is rounding noise; np.insert,
    # not np.union1d, whose first call imports numpy.ma
    if grid % 2:
        gs[grid // 2] = 0.0
    else:
        gs = np.insert(gs, grid // 2, 0.0)
    stencils = np.concatenate(_slope_stencil(np.array([-1.0, 0.0, 1.0])))
    gp = solve_many(dimension, np.concatenate([gs, stencils])).gamma_prime
    known = dict(zip(stencils.tolist(), gp[len(gs):].tolist()))  # gamma' of the stencil points solved
    res = gp[: len(gs)] - gs
    roots = gs[np.flatnonzero(res == 0.0)].tolist()
    brackets = np.flatnonzero(res[:-1] * res[1:] < 0.0).tolist()
    runs = [_bisect(gs[i], gs[i + 1], res[i]) for i in brackets]
    roots += [float(r) for r in run_flows(dimension, runs)]
    merged: list = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > _FP_MERGE_TOL:
            merged.append(r)
    lo, hi = _slope_stencil(np.array(merged))
    missing = [g for g in np.concatenate([lo, hi]).tolist() if g not in known]
    if missing:
        known.update(zip(missing, solve_many(dimension, missing).gamma_prime.tolist()))
    slopes = [abs((known[b] - known[a]) / (b - a)) for a, b in zip(lo.tolist(), hi.tolist())]
    return [
        FixedPoint(gamma=r, stability="stable" if slope < 1.0 else "unstable", slope=float(slope))
        for r, slope in zip(merged, slopes)
    ]
