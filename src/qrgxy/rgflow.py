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
the same level, and is never solved. blocks.collective_spin checks this symmetry
of its tables once per dimension, where it builds them. solve_many runs
every check that is left on every point, reads xi_x, xi_y and gamma' off
the even half as quadratic forms and hands back phi1 as its 2d+1
amplitudes on the even half, off which concurrence reads the
corner-pair state of the points where a flow ends.
Every block of the package goes through it, with no memo: gamma_prime
and rg_map, and through them trajectories, take its batches of one.
Every search of the package runs on one scheduler of flows, run_flows: a
search is a generator that asks for batches of flows, each flow a
starting gamma and a number of rg steps, and is sent a read-out of the
solve at the end of each. Each tick is one solve_many call on the
distinct current gammas of every flow in flight, and since gamma' and
phi1 do not depend on J, a flow carries gamma only. A search gets its
values as soon as its own flows end and asks again in the next tick, so
no search waits for another. The concurrence flow
(concurrence.flowed_concurrences) is run_flows with one search, and the
peak refinements of scaling run on it together. fixed_points solves its
residual grid and the slope stencils of -1, 0 and 1 in one call. That
grid holds the exact 0, and the map fixes 0 and +-1 exactly, so these
are exact residual zeros; only a sign change between grid points would
be bisected, one midpoint of every such bracket per tick, and its root's
stencil solved in one call more. Only ground_doublet, for output and for
full-basis callers, embeds the doublet into the 2^n basis
(blocks.embedding). step_counts is the one rule for a number of rg steps.
"""

from __future__ import annotations

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
    The vector comes as d arrays, main first, with v_m > 0. Where d = 2, a
    Gram that is a multiple of the identity, whose top is not single and
    fails the degeneracy check, gives v_k = 0 instead of 0 / 0."""
    top = entries[0]
    if d == 1:
        return top, None, (np.ones_like(top),)
    if d == 2:
        _, other, off = entries
        half = 0.5 * (top - other)
        den = half + np.sqrt(half * half + off * off)
        ratio = np.divide(off, den, out=np.zeros_like(den), where=den > 0.0)
        x = off * ratio
        main = 1.0 / np.sqrt(1.0 + ratio * ratio)
        return top + x, other - x, (main, ratio * main)
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
    return top + x, second, (main, *(ratio * main))


def _star_entries(spin: CollectiveSpin, gamma: np.ndarray) -> np.ndarray:
    """(2d - 1, G): the entries of the even S = d Grams at the points
    gamma that _star_top reads, P0 + gamma (P1 + gamma P2) of each."""
    star = spin.gram[:, 0, spin.star[0], spin.star[1], None]
    return star[0] + gamma * (star[1] + gamma * star[2])


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
    n, d = len(couplings.gamma), spin.gram.shape[-1]
    gamma = couplings.gamma
    squares, second, top_vector = _star_top(_star_entries(spin, gamma), d)
    v = np.empty((d, n))
    v[spin.star[0, :d]] = top_vector
    parts = [squares[:, None], np.zeros((n, 1))]
    if second is not None:
        parts.append(second[:, None])
    if spin.lower.size:
        lower = spin.lower[..., ::2]  # the even half of each S
        g = gamma[:, None, None]
        lower = lower[0] + g * (lower[1] + g * lower[2])
        mean, half, off = lower.transpose(1, 0, 2)
        radius = np.hypot(half, off)
        parts += [mean + radius, mean - radius]
    # minus J/4 times a singular value is a level; rounding can leave a
    # vanishing squared one just below 0. Each level comes twice, once in
    # each half: the largest two of one half give E1 = E2 and E3
    scale = -0.25 * couplings.j
    largest = np.sort(np.concatenate(parts, axis=1), axis=1)[:, -2:]
    e3, e2 = np.sqrt(np.maximum(largest, 0.0)).T * scale
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
    # A[i, i] v[i] + A[i, i - 1] v[i - 1]; row by row, a and b hold their
    # (i, i) entries every d + 1 places from 0 and their (i + 1, i) ones
    # from d
    ladder = spin.coupling[:, 0].reshape(2, -1, 1)
    diagonal, below = ladder[:, :: d + 1], ladder[:, d :: d + 1]  # (2, d, 1) each
    u = np.zeros((d + 1, n))
    u[:-1] = (diagonal[0] + gamma * diagonal[1]) * v
    u[1:] += (below[0] + gamma * below[1]) * v
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
    if not (np.isfinite(grid) and grid == np.floor(grid)):
        raise ValueError(f"grid must be a whole number, got {grid}")
    return int(grid)


def rg_trajectory(initial: CouplingParams, dimension: int, n_steps: int) -> RGTrajectory:
    steps = [initial]
    for _ in range(int(step_counts(n_steps))):
        steps.append(rg_map(steps[-1], dimension))
    return RGTrajectory(dimension=dimension, steps=tuple(steps))


# -- fixed points ----------------------------------------------------------

FP_SLOPE_STEP = 1e-5
_FP_MERGE_TOL = 1e-7
_BISECT_WIDTH = 1e-12


class _Batch:
    """The flows of the batch a search asked for last: those that end
    first are held first."""

    def __init__(self, gammas, steps, order, ended):
        self.gammas = gammas  # the gamma each flow in flight has reached
        self.steps = steps    # its steps left
        self.order = order    # where each flow was asked for, or None if held in ask order
        self.ended = ended    # the BlockSolve rows where flows ended, in that order


def run_flows(dimension: int, searches: list, read) -> list:
    """Run the searches `searches` on the flow and return the value each
    returns, in order. A search is a generator that yields batches of
    flows, each as (gammas, steps): the starting gammas and one number of
    rg steps for all of them or one per gamma. It is sent one value per
    flow, in the order asked, and it may return before it asks. read maps
    the BlockSolve rows of the last step of flows to their values.

    Each tick is one solve_many call on the distinct current gammas of
    every flow in flight: a flow with steps left moves on to gamma', the
    others end there. read is called at most once per tick, on the rows of
    every search whose flows have all ended, and each of those searches is
    sent its values and asks again at once, so that its next flows join
    the next tick and no search waits for another. The starting gammas of
    a batch are checked in the order given, as coupling_arrays checks
    them, and its steps by step_counts. solve_many gives every point the
    bits of its batch of one, so a search sees the values it sees alone."""
    results = [None] * len(searches)
    batches = {}  # search: its open batch
    sends = dict.fromkeys(range(len(searches)))
    while sends or batches:
        for k, values in sends.items():
            try:
                gammas, steps = searches[k].send(values)
            except StopIteration as done:
                results[k] = done.value
                continue
            gammas, order, ended = coupling_arrays(1.0, gammas).gamma, None, []
            if np.ndim(steps):
                steps = step_counts(np.broadcast_to(steps, gammas.shape))
                order = np.argsort(steps, kind="stable")
                gammas, steps = gammas[order], steps[order]
            else:
                steps = np.full(len(gammas), step_counts(steps))
            if not len(gammas):  # a batch of no flows ends at once
                width = 2 * block_geometry(dimension).dimension + 1
                ended.append(BlockSolve(np.empty(0), np.empty(0), np.empty(0), np.empty((0, width))))
            batches[k] = _Batch(gammas, steps, order, ended)
        flowing = [batch for batch in batches.values() if len(batch.gammas)]
        if flowing:
            gammas = np.concatenate([batch.gammas for batch in flowing])
            # flows meet, at the fixed points +-1 and 0 above all; np.unique
            # has a fixed cost that a two-point stencil would pay every tick
            distinct, where = gammas, None
            if len(set(gammas.tolist())) < len(gammas):
                distinct, where = np.unique(gammas, return_inverse=True)
            solved = solve_many(dimension, distinct)
            at = 0
            for batch in flowing:
                n, ends = len(batch.gammas), int(batch.steps.searchsorted(0, side="right"))
                ending, going = slice(at, at + ends), slice(at + ends, at + n)  # rows of solved
                if where is not None:
                    ending, going = where[ending], where[going]
                if ends:
                    batch.ended.append(BlockSolve(*(field[ending] for field in solved)))
                batch.gammas, batch.steps = solved.gamma_prime[going], batch.steps[ends:] - 1
                at += n
        done = [k for k, batch in batches.items() if not len(batch.gammas)]
        sends = {}
        if done:
            rows = [part for k in done for part in batches[k].ended]
            values = read(BlockSolve(*map(np.concatenate, zip(*rows))))
            for k in done:
                batch = batches.pop(k)
                n = sum(len(part.gamma_prime) for part in batch.ended)
                mine, values = values[:n], values[n:]
                sends[k] = mine
                if batch.order is not None:  # back to the order asked
                    sends[k] = np.empty_like(mine)
                    sends[k][batch.order] = mine
    return results


def _bisect(a, b, fa):
    """The root of gamma' - gamma in the sign-change bracket [a, b] with
    residual fa at a, by bisection down to a residual of exactly 0 or a
    bracket no wider than _BISECT_WIDTH; a search for run_flows that asks
    for one flow of no step per tick, at the midpoint, and reads its
    gamma'."""
    while b - a > _BISECT_WIDTH:
        mid = 0.5 * (a + b)
        (gp,) = yield [mid], 0
        fm = gp - mid
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
    roots += [float(r) for r in run_flows(dimension, runs, lambda solved: solved.gamma_prime)]
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
