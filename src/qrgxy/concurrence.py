"""Two-spin entanglement along the flow: the corner-pair concurrence of a
block and parameter sweeps. Two general two-spin tools, which the pipeline
does not call, stay beside them: partial_trace_pair, the reduced state of
one pair of a full-basis density matrix, and wootters_concurrence, the
concurrence of one 4x4 state (Wootters, PRL 80, 2245 (1998)). The
corner-pair state of a block is an X state, so the pipeline reads its
concurrence off the closed form instead, as Kargarian, Jafari and Langari
do (PRA 76, 060304(R) (2007)).

Every block is solved by rgflow.solve_many, which hands back phi1 as its
2d+1 amplitudes on the even half of S = d, and the corner-pair
concurrence is read off them through four quadratic forms
(_pair_concurrence, on blocks.pair_forms), without touching the 2^n
basis: block_concurrence takes a batch of one; concurrence_searches runs
searches that ask for batches of flows on rgflow.run_flows and reads the
forms once per tick, on the phi1 of the last step of every flow of the
searches that are done; flowed_concurrences is its one-search case, which
flows a whole array of starting gammas together, each for its own number
of steps, and reads the forms once, after the flow; concurrence_curves
serves any set of steps from one flow of the grid, and
concurrence_j_sweep solves its whole grid in one call. phi1 and the map
gamma -> gamma' depend on gamma alone (J only rescales the block), so the
flow carries gamma only and solves at unit J; only the (gamma, j) sweep
solves each block at its own J.

Everything is evaluated on the block ground state phi1 (the even-parity
doublet member); using phi2 instead gives identical concurrences, which the
tests enforce rather than assume.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .blocks import CouplingParams, block_geometry, pair_forms
from .errors import QRGError
from .numerics import eigh_symmetric, sqrt_psd
from .pauli import SIGMA_Y_REAL
from .rgflow import grid_size, run_flows, solve_many, step_counts

LAMBDA_FLOOR = -1e-10
# eigenvalues below this fraction of the largest are rounding products; see
# wootters_concurrence
LAMBDA_NOISE_RTOL = 1e-12

_YY = -np.kron(SIGMA_Y_REAL, SIGMA_Y_REAL)  # real matrix of sigma^y x sigma^y


class ConcurrenceCurve(NamedTuple):
    dimension: int
    rg_step: int
    gamma_grid: np.ndarray
    values: np.ndarray


def partial_trace_pair(rho, keep) -> np.ndarray:
    """Trace out all spins except the pair `keep` = (i, j); the surviving
    4x4 state keeps leg order (i, j)."""
    rho = np.asarray(rho, dtype=float)
    dim = rho.shape[0] if rho.ndim == 2 else 0
    n = dim.bit_length() - 1
    if rho.ndim != 2 or rho.shape != (dim, dim) or dim < 4 or 2 ** n != dim:
        raise ValueError(f"rho must be square with power-of-two dimension >= 4, got shape {rho.shape}")
    i, j = keep
    if i == j:
        raise ValueError(f"coincident sites in pair: {keep}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair {keep} out of range for {n} spins")
    t = rho.reshape((2,) * (2 * n))
    ket = [i, j] + [k for k in range(n) if k not in (i, j)]
    bra = [n + ax for ax in ket]
    t = np.transpose(t, ket + bra).reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2))
    return np.trace(t, axis1=1, axis2=3)


def wootters_concurrence(rho) -> float:
    """max(sqrt(l4) - sqrt(l3) - sqrt(l2) - sqrt(l1), 0), the l's being the
    (descending) eigenvalues of sqrt(rho) rho~ sqrt(rho) with the spin-flipped
    rho~ = (yy) rho (yy), for one 4x4 state.

    The density matrices here are real, so the complex conjugation in the
    spin flip drops out. Eigenvalues below 1e-12 * l_max are zeroed before
    the square roots: they are pure rounding noise, and the square root
    amplifies them enough to leak a spurious j-dependence into otherwise
    j-invariant concurrences. The floor also drops true eigenvalues below
    it, so a result can be too high by up to 3e-6 * sqrt(l_max): for a small
    concurrence that is a large relative error (a d = 2 corner pair one
    step from gamma = 0.3 gives 1.10e-6 here against the exact 7.36e-7).
    block_concurrence uses the exact X-state form instead.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (4, 4):
        raise ValueError(f"reduced state must be 4x4, got shape {rho.shape}")
    rho_t = _YY @ rho @ _YY
    root = sqrt_psd(rho)
    m = root @ rho_t @ root
    m = 0.5 * (m + m.T)  # remove triple-product rounding asymmetry
    lam = eigh_symmetric(m).eigenvalues
    if lam[0] < LAMBDA_FLOOR:
        raise QRGError(f"spin-flip spectrum went negative: {lam[0]:.3e}")
    lam = np.where(lam < LAMBDA_NOISE_RTOL * max(lam[-1], 0.0), 0.0, lam)
    s = np.sqrt(np.clip(lam, 0.0, None))
    return float(max(s[3] - s[2] - s[1] - s[0], 0.0))


def _pair_concurrence(dimension: int, even: np.ndarray) -> np.ndarray:
    """Corner-pair concurrence of each row of even, the (G, 2d+1) even-half
    amplitudes of phi1 from rgflow.solve_many. The pair state is a real X
    state whose rho22 and rho12 are rho11 bit for bit (blocks.pair_forms),
    so 2 max(0, |rho03| - sqrt(rho11 rho22), |rho12| - sqrt(rho00 rho33))
    is 2 max(0, |rho03| - rho11, rho11 - sqrt(rho00 rho33)): exact, with no
    eigensolve and no noise floor. einsum, with optimize left off, runs its
    own loops and no BLAS, so a row gets the bits of its batch of one."""
    pair = pair_forms(block_geometry(dimension))
    r00, r11, r33, r03 = np.einsum("gi,fij,gj->fg", even, pair, even)
    return 2.0 * np.maximum(0.0, np.maximum(abs(r03) - r11, r11 - np.sqrt(r00 * r33)))


def block_concurrence(params: CouplingParams, dimension: int) -> float:
    """Concurrence of a corner pair of the block; phi1 is symmetric under
    any permutation of the corners, so every pair has this value.

    Corner pairs are the right pairs to trace to: corners are exactly the
    spins that mediate interblock bonds, and the corner-pair value reproduces
    the known maxima 1/(2d) at gamma = 0 where the center-corner pair does
    not. phi1 has definite parity, so the pair's reduced state is an X
    state and its concurrence has a closed form in four of its entries,
    read off the even-half amplitudes of phi1 (_pair_concurrence). phi1
    does not depend on params.j and comes from the unit-J solve of the
    block, a batch of one of rgflow.solve_many.
    """
    return float(_pair_concurrence(dimension, solve_many(dimension, params.gamma).even)[0])


def concurrence_searches(dimension: int, searches: list) -> list:
    """Run searches that ask for batches of flows (rgflow.run_flows) and
    are sent the corner-pair concurrence at the end of each flow of the
    batch, and return the value each returns, in order. The concurrences
    of every search whose flows end in a tick are read off their phi1 in
    one _pair_concurrence call."""
    return run_flows(dimension, searches, lambda solved: _pair_concurrence(dimension, solved.even))


def _ask_once(gammas, rg_steps):
    """A search that asks for one batch of flows and returns its values."""
    return (yield gammas, rg_steps)


def flowed_concurrences(dimension: int, rg_steps, gammas) -> np.ndarray:
    """Corner-pair concurrence of each starting gamma after its own
    number of coarse-graining steps: rg_steps is one count for all gammas
    or one per gamma. The one-search case of concurrence_searches: all
    points flow together and carry gamma only, each step one batched solve
    of the distinct gammas still flowing, which gives the even-half phi1
    of the points that end there and gamma' of the others, checked by the
    next solve. The concurrences of all points are read off their phi1 in
    one _pair_concurrence call after the flow."""
    return concurrence_searches(dimension, [_ask_once(gammas, rg_steps)])[0]


def flowed_concurrence(dimension: int, rg_step: int, gamma: float) -> float:
    """Corner-pair concurrence after rg_step coarse-graining steps applied
    to the initial anisotropy gamma. Step 0 evaluates the block at gamma.
    The batch of one of flowed_concurrences."""
    return float(flowed_concurrences(dimension, rg_step, gamma)[0])


def checked_grid(grid) -> int:
    """The number of points of a uniform gamma grid over [-1, 1]: a whole
    number, odd so that gamma = 0 is a grid point, and at least 3."""
    grid = grid_size(grid)
    if grid < 3 or grid % 2 == 0:
        raise ValueError(f"gamma grid must be odd and >= 3, got {grid}")
    return grid


def concurrence_curves(
    dimension: int,
    rg_steps: Sequence[int],
    grid: int = 2001,
) -> Tuple[ConcurrenceCurve, ...]:
    """Concurrence against the initial gamma on a uniform odd grid over
    [-1, 1] (odd so that gamma = 0 is a grid point), one curve for each of
    rg_steps, all read off one flow of the grid up to the largest step (the
    copies of the grid for the different steps are solved once per step)."""
    grid = checked_grid(grid)
    gs = np.linspace(-1.0, 1.0, grid)
    rg_steps = tuple(step_counts(list(rg_steps)).tolist())
    steps, gammas = np.repeat(rg_steps, grid), np.tile(gs, len(rg_steps))
    values = flowed_concurrences(dimension, steps, gammas)
    return tuple(
        ConcurrenceCurve(dimension=dimension, rg_step=step, gamma_grid=gs, values=row)
        for step, row in zip(rg_steps, values.reshape(len(rg_steps), grid))
    )


def concurrence_curve(dimension: int, rg_step: int, grid: int = 2001) -> ConcurrenceCurve:
    """Concurrence against the initial gamma after rg_step coarse-graining
    steps; see concurrence_curves."""
    return concurrence_curves(dimension, (rg_step,), grid)[0]


def concurrence_j_sweep(
    dimension: int,
    gamma_grid: Sequence[float],
    j_grid: Sequence[float],
) -> np.ndarray:
    """Concurrence on a (gamma, j) grid at rg step 0, shaped
    (len(gamma_grid), len(j_grid)). Physically the j axis is flat; the
    whole grid is one batched solve in which each point is solved at its
    own j rather than at unit J, so that its checks run at that j. The
    solver's j scales the levels only, so the spread the CLI reports is 0
    whenever every point passes."""
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    j_grid = np.asarray(j_grid, dtype=float)
    if j_grid.size == 0 or np.any(j_grid <= 0):
        raise ValueError("all j values must be > 0")
    gammas, js = np.meshgrid(gamma_grid, j_grid, indexing="ij")
    solved = solve_many(dimension, gammas.reshape(-1), js.reshape(-1))
    return _pair_concurrence(dimension, solved.even).reshape(gammas.shape)
