"""Two-spin entanglement along the flow: the corner-pair concurrence of a
block and parameter sweeps, plus the general two-spin tools (the projector
of a full-basis state, its two-spin partial trace, and the spin-flip
concurrence of one 4x4 state) that serve as references.

Every block is solved by rgflow.solve_many, and its corner-pair state is
read off the S = d solution without touching the 2^n basis:
block_concurrence takes a batch of one, flowed_concurrences flows a whole
array of starting gammas together, each for its own number of steps,
concurrence_curves serves any set of steps from one flow of the grid, and
concurrence_j_sweep solves its whole grid in one call. The corner-pair
state and the map gamma -> gamma' depend on gamma alone (J only rescales
the block), so the flow carries gamma only and solves at unit J; only the
(gamma, j) sweep solves each block at its own J.

Everything is evaluated on the block ground state phi1 (the even-parity
doublet member); using phi2 instead gives identical concurrences, which the
tests enforce rather than assume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .blocks import CouplingParams, block_geometry, coupling_arrays
from .errors import ContractError, QRGError
from .numerics import eigh_symmetric, sqrt_psd
from .pauli import SIGMA_Y_REAL
from .rgflow import grid_size, solve_many, step_counts

NORM_TOL = 1e-10
LAMBDA_FLOOR = -1e-10
# eigenvalues below this fraction of the largest are rounding products; see
# wootters_concurrence
LAMBDA_NOISE_RTOL = 1e-12

_YY = -np.kron(SIGMA_Y_REAL, SIGMA_Y_REAL)  # real matrix of sigma^y x sigma^y


@dataclass(frozen=True)
class ReducedDensityMatrix:
    rho: np.ndarray  # 4x4, legs ordered (i, j)
    pair: Tuple[int, int]


class BlockConcurrence(NamedTuple):
    per_pair: Tuple[Tuple[Tuple[int, int], float], ...]
    geometric_mean: float


@dataclass(frozen=True)
class ConcurrenceCurve:
    dimension: int
    rg_step: int
    gamma_grid: np.ndarray
    values: np.ndarray


def _require_normalized(state) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    nrm2 = float(state @ state)
    if not abs(nrm2 - 1.0) <= NORM_TOL:
        raise ContractError(f"state is not normalized: |psi|^2 = {nrm2:.12g}")
    return state


def density_matrix(state) -> np.ndarray:
    """Rank-1 projector |state><state| of a normalized real state vector."""
    state = _require_normalized(state)
    return np.outer(state, state)


def partial_trace_pair(rho, keep) -> ReducedDensityMatrix:
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
    reduced = np.trace(t, axis1=1, axis2=3)
    return ReducedDensityMatrix(rho=reduced, pair=(int(i), int(j)))


def wootters_concurrence(rdm) -> float:
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
    rho = rdm.rho if isinstance(rdm, ReducedDensityMatrix) else np.asarray(rdm, dtype=float)
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


@functools.cache
def _corner_pairs(dimension: int) -> Tuple[Tuple[int, int], ...]:
    """Every unordered corner pair (i, j), i < j."""
    corners = block_geometry(dimension).corners
    return tuple(tuple(sorted((a.site, b.site))) for a, b in combinations(corners, 2))


def _x_state_concurrence(rho):
    """Concurrence of a real 4x4 X state, whose only nonzero off-diagonal
    entries are rho[0, 3] and rho[1, 2] (and their transposes):
    2 max(0, |rho03| - sqrt(rho11 rho22), |rho12| - sqrt(rho00 rho33)).
    Exact, with no eigensolve and no noise floor; a (..., 4, 4) stack gives
    one value per state."""
    return 2.0 * np.maximum(
        0.0,
        np.maximum(
            abs(rho[..., 0, 3]) - np.sqrt(rho[..., 1, 1] * rho[..., 2, 2]),
            abs(rho[..., 1, 2]) - np.sqrt(rho[..., 0, 0] * rho[..., 3, 3]),
        ),
    )


def block_concurrence(params: CouplingParams, dimension: int) -> BlockConcurrence:
    """Concurrence of every unordered corner pair of the block; the pairs are
    equal by symmetry, so their geometric mean is the common value.

    Corner pairs are the right pairs to trace to: corners are exactly the
    spins that mediate interblock bonds, and the corner-pair value reproduces
    the known maxima 1/(2d) at gamma = 0 where the center-corner pair does
    not. phi1 is symmetric under any permutation of the corners, so one
    representative pair is reduced and its value listed for every pair.
    phi1 has definite parity, so the pair's reduced state is an X state and
    its concurrence has a closed form. The state does not depend on params.j
    and is read off the unit-J solve of the block, a batch of one of
    rgflow.solve_many.
    """
    conc = float(_x_state_concurrence(solve_many(dimension, params.gamma).pair_state)[0])
    pairs = _corner_pairs(dimension)
    return BlockConcurrence(per_pair=tuple((pair, conc) for pair in pairs), geometric_mean=conc)


def flowed_concurrences(dimension: int, rg_steps, gammas) -> np.ndarray:
    """Geometric-mean concurrence of each starting gamma after its own
    number of coarse-graining steps: rg_steps is one count for all gammas
    or one per gamma. All points flow together and carry gamma only: each
    step is one batched solve of the distinct gammas still flowing, which
    gives the concurrence of the points that end there and gamma' of the
    others, checked by the next solve."""
    # checked in the given order, since np.unique below sorts them
    gammas = coupling_arrays(1.0, gammas).gamma
    steps = step_counts(np.broadcast_to(rg_steps, gammas.shape))
    values = np.empty(len(gammas))
    points = np.arange(len(gammas))
    for step in range(steps.max(initial=-1) + 1):
        # flows meet, at the fixed points +-1 and 0 above all; np.unique has
        # a fixed cost that a two-point stencil would pay at every step
        distinct, where = gammas, slice(None)
        if len(set(gammas.tolist())) < len(gammas):
            distinct, where = np.unique(gammas, return_inverse=True)
        solved = solve_many(dimension, distinct)
        ends = steps[points] == step
        if np.count_nonzero(ends):
            values[points[ends]] = _x_state_concurrence(solved.pair_state[where][ends])
        points, gammas = points[~ends], solved.gamma_prime[where][~ends]
    return values


def flowed_concurrence(dimension: int, rg_step: int, gamma: float) -> float:
    """Geometric-mean concurrence after rg_step coarse-graining steps applied
    to the initial anisotropy gamma. Step 0 evaluates the block at gamma.
    The batch of one of flowed_concurrences."""
    return float(flowed_concurrences(dimension, rg_step, gamma)[0])


def concurrence_curves(
    dimension: int,
    rg_steps: Sequence[int],
    grid: int = 2001,
) -> Tuple[ConcurrenceCurve, ...]:
    """Concurrence against the initial gamma on a uniform odd grid over
    [-1, 1] (odd so that gamma = 0 is a grid point), one curve for each of
    rg_steps, all read off one flow of the grid up to the largest step (the
    copies of the grid for the different steps are solved once per step)."""
    grid = grid_size(grid)
    if grid < 3 or grid % 2 == 0:
        raise ValueError(f"gamma grid must be odd and >= 3, got {grid}")
    gs = np.linspace(-1.0, 1.0, grid)
    rg_steps = tuple(rg_steps)
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
    own j rather than at unit J, so the CLI reports the spread the solver
    really shows."""
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    j_grid = np.asarray(j_grid, dtype=float)
    if j_grid.size == 0 or np.any(j_grid <= 0):
        raise ValueError("all j values must be > 0")
    gammas, js = np.meshgrid(gamma_grid, j_grid, indexing="ij")
    solved = solve_many(dimension, gammas.reshape(-1), js.reshape(-1))
    return _x_state_concurrence(solved.pair_state).reshape(gammas.shape)
