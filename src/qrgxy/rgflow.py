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

The flow never leaves the collective corner spin S = d (2(2d+1) wide):
solve_halves finds the doublet there, and block_solve reads xi_x, xi_y and
the corner-pair state off it. Only ground_doublet, for output and for
full-basis callers, embeds the doublet into the 2^n basis, and
renormalized_operators projects such full-basis vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .blocks import (
    BlockGeometry,
    CollectiveSpin,
    CouplingParams,
    block_geometry,
    collective_spin,
    interblock_bonds,
)
from .errors import DegeneracyError, QRGError, StructureError
from .numerics import eigh_symmetric, eigvalsh_symmetric
from .pauli import spin_flip

DEGENERACY_RTOL = 1e-8   # doublet splitting tolerance, relative to spectral spread
STRUCTURE_TOL = 1e-9


@dataclass(frozen=True)
class GroundDoublet:
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


@dataclass(frozen=True)
class RenormalizedOperators:
    """Coefficients of the effective one-spin operators at one corner:
    projecting sigma^x_corner onto the doublet gives xi_x sigma'^x, and
    sigma^y_corner gives xi_y sigma'^y. Only the squares are gauge free."""

    xi_x: float
    xi_y: float
    corner: int


@dataclass(frozen=True)
class RGTrajectory:
    dimension: int
    steps: Tuple[CouplingParams, ...]  # steps[0] = initial couplings


@dataclass(frozen=True)
class FixedPoint:
    gamma: float
    stability: str  # "stable" | "unstable"
    slope: float    # |d gamma'/d gamma| at the root


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    # first entry of largest magnitude made positive: reproducible gauge; the
    # + 0.0 and 0.0 - keep exact zeros from turning into -0.0
    idx = int(np.argmax(np.abs(vec)))
    return vec + 0.0 if vec[idx] > 0 else 0.0 - vec


class HalvesGround(NamedTuple):
    """The ground doublet of a block in the S = d basis of blocks.CollectiveSpin."""

    energy: float
    gap_to_third: float
    ground: np.ndarray  # (2, 2(2d+1)): the even and the odd ground vector, each zero off its half


_S0_LEVELS = np.zeros(2)  # the S = 0 block is the zero 2x2 matrix in every dimension


def solve_halves(params: CouplingParams, spin: CollectiveSpin) -> HalvesGround:
    """Solve the block in its collective corner spin S and take the ground
    state of each parity half of S = d.

    H couples the center only to the total corner spin, so it is the direct
    sum of center (x) spin-S blocks, S = 0..d, 2(2S+1) wide. Each S block
    counted once, their merged spectrum has the lowest three and the top
    level of the full block; it must show an isolated twofold ground level
    made of one even and one odd level of S = d. The parity
    (-1)^(c + k_down) splits S = d into two halves, 2d+1 wide, solved for
    their vectors in one stacked call; the S = 1..d-1 blocks, merged per
    half, in one more call for their levels only, since one of them can
    hold the third level; the S = 0 block adds two zero levels unsolved.
    """
    top, lower = spin.hamiltonians(params)
    levels, vectors = eigh_symmetric(top)
    parts = [levels.reshape(-1), _S0_LEVELS]
    if lower.size:
        parts.append(eigvalsh_symmetric(lower).reshape(-1))
    w = np.sort(np.concatenate(parts))
    spread = float(w[-1] - w[0])
    tol = DEGENERACY_RTOL * spread
    if w[1] - w[0] > tol:
        raise DegeneracyError(
            f"ground level not twofold degenerate: E1 = {w[0]:.12g}, E2 = {w[1]:.12g}, "
            f"splitting {w[1] - w[0]:.3e} exceeds tolerance {tol:.3e}"
        )
    gap = float(w[2] - w[1])
    if gap <= tol:
        raise DegeneracyError(
            f"third level E3 = {w[2]:.12g} falls inside the doublet tolerance "
            f"{tol:.3e} of E2 = {w[1]:.12g}; ground space is not twofold"
        )
    if levels[:, 0].max() > w[1]:
        raise StructureError(
            f"ground doublet is not one even and one odd level: lowest even "
            f"{levels[0, 0]:.12g}, lowest odd {levels[1, 0]:.12g}, E2 = {w[1]:.12g}"
        )
    ground = np.zeros((2, 2 * top.shape[-1]))
    ground[[[0], [1]], spin.half] = vectors[:, :, 0]
    return HalvesGround(energy=float(w[0]), gap_to_third=gap, ground=ground)


def ground_doublet(params: CouplingParams, geometry: BlockGeometry) -> GroundDoublet:
    """The ground doublet of solve_halves, embedded into the full 2^n basis
    with exact zeros outside each vector's parity: the parity eigenstates
    that make the projected corner operators come out in pure sigma'^x /
    sigma'^y form. The flow does not need the 2^n vectors and reads the
    S = d solution instead; this is for output and for callers that work
    in the full basis."""
    spin = collective_spin(geometry)
    solved = solve_halves(params, spin)
    phi1, phi2 = (_fix_sign(spin.weight * u[spin.column]) for u in solved.ground)
    return GroundDoublet(
        energy=solved.energy,
        phi1=phi1,
        phi2=phi2,
        gap_to_third=solved.gap_to_third,
        n_spins=geometry.n_sites,
    )


def _is_pure_sigma_x(d1: float, d2: float, off: float, off_t: float) -> bool:
    return max(abs(d1), abs(d2)) <= STRUCTURE_TOL and abs(off - off_t) <= STRUCTURE_TOL


def _sigma_x_error(d1: float, d2: float, off: float, off_t: float, corner: int) -> StructureError:
    return StructureError(
        f"projected sigma^x at site {corner} is not proportional to sigma'^x: "
        f"diagonal ({d1:.3e}, {d2:.3e}), off-diagonals ({off:.12g}, {off_t:.12g})"
    )


def renormalized_operators(doublet: GroundDoublet, corner: int) -> RenormalizedOperators:
    """Project the corner sigma^x and sigma^y onto the ground doublet.

    sigma^x flips one spin, so it is parity-odd and its projection must have
    zero diagonal; a violation means the doublet was not parity-pure and is
    reported instead of silently absorbed. The y projection is evaluated
    through the real matrix of (-i sigma^y): with real doublet vectors,
    <phi1|sigma^y|phi2> = i <phi1|(-i sigma^y)|phi2>, and the pure sigma'^y
    form pins xi_y = -<phi1|(-i sigma^y)|phi2>. Its diagonal vanishes
    identically (the building block is antisymmetric), so no separate check
    is needed there. block_solve takes the same projections in S = d.
    """
    flip, signs = spin_flip(corner, doublet.n_spins)
    x1 = doublet.phi1[flip]  # phi1 @ sx
    x2 = doublet.phi2[flip]
    d1 = float(x1 @ doublet.phi1)
    d2 = float(x2 @ doublet.phi2)
    off = float(x1 @ doublet.phi2)
    off_t = float(x2 @ doublet.phi1)
    if not _is_pure_sigma_x(d1, d2, off, off_t):
        raise _sigma_x_error(d1, d2, off, off_t, corner)
    xi_y = -float((x1 * signs) @ doublet.phi2)
    return RenormalizedOperators(xi_x=off, xi_y=xi_y, corner=corner)


# -- the block memo --------------------------------------------------------


class BlockSolve(NamedTuple):
    """What the flow and the concurrence read off one block at unit J. Since
    H_B(J) = J H_B(1), none of it depends on J."""

    xi_x2: float
    xi_y2: float
    gamma_prime: float
    pair_state: np.ndarray  # reduced state of two corners of phi1, read-only


def clear_cache() -> None:
    """Drop the block memo (tests use this to force a cold solve)."""
    block_solve.cache_clear()


@functools.cache
def block_solve(dimension: int, gamma: float) -> BlockSolve:
    """The block at (J = 1, gamma), solved once per exact (dimension, gamma):
    sweeps and derivative probes revisit the same blocks, and the flow and
    the concurrence share them.

    Everything is read off the two S = d ground vectors of solve_halves,
    2(2d+1) wide, with the corner tables of blocks.CollectiveSpin: the
    projected corner sx and (-i sy), under the same checks as
    renormalized_operators, and the corner-pair state of phi1. No 2^n
    vector is built.
    """
    geometry = block_geometry(dimension)
    spin = collective_spin(geometry)
    ground = solve_halves(CouplingParams(1.0, gamma), spin).ground
    x, y = ground @ spin.corner @ ground.T  # <phi_a|sx|phi_b>, <phi_a|(-i sy)|phi_b>
    d1, d2, off, off_t = float(x[0, 0]), float(x[1, 1]), float(x[0, 1]), float(x[1, 0])
    if not _is_pure_sigma_x(d1, d2, off, off_t):
        site_plus, _site_minus, _axis = interblock_bonds(geometry)[0]  # x-axis representative
        raise _sigma_x_error(d1, d2, off, off_t, site_plus)
    xx = off ** 2
    yy = float(y[0, 1]) ** 2
    tx = (1.0 + gamma) * xx
    ty = (1.0 - gamma) * yy
    if tx + ty <= 1e-300:
        raise QRGError(
            f"renormalized couplings vanished at gamma = {gamma}: t_x + t_y = {tx + ty}"
        )
    gp = (tx - ty) / (tx + ty)
    # the ratio is <= 1 in magnitude up to rounding; clamp only that much
    if 1.0 < abs(gp) <= 1.0 + 1e-12:
        gp = 1.0 if gp > 0 else -1.0
    state = spin.pair_state(ground[0])
    state.flags.writeable = False
    return BlockSolve(xx, yy, gp, state)


def gamma_prime(gamma: float, dimension: int) -> float:
    """The gamma component of the map (J-free)."""
    return block_solve(dimension, gamma).gamma_prime


def rg_map(params: CouplingParams, dimension: int) -> CouplingParams:
    """One coarse-graining step (J, gamma) -> (J', gamma')."""
    solve = block_solve(dimension, params.gamma)
    tx = (params.j / 4.0) * (1.0 + params.gamma) * solve.xi_x2
    ty = (params.j / 4.0) * (1.0 - params.gamma) * solve.xi_y2
    return CouplingParams(j=2.0 * (tx + ty), gamma=solve.gamma_prime)


def rg_trajectory(initial: CouplingParams, dimension: int, n_steps: int) -> RGTrajectory:
    if not 0 <= n_steps <= 64:
        raise ValueError(f"n_steps must be between 0 and 64, got {n_steps}")
    steps = [initial]
    for _ in range(n_steps):
        steps.append(rg_map(steps[-1], dimension))
    return RGTrajectory(dimension=dimension, steps=tuple(steps))


# -- fixed points ----------------------------------------------------------

FP_SLOPE_STEP = 1e-5
_FP_MERGE_TOL = 1e-7
_BISECT_WIDTH = 1e-12


def _bisect(fn, a, b, fa):
    while b - a > _BISECT_WIDTH:
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _fd_slope(root: float, dimension: int) -> float:
    lo = max(root - FP_SLOPE_STEP, -1.0)
    hi = min(root + FP_SLOPE_STEP, 1.0)
    return abs((gamma_prime(hi, dimension) - gamma_prime(lo, dimension)) / (hi - lo))


def fixed_points(dimension: int, grid: int = 401):
    """Roots of gamma' = gamma on [-1, 1] by sign-change bisection, with
    stability read off a finite-difference slope at each root (< 1 stable,
    > 1 unstable). The endpoints +-1 sit exactly on the identity and are
    picked up as exact residual zeros."""
    if grid < 100:
        raise ValueError(f"fixed-point grid needs at least 100 points, got {grid}")
    gs = np.linspace(-1.0, 1.0, grid)
    res = np.array([gamma_prime(g, dimension) - g for g in gs])
    roots = [float(g) for g, r in zip(gs, res) if r == 0.0]
    fn = lambda g: gamma_prime(g, dimension) - g
    for i in range(grid - 1):
        if res[i] * res[i + 1] < 0.0:
            roots.append(float(_bisect(fn, gs[i], gs[i + 1], res[i])))
    merged: list = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > _FP_MERGE_TOL:
            merged.append(r)
    out = []
    for r in merged:
        slope = _fd_slope(r, dimension)
        out.append(FixedPoint(gamma=r, stability="stable" if slope < 1.0 else "unstable", slope=slope))
    return out
