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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .blocks import BlockGeometry, CouplingParams, block_geometry, block_hamiltonian, interblock_bonds
from .errors import DegeneracyError, QRGError, StructureError
from .numerics import eigh_symmetric
from .pauli import parity_operator, spin_flip

DEGENERACY_RTOL = 1e-8   # doublet splitting tolerance, relative to spectral spread
PARITY_TOL = 1e-9
STRUCTURE_TOL = 1e-9


@dataclass(frozen=True)
class GroundDoublet:
    """Two orthonormal degenerate ground vectors, split by parity.

    phi1 is the even-parity member, phi2 the odd one; both carry the sign
    gauge that makes their largest-magnitude amplitude positive, so repeated
    runs reproduce identical vectors.
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
    # first entry of largest magnitude made positive: reproducible gauge
    idx = int(np.argmax(np.abs(vec)))
    return vec if vec[idx] > 0 else -vec


@functools.cache
def _parity_signs(n_spins: int) -> np.ndarray:
    signs = np.diagonal(parity_operator(n_spins)).copy()
    signs.flags.writeable = False
    return signs


def ground_doublet(params: CouplingParams, geometry: BlockGeometry) -> GroundDoublet:
    """Diagonalize the block and rotate the two lowest states into parity
    eigenstates.

    A generic eigensolver returns an arbitrary rotation within the degenerate
    ground plane; diagonalizing the 2x2 restriction of the parity operator to
    that plane picks the unique even/odd pair, which is what makes the
    projected corner operators come out in pure sigma'^x / sigma'^y form.
    """
    h = block_hamiltonian(params, geometry)
    w, v = eigh_symmetric(h)
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
    plane = v[:, :2]
    m = plane.T @ (_parity_signs(geometry.n_sites)[:, None] * plane)
    mw, mv = np.linalg.eigh(m)
    if abs(mw[0] + 1.0) > PARITY_TOL or abs(mw[1] - 1.0) > PARITY_TOL:
        raise StructureError(
            f"ground plane is not parity invariant: restricted parity eigenvalues "
            f"({mw[0]:.12g}, {mw[1]:.12g}) instead of (-1, +1)"
        )
    rotated = plane @ mv
    phi2 = _fix_sign(rotated[:, 0])  # parity -1
    phi1 = _fix_sign(rotated[:, 1])  # parity +1
    return GroundDoublet(
        energy=float(w[0]),
        phi1=phi1,
        phi2=phi2,
        gap_to_third=gap,
        n_spins=geometry.n_sites,
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
    is needed there.
    """
    flip, signs = spin_flip(corner, doublet.n_spins)
    x1 = doublet.phi1[flip]  # phi1 @ sx
    x2 = doublet.phi2[flip]
    d1 = float(x1 @ doublet.phi1)
    d2 = float(x2 @ doublet.phi2)
    off = float(x1 @ doublet.phi2)
    off_t = float(x2 @ doublet.phi1)
    if max(abs(d1), abs(d2)) > STRUCTURE_TOL or abs(off - off_t) > STRUCTURE_TOL:
        raise StructureError(
            f"projected sigma^x at site {corner} is not proportional to sigma'^x: "
            f"diagonal ({d1:.3e}, {d2:.3e}), off-diagonals ({off:.12g}, {off_t:.12g})"
        )
    xi_y = -float((x1 * signs) @ doublet.phi2)
    return RenormalizedOperators(xi_x=off, xi_y=xi_y, corner=corner)


# -- memoized flow coefficients -------------------------------------------
#
# gamma sweeps re-solve identical blocks thousands of times; the doublet and
# its xi^2 pair depend on (dimension, gamma) only (J rescales H_B without
# touching eigenvectors, and enters the map analytically), so they are cached
# under the gamma value rounded to 12 decimals.

_CACHE: dict = {}
CACHE_GAMMA_DECIMALS = 12


def clear_cache() -> None:
    """Drop memoized flow coefficients (tests use this to force genuinely
    cold recomputation, e.g. when checking J-independence)."""
    _CACHE.clear()


def _flow_coefficients(dimension: int, gamma: float):
    """(xi_x^2, xi_y^2, gamma') for one block at unit J."""
    key = (dimension, round(float(gamma), CACHE_GAMMA_DECIMALS))
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    geometry = block_geometry(dimension)
    doublet = ground_doublet(CouplingParams(1.0, gamma), geometry)
    site_plus, _site_minus, _axis = interblock_bonds(geometry)[0]  # x-axis representative
    ops = renormalized_operators(doublet, site_plus)
    xx = ops.xi_x ** 2
    yy = ops.xi_y ** 2
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
    result = (xx, yy, gp)
    _CACHE[key] = result
    return result


def gamma_prime(gamma: float, dimension: int) -> float:
    """The gamma component of the map (J-free)."""
    return _flow_coefficients(dimension, gamma)[2]


def rg_map(params: CouplingParams, dimension: int) -> CouplingParams:
    """One coarse-graining step (J, gamma) -> (J', gamma')."""
    xx, yy, gp = _flow_coefficients(dimension, params.gamma)
    tx = (params.j / 4.0) * (1.0 + params.gamma) * xx
    ty = (params.j / 4.0) * (1.0 - params.gamma) * yy
    return CouplingParams(j=2.0 * (tx + ty), gamma=gp)


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
