"""Kadanoff block geometry and the XY block Hamiltonian in d = 1, 2, 3.

A block is a star of 2d+1 spins: one center coupled to 2d corners, one corner
on each side of each lattice axis. Blocks tile the lattice and adjacent
blocks touch through corner spins only, so the corners are the spins that
mediate interblock bonds.

Site numbering is frozen once here: d=1 uses line order (0, 1, 2) with the
center in the middle; d=2 and d=3 put the center first, then the corner pairs
in axis order (x-, x+, y-, y+, z-, z+). Ground-state amplitude dumps and the
reference-state comparisons in the tests depend on this ordering bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .pauli import Axis, parity_signs, spin_flip


@dataclass(frozen=True)
class CouplingParams:
    """Couplings at one RG step: exchange strength j > 0 (antiferromagnetic),
    anisotropy gamma in [-1, 1]."""

    j: float
    gamma: float

    def __post_init__(self):
        if not self.j > 0:
            raise ValueError(f"coupling j must be > 0, got {self.j}")
        if not abs(self.gamma) <= 1:
            raise ValueError(f"anisotropy gamma must lie in [-1, 1], got {self.gamma}")


class Corner(NamedTuple):
    site: int
    axis: Axis
    sign: int  # -1 or +1 side of the axis


@dataclass(frozen=True)
class BlockGeometry:
    dimension: int
    n_sites: int
    center: int
    corners: Tuple[Corner, ...]
    intra_bonds: Tuple[Tuple[int, int, Axis], ...]  # (center, corner, axis)


_AXES = (Axis.X, Axis.Y, Axis.Z)


def block_geometry(dimension: int) -> BlockGeometry:
    if dimension == 1:
        center = 1
        corners = (Corner(0, Axis.X, -1), Corner(2, Axis.X, +1))
    elif dimension in (2, 3):
        center = 0
        corners = tuple(
            Corner(1 + 2 * k + (1 if sign > 0 else 0), _AXES[k], sign)
            for k in range(dimension)
            for sign in (-1, +1)
        )
    else:
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    bonds = tuple((center, c.site, c.axis) for c in corners)
    return BlockGeometry(
        dimension=dimension,
        n_sites=2 * dimension + 1,
        center=center,
        corners=corners,
        intra_bonds=bonds,
    )


class ParitySectors(NamedTuple):
    """The bond sums XX = sum of sx sx and YY = sum of sy sy over the
    center-corner bonds, restricted to the block's two parity sectors and
    stacked on a leading axis: 0 even, 1 odd."""

    index: np.ndarray  # (2, m) full-basis indices of each sector, ascending
    xx: np.ndarray     # (2, m, m)
    yy: np.ndarray     # (2, m, m)

    def hamiltonian(self, params: CouplingParams) -> np.ndarray:
        """(2, m, m): H_B restricted to each sector."""
        return (params.j / 4.0) * ((1.0 + params.gamma) * self.xx + (1.0 - params.gamma) * self.yy)


@functools.cache
def parity_sectors(geometry: BlockGeometry) -> ParitySectors:
    """Both parity sectors of the block, read-only, m = 2^(n-1) wide; built
    once per geometry.

    Every bond flips two spins, so XX and YY do not mix the sectors. The
    restrictions are filled straight from the bond flips: sx_c sx_k sends
    basis state i to i with both spins flipped with weight +1, and
    sy_c sy_k = -(K_c K_k), K = -i sy, with weight -(sign_c sign_k). Distinct
    bonds flip distinct spin pairs, so every entry gets one bond's term.
    """
    n = geometry.n_sites
    parity = parity_signs(n)
    index = np.stack([np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)])
    m = index.shape[1]
    position = np.empty(2 ** n, dtype=np.intp)
    position[index] = np.arange(m)
    xx = np.zeros((2, m, m))
    yy = np.zeros((2, m, m))
    sector, cols = np.arange(2)[:, None], np.arange(m)
    for center, corner, _axis in geometry.intra_bonds:
        (flip_c, signs_c), (flip_k, signs_k) = spin_flip(center, n), spin_flip(corner, n)
        rows = position[flip_c[flip_k[index]]]
        xx[sector, rows, cols] = 1.0
        yy[sector, rows, cols] = -(signs_c[index] * signs_k[index])
    for arr in (index, xx, yy):
        arr.flags.writeable = False
    return ParitySectors(index, xx, yy)


def block_hamiltonian(params: CouplingParams, geometry: BlockGeometry) -> np.ndarray:
    """H_B = (J/4) * sum over center-corner bonds of
    [(1+gamma) sx sx + (1-gamma) sy sy] = (J/4) * [(1+gamma) XX + (1-gamma) YY].

    The anisotropy enters with opposite signs on the x and y pair terms
    (gamma_x = +gamma, gamma_y = -gamma). Real symmetric, traceless,
    dimension 2^n_sites: the two sector blocks of parity_sectors placed in a
    fresh matrix, zero between the sectors.
    """
    sectors = parity_sectors(geometry)
    h = np.zeros((2 ** geometry.n_sites,) * 2)
    for index, block in zip(sectors.index, sectors.hamiltonian(params)):
        h[np.ix_(index, index)] = block
    return h


def interblock_bonds(geometry: BlockGeometry):
    """One representative corner-corner bond per lattice axis: the (axis, +)
    corner of a block meets the (axis, -) corner of the next block along that
    axis. Returned as (site_plus, site_minus, axis) with sites indexed within
    each block."""
    plus = {c.axis: c.site for c in geometry.corners if c.sign > 0}
    minus = {c.axis: c.site for c in geometry.corners if c.sign < 0}
    return [(plus[ax], minus[ax], ax) for ax in _AXES[: geometry.dimension]]
