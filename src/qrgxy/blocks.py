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

from .pauli import Axis, two_site_term


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


@functools.cache
def _bond_sums(geometry: BlockGeometry) -> Tuple[np.ndarray, np.ndarray]:
    """XX = sum over center-corner bonds of sx sx, and YY likewise for sy sy;
    built once per geometry and returned read-only."""
    n = geometry.n_sites
    xx = np.zeros((2 ** n, 2 ** n))
    yy = np.zeros((2 ** n, 2 ** n))
    for center, corner, _axis in geometry.intra_bonds:
        xx += two_site_term(Axis.X, center, corner, n)
        yy += two_site_term(Axis.Y, center, corner, n)
    xx.flags.writeable = False
    yy.flags.writeable = False
    return xx, yy


def block_hamiltonian(params: CouplingParams, geometry: BlockGeometry) -> np.ndarray:
    """H_B = (J/4) * sum over center-corner bonds of
    [(1+gamma) sx sx + (1-gamma) sy sy] = (J/4) * [(1+gamma) XX + (1-gamma) YY].

    The anisotropy enters with opposite signs on the x and y pair terms
    (gamma_x = +gamma, gamma_y = -gamma). Real symmetric, traceless,
    dimension 2^n_sites. Summing the bonds first is exact: distinct bonds flip
    distinct spin pairs, so every matrix entry gets exactly one bond's term.
    """
    xx, yy = _bond_sums(geometry)
    return (params.j / 4.0) * ((1.0 + params.gamma) * xx + (1.0 - params.gamma) * yy)


def interblock_bonds(geometry: BlockGeometry):
    """One representative corner-corner bond per lattice axis: the (axis, +)
    corner of a block meets the (axis, -) corner of the next block along that
    axis. Returned as (site_plus, site_minus, axis) with sites indexed within
    each block."""
    plus = {c.axis: c.site for c in geometry.corners if c.sign > 0}
    minus = {c.axis: c.site for c in geometry.corners if c.sign < 0}
    return [(plus[ax], minus[ax], ax) for ax in _AXES[: geometry.dimension]]
