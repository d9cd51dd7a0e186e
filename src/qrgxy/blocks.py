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
the ground doublet lies in S = d (6 / 10 / 14 wide). collective_spin holds
the halves, the S = d restrictions of a corner's sx and (-i sy), the
corner-pair state as a quadratic form on S = d, and the map from S = d back
to the 2^n basis, which only output needs. No 2^n matrix is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .pauli import SIGMA_X, SIGMA_Y_REAL, Axis, spin_flip


@dataclass(frozen=True)
class CouplingParams:
    """Couplings at one RG step: finite exchange strength j > 0
    (antiferromagnetic), anisotropy gamma in [-1, 1]."""

    j: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.j < math.inf:
            raise ValueError(f"coupling j must be finite and > 0, got {self.j}")
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
    """

    xx: np.ndarray        # (2, 2d+1, 2d+1): XX_d on its even and its odd half
    yy: np.ndarray        # YY_d likewise
    lower_xx: np.ndarray  # (2, d^2-1, d^2-1): the halves of XX_S, S = 1..d-1, merged block-diagonally
    lower_yy: np.ndarray  # YY_S likewise
    half: np.ndarray      # (2, 2d+1): S = d positions of parity +1, -1
    corner: np.ndarray    # (2, 2(2d+1), 2(2d+1)): one corner's sx and (-i sy) restricted to S = d
    pair: np.ndarray      # (4, 4, 2(2d+1), 2(2d+1)): two corners' reduced state, a quadratic form on S = d
    column: np.ndarray    # (2^n,): S = d position of each full-basis state
    weight: np.ndarray    # (2^n,): its amplitude 1/sqrt(C(2d, k)) in that Dicke state

    def hamiltonians(self, params: CouplingParams) -> Tuple[np.ndarray, np.ndarray]:
        """H_B on the two S = d halves and on the merged S = 1..d-1 halves."""
        return tuple(
            (params.j / 4.0) * ((1.0 + params.gamma) * xx + (1.0 - params.gamma) * yy)
            for xx, yy in ((self.xx, self.yy), (self.lower_xx, self.lower_yy))
        )

    def pair_state(self, vector: np.ndarray) -> np.ndarray:
        """Reduced 4x4 state, legs (i, j), of any two corners of a normalized
        S = d vector; its corner parts are Dicke states, the same for every
        pair."""
        return self.pair @ vector @ vector


def _spin_operators(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """(2 Sx, -i 2 Sy) for spin s in the basis k = s - M, both real.

    S+ lowers k with the standard positive coefficient
    sqrt(S(S+1) - M(M+1)) = sqrt(k (2s + 1 - k)).
    """
    k = np.arange(1, 2 * s + 1)
    raise_ = np.diag(np.sqrt(k * (2 * s + 1 - k)), 1)
    return raise_ + raise_.T, raise_.T - raise_


def _halves(s: int) -> np.ndarray:
    """(2, 2s+1): the positions of parity (-1)^(c+k) = +1 and -1 in the
    spin-s block."""
    c, k = np.divmod(np.arange(2 * (2 * s + 1)), 2 * s + 1)
    even = (c + k) % 2 == 0
    return np.stack([np.flatnonzero(even), np.flatnonzero(~even)])


def _pair_form(d: int) -> np.ndarray:
    """The reduced state of two of the N = 2d corners as a quadratic form
    in the S = d amplitudes, from the Dicke coefficients (Wang and Molmer,
    Eur. Phys. J. D 18, 385 (2002)). A pair leg state meets the rest of D_k
    with amplitude 1/sqrt(C(N, k)) on each of C(N-2, k - #down legs) rest
    states, so pair entry (a, b) joins D_k to D_(k+q), q = #down(b) -
    #down(a), with weight C(N-2, k - #down(a)) / sqrt(C(N, k) C(N, k+q)).
    The center is traced out, so only equal center states meet."""
    n, m = 2 * d, 2 * d + 1
    k = np.arange(m)
    hop = np.sqrt((n - k) * (k + 1.0))
    entries = (  # ((a, b), q, weight times C(N, 2), over k)
        ((0, 0), 0, (n - k) * (n - k - 1)),
        ((1, 1), 0, k * (n - k)),
        ((2, 2), 0, k * (n - k)),
        ((1, 2), 0, k * (n - k)),
        ((3, 3), 0, k * (k - 1)),
        ((0, 1), 1, (n - k - 1) * hop),
        ((0, 2), 1, (n - k - 1) * hop),
        ((1, 3), 1, k * hop),
        ((2, 3), 1, k * hop),
        ((0, 3), 2, np.sqrt((n - k) * (n - k - 1) * (k + 1.0) * (k + 2.0))),
    )
    form = np.zeros((4, 4, 2 * m, 2 * m))
    for (a, b), q, w in entries:
        for c in (0, 1):
            i = c * m + k[: m - q]
            form[a, b, i, i + q] = form[b, a, i, i + q] = w[: m - q] / (n * (n - 1))
    return form


def _split_halves(block: np.ndarray, s: int) -> np.ndarray:
    """(2, 2s+1, 2s+1): the even and the odd half of a spin-s block."""
    return np.stack([block[np.ix_(h, h)] for h in _halves(s)])


def _merged_halves(blocks) -> np.ndarray:
    """(2, w, w): the even halves of the spin-S blocks S = 1, 2, ... on the
    diagonal of one matrix, their odd halves on the diagonal of another."""
    parts = [_split_halves(b, s) for s, b in enumerate(blocks, start=1)]
    width = sum(p.shape[-1] for p in parts)
    out = np.zeros((2, width, width))
    start = 0
    for p in parts:
        stop = start + p.shape[-1]
        out[:, start:stop, start:stop] = p
        start = stop
    return out


@functools.cache
def _collective_spin(dimension: int) -> CollectiveSpin:
    geometry = block_geometry(dimension)
    d, n = geometry.dimension, geometry.n_sites
    xx, yy = [], []
    for s in range(1, d + 1):
        two_sx, k_two_sy = _spin_operators(s)
        xx.append(np.kron(SIGMA_X, two_sx))
        yy.append(-np.kron(SIGMA_Y_REAL, k_two_sy))
    two_sx, k_two_sy = _spin_operators(d)
    corner = np.stack([np.kron(np.eye(2), two_sx), np.kron(np.eye(2), k_two_sy)]) / (2 * d)
    down = {site: spin_flip(site, n)[1] < 0 for site in range(n)}
    k_down = sum(down[c.site] for c in geometry.corners)
    column = down[geometry.center] * (2 * d + 1) + k_down
    weight = 1.0 / np.sqrt(np.bincount(column)[column])  # C(2d, k) states share (c, k)
    spin = CollectiveSpin(
        xx=_split_halves(xx[-1], d),
        yy=_split_halves(yy[-1], d),
        lower_xx=_merged_halves(xx[:-1]),
        lower_yy=_merged_halves(yy[:-1]),
        half=_halves(d),
        corner=corner,
        pair=_pair_form(d),
        column=column,
        weight=weight,
    )
    for arr in spin:
        arr.flags.writeable = False
    return spin


def collective_spin(geometry: BlockGeometry) -> CollectiveSpin:
    """The S blocks, the S = d corner tables and the S = d embedding of the
    geometry's dimension, built once per dimension.

    sy_c sy_k = -(K_c K_k) with the real K = -i sy, so YY_S is the real
    -(K (x) (-i 2 Sy)). A corner's sx restricted to S = d is 2 Sx / (2d), and
    likewise (-i sy), since every S = d state is symmetric in the corners.
    Whether a site of a full-basis state is down is read off the signs of
    pauli.spin_flip.
    """
    return _collective_spin(geometry.dimension)


def interblock_bonds(geometry: BlockGeometry):
    """One representative corner-corner bond per lattice axis: the (axis, +)
    corner of a block meets the (axis, -) corner of the next block along that
    axis. Returned as (site_plus, site_minus, axis) with sites indexed within
    each block."""
    plus = {c.axis: c.site for c in geometry.corners if c.sign > 0}
    minus = {c.axis: c.site for c in geometry.corners if c.sign < 0}
    return [(plus[ax], minus[ax], ax) for ax in _AXES[: geometry.dimension]]
