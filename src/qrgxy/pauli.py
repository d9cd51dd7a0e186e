"""Single-spin Pauli matrices and the spin-flip maps of n-spin registers,
kept strictly real.

Basis convention, frozen package-wide: a basis index i on n spins stores the
state of spin k in bit (n-1-k) of i, so spin 0 is the most significant bit
and the leftmost arrow of a ket label; bit value 0 means up. Equivalently,
spin 0 is the first Kronecker factor.

sigma^y never appears alone here. The XY Hamiltonian only contains the pair
products sigma^x sigma^x and sigma^y sigma^y, and the latter is real because
the two imaginary units multiply out: sy sy = -(K K) with the real matrix
K = -i sigma^y, SIGMA_Y_REAL. No n-spin operator matrix is built here;
spin_flip gives the action of a one-site sigma^x or K on a 2^n vector as an
index permutation and a sign vector.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Tuple

import numpy as np


class Axis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# real matrix of (-i sigma^y); antisymmetric
SIGMA_Y_REAL = np.array([[0.0, -1.0], [1.0, 0.0]])

MAX_SPINS = 7


def _check_sites(n_spins: int, *sites: int) -> None:
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be between 1 and {MAX_SPINS}, got {n_spins}")
    for s in sites:
        if not 0 <= s < n_spins:
            raise ValueError(f"site {s} out of range for {n_spins} spins")


@functools.cache
def spin_flip(site: int, n_spins: int) -> Tuple[np.ndarray, np.ndarray]:
    """(flip, signs), read-only: for any vector v, v[flip] is v times the
    sigma^x of this site and v[flip] * signs is v times its (-i sigma^y),
    exactly. Both operators send each basis state to the one with this spin
    flipped, sigma^x with sign +1 and (-i sigma^y) with -1 where the spin is
    down."""
    _check_sites(n_spins, site)
    index = np.arange(2 ** n_spins)
    bit = 1 << (n_spins - 1 - site)
    flip = index ^ bit
    signs = np.where(index & bit, -1.0, 1.0)
    flip.flags.writeable = False
    signs.flags.writeable = False
    return flip, signs


def basis_label(index: int, n_spins: int) -> str:
    """Arrow string of a basis index; leftmost arrow is spin 0, up = bit 0."""
    if not 0 <= index < 2 ** n_spins:
        raise ValueError(f"basis index {index} out of range for {n_spins} spins")
    bits = format(index, f"0{n_spins}b")
    return "".join("↑" if b == "0" else "↓" for b in bits)
