"""Pauli operators on n-spin registers, kept strictly real.

Basis convention, frozen package-wide: a basis index i on n spins stores the
state of spin k in bit (n-1-k) of i, so spin 0 is the most significant bit
and the leftmost arrow of a ket label; bit value 0 means up. Equivalently,
spin 0 is the first Kronecker factor.

sigma^y never appears alone here. The XY Hamiltonian only contains the pair
products sigma^x sigma^x and sigma^y sigma^y, and the latter is real because
the two imaginary units multiply out; it is assembled from the real matrix of
(-i sigma^y). Asking for a standalone y embedding raises instead of returning
a wrong real matrix.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import RealArithmeticError
from .numerics import kron


class Axis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# real matrix of (-i sigma^y); antisymmetric
SIGMA_Y_REAL = np.array([[0.0, -1.0], [1.0, 0.0]])

MAX_SPINS = 7


def _check_sites(n_spins: int, *sites: int) -> None:
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be between 1 and {MAX_SPINS}, got {n_spins}")
    for s in sites:
        if not 0 <= s < n_spins:
            raise ValueError(f"site {s} out of range for {n_spins} spins")


def _single_site(op2: np.ndarray, site: int, n_spins: int) -> np.ndarray:
    out = np.array([[1.0]])
    for k in range(n_spins):
        out = kron(out, op2 if k == site else np.eye(2))
    return out


def embed_pauli(axis: Axis, site: int, n_spins: int) -> np.ndarray:
    """sigma^axis at one site, identity elsewhere.

    axis = Y is deliberately unsupported: sigma^y alone is imaginary. y-type
    interactions enter only through two_site_term, and the doublet projection
    uses embed_y_real.
    """
    _check_sites(n_spins, site)
    if axis is Axis.Y:
        raise RealArithmeticError(
            "standalone sigma^y embedding is imaginary and unsupported in the "
            "real-arithmetic pipeline; use two_site_term(Axis.Y, ...) or embed_y_real"
        )
    op = SIGMA_X if axis is Axis.X else SIGMA_Z
    return _single_site(op, site, n_spins)


def embed_y_real(site: int, n_spins: int) -> np.ndarray:
    """The real antisymmetric matrix of (-i sigma^y) at one site.

    Any expression with an even number of sigma^y factors can be rewritten in
    terms of this block; two_site_term does so for the yy pair and the rg flow
    uses it to project sigma^y_corner onto the ground doublet.
    """
    _check_sites(n_spins, site)
    return _single_site(SIGMA_Y_REAL, site, n_spins)


@functools.cache
def spin_flip(site: int, n_spins: int) -> Tuple[np.ndarray, np.ndarray]:
    """(flip, signs), read-only, with v @ embed_pauli(Axis.X, site, n_spins)
    == v[flip] and v @ embed_y_real(site, n_spins) == v[flip] * signs
    exactly for any vector v: both operators send each basis state to the one
    with this spin flipped, sigma^x with sign +1 and (-i sigma^y) with -1
    where the spin is down."""
    _check_sites(n_spins, site)
    index = np.arange(2 ** n_spins)
    bit = 1 << (n_spins - 1 - site)
    flip = index ^ bit
    signs = np.where(index & bit, -1.0, 1.0)
    flip.flags.writeable = False
    signs.flags.writeable = False
    return flip, signs


def two_site_term(axis: Axis, site_a: int, site_b: int, n_spins: int) -> np.ndarray:
    """Real symmetric matrix of sigma^axis_a sigma^axis_b, axis in {X, Y}."""
    _check_sites(n_spins, site_a, site_b)
    if site_a == site_b:
        raise ValueError(f"coincident sites: {site_a}")
    if axis is Axis.X:
        return _single_site(SIGMA_X, site_a, n_spins) @ _single_site(SIGMA_X, site_b, n_spins)
    if axis is Axis.Y:
        # sigma^y_a sigma^y_b = -[(-i sigma^y)_a] [(-i sigma^y)_b]
        return -(
            _single_site(SIGMA_Y_REAL, site_a, n_spins)
            @ _single_site(SIGMA_Y_REAL, site_b, n_spins)
        )
    raise ValueError("two-site terms are defined for axes X and Y only")


def parity_operator(n_spins: int) -> np.ndarray:
    """diag((-1)^popcount(i)): +1 on basis states with an even number of
    down spins.

    This is the product of sigma^z over all sites; it commutes with every
    block Hamiltonian and labels the two members of the ground doublet.
    """
    _check_sites(n_spins)
    return np.diag([(-1.0) ** (i.bit_count() & 1) for i in range(2 ** n_spins)])


def basis_label(index: int, n_spins: int) -> str:
    """Arrow string of a basis index; leftmost arrow is spin 0, up = bit 0."""
    if not 0 <= index < 2 ** n_spins:
        raise ValueError(f"basis index {index} out of range for {n_spins} spins")
    bits = format(index, f"0{n_spins}b")
    return "".join("↑" if b == "0" else "↓" for b in bits)
