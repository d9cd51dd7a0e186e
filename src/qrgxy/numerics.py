"""Dense real linear algebra: symmetric eigendecomposition, Kronecker
products, and PSD matrix square roots.

Everything is real double precision. Block Hamiltonians, parity projectors
and reduced density matrices are all real symmetric (see pauli / blocks), so
no complex code path exists anywhere in the package. The package's own
eigensolves are at most 8 wide: the parity halves of the collective-spin
blocks of blocks (2d+1 wide for S = d, d^2 - 1 for the merged S < d; the
S = 0 block is zero and never solved) and 4x4 two-spin states. Only
blocks.block_hamiltonian, the output embedding of rgflow.ground_doublet and
the test oracles touch the 2^n basis, 128 wide at most, far below the
enforced ceiling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError

SYMMETRY_RTOL = 1e-12
PSD_CLAMP = 1e-12
MAX_DIM = 1024


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns, same order


def _require_symmetric(a) -> np.ndarray:
    """`a` as a float array of shape (..., n, n), each matrix checked on its
    own; the first that fails is reported with its own scale and entry. An
    exactly symmetric stack passes without the tolerance check."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ContractError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[-1]
    if n > MAX_DIM:
        raise ContractError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if n == 0:
        raise ContractError("matrix is empty")
    if (a == np.swapaxes(a, -1, -2)).all():
        return a  # exactly symmetric: nothing for the tolerance check to report
    stack = a.reshape(-1, n, n)
    scale = np.max(np.abs(stack), axis=(1, 2))
    dev = np.abs(stack - stack.transpose(0, 2, 1)).reshape(len(stack), n * n)
    bad = np.flatnonzero(np.max(dev, axis=1) > SYMMETRY_RTOL * scale)
    if bad.size:
        k = bad[0]
        i, j = divmod(int(np.argmax(dev[k])), n)
        raise ContractError(
            f"matrix not symmetric: |A[{i}][{j}] - A[{j}][{i}]| = {dev[k, i * n + j]:.3e} "
            f"exceeds {SYMMETRY_RTOL:g} * max|A| = {SYMMETRY_RTOL * scale[k]:.3e}"
        )
    return a


def eigh_symmetric(a) -> EigenDecomposition:
    """Full spectrum of a real symmetric matrix, eigenvalues ascending; a
    (..., n, n) stack gives (..., n) eigenvalues and (..., n, n) vectors.

    LAPACK's symmetric solver does the actual work; this wrapper enforces the
    symmetry contract up front and is the single eigensolver entry point for
    the whole package, so every caller gets the same ordering and the same
    orthonormality guarantees.
    """
    a = _require_symmetric(a)
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(w, v)


def eigvalsh_symmetric(a) -> np.ndarray:
    """The eigenvalues alone, ascending, of a real symmetric matrix or a
    (..., n, n) stack, under the same symmetry contract as eigh_symmetric."""
    return np.linalg.eigvalsh(_require_symmetric(a))


def kron(a, b) -> np.ndarray:
    """Kronecker product; result[(i*p+k)][(j*q+l)] = a[i][j] * b[k][l]."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def sqrt_psd(a) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, of one matrix or of
    each matrix in a (..., n, n) stack.

    Eigenvalues in [-1e-12, 0) are rounding debris from density-matrix
    assembly and get clamped to zero; anything more negative is a genuine
    contract violation and raises.
    """
    a = _require_symmetric(a)
    w, v = np.linalg.eigh(a)
    low = w[..., 0].reshape(-1)
    bad = np.flatnonzero(low < -PSD_CLAMP)
    if bad.size:
        raise ContractError(
            f"matrix not PSD: smallest eigenvalue {low[bad[0]]:.6e} is below -{PSD_CLAMP:g}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
