"""Dense real linear algebra: symmetric eigendecomposition and PSD matrix
square roots.

Everything is real double precision. The block Hamiltonians and reduced
density matrices are all real symmetric (see pauli / blocks), so no complex
code path exists anywhere in the package. The pipeline calls nothing
here: it solves the d x d Gram matrices of the even parity half of the
S = d block (blocks.CollectiveSpin), d <= 3, through their secular
equation (rgflow._star_top), with no LAPACK, and its corner-pair
concurrence is a closed form. Only the general tool
concurrence.wootters_concurrence, which the pipeline does not call, takes
a square root and a spectrum of one 4x4 state here, and the tests hold
the secular solve to eigh_symmetric of the same Grams. The symmetry and
finiteness contract is checked once per stack. No Hamiltonian or Pauli
operator on the 2^n basis is built: outside the test oracles, that basis
appears only in the output vectors of rgflow.ground_doublet, 128 wide at
most, far below the enforced ceiling.
"""

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
    """`a` as a finite float array of shape (..., n, n), checked once for the
    whole stack. An exactly symmetric stack skips the tolerance check;
    otherwise the first matrix that fails it is reported with its own scale
    and entry. A NaN entry is never equal to its mirror, so it always
    reaches that check and fails it; an infinite entry can pass it (its
    deviation and the scaled tolerance are both inf), so every entry is
    then checked to be finite and the first that is not is named."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ContractError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[-1]
    if n > MAX_DIM:
        raise ContractError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if n == 0:
        raise ContractError("matrix is empty")
    if np.count_nonzero(a == a.swapaxes(-1, -2)) < a.size:
        stack = a.reshape(-1, n, n)
        scale = np.max(np.abs(stack), axis=(1, 2))
        dev = np.abs(stack - stack.transpose(0, 2, 1)).reshape(len(stack), n * n)
        bad = np.flatnonzero(~(np.max(dev, axis=1) <= SYMMETRY_RTOL * scale))
        if bad.size:
            k = bad[0]
            i, j = divmod(int(np.argmax(dev[k])), n)
            raise ContractError(
                f"matrix not symmetric: |A[{i}][{j}] - A[{j}][{i}]| = {dev[k, i * n + j]:.3e} "
                f"exceeds {SYMMETRY_RTOL:g} * max|A| = {SYMMETRY_RTOL * scale[k]:.3e}"
            )
    finite = np.isfinite(a)
    if np.count_nonzero(finite) < a.size:
        index = np.argwhere(~finite)[0]
        entry = "".join(f"[{int(i)}]" for i in index)
        raise ContractError(f"matrix has a non-finite entry: A{entry} = {a[tuple(index)]}")
    return a


def eigh_symmetric(a) -> EigenDecomposition:
    """Full spectrum of a real symmetric matrix, eigenvalues ascending; a
    (..., n, n) stack gives (..., n) eigenvalues and (..., n, n) vectors.

    LAPACK's symmetric solver does the actual work; this wrapper enforces the
    symmetry and finiteness contract up front, so every caller gets the
    same ordering and the same orthonormality guarantees. The flow does
    not call it (rgflow._star_top): its callers are
    concurrence.wootters_concurrence and the tests.
    """
    a = _require_symmetric(a)
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(w, v)


def sqrt_psd(a) -> np.ndarray:
    """Symmetric PSD square root of one matrix via eigendecomposition.

    Eigenvalues in [-1e-12, 0) are rounding debris from density-matrix
    assembly and get clamped to zero; anything more negative is a genuine
    contract violation and raises.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ContractError(f"sqrt_psd takes one matrix, got shape {a.shape}")
    w, v = np.linalg.eigh(_require_symmetric(a))
    if w[0] < -PSD_CLAMP:
        raise ContractError(f"matrix not PSD: smallest eigenvalue {w[0]:.6e} is below -{PSD_CLAMP:g}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
