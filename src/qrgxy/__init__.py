"""Block-spin renormalization of the spin-1/2 XY chain and its 2D/3D
square/cubic-lattice analogues.

The package follows one pipeline: find the degenerate ground doublet of a
single block of 2d + 1 spins from its coupling tables in the collective
corner spin (no Hamiltonian matrix is built), project onto it to obtain
the renormalized couplings (gamma', j'), iterate that map, and read the
concurrence between two corner spins of the doublet state along the flow
off the closed form of an X state. The divergence of dC/dgamma at the
isotropic point gamma = 0 is then fit against the effective system size
to extract the entanglement-scaling exponent.

Everything is real arithmetic: the Hamiltonians here have an even number of
sigma^y factors per term, so all matrices are real symmetric.
"""

from .blocks import (
    BlockGeometry,
    CouplingParams,
    block_geometry,
    interblock_bonds,
)
from .concurrence import (
    ConcurrenceCurve,
    block_concurrence,
    concurrence_curve,
    concurrence_curves,
    concurrence_j_sweep,
    flowed_concurrence,
    flowed_concurrences,
    partial_trace_pair,
    wootters_concurrence,
)
from .errors import (
    ConfigError,
    ContractError,
    DegeneracyError,
    QRGError,
    ScalingUnderflowError,
    StructureError,
)
from .numerics import EigenDecomposition, eigh_symmetric, sqrt_psd
from .pauli import Axis, basis_label, spin_flip
from .rgflow import (
    FixedPoint,
    GroundDoublet,
    RGTrajectory,
    fixed_points,
    gamma_prime,
    ground_doublet,
    rg_map,
    rg_trajectory,
    solve_many,
)
from .scaling import (
    DerivativeCurve,
    ExponentEstimate,
    ScalingFit,
    derivative_curve,
    derivative_scaling,
    entanglement_exponent,
    fit_loglog,
    locate_max,
    peak_points,
    system_size,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BlockGeometry",
    "ConcurrenceCurve",
    "ConfigError",
    "ContractError",
    "CouplingParams",
    "DegeneracyError",
    "DerivativeCurve",
    "EigenDecomposition",
    "ExponentEstimate",
    "FixedPoint",
    "GroundDoublet",
    "QRGError",
    "RGTrajectory",
    "ScalingFit",
    "ScalingUnderflowError",
    "StructureError",
    "basis_label",
    "block_concurrence",
    "block_geometry",
    "concurrence_curve",
    "concurrence_curves",
    "concurrence_j_sweep",
    "derivative_curve",
    "derivative_scaling",
    "eigh_symmetric",
    "entanglement_exponent",
    "fit_loglog",
    "fixed_points",
    "flowed_concurrence",
    "flowed_concurrences",
    "gamma_prime",
    "ground_doublet",
    "interblock_bonds",
    "locate_max",
    "partial_trace_pair",
    "peak_points",
    "rg_map",
    "rg_trajectory",
    "solve_many",
    "spin_flip",
    "sqrt_psd",
    "system_size",
    "wootters_concurrence",
]
