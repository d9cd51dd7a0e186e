"""Exception types shared across the package.

Numerical-contract failures (lost degeneracy, malformed projected operators)
are kept distinct from plain configuration mistakes so the CLI can map them
onto stable exit codes (3 and 2 respectively).
"""


class QRGError(Exception):
    """Base class for all library-specific failures."""


class ContractError(QRGError):
    """A matrix violated a structural precondition (shape, symmetry, PSD-ness,
    normalization)."""


class DegeneracyError(QRGError):
    """The two lowest block levels did not form an isolated doublet."""


class StructureError(QRGError):
    """The ground doublet or a projected operator lost its required form
    (one even and one odd level, pure sigma'^x / sigma'^y structure), or a
    collective-spin table broke the spin-flip symmetry the solve rests on."""


class ScalingUnderflowError(QRGError):
    """A peak position collapsed onto the critical point beyond the
    resolvable threshold, so its log-distance cannot enter a fit."""


class ConfigError(QRGError):
    """Invalid run configuration (CLI flags or config file)."""
