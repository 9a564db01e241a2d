"""Exception types shared across the package."""


class SusyhierError(Exception):
    """Base class for all package-specific errors."""


class InvalidModelError(SusyhierError, ValueError):
    """Model parameters violate a constructor constraint (non-finite, wrong sign, ...)."""


class PoleOnDomainError(SusyhierError, ValueError):
    """A rational potential has a denominator zero on (or within tolerance of) the domain."""


class ZeroOmegaError(InvalidModelError):
    """The frequency-shifted Morse form degenerates at omega = 0."""


class UnsupportedFamilyError(SusyhierError, TypeError):
    """The requested operation is not defined for this potential family."""


class DegenerateQuadraticError(SusyhierError, ValueError):
    """Coefficient matching has no solution because the leading coefficient vanishes."""


class NotNormalizableError(SusyhierError, ValueError):
    """The requested bound-state wavefunction fails the admissibility condition."""


class NotConvergedError(SusyhierError, ValueError):
    """An eigensolver's iteration (LAPACK) did not converge."""


class GridTooCoarseError(SusyhierError, ValueError):
    """The grid has too few points for a meaningful discretization."""


class ConfigError(SusyhierError, ValueError):
    """Run configuration file is malformed or contains unknown keys."""
