"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: a ValidationError exits 1, a
NumericalError 2; a verify row past its threshold exits 3, no exception.
"""


class SusyRabiError(Exception):
    """Base class for all package errors."""


class ValidationError(SusyRabiError):
    """Bad user input: parameters, config keys, dimension mismatches."""


class DimensionError(ValidationError):
    """Matrix dimensions incompatible or above the configured maximum."""


class ConfigError(ValidationError):
    """Malformed or out-of-range run configuration."""


class NumericalError(SusyRabiError):
    """A computation could not be completed reliably."""


class SolverError(NumericalError):
    """Eigensolver failed to converge."""


class TruncationError(NumericalError):
    """Fock truncation too small for the requested amplitudes."""


class InvalidBetaError(NumericalError):
    """Witten-index Boltzmann tail too large for the given beta / level count."""
