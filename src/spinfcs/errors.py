"""Exception types raised across the package."""


class SpinFcsError(ValueError):
    """Base class for all package errors."""


class SectorMismatchError(SpinFcsError):
    """A bitstring's excitation count does not match the sector's."""


class EnumerationCapError(SpinFcsError):
    """A run would hold more bytes than `ensemble.check_memory` admits, on
    the exact, noiseless or noisy route."""


class UndefinedAnisotropyError(SpinFcsError):
    """sin(theta) = 0, so the anisotropy ratio is undefined."""


class UndefinedMomentsError(SpinFcsError):
    """Skewness/kurtosis requested for a distribution with zero variance."""


class DegenerateWeightError(SpinFcsError):
    """A weighted average received a zero or negative uncertainty."""


class ConfigError(SpinFcsError):
    """A run configuration is malformed; the message names the key."""


class InvariantError(SpinFcsError):
    """A computed result breaks an invariant it must hold exactly, such as
    normalization or light-cone support; this is an internal error."""


class SchemaError(SpinFcsError):
    """A stored data file does not match the documented schema."""
