"""Exception types raised across the package."""


class SpinFcsError(ValueError):
    """Base class for all package errors."""


class SectorMismatchError(SpinFcsError):
    """A bitstring's excitation count does not match the sector's."""


class ConservationError(SpinFcsError):
    """An initial/final bitstring pair violates number conservation."""


class UnderResolvedError(SpinFcsError):
    """The chain is shorter than the light cone (n_qubits < 2*cycles)."""


class EnumerationCapError(SpinFcsError):
    """The exact enumeration would exceed the configured site cap."""


class UndefinedAnisotropyError(SpinFcsError):
    """sin(theta) = 0, so the anisotropy ratio is undefined."""


class BranchSolutionError(SpinFcsError):
    """No (eta, lambda) solution exists in the declared branch."""


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
