"""Exception hierarchy shared across the package.

The CLI maps ZentropyError (and subclasses) to exit code 1, and
configuration/input problems (ConfigError, or the ValueError of a range
check on a config value) to exit code 2.
"""


class ZentropyError(Exception):
    """Base class for runtime invariant violations in zentropy."""


class InvalidDistributionError(ZentropyError):
    """Probability vector is negative, mis-sized, or off-normalized."""


class EmptyCountsError(ZentropyError):
    """Entropy estimation requested on a count vector with total 0."""


class InvalidAlphaError(ZentropyError):
    """Renyi order must be positive and different from 1."""


class UnsupportedBackendError(ZentropyError):
    """Model cannot serve the requested estimation back-end."""


class SamplingUnsupportedError(UnsupportedBackendError):
    """Model cannot sample future outcomes."""


class EventNotAdmissibleError(ZentropyError):
    """Event is not in the model's event space at t0."""


class EmptyBaselineError(ZentropyError):
    """Uniform/weighted baseline declared with no alternatives."""


class EventInBaselineError(ZentropyError):
    """The evaluated event appears among its own baseline alternatives."""


class ZeroEvidenceError(ZentropyError):
    """Observed outcome has zero likelihood under the entire prior grid."""


class CellIsWallError(ZentropyError):
    """Grid operation addressed a wall cell."""


class MissingRunError(ZentropyError):
    """Report requested on a directory without a usable run."""


class ConfigError(Exception):
    """Configuration or input file problem (CLI exit code 2)."""
