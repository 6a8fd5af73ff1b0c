"""Exception hierarchy for the ccl package."""


class CclError(Exception):
    """Base class for all ccl errors."""


class InvalidArgumentError(CclError, ValueError):
    """Degenerate, non-finite, or otherwise malformed input."""


class UnsupportedGroupError(CclError, ValueError):
    """Group type outside the supported catalog."""


class NonFiniteSystemError(CclError):
    """Root closure did not terminate; the Gram input is not positive definite."""


class GroupTooLargeError(CclError):
    """Group enumeration exceeded the configured element cap."""


class DegenerateConeError(CclError):
    """Cone construction produced linearly dependent generators."""


class NumericalError(CclError):
    """An internal numerical consistency check failed (a runtime fault, not
    a usage error)."""


class GenericityError(CclError):
    """Generic point sampler exhausted its resample budget."""


class CacheError(CclError):
    """Cache file unreadable or produced by an incompatible schema version."""
