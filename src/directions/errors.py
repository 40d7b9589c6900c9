"""Exception hierarchy shared by all modules.

The CLI maps these to exit codes: ResourceError -> 2, any other
DirectionsError (or an OSError from an output file) -> 1, argparse usage
errors -> 64.
"""


class DirectionsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DirectionsError):
    """Input violates a documented precondition."""


class ResourceError(DirectionsError):
    """Requested computation exceeds a configured budget."""


class PrecisionError(DirectionsError):
    """An exact comparison could not be certified within the precision cap."""


class CertificateError(DirectionsError):
    """An exact certificate of a construction step or witness failed."""
