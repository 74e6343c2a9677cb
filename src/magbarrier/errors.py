"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigurationError -> 2, NumericalError
(including InvariantViolation) -> 3; a command that loops over a ladder
first writes the rows it completed and a FAILED line naming the error. A
verification check that runs fine but fails its inequality is not an
exception: the command writes its whole table with pass=false and exits 1.
"""


class MagbarrierError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MagbarrierError):
    """Bad or impossible request: domain violations, capability limits."""


class NumericalError(MagbarrierError):
    """A computation ran but missed its accuracy contract."""


class InvariantViolation(NumericalError):
    """A mathematically guaranteed property failed in the computed data."""
