"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigurationError -> 2, NumericalError
(including InvariantViolation) -> 3. A count stopped once it has rows, in
a rung, the 2D sweep or the stability recount, first writes them and a
FAILED line naming the error. A check that runs but fails its inequality
is not an exception: its whole table is written with pass=false, exit 1.
"""


class MagbarrierError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MagbarrierError):
    """Bad or impossible request: domain violations, capability limits."""


class NumericalError(MagbarrierError):
    """A computation ran but missed its accuracy contract."""


class InvariantViolation(NumericalError):
    """A mathematically guaranteed property failed in the computed data."""
