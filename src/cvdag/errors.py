"""Exception hierarchy shared across the toolkit.

Exit codes are part of the CLI contract: 0 success, 1 validation/parse,
2 numerical degeneracy, 3 I/O.
"""


class ToolkitError(Exception):
    """Base class for all errors raised deliberately by this package."""

    exit_code = 1


class ValidationError(ToolkitError):
    """Bad arguments, malformed configuration, or violated preconditions."""

    exit_code = 1


class DataFormatError(ValidationError):
    """A file could not be parsed; the message names the offending location."""


class InsufficientSamplesError(ValidationError):
    """Too few rows for the requested estimate or test."""


class NumericalDegeneracyError(ToolkitError):
    """A matrix required to be positive definite is not, beyond repair."""

    exit_code = 2


class DegenerateDesignError(NumericalDegeneracyError):
    """A design column has no variation, or a residual vanished."""


class ReportIOError(ToolkitError):
    """Failed to read or write an output artifact; the message names the path."""

    exit_code = 3
