"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 1,
rejected problem data (boundary-trace mismatch, failed solvability screen)
exit 2, and numeric failures (quadrature non-convergence, overflow) exit 3.
"""

import sys

# The largest count (grid intervals, modes) a setting may hold.  One numpy
# array holds at most sys.maxsize // 8 float64 values; a count stays a factor
# of two below, so that the arrays it sizes (nx + 1 grid points, 2N panels)
# can still be sized, and a larger count is refused by name where it is set
# instead of failing in numpy.
MAX_COUNT = sys.maxsize // 16


class DelayHeatError(Exception):
    """Base class for all package-specific errors."""


class InputError(DelayHeatError):
    """A parameter is out of range or non-finite (e.g. tau <= 0)."""


class DomainError(DelayHeatError):
    """Evaluation requested outside a function's declared domain."""


class ParseError(DelayHeatError):
    """Expression source could not be parsed.

    Attributes
    ----------
    position : int
        Byte offset into the source where the error was detected.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnsupportedOperationError(DelayHeatError):
    """Operation is valid in general but not for this representation
    (e.g. second derivative of a linearly interpolated sample grid).
    ``order`` is the (x, t) order of such a partial derivative, if one."""

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class CompatibilityError(DelayHeatError):
    """Problem data violates a hard admissibility requirement.

    Carries the measured mismatch so callers can report it.
    """

    def __init__(self, message, mismatch=None):
        super().__init__(message)
        self.mismatch = mismatch


class QuadratureError(DelayHeatError):
    """Adaptive quadrature failed to reach tolerance.

    Attributes
    ----------
    residual : float
        Difference between the last two refinement levels.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericError(DelayHeatError):
    """Overflow / non-finite intermediate outside quadrature control."""


class ConfigError(DelayHeatError):
    """Run configuration file is missing, malformed, or inconsistent."""


class InsufficientDataError(DelayHeatError):
    """Not enough usable data points for a requested fit."""
