"""Exception hierarchy shared by all fracineq modules."""

from __future__ import annotations


# what a scalar-only function raises where its numpy twin returns inf or nan
SCALAR_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


class FracineqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FracineqError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrandError(FracineqError):
    """An integrand (or grid function) produced a non-finite value."""


class AccuracyError(FracineqError):
    """A quadrature tolerance above the roundoff floor could not be reached.

    Raised when the evaluation budget is exhausted or the minimum panel
    width is hit; a tolerance below the roundoff floor is not an error (the
    result then reports the floor as its error estimate).  Carries the best
    value over the whole interval and its error estimate obtained so far.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float,
                 evaluations: int):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class PreconditionError(FracineqError):
    """A bound evaluator's convexity/positivity hypothesis failed to certify."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ConfigError(FracineqError, ValueError):
    """A sweep configuration is invalid; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
