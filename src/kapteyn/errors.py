"""Exception types shared across the package, and the finiteness check
that the evaluators and the domain functions put their arguments through."""

import math


class KapteynError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KapteynError, ValueError):
    """An argument lies outside the domain an operation is defined on.

    Raised for out-of-range scalars (e.g. a non-positive t handed to a
    radius solver, |z| too large for the series evaluator) and for
    evaluation points outside the relevant convergence region.
    """


class ConvergenceError(KapteynError, ArithmeticError):
    """A series did not reach the requested tolerance within its term cap."""


class ZeroCoefficientError(KapteynError, ArithmeticError):
    """A coefficient that must be nonzero evaluated to exactly zero."""


def _require_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    return z
