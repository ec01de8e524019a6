"""Bessel functions J_n(nz) by truncated power series, for complex z, and
the argument checks and report type the evaluators share.

bessel_jn_scaled targets the scaled argument form J_n(nz) that Kapteyn
series are built from.  It is the public Bessel evaluator and a test
oracle; series.eval_direct does not sum it, because near real z = 1 each
series cancels like 1.5^n.  Terms are generated by the multiplicative
recurrence

    term[j+1] = term[j] * (-(nz/2)^2) / ((j+1)(n+j+1))

so no factorial is ever formed explicitly; the leading term (nz/2)^n / n!
is started in log space, which keeps very small leading terms from
underflowing before the growth phase of the factorial ratios is over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

_MAX_TERMS = 10_000
_MAX_ABS_Z = 4.0


@dataclass(frozen=True)
class SeriesEvalReport:
    """Result of an adaptive evaluation, with its error bound.

    terms_used counts series terms, or trapezoid nodes for
    series.eval_direct.  tail_bound is the magnitude of the first omitted
    term for bessel_jn_scaled; the evaluators of F in series bound the
    whole error (see their docstrings).
    """

    value: complex
    terms_used: int
    tail_bound: float


def _require_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    return z


def _require_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")


def sqrt1mz2(z: complex) -> complex:
    """Square root of 1 - z^2 on the branch with Re >= 0.

    When the real part is exactly zero the root with Im >= 0 is returned,
    so e.g. sqrt1mz2(2) == +i*sqrt(3).
    """
    z = _require_finite(z)
    s = cmath.sqrt(1.0 - z * z)
    if s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0):
        s = -s
    return s


def bessel_jn_scaled(n: int, z: complex, tol: float = 1e-12) -> SeriesEvalReport:
    """Evaluate J_n(nz) for n >= 1 by its power series.

    Stops once the next term is below tol in absolute value and the term
    index has passed |nz/2| (before that, factorial-ratio terms may still
    be growing); tail_bound is that next term's magnitude.  Arguments with
    |z| > 4 are rejected; they sit far outside the region the truncated
    series is meant for, and the cancellation between the large
    factorial-ratio terms would swallow double precision anyway.
    """
    if n < 1:
        raise DomainError(f"order n must be >= 1, got {n}")
    _require_tol(tol)
    z = _require_finite(z)
    if abs(z) > _MAX_ABS_Z:
        raise DomainError(f"|z| = {abs(z):g} exceeds supported bound {_MAX_ABS_Z}")
    w = n * z / 2.0
    aw = abs(w)
    if aw == 0.0:
        return SeriesEvalReport(value=0j, terms_used=1, tail_bound=0.0)

    log_first = n * cmath.log(w) - math.lgamma(n + 1)
    try:
        scale = math.exp(log_first.real)
    except OverflowError:
        raise ConvergenceError(
            f"leading term of J_{n}({n}*{z!r}) overflows double precision"
        ) from None
    threshold = tol / scale if scale > 0.0 else math.inf

    ratio_num = -(w * w)
    rho = cmath.exp(complex(0.0, log_first.imag))  # first term / its magnitude
    total = rho
    j = 0
    while True:
        nxt = rho * ratio_num / ((j + 1) * (n + j + 1))
        mag = abs(nxt)
        if not math.isfinite(mag):
            raise ConvergenceError(
                f"series for J_{n}({n}*{z!r}) overflowed during the growth phase"
            )
        if mag < threshold and j + 1 > aw:
            return SeriesEvalReport(value=scale * total, terms_used=j + 1,
                                    tail_bound=mag * scale)
        if j + 2 > _MAX_TERMS:
            raise ConvergenceError(
                f"tolerance {tol:g} not reached within {_MAX_TERMS} terms of J_{n}(nz)"
            )
        rho = nxt
        total += nxt
        j += 1
