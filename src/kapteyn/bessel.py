"""The saddle line and trapezoid plan of series.eval_direct, which takes
F(z,t) = sum t^n J_n(nz) under Bessel's integral J_n(nz) = (1/2pi) int
e^{in(tau - z sin tau)} dtau; the report type and argument checks of the
evaluators; and sqrt1mz2.

F is the trapezoid sum of w/(1-w), w = t e^{i(tau - z sin tau)}, on the line
Im tau = c of least sup|w| = omega(z)|t|.  The integrand is periodic and
analytic, so N nodes on a strip |Im tau - c| < a where it is at most M err
by at most 2M/(e^{aN} - 1) (Trefethen & Weideman, SIAM Review 56(3), 2014).
_plan takes a and N from that bound, by the false-position search of
_widest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

_MAX_NODES = 1 << 16  # trapezoid nodes; about 0.1 s of work
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SeriesEvalReport:
    """Result of an adaptive evaluation: terms_used counts series terms for
    series.eval_power and trapezoid nodes for series.eval_direct; tail_bound
    bounds the whole error (see their docstrings)."""

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


def _saddle_line(z: complex, log_tz: float):
    """For z != 0, the line Im tau = c of least sup|t e^{i(tau - z sin tau)}|,
    ln(|t||z|) = log_tz, as s = -c - ln|z| (so neither a tiny z nor a huge t
    overflows), and ln of that sup on the worse of the lines Im tau = c +- a
    as a function of a.  The log is ln|t| - c + hypot(Im z cosh c, Re z sinh
    c), convex in c, least at |z| sinh c = q, q^4 - (1 - |z|^2) q^2 = (Im z)^2.
    """
    az = abs(z)
    zu, z2 = z / az, az * az

    def log_sup(s: float) -> float:
        if abs(s) > 700.0:
            return math.inf  # exp overflows; no strip this wide is of use
        sig, isig = math.exp(s), math.exp(-s)
        return log_tz + s + 0.5 * math.hypot(zu.imag * (isig + z2 * sig),
                                              zu.real * (isig - z2 * sig))

    d = (1.0 - az) * (1.0 + az)
    r = math.hypot(d, 2.0 * z.imag)
    q = math.sqrt(0.5 * (d + r) if d >= 0.0 else 2.0 * z.imag**2 / (r - d))
    s = -math.log(q + math.hypot(az, q))
    return s, lambda a: max(log_sup(s - a), log_sup(s + a))


def _widest(value, hi: float) -> float:
    """A float a >= 0 with value(a) < 0 within 1% of the largest, for value
    continuous and increasing with value(hi) >= 0, or 0.0 if value(0) >= 0.
    False position with the Illinois step (Dowell & Jarratt, BIT 11, 1971)
    shrinks [0, hi] until hi <= 1.01 lo, taking the midpoint when the secant
    point is not strictly inside or two steps did not halve [lo, hi].
    _plan's strip half-width is its one use."""
    lo, v_lo = 0.0, value(0.0)
    if not v_lo < 0.0:
        return 0.0
    v_hi, last, before, bisect = value(hi), None, hi, False
    while (1.01 * lo or math.nextafter(lo, hi)) < hi:
        width = hi - lo
        a = lo + width * (v_lo / (v_lo - v_hi))
        secant = not bisect and lo < a < hi
        if not secant:
            a = 0.5 * (lo + hi)
        good = (v := value(a)) < 0.0
        halve = 0.5 if secant and good == last else 1.0  # Illinois: an end kept twice
        lo, v_lo, hi, v_hi = (a, v, hi, halve * v_hi) if good else (lo, halve * v_lo, a, v)
        last = good if secant else last
        bisect, before = hi - lo > 0.5 * before, width
    return lo


def _plan(line, ln_tol: float, hi: float, what):
    """(a, N, bound) of the trapezoid rule for w/(1-w) on a _saddle_line
    strip, where line(a), increasing, is ln sup|w| = v on |Im tau - c| < a,
    so M = e^v/(1 - e^v), and line(hi) >= 0.  _widest finds the widest
    strip with line(a) < 0 to 1% below hi, and a is the one of 0.85, 0.93
    and 0.97 of it with the least odd N whose bound = 2M/(e^{aN} - 1) <=
    e^{ln_tol}, taken in logs so that no M overflows.  ConvergenceError, naming what(), comes before
    any node if N would pass 65536."""
    lo = _widest(line, hi)
    need, a, x = math.inf, 0.0, 0.0
    for f in (0.85, 0.93, 0.97) if lo > 0.0 else ():
        v = line(f * lo)
        x_f = _LN2 + (v - math.log(-math.expm1(v))) - ln_tol  # ln(2M/tol); N >= ln(1 + e^x_f)/a
        need_f = (x_f + math.log1p(math.exp(-x_f)) if x_f > 0.0
                  else math.log1p(math.exp(x_f))) / (f * lo)
        if need_f < need:
            need, a, x = need_f, f * lo, x_f
    count = math.ceil(min(need, _MAX_NODES)) | 1
    if count > _MAX_NODES:
        raise ConvergenceError(f"{what()} needs more than {_MAX_NODES} trapezoid nodes")
    return a, count, math.exp(x + ln_tol - a * count) / -math.expm1(-a * count)
