"""Bessel's integral J_n(nz) = (1/2pi) int e^{in(tau - z sin tau)} dtau for
complex z, and the saddle line, plan, checks and report type the evaluators share.

J_n(nz), and the Kapteyn sum F(z,t) = sum t^n J_n(nz) in series.eval_direct,
are taken by the trapezoid rule on the line Im tau = c of least sup|e^{i(tau
- z sin tau)}| = omega(z).  The integrands are periodic and analytic, so N
nodes on a strip |Im tau - c| < a where they are at most M err by at most
2M/(e^{aN} - 1) (Trefethen & Weideman, SIAM Review 56(3), 2014).  _plan
takes a and N from that bound for both, by the false-position search of
_widest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

_MAX_ABS_Z = 4.0
_MAX_NODES = 1 << 16  # trapezoid nodes; about 0.1 s of work
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SeriesEvalReport:
    """Result of an adaptive evaluation: terms_used counts series terms for
    series.eval_power and trapezoid nodes otherwise; tail_bound bounds the
    whole error for the evaluators of F (see their docstrings), and the
    truncation, by the trapezoid error theorem, for bessel_jn_scaled."""

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


def _widest(value, hi: float, ok) -> float:
    """A float a >= 0 with ok(value(a)) within 1% of the largest, for value
    continuous and increasing, or 0.0 if ok fails at 0.  hi doubles while ok
    holds there, then false position with the Illinois step (Dowell &
    Jarratt, BIT 11, 1971) shrinks [lo, hi] until hi <= 1.01 lo, taking the
    midpoint when the secant point is not strictly inside or two steps did
    not halve [lo, hi].  _plan's strip half-width is its one use."""
    lo, v_lo = 0.0, value(0.0)
    if not ok(v_lo):
        return 0.0
    while ok(v_hi := value(hi)):
        lo, v_lo, hi = hi, v_hi, 2.0 * hi
    last, before, bisect = None, hi - lo, False
    while (1.01 * lo or math.nextafter(lo, hi)) < hi:
        width = hi - lo
        a = lo + width * (v_lo / (v_lo - v_hi))
        secant = not bisect and lo < a < hi
        if not secant:
            a = 0.5 * (lo + hi)
        good = ok(v := value(a))
        halve = 0.5 if secant and good == last else 1.0  # Illinois: an end kept twice
        lo, v_lo, hi, v_hi = (a, v, hi, halve * v_hi) if good else (lo, halve * v_lo, a, v)
        last = good if secant else last
        bisect, before = hi - lo > 0.5 * before, width
    return lo


def _plan(line, level: float, ln_m, ln_tol: float, hi: float, what):
    """(a, N, bound) of the trapezoid rule on a _saddle_line strip, where
    line(a), increasing, is the log-sup on |Im tau - c| < a and ln_m(line(a))
    is ln M.  _widest finds the widest strip with line(a) < level to 1% from
    hi, and a is the one of 0.85, 0.93 and 0.97 of it with the least odd N
    whose bound = 2M/(e^{aN} - 1) <= e^{ln_tol}, taken in logs so that no M
    overflows.  ConvergenceError, naming what(), comes before any node if N
    would pass 65536."""
    lo = _widest(line, hi, lambda v: v < level)
    need, a, x = math.inf, 0.0, 0.0
    for f in (0.85, 0.93, 0.97) if lo > 0.0 else ():
        x_f = _LN2 + ln_m(line(f * lo)) - ln_tol  # ln(2M/tol); N >= ln(1 + e^x_f)/a
        need_f = (x_f + math.log1p(math.exp(-x_f)) if x_f > 0.0
                  else math.log1p(math.exp(x_f))) / (f * lo)
        if need_f < need:
            need, a, x = need_f, f * lo, x_f
    count = math.ceil(min(need, _MAX_NODES)) | 1
    if count > _MAX_NODES:
        raise ConvergenceError(f"{what()} needs more than {_MAX_NODES} trapezoid nodes")
    return a, count, math.exp(x + ln_tol - a * count) / -math.expm1(-a * count)


def bessel_jn_scaled(n: int, z: complex, tol: float = 1e-12) -> SeriesEvalReport:
    """J_n(nz), n >= 1, as (1/2pi) int e^{in(tau - z sin tau)} dtau by the
    trapezoid rule on _saddle_line, where the integrand's log-sup is top =
    n ln omega(z): the value is e^top times a mean of terms of modulus <= 1,
    and loses at most about sqrt(n) to cancellation.

    _plan takes N for tail_bound = e^top 2M/(e^{aN} - 1) <= tol min(1, e^top)
    on strips where ln M = n log-sup - top grows by at most G = ln(2/min(tol,
    1)) + max(0, top); terms_used is N.  ConvergenceError comes before any
    node if e^top overflows or N > 65536.  |z| > 4 stays a DomainError: on
    the real line past |z| = 1, N grows like n|z| (40,689 nodes for
    J_4000(16000)), and at |z| = 4 the cap refuses from n = 6451.
    """
    if n < 1:
        raise DomainError(f"order n must be >= 1, got {n}")
    _require_tol(tol)
    z = _require_finite(z)
    az = abs(z)
    if az > _MAX_ABS_Z:
        raise DomainError(f"|z| = {az:g} exceeds supported bound {_MAX_ABS_Z}")
    if az == 0.0:
        return SeriesEvalReport(value=0j, terms_used=1, tail_bound=0.0)
    s, log_sup_strip = _saddle_line(z, math.log(az))
    top = n * log_sup_strip(0.0)
    try:
        scale = math.exp(top)
    except OverflowError:
        raise ConvergenceError(f"|J_{n}({n}*{z!r})| overflows double precision") from None
    ln_tol = math.log(min(tol, 1.0)) - max(0.0, top)  # ln(tol min(1, e^top)/e^top) = ln 2 - G
    _, count, bound = _plan(log_sup_strip, (top + _LN2 - ln_tol) / n, lambda v: n * v - top,
                            ln_tol, 1.0, lambda: f"J_{n}({n}*{z!r}) at tol {tol:g}")
    sig = math.exp(s)
    big, small, base = 0.5 * z / az / sig, 0.5 * z * az * sig, n * (math.log(az) + s) - top
    # e^{in theta_k} from nk mod N; nodes k, N - k exact conjugates, so real z gives real J
    terms = [cmath.exp(n * (big - small) + base)]
    for k in range(1, count // 2 + 1):
        e = cmath.rect(1.0, 2.0 * math.pi * k / count)
        phase = 2.0 * math.pi * (n * k % count) / count
        terms.append(cmath.exp(complex(base, phase) + n * (big * e.conjugate() - small * e)))
        terms.append(cmath.exp(complex(base, -phase) + n * (big * e - small * e.conjugate())))
    mean = complex(math.fsum(v.real for v in terms), math.fsum(v.imag for v in terms)) / count
    return SeriesEvalReport(value=scale * mean, terms_used=count, tail_bound=scale * bound)
