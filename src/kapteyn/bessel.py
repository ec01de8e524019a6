"""F(z,t) = sum t^n J_n(nz) under Bessel's integral J_n(nz) = (1/2pi) int
e^{in(tau - z sin tau)} dtau, by the trapezoid rule: the saddle line, the
plan and the nodes.  _trapezoid is the one entry; series.eval_direct checks
the arguments and the domain and calls it.

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
import sys

from .errors import ConvergenceError

_MAX_NODES = 1 << 16  # trapezoid nodes; about 0.1 s of work
_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon


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


def _trapezoid_nodes(n: int, scale: float, big: complex, small: complex
                     ) -> tuple[complex, float]:
    """Mean of v = w/(1-w), w = scale * e * exp(big/e - small*e), over the
    n-th roots of unity e (n odd, e^{-2pi ik/n} taken as the exact conjugate
    of e^{2pi ik/n}, so a real z and t give a real mean), and a bound on its
    rounding: kappa ulps of w move v by kappa eps |w|/|1-w|^2 = kappa eps
    |v|/|1-w|; the division adds 4 ulps of v."""
    kappa, step = 24.0 * (1.0 + abs(big) + abs(small)), 2.0 * math.pi / n
    re, im, rounding = [], [], 0.0
    for k in range(-(n // 2), n // 2 + 1):
        e = cmath.rect(1.0, step * k)
        d = 1.0 - (w := scale * e * cmath.exp(big * e.conjugate() - small * e))
        v = w / d
        re.append(v.real)
        im.append(v.imag)
        rounding += abs(v) * (kappa / abs(d) + 4.0)
    value = complex(math.fsum(re), math.fsum(im)) / n
    return value, _EPS * (rounding / n + 2.0 * abs(value))


def _trapezoid(z: complex, t: float, tol: float) -> tuple[complex, int, float]:
    """(value, N, bound) of F(z, t) for z != 0, t > 0 and omega(z) t < 1:
    the mean of w/(1-w) over N nodes on the saddle line Im tau = c, where
    tau = theta + ic puts w at t |z| e^s e^{i theta} exp(z e^{-i theta}/(2
    |z| e^s) - z |z| e^s e^{i theta}/2), s = -c - ln|z|; bound is _plan's
    plus the nodes' rounding."""
    az = abs(z)
    log_tz = math.log(t) + math.log(az)
    s, line = _saddle_line(z, log_tz)
    # sup|w| >= t e^{-c} puts c - ln t outside the strip where sup|w| < 1
    _, n, bound = _plan(line, math.log(tol), -s - log_tz,
                        lambda: f"F({z!r},{t!r}) at tol {tol:g}")
    sig = math.exp(s)
    value, rounding = _trapezoid_nodes(n, t * az * sig, 0.5 * (z / az) / sig,
                                       0.5 * z * az * sig)
    return value, n, bound + rounding
