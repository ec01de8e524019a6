"""Oracles that judge the library's outputs, outside the timed region.

None of them runs the code path under test:

* ``contour_value``: F(z,t) = (1/2pi) int w/(1-w) dtau over one period,
  w = t exp(i(tau - z sin tau)), by the trapezoid rule, which converges
  geometrically for a periodic analytic integrand.  Where a horizontal
  line Im tau = c keeps |w| < 1, the geometric sum of the Kapteyn terms
  converges on it and the integral is F directly.  For 0 < t < 1 the real
  line is valid at z = 0, and a pole of the integrand crosses it only when
  z passes the curves Re z = tau/sin(tau), |Im z| = ln(1/t)/sin(tau),
  0 < tau < pi (no other crossing lies within |z| < 4.6); beyond them the
  crossed pole's residue is added back.  This continues F over the whole
  power-series disk, past the Kapteyn domain.
* ``kapteyn_mpmath``: the Kapteyn sum of t^n J_n(nz) with mpmath's Bessel
  functions, where no contour above applies.
* ``closed_form_t1``: F(z, +-1) = +-z / (2 (1 -+ z)).
* ``coeff_closed_form_sum``: A_n(t) as the exact sum of the library's
  closed-form coefficients C_k^n t^k, a different route from the cached
  alternating-binomial polynomial the figures use.
* ``radius_residual``: the implicit radius equations in mpmath at 40 digits.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath

# agreement demanded between evaluators (acceptance criterion 10), scaled like
# the library's own stopping rule, tol * max(1, |sum|)
VALUE_RTOL = 1e-8
RESIDUAL_TOL = 1e-12
_TRAPEZOID_TOL = 1e-13


class OracleUnavailable(Exception):
    """No oracle covers this input."""


def agrees(value: complex, reference: complex, rtol: float = VALUE_RTOL) -> bool:
    scale = max(abs(value), abs(reference), 1.0)
    return math.isfinite(abs(value)) and abs(value - reference) <= rtol * scale


# -- F(z, t) by a contour integral ---------------------------------------------

def _w(tau: complex, z: complex, t: float) -> complex:
    return t * cmath.exp(1j * (tau - z * cmath.sin(tau)))


def _line_log_sup(z: complex, t: float, c: float) -> float:
    # log of max over real x of |w(x + ic)| = t exp(-c + max_x Im(z sin(x + ic)))
    a = z.imag * math.cosh(c)
    b = z.real * math.sinh(c)
    return math.log(t) - c + math.hypot(a, b)


def _best_line(z: complex, t: float) -> tuple[float, float]:
    lo, hi = -3.0, 6.0
    cs = [lo + (hi - lo) * i / 90 for i in range(91)]
    best = min((_line_log_sup(z, t, c), c) for c in cs)
    c, step = best[1], (hi - lo) / 90
    for _ in range(40):  # refine the 1-D minimum by shrinking steps
        for cand in (c - step, c + step):
            s = _line_log_sup(z, t, cand)
            if s < best[0]:
                best = (s, cand)
        c, step = best[1], step / 2
    return best


def _trapezoid(z: complex, t: float, c: float) -> complex:
    prev = None
    n = 64
    while n <= 1 << 17:
        h = 2.0 * math.pi / n
        total = 0j
        for k in range(n):
            w = _w(complex(-math.pi + k * h, c), z, t)
            total += w / (1.0 - w)
        total /= n
        if prev is not None and abs(total - prev) <= _TRAPEZOID_TOL * max(1.0, abs(total)):
            return total
        prev = total
        n *= 2
    raise OracleUnavailable(f"trapezoid rule did not settle at z={z!r}, t={t!r}")


def _crossing_tau(x: float) -> float:
    # the root of sin(tau)/tau = 1/x in (0, pi), for x > 1
    lo, hi = 0.0, math.pi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if math.sin(mid) > mid / x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pole(z: complex, t: float, tau: complex) -> complex:
    target = 1j * math.log(t)  # poles solve tau - z sin tau = i ln t
    for _ in range(100):
        step = (tau - z * cmath.sin(tau) - target) / (1.0 - z * cmath.cos(tau))
        tau -= step
        if abs(step) < 1e-15:
            break
    return tau


def contour_value(z: complex, t: float) -> complex:
    """F(z, t) for the power-series disk and the Kapteyn domain (see module doc)."""
    if t < 0.0:
        z, t = -z, -t  # F(z, -t) = F(-z, t) since J_n(-x) = (-1)^n J_n(x)
    log_sup, c = _best_line(z, t)
    if log_sup < math.log(0.98):
        return _trapezoid(z, t, c)
    if not 0.0 < t < 1.0:
        raise OracleUnavailable(f"no contour for z={z!r}, t={t!r}")
    value = _trapezoid(z, t, 0.0)
    if z.real > 1.0:
        tau = _crossing_tau(z.real)
        if abs(z.imag) > -math.log(t) / math.sin(tau):
            pole = _pole(z, t, complex(math.copysign(tau, z.imag)))
            value += math.copysign(1.0, pole.imag) / (1.0 - z * cmath.cos(pole))
    return value


def kapteyn_mpmath(z: complex, t: float, max_terms: int = 4000) -> complex:
    with mpmath.workdps(30):
        zz, total = mpmath.mpc(z), mpmath.mpc(0)
        quiet = 0
        for n in range(1, max_terms + 1):
            term = mpmath.mpf(t) ** n * mpmath.besselj(n, n * zz)
            total += term
            quiet = quiet + 1 if abs(term) < 1e-17 * max(1, abs(total)) else 0
            if quiet >= 5:
                return complex(total)
    raise OracleUnavailable(f"mpmath Kapteyn sum did not settle at z={z!r}, t={t!r}")


def closed_form_t1(z: complex, t: float) -> complex:
    if t == 1.0:
        return z / (2.0 * (1.0 - z))
    if t == -1.0:
        return -z / (2.0 * (1.0 + z))
    raise OracleUnavailable("closed form holds at |t| = 1 only")


def reference_value(z: complex, t: float) -> complex:
    """F(z, t) by the first oracle that covers the point."""
    if abs(t) == 1.0:
        return closed_form_t1(z, t)
    try:
        return contour_value(z, t)
    except OracleUnavailable:
        return kapteyn_mpmath(z, t)


# -- exact coefficients and radii ----------------------------------------------

def coeff_closed_form_sum(n: int, t: Fraction) -> Fraction:
    from kapteyn.coeffs import coeff_closed_form

    total = Fraction(0)
    for k in range(n % 2, n + 1, 2):
        total += coeff_closed_form(n, k) * t**k
    return total


def log_abs(x: Fraction) -> float:
    return math.log(abs(x.numerator)) - math.log(x.denominator)


def radius_residual(which: str, t: float, radius: float) -> float:
    """|LHS(radius) * t - 1| of r's equation ('r') or R's ('R')."""
    with mpmath.workdps(40):
        x, tt = mpmath.mpf(radius), mpmath.mpf(t)
        if which == "R" and t >= 1.0:
            s = mpmath.sqrt((1 - x) * (1 + x))
            lhs = x * mpmath.exp(s) / (1 + s)
        else:
            s = mpmath.sqrt(1 + x * x)
            lhs = x * mpmath.exp(s) / (1 + s)
            if which == "R":
                r2 = mpmath.sqrt(2)
                lhs *= mpmath.exp(-r2) * (1 + r2)
        return float(abs(lhs * tt - 1))
