"""Convergence geometry of the Kapteyn series and its power series.

Two radii matter for F(z,t) = sum t^n J_n(nz):

* r(t): the Kapteyn series converges for |z| < r(t), where
      r e^{sqrt(1+r^2)} / (1 + sqrt(1+r^2)) * t = 1
  (the binding direction is the imaginary axis, so the bound involves
  sqrt(1 + r^2); r(1) is the classical Laplace limit 0.6627434...).

* R(t): the radius of the power series sum A_n(t) z^n, i.e. the modulus
  of the nearest singularity of F(., t).  Writing
      F(z,t) = (1/2pi) int_0^{2pi} w/(1-w) dtau,   w = t e^{i(tau - z sin tau)},
  F is singular where the pole w = 1 pinches the contour, i.e. where
  w = 1 and dw/dtau = 0:
      z = 1/cos(tau),   tau - tan(tau) = i ln t.
  solve_R_true computes this radius.

solve_R solves the implicit model equations
      e^{-sqrt 2}(1+sqrt 2) R e^{sqrt(1+R^2)}/(1+sqrt(1+R^2)) * t = 1   (0 < t <= 1)
      R e^{sqrt(1-R^2)}/(1+sqrt(1-R^2)) * t = 1                        (t >= 1)
with R(1) = 1 from both branches.  The large-t equation is the pinch on
the real axis (tau = i acosh(1/R) gives acosh(1/R) - sqrt(1-R^2) = ln t),
so for t >= 1 it is the radius of convergence.  The small-t equation is
only a leading-order model of it: it crosses the true radius near
t = 0.348 and is off by up to 6% elsewhere in (0, 1).  At t = 0.1 it
gives 3.0006 where the nearest singularity sits at 1.482257 +- 2.451978i
(modulus 2.865184); at t = 0.9 it gives 1.0759 against 1.1286.

Each root is found by Newton's method on an equation whose derivative is
exact, in a median of 4 steps.  r(t) and the small-t R(t) solve the log of
their equation in u = ln x, where it is convex with derivative
sqrt(1 + x^2) (_log_root); the large-t R(t) solves y - tanh y = ln t,
R = 1/cosh y, where the model equation is flat in R near R = 1 and this
one is not (_pinch_root).  Both stop before the first step that does not
halve the last, because from there on the steps are rounding noise, and
keep the iterate that step was evaluated at; iterations counts the steps
evaluated, and ConvergenceError is raised after _NEWTON_CAP of them.
Below about t = 9e-309 the root's lhs, 1/t, overflows and DomainError is
raised, as for any residual above 1e-12.
"""

from __future__ import annotations

import cmath
import collections
import math
import sys

from .coeffs import a_eval_logabs
from .errors import ConvergenceError, DomainError, ZeroCoefficientError, _require_finite

_SQRT2 = math.sqrt(2.0)
# prefactor of the small-t implicit equation; equals exp(-sqrt(2))*(1+sqrt(2))
_SMALL_T_PREFACTOR = math.exp(-_SQRT2) * (1.0 + _SQRT2)
# constant in the small-t asymptote of the model's 1/R: sqrt(2) + ln(sqrt(2)-1)
_PSI_SMALL_CONST = _SQRT2 + math.log(_SQRT2 - 1.0)
_MAX_RESIDUAL = 1e-12  # a model-equation root is refused above this residual
_EPS = sys.float_info.epsilon
# 2-34 complex pinch steps over log-spaced t in [5e-324, 1 - 2**-53], and
# at most 8 radius steps over log-spaced t in [1e-307, 1.7e308]
_NEWTON_CAP = 64
# y - tanh y = sum of c_k y^(2k+1), k = 1..9, to rounding below y = 0.2,
# where subtracting tanh y would cancel
_Y_MINUS_TANH_Y = (1 / 3, -2 / 15, 17 / 315, -62 / 2835, 1382 / 155925, -21844 / 6081075,
                   929569 / 638512875, -6404582 / 10854718875, 443861162 / 1856156927625)
# lambda_j of singular_part, j = 0..5, as polynomials in K^2, highest power first;
# tests/test_domain.py derives these rationals again in exact series arithmetic
_RUNGS = ((1.0,), (-2 / 3, 1 / 4), (2 / 27, -5 / 18, 3 / 32),
          (460 / 243, -149 / 90, 99 / 400, 5 / 128),
          (-4970 / 729, 2425 / 243, -119537 / 25200, 22711 / 33600, 35 / 2048),
          (324548 / 19683, -436373 / 13122, 1700519 / 68040, -3198127 / 388800,
           32572661 / 33868800, 63 / 8192))


class RadiusResult(collections.namedtuple(
        "RadiusResult", "t radius branch residual iterations angle", defaults=(None,))):
    """Solved radius with the residual of its defining equation.

    The residual is |LHS - 1| for solve_r and solve_R, and for
    solve_R_true the relative residual |tau - tan(tau) - i ln t| / |ln t|
    of the "pinch" branch, or |y - tanh y - ln t| / ln t of the "large_t"
    one; iterations counts Newton steps.  branch is "small_t",
    "large_t", "kapteyn_domain" or "pinch"; only a "pinch" result has an
    angle: its nearest singularities are radius e^{+-i angle}.
    """

    __slots__ = ()


def sqrt1mz2(z: complex) -> complex:
    """Square root of 1 - z^2 on the branch with Re >= 0.

    When the real part is exactly zero the root with Im >= 0 is returned,
    so e.g. sqrt1mz2(2) == +i*sqrt(3).  From |z| = 1e150 on, below where
    z^2 overflows, it is taken as z sqrt(z^-2 - 1).
    """
    z = _require_finite(z)
    s = cmath.sqrt(1.0 - z * z) if abs(z) < 1e150 else z * cmath.sqrt((1.0 / z) ** 2 - 1.0)
    if s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0):
        s = -s
    return s


def omega(z: complex) -> float:
    """The Kapteyn modulus |z exp(sqrt(1-z^2)) / (1 + sqrt(1-z^2))|.

    Uses the Re >= 0 branch of sqrt1mz2, under which 1 + sqrt(1-z^2)
    never vanishes and omega is continuous on the real interval (-1, 1)
    with omega(0) = 0.
    """
    z = _require_finite(z)
    az = abs(z)
    if az == 0.0:
        return 0.0
    s = sqrt1mz2(z)
    log_om = math.log(az) + s.real - math.log(abs(1.0 + s))
    try:
        return math.exp(log_om)
    except OverflowError:
        return math.inf


def kapteyn_converges(z: complex, t: float) -> bool:
    """True iff omega(z) * |t| < 1, the convergence test for sum t^n J_n(nz)."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t == 0.0:
        return True
    return omega(z) * abs(t) < 1.0


def _lhs_kapteyn(x: float) -> float:
    s = math.sqrt(1.0 + x * x)
    try:  # divide first: x e^s overflows near the root once t < ~6e-306
        return x / (1.0 + s) * math.exp(s)
    except OverflowError:
        return math.inf  # the root's lhs, 1/t, overflows once t < ~9e-309


def _lhs_power_large(x: float) -> float:
    # (1-x)(1+x) instead of 1-x^2: keeps precision near the R = 1 seam
    s = math.sqrt((1.0 - x) * (1.0 + x))
    return x * math.exp(s) / (1.0 + s)


def _log_root(t: float, pref: float, branch: str) -> RadiusResult:
    """Root of pref lhs(x) t = 1, lhs(x) = x e^s / (1 + s) (_lhs_kapteyn),
    s = sqrt(1 + x^2).  In u = ln x the log of the equation, ln(pref x t) +
    s - ln(1 + s) = 0, is convex with derivative s, so Newton converges
    from either side; each step multiplies x by e^-step, which keeps a
    subnormal root's precision.
    It starts from the asymptotes: (2/e) / (t pref) for a small root,
    w + 1/(2w) for a large one, w = -ln(t pref).  Of the Newton root and its
    two neighbouring floats it returns the one with the least residual, the
    first on a tie, which cuts the share of r(t) more than 1 ulp off from
    12.7% to 9.0%."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    w = -math.log(t * pref)
    x, last = (2.0 * math.exp(w - 1.0) if w < 1.0 else w + 0.5 / w), math.inf
    for steps in range(1, _NEWTON_CAP + 1):
        s = math.sqrt(1.0 + x * x)
        d = (math.log(x * t * pref) + s - math.log(1.0 + s)) / s
        size = abs(d)
        if not 0.0 < size <= 0.5 * last:
            break
        x, last = x + x * math.expm1(-d), size
    else:
        raise ConvergenceError(f"radius Newton for t={t!r} did not settle")
    radius, residual = x, abs(pref * _lhs_kapteyn(x) * t - 1.0)
    for near in (math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
        if (near_residual := abs(pref * _lhs_kapteyn(near) * t - 1.0)) < residual:
            radius, residual = near, near_residual
    if not residual <= _MAX_RESIDUAL:
        raise DomainError(f"the {branch} equation has no double-precision root at t={t!r}")
    return RadiusResult(t, radius, branch, residual, steps)


def _y_minus_tanh_y(y: float) -> float:
    return y - math.tanh(y) if y >= 0.2 else sum(
        c * y ** (2 * k + 3) for k, c in enumerate(_Y_MINUS_TANH_Y))


def _pinch_root(t: float, model: bool) -> RadiusResult:
    """Root R = 1/cosh y of the large-t equation, 1 <= t < inf, by Newton on
    y - tanh y = ln t, whose derivative is tanh^2 y, from a lower bound of y.
    1/cosh y = e^-y (1 + tanh y), and e^-y = e^-tanh(y) / t at the root:
    taken from y, e^-y would carry the rounding of ln t, about y eps, and
    cosh y overflows past y = 710.  The model equation's residual is flat
    in R near R = 1, so the root is its only candidate.  The residual is
    the model equation's if model, else |y - tanh y - ln t| / ln t at the
    last step (0 at t = 1)."""
    ln_t = math.log(t)
    y, last = max((3.0 * ln_t) ** (1.0 / 3.0), ln_t + math.tanh(ln_t)), math.inf
    for steps in range(1, _NEWTON_CAP + 1):
        tanh2 = math.tanh(y) ** 2
        f = _y_minus_tanh_y(y) - ln_t
        size = abs(f) / tanh2 if f else 0.0
        if not 0.0 < size <= 0.5 * last:
            break
        y, last = y - f / tanh2, size
    else:
        raise ConvergenceError(f"radius Newton for t={t!r} did not settle")
    tanh_y = math.tanh(y)
    radius = math.exp(-tanh_y) * (1.0 + tanh_y) / t
    residual = (abs(_lhs_power_large(radius) * t - 1.0) if model
                else (abs(f) / ln_t if f else 0.0))
    if not residual <= _MAX_RESIDUAL:
        raise DomainError(f"the large_t equation has no double-precision root at t={t!r}")
    return RadiusResult(t, radius, "large_t", residual, steps)


def solve_r(t: float) -> RadiusResult:
    """Kapteyn-domain radius r(t): unique positive root of its implicit equation."""
    return _log_root(t, 1.0, "kapteyn_domain")


def solve_R(t: float) -> RadiusResult:
    """Root of the implicit model equation for R(t); branch picked by t.

    Both branches meet at R(1) = 1.  For t >= 1 this is the radius of
    convergence of sum A_n(t) z^n; for 0 < t < 1 it is the small-t model,
    which misses that radius by up to 6% (see solve_R_true).
    """
    if 1.0 <= t < math.inf:
        return _pinch_root(t, model=True)
    return _log_root(t, _SMALL_T_PREFACTOR, "small_t")


def solve_R_true(t: float) -> RadiusResult:
    """Radius of convergence of sum A_n(t) z^n: modulus of the nearest pinch.

    For t >= 1 this is solve_R(t) with the residual of y - tanh y = ln t
    relative to ln t (0 at t = 1): the rounding of y - tanh y makes it up
    to 176 eps just above t = 1.00265, where y = 0.2 and the series for
    y - tanh y hands over to the subtraction.  For 0 < t < 1 it solves
    tau - tan(tau) = i ln t by complex Newton from
    tau0 = acos(1/(pi/2 + i ln(1/t))) and returns |1/cos(tau)|, the modulus
    of the conjugate pair of nearest singularities.  That root has
    0 < Re tau < pi/2 and Im tau > 0, so the result's angle, the argument
    of 1/cos(tau), is in (0, pi/2); a root elsewhere belongs to another
    singularity and is refused.  Newton stops once the equation's value is
    at its rounding level.  Near t = 1, tau - tan(tau) ~ -tau^3/3 cancels,
    so the reported residual grows like eps/|tau|^2 (about 4e-10 at
    t = 1 - 1e-9) while the radius, which depends on tau^2, stays accurate
    to a few ulps.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if t >= 1.0:
        return _pinch_root(t, model=False)
    c = 1j * math.log(t)
    tau = cmath.acos(1.0 / (0.5 * math.pi - c))
    for iterations in range(1, _NEWTON_CAP + 1):
        tan_tau = cmath.tan(tau)
        f = tau - tan_tau - c
        tau += f / (tan_tau * tan_tau)  # d/dtau (tau - tan tau) = -tan^2 tau
        # rounding level of f: its terms, plus tan's amplification (sec^2 tau
        # = 1 + tan^2 tau) of the rounding of tau, which dominates as t -> 0
        abs_tan = abs(tan_tau)
        if abs(f) <= 8.0 * _EPS * (abs_tan + abs(tau) * (1.0 + abs_tan * abs_tan)):
            break
    else:
        raise ConvergenceError(f"pinch Newton for t={t!r} did not settle")
    if not (0.0 < tau.real < 0.5 * math.pi and tau.imag > 0.0):
        raise ConvergenceError(f"pinch Newton for t={t!r} left the principal root")
    residual, z0 = abs(tau - cmath.tan(tau) - c) / abs(c), 1.0 / cmath.cos(tau)
    return RadiusResult(t, abs(z0), "pinch", residual, iterations, cmath.phase(z0))


def singular_part(pinch: RadiusResult) -> tuple[complex, complex, tuple[complex, ...]]:
    """(z0, K, ratios) of F(z, t) ~ K sum_j lambda_j (1 - z/z0)^(j - 1/2) +
    const, j = 0..5, at the nearest singularity z0 of a solve_R_true(t)
    result, from its root, with no second Newton; ratios = (lambda_0, ...,
    lambda_5) = (1, mu, nu, rho, sigma, upsilon).

    As z leaves z0, the double pole of w/(1-w) at the pinch tau0,
    tau0 = acos(1/z0), splits into two, tau = tau0 + delta, where delta -
    (1 + s^2/2)(T cos delta + sin delta) + T = 0 (tau - z sin tau held
    fixed), T = tan tau0, s^2 = 2 (z - z0)/z0, and delta = +-s + O(s^2).
    The one the contour meets adds its residue, a multiple of 1/(1 - z cos
    tau) = 1/(1 - (1 + s^2/2)(cos delta - T sin delta)).  Its coefficient
    of s^(2j - 1) over that of s^-1, times (-2)^j as s^2 = -2 (1 - z/z0), is
    lambda_j, a polynomial of degree j in K^2 = -1/(2 T^2) whose exact
    rationals are the rows of _RUNGS (delta solved order by order to s^11,
    the residue expanded to s^9); K = i / (sqrt 2 z0 sin tau0).  For a
    "pinch" result z0 = R e^{i angle} and the conjugate z0 carries the
    conjugate K and ratios; for t > 1 z0 = R and K = 1/(sqrt 2 sqrt(1 -
    R^2)), infinite at t = 1 (every ratio past lambda_0 is then infinite
    too).  Darboux's method gives A_n ~ K sum_j lambda_j [w^n](1 - w)^(j -
    1/2) z0^-n, plus its conjugate, [w^n](1 - w)^(j - 1/2) = (-1)^j (2j -
    1)!! c_n / ((2n - 1)(2n - 3)...(2n - 2j + 1)), c_n = binom(2n, n)/4^n,
    with an error of order n^(-13/2) R^-n past j = 5; eval_power subtracts
    up to j = 4, and lambda_5 only sizes what is left.
    """
    if pinch.branch == "pinch":
        z0 = cmath.rect(pinch.radius, pinch.angle)
        k = 1j / (_SQRT2 * z0 * cmath.sin(cmath.acos(1.0 / z0)))
    else:
        z0 = r = pinch.radius
        k = 1.0 / (_SQRT2 * math.sqrt((1.0 - r) * (1.0 + r))) if r < 1.0 else math.inf
    k2, ratios = k * k, []
    for row in _RUNGS:
        ratio = row[0]
        for c in row[1:]:
            ratio = ratio * k2 + c
        ratios.append(complex(ratio))
    return complex(z0), complex(k), tuple(ratios)


def psi_small_t(t: float) -> float:
    """Small-t asymptote of the model's 1/solve_R(t): 1/(-ln t + 0.533...).

    The constant sqrt 2 + ln(sqrt 2 - 1) = 0.533... belongs to the small-t
    model equation.  The true radius has no such offset:
    solve_R_true(t) - ln(1/t) -> 0 as t -> 0.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    return 1.0 / (-math.log(t) + _PSI_SMALL_CONST)


def psi_large_t(t: float) -> float:
    """Large-t asymptote of psi(t) = 1/R(t): (e/2) t.

    Asymptotic only: at t = 1 it returns e/2 = 1.359... although the exact
    value is psi(1) = 1.  The mismatch is inherent to the asymptote; use
    solve_R for the implicit-equation value.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    return 0.5 * math.e * t


def coeff_radius_estimate(n: int, t: float) -> float:
    """Radius estimate |A_n(t)|^(-1/n) from the exact log-magnitude path.

    At n = 500 it lies within 1% of solve_R_true(t) for 0.2 <= t <= 0.9
    and within a few percent of solve_R(t) for t >= 1, where the two
    solvers agree.  It is math.inf where it is past the largest float.
    """
    log_abs, sign = a_eval_logabs(n, t)
    if sign == 0:
        raise ZeroCoefficientError(
            f"A_{n}({t!r}) is exactly zero; perturb t to estimate the radius"
        )
    try:
        return math.exp(-log_abs / n)
    except OverflowError:
        return math.inf
