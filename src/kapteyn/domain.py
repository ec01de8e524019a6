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

Each model left-hand side is continuous and strictly increasing in the
radius, so the root is the widest float x >= 0 with lhs(x)*t < 1 or the
float after it, whichever leaves the smaller residual.  bessel._widest finds
it by false position in a median of 13 evaluations, to a residual near eps
up to the largest t.  Below about t = 9e-309 the root's lhs, 1/t,
overflows and DomainError is raised, as for any residual above 1e-12.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .bessel import _require_finite, _widest, sqrt1mz2
from .coeffs import a_eval_logabs
from .errors import ConvergenceError, DomainError, ZeroCoefficientError

_SQRT2 = math.sqrt(2.0)
# prefactor of the small-t implicit equation; equals exp(-sqrt(2))*(1+sqrt(2))
_SMALL_T_PREFACTOR = math.exp(-_SQRT2) * (1.0 + _SQRT2)
# constant in the small-t asymptote of the model's 1/R: sqrt(2) + ln(sqrt(2)-1)
_PSI_SMALL_CONST = _SQRT2 + math.log(_SQRT2 - 1.0)
_MAX_RESIDUAL = 1e-12  # a model-equation root is refused above this residual
_EPS = sys.float_info.epsilon
_PINCH_NEWTON_CAP = 64  # 2-34 iterations over log-spaced t in [5e-324, 1 - 2**-53]


@dataclass(frozen=True)
class RadiusResult:
    """Solved radius with the residual of its defining equation.

    The residual is |LHS - 1| for the implicit model equations, whose
    iterations count evaluations of LHS, and the relative residual
    |tau - tan(tau) - i ln t| / |ln t| for the "pinch" branch (Newton steps).
    """

    t: float
    radius: float
    branch: str  # "small_t", "large_t", "kapteyn_domain", or "pinch"
    residual: float
    iterations: int


@dataclass(frozen=True)
class PinchResult(RadiusResult):
    """A "pinch" RadiusResult: the nearest singularities are radius e^{+-i angle}."""

    angle: float


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
        return math.inf  # bracket-expansion probes far beyond any root


def _lhs_power_small(x: float) -> float:
    return _SMALL_T_PREFACTOR * _lhs_kapteyn(x)


def _lhs_power_large(x: float) -> float:
    # (1-x)(1+x) instead of 1-x^2: keeps precision near the R = 1 seam
    s = math.sqrt((1.0 - x) * (1.0 + x))
    return x * math.exp(s) / (1.0 + s)


# (lhs, cap, branch) of each implicit radius equation; a cap pins the upper
# bracket: sqrt(1 - R^2) confines the large-t search to (0, 1]
_KAPTEYN_DOMAIN = (_lhs_kapteyn, None, "kapteyn_domain")
_SMALL_T = (_lhs_power_small, None, "small_t")
_LARGE_T = (_lhs_power_large, 1.0, "large_t")


def _solve_radius(t: float, lhs, cap: float | None, branch: str) -> RadiusResult:
    """Root of lhs(x)*t = 1 for strictly increasing lhs, x > 0.

    bessel._widest searches from 0 (so a subnormal root at huge t is still
    found) and hi = cap or 1.0 for the widest float with lhs(x)*t < 1; of
    it, the float after it and the cap, the least residual wins.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    iterations = 0

    def excess(x: float) -> float:
        nonlocal iterations
        iterations += 1
        return lhs(x) * t - 1.0

    lo = _widest(excess, cap or 1.0, lambda v: v < 0.0)
    # the cap is listed first so that a root sitting exactly on it
    # (R(1) = 1) is recovered exactly on a tie
    candidates = ([] if cap is None else [cap]) + [lo, math.nextafter(lo, math.inf)]
    root = min(candidates, key=lambda x: abs(lhs(x) * t - 1.0))
    residual = abs(lhs(root) * t - 1.0)
    if not residual <= _MAX_RESIDUAL:
        raise DomainError(f"the {branch} equation has no double-precision root at t={t!r}")
    return RadiusResult(t=t, radius=root, branch=branch, residual=residual,
                        iterations=iterations)


def solve_r(t: float) -> RadiusResult:
    """Kapteyn-domain radius r(t): unique positive root of its implicit equation."""
    return _solve_radius(t, *_KAPTEYN_DOMAIN)


def solve_R(t: float) -> RadiusResult:
    """Root of the implicit model equation for R(t); branch picked by t.

    Both branches meet at R(1) = 1.  For t >= 1 this is the radius of
    convergence of sum A_n(t) z^n; for 0 < t < 1 it is the small-t model,
    which misses that radius by up to 6% (see solve_R_true).
    """
    return _solve_radius(t, *(_LARGE_T if t >= 1.0 else _SMALL_T))


def solve_R_true(t: float) -> RadiusResult:
    """Radius of convergence of sum A_n(t) z^n: modulus of the nearest pinch.

    For t >= 1 this is solve_R(t).  For 0 < t < 1 it solves
    tau - tan(tau) = i ln t by complex Newton from
    tau0 = acos(1/(pi/2 + i ln(1/t))) and returns |1/cos(tau)|, the modulus
    of the conjugate pair of nearest singularities.  That root has
    0 < Re tau < pi/2 and Im tau > 0, so the PinchResult's angle, the
    argument of 1/cos(tau), is in (0, pi/2); a root elsewhere belongs to
    another singularity and is refused.  Newton stops once the equation's value is at its rounding
    level.  Near t = 1, tau - tan(tau) ~ -tau^3/3 cancels, so the reported
    residual grows like eps/|tau|^2 (about 4e-10 at t = 1 - 1e-9) while the
    radius, which depends on tau^2, stays accurate to a few ulps.
    """
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if t >= 1.0:
        return solve_R(t)
    c = 1j * math.log(t)
    tau = cmath.acos(1.0 / (0.5 * math.pi - c))
    for iterations in range(1, _PINCH_NEWTON_CAP + 1):
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
    return PinchResult(t=t, radius=abs(z0), branch="pinch", residual=residual,
                       iterations=iterations, angle=cmath.phase(z0))


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
    solvers agree.
    """
    log_abs, sign = a_eval_logabs(n, t)
    if sign == 0:
        raise ZeroCoefficientError(
            f"A_{n}({t!r}) is exactly zero; perturb t to estimate the radius"
        )
    return math.exp(-log_abs / n)
