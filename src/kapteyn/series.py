"""Evaluators for F(z,t) and the Taylor <-> Kapteyn coefficient maps.

F(z,t) = sum_{n>=1} t^n J_n(nz) is evaluated two independent ways: the
Kapteyn sum taken under Bessel's integral, as the trapezoid rule on one
contour (bessel), and the power series sum_{n>=1} A_n(t) z^n built from the
exact coefficients (coeffs).  Agreement between the two is the strongest
correctness oracle in the package.  Both check their arguments here and
return a SeriesEvalReport.

The general coefficient maps connect sum a_n z^n = sum alpha_n J_n(nz):

    to Kapteyn:  alpha_n = 1/4 sum_{k<=n/2} (n-2k)^2 (n-k-1)!
                           / (k! (n/2)^{n-2k+1}) * a_{n-2k}
    to Taylor:   a_k = sum_{n=1..k} alpha_n cos(pi(k-n)/2) n^k
                       / ((k-n)!! (k+n)!!)

Neither weight is written out again here: the to-Kapteyn weights are the
terms of theta_poly(n) divided by n/2, and the to-Taylor weight of alpha_n
in a_k is C_n^k, the t^n coefficient of coeffs.a_poly(k).  Both maps are
computed in exact rational arithmetic with floats only at the boundary.

Convention note: the to-Kapteyn direction is stated for the expansion
f = alpha_0 + 2 sum alpha_n J_n(nz); under the no-factor-2 convention used
by the to-Taylor direction the two maps invert each other through a
factor 2, i.e. taylor_to_kapteyn(2 * kapteyn_to_taylor(alpha)) recovers
alpha.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .bessel import _trapezoid
from .coeffs import _a_logabs_stream, a_poly
from .domain import kapteyn_converges, omega, singular_part, solve_R_true
from .errors import ConvergenceError, DomainError, _require_finite

_MAX_OUTER_TERMS = 2000
_QUIET_TERMS = 5  # consecutive below-threshold terms required to stop
_EPS = sys.float_info.epsilon

_CONVENTIONS = ("kapteyn_alpha", "taylor_a")


@dataclass(frozen=True)
class SeriesEvalReport:
    """Result of an adaptive evaluation: terms_used counts series terms for
    eval_power and trapezoid nodes for eval_direct; tail_bound bounds the
    whole error (see their docstrings)."""

    value: complex
    terms_used: int
    tail_bound: float


def _require_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")


@dataclass(frozen=True)
class CoeffSequence:
    """Coefficient sequence indexed from 1; values[i] belongs to index i+1."""

    values: tuple[float, ...]  # kept as a tuple of the entries given, checked once
    convention: str  # "kapteyn_alpha" or "taylor_a"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.convention not in _CONVENTIONS:
            raise DomainError(f"unknown convention {self.convention!r}")
        if len(self.values) < 1:
            raise DomainError("sequence must have at least one entry")
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in self.values):
            raise DomainError("sequence entries must be finite real numbers")


@dataclass(frozen=True)
class ThetaPoly:
    """Kapteyn polynomial as (exponent, coefficient) Laurent terms in z.

    Exponents follow the 2k - n convention (so the n = 0 polynomial is the
    single term 1/z).  Zero coefficients are not stored.
    """

    n: int
    terms: tuple[tuple[int, Fraction], ...]


def eval_direct(z: complex, t: float, tol: float = 1e-10) -> SeriesEvalReport:
    """F(z,t) = (1/2pi) int w/(1-w) dtau, w = t exp(i(tau - z sin tau)), by
    bessel._trapezoid, on the line Im tau = c where sup|w| is least.

    The integrand is the sum of t^n J_n(nz) under Bessel's integral.  A line
    with sup|w| < 1 exists exactly on the Kapteyn domain omega(z)|t| < 1
    (DomainError outside it).  N nodes on a strip |Im tau - c| < a where |w|
    <= s < 1 err by at most 2M/(e^{aN} - 1), M = s/(1-s), for any N and a;
    bessel takes a and N from the strip where |w| < 1, for a bound <=
    tol (absolute), and refuses past 65536 nodes (at z = 0.5: 1 - omega|t|
    below about 2e-7).  N also grows like 43|z| (at t = 0.3, Im z = 1: 441
    nodes at |z| = 10, 65,089 at 1,500), so far inside the domain there too
    the refusal comes, before any node: 2000+1j and 1e160+1j at t = 0.3.
    terms_used is N; tail_bound is the theorem bound plus the nodes'
    rounding, the larger near the edge.
    """
    z = _require_finite(z)
    _require_tol(tol)
    if not kapteyn_converges(z, t):
        raise DomainError(
            f"(z={z!r}, t={t!r}) lies outside the Kapteyn convergence domain"
        )
    if z == 0.0 or t == 0.0:
        return SeriesEvalReport(value=0j, terms_used=0, tail_bound=0.0)
    if t < 0.0:
        z, t = -z, -t  # F(z, -t) = F(-z, t), as J_n(-x) = (-1)^n J_n(x)
    return SeriesEvalReport(*_trapezoid(z, t, tol))


def eval_power(z: complex, t: float, tol: float = 1e-10) -> SeriesEvalReport:
    """F(z,t) by the power series sum A_n(t) z^n with certified coefficients,
    less its singular part g, which is added back in closed form.

    Requires |z| below the radius of convergence R = solve_R_true(|t|).
    The terms fall like (|z|/R)^n, so reaching tol takes about
    n0 = ln(tol)/ln(|z|/R) of them; a point where that exceeds the 2000-term
    cap is refused with DomainError before any coefficient is computed (at
    tol = 1e-10, every |z|/R above 0.98855).

    Near its nearest singularities z0 (R e^{+-i theta} for |t| < 1, R for
    |t| > 1; -z0 for t < 0, as F(z, -t) = F(-z, t)), F ~ K sum_j lambda_j
    (1 - w)^(j - 1/2), w = z/z0, plus the conjugate for |t| < 1, with K and
    the ratios lambda_j = 1, mu, nu, rho, sigma, upsilon (j = 0..5) from
    domain.singular_part, so |A_n| R^n falls only like n^{-1/2}.  The sum
    taken is sum (A_n - g_n) z^n + g(z) - g(0), where g keeps the first
    order rungs, j < order (plus the conjugate for |t| < 1):
        g_n = K sum_{j < order} lambda_j [w^n](1 - w)^(j - 1/2) z0^-n,
        g(z) - g(0) = K w/(s (1 + s)) - K sum_{0 < j < order} lambda_j w
                      (1 + s + ... + s^(2j - 2))/(1 + s),   s = sqrt(1 - w),
    [w^n](1 - w)^(j - 1/2) = (-1)^j (2j - 1)!! c_n/((2n - 1)(2n - 3)...(2n
    - 2j + 1)), c_n = binom(2n, n)/4^n, each weight the one before times
    (1 - 2j)/(2n - 2j + 1).  A_n - g_n falls like n^{-(order +
    1/2)}: it is about the first term left out, f_n = K left [w^n](1 -
    w)^(order - 1/2) z0^-n (plus the conjugate), left = lambda_order, of
    size pair |K left| Gamma(order + 1/2)/pi n^{-(order + 1/2)} R^-n.
    As |t| -> 1 the pair merges into the pole of F(z, 1) = z/(2(1 - z)), K
    grows like 1/|tau0| and lambda_j like 1/|tau0|^(2j), so each rung helps
    only far enough out.  Rung j is subtracted only where rung j - 1 is and
    its rules below hold, sigma's wherever rho's is, so order is 1, 2, 3 or
    5; where K's rules fail, and at |t| = 1 (K infinite), order is 0 and the
    raw A_n are summed.  Each rule, what it guards, and the test that fails
    without it ("terms": a call takes more than its cap there):
      K, pair: n0 >= 20 |K|^2; terms near |t| = 1; TestSingularPartGrid
      K, t > 1: n0 >= |K|^2 / 2; terms near |t| = 1; the same, t = 1 + 1e-8
      mu: n0 >= 32 |mu|; terms near |t| = 1; TestSingularPartGrid
      nu: n0 >= 43; terms at t = 0.9; TestSingularPartGrid
      nu, t > 1: nu < 0 (t above 1.0213); rounding; TestRealSingularityEnvelope
      rho and sigma: n0 >= 45; rounding for t > 1; TestRealSingularityEnvelope
      rho and sigma, pair: n0 >= 24 |rho|; terms near |t| = 1; TestSingularPartGrid
    For |t| < 1, |A_n - g_n| R^n swings like |cos(n theta + phi)|, and
    terms near each sign change dip a decade or more below the rest.  The
    envelope E is the largest |A_n - g_n| R^n of the last
    ceil(pi/theta) + 2 terms, one swing and two (the last 2 for |t| >= 1,
    where the singularity is real).  Summation stops after five
    consecutive terms n with E (|z|/R)^{n+1} below tol * max(1, |F|).  For
    t > 1, A_n - g_n may yet change sign and rise to a hump before it falls
    (with K alone it does, at n = 9 to 110 for t from 1.05 down to 1.001),
    and a stop at the change reads a tail far under the hump's.  As A_n -
    g_n is A_n - g_n - f_n plus f_n, of opposite signs there and each
    falling, past N terms it stays under the larger of the two at N, and E
    takes that too for tail_bound, not for the stop: there tail_bound may
    exceed 2 tol max(1, |F|)/(1 - |z|/R).  tail_bound is 2 E
    (|z|/R)^{N+1}/(1 - |z|/R) for N terms, plus the rounding: N ulps of
    sum |term|; each A_n term's; about 10n ulps of each subtracted pair |K|
    sum_{j < order} |lambda_j [w^n](1 - w)^(j - 1/2)| (|z|/R)^n (before the
    real part is taken), from stepping c_n and the phase n theta; and (6
    |w|/|1 - w| + 20) ulps of each closed-form part, one per rung and pole,
    whose 1 - w cancels near z0.  That tail is an estimate from the envelope
    over one swing, not a proof: a proven one needs max|F - g| on a circle
    near R.

    Each A_n comes from (ln|A_n(t)|, sign) of coeffs._a_logabs_stream at
    |t|, so coefficients far beyond float range still give finite terms;
    each log errs by a few ulps of max(1, |ln|A_n(t)||), each sign is exact,
    and an exact zero leaves the term -g_n.  The stream is a function of |t|
    alone and resumes the rows after the last value earlier calls at this
    |t| read, at whatever width they had restarted to, so a sweep over z
    builds each row once, and results never depend on the order of calls.
    """
    z = _require_finite(z)
    _require_tol(tol)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    az = abs(z)
    if az == 0.0 or t == 0.0:  # every A_n(0) vanishes
        return SeriesEvalReport(value=0j, terms_used=0, tail_bound=0.0)
    pinch = solve_R_true(abs(t))
    radius = pinch.radius
    if not az < radius:
        raise DomainError(
            f"|z| = {az:g} is not inside the convergence radius "
            f"R({abs(t):g}) = {radius:g}"
        )
    # magnitudes in logs; F(z, -t) = F(-z, t)
    log_az, log_radius, u = math.log(az), math.log(radius), (z if t > 0.0 else -z) / az
    log_ratio = log_az - log_radius  # az / radius may underflow
    if math.log(tol) < _MAX_OUTER_TERMS * log_ratio:
        raise DomainError(
            f"|z|/R({abs(t):g}) = {az / radius:.6g} is too close to 1: "
            f"tol {tol:g} needs more than {_MAX_OUTER_TERMS} terms"
        )
    n0 = max(math.ceil(math.log(tol) / log_ratio), 1)
    z0, k, ratios = singular_part(pinch)  # q below is K c_n (R/z0)^n
    pair, order = (2 if pinch.branch == "pinch" else 1), 0
    if n0 >= (20.0 if pair == 2 else 0.5) * abs(k) ** 2:
        # order rungs subtracted, by the rules over mu, nu and rho; sigma rides on rho's
        order = (1 if not n0 >= 32.0 * abs(ratios[1]) else
                 2 if not (n0 >= 43 and (pair == 2 or ratios[2].real < 0.0)) else
                 3 if not (n0 >= 45 and (pair == 1 or n0 >= 24.0 * abs(ratios[3]))) else 5)
        left = ratios[order]  # the first rung left out
    else:
        k, pair = 0j, 0
    window = math.ceil(math.pi / pinch.angle) + 2 if pinch.branch == "pinch" else 2
    closed, closed_err, rot = 0j, 0.0, radius / z0
    rungs = [k * ratio for ratio in ratios[:order]]  # K lambda_j
    for pole, amps in ((z0, rungs), (z0.conjugate(), [a.conjugate() for a in rungs]))[:pair]:
        w = az * u / pole
        s = cmath.sqrt(1.0 - w)
        # K lambda_j ((1 - w)^(j - 1/2) - 1): K w/(s (1 + s)) at j = 0, else
        # -K lambda_j w (1 + s + ... + s^(2j - 2))/(1 + s)
        parts = [amps[0] * w / (s * (1.0 + s))] + [
            -a * w * sum(s ** e for e in range(2 * j - 1)) / (1.0 + s)
            for j, a in enumerate(amps[1:], 1)]
        closed += sum(parts)
        closed_err += sum(map(abs, parts)) * (6.0 * abs(w) / abs(1.0 - w) + 20.0)
    # envelope: (n, |A_n - g_n| R^n) falling, the window's largest first
    terms, envelope = _a_logabs_stream(abs(t)), deque()
    total, abs_sum, ulps, quiet, n, q, zn = 0j, 0.0, 0.0, 0, 0, k, 1.0
    spread, step = 4.0 * (abs(log_radius) + abs(log_az)) + 8.0, math.exp(log_ratio) * u  # step z/R
    # (lambda_j, |lambda_j|, 1 - 2j, 2j - 2), one per rung above lambda_0
    ladder, exp = [(r, abs(r), 1 - 2 * j, 2 * j - 2) for j, r in enumerate(ratios[1:order], 1)], math.exp
    try:
        for n, (log_a, sign) in enumerate(terms, 1):
            q *= rot * (1.0 - 0.5 / n)  # K c_n (R/z0)^n
            # g_n R^n = pair Re(q mu_n), mu_n = sum_j lambda_j b_j with the
            # Darboux weight b_j = [w^n](1 - w)^(j - 1/2)/c_n, one step per rung
            d = 2 * n - 1
            mu_n = weight = b = 1.0
            for ratio, abs_ratio, odd, even in ladder:
                b *= odd / (d - even)  # (1 - 2j)/(2n - 2j + 1)
                mu_n += ratio * b
                weight += abs_ratio * abs(b)
            a = sign * exp(log_a + n * log_radius)  # A_n R^n; 0 at an exact zero
            r = a - pair * (q * mu_n).real
            zn *= step  # (z/R)^n
            term = r * zn
            total += term
            abs_sum += abs(term)
            # each part's own error: the log's few ulps of max(1, |log_a|), n ln R
            # and n ln|z|, q's n steps and the n steps of (z/R)^n
            ulps += abs(zn) * ((abs(a) * (4.0 * max(1.0, abs(log_a)) + n * spread + 16.0)
                                if sign else 0.0) + pair * abs(q) * weight * (10.0 * n + 16.0))
            if abs_r := abs(r):
                while envelope and envelope[-1][1] <= abs_r:
                    envelope.pop()
                envelope.append((n, abs_r))
            if envelope and envelope[0][0] <= n - window:
                envelope.popleft()
            tail = envelope[0][1] * exp((n + 1) * log_ratio) if envelope else 0.0
            quiet = quiet + 1 if tail < tol * max(1.0, abs(total + closed)) else 0
            if quiet == _QUIET_TERMS:
                break
            if n == _MAX_OUTER_TERMS:
                raise ConvergenceError(
                    f"series for F({z!r},{t!r}) did not settle within {_MAX_OUTER_TERMS} terms"
                )
    except OverflowError as exc:
        raise ConvergenceError(f"series for F({z!r},{t!r}) overflowed at term {n}") from exc
    if pair == 1:
        # a real singularity's A_n - g_n may change sign and rise to a hump past
        # N: it is r - f, the residual with the first term left out subtracted
        # too, plus f, of opposite signs there and each falling, so under both;
        # f's Darboux weight is the loop's last b, one rung further
        f = q.real * left.real * b * (1 - 2 * order) / (d + 2 - 2 * order)
        tail = max(tail, max(abs(r - f), abs(f)) * math.exp((n + 1) * log_ratio))
    tail *= 2.0 / (1.0 - az / radius)
    value = total + closed
    return SeriesEvalReport(value=value, terms_used=n, tail_bound=tail + _EPS * (
        n * abs_sum + ulps + closed_err + abs(value)))


def fundamental_residual(z: complex, tol: float = 1e-10) -> float:
    """Defect |1/(1-z) - 1 - 2 sum J_n(nz)| of the fundamental Kapteyn identity.

    The identity holds throughout omega(z) < 1; the returned residual is
    dominated by the truncation tolerance of the direct evaluator.
    """
    z = _require_finite(z)
    if not omega(z) < 1.0:
        raise DomainError(f"omega({z!r}) >= 1; outside the fundamental domain")
    f = eval_direct(z, 1.0, tol).value
    return abs(1.0 / (1.0 - z) - 1.0 - 2.0 * f)


def theta_poly(n: int) -> ThetaPoly:
    """Exact Kapteyn polynomial of order n.

    Order 0 is 1/z.  For n >= 1 the term at exponent 2k - n carries
    (n-2k)^2 (n-k-1)! / (4 k!) * (n/2)^{2k-n}; terms whose (n-2k)^2 factor
    vanishes are omitted.

    Convention note: with these exponents, extracting Kapteyn coefficients
    from a Taylor series by contour residues pairs the 2k-n term with the
    Taylor coefficient of z^{n-2k-1}.  Dividing every term by nz/2 (one
    more power of nz/2 in the denominator) gives the variant whose residue
    pairing reproduces taylor_to_kapteyn; both forms are in circulation,
    and this module stores the first.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return ThetaPoly(n=0, terms=((-1, Fraction(1)),))
    terms = []
    for k in range(n // 2 + 1):
        m = n - 2 * k
        if m == 0:
            continue
        coeff = Fraction(m * m * math.factorial(n - k - 1), 4 * math.factorial(k))
        coeff *= Fraction(n, 2) ** (2 * k - n)
        terms.append((2 * k - n, coeff))
    return ThetaPoly(n=n, terms=tuple(terms))


def _rationals(seq, n_out: int) -> list[Fraction]:
    """seq as Fractions; DomainError if it has fewer than n_out entries."""
    values = [Fraction(v) for v in seq]
    if len(values) < n_out:
        raise DomainError(f"need at least {n_out} input coefficients, got {len(values)}")
    return values


def taylor_to_kapteyn_exact(a, n_out: int) -> list[Fraction]:
    """Exact to-Kapteyn map on a 1-indexed rational sequence a (a[0] is a_1).

    alpha_n sums a_m times the theta_poly(n) term at exponent -m, all over
    n/2.
    """
    a = _rationals(a, n_out)
    return [sum(c * a[-e - 1] for e, c in theta_poly(n).terms) / Fraction(n, 2)
            for n in range(1, n_out + 1)]


def kapteyn_to_taylor_exact(alpha, n_out: int) -> list[Fraction]:
    """Exact to-Taylor map on a 1-indexed rational sequence alpha.

    a_k = sum_n alpha_n [t^n] A_k(t), with A_k from coeffs.a_poly.
    """
    alpha = _rationals(alpha, n_out)
    return [sum(alpha[n - 1] * c for n, c in enumerate(a_poly(k).coeffs) if c)
            for k in range(1, n_out + 1)]


def _map(seq: CoeffSequence, expected: str, n_out: int, exact_map, out: str
         ) -> CoeffSequence:
    """Check seq and n_out, run exact_map on seq's values, return floats as out."""
    if seq.convention != expected:
        raise DomainError(
            f"expected a {expected!r} sequence, got {seq.convention!r}"
        )
    if not isinstance(n_out, numbers.Integral) or n_out < 1:
        raise DomainError(f"output length must be an integer >= 1, got {n_out!r}")
    exact = exact_map(seq.values, n_out)
    return CoeffSequence(values=tuple(float(v) for v in exact), convention=out)


def taylor_to_kapteyn(a: CoeffSequence, n_out: int) -> CoeffSequence:
    """Map Taylor coefficients a_n to Kapteyn coefficients alpha_n.

    Implements the expansion map stated for f = alpha_0 + 2 sum alpha_n
    J_n(nz); callers working in the no-factor-2 convention should hand in
    the doubled Taylor sequence (see module docstring).
    """
    return _map(a, "taylor_a", n_out, taylor_to_kapteyn_exact, "kapteyn_alpha")


def kapteyn_to_taylor(alpha: CoeffSequence, n_out: int) -> CoeffSequence:
    """Map Kapteyn coefficients alpha_n to the Taylor coefficients of the sum."""
    return _map(alpha, "kapteyn_alpha", n_out, kapteyn_to_taylor_exact, "taylor_a")
