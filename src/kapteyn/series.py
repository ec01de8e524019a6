"""Evaluators for F(z,t) and the Taylor <-> Kapteyn coefficient maps.

F(z,t) = sum_{n>=1} t^n J_n(nz) is evaluated two independent ways: the
direct Kapteyn sum, and the power series sum_{n>=1} A_n(t) z^n built from
the exact coefficients.  Agreement between the two is the strongest
correctness oracle in the package.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .bessel import SeriesEvalReport, _jn_scaled_sum, _require_finite, _require_tol
from .coeffs import _a_logabs_stream, a_poly
from .domain import kapteyn_converges, omega, solve_R_true
from .errors import ConvergenceError, DomainError

_MAX_OUTER_TERMS = 2000
_QUIET_TERMS = 5  # consecutive below-threshold terms required to stop

_CONVENTIONS = ("kapteyn_alpha", "taylor_a")


@dataclass(frozen=True)
class CoeffSequence:
    """Coefficient sequence indexed from 1; values[i] belongs to index i+1."""

    values: tuple[float, ...]
    convention: str  # "kapteyn_alpha" or "taylor_a"

    def __post_init__(self):
        if self.convention not in _CONVENTIONS:
            raise DomainError(f"unknown convention {self.convention!r}")
        if len(self.values) < 1:
            raise DomainError("sequence must have at least one entry")
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError("sequence entries must be finite")


@dataclass(frozen=True)
class ThetaPoly:
    """Kapteyn polynomial as (exponent, coefficient) Laurent terms in z.

    Exponents follow the 2k - n convention (so the n = 0 polynomial is the
    single term 1/z).  Zero coefficients are not stored.
    """

    n: int
    terms: tuple[tuple[int, Fraction], ...]


def _sum_with_quiet_stop(terms, z_desc: str, tol: float, tail_ratio: float):
    """Accumulate the terms n = 1.. of an iterator until 5 consecutive quiet terms.

    Returns a report whose tail_bound is a geometric tail estimate: the
    larger of the first two omitted terms, inflated by 2/(1 - tail_ratio)
    so it also bounds the sum of everything left out.  Two terms, because
    A_n(t) has the parity of n: at small t the odd terms scale like t and
    the even ones like t^2, so the next term alone can miss the tail.
    """
    total = 0j
    quiet = 0
    n = 0
    try:
        while n < _MAX_OUTER_TERMS:
            n += 1
            term = next(terms)
            total += term
            if abs(term) < tol * max(1.0, abs(total)):
                quiet += 1
                if quiet >= _QUIET_TERMS:
                    break
            else:
                quiet = 0
        else:
            raise ConvergenceError(
                f"series for {z_desc} did not settle within {_MAX_OUTER_TERMS} terms"
            )
        next_mag = max(abs(next(terms)), abs(next(terms)))
    except OverflowError as exc:
        raise ConvergenceError(f"series for {z_desc} overflowed at term {n}") from exc
    tail = 2.0 * next_mag / max(1e-12, 1.0 - tail_ratio)
    return SeriesEvalReport(value=total, terms_used=n, tail_bound=tail)


def eval_direct(z: complex, t: float, tol: float = 1e-10) -> SeriesEvalReport:
    """F(z,t) by the direct Kapteyn sum of t^n J_n(nz).

    Requires the convergence test omega(z)*|t| < 1; raises DomainError
    otherwise.  Summation stops after five consecutive terms below
    tol*max(1, |partial sum|), capped at 2000 terms.
    """
    z = _require_finite(z)
    _require_tol(tol)
    if not kapteyn_converges(z, t):
        raise DomainError(
            f"(z={z!r}, t={t!r}) lies outside the Kapteyn convergence domain"
        )
    log_abs_t = math.log(abs(t)) if t != 0.0 else -math.inf
    sign_t = 1.0 if t >= 0.0 else -1.0
    inner_tol = tol * 1e-3

    def term_at(n: int) -> complex:
        value, _, _ = _jn_scaled_sum(n, z, n * log_abs_t, inner_tol)
        return (sign_t**n) * value

    return _sum_with_quiet_stop(map(term_at, count(1)), f"F({z!r},{t!r})", tol,
                                omega(z) * abs(t))


def eval_power(z: complex, t: float, tol: float = 1e-10) -> SeriesEvalReport:
    """F(z,t) by the power series sum A_n(t) z^n with exact coefficients.

    Requires |z| below the radius of convergence R = solve_R_true(|t|).
    The terms fall like (|z|/R)^n, so reaching tol takes about
    ln(tol)/ln(|z|/R) of them; a point where that exceeds the 2000-term cap
    is refused with DomainError before any coefficient is computed (at
    tol = 1e-10, every |z|/R above 0.98855).
    Each term is formed from the exact value of A_n(t) through its log
    magnitude and sign, so coefficients far beyond float range still give
    finite terms.  The terms are not correctly rounded: exp(ln|A_n| +
    n ln|z|) inherits the rounding of the logs, a relative error up to a
    few times |ln|A_n(t)|| * 2^-52 (at z = 1.55, t = 0.5: 6e-15 at n = 50
    and 2.4e-13 at n = 700, against the exact A_n z^n).
    """
    z = _require_finite(z)
    _require_tol(tol)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    az = abs(z)
    if az == 0.0:
        return SeriesEvalReport(value=0j, terms_used=1, tail_bound=0.0)
    if t == 0.0:
        radius = math.inf  # every A_n(0) vanishes
    else:
        radius = solve_R_true(abs(t)).radius
        if not az < radius:
            raise DomainError(
                f"|z| = {az:g} is not inside the convergence radius "
                f"R({abs(t):g}) = {radius:g}"
            )
        if math.log(tol) < _MAX_OUTER_TERMS * math.log(az / radius):
            raise DomainError(
                f"|z|/R({abs(t):g}) = {az / radius:.6g} is too close to 1: "
                f"tol {tol:g} needs more than {_MAX_OUTER_TERMS} terms"
            )
    log_az = math.log(az)
    u = z / az  # unit-modulus direction; magnitudes are carried in logs

    terms = (sign * math.exp(log_a + n * log_az) * u**n if sign else 0j
             for n, (log_a, sign) in enumerate(_a_logabs_stream(t), 1))
    return _sum_with_quiet_stop(terms, f"F({z!r},{t!r})", tol, az / radius)


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
    if n_out < 1:
        raise DomainError(f"output length must be >= 1, got {n_out}")
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
