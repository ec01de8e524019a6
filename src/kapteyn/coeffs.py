"""Exact power-series coefficients A_n(t) of the Kapteyn series.

F(z,t) = sum_{n>=1} t^n J_n(nz) admits a power series sum A_n(t) z^n whose
coefficients are degree-n polynomials in t with rational coefficients:

    A_n(t) = sum_{k=0}^{n} C_k^n t^k,
    C_k^n  = cos((n-k) pi/2) k^n / ((n-k)!! (n+k)!!)

with the double-factorial convention 0!! = 1.  The same polynomial can be
built from the triangular recurrence (n^2-k^2) C_k^n = -k^2 C_k^{n-2}
seeded with C_n^n = n^n/(2n)!!, or from the rearranged alternating form

    A_n(t) = (-1)^n/n! sum_{k<=n/2} (-1)^k binom(n,k) (k-n/2)^n t^{n-2k}.

A_n(t) is evaluated by one integer kernel, the only evaluation path: at
t = p/q the alternating form times n! 2^n q^n is an integer, summed by
Horner's rule in p^2 and reduced by shifts and one gcd of odd parts.  At
one t the numerator rows stream across n, two held at a time; nothing is
cached across calls.  The closed form and the recurrence stay as oracles.

Everything in this module is exact arithmetic.  A float t is taken as the
dyadic rational it represents, exactly, by a_eval_exact and a_eval_logabs
alike; floats come out only at the log-magnitude boundary (a_eval_logabs),
which exists because values like A_500(t) span thousands of orders of
magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .errors import DomainError


def _dfact(m: int) -> int:
    # double factorial m!! with 0!! = (-1)!! = 1
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _cos_half_pi(m: int) -> int:
    # cos(m*pi/2) for integer m, evaluated combinatorially
    if m % 2:
        return 0
    return -1 if (m // 2) % 2 else 1


def coeff_closed_form(n: int, k: int) -> Fraction:
    """Exact C_k^n = cos((n-k) pi/2) k^n / ((n-k)!! (n+k)!!)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"k must satisfy 0 <= k <= {n}, got {k}")
    sign = _cos_half_pi(n - k)
    if sign == 0 or k == 0:
        return Fraction(0)
    return Fraction(sign * k**n, _dfact(n - k) * _dfact(n + k))


@dataclass(frozen=True)
class CoefficientTable:
    """Triangular table of C_k^n for 1 <= n <= max_n, 0 <= k <= n."""

    max_n: int
    rows: tuple[tuple[Fraction, ...], ...]  # rows[n-1] has length n+1

    def value(self, n: int, k: int) -> Fraction:
        if not 1 <= n <= self.max_n:
            raise DomainError(f"n must be in 1..{self.max_n}, got {n}")
        if not 0 <= k <= n:
            raise DomainError(f"k must satisfy 0 <= k <= {n}, got {k}")
        return self.rows[n - 1][k]


def coeff_table_recurrence(max_n: int) -> CoefficientTable:
    """Build the C_k^n table from the triangular recurrence.

    Each diagonal is seeded with C_n^n = n^n/(2n)!!, C_{n-1}^n = 0, and
    (n^2-k^2) C_k^n = -k^2 C_k^{n-2} fills the rest of the row from the
    row two above (rows for n <= 0 are identically zero).  Must agree with
    coeff_closed_form entrywise; the pair of routes cross-validates both.
    """
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    rows: list[tuple[Fraction, ...]] = []
    zero = Fraction(0)
    for n in range(1, max_n + 1):
        prev = rows[n - 3] if n >= 3 else ()
        row = []
        for k in range(n - 1):
            prev_val = prev[k] if k < len(prev) else zero
            row.append(Fraction(-k * k, n * n - k * k) * prev_val)
        row.append(zero)  # k = n-1 is forced to zero
        row.append(Fraction(n**n, _dfact(2 * n)))  # diagonal seed
        rows.append(tuple(row))
    return CoefficientTable(max_n=max_n, rows=tuple(rows))


@dataclass(frozen=True)
class APoly:
    """A_n(t) as an exact coefficient vector; coeffs[k] multiplies t^k."""

    n: int
    coeffs: tuple[Fraction, ...]  # length n+1; only k == n (mod 2) entries nonzero


def _a_numerators(n: int):
    # (-1)^{n+k} binom(n,k) (2k-n)^n for k = 0..n//2: the numerator, over
    # n! 2^n, of the coefficient of t^{n-2k}
    binom = 1
    for k in range(n // 2 + 1):
        num = binom * (2 * k - n) ** n
        yield -num if (n + k) % 2 else num
        binom = binom * (n - k) // (k + 1)


def _numerator_rows():
    # the rows _a_numerators(n) for n = 1, 2, ..., holding only the last two:
    # row n comes from row n-2 by num(n, k+1) = -num(n-2, k) n(n-1) j^2 /
    # ((k+1)(n-1-k)) with j = n-2-2k, and num(n, 0) = n^n
    rows = [list(_a_numerators(2)), list(_a_numerators(1))]  # by parity of n
    yield from (rows[1], rows[0])
    for n in count(3):
        rows[n % 2] = [n**n] + [-num * (n * (n - 1) * (n - 2 - 2 * k) ** 2)
                                // ((k + 1) * (n - 1 - k))
                                for k, num in enumerate(rows[n % 2])]
        yield rows[n % 2]


def _a_kernel(n: int, nums, t: Fraction) -> tuple[int, int]:
    # A_n(t) as an unreduced integer pair from its numerators: a Horner sum in
    # p^2 with a running power of q^2 over n! 2^n q^n; the power-of-two part
    # of q (all of it for a float t) is a shift
    p, q = t.numerator, t.denominator
    twos = (q & -q).bit_length() - 1
    p2, q2 = p * p, (q >> twos) ** 2
    acc, q_pow = 0, 1
    for k, num in enumerate(nums):
        acc = acc * p2 + (num * q_pow << 2 * twos * k)
        q_pow *= q2
    if n % 2:
        acc *= p
    return acc, math.factorial(n) * 2**n * q**n


def _logabs(acc: int, den: int) -> tuple[float, int]:
    # (ln|acc/den|, sign) from acc/den in lowest terms, the pair a Fraction
    # would hold; the common powers of two go first by shifts, so the gcd
    # runs against the odd part of den, much shorter than den itself
    if acc == 0:
        return -math.inf, 0
    twos = min(acc & -acc, den & -den).bit_length() - 1
    acc, den = acc >> twos, den >> twos
    g = math.gcd(acc, den >> ((den & -den).bit_length() - 1))
    return math.log(abs(acc // g)) - math.log(den // g), (1 if acc > 0 else -1)


def _exact(t) -> Fraction:
    try:
        return Fraction(t)
    except (OverflowError, ValueError):  # inf, nan
        raise DomainError(f"t must be finite, got {t}") from None


def _a_logabs_stream(t, n_lo: int = 1):
    """(ln|A_n(t)|, sign) for n = n_lo, n_lo + 1, ..., each ==
    a_eval_logabs(n, t), from numerator rows streamed across n; the rows
    below n_lo are built but not summed.  t is checked at the call."""
    t = _exact(t)
    rows = islice(enumerate(_numerator_rows(), 1), n_lo - 1, None)
    return (_logabs(*_a_kernel(n, row, t)) for n, row in rows)


def a_poly(n: int) -> APoly:
    """Exact polynomial A_n(t); agrees with coeff_closed_form coefficientwise."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    denom = math.factorial(n) * 2**n
    out = [Fraction(0)] * (n + 1)
    for k, num in enumerate(_a_numerators(n)):
        out[n - 2 * k] = Fraction(num, denom)
    return APoly(n=n, coeffs=tuple(out))


def a_eval_exact(n: int, t) -> Fraction:
    """Exact A_n(t) at rational t, from the integer kernel.

    t may be a Fraction, an int, or a finite float (floats convert exactly
    to the dyadic rational they represent).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return Fraction(*_a_kernel(n, _a_numerators(n), _exact(t)))


def a_eval_logabs(n: int, t) -> tuple[float, int]:
    """(ln|A_n(t)|, sign) of the exact value a_eval_exact(n, t).

    t is taken as a_eval_exact takes it, a float exactly.  Returns sign 0
    (with log -inf) iff the exact value is 0.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _logabs(*_a_kernel(n, _a_numerators(n), _exact(t)))
