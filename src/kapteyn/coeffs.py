"""Exact power-series coefficients A_n(t) of the Kapteyn series.

F(z,t) = sum_{n>=1} t^n J_n(nz) admits a power series sum A_n(t) z^n whose
coefficients are degree-n polynomials in t with rational coefficients:

    A_n(t) = sum_{k=0}^{n} C_k^n t^k,
    C_k^n  = cos((n-k) pi/2) k^n / ((n-k)!! (n+k)!!)

with the double-factorial convention 0!! = 1.  The same polynomial can be
built from the triangular recurrence (n^2-k^2) C_k^n = -k^2 C_k^{n-2}
seeded with C_n^n = n^n/(2n)!!, or from the rearranged alternating form

    A_n(t) = (-1)^n/n! sum_{k<=n/2} (-1)^k binom(n,k) (k-n/2)^n t^{n-2k}.

A single A_n(t) is evaluated exactly by one integer kernel: at t = p/q the
alternating form times n! 2^n q^n is an integer, summed by Horner's rule in
p^2; a float t is taken as the dyadic rational it is.  The stream across n
that eval_power and figure 2 read instead comes from one row generator
(_term_rows): for every t, a row's head n^n x^m / (n! 2^n), x = t^2, takes
x^m / n! stepped across n and n^n built once per n and width, and the rest
of the row is stepped from the row two before, where |t| >= 1/8 as integers
over one power of two by C-level maps, and below 1/8 as fixed-width binary
floats, since there one unit per row would widen the integers by about
log2(1/t^2) bits a step.  One certificate (_row_logabs), with one bound for
both kinds of row, accepts each sum, and the stream restarts once, at a
predicted width.  Floats leave
only as (ln|A_n(t)|, sign), since A_500(t) can lie far outside float range.
Its values at the first width, and the rows' recurrence state at the last of
them, are kept for the last eight t, and later calls resume the rows there
without stepping any head again; the closed form and the recurrence stay as
oracles.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import count, islice, repeat
from operator import floordiv, lshift, mul, rshift

from .errors import DomainError

_WIDTH = 256  # the stream's starting width, in bits: that of each row's head
# (p, q), t = p/q -> (values of rows 1..n on, _term_rows' state at row n), newest last
_STORE: dict = {}
_STORE_T, _STORE_LOCK = 8, threading.Lock()  # t held; one writer at a time
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # HI has 32 bits


def _dfact(m: int) -> int:
    # double factorial m!! with 0!! = (-1)!! = 1
    return math.prod(range(m, 1, -2))


def coeff_closed_form(n: int, k: int) -> Fraction:
    """Exact C_k^n = cos((n-k) pi/2) k^n / ((n-k)!! (n+k)!!)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"k must satisfy 0 <= k <= {n}, got {k}")
    if (n - k) % 2 or k == 0:  # cos((n-k) pi/2) = 0, or k^n = 0
        return Fraction(0)
    sign = -1 if (n - k) // 2 % 2 else 1
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


@lru_cache(maxsize=8)  # the same at every t: figures 1 and 3 read one n at many t
def _a_numerators(n: int) -> tuple[int, ...]:
    # (-1)^{n+k} binom(n,k) (2k-n)^n for k = 0..n//2: the numerator, over
    # n! 2^n, of the coefficient of t^{n-2k}
    nums, binom = [], 1
    for k in range(n // 2 + 1):
        num = binom * (2 * k - n) ** n
        nums.append(-num if (n + k) % 2 else num)
        binom = binom * (n - k) // (k + 1)
    return tuple(nums)


def _a_kernel(n: int, t: Fraction) -> tuple[int, int]:
    # A_n(t) as an unreduced integer pair from its numerators: a Horner sum in
    # p^2 with a running power of q^2 over n! 2^n q^n; the power-of-two part
    # of q (all of it for a float t) is a shift
    p, q = t.numerator, t.denominator
    twos = (q & -q).bit_length() - 1
    p2, q2 = p * p, (q >> twos) ** 2
    acc, q_pow = 0, 1
    for k, num in enumerate(_a_numerators(n)):
        acc = acc * p2 + (num * q_pow << 2 * twos * k)
        q_pow *= q2
    if n % 2:
        acc *= p
    return acc, math.factorial(n) * 2**n * q**n


def _logabs(acc: int, den: int, e2: int = 0) -> tuple[float, int]:
    # (ln|acc 2^e2 / den|, sign) for den > 0, within about an ulp of max(1,
    # |ln|): the log of the ratio of the top bits, in [1/2, 1], plus e ln 2
    if acc == 0:
        return -math.inf, 0
    la, lb = acc.bit_length(), den.bit_length()
    r = (abs(acc) << 128 >> la) // (den << 64 >> lb)  # 64 or 65 bits
    e = e2 + la - lb - 64 + r.bit_length()
    f = math.log(math.ldexp(float(r), -r.bit_length()))
    return math.fsum((f, e * _LN2_HI, e * _LN2_LO)), (1 if acc > 0 else -1)


def _exact(t) -> Fraction:
    try:
        return Fraction(t)
    except (OverflowError, ValueError):  # inf, nan
        raise DomainError(f"t must be finite, got {t}") from None


def _scaled(num: int, den: int, width: int) -> tuple[int, int]:
    # (floor(num 2^s / den), s), the quotient of width or width + 1 bits
    s = width + den.bit_length() - num.bit_length()
    return (num << s if s >= 0 else num >> -s) // den, s


@lru_cache(maxsize=8192)  # rows to n = 4,096 at two widths
def _nth_power(n: int, width: int) -> tuple[int, int]:
    # n^n ~ nn 2^ne by squaring, each step kept to width bits: the same at every t,
    # so each (n, width) is built once
    nn, ne = n, 0
    for bit in bin(n)[3:]:
        nn, s = _scaled(nn * nn * (n if bit == "1" else 1), 1, width)
        ne = 2 * ne - s
    return nn, ne


def _term_rows(t: Fraction, width: int, state=None):
    # (n, row, unit, state) for n = 1, 2, ...: row[k] 2^unit ~ T(n, k) = |num(n, k)| x^(m-k)
    # / (n! 2^n), x = t^2, m = n // 2, num(n, k) != 0, where |t| >= 1/8; below, unit is
    # a list, one exponent per term, as one unit would widen a row's integers by about
    # log2(1/t^2) bits a step (over 1,500 rows the two cost about the same at t = 0.1).
    # The head T(n, 0) = n^n x^m / (n! 2^n) has width bits, from x^m / n! (x's m
    # truncations, one per n) and n^n by squaring (under n), each kept to width bits,
    # and one more: under 3n.  Then row n - 2 times j^2 / (4 k (n - k)), j = n - 2k:
    # with one unit, floored once, and a zero stays zero, so trailing zeros are
    # dropped; with one exponent per term, truncated to width bits, and as that factor
    # grows with j, trailing terms under 2^-(width + 64) of the top stay so on their
    # lineages: they are dropped.  At t = 0 each head past n = 1 is 0.  The state at
    # row n, (n, rows, pm, pe), holds rows n - 1 and n, each (row, unit) at index n % 2
    # of rows, and the head's x^m / n! ~ pm 2^pe; resumed from it, the rows go on at
    # n + 1 and no x^m / n! is stepped again.  With no state they start at n = 0:
    # rows -1 and 0 empty, x^m / n! exactly 1
    xm, xs = _scaled(t.numerator**2, t.denominator**2, width)
    n0, rows, pm, pe = state or (0, (((), 0), ((), 0)), 1 << (width - 1), 1 - width)
    squares, one_unit = [j * j for j in range(n0 + 1)], 64 * t.numerator**2 >= t.denominator**2
    for n in count(n0 + 1):
        squares.append(n * n)
        pm, s = _scaled(pm * xm ** (1 - n % 2), n, width)
        pe -= s + xs * (1 - n % 2)
        nn, ne = _nth_power(n, width)
        head = pm * nn
        s = max(head.bit_length() - width, 0)
        head, unit = head >> s, pe + ne + s - n
        prev, prev_unit = rows[n % 2]
        if one_unit:
            shift = prev_unit - 2 - unit
            terms, divs = map(mul, prev, squares[n - 2::-2]), map(mul, range(1, n), range(n - 1, 0, -1))
            if shift > 0:
                terms = map(lshift, terms, repeat(shift))
            elif shift < 0:
                divs = map(lshift, divs, repeat(-shift))
            row = [head, *map(floordiv, terms, divs)]
            while row and not row[-1]:
                del row[-1]
        else:
            row, unit = [head], [unit]
            for a, e, jj, k in zip(prev, prev_unit or (), squares[n - 2::-2], count(1)):
                b, d = a * jj, k * (n - k)
                s = width + d.bit_length() - b.bit_length()
                row.append((b << s if s >= 0 else b >> -s) // d)
                unit.append(e - s - 2)
            while unit[-1] < max(unit) - width - 66:  # terms have width or width + 1 bits
                del row[-1], unit[-1]
        rows = (rows[0], (row, unit)) if n % 2 else ((row, unit), rows[1])
        yield n, row, unit, (n, rows, pm, pe)


def _row_logabs(n: int, row, unit, t: Fraction, width: int):
    """(ln|A_n(t)|, sign) from row n of _term_rows, A_n(t) = t^(n mod 2)
    sum (-1)^k T(n, k), or if it cannot be certified the bits lost, an int.

    The N terms are summed in units 2^unit, or, with one exponent per term,
    aligned to the largest: S, E from even k less O from odd.  With u =
    2^(1 - width), the lineage of T(n, k) = V starts at the head of row j =
    n - 2k, low by under 3j u of itself, and takes k steps, so its term A
    in S has V - A <= 3n u V + c.  With one exponent per term each step
    truncates to width bits, under u V, and aligning floors once: c = 1;
    each dropped lineage stays under 2^-(width + 64) of a kept term, itself
    under 2^(width + 1) units, so together they add under 1.  With one unit,
    the term's ratio to its row's head rises, then falls (the step factor
    falls with k, the heads' ratio rises with n to e^2 x / 4), so each floor
    is either taken at 2^(width - 1) units or more, costing under u V, or
    after the fall, costing under 2 / (1 - 3n u) units, a ratio of heads:
    c = 2k / (1 - 3n u), and the K + 1 lineages, K = (n - 1) // 2, give
    sum c <= K (K + 1) / (1 - 3n u).  So V <= (A + c) / (1 - 3n u), and
    the shortfall D is under (3n u (E + O) + sum c) / (1 - 3n u) + 1.  The
    certificate requires |S| >= 2^64 B, B = floor((3n + 1) u (E + O + N))
    + K (K + 1) + N + 3; as |S| <= E + O, then (3n + 1) u < 2^-64, so for
    n < 2^32 the divisions by 1 - 3n u add under (3n + 1) u (E + O + N)
    - 3n u (E + O) + 1 units, and D < B: S's relative error is under
    2^-64, and its sign is right.  The bits lost are bitlen(E + O) -
    bitlen(|S|).
    """
    if isinstance(unit, int):
        even, odd = sum(row[::2]), sum(row[1::2])
    else:
        top = max(unit)
        even = sum(map(rshift, row[::2], map(top.__sub__, unit[::2])))
        odd = sum(map(rshift, row[1::2], map(top.__sub__, unit[1::2])))
        unit = top
    total, terms, lineages = even - odd, len(row), (n - 1) // 2 * ((n + 1) // 2)
    bound = ((3 * n + 1) * (even + odd + terms) >> width - 1) + lineages + terms + 3
    if abs(total) < bound << 64:
        return (even + odd).bit_length() - abs(total).bit_length()
    p, q = (t.numerator, t.denominator) if n % 2 else (1, 1)
    return _logabs(total * p, q, unit)


def _a_logabs_stream(t, n_lo: int = 1, n_hi: int = 0):
    """(ln|A_n(t)|, sign) for n = n_lo, n_lo + 1, ..., each log within a
    few ulps of max(1, |ln|A_n(t)||), each sign exact, summed from the
    rows of _term_rows, whatever t, and each sum certified by _row_logabs,
    whichever step built its row.  An n that
    _row_logabs cannot certify is taken from the exact kernel, and unless
    it is 0 the rows restart from n = 1, yielding nothing twice: at twice
    the width, or the first time at least the width its lost bits predict
    for n_hi, the last n the caller will read.  Rows below n_lo are built
    but not summed; t is checked here.

    The values summed at the first width in order from n = 1 are kept in
    _STORE, the first k of a list only its call appends to, with the state
    _term_rows yielded at row k, for the last _STORE_T values of t; a later
    call replays them and resumes the rows from that state, with no head
    stepped again, and a call stopped anywhere leaves a valid entry."""
    t = _exact(t)

    def stream(n_next, width, n_hi):
        key = t.numerator, t.denominator  # hashed in C, unlike a Fraction
        done, state = _STORE.get(key, ((), None))
        done = list(done[:state[0] if state else 0])  # appended to by this call alone
        yield from done[n_next - 1:]
        n_next = max(n_next, len(done) + 1)
        while True:
            rows = _term_rows(t, width, state)
            for n, row, unit, state in islice(rows, n_next - 1 - len(done), None):
                n_next, got = n + 1, _row_logabs(n, row, unit, t, width)
                if isinstance(got, int):
                    lost, got = got, _logabs(*_a_kernel(n, t))
                    if got[1]:
                        yield got
                        break
                if key and n == len(done) + 1:
                    done.append(got)
                    _keep(key, done, state)
                yield got
            # lost bits grow like n, under 1 per n; the certificate needs 68 + log2 n
            # more, and 28 are margin
            need = min(lost * n_hi // n, n_hi) + 96 + n_hi.bit_length() if n_hi else 0
            width, n_hi = max(2 * width, -(-need // 64) * 64), 0
            key, done, state = None, [], None

    return stream(n_lo, _WIDTH, n_hi)


def _keep(key, values, state) -> None:
    # values and the state at the last of them, if more than held for key, as the newest
    with _STORE_LOCK:
        held = _STORE.get(key)
        if not held or held[1][0] < state[0]:
            _STORE.pop(key, None)
            _STORE[key] = values, state
            if len(_STORE) > _STORE_T:
                del _STORE[next(iter(_STORE))]


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
    return Fraction(*_a_kernel(n, _exact(t)))


def a_eval_logabs(n: int, t) -> tuple[float, int]:
    """(ln|A_n(t)|, sign) of the exact value a_eval_exact(n, t).

    t is taken as a_eval_exact takes it, a float exactly.  Returns sign 0
    (with log -inf) iff the exact value is 0.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _logabs(*_a_kernel(n, _exact(t)))
