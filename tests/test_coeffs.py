import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kapteyn import (
    DomainError,
    a_eval_exact,
    a_eval_logabs,
    a_poly,
    coeff_closed_form,
    coeff_table_recurrence,
)
from kapteyn import coeffs
from kapteyn.coeffs import _a_logabs_stream, _a_numerators, _term_rows
from kapteyn.domain import singular_part, solve_R_true

from conftest import darboux_weights

# the first five polynomials, written out coefficient-by-coefficient
PRINTED = {
    1: {1: Fraction(1, 2)},
    2: {2: Fraction(1, 2)},
    3: {1: Fraction(-1, 16), 3: Fraction(9, 16)},
    4: {2: Fraction(-1, 6), 4: Fraction(2, 3)},
    5: {1: Fraction(1, 384), 3: Fraction(-81, 256), 5: Fraction(625, 768)},
}


class TestClosedForm:
    @pytest.mark.parametrize("n,k,expected", [
        (3, 1, Fraction(-1, 16)),
        (5, 5, Fraction(625, 768)),
        (4, 3, Fraction(0)),
        (1, 1, Fraction(1, 2)),
        (4, 4, Fraction(2, 3)),
        (4, 2, Fraction(-1, 6)),
    ])
    def test_values(self, n, k, expected):
        assert coeff_closed_form(n, k) == expected

    def test_vanishes_at_k_zero_and_odd_gap(self):
        for n in range(1, 12):
            assert coeff_closed_form(n, 0) == 0
            for k in range(1, n + 1):
                if (n - k) % 2:
                    assert coeff_closed_form(n, k) == 0

    def test_diagonal_positive(self):
        for n in range(1, 30):
            assert coeff_closed_form(n, n) > 0

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            coeff_closed_form(0, 0)
        with pytest.raises(DomainError):
            coeff_closed_form(3, 4)


class TestRecurrenceTable:
    def test_small_tables(self):
        tbl = coeff_table_recurrence(2)
        assert tbl.value(1, 1) == Fraction(1, 2)
        assert tbl.value(2, 2) == Fraction(1, 2)
        assert tbl.value(1, 0) == 0
        assert tbl.value(2, 0) == 0 and tbl.value(2, 1) == 0

    def test_row_four(self):
        tbl = coeff_table_recurrence(4)
        assert tbl.value(4, 4) == Fraction(2, 3)
        assert tbl.value(4, 2) == Fraction(-1, 6)

    def test_row_sums_to_half(self):
        tbl = coeff_table_recurrence(6)
        assert sum(tbl.rows[5]) == Fraction(1, 2)

    def test_matches_closed_form(self):
        tbl = coeff_table_recurrence(25)
        for n in range(1, 26):
            for k in range(n + 1):
                assert tbl.value(n, k) == coeff_closed_form(n, k), (n, k)

    def test_validation(self):
        with pytest.raises(DomainError):
            coeff_table_recurrence(0)
        tbl = coeff_table_recurrence(3)
        with pytest.raises(DomainError):
            tbl.value(4, 0)
        with pytest.raises(DomainError):
            tbl.value(3, 4)


class TestAPoly:
    @pytest.mark.parametrize("n", sorted(PRINTED))
    def test_printed_polynomials(self, n):
        poly = a_poly(n)
        expected = [PRINTED[n].get(k, Fraction(0)) for k in range(n + 1)]
        assert list(poly.coeffs) == expected

    def test_matches_closed_form_n7(self):
        poly = a_poly(7)
        for k in range(8):
            assert poly.coeffs[k] == coeff_closed_form(7, k)

    def test_parity_sparsity(self):
        for n in (6, 9, 14):
            for k, c in enumerate(a_poly(n).coeffs):
                if (n - k) % 2:
                    assert c == 0

    def test_coefficients_sum_to_half(self):
        for n in (1, 2, 3, 10, 37):
            assert sum(a_poly(n).coeffs) == Fraction(1, 2)

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            a_poly(0)


class TestEvalExact:
    def test_normalization_large_n(self):
        assert a_eval_exact(100, 1) == Fraction(1, 2)

    def test_zero_at_origin(self):
        assert a_eval_exact(17, 0) == 0

    def test_parity_example(self):
        assert a_eval_exact(9, Fraction(-3, 7)) == -a_eval_exact(9, Fraction(3, 7))

    @given(st.integers(1, 40), st.fractions(min_value=-4, max_value=4, max_denominator=50))
    @settings(max_examples=80, deadline=None)
    def test_parity_property(self, n, t):
        assert a_eval_exact(n, -t) == (-1) ** n * a_eval_exact(n, t)

    def test_reflection_identity_at_unity(self):
        # A_n(t) + A_n(1/t) at t = 1 collapses to 2 A_n(1) = 1
        for n in (1, 4, 9, 21):
            assert a_eval_exact(n, 1) + a_eval_exact(n, Fraction(1, 1)) == 1

    def test_large_t_leading_term(self):
        # for t >> 1 the top coefficient dominates: A_n(t) ~ (nt/2)^n / n!
        n, t = 30, 100
        lead = Fraction(n * t, 2) ** n / math.factorial(n)
        rel = abs(a_eval_exact(n, t) - lead) / lead
        assert rel < 0.01

    @given(st.integers(1, 40),
           st.one_of(st.integers(-4, 4),
                     st.fractions(min_value=-4, max_value=4, max_denominator=1000)))
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_both_oracles(self, n, t):
        t = Fraction(t)
        closed = sum(coeff_closed_form(n, k) * t**k for k in range(n + 1))
        row = coeff_table_recurrence(n).rows[n - 1]
        recurrence = sum(c * t**k for k, c in enumerate(row))
        assert a_eval_exact(n, t) == closed == recurrence

    def test_float_input_uses_exact_dyadic(self):
        assert a_eval_exact(3, 0.5) == a_eval_exact(3, Fraction(1, 2))

    def test_validation(self):
        for n, t in ((0, 1), (3, math.inf), (3, -math.inf), (3, math.nan)):
            with pytest.raises(DomainError):
                a_eval_exact(n, t)


class TestEvalLogAbs:
    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            a_eval_logabs(0, 0.5)

    def test_at_unity(self):
        for n in (4, 500):
            log_abs, sign = a_eval_logabs(n, 1)
            assert sign == 1
            assert log_abs == pytest.approx(math.log(0.5), abs=1e-13)

    def test_exact_rational_root_gives_sign_zero(self):
        # 9 t^3/16 = t/16 at t = 1/3 exactly
        log_abs, sign = a_eval_logabs(3, Fraction(1, 3))
        assert sign == 0
        assert log_abs == -math.inf

    def test_float_near_root_is_rounded_not_zero(self):
        # the float 1/3 is a dyadic off the exact root, so the sign survives
        _, sign = a_eval_logabs(3, 1 / 3)
        assert sign != 0

    def test_matches_exact_value(self):
        v = a_eval_exact(12, Fraction(7, 5))
        log_abs, sign = a_eval_logabs(12, Fraction(7, 5))
        assert sign == (1 if v > 0 else -1)
        assert log_abs == pytest.approx(math.log(abs(v)), rel=1e-13)

    @given(st.integers(1, 120),
           st.one_of(st.floats(min_value=-20, max_value=20,
                               allow_nan=False, allow_infinity=False),
                     st.floats(min_value=5e-324, max_value=2.0**-12),
                     st.floats(min_value=-(2.0**-12), max_value=-5e-324)))
    @settings(max_examples=60, deadline=None)
    def test_float_is_taken_exactly(self, n, t):
        assert a_eval_logabs(n, t) == a_eval_logabs(n, Fraction(t))

    def test_tiny_float_keeps_its_value(self):
        # A_3(t) = (9 t^3 - t)/16 is negative for small t > 0
        log_abs, sign = a_eval_logabs(3, 1e-30)
        assert sign == -1
        assert log_abs == pytest.approx(math.log(abs(a_eval_exact(3, 1e-30))), rel=1e-15)

    def test_rejects_non_finite(self):
        # the stream refuses at the call, before its first item is asked for
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                a_eval_logabs(3, t)
            with pytest.raises(DomainError):
                _a_logabs_stream(t)


# the t at which both log-magnitude paths are checked against mpmath
_GRID_T = [0.05, 0.1, 0.3, 0.5, 0.7, 1, 2.7, 20, -0.4, Fraction(3, 7), 0.29971, 1e-19]


def _check_logabs(got: tuple[float, int], v: Fraction) -> None:
    # (ln|v|, sign) to within 4 ulps of max(1, |ln|v||), against mpmath at
    # 256 bits, with the exact sign; an exact 0 is (-inf, 0)
    if v == 0:
        assert got == (-math.inf, 0)
        return
    mpmath = pytest.importorskip("mpmath")

    def top_bits(a: int):  # a to 320 bits, as converting all of it is slow
        s = max(a.bit_length() - 320, 0)
        return mpmath.ldexp(a >> s, s)

    with mpmath.workprec(256):
        ref = mpmath.log(top_bits(abs(v.numerator)) / top_bits(v.denominator))
        assert abs(got[0] - ref) <= 4 * 2.0**-52 * max(1, abs(ref))
    assert got[1] == (1 if v > 0 else -1)


class TestLogAbsStream:
    @pytest.mark.parametrize("t", [0.125, 0.7, 20, -0.4, Fraction(3, 7), 2.7])
    def test_terms_match_the_exact_numerators(self, t):
        # with one unit per row (|t| >= 1/8): V = T(n, k) / 2^unit, T(n, k) =
        # |num(n, k)| x^(m-k) / (n! 2^n), x = t^2, exceeds its term by at most its
        # stated error (3j + k) u V + 2k / (1 - 3n u), u = 2^(1 - width), j = n - 2k,
        # for every nonzero num; a dropped term counts as 0.  The head has width bits
        t, width, dropped = Fraction(t), 64, 0
        u = Fraction(2) ** (1 - width)
        for n, row, unit, _ in islice(_term_rows(t, width), 120):
            nums = [num for num in _a_numerators(n) if num]
            scale = Fraction(2) ** -unit / (math.factorial(n) * 2**n)
            assert len(row) <= len(nums) and 2 ** (width - 1) <= row[0] < 2**width
            for k, num in enumerate(nums):
                v = abs(num) * t ** (2 * (n // 2 - k)) * scale
                got = row[k] if k < len(row) else 0
                stated = (3 * (n - 2 * k) + k) * u * v + 2 * k / (1 - 3 * n * u)
                assert 0 <= v - got <= stated, (n, k)
            dropped += len(nums) - len(row)
        assert dropped > 0 or t < 1

    @pytest.mark.parametrize("t, fixed", [(0.125, True), (-0.125, True), (0.3, True),
                                          (20, True), (0.1249, False), (-0.1, False),
                                          (1e-5, False), (5e-324, False), (0.0, False)])
    def test_rows_are_fixed_point_from_one_eighth(self, t, fixed):
        # one unit per row where |t| >= 1/8; below, an exponent per term, so no
        # term widens past width + 1 bits however small t is
        rows = list(islice(_term_rows(Fraction(t), 64), 300))
        assert all(isinstance(unit, int) == fixed for _, _, unit, _ in rows)
        if not fixed:
            assert max(a.bit_length() for _, ms, _, _ in rows for a in ms) <= 65

    @pytest.mark.parametrize("t", [0.1, -0.1, 0.05, 1e-5, 2.0**-40, Fraction(3, 29)])
    def test_per_term_exponents_match_the_exact_numerators(self, t):
        # with an exponent per term (|t| < 1/8): T(n, k) = |num(n, k)| x^(m-k) /
        # (n! 2^n), x = t^2, is low by at most (3j + k) u of itself, u = 2^(1 -
        # width), j = n - 2k, the head's error and one truncation a step, for
        # every nonzero num the row keeps; each term it drops is under
        # 2^-(width + 64) of its top
        t, width, dropped = Fraction(t), 64, 0
        u = Fraction(2) ** (1 - width)
        for n, ms, es, _ in islice(_term_rows(t, width), 120):
            nums = [num for num in _a_numerators(n) if num]
            exact = [abs(num) * t ** (2 * (n // 2 - k)) / (math.factorial(n) * 2**n)
                     for k, num in enumerate(nums)]
            assert len(ms) == len(es) <= len(nums), n
            assert 2 ** (width - 1) <= ms[0] < 2**width
            for k, (a, e) in enumerate(zip(ms, es)):
                got = a * Fraction(2) ** e
                assert 2 ** (width - 1) <= a < 2 ** (width + 1)
                rel = (exact[k] - got) / exact[k]
                assert 0 <= rel <= (3 * (n - 2 * k) + k) * u, (n, k)
            top = exact[es.index(max(es))]
            for v in exact[len(ms):]:
                assert v < top / 2 ** (width + 64), n
            dropped += len(nums) - len(ms)
        assert dropped > 0 or abs(t) < 1e-5

    @pytest.mark.parametrize("kind", ["one unit", "per term"])
    def test_certificate_pins_its_bound(self, kind):
        # a hand-built row n = 3 of N = 2 terms at width 256, from both steps:
        # B = floor((3n + 1) u (E + O + N)) + K (K + 1) + N + 3 units, u = 2^(1 -
        # width), K = 1, from _row_logabs's docstring, so a sum of 2^64 (B - 1)
        # must be refused and one of 2^64 B accepted
        n, width, t, terms = 3, 256, Fraction(1, 10 if kind == "per term" else 3), 2
        odd = 1 << width - 1
        b = ((3 * n + 1) * (2 * odd + terms) >> width - 1) + 2 + terms + 3
        for total, refused in (((b - 1) << 64, True), (b << 64, False)):
            even = odd + total
            assert ((3 * n + 1) * (even + odd + terms) >> width - 1) + 2 + terms + 3 == b
            unit = [-300, -300] if kind == "per term" else -300
            got = coeffs._row_logabs(n, [even, odd], unit, t, width)
            assert isinstance(got, int) == refused, total >> 64

    @pytest.mark.parametrize("t", [0.1, 2.0**-40, 1e-5, 0.9, 20, Fraction(3, 7)])
    def test_head_is_within_its_truncations(self, t):
        # T(n, 0) = n^n x^m / (n! 2^n) from x^m / n! and n^n at width bits is low
        # by under 3n u of itself: m + (n - 1) + n + 1 truncations at most, with
        # one unit per row or an exponent per term
        t, width = Fraction(t), 64
        for n, row, unit, _ in islice(_term_rows(t, width), 300):
            exact = Fraction(n**n) * t ** (2 * (n // 2)) / (math.factorial(n) * 2**n)
            head_unit = unit if isinstance(unit, int) else unit[0]
            rel = (exact - row[0] * Fraction(2) ** head_unit) / exact
            assert 0 <= rel < 3 * n * Fraction(2) ** (1 - width), n

    def test_zero_t_yields_exact_zeros(self):
        # at t = 0 every head past n = 1 is 0; every A_n(0) is 0
        assert list(islice(_a_logabs_stream(0.0), 120)) == [(-math.inf, 0)] * 120

    @pytest.mark.parametrize("t", [0.1, -0.1, Fraction(3, 29), 0.3, 0.7, -0.4,
                                   Fraction(3, 7), 2.7])
    def test_accepted_sums_are_within_the_certificate(self, t, monkeypatch):
        # every sum _row_logabs accepts is within 2^-64 of A_n(t), relative,
        # checked exactly, and is at least 2^64 times the sum over all K + 1
        # lineages of their stated errors (3n - 5k) u V + c: c = 2k / (1 - 3n u)
        # with one unit per row, as in test_terms_match_the_exact_numerators, and
        # with an exponent per term c = 1 for aligning each kept term, plus 1 for
        # all the dropped ones.  At these narrow widths many sums are refused, so
        # acceptance is near its threshold, where a bound too small would show
        t, seen = Fraction(t), []
        p2, q2 = t.numerator**2, t.denominator**2

        def recorded(acc, den, e2=0):
            seen.append(Fraction(acc, den) * Fraction(2) ** e2)
            return 0.0, 1

        monkeypatch.setattr(coeffs, "_logabs", recorded)
        accepted = refused = 0
        for width in (72, 80, 96, 128):
            u = Fraction(2) ** (1 - width)
            for n, row, unit, _ in islice(_term_rows(t, width), 150):
                m, nums = n // 2, [num for num in _a_numerators(n) if num]
                if isinstance(unit, int):
                    top, terms = unit, row
                    units = sum(2 * k for k in range(len(nums))) / (1 - 3 * n * u)
                else:
                    top = max(unit)
                    terms = [a >> top - e for a, e in zip(row, unit)]
                    units = len(row) + 1
                den = q2**m * math.factorial(n) * 2**n * Fraction(2) ** top
                rel = sum((3 * n - 5 * k) * abs(num) * p2 ** (m - k) * q2**k
                          for k, num in enumerate(nums)) / den
                stated = rel * u + units
                total = sum(terms[::2]) - sum(terms[1::2])
                assert abs(sum(num * p2 ** (m - k) * q2**k for k, num in enumerate(nums))
                           / den - total) <= stated
                if isinstance(coeffs._row_logabs(n, row, unit, t, width), int):  # refused
                    refused += 1
                    continue
                accepted += 1
                assert abs(total) >= 2**64 * stated, (width, n)
                exact = a_eval_exact(n, t)
                assert abs(seen[-1] - exact) <= abs(exact) / 2**64, (width, n)
        assert accepted > 100 and refused > 100

    @given(st.integers(1, 300),
           st.one_of(st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
                     st.floats(min_value=-20, max_value=20,
                               allow_nan=False, allow_infinity=False),
                     st.floats(min_value=5e-324, max_value=2.0**-1020),
                     st.floats(min_value=-(2.0**-1020), max_value=-5e-324)))
    @example(300, 0.0)
    @example(300, 5e-324)
    @example(300, 0.125)
    @example(300, 1.0)
    @example(300, 20.0)
    @example(300, -0.4)
    @example(3, Fraction(1, 3))  # an exact root: sign 0
    @settings(max_examples=30, deadline=None)
    def test_both_paths_match_mpmath(self, n, t):
        v = a_eval_exact(n, t)
        _check_logabs(next(islice(_a_logabs_stream(t), n - 1, None)), v)
        _check_logabs(a_eval_logabs(n, t), v)

    @pytest.mark.parametrize("t", _GRID_T)
    def test_grid_matches_mpmath(self, t):
        for n, got in enumerate(islice(_a_logabs_stream(t), 400), 1):
            v = a_eval_exact(n, t)
            _check_logabs(got, v)
            _check_logabs(a_eval_logabs(n, t), v)

    def test_exact_root_yields_sign_zero(self):
        # A_3(1/3) = (9 t^3 - t)/16 = 0 exactly; the stream goes on past it
        got = list(islice(_a_logabs_stream(Fraction(1, 3)), 6))
        assert got[2] == (-math.inf, 0)
        for n, v in enumerate(got, 1):
            _check_logabs(v, a_eval_exact(n, Fraction(1, 3)))

    @pytest.mark.parametrize("t", [0.3, -0.4, Fraction(3, 7), 20])
    def test_narrow_start_restarts_and_stays_accurate(self, t, monkeypatch):
        # at 8 bits no sum is certified: each nonzero n is taken exactly and
        # the rows restart from n = 1 twice as wide, until they certify
        widths, exact = [], []
        rows, kernel = coeffs._term_rows, coeffs._a_kernel

        def recorded_rows(t, width, state=None):
            widths.append(width)
            return rows(t, width, state)

        def recorded_kernel(n, t):
            exact.append(n)
            return kernel(n, t)

        monkeypatch.setattr(coeffs, "_WIDTH", 8)
        monkeypatch.setattr(coeffs, "_term_rows", recorded_rows)
        monkeypatch.setattr(coeffs, "_a_kernel", recorded_kernel)
        values = list(islice(_a_logabs_stream(t), 150))
        assert widths[:4] == [8, 16, 32, 64]
        assert widths == [8 * 2**i for i in range(len(widths))]
        assert len(exact) >= len(widths) - 1 and exact == sorted(set(exact))
        for n, got in enumerate(values, 1):
            _check_logabs(got, a_eval_exact(n, t))

    def test_predicted_width_restarts_once(self, monkeypatch):
        # read to the n_hi it was given, the stream refuses once at 256 bits
        # and restarts at a width that certifies every row up to n_hi
        widths, built = [], []
        rows = coeffs._term_rows

        def recorded_rows(t, width, state=None):
            widths.append(width)
            for row in rows(t, width, state):
                built.append(row[0])
                yield row

        monkeypatch.setattr(coeffs, "_term_rows", recorded_rows)
        values = list(islice(_a_logabs_stream(0.9, n_hi=1000), 1000))
        assert len(widths) == 2 and widths[0] == coeffs._WIDTH
        assert len(built) <= 1.4 * len(values)
        for n in range(50, 1001, 50):
            _check_logabs(values[n - 1], a_eval_exact(n, 0.9))

    @pytest.mark.parametrize("t", [0.3, -0.4, Fraction(3, 7), 20])
    def test_each_restart_at_least_doubles(self, t, monkeypatch):
        # from 8 bits, with a predicted restart width, each width after a
        # refusal is at least twice the one before, and the values hold
        widths = []
        rows = coeffs._term_rows

        def recorded_rows(t, width, state=None):
            widths.append(width)
            return rows(t, width, state)

        monkeypatch.setattr(coeffs, "_WIDTH", 8)
        monkeypatch.setattr(coeffs, "_term_rows", recorded_rows)
        values = list(islice(_a_logabs_stream(t, n_hi=150), 150))
        assert len(widths) >= 2
        assert all(b >= 2 * a for a, b in zip(widths, widths[1:]))
        for n, got in enumerate(values, 1):
            _check_logabs(got, a_eval_exact(n, t))


class TestStreamAgainstSingularPart:
    # Darboux's method with three rungs: A_n R^n = g_n R^n + O(n^{-7/2}), with
    # g_n R^n = 2 Re[K sum_{j < 3} lambda_j w_j c_n e^{-i n theta}] of order
    # n^{-1/2} (the same without 2 Re for t > 1), z0 = R e^{i theta}, K and
    # lambda_j = 1, mu, nu from domain.singular_part, w_j c_n = [w^n](1 -
    # w)^(j - 1/2) from darboux_weights and c_n = binom(2n, n)/4^n taken
    # exactly here: an oracle for nu's row of domain._RUNGS and for the
    # stream's magnitude and sign at n = 500-2000, where the exact kernel is
    # slow.  n^{7/2} |A_n - g_n| R^n / |K| over each window of 100 n is flat
    # in n: at most 0.110, 0.147, 5.83, 0.049 and 0.015 at these t, 0.70 to
    # 0.76 of each bound; nu off by a tenth of itself reads 2.8 to 57, 6.9 to
    # 140 times the bound at the same t.  The signs are checked where |g_n| is
    # 100 times the bound
    _BOUND = {0.1: 0.15, 0.3: 0.2, 0.9: 8.0, 1.5: 0.07, 3.0: 0.02}

    @pytest.mark.parametrize("t", sorted(_BOUND))
    def test_stream_follows_the_singular_part(self, t):
        pinch = solve_R_true(t)
        z0, k, ratios = singular_part(pinch)
        pair, radius = (2 if pinch.branch == "pinch" else 1), abs(z0)
        values = list(islice(_a_logabs_stream(t, n_hi=2000), 2000))
        for lo in (500, 1200, 1900):
            for n in range(lo, lo + 100):
                log_a, sign = values[n - 1]
                a = sign * math.exp(log_a + n * math.log(radius))
                rungs = sum(r * float(w) for r, w in zip(ratios, darboux_weights(n, 3)))
                g = pair * (k * rungs * (math.comb(2 * n, n) / 4**n) * (radius / z0) ** n).real
                bound = self._BOUND[t] * abs(k) * n**-3.5
                assert abs(a - g) <= bound, (t, n, a - g, bound)
                if abs(g) > 100.0 * bound:
                    assert (a > 0) == (g > 0), (t, n)


class TestFirstTermLeftOut:
    # with four rungs subtracted, the residual A_n - g_n, g_n = K sum_{j < 4}
    # lambda_j [w^n](1 - w)^(j - 1/2) z0^-n, is about the first term left out,
    # f_n = K sigma [w^n](1 - w)^(7/2) z0^-n = 105 K sigma/((2n - 1)(2n -
    # 3)(2n - 5)(2n - 7)) c_n z0^-n (each plus its conjugate for t < 1), K
    # and sigma = lambda_4 from domain.singular_part; the next term is
    # smaller by about 1/n.  Here |r_n - f_n| over n = 150-300 is at most
    # 0.035 (t = 0.3) and 0.0053 (t = 1.5) of f_n's size pair |f_n| R^n.
    # sigma a tenth too large reads 0.122 at t = 0.3, a tenth too small 0.117
    # at t = 1.5, and a wrong sign of any of the five entries of its row in
    # domain._RUNGS 0.50 to 1.31 at one t at least

    @pytest.mark.parametrize("t", [0.3, 1.5])
    def test_residual_tracks_the_first_term_left_out(self, t):
        pinch = solve_R_true(t)
        z0, k, ratios = singular_part(pinch)
        pair, radius = (2 if pinch.branch == "pinch" else 1), abs(z0)
        values = list(islice(_a_logabs_stream(t, n_hi=300), 300))
        worst = 0.0
        for n in range(150, 301):
            log_a, sign = values[n - 1]
            a = sign * math.exp(log_a + n * math.log(radius))
            phase = math.comb(2 * n, n) / 4**n * (radius / z0) ** n
            terms = [k * r * float(w) for r, w in zip(ratios, darboux_weights(n, 5))]
            g, f = sum(terms[:4]), terms[4]
            size = pair * abs(f * phase)
            worst = max(worst, abs(a - pair * (g * phase).real - pair * (f * phase).real) / size)
        assert worst <= 0.1, (t, worst)


class TestSixthTermLeftOut:
    # with sigma's rung subtracted too, the residual A_n - g_n, g_n = K
    # sum_{j < 5} lambda_j [w^n](1 - w)^(j - 1/2) z0^-n, is about f_n = K
    # upsilon [w^n](1 - w)^(9/2) z0^-n = -945 K upsilon/((2n - 1)(2n - 3)(2n
    # - 5)(2n - 7)(2n - 9)) c_n z0^-n (each plus its conjugate for t < 1), K
    # and upsilon = lambda_5 from domain.singular_part.  r_n is about n^-5 of
    # g_n, beyond a float sum's reach, so A_n is exact and every sum is taken
    # at 40 digits.  Here |r_n - f_n| over n = 120-240 (step 3) is at most
    # 0.044, 0.036 and 0.036 of f_n's size pair |f_n| R^n at these t;
    # upsilon scaled by 0.9 or 1.1 reads at least 0.077 at each t

    @staticmethod
    def _worst(t, scale=1.0):
        mpmath = pytest.importorskip("mpmath")
        pinch = solve_R_true(t)
        z0, k, ratios = singular_part(pinch)
        pair, radius = (2 if pinch.branch == "pinch" else 1), abs(z0)
        worst = 0.0
        with mpmath.workdps(40):
            amps = [mpmath.mpc(k) * mpmath.mpc(r) for r in ratios]  # K lambda_j
            amps[5] *= scale
            rot = mpmath.mpf(radius) / mpmath.mpc(z0)
            for n in range(120, 241, 3):
                exact = a_eval_exact(n, t)
                a = mpmath.mpf(exact.numerator) / exact.denominator * mpmath.mpf(radius) ** n
                phase = mpmath.binomial(2 * n, n) / mpmath.mpf(4) ** n * rot**n
                terms = [amp * mpmath.mpf(w.numerator) / w.denominator
                         for amp, w in zip(amps, darboux_weights(n, 6))]
                g, f = sum(terms[:5]), terms[5]
                r = a - pair * (g * phase).real - pair * (f * phase).real
                worst = max(worst, float(abs(r) / (pair * abs(f * phase))))
        return worst

    @pytest.mark.parametrize("t", [0.3, 1.5, 3.0])
    def test_residual_tracks_the_sixth_term(self, t):
        worst = self._worst(t)
        assert worst <= 0.06, (t, worst)

    @pytest.mark.parametrize("t", [0.3, 1.5, 3.0])
    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_scaled_upsilon_is_caught(self, t, scale):
        worst = self._worst(t, scale)
        assert worst > 0.06, (t, scale, worst)


class TestStore:
    """coeffs._STORE: values certified at the first width, and the rows after
    them, kept per t so that later calls at that t resume the rows."""

    @staticmethod
    def _key(t):
        return Fraction(t).as_integer_ratio()

    @classmethod
    def _kept(cls, t):  # the count of values the entry for t holds
        return coeffs._STORE[cls._key(t)][1][0]

    @staticmethod
    def _cold(f, *args):
        coeffs._STORE.clear()
        return f(*args)

    def test_interleaved_calls_equal_cold_calls(self):
        # rings swept outward over several t, taking turns, the last ring at
        # t = 0.9 past the first refused row (n = 276); and reads from n_lo > 1
        from kapteyn import eval_power, solve_R_true

        def report(z, t):
            rep = eval_power(z, t)
            return rep.value, rep.terms_used, rep.tail_bound

        def rows(t, n_lo, count):
            return list(islice(_a_logabs_stream(t, n_lo), count))

        calls = [(rows, 0.3, 60, 20)]
        for ratio in (0.3, 0.6, 0.8, 0.95):
            for t in (0.1, 0.3, 0.9, -0.4):
                r = solve_R_true(abs(t)).radius
                calls.append((report, ratio * r * complex(0.6, 0.8), t))
            calls.append((rows, 0.3, 1 + int(100 * ratio), 40))
        warm = [f(*args) for f, *args in calls]
        assert len(coeffs._STORE) == 4
        assert warm == [self._cold(f, *args) for f, *args in calls]

    @pytest.mark.parametrize("t", [0.05, 0.3])
    def test_resumes_from_each_first_row(self, t):
        # an entry that holds rows 0 and 1 (row 0 empty), or 1 and 2, resumes in
        # either row format
        for k in (1, 2):
            self._cold(lambda: list(islice(_a_logabs_stream(t), k)))
            warm = list(islice(_a_logabs_stream(t), 40))
            assert warm == self._cold(lambda: list(islice(_a_logabs_stream(t), 40)))

    def test_second_call_sums_only_new_rows(self, monkeypatch):
        summed = []
        row_logabs = coeffs._row_logabs

        def recorded(n, *args):
            summed.append(n)
            return row_logabs(n, *args)

        monkeypatch.setattr(coeffs, "_row_logabs", recorded)
        first = list(islice(_a_logabs_stream(0.3), 30))
        assert summed == list(range(1, 31))
        del summed[:]
        second = list(islice(_a_logabs_stream(0.3), 50))
        assert summed == list(range(31, 51)) and second[:30] == first
        del summed[:]
        assert list(islice(_a_logabs_stream(0.3, 20), 31)) == second[19:]
        assert summed == []
        # rows below n_lo are built but not summed, so nothing past them is kept
        list(islice(_a_logabs_stream(0.3, 80), 10))
        assert summed == list(range(80, 90))
        assert self._kept(0.3) == 50

    @pytest.mark.parametrize("t", [0.05, 0.3])
    def test_resume_steps_the_head_only_for_new_rows(self, t, monkeypatch):
        # x^m / n! is stepped once per row, by _scaled(..., n, width); resumed
        # from the store after row 175, in either row format, only rows 176-180
        # step it
        steps, scaled = [], coeffs._scaled

        def recorded(num, den, width):
            if 1 < den <= 10**6:  # neither n^n's squarings (den 1) nor x = t^2
                steps.append(den)
            return scaled(num, den, width)

        cold = list(islice(_a_logabs_stream(t), 175))
        monkeypatch.setattr(coeffs, "_scaled", recorded)
        warm = list(islice(_a_logabs_stream(t), 180))
        assert steps == list(range(176, 181)) and warm[:175] == cold
        assert warm == self._cold(lambda: list(islice(_a_logabs_stream(t), 180)))

    def test_call_stopped_mid_row_leaves_the_store_valid(self, monkeypatch):
        # as a deadline's signal would: an exception raised while row 45 is summed
        row_logabs, raised = coeffs._row_logabs, []

        def failing(n, *args):
            if n == 45 and not raised:
                raised.append(n)
                raise RuntimeError("stopped")
            return row_logabs(n, *args)

        list(islice(_a_logabs_stream(0.7), 30))
        monkeypatch.setattr(coeffs, "_row_logabs", failing)
        with pytest.raises(RuntimeError):
            list(islice(_a_logabs_stream(0.7), 60))
        assert raised and self._kept(0.7) == 44
        warm = list(islice(_a_logabs_stream(0.7), 60))
        assert warm == self._cold(lambda: list(islice(_a_logabs_stream(0.7), 60)))

    def test_threads_at_one_t_agree(self):
        # more threads than cores, switching often, mid-row; past the first
        # refused row (n = 276) each restarts on its own
        import sys
        import threading

        interval, got = sys.getswitchinterval(), {}

        def read(i):
            got[i] = list(islice(_a_logabs_stream(0.9, n_hi=400), 400))

        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        cold = self._cold(lambda: list(islice(_a_logabs_stream(0.9, n_hi=400), 400)))
        assert [got[i] for i in range(4)] == [cold] * 4

    def test_keeps_at_most_eight_t(self):
        ts = [0.05 * i for i in range(1, 11)]
        for t in ts:
            list(islice(_a_logabs_stream(t), 5))
        assert list(coeffs._STORE) == [self._key(t) for t in ts[-8:]]
