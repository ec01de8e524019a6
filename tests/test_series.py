import cmath
import math
import random
from fractions import Fraction
from itertools import islice, product, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kapteyn import (
    CoeffSequence,
    ConvergenceError,
    DomainError,
    SeriesEvalReport,
    a_eval_exact,
    coeff_closed_form,
    eval_direct,
    eval_power,
    fundamental_residual,
    kapteyn_converges,
    kapteyn_to_taylor,
    kapteyn_to_taylor_exact,
    omega,
    solve_R,
    solve_R_true,
    solve_r,
    taylor_to_kapteyn,
    taylor_to_kapteyn_exact,
    theta_poly,
)
from kapteyn.coeffs import _a_logabs_stream
from kapteyn.domain import singular_part

from conftest import darboux_weights

# Taylor coefficients of J_1: 1/2, 0, -1/16, 0, 1/384, 0, -1/18432, ...
J1_TAYLOR = (Fraction(1, 2), Fraction(0), Fraction(-1, 16), Fraction(0),
             Fraction(1, 384), Fraction(0), Fraction(-1, 18432), Fraction(0))


@pytest.fixture
def node_calls(monkeypatch):
    """(n, line) of each call eval_direct makes to its quadrature."""
    from kapteyn import bessel

    calls, nodes = [], bessel._trapezoid_nodes

    def recorded(n, *line):
        calls.append((n, line))
        return nodes(n, *line)

    monkeypatch.setattr(bessel, "_trapezoid_nodes", recorded)
    return calls


class TestEvalDirect:
    def test_geometric_identity_at_t1(self):
        # F(z,1) = z/(2(1-z)); at z = 0.3 that is 3/14
        rep = eval_direct(0.3, 1.0, 1e-10)
        assert rep.value == pytest.approx(3 / 14, abs=1e-8)

    def test_zero_z(self):
        assert eval_direct(0.0, 5.0).value == 0

    def test_zero_t(self):
        assert eval_direct(0.7, 0.0).value == 0

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            eval_direct(2.0, 1.0)
        with pytest.raises(DomainError):
            eval_direct(1.0, 1.0)  # boundary is excluded (strict inequality)

    def test_outside_domain_where_z_squared_overflows(self):
        # omega(1e160 + 1j) = e, so omega t = 1.36 here
        with pytest.raises(DomainError, match="outside the Kapteyn convergence domain"):
            eval_direct(1e160 + 1j, 0.5)

    def test_near_boundary_within_tail_bound_of_closed_form(self):
        # 1 - omega(z) is 9.5e-4 and 9.4e-7 here, so the Kapteyn terms
        # barely fall; the quadrature converges, and near the pole of
        # w/(1-w) rounding dominates the bound; F(z,1) = z/(2(1-z))
        for z in (0.99, 0.9999):
            rep = eval_direct(z, 1.0, 1e-10)
            assert abs(rep.value - z / (2 * (1 - z))) <= rep.tail_bound
            assert rep.tail_bound <= 1e-8 * abs(rep.value)

    def test_point_whose_bessel_terms_overflowed_matches_mpmath(self, kapteyn_mpmath):
        # inside the domain; the J_n(nz) power series overflowed here
        z, t = -1.4676281218153417 + 0.01702673947714306j, 0.7250137137132295
        rep = eval_direct(z, t)
        assert abs(rep.value - kapteyn_mpmath(z, t)) <= rep.tail_bound

    @pytest.mark.parametrize("z,t", [(0.5, (1.0 - 1e-12) / omega(0.5)),
                                     (-0.03651930326447239 - 0.404071481690095j,
                                      1.742834965665414),
                                     (2000 + 1j, 0.3), (1e160 + 1j, 0.3)])
    def test_node_cap_refuses_before_any_node(self, monkeypatch, z, t):
        # 1 - omega(z)|t| = 1e-12: the strip where |w| < 1 is about 1e-6
        # wide, so the error theorem asks for far more than 65536 nodes; at
        # the second point omega|t| < 1, but the saddle line's own sup|w|
        # rounds to 1 or more, so there is no strip at all; the last two lie
        # deep inside the domain (omega t = 0.82), but N grows like 43|z|
        # (65,089 nodes at 1500+1j), so eval_direct reaches no further in |z|
        def no_nodes(*args):
            raise AssertionError("a trapezoid node was evaluated")

        monkeypatch.setattr("kapteyn.bessel._trapezoid_nodes", no_nodes)
        assert kapteyn_converges(z, t)
        with pytest.raises(ConvergenceError):
            eval_direct(z, t)

    def test_matches_mpmath_digits_near_the_boundary(self):
        # omega(0.9) * 0.95 = 0.92; mpmath's Kapteyn sum gives these digits
        rep = eval_direct(0.9, 0.95, 1e-14)
        assert rep.value == pytest.approx(2.3532728508319987, rel=1e-14, abs=0.0)

    def test_closed_form_where_the_half_strip_needed_too_many_nodes(self):
        # 1 - omega(z) = 9.4e-10 at this z: half the widest strip asked for
        # more than 65536 nodes, the best fraction of it for about 47,000
        z = 0.999999
        rep = eval_direct(z, 1.0)
        assert 30000 < rep.terms_used < 65536
        assert abs(rep.value - z / (2 * (1 - z))) <= rep.tail_bound

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_node_count_is_near_the_least_the_bound_allows(self, tol):
        # N against the least odd count with 2M/(e^{aN} - 1) <= tol over 2000
        # half-widths a in (0, lo), lo the widest strip with sup|w| < 1; under
        # about 40 nodes 5% is less than one odd step, so one step is allowed
        from kapteyn.bessel import _saddle_line

        checked = 0
        for z in (complex(x, y) for x in (-3.7, -1.1, 0.2, 0.9, 1.6, 3.9)
                  for y in (0.0, 0.05, -0.4, 2.0)):
            for t in (-0.6, 0.01, 0.3, 0.97, 0.999, 2.0):
                if abs(z) > 4.0 or not kapteyn_converges(z, t):
                    continue
                w, u = (-z, -t) if t < 0.0 else (z, t)
                _, log_sup_strip = _saddle_line(w, math.log(u) + math.log(abs(w)))
                lo, hi = 0.0, 1.0
                while log_sup_strip(hi) < 0.0:
                    hi *= 2.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if log_sup_strip(mid) < 0.0 else (lo, mid)
                least = math.inf
                for a in (lo * k / 2000 for k in range(1, 2000)):
                    ln_sup = log_sup_strip(a)
                    m = math.exp(ln_sup) / -math.expm1(ln_sup)
                    least = min(least, math.ceil(math.log1p(2.0 * m / tol) / a) | 1)
                if least > 65536:
                    continue
                checked += 1
                n = eval_direct(z, t, tol).terms_used
                assert n <= max(1.05 * least, least + 2), (z, t, n, least)
        assert checked > 60

    @pytest.mark.parametrize("z,gap,sign", [
        (0.5 + 0.5j, 1e-5, 1), (0.8j, 1e-5, -1), (-0.6, 1e-5, 1), (-2.2 + 0.4j, 1e-5, 1),
        (0.3 + 0.2j, 1e-4, -1), (3.0 - 1.0j, 1e-4, 1), (1.2 + 0.1j, 1e-3, 1),
        (0.2 - 0.1j, 1e-3, -1), (1.5, 1e-2, 1), (-1.4 + 2.0j, 1e-2, -1), (2.5 + 0.3j, 1e-1, 1)])
    def test_near_the_boundary_within_tail_bound_of_mpmath(self, z, gap, sign,
                                                           bessel_integral_mpmath):
        # 1 - omega(z)|t| = gap, some points at |Re z| > 1
        t = sign * (1.0 - gap) / omega(z)
        rep = eval_direct(z, t)
        assert abs(rep.value - bessel_integral_mpmath(z, t)) <= rep.tail_bound

    def test_terms_used_counts_nodes(self, node_calls):
        rep = eval_direct(0.2 + 0.1j, 0.7)
        assert [n for n, _ in node_calls] == [rep.terms_used]

    def test_rejects_non_finite_tolerance(self):
        for tol in (math.inf, math.nan, 0.0):
            with pytest.raises(DomainError):
                eval_direct(0.3, 0.5, tol)

    def test_negative_t_matches_parity(self):
        plus = eval_direct(0.2, 0.5, 1e-11).value
        minus = eval_direct(-0.2, -0.5, 1e-11).value
        assert minus == pytest.approx(plus, rel=1e-9)

    @pytest.mark.parametrize("z", [0.5, -0.4, 0.2 + 0.3j, 0.45j])
    def test_closed_form_at_t1(self, z):
        # F(z,1) = z/(2(1-z)) everywhere the sum converges
        for evaluate in (eval_direct, eval_power):
            value = evaluate(z, 1.0, 1e-11).value
            assert value == pytest.approx(z / (2 * (1 - z)), rel=1e-8)


# frozen oracle: the factorial series of each J_n(nz) summed term by term at
# z = 1/5, t = 1/2, 30 orders of 30 terms in exact rationals (recomputed
# below by _factorial_oracle)
F_AT_02_05 = 0.05530750464971255


def _factorial_oracle(z, t, orders=30, terms=30):
    # sum of t^n (nz/2)^{n+2j} (-1)^j / (j!(n+j)!), exact rationals
    acc = Fraction(0)
    for n in range(1, orders + 1):
        w = n * z / 2
        for j in range(terms):
            acc += t**n * Fraction((-1) ** j, math.factorial(j) * math.factorial(n + j)) \
                * w ** (n + 2 * j)
    return float(acc)


def _pde_residual(z, t, h=2.5e-4, tol=1e-14):
    # every t^n J_n(nz) solves z^2 y'' + z y' + (z^2 - 1)(t d/dt)^2 y = 0, as
    # (t d/dt)^2 t^n = n^2 t^n, so F does; central differences, t d/dt in ln t
    f = lambda z, t: eval_direct(z, t, tol).value
    fz = (f(z + h, t) - f(z - h, t)) / (2 * h)
    fzz = (f(z + h, t) - 2 * f(z, t) + f(z - h, t)) / (h * h)
    ftt = (f(z, t * math.exp(h)) - 2 * f(z, t) + f(z, t * math.exp(-h))) / (h * h)
    return abs(z * z * fzz + z * fz + (z * z - 1) * ftt)


# (z, t) with omega(z)|t| <= 0.75, both signs of t, |Re z| past 1 included
_PDE_GRID = [(z, t) for z in (0.3, 0.15 + 0.2j, -0.4, 0.6j, 0.5 + 0.5j, 0.9 - 0.1j, 1.0,
                              -0.7 - 0.2j, 1.5, -1.2j, 2.0 - 1.0j, -3.0j, 3.5)
             for t in (-0.6, -0.4, -0.2, 0.05, 0.3, 0.5, 0.7, 1.2) if omega(z) * abs(t) <= 0.75]


class TestEvalDirectIdentities:
    """Identities of the sum of t^n J_n(nz) that eval_direct's integrand must
    keep, each checked against an oracle that shares no code with it."""

    def test_against_factorial_series_oracle(self):
        rep = eval_direct(0.2, 0.5, 1e-14)
        assert rep.value.imag == 0
        assert rep.value.real == pytest.approx(F_AT_02_05, rel=1e-12)
        assert rep.value.real == pytest.approx(
            _factorial_oracle(Fraction(1, 5), Fraction(1, 2)), rel=1e-12)

    def test_pde_grid_covers_both_signs_of_t(self):
        assert len(_PDE_GRID) > 50
        assert {t > 0.0 for _, t in _PDE_GRID} == {True, False}

    @pytest.mark.parametrize("z,t", _PDE_GRID)
    def test_pde_residual_grid(self, z, t):
        assert _pde_residual(complex(z), t) < 1e-5

    @pytest.mark.parametrize("z,t", [(0.2 + 0.4j, 0.8), (1.0 - 0.3j, 0.6), (0.1 + 0.1j, -2.0),
                                     (1.4j, 0.3), (-2.5 + 0.3j, -0.3), (0.9 - 0.05j, 0.95),
                                     (-0.3 - 0.6j, 0.7), (3.0 + 1.0j, 0.1)])
    def test_conjugation_symmetry(self, z, t):
        # real Taylor coefficients in z: F(conj z, t) = conj F(z, t)
        a = eval_direct(z.conjugate(), t, 1e-13).value
        b = eval_direct(z, t, 1e-13).value.conjugate()
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("z", [0.3, 0.999, 1.0, -1.1, 2.5, -3.3, 4.0])
    def test_real_point_gives_real_value(self, z):
        checked = 0
        for t in (-3.0, -1.5, -0.8, -0.2, 0.001, 0.05, 0.4, 0.9, 1.3, 2.7):
            if kapteyn_converges(z, t):
                checked += 1
                assert eval_direct(z, t).value.imag == 0, t
        assert checked >= 3

    @pytest.mark.parametrize("z,t", [(0.4, 0.8), (1.1, -0.5), (0.9, 0.6), (-2.5, 0.3),
                                     (0.2 + 0.6j, 0.7), (0.8 - 0.4j, -0.6), (3.0, 0.2),
                                     (-0.3 - 1.0j, 0.4), (0.5, 1.5)])
    def test_against_scipy(self, z, t):
        # scipy's J_n(nz) summed until a term falls below 1e-18
        jv = pytest.importorskip("scipy.special").jv
        ref, n = 0j, 0
        while True:
            n += 1
            term = t**n * complex(jv(n, n * complex(z)))
            ref += term
            if n > 5 and abs(term) < 1e-18:
                break
        rep = eval_direct(z, t, 1e-14)
        assert abs(rep.value - ref) <= rep.tail_bound

    @given(st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
           st.floats(-0.9, 0.9),
           st.sampled_from([1e-6, 1e-8, 1e-10]))
    @settings(max_examples=60, deadline=None)
    def test_tighter_tolerance_agrees_within_both_bounds(self, z, share, tol):
        # omega(z)|t| <= |share|, with |t| <= 3 where omega(z) is small; a
        # smaller tol takes no fewer nodes, and both answers hold their bounds
        t = share / max(omega(z), 1.0 / 3.0)
        loose, tight = eval_direct(z, t, tol), eval_direct(z, t, 1e-13)
        assert loose.terms_used <= tight.terms_used
        assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound


class TestEvalPower:
    def test_geometric_identity_at_t1(self):
        rep = eval_power(0.3, 1.0, 1e-10)
        assert rep.value == pytest.approx(3 / 14, abs=1e-8)

    def test_zero_t(self):
        assert eval_power(0.05, 0.0).value == 0

    @pytest.mark.parametrize("z,t", [(0.0, 0.5), (0.05, 0.0), (0.0, 0.0)])
    def test_zero_point_returns_before_any_coefficient(self, z, t, monkeypatch):
        # as eval_direct does: no term is summed, so none is counted
        def no_stream(*args):
            raise AssertionError("a coefficient was streamed")

        monkeypatch.setattr("kapteyn.series._a_logabs_stream", no_stream)
        assert eval_power(z, t) == SeriesEvalReport(value=0j, terms_used=0, tail_bound=0.0)
        assert eval_direct(z, t) == eval_power(z, t)

    def test_outside_radius_raises(self):
        with pytest.raises(DomainError):
            eval_power(1.0, 1.0)
        with pytest.raises(DomainError):
            eval_power(0.5, 10.0)  # R(10) ~ 0.074

    def test_rejects_non_finite_tolerance(self):
        for tol in (math.inf, math.nan, 0.0):
            with pytest.raises(DomainError):
                eval_power(0.3, 0.5, tol)

    def test_subnormal_tolerance_is_answered(self):
        # tol times pi over the first left-out term's size underflowed to 0,
        # and its log raised ValueError; the bound says the tol is out of reach
        rep = eval_power(0.3, 0.5, 5e-324)
        assert rep.value == pytest.approx(eval_direct(0.3, 0.5, 1e-15).value, abs=rep.tail_bound)
        assert 1e-15 < rep.tail_bound < 1e-13

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_t(self, t):
        with pytest.raises(DomainError):
            eval_power(0.5, t)

    def test_tiny_t_within_tail_bound_of_mpmath(self):
        # a float t far below 2**-12 must enter the coefficients exactly, and
        # the tail bound must cover the odd terms, which scale like t while
        # the even ones scale like t^2
        mpmath = pytest.importorskip("mpmath")
        z, t = 0.5, 1e-19
        with mpmath.workdps(40):
            ref = complex(mpmath.fsum(mpmath.mpf(t) ** n * mpmath.besselj(n, n * z)
                                      for n in range(1, 12)))
        rep = eval_power(z, t)
        assert abs(rep.value - ref) <= rep.tail_bound

    def test_gate_is_the_true_radius_above_the_model(self):
        # the small-t model gives R(0.5) = 1.5404 < 1.55 < 1.5792 = true R
        assert solve_R(0.5).radius < 1.55 < solve_R_true(0.5).radius
        p = eval_power(1.55, 0.5)
        d = eval_direct(1.55, 0.5)
        assert abs(p.value - d.value) <= p.tail_bound

    def test_gate_is_the_true_radius_below_the_model(self, monkeypatch):
        # the small-t model gives R(0.1) = 3.0006 > 2.9 > 2.8652 = true R,
        # where the series diverges; the refusal must come before any term
        def no_terms(t):
            raise AssertionError(f"A_n({t}) streamed for a point outside the radius")

        monkeypatch.setattr("kapteyn.series._a_logabs_stream", no_terms)
        with pytest.raises(DomainError):
            eval_power(2.9j, 0.1)

    def test_tiny_radius_is_not_refused(self):
        # R(1e6) is below 1e-6, yet |z|/R = 0.30 here
        assert 2.2e-7 / solve_R_true(1e6).radius == pytest.approx(0.30, abs=0.01)
        p = eval_power(2.2e-7, 1e6)
        d = eval_direct(2.2e-7, 1e6)
        assert abs(p.value - d.value) <= p.tail_bound + d.tail_bound

    def test_underflowing_ratio_to_the_radius(self):
        # |z|/R(1e-300) underflows to 0; its log is taken as a difference
        rep = eval_power(5e-324, 1e-300)
        assert isinstance(rep, SeriesEvalReport)
        assert rep.value == 0

    def test_too_close_to_the_radius_is_refused_at_once(self, monkeypatch):
        # at |z|/R = 0.995 the terms fall too slowly to reach tol = 1e-10
        # within the term cap, so the call fails before any coefficient
        def no_terms(t):
            raise AssertionError(f"A_n({t}) streamed for a point that needs too many terms")

        monkeypatch.setattr("kapteyn.series._a_logabs_stream", no_terms)
        with pytest.raises(DomainError):
            eval_power(0.995 * solve_R_true(0.5).radius, 0.5)

    def test_each_row_is_built_once(self, monkeypatch):
        # N terms sum rows 1..N of one stream, each once, and no row past
        # them is read; the exact kernel runs only at A_4(1/2) = 0, and the
        # rows are built once
        from kapteyn import coeffs

        summed, exact, widths = [], [], []
        row_logabs, kernel, rows = coeffs._row_logabs, coeffs._a_kernel, coeffs._term_rows

        def recorded_sum(n, *args):
            summed.append(n)
            return row_logabs(n, *args)

        def recorded_kernel(n, t):
            exact.append(n)
            return kernel(n, t)

        def recorded_rows(t, width, state=None):
            widths.append(width)
            return rows(t, width, state)

        monkeypatch.setattr(coeffs, "_row_logabs", recorded_sum)
        monkeypatch.setattr(coeffs, "_a_kernel", recorded_kernel)
        monkeypatch.setattr(coeffs, "_term_rows", recorded_rows)
        rep = eval_power(0.9, 0.5)
        assert rep.terms_used > 20
        assert summed == list(range(1, rep.terms_used + 1))
        assert exact == [4] and len(widths) == 1

    def test_exact_zero_coefficient(self, kapteyn_mpmath):
        # A_3(1/3) = 0 exactly: the stream yields sign 0 there and goes on
        t = Fraction(1, 3)
        rep = eval_power(0.5, t)
        assert abs(rep.value - kapteyn_mpmath(0.5, t)) <= rep.tail_bound

    @pytest.mark.parametrize("z,t", [(0.2 + 0.1j, 0.7), (-0.2, 2.0), (0.1j, 4.0)])
    def test_cross_oracle_against_direct(self, z, t):
        d = eval_direct(z, t, 1e-10).value
        p = eval_power(z, t, 1e-10).value
        assert abs(d - p) <= 1e-8 * max(abs(d), abs(p))


class TestPowerBoundBelowOne:
    # for t just below 1, |A_n(t)| R^n dips a decade around each sign change,
    # one every pi/theta terms; a stop or tail read inside a dip undershot
    # the error by up to 18x on this grid.  eval_direct at tol 1e-15 judges.

    @pytest.mark.parametrize("t", [0.9, 0.95, 0.98, 0.99, 0.995, 0.999])
    def test_grid_within_both_bounds(self, t):
        radius = solve_R_true(t).radius
        checked = 0
        for k in range(8):
            for angle in (0.0, 0.02, 0.1):
                z = (0.8 + 0.17 * k / 7) * radius * cmath.exp(1j * angle)
                if not kapteyn_converges(z, t):
                    continue
                checked += 1
                p, d = eval_power(z, t), eval_direct(z, t, 1e-15)
                assert abs(p.value - d.value) <= p.tail_bound + d.tail_bound, (z, t)
        assert checked >= 16

    def test_loose_tolerance_near_the_radius(self):
        # the sum stopped in a dip at 137 terms, 0.0456 off with a bound of
        # 0.00447; at tol 1e-14 both evaluators give 11.56599297795
        p = eval_power(0.994008, 0.99, tol=8.91e-5)
        d = eval_direct(0.994008, 0.99, 1e-14)
        assert abs(p.value - d.value) <= p.tail_bound + d.tail_bound


# the points of TestTinyTGrid where eval_power's answer misses eval_direct's
# by more than both bounds, by up to 2.39 times: +-0.05 rad around arg z0
_TINY_T_BREACHES = {(1e-300, 0.98, "th0", 1e-10), (1e-300, 0.98, "th0+0.05", 1e-10),
                    (1e-100, 0.9, "th0-0.05", 1e-13), (1e-100, 0.9, "th0", 1e-13),
                    (1e-100, 0.9, "th0+0.05", 1e-13)}


class TestTinyTGrid:
    # the two evaluators against each other below t = 1e-5, at arguments
    # that include th0 = arg z0 and 0.05 rad either side; eval_direct at tol
    # 1e-15 judges

    @pytest.mark.parametrize("t, x, arg, tol", [
        pytest.param(*point, marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 2")]
                     if point in _TINY_T_BREACHES else [])
        for point in product((1e-300, 1e-100, 1e-30, 1e-15), (0.5, 0.9, 0.98),
                             (0.0, 0.7, "th0-0.05", "th0", "th0+0.05", 2.5), (1e-10, 1e-13))])
    def test_within_both_bounds(self, t, x, arg, tol):
        pinch = solve_R_true(t)
        angle = pinch.angle + float(arg[3:] or 0.0) if isinstance(arg, str) else arg
        z = x * pinch.radius * cmath.exp(1j * angle)
        p, d = eval_power(z, t, tol), eval_direct(z, t, 1e-15)
        assert abs(p.value - d.value) <= p.tail_bound + d.tail_bound, (p, d)


class TestPowerRefusals:
    # the in-loop refusals, reached by shrinking what they guard

    def test_too_many_terms(self, monkeypatch):
        # eval_power(0.5, 1.0) takes 36 terms; the refusal before the loop
        # expects 34, so it passes at a cap of 35 and the loop refuses
        from kapteyn import series

        monkeypatch.setattr(series, "_MAX_OUTER_TERMS", 35)
        with pytest.raises(ConvergenceError, match="did not settle within 35 terms"):
            eval_power(0.5, 1.0)

    def test_overflowed_term(self, monkeypatch):
        # a coefficient of e^800 overflows the first term
        monkeypatch.setattr("kapteyn.series._a_logabs_stream",
                            lambda t: repeat((800.0, 1)))
        with pytest.raises(ConvergenceError, match="overflowed at term 1"):
            eval_power(0.5, 0.5)


class TestPowerRoundingBudget:
    # the part of tail_bound that scales with eps (read here by doubling
    # series._EPS) is, in ulps: N sum |term|; the A_n terms' own, |a| (4
    # max(1, |ln|A_n||) + n spread + 16) (z/R)^n, a = A_n R^n; about 10n of
    # each subtracted rung j's term, pair |K lambda_j [w^n](1 - w)^(j - 1/2)|
    # (|z|/R)^n, [w^n](1 - w)^(j - 1/2) from darboux_weights; (6|w|/|1 - w| +
    # 20) of each closed-form part, |K w/(s(1 + s))| for j = 0 and |K
    # lambda_j w (1 + s + ... + s^(2j - 2))/(1 + s)| past it, w = z/z0, s =
    # sqrt(1 - w); and |value|.  Recomputed here from domain.singular_part
    # and the stream, it matches to 1e-6.  At t = 0.999, near the merging
    # pair, mu = 16.1, nu = 46 and |rho| = 2.6e4; |z| = 0.96 R subtracts the
    # rungs of K, mu and nu at tol 1e-10, and not rho's or sigma's; the mu and
    # nu parts of the subtracted terms are 1.6-2.0% and 7.1-8.8% of the
    # budget, the closed form's mu and nu parts 0.7-5.6% and 5.5-20% (off the
    # ray of z0 and on it, where 1 - w cancels).  At t = 0.9, |z| = 0.96 R
    # subtracts rho's and sigma's rungs too, each with two parts over 1e-3 of
    # the budget

    @staticmethod
    def _rounding_and_budget(t, angle, order, monkeypatch):
        # the rounding part of tail_bound, the budget's parts but the rungs',
        # and each rung's two parts, [subtracted terms, closed form]
        from kapteyn import series

        pinch = solve_R_true(t)
        z0, k, ratios = singular_part(pinch)
        amps = [k * r for r in ratios[:order]]  # K lambda_j
        radius = pinch.radius
        z = 0.96 * cmath.rect(radius, pinch.angle if angle is None else angle)
        rep = eval_power(z, t)
        monkeypatch.setattr(series, "_EPS", 2.0 * series._EPS)
        rounding = (eval_power(z, t).tail_bound - rep.tail_bound) / (0.5 * series._EPS)
        x, n_used = abs(z) / radius, rep.terms_used
        spread = 4 * (abs(math.log(radius)) + abs(math.log(abs(z)))) + 8
        own = abs_sum = 0.0
        rungs = [[0.0, 0.0] for _ in amps]
        for n, (log_a, sign) in enumerate(islice(_a_logabs_stream(t), n_used), 1):
            a = sign * math.exp(log_a + n * math.log(radius))
            c = math.comb(2 * n, n) / 4**n
            terms = [amp * float(w) * c for amp, w in zip(amps, darboux_weights(n, order))]
            abs_sum += abs(a - 2 * (sum(terms) * (radius / z0) ** n).real) * x**n
            own += x**n * abs(a) * (4 * max(1, abs(log_a)) + n * spread + 16)
            for rung, term in zip(rungs, terms):
                rung[0] += x**n * 2 * abs(term) * (10 * n + 16)
        for pole in (z0, z0.conjugate()):
            w = z / pole
            s = cmath.sqrt(1 - w)
            cancel = 6 * abs(w) / abs(1 - w) + 20
            rungs[0][1] += abs(amps[0] * w / (s * (1 + s))) * cancel
            for j in range(1, order):
                rungs[j][1] += abs(amps[j] * w * sum(s**e for e in range(2 * j - 1))
                                   / (1 + s)) * cancel
        return rounding, n_used * abs_sum + own + abs(rep.value), rungs

    @pytest.mark.parametrize("angle", [None, 1.0])
    def test_rounding_part_is_the_stated_budget(self, angle, monkeypatch):
        rounding, rest, rungs = self._rounding_and_budget(0.999, angle, 3, monkeypatch)
        budget = rest + sum(map(sum, rungs))
        assert abs(rounding - budget) <= 1e-6 * budget, (rounding, budget)

    @pytest.mark.parametrize("rung", [3, 4])  # rho's, sigma's
    @pytest.mark.parametrize("angle", [None, 1.0])
    def test_rung_rounding_parts_are_in_the_budget(self, angle, rung, monkeypatch):
        # each of the rung's two parts is over 1e-3 of the budget, so
        # tail_bound misses the 1e-6 match if it drops either
        rounding, rest, rungs = self._rounding_and_budget(0.9, angle, 5, monkeypatch)
        budget = rest + sum(map(sum, rungs))
        assert min(rungs[rung]) > 1e-3 * budget, (rungs, budget)
        assert abs(rounding - budget) <= 1e-6 * budget, (rounding, budget)


class TestRealSingularityEnvelope:
    # for t > 1 the singularity is real and the window two terms: A_n - g_n
    # starts with one sign and changes to the other once, then rises to a
    # hump before it falls.  A stop just before the change, or in the rise,
    # read a tail far under the hump's: t = 1.01, 1.02 and 1.05 (z = 0.9 R,
    # 0.7 R and 0.3 R, tol 1e-4) were 1.13, 1.31 and 1.01 times their bound
    # off, and t = 1.001 and 1.005 (0.95 R and 0.8 R, tol 1e-6) 1.31 and 3.2
    # times, when tail_bound came from the last two terms alone.  The stop is
    # where it was; tail_bound now also covers the hump.  The reference sums
    # A_n z^n at 40 digits to n = 1000 (exact A_n to 300, then the certified
    # stream), where the rest is under 1e-17.  At tol 1e-13 two gates keep
    # tail_bound near tol max(1, |F|): P's nu < 0 (subtracting P where nu >
    # 0, t below 1.0213, sent it to 9.9e7, 6.1e5, 6.5e4 and 6.8e3 times that
    # at t = 1.001, 1.005, 1.01 and 1.02, against at most 342 with the gate)
    # and Q's n0 >= 45 (Q and S subtracted closer in sent it to 35 at t =
    # 1.05 and 3.9 at t = 1.1, |z| <= 0.5 R, against at most 1.65)

    @pytest.mark.parametrize("t", [1.001, 1.005, 1.01, 1.02, 1.05, 1.1])
    def test_within_tail_bound_of_exact_sums(self, t):
        mpmath = pytest.importorskip("mpmath")
        radius = solve_R_true(t).radius
        with mpmath.workdps(40):
            coeffs = [mpmath.mpf(v.numerator) / v.denominator
                      for v in (a_eval_exact(n, t) for n in range(1, 301))]
            coeffs += [sign * mpmath.exp(log_a)
                       for log_a, sign in islice(_a_logabs_stream(t), 300, 1000)]
            for x in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95):
                for angle in (0.0, 0.7):
                    z = x * radius * cmath.exp(1j * angle)
                    ref = complex(mpmath.polyval(coeffs[::-1] + [0], mpmath.mpc(z)))
                    for tol in (1e-4, 1e-6, 1e-13):
                        rep = eval_power(z, t, tol)
                        assert abs(rep.value - ref) <= rep.tail_bound, (z, t, tol, rep, ref)
                    most = (3 if x <= 0.5 else 1000) * 1e-13 * max(1.0, abs(ref))
                    assert rep.tail_bound <= most, (z, t, rep)


# terms_used when eval_power came to subtract the fifth term S (1 - z/z0)^(7/2)
# of its singular part, at |z|/R = 0.5, 0.9 and 0.98 (one triple each), at
# arguments 0, 0.7 and 2.0 of z; t = 1e-5 and t from 0.99 to 1.02 took as many as before.
# t = 1 + 1e-8 holds K's gate n0 >= |K|^2/2 for t > 1: without it, 41, 228 and 1047
# terms at argument 0
_MOST_TERMS = {
    1e-05: ((28, 28, 28), (110, 110, 110), (208, 208, 208)),
    0.05: ((22, 22, 22), (40, 40, 40), (52, 52, 52)),
    0.3: ((23, 23, 23), (44, 44, 44), (65, 65, 65)),
    0.9: ((27, 27, 27), (74, 76, 76), (139, 156, 156)),
    0.99: ((36, 36, 36), (135, 143, 143), (361, 453, 453)),
    0.995: ((36, 36, 36), (149, 164, 164), (430, 530, 530)),
    0.999: ((36, 36, 36), (202, 216, 216), (606, 677, 677)),
    0.9999: ((36, 36, 36), (202, 216, 216), (954, 1114, 1114)),
    1.0: ((36, 36, 36), (201, 215, 215), (951, 1109, 1109)),
    1 + 1e-8: ((36, 36, 36), (201, 215, 215), (950, 1109, 1109)),
    1.0001: ((36, 36, 36), (183, 196, 196), (717, 877, 877)),
    1.005: ((31, 31, 31), (133, 142, 142), (380, 465, 465)),
    1.01: ((28, 28, 28), (120, 128, 128), (329, 406, 406)),
    1.02: ((29, 29, 29), (107, 115, 115), (291, 364, 364)),
    1.5: ((22, 22, 22), (31, 33, 33), (37, 45, 45)),
    3.0: ((20, 20, 20), (30, 31, 31), (35, 43, 43)),
    -0.5: ((23, 23, 23), (49, 49, 49), (77, 77, 77)),
    -1.5: ((22, 22, 22), (33, 33, 33), (45, 45, 45)),
    Fraction(1, 3): ((22, 22, 22), (43, 43, 43), (67, 65, 67)),
    0.5: ((23, 23, 23), (49, 49, 49), (77, 77, 77)),
}


class TestSingularPartGrid:
    # the sum of A_n - g_n plus g(z) in closed form, through t -> 1 from both
    # sides (where K, M, P, Q and S are subtracted only far enough out, and
    # P, Q and S not at all for t in (1, 1.0213), where nu > 0), at t = 1
    # (never), negative t, and exact zeros (A_4(1/2) = A_3(1/3) = 0, where
    # the term is -g_n).  The reference sums A_n z^n at 40 digits to n =
    # 1500, where the sum of |A_n z^n| beyond is under 2e-4 of every bound;
    # A_n is exact to n = 300, and past it comes from the certified stream,
    # whose few ulps of ln|A_n| move the sum by under 1e-16

    @pytest.mark.parametrize("t", list(_MOST_TERMS))
    def test_within_tail_bound_of_exact_sums_in_no_more_terms(self, t):
        mpmath = pytest.importorskip("mpmath")
        radius = solve_R_true(abs(float(t))).radius
        reports = []
        for x, most_terms in zip((0.5, 0.9, 0.98), _MOST_TERMS[t]):
            for angle, most in zip((0.0, 0.7, 2.0), most_terms):
                z = x * radius * cmath.exp(1j * angle)
                rep = eval_power(z, t)
                assert math.isfinite(rep.tail_bound) and rep.terms_used <= most, (z, rep)
                reports.append((z, rep))
        n_ref = 1500
        with mpmath.workdps(40):
            coeffs = [mpmath.mpf(v.numerator) / v.denominator
                      for v in (a_eval_exact(n, t) for n in range(1, 301))]
            coeffs += [sign * mpmath.exp(log_a) if sign else mpmath.mpf(0)
                       for log_a, sign in islice(_a_logabs_stream(t), 300, n_ref)]
            for z, rep in reports:
                ref = complex(mpmath.polyval(coeffs[::-1] + [0], mpmath.mpc(z)))
                assert abs(rep.value - ref) <= rep.tail_bound, (z, rep, ref)


class TestCrossEvaluatorGrid:
    def test_random_points_agree(self):
        rng = random.Random(97)
        for t in (0.25, 1.0, 4.0):
            rmax = 0.8 * min(solve_r(t).radius, solve_R(t).radius)
            for _ in range(5):
                z = rng.uniform(0.1, 1.0) * rmax * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                d = eval_direct(z, t, 1e-11).value
                p = eval_power(z, t, 1e-11).value
                assert abs(d - p) <= 1e-8 * max(abs(d), abs(p))


class TestTruncationHonesty:
    # tail_bound must cover the distance to a far longer evaluation: for
    # eval_power a 40-digit sum of exact A_n z^n to n = 300, where |z|/R is
    # at most 0.53 at these points and the rest is under 1e-80 (a float sum
    # to twice the terms used erred itself by about (|z|/R)^(2N)); for
    # eval_direct the same rule with twice the nodes

    @pytest.mark.parametrize("z,t", [(0.9, 0.25), (0.5 + 0.3j, 0.5), (0.2, 2.0), (-0.35, 1.0)])
    def test_power_tail_bound(self, z, t):
        mpmath = pytest.importorskip("mpmath")
        rep = eval_power(z, t, 1e-8)
        with mpmath.workdps(40):
            coeffs = [mpmath.mpf(v.numerator) / v.denominator
                      for v in (a_eval_exact(n, t) for n in range(1, 301))]
            ref = complex(mpmath.polyval(coeffs[::-1] + [0], mpmath.mpc(z)))
        assert abs(rep.value - ref) <= rep.tail_bound

    @pytest.mark.parametrize("z,t", [(0.9, 0.25), (0.5 + 0.3j, 0.5), (0.2, 2.0), (-0.35, 1.0)])
    def test_direct_tail_bound(self, z, t, node_calls):
        # the same line with 2N + 1 nodes (the rule takes odd counts)
        from kapteyn import bessel

        rep = eval_direct(z, t, 1e-8)
        ((n, line),) = node_calls
        longer, _ = bessel._trapezoid_nodes(2 * n + 1, *line)
        assert abs(rep.value - longer) <= rep.tail_bound


# |value - F| <= tail_bound on a fixed grid: |z| = 0.1 and 0.4 at four
# angles, against t of both signs.  At |z| = 0.1 rounding is most of the
# bound: at (0.1 e^{0.7i}, 0.7) eval_power is 1.1e-16 off, and its
# truncation bound alone is 6.6e-18.  F is mpmath's Kapteyn sum, or the
# closed form z/(2(1-z)) at t = 1.
_BUDGET_GRID = [(r * cmath.exp(1j * ang), t)
                for r in (0.1, 0.4) for ang in (0.0, 0.7, 1.5708, 2.5)
                for t in (0.1, 0.7, 0.9, -0.4)]
# tiny and huge t; |z|/R = 0.95 at (1.5, 0.5); near the Kapteyn boundary,
# omega|t| = 0.989 (with |z|/R = 0.95), 0.995, 0.92 and 0.9; tiny F, where
# eval_direct's tol is absolute (a bound near 2e-12 at (1e-3, 1e-3))
_BUDGET_EXTRA = [(0.5, 1e-19), (2.2e-7, 1e6), (1.5, 0.5),
                 (0.95, 1.0), (0.66j, 1.0), (0.9, 0.95), (0.9, -0.95),
                 (0.5 + 0.5j, 0.9294419121847727),
                 (1e-3, 1e-3), (1e-3j, 0.5), (0.01 - 0.02j, -1e-4)]


class TestErrorBudget:
    @pytest.mark.parametrize("z,t", _BUDGET_GRID + _BUDGET_EXTRA)
    def test_both_evaluators_within_tail_bound(self, z, t, kapteyn_mpmath):
        ref = z / (2 * (1 - z)) if t == 1.0 else kapteyn_mpmath(z, t)
        for evaluate in (eval_direct, eval_power):
            rep = evaluate(z, t)
            assert abs(rep.value - ref) <= rep.tail_bound, evaluate.__name__


class TestFundamentalResidual:
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.5, 0.3j, 0.2 + 0.2j, 0.4])
    def test_small_residuals(self, z):
        assert fundamental_residual(z, 1e-10) < 1e-7

    def test_exactly_zero_at_origin(self):
        assert fundamental_residual(0.0) == 0.0

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            fundamental_residual(1.0)


class TestThetaPoly:
    def test_order_zero_is_inverse_z(self):
        assert theta_poly(0).terms == ((-1, Fraction(1)),)

    def test_order_one(self):
        assert theta_poly(1).terms == ((-1, Fraction(1, 2)),)

    def test_order_two_drops_vanishing_term(self):
        # the k=1 term carries (n-2k)^2 = 0 and is omitted
        assert theta_poly(2).terms == ((-2, Fraction(1)),)

    def test_exponent_pattern(self):
        for n in (3, 4, 7, 10):
            poly = theta_poly(n)
            exps = [e for e, _ in poly.terms]
            assert exps == sorted(exps)
            for e, c in poly.terms:
                assert (e + n) % 2 == 0 and -n <= e <= n
                assert c != 0

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            theta_poly(-1)


class TestTaylorToKapteyn:
    def test_recovers_geometric_alphas(self):
        # a_n = 2 A_n(1/2) are the Taylor coefficients of twice the series
        # whose Kapteyn coefficients are (1/2)^n
        t0 = Fraction(1, 2)
        a = CoeffSequence(tuple(float(2 * a_eval_exact(n, t0)) for n in range(1, 9)),
                          "taylor_a")
        alpha = taylor_to_kapteyn(a, 8)
        for n, v in enumerate(alpha.values, start=1):
            assert v == pytest.approx(0.5**n, abs=1e-10)

    def test_zero_maps_to_zero(self):
        a = CoeffSequence((0.0,) * 6, "taylor_a")
        assert taylor_to_kapteyn(a, 6).values == (0.0,) * 6

    def test_unit_first_coefficient(self):
        alpha = taylor_to_kapteyn(CoeffSequence((1.0, 0.0, 0.0), "taylor_a"), 3)
        assert alpha.values[0] == 1.0

    def test_wrong_convention_rejected(self):
        seq = CoeffSequence((1.0, 2.0), "kapteyn_alpha")
        with pytest.raises(DomainError):
            taylor_to_kapteyn(seq, 2)

    def test_short_input_rejected(self):
        seq = CoeffSequence((1.0, 2.0), "taylor_a")
        with pytest.raises(DomainError):
            taylor_to_kapteyn(seq, 5)
        with pytest.raises(DomainError):
            taylor_to_kapteyn_exact([1, 2], 5)

    def test_empty_output_rejected(self):
        with pytest.raises(DomainError):
            taylor_to_kapteyn(CoeffSequence((1.0,), "taylor_a"), 0)


class TestKapteynToTaylor:
    def test_geometric_alphas_give_poly_values(self):
        # alpha_n = 3^n reproduces the polynomial values A_k(3) exactly; the
        # closed form is an oracle that does not share the map's weights
        alpha = [Fraction(3) ** n for n in range(1, 6)]
        out = kapteyn_to_taylor_exact(alpha, 5)
        for k, v in enumerate(out, start=1):
            assert v == a_eval_exact(k, 3)
            assert v == sum(coeff_closed_form(k, n) * 3**n for n in range(1, k + 1))

    def test_short_input_rejected(self):
        with pytest.raises(DomainError):
            kapteyn_to_taylor(CoeffSequence((1.0, 2.0), "kapteyn_alpha"), 5)
        with pytest.raises(DomainError):
            kapteyn_to_taylor_exact([1, 2], 5)

    def test_delta_gives_j1_taylor_coefficients(self):
        out = kapteyn_to_taylor_exact([1, 0, 0, 0, 0, 0, 0, 0], 8)
        assert tuple(out) == J1_TAYLOR

    def test_float_surface_matches_exact_core(self):
        alpha = CoeffSequence((1.0, -0.5, 0.25, 2.0), "kapteyn_alpha")
        out = kapteyn_to_taylor(alpha, 4)
        exact = kapteyn_to_taylor_exact([Fraction(v) for v in alpha.values], 4)
        assert out.convention == "taylor_a"
        assert out.values == tuple(float(v) for v in exact)


class TestRoundTrip:
    def test_round_trip_identity(self):
        # to-Taylor then to-Kapteyn with the doubled sequence is the identity
        rng = random.Random(4821)
        for _ in range(10):
            alpha = CoeffSequence(tuple(rng.uniform(-1, 1) for _ in range(10)),
                                  "kapteyn_alpha")
            a = kapteyn_to_taylor(alpha, 10)
            doubled = CoeffSequence(tuple(2 * v for v in a.values), "taylor_a")
            back = taylor_to_kapteyn(doubled, 10)
            for x, y in zip(back.values, alpha.values):
                assert x == pytest.approx(y, abs=1e-9)

    def test_round_trip_exact_core(self):
        alpha = [Fraction(k, 7) for k in range(1, 11)]
        a = kapteyn_to_taylor_exact(alpha, 10)
        back = taylor_to_kapteyn_exact([2 * v for v in a], 10)
        assert back == alpha


class TestLinearity:
    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6),
           st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_both_maps_linear(self, xs, ys):
        both = [x + y for x, y in zip(xs, ys)]
        for conv, fwd in (("taylor_a", taylor_to_kapteyn),
                          ("kapteyn_alpha", kapteyn_to_taylor)):
            fx = fwd(CoeffSequence(tuple(xs), conv), 6).values
            fy = fwd(CoeffSequence(tuple(ys), conv), 6).values
            fb = fwd(CoeffSequence(tuple(both), conv), 6).values
            for s, a, b in zip(fb, fx, fy):
                assert abs(s - (a + b)) < 1e-12 * max(1.0, abs(a), abs(b))


class TestCoeffSequenceValidation:
    def test_bad_convention(self):
        with pytest.raises(DomainError):
            CoeffSequence((1.0,), "fourier")

    def test_empty(self):
        with pytest.raises(DomainError):
            CoeffSequence((), "taylor_a")

    def test_non_finite(self):
        with pytest.raises(DomainError):
            CoeffSequence((math.nan,), "taylor_a")

    def test_non_real(self):
        for bad in ("1.0", 1j, None):
            with pytest.raises(DomainError):
                CoeffSequence((1.0, bad), "taylor_a")

    def test_values_cannot_change_after_the_check(self):
        # the caller's list is copied: appending to it afterwards changes nothing
        v = [1.0, 2.0]
        seq = CoeffSequence(v, "taylor_a")
        v.append(math.nan)
        assert seq.values == (1.0, 2.0)
        assert hash(seq) == hash(CoeffSequence((1.0, 2.0), "taylor_a"))
        with pytest.raises(DomainError, match="need at least 3"):
            taylor_to_kapteyn(seq, 3)

    @pytest.mark.parametrize("n_out", [3.5, 2.0, "2", None])
    def test_non_integer_output_length(self, n_out):
        for fwd, conv in ((taylor_to_kapteyn, "taylor_a"), (kapteyn_to_taylor, "kapteyn_alpha")):
            with pytest.raises(DomainError, match="output length must be an integer"):
                fwd(CoeffSequence((1.0, 2.0, 3.0, 4.0), conv), n_out)
