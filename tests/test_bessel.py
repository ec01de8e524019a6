import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kapteyn import ConvergenceError, DomainError, bessel_jn_scaled, sqrt1mz2

# the mpmath grid's z, all with |z| <= 4, against orders 1..1000
_GRID_Z = (0.3, 0.9, 1.0, -1.1, 2.5, 4.0, 0.5 + 0.5j, 1.0 - 0.3j, 2.0 + 1.0j, 1.5j, 3.9j)
_GRID_N = (1, 2, 3, 5, 10, 20, 50, 100, 200, 1000)

# frozen oracle: direct factorial-form summation of J_3(3 * float(0.2)),
# 50 terms in exact rational arithmetic (recomputed below by _oracle_jn)
J3_AT_06 = 0.004399656708362194


def _oracle_jn(n, z, terms=50):
    # brute-force factorial series, exact rationals, real z only
    w = Fraction(n) * Fraction(z) / 2
    acc = Fraction(0)
    for j in range(terms):
        acc += Fraction((-1) ** j, math.factorial(j) * math.factorial(n + j)) * w ** (n + 2 * j)
    return float(acc)


def _ode_residual(n, z, h=1e-4, tol=1e-14):
    # |z^2 y'' + z y' + n^2 (z^2 - 1) y| for y(z) = J_n(nz), central differences
    y = lambda x: bessel_jn_scaled(n, x, tol).value
    yp = (y(z + h) - y(z - h)) / (2 * h)
    ypp = (y(z + h) - 2 * y(z) + y(z - h)) / (h * h)
    return abs(z * z * ypp + z * yp + n * n * (z * z - 1) * y(z))


class TestSqrt1mz2:
    def test_zero(self):
        assert sqrt1mz2(0) == 1

    def test_imaginary_unit(self):
        assert sqrt1mz2(1j) == pytest.approx(math.sqrt(2))

    def test_tie_broken_upward(self):
        # 1 - 4 = -3: real part of the root is zero, pick Im >= 0
        s = sqrt1mz2(2)
        assert s == pytest.approx(1j * math.sqrt(3))
        assert s.imag > 0

    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    def test_square_identity_and_branch(self, z):
        s = sqrt1mz2(z)
        assert abs(s * s - (1 - z * z)) < 1e-14 * (1 + abs(z) ** 2)
        assert s.real >= 0.0
        if s.real == 0.0:
            assert s.imag >= 0.0

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            sqrt1mz2(complex(float("nan"), 0))


class TestBesselJnScaled:
    def test_zero_argument(self):
        rep = bessel_jn_scaled(1, 0.0)
        assert rep.value == 0
        assert rep.tail_bound == 0.0

    def test_against_factorial_series_oracle(self):
        rep = bessel_jn_scaled(3, 0.2, 1e-16)
        assert rep.value.imag == 0
        assert rep.value.real == pytest.approx(J3_AT_06, rel=1e-12)
        assert rep.value.real == pytest.approx(_oracle_jn(3, 0.2), rel=1e-12)

    def test_ode_residual_at_example_point(self):
        assert _ode_residual(5, 1.0 + 0j) < 1e-6

    @pytest.mark.parametrize("n,z", [(n, z) for n in range(1, 21) for z in (0.3, 0.15 + 0.2j)]
                             + [(n, z) for n in (1, 2, 3, 5, 8)
                                for z in (1.0, 1.5, 0.6j, 0.5 + 0.5j, 1.2)])
    def test_ode_residual_grid(self, n, z):
        assert _ode_residual(n, complex(z)) < 1e-5

    @pytest.mark.parametrize("n,z", [(3, 0.2 + 0.4j), (7, 1.0 - 0.3j), (12, 0.1 + 0.1j), (20, 1.4j)])
    def test_conjugation_symmetry(self, n, z):
        a = bessel_jn_scaled(n, z.conjugate(), 1e-13).value
        b = bessel_jn_scaled(n, z, 1e-13).value.conjugate()
        assert abs(a - b) < 1e-12

    @given(st.integers(1, 15),
           st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
           st.sampled_from([1e-8, 1e-10, 1e-12]))
    @settings(max_examples=60, deadline=None)
    def test_tail_bound_below_tolerance(self, n, z, tol):
        rep = bessel_jn_scaled(n, z, tol)
        assert rep.tail_bound <= tol
        assert rep.terms_used >= 1

    def test_rejects_large_argument(self):
        with pytest.raises(DomainError):
            bessel_jn_scaled(2, 4.5)

    def test_rejects_bad_order_and_tolerance(self):
        with pytest.raises(DomainError):
            bessel_jn_scaled(0, 0.5)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                bessel_jn_scaled(3, 0.5, tol=tol)

    def test_overflowing_order_raises_convergence_error(self):
        # |J_200(800i)| = I_200(800) is about 6e334, past the float range
        with pytest.raises(ConvergenceError):
            bessel_jn_scaled(200, 4j)

    def test_node_cap_refuses_before_any_node(self, monkeypatch):
        # J_7000(28000) needs about 71,000 nodes, past the cap of 65536 (at
        # z = 4 the cap refuses from n = 6451); every node needs cmath, so
        # the refusal must come without it
        from kapteyn import bessel

        monkeypatch.setattr(bessel, "cmath", None)
        with pytest.raises(ConvergenceError):
            bessel_jn_scaled(7000, 4.0)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
    def test_against_mpmath_grid(self, tol):
        # J_100(100) and J_10(40) are among points where a power series of
        # J_n(nz) cancels; a refusal is right only where |J_n(nz)| overflows
        mpmath = pytest.importorskip("mpmath")
        for n in _GRID_N:
            for z in _GRID_Z:
                with mpmath.workdps(30):
                    ref = mpmath.besselj(n, n * mpmath.mpc(z))
                try:
                    rep = bessel_jn_scaled(n, z, tol)
                except ConvergenceError:
                    assert abs(ref) > sys.float_info.max, (n, z)
                    continue
                err = abs(rep.value - complex(ref))
                assert err <= rep.tail_bound + 1e-12 * abs(complex(ref)), (n, z)

    def test_grid_nodes_at_most_the_half_strip_rule(self):
        # against the rule _plan replaced (a where the log-sup has grown by
        # G/2, N at least 33; 60,346 nodes in all): never more than one odd
        # step above it, which (50, 0.9) takes, 73 nodes against 71, as its
        # best a lies near 0.7 of the strip _plan searches
        from kapteyn.bessel import _saddle_line

        total = 0
        for n in _GRID_N:
            for z in _GRID_Z:
                try:
                    used = bessel_jn_scaled(n, z).terms_used
                except ConvergenceError:  # |J_n(nz)| overflows
                    continue
                _, log_sup_strip = _saddle_line(complex(z), math.log(abs(z)))
                top = n * log_sup_strip(0.0)
                g = math.log(2.0 / 1e-12) + max(0.0, top)
                a = _bisect64(lambda a: n * log_sup_strip(a) - top - 0.5 * g <= 0.0, 1.0)
                x = g + n * log_sup_strip(a) - top
                half_strip = max(33, math.ceil((x + math.log1p(math.exp(-x))) / a) | 1)
                assert used <= half_strip + 2, (n, z, used, half_strip)
                total += used
        assert total <= 45000

    @pytest.mark.parametrize("z", [0.3, 0.999, 1.0, -1.1, 2.5, -3.3, 4.0])
    def test_real_argument_gives_real_value(self, z):
        for n in range(1, 501, 7):
            assert bessel_jn_scaled(n, z).value.imag == 0, n

    @pytest.mark.parametrize("n,z", [(1, 0.4), (2, 1.1), (5, 0.9), (10, 0.5),
                                     (20, 0.35), (3, 0.2 + 0.6j), (7, 0.8 - 0.4j)])
    def test_against_scipy(self, n, z):
        jv = pytest.importorskip("scipy.special").jv
        ours = bessel_jn_scaled(n, z, 1e-15).value
        ref = complex(jv(n, n * complex(z)))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-13)


def _bisect64(ok, hi):
    # the strip search before false position: double hi, then 64 bisections
    while ok(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


class _Searched(Exception):
    pass


def _searches(monkeypatch, owner, calls):
    """The (value, hi, ok) that each call hands to owner._widest, each call
    stopped at its search (or before it where e^top overflows)."""
    found = []

    def record(value, hi, ok):
        found.append((value, hi, ok))
        raise _Searched

    monkeypatch.setattr(owner, "_widest", record)
    for call in calls:
        try:
            call()
        except (_Searched, ConvergenceError):
            pass
    return found


def _plan_searches(monkeypatch):
    """_plan's searches for eval_direct over a grid of in-domain (z, t), and
    for bessel_jn_scaled over that grid's z and n in 1..1000, |z| <= 4."""
    from kapteyn import bessel, eval_direct, kapteyn_converges

    zs = [complex(x, y) for x in (-3.7, -2.0, -1.1, -0.5, 0.0, 0.2, 0.9, 1.0, 1.6, 2.5, 3.9)
          for y in (0.0, 0.05, -0.4, 1.0, 2.0, -3.0) if 0.0 < abs(complex(x, y)) <= 4.0]
    direct = _searches(monkeypatch, bessel, [
        lambda z=z, t=t: eval_direct(z, t)
        for z in zs for t in (-1.5, -0.6, 0.01, 0.3, 0.8, 0.97, 0.999, 2.0)
        if kapteyn_converges(z, t)])
    jn = _searches(monkeypatch, bessel, [lambda n=n, z=z: bessel_jn_scaled(n, z)
                                         for z in zs for n in (1, 2, 3, 7, 20, 100, 400, 1000)])
    return direct, jn


class TestWidest:
    def test_coarse_search_is_feasible_and_within_one_percent(self, monkeypatch):
        # _plan's searches, for both integrands, stop once the widest strip
        # is known to 1%
        from kapteyn.bessel import _widest

        direct, jn = _plan_searches(monkeypatch)
        assert len(direct) > 100 and len(jn) > 100
        counts = []
        for value, hi, ok in direct + jn:
            calls = []
            a = _widest(lambda a: calls.append(a) or value(a), hi, ok)
            counts.append(len(calls))
            exact = _bisect64(lambda a: ok(value(a)), hi)
            assert ok(value(a)) and exact / 1.01 <= a <= exact
        assert sorted(counts)[len(counts) // 2] <= 10
        assert max(counts) <= 64

    def test_failing_at_zero_returns_zero_after_one_evaluation(self):
        from kapteyn.bessel import _widest

        calls = []
        assert _widest(lambda a: calls.append(a) or 1.0 + a, 1.0, lambda v: v < 0.0) == 0.0
        assert calls == [0.0]

    @pytest.mark.parametrize("ok", [lambda v: v < 0.0, lambda v: v <= 0.0])
    def test_secant_point_on_the_level_ends_within_one_percent(self, ok):
        # the first secant point, 0.3, is exactly on the level, so every later
        # secant point is an end of [lo, hi] and midpoints finish the search
        from kapteyn.bessel import _widest

        calls = []
        a = _widest(lambda a: calls.append(a) or a - 0.3, 1.0, ok)
        assert ok(a - 0.3) and 0.3 / 1.01 <= a <= 0.3
        assert len(calls) <= 12


class TestPlan:
    # a line that steps from -1 to 1 just past a = 1 = hi puts the widest
    # strip below level 0 at exactly 1, and a constant M makes 0.97 of it
    # the best fraction, with need = ln(2M/tol) / 0.97
    @staticmethod
    def _plan_for(need):
        from kapteyn.bessel import _LN2, _plan

        return _plan(lambda a: -1.0 if a <= 1.0 else 1.0, 0.0,
                     lambda v: 0.97 * need - _LN2, 0.0, 1.0, lambda: "the step line")

    @pytest.mark.parametrize("need", [65535.25, 65535.75])
    def test_odd_count_past_the_cap_is_refused(self, need):
        # ceil(need) | 1 is 65537, though need itself is within 65536
        with pytest.raises(ConvergenceError, match="the step line"):
            self._plan_for(need)

    def test_odd_count_at_the_cap_is_kept(self):
        a, count, bound = self._plan_for(65534.5)
        assert (a, count) == (0.97, 65535) and bound <= 1.0
