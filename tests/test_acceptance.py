"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see the lines for passing tests too).

Criteria 8 and 9 state properties of the radius of convergence of
sum A_n(t) z^n, so they take R from solve_R_true, the modulus of the
nearest singularity of F(., t).  solve_R, the implicit model equation,
is that radius only for t >= 1; for 0 < t < 1 it is off by up to 6%
(3.0006 against 2.8652 at t = 0.1), which is more than either gate
allows.
"""

import cmath
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from kapteyn import (
    a_eval_exact,
    a_eval_logabs,
    a_poly,
    coeff_closed_form,
    coeff_radius_estimate,
    coeff_table_recurrence,
    eval_direct,
    eval_power,
    fundamental_residual,
    kapteyn_to_taylor,
    kapteyn_to_taylor_exact,
    solve_R,
    solve_R_true,
    solve_r,
    taylor_to_kapteyn,
)
from kapteyn.domain import _SMALL_T_PREFACTOR, _log_root, _pinch_root


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {text}")
        raise
    print(f"[criterion {num:2d}] PASS  {text}")


def _log_spaced(lo, hi, count):
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


def test_criterion_01_printed_polynomials():
    printed = {
        1: {1: Fraction(1, 2)},
        2: {2: Fraction(1, 2)},
        3: {1: Fraction(-1, 16), 3: Fraction(9, 16)},
        4: {2: Fraction(-1, 6), 4: Fraction(2, 3)},
        5: {1: Fraction(1, 384), 3: Fraction(-81, 256), 5: Fraction(625, 768)},
    }
    with criterion(1, "A_1..A_5 match the reference polynomials exactly (< 1 s)"):
        start = time.perf_counter()
        for n, nonzero in printed.items():
            coeffs = list(a_poly(n).coeffs)
            expected = [nonzero.get(k, Fraction(0)) for k in range(n + 1)]
            assert coeffs == expected, f"A_{n}: {coeffs} != {expected}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_normalization_to_500():
    with criterion(2, "A_n(1) = 1/2 exactly for n = 1..500 (< 60 s)"):
        start = time.perf_counter()
        for n in range(1, 501):
            assert a_eval_exact(n, 1) == Fraction(1, 2), f"A_{n}(1)"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_recurrence_equals_closed_form():
    with criterion(3, "recurrence table (N=60) equals the closed form entrywise"):
        table = coeff_table_recurrence(60)
        for n in range(1, 61):
            for k in range(n + 1):
                assert table.value(n, k) == coeff_closed_form(n, k), (n, k)


def test_criterion_04_fundamental_formula():
    with criterion(4, "fundamental identity residual < 1e-7 at five points (< 5 s)"):
        start = time.perf_counter()
        for z in (0.1, 0.3, 0.5, 0.3j, 0.2 + 0.2j):
            res = fundamental_residual(z, 1e-10)
            assert res < 1e-7, f"z={z}: residual {res:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_05_radius_at_unity():
    with criterion(5, "R(1) = 1 within 1e-10 from both branch equations"):
        small = _log_root(1.0, _SMALL_T_PREFACTOR, "small_t").radius
        large = _pinch_root(1.0, model=True).radius
        assert abs(small - 1.0) < 1e-10, f"small-t branch gave {small!r}"
        assert abs(large - 1.0) < 1e-10, f"large-t branch gave {large!r}"


def test_criterion_06_large_t_asymptote():
    with criterion(6, "R(t) t e/2 lands in [0.95, 1.05] at t=1e3 and tightens at 1e4"):
        v3 = solve_R(1e3).radius * 1e3 * math.e / 2
        v4 = solve_R(1e4).radius * 1e4 * math.e / 2
        assert 0.95 <= v3 <= 1.05, f"t=1e3: {v3!r}"
        assert abs(v4 - 1.0) < abs(v3 - 1.0), f"no monotone approach: {v3!r} -> {v4!r}"


def test_criterion_07_radius_estimate_tracks_solver():
    with criterion(7, "|A_500(t)|^(-1/500) within 5% of R(t) at five t (< 120 s)"):
        start = time.perf_counter()
        for t in (0.2, 0.5, 1.0, 2.0, 5.0):
            est = coeff_radius_estimate(500, t)
            R = solve_R(t).radius
            rel = abs(est - R) / R
            assert rel < 0.05, f"t={t}: estimate {est:.6f} vs R {R:.6f} ({rel:.2%})"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_08_radius_ordering_and_asymptotic_equality():
    with criterion(8, "r <= R on the grid; r/R within 2% at t=1e-4 and t=1e4"):
        for t in _log_spaced(0.05, 20.0, 100):
            r = solve_r(t).radius
            R = solve_R_true(t).radius
            assert r <= R, f"t={t}: r={r!r} > R={R!r}"
        for t in (1e-4, 1e4):
            ratio = solve_r(t).radius / solve_R_true(t).radius
            assert abs(1.0 - ratio) <= 0.02, (
                f"t={t:g}: r/R = {ratio:.6f}, |1-ratio| = {abs(1 - ratio):.4%} "
                f"exceeds the 2% gate"
            )


def test_criterion_09_log_linear_coefficient_growth():
    with criterion(9, "LSQ slope of ln|A_n(0.1)|, n=50..300, within 3% of -ln R(0.1)"):
        pts = []
        for n in range(50, 301):
            log_abs, sign = a_eval_logabs(n, 0.1)
            if sign != 0:
                pts.append((n, log_abs))
        ns = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        nbar = sum(ns) / len(ns)
        ybar = sum(ys) / len(ys)
        slope = (sum((n - nbar) * (y - ybar) for n, y in pts)
                 / sum((n - nbar) ** 2 for n in ns))
        target = -math.log(solve_R_true(0.1).radius)
        dev = abs(slope - target) / abs(target)
        assert dev <= 0.03, (
            f"slope {slope:.6f} vs -ln R(0.1) = {target:.6f}: deviation {dev:.4%} "
            f"exceeds the 3% gate"
        )


def test_criterion_10_cross_evaluator_agreement():
    with criterion(10, "direct and power evaluators agree to 1e-8 at 50 random points"):
        rng = random.Random(20260809)
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            rmax = 0.8 * min(solve_r(t).radius, solve_R(t).radius)
            for _ in range(10):
                mod = rng.uniform(0.1, 1.0) * rmax
                ang = rng.uniform(0.0, 2.0 * math.pi)
                z = mod * cmath.exp(1j * ang)
                d = eval_direct(z, t, 1e-11).value
                p = eval_power(z, t, 1e-11).value
                rel = abs(d - p) / max(abs(d), abs(p))
                assert rel <= 1e-8, f"(z={z}, t={t}): rel diff {rel:.3e}"


def test_criterion_11_inversion_recovers_polynomials():
    with criterion(11, "alpha_n = 3^n maps back to A_n(3) exactly in rationals"):
        alpha = [Fraction(3) ** n for n in range(1, 9)]
        out = kapteyn_to_taylor_exact(alpha, 8)
        for k, v in enumerate(out, start=1):
            assert v == a_eval_exact(k, 3), f"k={k}: {v} != A_{k}(3)"


def test_criterion_12_round_trip_identity():
    with criterion(12, "to-Taylor then doubled to-Kapteyn is the identity to 1e-9"):
        from kapteyn import CoeffSequence

        rng = random.Random(1234)
        for trial in range(20):
            alpha = CoeffSequence(tuple(rng.uniform(-1, 1) for _ in range(10)),
                                  "kapteyn_alpha")
            a = kapteyn_to_taylor(alpha, 10)
            doubled = CoeffSequence(tuple(2.0 * v for v in a.values), "taylor_a")
            back = taylor_to_kapteyn(doubled, 10)
            for i, (x, y) in enumerate(zip(back.values, alpha.values), start=1):
                assert abs(x - y) <= 1e-9, f"trial {trial}, index {i}: {x} vs {y}"
