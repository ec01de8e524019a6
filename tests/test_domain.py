import cmath
import math
import random
import statistics
import sys
from fractions import Fraction

import pytest

from kapteyn import (
    ConvergenceError,
    DomainError,
    ZeroCoefficientError,
    a_eval_exact,
    coeff_radius_estimate,
    kapteyn_converges,
    omega,
    psi_large_t,
    psi_small_t,
    solve_R,
    solve_R_true,
    solve_r,
)
from kapteyn import domain
from kapteyn.domain import (
    _MAX_RESIDUAL, _NEWTON_CAP, _RUNGS, _SMALL_T_PREFACTOR, _lhs_kapteyn, _lhs_power_large,
    _log_root, _pinch_root, _y_minus_tanh_y, singular_part)

# frozen oracle: 200-iteration bisection on r e^{sqrt(1+r^2)}/(1+sqrt(1+r^2)) = 1
LAPLACE_LIMIT = 0.6627434193491815


class TestOmega:
    def test_at_origin(self):
        assert omega(0) == 0.0

    def test_at_unity(self):
        assert omega(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_unit_level_on_imaginary_boundary(self):
        # the imaginary-axis crossing of the t=1 domain is the Laplace limit
        r = solve_r(1.0).radius
        assert omega(1j * r) == pytest.approx(1.0, abs=1e-10)

    def test_maximized_on_imaginary_axis(self):
        # at fixed modulus, omega peaks at arguments +-pi/2
        for rho in (0.3, 0.6, 0.9):
            top = omega(1j * rho)
            for k in range(33):
                ang = k * math.pi / 32
                assert omega(rho * cmath.exp(1j * ang)) <= top + 1e-12

    def test_conjugate_symmetric(self):
        z = 0.4 + 0.7j
        assert omega(z) == omega(z.conjugate())

    def test_overflow_is_infinite(self):
        # ln omega(1000i) is about 1000, past the largest float's 709.8
        assert omega(1000j) == math.inf


class TestKapteynConverges:
    def test_examples(self):
        assert kapteyn_converges(0.5, 1.0) is True
        assert kapteyn_converges(1.0, 1.0) is False
        assert kapteyn_converges(0.9j, 1.0) is False  # 0.9 > Laplace limit

    def test_zero_t_always_converges(self):
        assert kapteyn_converges(3.9, 0.0) is True

    def test_rejects_non_finite_t(self):
        with pytest.raises(DomainError):
            kapteyn_converges(0.5, math.nan)


class TestSolveR:
    def test_laplace_limit(self):
        res = solve_r(1.0)
        assert res.radius == pytest.approx(LAPLACE_LIMIT, abs=1e-12)
        assert res.branch == "kapteyn_domain"

    def test_residual_across_scales(self):
        for t in (1e-4, 0.05, 0.3, 1.0, 7.0, 1e3, 1e4):
            assert solve_r(t).residual < 1e-12

    def test_large_t_asymptote(self):
        assert 0.95 < solve_r(1000.0).radius * 1000.0 * math.e / 2 < 1.05

    def test_rejects_nonpositive(self):
        for t in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                solve_r(t)

    def test_subnormal_root_at_huge_t(self):
        # the root 2/(e t) ~ 7.36e-309 lies below any fixed positive bracket
        res = solve_r(1e308)
        assert res.radius == pytest.approx(2.0 / (math.e * 1e308), rel=1e-6)
        assert res.residual < 1e-6

    @pytest.mark.parametrize("t", [1e300, 1e305, 1e308, 1.7e308])
    @pytest.mark.parametrize("solve", [solve_r, solve_R])
    def test_huge_t_to_rounding(self, solve, t):
        # the root ~ 2/(e t) is subnormal from t = 1e308 on; the search ends
        # at adjacent floats, so no absolute width floor costs accuracy there
        res = solve(t)
        assert res.residual <= 4 * sys.float_info.epsilon
        assert res.iterations <= 64

    @pytest.mark.parametrize("solve", [solve_r, solve_R])
    def test_tiny_t_solves_or_refuses(self, solve):
        # below t ~ 6.3e-306, x e^s overflowed before the division by 1 + s
        # and a radius of 703.2 came back with residual ~1; below t ~ 9e-309
        # the root's lhs = 1/t exceeds the largest float
        for i in range(101):
            t = 10.0 ** (-310 + 0.1 * i)
            try:
                res = solve(t)
            except DomainError:
                assert t < 1e-307
                continue
            assert res.residual <= 1e-12, t


class TestSolveCapitalR:
    def test_unity_from_both_branches(self):
        small = _log_root(1.0, _SMALL_T_PREFACTOR, "small_t")
        assert small.radius == pytest.approx(1.0, abs=1e-10)
        assert _pinch_root(1.0, model=True).radius == pytest.approx(1.0, abs=1e-10)
        assert solve_R(1.0).branch == "large_t"

    def test_branch_selection(self):
        assert solve_R(0.5).branch == "small_t"
        assert solve_R(2.0).branch == "large_t"

    def test_t10_inside_unit_interval(self):
        res = solve_R(10.0)
        assert res.residual < 1e-12
        assert 0.0 < res.radius < 1.0

    def test_large_t_asymptote(self):
        assert 0.95 < solve_R(1000.0).radius * 1000.0 * math.e / 2 < 1.05

    def test_small_t_equation_identity_at_unity(self):
        # substituting R = 1 into the small-t equation at t = 1 is exact
        assert abs(_SMALL_T_PREFACTOR * _lhs_kapteyn(1.0) * 1.0 - 1.0) < 1e-14

    def test_branch_seam_continuity(self):
        # R(t) has a (t-1)^{2/3} cusp from above t = 1, so the gap across
        # +-1e-9 is (1.061e-9)^{2/3} ~ 1.04e-6; assert just above that scale
        gap = abs(solve_R(1 - 1e-9).radius - solve_R(1 + 1e-9).radius)
        assert gap < 1.2e-6

    def test_residual_across_scales(self):
        for t in (1e-4, 0.05, 0.3, 1.0, 7.0, 1e3, 1e4):
            assert solve_R(t).residual < 1e-12

    def test_rejects_nonpositive(self):
        for t in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                solve_R(t)


class TestSolveRTrue:
    @pytest.mark.parametrize("t", [1e-4, 0.1, 0.5, 0.9])
    def test_matches_mpmath_pinch(self, t):
        # the pinch system w = 1, dw/dtau = 0 for w = t e^{i(tau - z sin tau)},
        # solved in (tau, z) by mpmath at 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            c = 1j * mpmath.log(t)
            z0 = mpmath.pi / 2 - c
            tau, z = mpmath.findroot(
                [lambda tau, z: tau - z * mpmath.sin(tau) - c,
                 lambda tau, z: 1 - z * mpmath.cos(tau)],
                (mpmath.acos(1 / z0), z0),
            )
            expected = float(abs(z))
        assert solve_R_true(t).radius == pytest.approx(expected, rel=1e-12)

    def test_nearest_singularity_at_t01(self):
        res = solve_R_true(0.1)
        assert res.branch == "pinch"
        assert res.residual < 1e-12
        assert 0 < res.iterations < 64
        assert res.radius == pytest.approx(abs(1.482257 + 2.451978j), abs=2e-6)

    @pytest.mark.parametrize("t", [1.0, 1 + 1e-9, 2.0, 10.0, 1e4])
    def test_equals_model_from_unity_up(self, t):
        # the same root and steps; only the reported residual differs
        assert solve_R_true(t)._replace(residual=0.0) == solve_R(t)._replace(residual=0.0)

    def test_pinch_residual_from_unity_up(self):
        # |y - tanh y - ln t| / ln t, with ln t log-spaced from 1e-16 to
        # ln 1e308; y - tanh y cancels just above the series' switch at
        # y = 0.2 (t = 1.00265), where its rounding, about 2 y eps, is
        # 150 eps of ln t: 63 eps at most on this grid, and 176 eps on
        # 600,000 random t in [1.00265, 1.0035]
        assert solve_R_true(1.0).residual == 0.0
        eps = sys.float_info.epsilon
        lo, hi = math.log(1e-16), math.log(math.log(1e308))
        for i in range(1001):
            t = math.exp(math.exp(lo + (hi - lo) * i / 1000))
            assert solve_R_true(t).residual <= 128 * eps, t
        rng = random.Random(7)
        for _ in range(2000):
            t = rng.uniform(1.00265, 1.0035)
            assert solve_R_true(t).residual <= 256 * eps, t

    def test_continuous_at_unity_from_below(self):
        assert abs(solve_R_true(1 - 1e-9).radius - 1.0) < 1e-5

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
    def test_tracks_coefficient_growth(self, t):
        # |A_500(t)|^(-1/500) follows the true radius to 1%; the model
        # equation misses it by 1.8%, 3.3% and 5.6% at these t
        est = coeff_radius_estimate(500, t)
        assert est == pytest.approx(solve_R_true(t).radius, rel=0.01)
        assert est != pytest.approx(solve_R(t).radius, rel=0.015)

    def test_decreasing_and_above_kapteyn_radius(self):
        step = (math.log(0.999) - math.log(1e-6)) / 199
        ts = [math.exp(math.log(1e-6) + i * step) for i in range(200)]
        Rs = [solve_R_true(t).radius for t in ts]
        assert all(a > b for a, b in zip(Rs, Rs[1:]))
        assert all(R > solve_r(t).radius for t, R in zip(ts, Rs))

    def test_no_log_offset_as_t_to_zero(self):
        # R - ln(1/t) -> 0, unlike the model's offset of 0.533
        gaps = [solve_R_true(t).radius + math.log(t) for t in (1e-4, 1e-16, 1e-64, 1e-256)]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01

    def test_rejects_nonpositive_and_nan(self):
        for t in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                solve_R_true(t)


def _series_mul(a: list, b: list) -> list:
    # the product of two power series in s, truncated to a's length
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def _cos_sin(delta: list) -> tuple[list, list]:
    # cos and sin of a power series in s with no constant term
    cos, sin = [Fraction(0)] * len(delta), [Fraction(0)] * len(delta)
    power = [Fraction(1)] + [Fraction(0)] * (len(delta) - 1)
    for m in range(len(delta)):
        target, c = (cos, sin)[m % 2], Fraction((-1) ** (m // 2), math.factorial(m))
        for i, p in enumerate(power):
            target[i] += c * p
        power = _series_mul(power, delta)
    return cos, sin


def _ratios_at(T: Fraction, size: int) -> list[Fraction]:
    """lambda_0..lambda_5 at T = tan tau0 from the split pole's equations in
    exact power series in s, truncated after s^(size - 1): delta = s (1 + v)
    solves E = delta - (1 + s^2/2)(T cos delta + sin delta) + T = 0, where
    E/s^2 = T v + O(s), so v -= E/(s^2 T) gains an order per step; then
    lambda_j = [s^(2j)] / [s^0] of s/D, D = 1 - (1 + s^2/2)(cos delta - T
    sin delta), times (-2)^j."""
    zero = [Fraction(0)] * size
    one_plus = [Fraction(1), Fraction(0), Fraction(1, 2)] + zero[3:]  # 1 + s^2/2
    v = zero
    for _ in range(size):
        delta = [Fraction(0), 1 + v[0]] + v[1:-1]
        cos, sin = _cos_sin(delta)
        e = [d - x for d, x in zip(delta, _series_mul(one_plus, [T * c + x for c, x in
                                                                 zip(cos, sin)]))]
        e[0] += T
        assert e[0] == e[1] == 0
        v = [a - b / T for a, b in zip(v, e[2:] + zero[:2])]
    d = [-x for x in _series_mul(one_plus, [c - T * x for c, x in zip(cos, sin)])]
    d[0] += 1
    b = d[1:]  # D/s
    inv = [1 / b[0]]
    for m in range(1, len(b)):
        inv.append(-sum(b[i] * inv[m - i] for i in range(1, m + 1)) / b[0])
    return [inv[2 * j] / inv[0] * (-2) ** j for j in range(6)]


def _interpolate(xs: list, ys: list) -> list[Fraction]:
    # coefficients, lowest power first, of the polynomial through (xs, ys)
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denom = [Fraction(1)], Fraction(1)
        for m, xm in enumerate(xs):
            if m != i:
                basis = [a - xm * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                denom *= xi - xm
        coeffs = [c + yi * b / denom for c, b in zip(coeffs, basis)]
    return coeffs


class TestRungsOracle:
    """domain._RUNGS derived again, with no float and no sympy: lambda_j at
    seven rational T by _ratios_at, the polynomial of degree 5 in K^2 =
    -1/(2 T^2) through the first six, checked at the seventh.  14 series
    orders leave one to spare: at 12, upsilon comes out as another
    polynomial of degree 5, which the seventh T does not catch."""

    _TS = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3), Fraction(5),
           Fraction(3, 2)]

    def test_rows_are_the_derived_rationals(self):
        ratios = [_ratios_at(T, 14) for T in self._TS]
        xs = [-1 / (2 * T * T) for T in self._TS]
        for j, row in enumerate(_RUNGS):
            ys = [r[j] for r in ratios]
            exact = _interpolate(xs[:6], ys[:6])
            assert sum(c * xs[6] ** i for i, c in enumerate(exact)) == ys[6], j
            assert exact[len(row):] == [0] * (6 - len(row)), j
            assert [float(c) for c in reversed(exact[:len(row)])] == list(row), j

    def test_singular_part_evaluates_the_rows(self):
        # lambda_0 = 1, and each ratio is its row at K^2 by Horner
        for t in (0.3, 0.9, 1.5):
            _, k, ratios = singular_part(solve_R_true(t))
            assert len(ratios) == len(_RUNGS) and ratios[0] == 1
            for row, ratio in zip(_RUNGS, ratios):
                assert ratio == pytest.approx(sum(c * (k * k) ** i
                                                  for i, c in enumerate(reversed(row))), rel=1e-12)


class TestRadiusRelations:
    def test_both_radii_strictly_decreasing(self):
        ts = [0.1 * k for k in range(1, 101)]
        rs = [solve_r(t).radius for t in ts]
        Rs = [solve_R(t).radius for t in ts]
        assert all(a > b for a, b in zip(rs, rs[1:]))
        assert all(a > b for a, b in zip(Rs, Rs[1:]))

    def test_kapteyn_radius_below_power_radius(self):
        for t in (0.05, 0.2, 1.0, 3.0, 20.0):
            assert solve_r(t).radius <= solve_R(t).radius

    def test_ratio_approaches_one_at_extremes(self):
        # large t: both radii collapse onto (2/e)/t, ratio 1 + O(R^2)
        ratio_hi = solve_r(1e4).radius / solve_R(1e4).radius
        assert abs(1.0 - ratio_hi) < 0.02
        # small t: r and the model R differ by an additive constant ~0.533
        # while growing like -ln t, so the ratio closes only logarithmically;
        # at t = 1e-4 the measured gap is 5.4%
        ratio_lo = solve_r(1e-4).radius / solve_R(1e-4).radius
        assert abs(1.0 - ratio_lo) < 0.06
        assert abs(1.0 - ratio_lo) < abs(1.0 - solve_r(1e-2).radius / solve_R(1e-2).radius)

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8, 1.5, 3.0, 8.0])
    def test_psi_satisfies_growth_ode(self, t):
        # psi = 1/R obeys psi' = psi^2 / (t sqrt(psi^2 + 1)) below t = 1
        # and with the minus sign above it
        psi = lambda x: 1.0 / solve_R(x).radius
        h = 1e-6 * t
        dpsi = (psi(t + h) - psi(t - h)) / (2 * h)
        p = psi(t)
        inner = p * p + (1.0 if t < 1 else -1.0)
        rhs = p * p / (t * math.sqrt(inner))
        assert dpsi == pytest.approx(rhs, rel=1e-4)


class TestRadiusOracle:
    @staticmethod
    def _residual(mpmath, t, x, equation):
        # |LHS(x) t - 1| of the implicit equation in mpmath at 40 digits
        with mpmath.workdps(40):
            x, t = mpmath.mpf(x), mpmath.mpf(t)
            s = mpmath.sqrt((1 - x) * (1 + x) if equation == "large_t" else 1 + x * x)
            lhs = x * mpmath.exp(s) / (1 + s)
            if equation == "small_t":
                lhs *= mpmath.exp(-mpmath.sqrt(2)) * (1 + mpmath.sqrt(2))
            return float(abs(lhs * t - 1))

    @staticmethod
    def _ulps(mpmath, t, x, equation):
        # distance of x from the equation's root at 40 digits, in ulps of the
        # root: y - tanh y = ln t, R = 1/cosh y, for large_t; else the log of
        # the equation in u = ln x, from its asymptote for a small or large x
        with mpmath.workdps(40):
            ln_t = mpmath.log(mpmath.mpf(t))
            if equation == "large_t":
                y = mpmath.findroot(lambda y: y - mpmath.tanh(y) - ln_t,
                                    max(mpmath.cbrt(3 * ln_t), ln_t + mpmath.tanh(ln_t)))
                root = 1 / mpmath.cosh(y)
            else:
                if equation == "small_t":
                    ln_t += mpmath.log(mpmath.exp(-mpmath.sqrt(2)) * (1 + mpmath.sqrt(2)))
                s = lambda u: mpmath.sqrt(1 + mpmath.exp(2 * u))
                u = mpmath.findroot(lambda u: u + s(u) - mpmath.log(1 + s(u)) + ln_t,
                                    mpmath.log(2) - 1 - ln_t if ln_t > -1
                                    else mpmath.log(-ln_t - 1 / (2 * ln_t)))
                root = mpmath.exp(u)
            return float(abs(x - root)) / math.ulp(float(root))

    # log-spaced t and a cluster at the t = 1 seam
    _TS = ([10.0 ** (-6 + 12 * i / 299) for i in range(300)]
           + [1.0 + 1e-3 * (2 * i / 39 - 1) for i in range(40)] + [1.0])

    def test_radii_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        iterations = []
        for t in self._TS:
            r, R = solve_r(t), solve_R(t)
            assert self._residual(mpmath, t, r.radius, r.branch) <= 16 * sys.float_info.epsilon, t
            assert self._residual(mpmath, t, R.radius, R.branch) <= 16 * sys.float_info.epsilon, t
            assert r.radius < R.radius, t
            iterations += [r.iterations, R.iterations]
        # Newton steps: a median of 4 and at most 8 here
        assert statistics.median(iterations) <= 10
        assert max(iterations) <= 20

    def test_large_t_to_a_few_ulps(self):
        # t log-spaced in (1, 1.7e308], with ln t also log-spaced down to
        # 2**-52: near R = 1 the model equation's residual is flat to
        # rounding, so a root placed by it can be far off (139,298 ulps at
        # 1 + 2**-52 by false position on that residual)
        mpmath = pytest.importorskip("mpmath")
        top = math.log(1.7e308)
        ts = [math.exp(top * i / 200) for i in range(1, 201)]
        ts += [math.exp(2.0 ** (-52 + 61 * i / 199)) for i in range(200)]
        ts += [1 + 2**-52, 1 + 2**-43, 1 + 2**-22, 1.7e308]
        for t in ts:
            res = solve_R(t)
            assert res.branch == "large_t"
            assert self._ulps(mpmath, t, res.radius, "large_t") <= 2.5, t

    def test_kapteyn_and_small_t_to_a_few_ulps(self):
        mpmath = pytest.importorskip("mpmath")
        for t in self._TS:
            assert self._ulps(mpmath, t, solve_r(t).radius, "kapteyn_domain") <= 3, t
            if t < 1.0:
                assert self._ulps(mpmath, t, solve_R(t).radius, "small_t") <= 3, t


class TestRadiusResult:
    _TS = (1e-300, 1e-4, 0.3, 1 - 1e-9, 1.0, 2.0, 1e300)

    def test_immutable_and_hashable(self):
        res = solve_R_true(0.3)
        with pytest.raises(AttributeError):
            res.radius = 1.0
        with pytest.raises(AttributeError):
            res.note = "x"
        assert hash(res) == hash(solve_R_true(0.3))
        assert len({res, solve_R_true(0.3), solve_r(0.3)}) == 2

    def test_angle_only_for_a_pinch(self):
        for t in self._TS:
            for res in (solve_r(t), solve_R(t), solve_R_true(t)):
                assert (res.angle is None) == (res.branch != "pinch"), (t, res)
            if t < 1.0:
                assert 0.0 < solve_R_true(t).angle < 0.5 * math.pi, t

    def test_repr_names_every_field(self):
        text = repr(solve_R_true(0.3))
        for field in ("t", "radius", "branch", "residual", "iterations", "angle"):
            assert f"{field}=" in text, field

    def test_unpacks_in_field_order(self):
        t, radius, branch, residual, iterations, angle = res = solve_R(7.5)
        assert (t, radius, branch, residual, iterations, angle) == (
            7.5, res.radius, "large_t", res.residual, res.iterations, None)


# The radius solvers as they were with a step closure, one generic Newton
# loop and a pick by min over a candidate list, copied verbatim up to the
# _frozen prefix: TestPickUnchanged holds the inline solvers to them bit
# for bit.
def _frozen_newton(step, x: float, t: float) -> tuple[float, int]:
    last = math.inf
    for steps in range(1, _NEWTON_CAP + 1):
        after, size = step(x)
        if not 0.0 < size <= 0.5 * last:
            return x, steps
        x, last = after, size
    raise ConvergenceError(f"radius Newton for t={t!r} did not settle")


def _frozen_log_root(t: float, pref: float) -> tuple[list[float], int]:
    w = -math.log(t * pref)

    def step(x):
        s = math.sqrt(1.0 + x * x)
        d = (math.log(x * t * pref) + s - math.log(1.0 + s)) / s
        return x + x * math.expm1(-d), abs(d)

    x, steps = _frozen_newton(step, 2.0 * math.exp(w - 1.0) if w < 1.0 else w + 0.5 / w, t)
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)], steps


def _frozen_pinch_root(t: float) -> tuple[list[float], int]:
    ln_t = math.log(t)

    def step(y):
        tanh2 = math.tanh(y) ** 2
        f = _y_minus_tanh_y(y) - ln_t
        return (y - f / tanh2, abs(f) / tanh2) if f else (y, 0.0)

    y, steps = _frozen_newton(step, max((3.0 * ln_t) ** (1.0 / 3.0), ln_t + math.tanh(ln_t)), t)
    tanh_y = math.tanh(y)
    return [math.exp(-tanh_y) * (1.0 + tanh_y) / t], steps


_FROZEN_KAPTEYN_DOMAIN = (_lhs_kapteyn, lambda t: _frozen_log_root(t, 1.0), "kapteyn_domain")
_FROZEN_SMALL_T = (lambda x: _SMALL_T_PREFACTOR * _lhs_kapteyn(x),
                   lambda t: _frozen_log_root(t, _SMALL_T_PREFACTOR), "small_t")
_FROZEN_LARGE_T = (_lhs_power_large, _frozen_pinch_root, "large_t")


def _frozen_solve_radius(t: float, lhs, root, branch: str):
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    candidates, iterations = root(t)
    residuals = [abs(lhs(x) * t - 1.0) for x in candidates]
    residual = min(residuals)
    if not residual <= _MAX_RESIDUAL:
        raise DomainError(f"the {branch} equation has no double-precision root at t={t!r}")
    return candidates[residuals.index(residual)], residual, iterations, branch


class TestPickUnchanged:
    """solve_r and solve_R give the frozen solvers' radius, residual, steps
    and branch bit for bit; solve_R_true from t = 1 up gives solve_R's
    result but for the residual."""

    # log-spaced over 1e-300..1e300, a cluster at the t = 1 seam, and 1
    _TS = ([10.0 ** (-300 + 600 * i / 400) for i in range(401)]
           + [1.0 + 1e-6 * (2 * i / 39 - 1) for i in range(40)] + [1.0])

    @staticmethod
    def _check(t):
        for res, equation in ((solve_r(t), _FROZEN_KAPTEYN_DOMAIN),
                              (solve_R(t), _FROZEN_LARGE_T if t >= 1.0 else _FROZEN_SMALL_T)):
            x, residual, iterations, branch = _frozen_solve_radius(t, *equation)
            assert (res.radius.hex(), res.residual.hex(), res.iterations, res.branch) == (
                x.hex(), residual.hex(), iterations, branch), t
        if t >= 1.0:
            assert solve_R_true(t)._replace(residual=0.0) == solve_R(t)._replace(residual=0.0), t

    def test_bit_for_bit(self):
        # the grid holds 75 ties and 222 picks past the first candidate
        for t in self._TS:
            self._check(t)

    def test_bit_for_bit_at_random_t(self):
        # 2,000 log-uniform t over 1e-6..1e6 and 60 within 1e-3 of 1
        rng = random.Random(36)
        for _ in range(2000):
            self._check(math.exp(rng.uniform(math.log(1e-6), math.log(1e6))))
        for _ in range(60):
            self._check(1.0 + rng.uniform(-1e-3, 1e-3))


class TestNewtonCap:
    @pytest.mark.parametrize("solve, t", [
        (solve_r, 0.5), (solve_R, 0.5), (solve_R, 7.5), (solve_R_true, 0.3)])
    def test_one_step_does_not_settle(self, monkeypatch, solve, t):
        # each of the three Newton loops raises once its cap is spent
        monkeypatch.setattr(domain, "_NEWTON_CAP", 1)
        with pytest.raises(ConvergenceError, match="did not settle"):
            solve(t)


class TestLargeTResidualGate:
    @pytest.mark.parametrize("solve, t", [(solve_R, 1.001), (solve_R_true, 1.0027)])
    def test_no_residual_is_small_enough(self, monkeypatch, solve, t):
        # both large-t roots have a residual above 0 here, so a gate of 0
        # refuses them
        monkeypatch.setattr(domain, "_MAX_RESIDUAL", 0.0)
        with pytest.raises(DomainError, match="the large_t equation has no double-precision root"):
            solve(t)


class TestPsiAsymptotes:
    def test_small_t_matches_solver(self):
        assert 1.0 / psi_small_t(1e-6) == pytest.approx(solve_R(1e-6).radius, rel=0.05)

    def test_small_t_positive_and_monotone_to_zero(self):
        vals = [psi_small_t(t) for t in (1e-12, 1e-8, 1e-4, 0.5)]
        assert all(v > 0 for v in vals)
        assert vals == sorted(vals)

    def test_small_t_domain(self):
        for t in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                psi_small_t(t)

    def test_large_t_domain(self):
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                psi_large_t(t)

    def test_large_t_values(self):
        assert psi_large_t(2.0) == pytest.approx(math.e)
        assert psi_large_t(1000.0) == pytest.approx(1.0 / solve_R(1000.0).radius, rel=0.01)
        # asymptote only: e/2 at t = 1, though the exact psi(1) is 1
        assert psi_large_t(1.0) == pytest.approx(math.e / 2)


class TestCoeffRadiusEstimate:
    def test_at_unity(self):
        assert coeff_radius_estimate(500, 1.0) == pytest.approx(2.0 ** (1 / 500), rel=1e-12)

    def test_tracks_solver_at_t10(self):
        assert coeff_radius_estimate(500, 10.0) == pytest.approx(solve_R(10.0).radius, rel=0.05)

    def test_tiny_float_t(self):
        # t far below 2**-64: A_50(t) ~ C_2^50 t^2 must keep its value
        expected = float(abs(a_eval_exact(50, 1e-30))) ** (-1 / 50)
        assert coeff_radius_estimate(50, 1e-30) == pytest.approx(expected, rel=1e-12)

    def test_zero_coefficient_signalled(self):
        with pytest.raises(ZeroCoefficientError):
            coeff_radius_estimate(4, 0.0)
