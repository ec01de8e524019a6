import math

import pytest

from kapteyn import ConvergenceError


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


def _plan_searches(monkeypatch):
    """The (value, hi) that _plan hands to _widest for each eval_direct call
    over a grid of in-domain (z, t), each call stopped at its search."""
    from kapteyn import bessel, eval_direct, kapteyn_converges

    found = []

    def record(value, hi):
        found.append((value, hi))
        raise _Searched

    monkeypatch.setattr(bessel, "_widest", record)
    zs = [complex(x, y) for x in (-3.7, -2.0, -1.1, -0.5, 0.0, 0.2, 0.9, 1.0, 1.6, 2.5, 3.9)
          for y in (0.0, 0.05, -0.4, 1.0, 2.0, -3.0) if 0.0 < abs(complex(x, y)) <= 4.0]
    for z in zs:
        for t in (-1.5, -0.6, 0.01, 0.3, 0.8, 0.97, 0.999, 2.0):
            if kapteyn_converges(z, t):
                with pytest.raises(_Searched):
                    eval_direct(z, t)
    return found


class TestWidest:
    def test_coarse_search_is_feasible_and_within_one_percent(self, monkeypatch):
        # eval_direct's searches stop once the widest strip is known to 1%
        from kapteyn.bessel import _widest

        searches = _plan_searches(monkeypatch)
        assert len(searches) > 100
        counts = []
        for value, hi in searches:
            calls = []
            a = _widest(lambda a: calls.append(a) or value(a), hi)
            counts.append(len(calls))
            exact = _bisect64(lambda a: value(a) < 0.0, hi)
            assert value(a) < 0.0 and exact / 1.01 <= a <= exact
        assert sorted(counts)[len(counts) // 2] <= 10
        assert max(counts) <= 64

    def test_failing_at_zero_returns_zero_after_one_evaluation(self):
        from kapteyn.bessel import _widest

        calls = []
        assert _widest(lambda a: calls.append(a) or 1.0 + a, 1.0) == 0.0
        assert calls == [0.0]

    def test_secant_point_on_the_level_ends_within_one_percent(self):
        # the first secant point, 0.3, is exactly on the level, so every later
        # secant point is an end of [lo, hi] and midpoints finish the search
        from kapteyn.bessel import _widest

        calls = []
        a = _widest(lambda a: calls.append(a) or a - 0.3, 1.0)
        assert a - 0.3 < 0.0 and 0.3 / 1.01 <= a <= 0.3
        assert len(calls) <= 12


# ln sup|w| of -1 on the strip makes M = e^-1/(1 - e^-1)
_STEP_M = math.exp(-1.0) / -math.expm1(-1.0)


class TestPlan:
    # a line that steps from -1 to 1 just past a = 1, below hi = 2, puts the
    # widest strip below level 0 at exactly 1, and its constant M makes 0.97
    # of it the best fraction, with need = ln(2M/tol) / 0.97
    @staticmethod
    def _plan(ln_tol):
        from kapteyn.bessel import _plan

        return _plan(lambda a: -1.0 if a <= 1.0 else 1.0, ln_tol, 2.0, lambda: "the step line")

    def _plan_for(self, need):
        return self._plan(math.log(2.0 * _STEP_M) - 0.97 * need)

    @pytest.mark.parametrize("need", [65535.25, 65535.75])
    def test_odd_count_past_the_cap_is_refused(self, need):
        # ceil(need) | 1 is 65537, though need itself is within 65536
        with pytest.raises(ConvergenceError, match="the step line"):
            self._plan_for(need)

    def test_odd_count_at_the_cap_is_kept(self):
        a, count, _ = self._plan_for(65534.5)
        assert (a, count) == (0.97, 65535)

    def test_count_is_the_least_odd_one_within_tol(self):
        # bound = 2M/(e^{aN} - 1) meets tol, and two nodes fewer would not
        tol = 1e-10
        a, count, bound = self._plan(math.log(tol))
        assert a == 0.97 and count % 2 == 1
        assert bound <= tol < 2.0 * _STEP_M / math.expm1(a * (count - 2))
