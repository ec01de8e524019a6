import math
from fractions import Fraction

import pytest

from kapteyn import coeffs
from kapteyn.bessel import _saddle_line


def darboux_weights(n: int, order: int) -> list[Fraction]:
    """[w^n](1 - w)^(j - 1/2) / c_n for j = 0..order - 1, c_n = binom(2n,
    n)/4^n, exactly: (-1)^j (2j - 1)!!/((2n - 1)(2n - 3)...(2n - 2j + 1)).
    Darboux's method weighs rung j of the singular part, K lambda_j from
    domain.singular_part, by this times c_n z0^-n in A_n."""
    weights, weight = [], Fraction(1)
    for j in range(order):
        weights.append(weight)
        weight *= Fraction(-(2 * j + 1), 2 * n - 2 * j - 1)
    return weights


@pytest.fixture(autouse=True)
def cold_store():
    """Each test starts with coeffs' store of certified rows empty, so a test
    that counts one call's row work sees all of it, whatever ran before."""
    coeffs._STORE.clear()
    yield
    coeffs._STORE.clear()


@pytest.fixture
def kapteyn_mpmath():
    """F(z,t) as the Kapteyn sum of t^n J_n(nz) with mpmath's Bessel functions
    at 30 digits, stopped after three terms below 1e-22 of the sum; an
    oracle that shares no code with either evaluator.  t may be a float or
    a Fraction."""
    mpmath = pytest.importorskip("mpmath")

    def value(z, t) -> complex:
        t = Fraction(t)
        with mpmath.workdps(30):
            z, t = mpmath.mpmathify(z), mpmath.mpf(t.numerator) / t.denominator
            total, quiet, n = 0, 0, 0
            while quiet < 3:
                n += 1
                term = t**n * mpmath.besselj(n, n * z)
                total += term
                quiet = quiet + 1 if abs(term) < 1e-22 * max(1, abs(total)) else 0
            return complex(total)

    return value


@pytest.fixture
def bessel_integral_mpmath():
    """F(z,t) as (1/2pi) int_0^{2pi} w/(1-w) dtau, w = t e^{i(tau - z sin
    tau)}, on the line Im tau = c of bessel._saddle_line, by mpmath's
    tanh-sinh quadrature at 30 digits over 16 equal pieces.  Where the
    Kapteyn sum converges too slowly for kapteyn_mpmath (1 - omega|t| below
    about 0.05 takes thousands of Bessel terms), this is the oracle: any line
    with sup|w| < 1 gives F, and only the line is shared with eval_direct."""
    mpmath = pytest.importorskip("mpmath")

    def value(z, t) -> complex:
        z, t = complex(z), float(t)
        if t < 0.0:
            z, t = -z, -t  # F(z, -t) = F(-z, t)
        s, log_sup_strip = _saddle_line(z, math.log(t) + math.log(abs(z)))
        assert log_sup_strip(0.0) < 0.0  # sup|w| < 1 on the line
        with mpmath.workdps(30):
            zz, tt = mpmath.mpc(z), mpmath.mpf(t)
            c = -mpmath.mpf(s) - mpmath.log(abs(zz))

            def f(x):
                w = tt * mpmath.exp(1j * (mpmath.mpc(x, c) - zz * mpmath.sin(mpmath.mpc(x, c))))
                return w / (1 - w)

            total, err = mpmath.quad(f, mpmath.linspace(0, 2 * mpmath.pi, 17), error=True)
            assert err < 1e-15
            return complex(total / (2 * mpmath.pi))

    return value
