from fractions import Fraction

import pytest

from kapteyn import coeffs


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
