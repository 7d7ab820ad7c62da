"""Oracle tests for the radial series algebra of ``cuspflow._jets``."""

from fractions import Fraction

import mpmath
import pytest
import sympy

from cuspflow._jets import RadialSeries


@pytest.mark.parametrize("a", [0.7, -2.3 + 0.4j, 3, -3])
def test_power_of_pole_factor_matches_binomial_closed_form(a):
    # w = 2/(1 + sqrt(1-t)) is the Catalan generating function at t/4, so
    # w^a has coefficients a/(2n+a) binom(2n+a, n) 4^-n
    order = 40
    got = RadialSeries.pole_factor(order, exact=False).power(a).coeffs
    assert len(got) == order + 1
    with mpmath.workdps(40):
        av = mpmath.mpmathify(a)
        for n, c in enumerate(got):
            ref = complex(av / (2 * n + av) * mpmath.binomial(2 * n + av, n) / mpmath.mpf(4) ** n)
            assert abs(c - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("a", [Fraction(-5, 2), Fraction(-4)])
def test_exact_power_of_pole_factor_matches_sympy_series(a):
    # a = -4 makes the ratio form of the closed form 0/0 at n = 2
    order = 12
    t = sympy.symbols("t")
    expr = ((1 + sympy.sqrt(1 - t)) / 2) ** sympy.Rational(-a.numerator, a.denominator)
    poly = sympy.series(expr, t, 0, order + 1).removeO()
    ref = [Fraction(int(c.p), int(c.q)) for c in (poly.coeff(t, n) for n in range(order + 1))]
    got = RadialSeries.pole_factor(order, exact=True).power(a).coeffs
    assert list(got) == ref


def test_pole_factor_coefficients_are_catalan_numbers():
    order = 40
    exact = RadialSeries.pole_factor(order, exact=True).coeffs
    rounded = RadialSeries.pole_factor(order, exact=False).coeffs
    for k in range(order + 1):
        ref = Fraction(int(sympy.catalan(k)), 4**k)
        assert exact[k] == ref
        assert rounded[k] == float(ref)
