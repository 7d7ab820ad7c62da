"""Oracle tests for the closed-form radial series of ``cuspflow._jets``."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from cuspflow._jets import RadialSeries, radial_multiply
from cuspflow.errors import ValidationError
from cuspflow._testfunctions import TestFunction


def _exact_pole_factor(order):
    # w = 2 (1 - sqrt(1-t)) / t, so w_m = -2 s_{m+1} for the exact sqrt(1-t)
    s = RadialSeries.binomial(Fraction(1, 2), order + 1).coeffs
    return RadialSeries(tuple(-2 * c for c in s[1:]))


@pytest.mark.parametrize("a", [0.7, -2.3 + 0.4j, 3, -3, -25.5 + 3j, 40.2])
def test_power_of_pole_factor_matches_binomial_closed_form(a):
    # w = 2/(1 + sqrt(1-t)) is the Catalan generating function at t/4, so
    # w^a has coefficients a/(2n+a) binom(2n+a, n) 4^-n, here in mpmath
    order = 40
    got = RadialSeries.power(a, order).coeffs
    assert len(got) == order + 1
    with mpmath.workdps(40):
        av = mpmath.mpmathify(a)
        ref = [complex(av / (2 * n + av) * mpmath.binomial(2 * n + av, n) / mpmath.mpf(4) ** n)
               for n in range(order + 1)]
    scale = max(map(abs, ref))
    for c, r in zip(got, ref):
        assert abs(c - r) <= 1e-13 * abs(r)
        assert abs(c - r) <= 1e-15 * scale


def test_power_over_an_array_is_the_power_at_each_entry():
    # numpy's complex products and quotients round apart from Python's
    # by an ulp, so each entry agrees with its scalar series to a few ulps
    sigmas = [0.7, -2.3 + 0.4j, -25.5 + 3j, 40.2, -4.0]
    got = RadialSeries.power(np.array(sigmas), 30).coeffs
    for i, a in enumerate(sigmas):
        for c, r in zip(got, RadialSeries.power(a, 30).coeffs):
            assert abs(c[i] - r) <= 1e-15 * abs(r)


@pytest.mark.parametrize("a", [Fraction(-5, 2), Fraction(-4)])
def test_exact_power_of_pole_factor_matches_sympy_series(a):
    # a = -4 makes the ratio form of the closed form 0/0 at n = 2
    order = 12
    t = sympy.symbols("t")
    expr = ((1 + sympy.sqrt(1 - t)) / 2) ** sympy.Rational(-a.numerator, a.denominator)
    poly = sympy.series(expr, t, 0, order + 1).removeO()
    ref = [Fraction(int(c.p), int(c.q)) for c in (poly.coeff(t, n) for n in range(order + 1))]
    got = RadialSeries.power(a, order).coeffs
    assert list(got) == ref


def test_pole_factor_coefficients_are_catalan_numbers():
    order = 40
    exact = _exact_pole_factor(order).coeffs
    assert RadialSeries.power(Fraction(1), order).coeffs == exact
    rounded = RadialSeries.power(1, order).coeffs
    for k in range(order + 1):
        ref = Fraction(int(sympy.catalan(k)), 4**k)
        assert exact[k] == ref
        assert rounded[k] == float(ref)


def test_float_jet_arithmetic_past_the_float_range_raises_naming_the_order():
    # 171! and 134! 4^134 are past the float range; exact arithmetic is not
    psi = TestFunction.from_monomial(1, (0,), 0.5)
    psi.volume_jet((170,))
    with pytest.raises(ValidationError, match="jet order 171 is past 170"):
        psi.volume_jet((171,))
    with pytest.raises(ValidationError, match="jet order 171 is past 170"):
        radial_multiply({(171,): 1.0}, RadialSeries.binomial(0.5, 85))
    exact = radial_multiply({(171,): 1}, RadialSeries.binomial(Fraction(1, 2), 85))
    assert all(type(v) is Fraction for v in exact.values())
    RadialSeries.power(0.5, 133)
    with pytest.raises(ValidationError, match="order 134"):
        RadialSeries.power(0.5, 134)
    assert type(RadialSeries.power(Fraction(1, 2), 134).coeffs[-1]) is Fraction


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(-1, 2), Fraction(-5, 2)])
def test_binomial_series_is_exact(a):
    order = 16
    t = sympy.symbols("t")
    poly = sympy.series((1 - t) ** sympy.Rational(a.numerator, a.denominator),
                        t, 0, order + 1).removeO()
    ref = [Fraction(int(c.p), int(c.q)) for c in (poly.coeff(t, n) for n in range(order + 1))]
    assert list(RadialSeries.binomial(a, order).coeffs) == ref


def test_binomial_series_at_complex_exponent_matches_mpmath():
    a, order = -1.3 + 0.8j, 40
    got = RadialSeries.binomial(a, order).coeffs
    with mpmath.workdps(40):
        av = mpmath.mpmathify(a)
        for m, c in enumerate(got):
            ref = complex((-1) ** m * mpmath.binomial(av, m))
            assert abs(c - ref) <= 1e-13 * abs(ref)


def test_test_function_radial_series_matches_sympy():
    # term coefficients of p(sqrt(1-t)) (1-t)^{-1/2} e^{-ct} against sympy's series
    order = 12
    p = (Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4), Fraction(1, 3))
    terms = ((Fraction(7, 10), p), (Fraction(0), p[:2]))
    psi = TestFunction([(0, (0,), float(c), [float(v) for v in q]) for c, q in terms], 1)
    t = sympy.symbols("t")
    z = sympy.sqrt(1 - t)
    for index, (c, q) in enumerate(terms):
        expr = sum(sympy.Rational(v.numerator, v.denominator) * z**k for k, v in enumerate(q))
        expr *= sympy.exp(-sympy.Rational(c.numerator, c.denominator) * t)
        expr /= z
        poly = sympy.expand(expr).series(t, 0, order + 1).removeO()
        ref = [complex(poly.coeff(t, m)) for m in range(order + 1)]
        got = psi._radial_series(index, order)[: order + 1]
        scale = max(abs(r) for r in ref)
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-14 * scale
