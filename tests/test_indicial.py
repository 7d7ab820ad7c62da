"""Tests for the model-operator module: exact roots, jets, shooting."""

import itertools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (apply_P, ck_norm, constant_test_function, numeric_roots_shooting,
                      point_value)
from cuspflow._sphere import homogeneous_dimension, multi_indices
from cuspflow._testfunctions import TestFunction, random_test_function
from cuspflow.errors import ValidationError
from cuspflow.hadamard import jordan_vector, pair_distribution
from cuspflow.indicial import (
    IndicialRoot,
    ModelOperator,
    RootTable,
    eigendistribution,
    indicial_roots,
    jet_matrix,
    numeric_roots_jet,
)


# ---------------------------------------------------------------------------
# apply_P
# ---------------------------------------------------------------------------


def test_apply_p_constant_at_equator():
    op = ModelOperator(d=2, h=1.0, lam=0.3)
    f = (lambda phi, u: 1.0, lambda phi, u: 0.0)
    val = apply_P(op, f, (math.pi / 2, np.array([1.0, 0.0])))
    assert abs(val) < 1e-14


def test_apply_p_constant_at_pole():
    op = ModelOperator(d=2, h=1.0, lam=1.0)
    f = (lambda phi, u: 1.0, lambda phi, u: 0.0)
    val = apply_P(op, f, (0.0, np.array([1.0, 0.0])))
    assert abs(val - 2.0) < 1e-14


@pytest.mark.parametrize(
    "d,h,s,lam",
    [
        (1, 1.0, -2.0, 1.5),
        (2, 0.5, 0.3 + 0.2j, 0.7 - 0.4j),
        (3, 1.0, 1.25, -0.6),
    ],
)
def test_apply_p_closed_form_kernel(d, h, s, lam):
    # f = (sin phi)^alpha (2 tan(phi/2))^s with alpha = -d/2 - lam/h solves
    # (P_lam - h s) f = 0 pointwise
    alpha = -d / 2.0 - lam / h
    op = ModelOperator(d=d, h=h, lam=lam)

    def f(phi, u):
        return math.sin(phi) ** complex(alpha) * (2.0 * math.tan(phi / 2.0)) ** complex(s)

    def fphi(phi, u):
        return f(phi, u) * (alpha * math.cos(phi) / math.sin(phi) + s / math.sin(phi))

    u = np.zeros(d)
    u[0] = 1.0
    for phi in np.linspace(0.2, math.pi - 0.2, 23):
        val = apply_P(op, (f, fphi), (phi, u))
        ref = h * s * f(phi, u)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# indicial_roots: closed forms, multiplicities, Jordan structure
# ---------------------------------------------------------------------------


def test_roots_d1_closed_form():
    op = ModelOperator(d=1, h=1.0, lam=0.0)
    roots = indicial_roots(op, s=0.0, n_max=4)
    assert len(roots) == 10
    for r in roots:
        assert r.multiplicity == 1
        assert r.jordan_index == 1
        assert r.a == pytest.approx(r.sign * 1.0)
        assert r.lambda_at(0.0) == pytest.approx(r.sign * (0.5 + r.n))


def test_root_multiplicity_examples():
    r2 = indicial_roots(ModelOperator(d=2, h=1.0, lam=0.0), s=0.0, n_max=1)
    assert {r.n: r.multiplicity for r in r2 if r.sign == 1}[1] == 2
    r3 = indicial_roots(ModelOperator(d=3, h=1.0, lam=0.0), s=0.0, n_max=2)
    assert {r.n: r.multiplicity for r in r3 if r.sign == 1}[2] == 6


def test_multiplicity_brute_force():
    for d in range(1, 5):
        op = ModelOperator(d=d, h=1.0, lam=0.0)
        roots = indicial_roots(op, s=0.17, n_max=5)
        for r in roots:
            count = sum(
                1
                for combo in itertools.product(range(r.n + 1), repeat=d)
                if sum(combo) == r.n
            )
            assert r.multiplicity == count


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    h=st.sampled_from([0.5, 1.0, 2.0]),
    s_re=st.floats(min_value=-3, max_value=3, allow_nan=False),
    s_im=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_root_symmetry_under_negation(d, h, s_re, s_im):
    s = complex(s_re, s_im)
    op = ModelOperator(d=d, h=h, lam=0.0)
    roots = indicial_roots(op, s=s, n_max=4)
    plus = sorted(
        (round(r.lambda_at(s).real, 9), round(r.lambda_at(s).imag, 9), r.multiplicity)
        for r in roots
        if r.sign == 1
    )
    minus = sorted(
        (round(-r.lambda_at(s).real, 9), round(-r.lambda_at(s).imag, 9), r.multiplicity)
        for r in roots
        if r.sign == -1
    )
    assert plus == minus


def test_scale_invariance_in_h():
    s = 0.4
    base = indicial_roots(ModelOperator(d=2, h=1.0, lam=0.0), s=s, n_max=3)
    half = indicial_roots(ModelOperator(d=2, h=0.5, lam=0.0), s=s, n_max=3)
    for rb, rh in zip(base, half):
        assert (rb.sign, rb.n, rb.multiplicity, rb.jordan_index) == (
            rh.sign,
            rh.n,
            rh.multiplicity,
            rh.jordan_index,
        )
        assert rh.lambda_at(s) == pytest.approx(0.5 * rb.lambda_at(s))


def test_jordan_flags_odd_gap_semisimple():
    # s = -1, d = 1: collisions exist but always with odd level gap
    roots = indicial_roots(ModelOperator(d=1, h=1.0, lam=0.0), s=-1.0, n_max=3)
    assert all(r.jordan_index == 1 for r in roots)


def test_jordan_flags_even_gap():
    # s = -1.5, d = 1: partner level 2 - n, an index-2 block iff it is a
    # nonnegative integer of the same parity
    roots = indicial_roots(ModelOperator(d=1, h=1.0, lam=0.0), s=-1.5, n_max=3)
    flags = {(r.sign, r.n): r.jordan_index for r in roots}
    for sign in (1, -1):
        assert flags[(sign, 0)] == 2
        assert flags[(sign, 1)] == 2
        assert flags[(sign, 2)] == 2
        assert flags[(sign, 3)] == 1


def test_jordan_partner_level_formula():
    for d in (1, 2):
        for k in (0, 1, 2):
            for j in (k, k + 2, k + 4):
                s = -(j + k + d) / 2.0
                assert RootTable(ModelOperator(d=d, h=1.0, lam=0.0), s).partner(k) == j
            s_odd = -(2 * k + 1 + d) / 2.0  # partner would be k+1: odd gap
            assert RootTable(ModelOperator(d=d, h=1.0, lam=0.0), s_odd).partner(k) is None


# ---------------------------------------------------------------------------
# RootTable: the root geometry in w = lambda / h units
# ---------------------------------------------------------------------------


def _brute_roots(d, A, s, n_top=40):
    """(sign, n, w) for every root up to level n_top, from the closed form."""
    base = complex(s) - A + d / 2.0
    return [(sign, n, sign * (base + n)) for sign in (-1, 1) for n in range(n_top + 1)]


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("A", [0.0, 0.7])
def test_root_table_values_are_lambda_over_h(h, A):
    for d in (1, 2, 3):
        for s in (0.3 + 0.2j, 1.25, -0.4 + 1.1j, -2.6 - 0.7j):
            op = ModelOperator(d=d, h=h, A=A)
            table = RootTable(op, s)
            for r in indicial_roots(op, s, n_max=8):
                lam = r.lambda_at(s)
                assert abs(table.value(r.sign, r.n) * h - lam) <= 1e-15 * abs(lam)
                assert table.root(r.sign, r.n) == r


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    A=st.sampled_from([0.0, 0.7]),
    s_re=st.floats(-8.0, 8.0),
    s_im=st.floats(-1.5, 1.5),
    w_re=st.floats(-8.0, 8.0),
    w_im=st.floats(-1.5, 1.5),
    radius=st.floats(0.0, 3.0),
    rho=st.floats(-8.0, 8.0),
    width=st.floats(0.0, 4.0),
)
def test_root_table_queries_match_enumeration(
    d, A, s_re, s_im, w_re, w_im, radius, rho, width
):
    s, w = complex(s_re, s_im), complex(w_re, w_im)
    table = RootTable(ModelOperator(d=d, h=1.0, A=A), s)
    brute = _brute_roots(d, A, s)
    near = 1e-9  # roots this close to a boundary may fall either way

    sign, n, val, dist = table.nearest(w)
    best = min(abs(v - w) for _, _, v in brute)
    assert dist == pytest.approx(best, abs=1e-12)
    assert abs(val - w) == pytest.approx(best, abs=1e-12)
    assert val == pytest.approx(sign * (complex(s) - A + d / 2.0 + n), abs=1e-12)

    def check(locations, inside, margin):
        got = {m for loc in locations for m in loc.members}
        assert {(sg, k) for sg, k, v in brute if inside(v) and margin(v) > near} <= got
        assert got <= {(sg, k) for sg, k, v in brute if inside(v) or margin(v) <= near}
        values = [loc.value for loc in locations]
        assert all(abs(a - b) >= 1e-10 for i, a in enumerate(values) for b in values[:i])
        for loc in locations:
            for sg, k in loc.members:
                assert abs(table.value(sg, k) - loc.value) < 1e-10

    check(table.in_disc(w, radius), lambda v: abs(v - w) <= radius,
          lambda v: abs(abs(v - w) - radius))
    lo, hi = rho - width, rho + width
    check(table.strip(lo, hi), lambda v: lo < v.real < hi,
          lambda v: min(abs(v.real - lo), abs(v.real - hi)))

    gap = min(abs(v.real - rho) for _, _, v in brute)
    assert table.abscissa_gap(rho) == pytest.approx(gap, abs=1e-12)
    minus_gap = min(abs(v.real - rho) for sg, _, v in brute if sg < 0)
    assert table.abscissa_gap(rho, signs=(-1,)) == pytest.approx(minus_gap, abs=1e-12)
    beyond = min(abs(v.real - rho) for _, _, v in brute if abs(v.real - rho) > 0.25)
    assert table.abscissa_gap(rho, beyond=0.25) == pytest.approx(beyond, abs=1e-12)

    assert list(table.visible()) == [k for sg, k, v in brute if sg > 0 and v.real < 0]


def test_root_table_strip_merges_a_coincident_pair():
    # s = -1, d = 1: w = 0.5 carries the plus root of level 1 and the minus
    # root of level 0 (an odd-gap collision, so no Jordan block)
    table = RootTable(ModelOperator(d=1, h=1.0), -1.0)
    (loc,) = table.strip(0.2, 0.8)
    assert loc.value == 0.5
    assert sorted(loc.members) == [(-1, 0), (1, 1)]
    assert [l.members for l in table.in_disc(0.5, 0.1)] == [loc.members]
    assert table.partner(0) is None and table.partner(1) is None


def test_model_operator_validation():
    with pytest.raises(ValidationError):
        ModelOperator(d=0, h=1.0, lam=0.0)
    with pytest.raises(ValidationError):
        ModelOperator(d=1, h=-1.0, lam=0.0)


# ---------------------------------------------------------------------------
# eigendistributions
# ---------------------------------------------------------------------------


def _pole_value(psi):
    """psi at the distinguished pole (phi = 0)."""
    u = np.zeros((1, psi.d))
    u[0, 0] = 1.0
    return complex(np.asarray(point_value(psi, 0.0, u)).ravel()[0])


def test_dirac_zeroth_jet_is_point_evaluation():
    for lam in (0.0, 0.8 - 0.3j):
        for d in (1, 2):
            op = ModelOperator(d=d, h=1.0, lam=lam)
            s = lam / 1.0 - d / 2.0  # level-0 plus root relation
            roots = indicial_roots(op, s=s, n_max=0)
            r0 = next(r for r in roots if r.sign == 1 and r.n == 0)
            rep = eigendistribution(r0, op, (0,) * d)
            rng = np.random.default_rng(3)
            for _ in range(3):
                psi = random_test_function(d, rng, n_terms=3, max_deg=2)
                psi = psi + constant_test_function(d, 0.7)
                value = pair_distribution(rep, [psi])[0]
                assert value == pytest.approx(_pole_value(psi), abs=1e-12)


def test_euler_weight_of_jets_sympy_oracle():
    # partial^mu (sum_i x_i d_i psi)(0) = |mu| partial^mu psi(0); checked
    # against explicit symbolic differentiation
    for d in (1, 2):
        xs = sp.symbols(f"x0:{d}", real=True)
        t = sum(x**2 for x in xs)
        psi_expr = (1 + xs[0] + (xs[0] ** 2) * 0.5 + (xs[-1] ** 2 if d > 1 else 0)) * sp.exp(
            -0.7 * t
        ) * sp.sqrt(1 - t)
        euler_expr = sum(x * sp.diff(psi_expr, x) for x in xs)
        subs0 = {x: 0 for x in xs}
        for order in range(0, 3):
            for mu in multi_indices(d, order):
                dpsi = psi_expr
                deul = euler_expr
                for x, m in zip(xs, mu):
                    dpsi = sp.diff(dpsi, x, m)
                    deul = sp.diff(deul, x, m)
                lhs = complex(deul.subs(subs0))
                rhs = order * complex(dpsi.subs(subs0))
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_radial_scaling_of_dirac_jets_weak():
    # <rho d_rho delta^(mu), psi> = -(|mu|+d) <delta^(mu), psi> where the
    # left side unfolds as -<delta^(mu), (d + sum x_i d_i) psi>, with the
    # Euler term evaluated by symbolic differentiation (independent oracle).
    rng = np.random.default_rng(11)
    for d in (1, 2):
        xs = sp.symbols(f"x0:{d}", real=True)
        t = sum(x**2 for x in xs)
        subs0 = {x: 0 for x in xs}
        for trial in range(5):
            coeffs = rng.standard_normal(3)
            psi_expr = (
                coeffs[0] + coeffs[1] * xs[0] + coeffs[2] * xs[0] ** 2
            ) * sp.exp(-0.4 * t)
            psi_pkg = (
                TestFunction.from_monomial(d, (0,) * d, 0.4, (coeffs[0],))
                + TestFunction.from_monomial(d, (1,) + (0,) * (d - 1), 0.4, (coeffs[1],))
                + TestFunction.from_monomial(d, (2,) + (0,) * (d - 1), 0.4, (coeffs[2],))
            )
            # the flat jet d^mu psi(0) is the volume jet of cos(phi) psi,
            # as the volume factor is 1/cos(phi)
            flat_pkg = psi_pkg.mult_z0()
            euler_expr = sum(x * sp.diff(psi_expr, x) for x in xs)
            for order in (0, 1, 2):
                for mu in multi_indices(d, order):
                    deul = euler_expr
                    for x, m in zip(xs, mu):
                        deul = sp.diff(deul, x, m)
                    flat = flat_pkg.volume_jet(mu)
                    lhs = -(d * flat + complex(deul.subs(subs0)))
                    rhs = -(order + d) * flat
                    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def _signed_zero_poly(rng, n):
    """n random complex coefficients, some parts -0.0 or +0.0 and some whole
    coefficients zero, the last ones among them."""
    re, im = rng.normal(size=n), rng.normal(size=n)
    for part in (re, im):
        part[rng.random(n) < 0.3] = -0.0
        part[rng.random(n) < 0.2] = 0.0
    p = re + 1j * im
    p[rng.random(n) < 0.15] = 0.0
    p[n - int(rng.integers(0, 3)):] = complex(-0.0, -0.0)
    return p


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_test_function_algebra_is_numpy_polynomial_bit_for_bit(seed):
    # the plain-numpy products, sums, derivative and Horner evaluation of
    # _testfunctions against numpy.polynomial, which they replace
    from numpy.polynomial import polynomial as npoly
    from numpy.polynomial import polyutils as pu

    from cuspflow._testfunctions import _add, _mul, _trim

    def top_cancelling(p):
        # -p but for its constant, so that p plus it ends in zeros
        out = -np.asarray(p)
        out[0] += 1.0
        return out

    rng = np.random.default_rng(seed)
    polys = [_signed_zero_poly(rng, int(n)) for n in rng.integers(1, 7, size=12)]
    for a, b in itertools.product(polys, repeat=2):
        assert _same_bits(_trim(a, 1), pu.trimseq(a))
        a, b = pu.trimseq(a), pu.trimseq(b)
        assert _same_bits(_mul(a, b), npoly.polymul(a, b))
        for other in (b, -a, top_cancelling(a)):
            assert _same_bits(_add(a, other), npoly.polyadd(a, other))

    d, mus = 2, [(0, 0), (1, 0), (1, 1)]
    terms = [(sum(mu) + 2 * int(rng.integers(0, 2)), mu, float(rng.choice([0.0, 0.7])), p)
             for mu, p in zip(itertools.cycle(mus), polys)]
    # merges of three series whose first two sum to trailing zeros
    terms += ([(q, mu, c, top_cancelling(p)) for q, mu, c, p in terms[:4]]
              + [(q, mu, c, other) for (q, mu, c, _), other in zip(terms[:4], polys[::-1])])
    merged = {}
    for q, mu, c, p in terms:
        p = np.trim_zeros(p, "b")
        if p.size:
            key = (q, mu, c)
            merged[key] = npoly.polyadd(merged[key], p) if key in merged else p
    want = [(k, kept) for k, p in merged.items() if (kept := np.trim_zeros(p, "b")).size]
    psi = TestFunction(terms, d)
    assert [k for k, _ in want] == [(q, mu, c) for q, mu, c, _ in psi.terms]
    assert all(_same_bits(p, w) for (_, w), (*_, p) in zip(want, psi.terms))

    def x_gr(q, c, p):
        newp = npoly.polymul([0.0, float(q)], p)
        newp = npoly.polyadd(newp, npoly.polymul([-1.0, 0.0, 1.0], npoly.polyder(p)))
        if c != 0.0:
            newp = npoly.polyadd(newp, npoly.polymul([0.0, -2.0 * c, 0.0, 2.0 * c], p))
        return newp

    for got, reference in (
            (psi.mult_z0(), [(q, mu, c, npoly.polymul([0.0, 1.0], p)) for q, mu, c, p in psi.terms]),
            (psi.x_gr(), [(q, mu, c, x_gr(q, c, p)) for q, mu, c, p in psi.terms])):
        want = TestFunction(reference, d).terms
        assert [t[:3] for t in got.terms] == [t[:3] for t in want]
        assert all(_same_bits(g[3], w[3]) for g, w in zip(got.terms, want))

    phi = np.concatenate([rng.uniform(0.0, math.pi, 40), [0.0, math.pi / 2, math.pi]])
    z0 = np.cos(phi) + 0j
    for (mu, radial), (q, mu_t, c, p) in zip(psi._radial_factors(phi), psi.terms):
        want = npoly.polyval(z0, p) * np.sin(phi) ** q * np.exp(-c * (1.0 - np.cos(phi) ** 2))
        assert mu == mu_t and _same_bits(radial, want)


def test_weak_eigen_equation_dirac_jets():
    rng = np.random.default_rng(5)
    s = 0.23
    for d in (1, 2):
        for n in (0, 1, 2):
            op0 = ModelOperator(d=d, h=1.0, lam=0.0)
            roots = indicial_roots(op0, s=s, n_max=n)
            root = next(r for r in roots if r.sign == 1 and r.n == n)
            lam = root.lambda_at(s)
            op = ModelOperator(d=d, h=1.0, lam=lam)
            mu = (n,) + (0,) * (d - 1)
            rep = eigendistribution(root, op, mu)
            for _ in range(5):
                psi = random_test_function(d, rng, n_terms=3, max_deg=2)
                g = psi.apply_model_transpose(1.0, lam, 0.0) + psi * (-1.0 * s)
                residual = abs(pair_distribution(rep, [g])[0])
                assert residual < 1e-8 * ck_norm(psi, n + 1)


def test_weak_eigen_equation_south_branch():
    rng = np.random.default_rng(9)
    s = 0.37
    for d in (1, 2):
        for k in (0, 1):
            op0 = ModelOperator(d=d, h=1.0, lam=0.0)
            roots = indicial_roots(op0, s=s, n_max=k)
            root = next(r for r in roots if r.sign == -1 and r.n == k)
            lam = root.lambda_at(s)
            op = ModelOperator(d=d, h=1.0, lam=lam)
            ups = tuple(1.0 for _ in range(homogeneous_dimension(d, k)))
            rep = eigendistribution(root, op, ups)
            for _ in range(3):
                psi = random_test_function(d, rng, n_terms=2, max_deg=2)
                g = psi.apply_model_transpose(1.0, lam, 0.0) + psi * (-1.0 * s)
                residual = abs(pair_distribution(rep, [g])[0])
                assert residual < 1e-8 * ck_norm(psi, k + 1)


def test_eigendistribution_selector_mismatch():
    op0 = ModelOperator(d=2, h=1.0, lam=0.0)
    roots = indicial_roots(op0, s=0.1, n_max=1)
    r_plus = next(r for r in roots if r.sign == 1 and r.n == 1)
    with pytest.raises(ValidationError):
        eigendistribution(r_plus, ModelOperator(d=2, h=1.0, lam=r_plus.lambda_at(0.1)), (3, 0))


@pytest.mark.parametrize("selector", [0, 1.5, None])
def test_eigendistribution_plus_selector_must_be_iterable(selector):
    # tuple(0) raised an untyped TypeError from inside the plus branch
    op0 = ModelOperator(d=2, h=1.0, lam=0.0)
    r_plus = next(r for r in indicial_roots(op0, s=0.1, n_max=1) if r.sign == 1 and r.n == 1)
    op = ModelOperator(d=2, h=1.0, lam=r_plus.lambda_at(0.1))
    with pytest.raises(ValidationError, match=rf"selector {selector!r} is not a multi-index"):
        eigendistribution(r_plus, op, selector)


def test_eigendistribution_minus_selector_is_read_by_type():
    # a tuple of ints is a multi-index, anything else a coefficient vector:
    # (0.3, 0.7) has length d and sums to n, and used to be read as a multi-index
    op0 = ModelOperator(d=2, h=1.0, lam=0.0)
    root = next(r for r in indicial_roots(op0, s=0.1, n_max=1) if r.sign == -1 and r.n == 1)
    op = ModelOperator(d=2, h=1.0, lam=root.lambda_at(0.1))
    assert eigendistribution(root, op, (0.3, 0.7)).upsilon == (0.3, 0.7)
    assert eigendistribution(root, op, [0.3, 0.7]).upsilon == (0.3, 0.7)
    for i, mu in enumerate(multi_indices(2, 1)):
        want = tuple(float(j == i) for j in range(2))
        assert eigendistribution(root, op, mu).upsilon == want
        assert eigendistribution(root, op, tuple(np.array(mu))).upsilon == want
    with pytest.raises(ValidationError, match=r"selector \(2, 0\) inconsistent"):
        eigendistribution(root, op, (2, 0))



@pytest.mark.parametrize("d,s,j", [(1, -0.5, 0), (1, -1.5, 2), (2, -2.0, 2)])
def test_eigendistribution_at_a_jordan_root_is_the_jordan_vector(d, s, j):
    # the minus n = 0 root meets a plus root of equal parity at lambda_0 =
    # h j / 2: jordan_index 2, and the rep is the (j, k = 0) Jordan vector
    root = next(r for r in indicial_roots(ModelOperator(d=d), s=s, n_max=0) if r.sign == -1)
    assert root.jordan_index == 2
    lam = root.lambda_at(s)
    op = ModelOperator(d=d, h=1.0, lam=lam)
    rep = eigendistribution(root, op, (0,) * d)
    ref = jordan_vector(j, 0, (1.0,), op)
    assert (rep.finite_part, rep.lam) == (True, j / 2.0)
    rng = np.random.default_rng(13)
    for _ in range(3):
        psi = random_test_function(d, rng, n_terms=3, max_deg=2)
        assert pair_distribution(rep, [psi])[0] == pair_distribution(ref, [psi])[0]
    with pytest.raises(ValidationError, match="is not at the crossing value"):
        eigendistribution(root, ModelOperator(d=d, h=1.0, lam=lam + 1e-6), (0,) * d)


def test_a_jordan_root_at_a_large_h_is_located_in_w_units():
    # the crossing guard is 1e-9 h: at h = 1e12/3 the root's lambda carries a
    # rounding of about 1e-4, while 1e-6 h off the crossing is still rejected
    h, s = 1e12 / 3, -1.5
    root = next(r for r in indicial_roots(ModelOperator(d=1, h=h), s=s, n_max=0) if r.sign == -1)
    assert root.jordan_index == 2
    lam = root.lambda_at(s)
    rep = eigendistribution(root, ModelOperator(d=1, h=h, lam=lam), (0,))
    assert (rep.finite_part, rep.lam) == (True, h)
    with pytest.raises(ValidationError, match="is not at the crossing value"):
        eigendistribution(root, ModelOperator(d=1, h=h, lam=lam + 1e-6 * h), (0,))


# ---------------------------------------------------------------------------
# jet matrix cross-check
# ---------------------------------------------------------------------------


def test_jet_matrix_k0_single_eigenvalue():
    op = ModelOperator(d=1, h=1.0, lam=0.0)
    eigs = numeric_roots_jet(op, K=0)
    assert len(eigs) == 1
    assert eigs[0] == pytest.approx(-0.5)


def test_jet_matrix_zero_pattern():
    # entries couple nu to mu only when mu - nu is a nonnegative even
    # multi-index: block upper triangular in degree, diagonal within a degree
    op = ModelOperator(d=2, h=1.0, lam=0.3)
    basis, M = jet_matrix(op, K=4, exact=False)
    assert list(basis) == [mu for n in range(5) for mu in multi_indices(2, n)]
    for i, nu in enumerate(basis):
        for j, mu in enumerate(basis):
            gap = tuple(a - b for a, b in zip(mu, nu))
            allowed = all(g >= 0 and g % 2 == 0 for g in gap)
            if not allowed:
                assert M[i, j] == 0


@pytest.mark.parametrize("d", [1, 2])
def test_jet_matrix_is_the_transpose_action_on_volume_jets(d):
    # B_mu[P^T psi] = sum_nu M[nu, mu] B_nu[psi], every entry checked against
    # the test function's exact transpose
    op = ModelOperator(d=d, h=0.7, lam=0.3 + 0.2j, A=0.4)
    basis, M = jet_matrix(op, K=5)
    psi = random_test_function(d, np.random.default_rng(1), n_terms=4, max_deg=3)
    moved = psi.apply_model_transpose(op.h, op.lam, op.A)
    lhs = np.array([moved.volume_jet(mu) for mu in basis])
    rhs = np.array([psi.volume_jet(nu) for nu in basis]) @ M
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


def test_jet_matrix_exact_vs_float_and_eigenvalues():
    op = ModelOperator(d=2, h=1.0, lam=0.25)
    K = 4
    _, M_float = jet_matrix(op, K=K, exact=False)
    _, M_exact = jet_matrix(op, K=K, exact=True)
    for i, row in enumerate(M_exact):
        for j, entry in enumerate(row):
            assert abs(complex(entry) - M_float[i, j]) < 1e-12
    eigs = numeric_roots_jet(op, K=K)
    expected = sorted(
        (0.25 - (n + 1.0) for n in range(K + 1) for _ in multi_indices(2, n)),
        reverse=True,
    )
    got = sorted((e.real for e in eigs), reverse=True)
    assert np.allclose(got, expected, atol=1e-12)
    assert max(abs(e.imag) for e in eigs) < 1e-12


# ---------------------------------------------------------------------------
# shooting cross-check
# ---------------------------------------------------------------------------


def test_shooting_detects_level0_minus_root():
    op = ModelOperator(d=1, h=1.0, lam=1.5)
    res = numeric_roots_shooting(op, s=-2.0, m=0)
    assert res.is_root
    assert (-1, 0) in res.branches
    assert abs(res.exponent_minus - res.expected_minus) < 1e-6
    assert abs(res.exponent_plus - res.expected_plus) < 1e-6


def test_shooting_endpoint_exponents_match_closed_form():
    # exponents of the reduced ODE: (e - c)/2 at x = -1 and (-e - c)/2 at
    # x = +1 with c = lam/h + d/2 + m and e = A - s
    rng = np.random.default_rng(21)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        h = 1.0
        lam = complex(rng.uniform(-2, 2), 0.0)
        s = complex(rng.uniform(-2, 2), 0.0)
        m = int(rng.integers(0, 2))
        op = ModelOperator(d=d, h=h, lam=lam)
        res = numeric_roots_shooting(op, s=s, m=m)
        c = lam / h + d / 2.0 + m
        e = -s
        assert abs(res.exponent_minus - (e - c) / 2.0) < 1e-6
        assert abs(res.exponent_plus - (-e - c) / 2.0) < 1e-6


def test_shooting_rejects_non_roots():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        d = int(rng.integers(1, 3))
        lam = rng.uniform(-3, 3)
        s = rng.uniform(-3, 3)
        # keep a safe distance from both affine families
        dist = min(
            min(abs(lam - (s + d / 2.0 + n)), abs(lam + (s + d / 2.0 + n)))
            for n in range(0, 12)
        )
        if dist < 0.3:
            continue
        op = ModelOperator(d=d, h=1.0, lam=lam)
        res = numeric_roots_shooting(op, s=s, m=int(rng.integers(0, 2)))
        assert not res.is_root
        checked += 1


def test_shooting_sees_all_d1_roots_up_to_level3():
    s = -0.85
    for n in range(4):
        for sign in (1, -1):
            lam = sign * (s + 0.5 + n)
            op = ModelOperator(d=1, h=1.0, lam=lam)
            # the level-n root appears in modes m = n, n-2, ... (parity)
            res = numeric_roots_shooting(op, s=s, m=n)
            assert res.is_root
            assert (sign, n) in res.branches
            if n >= 2:
                res2 = numeric_roots_shooting(op, s=s, m=n - 2)
                assert res2.is_root
                assert (sign, n) in res2.branches
            # opposite parity mode must not see it
            res_bad = numeric_roots_shooting(op, s=s, m=n + 1)
            assert (sign, n) not in res_bad.branches


# ---------------------------------------------------------------------------
# conjugation identities
# ---------------------------------------------------------------------------


def _smooth_f():
    def f(phi, u):
        return math.cos(phi) ** 2 * (1.0 + 0.3 * float(np.atleast_1d(u)[0]))

    def fphi(phi, u):
        return -2.0 * math.cos(phi) * math.sin(phi) * (1.0 + 0.3 * float(np.atleast_1d(u)[0]))

    return f, fphi


@pytest.mark.parametrize("d,h,lam,s", [(1, 1.0, 0.6, 0.35), (2, 0.5, -0.4 + 0.2j, -1.1)])
def test_conjugation_identity_north(d, h, lam, s):
    # w^{-s} (P_lam - h s) (w^s f) = sqrt(1-rho^2) (h rho d_rho - h s + lam + h d/2) f
    # with w = 2 tan(phi/2)/sin(phi) and rho = sin(phi)
    op = ModelOperator(d=d, h=h, lam=lam)
    f, fphi = _smooth_f()
    u = np.zeros(d)
    u[0] = 1.0
    for phi in np.linspace(0.15, 1.45, 17):
        w = 2.0 * math.tan(phi / 2.0) / math.sin(phi)
        dlogw = math.tan(phi / 2.0)
        big = (
            lambda p, uu: w**complex(s) * f(p, uu),
            lambda p, uu: (2.0 * math.tan(p / 2.0) / math.sin(p)) ** complex(s)
            * (fphi(p, uu) + s * math.tan(p / 2.0) * f(p, uu)),
        )
        lhs = (apply_P(op, big, (phi, u)) - h * s * big[0](phi, u)) / w**complex(s)
        rho = math.sin(phi)
        rhs = math.sqrt(1.0 - rho * rho) * (
            h * math.tan(phi) * fphi(phi, u) + (lam + h * d / 2.0 - h * s) * f(phi, u)
        )
        assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("d,h,lam,k", [(1, 1.0, 0.45, 1), (2, 1.0, -0.3, 2)])
def test_conjugation_identity_south(d, h, lam, k):
    # with w = 2 tan(phi/2) sin(phi), sigma = -(k + d/2 + lam/h) and
    # h s = -(lam + h(d/2 + k)), the conjugated operator annihilates
    # (sin phi)^k exactly: w^{-sigma}(P_lam - hs)(w^sigma sin^k) = 0
    op = ModelOperator(d=d, h=h, lam=lam)
    sigma = -(k + d / 2.0 + lam / h)
    hs = -(lam + h * (d / 2.0 + k))
    u = np.zeros(d)
    u[0] = 1.0

    def wfun(p):
        return 2.0 * math.tan(p / 2.0) * math.sin(p)

    def big(p, uu):
        return wfun(p) ** complex(sigma) * math.sin(p) ** k

    def bigphi(p, uu):
        dlogw = 1.0 / math.tan(p / 2.0)  # d/dphi log(2 tan(phi/2) sin(phi)) = cot(phi/2)
        return big(p, uu) * (sigma * dlogw + k * math.cos(p) / math.sin(p))

    for phi in np.linspace(0.3, math.pi - 0.3, 17):
        lhs = (apply_P(op, (big, bigphi), (phi, u)) - hs * big(phi, u)) / wfun(phi) ** complex(
            sigma
        )
        assert abs(lhs) < 1e-9


def test_conjugation_identity_south_generic_function():
    # generic f: w^{-sigma}(P_lam - hs)(w^sigma f)
    #          = h sin(phi) f' + [(lam + h d/2 + h sigma) cos(phi) + h sigma - h s] f
    d, h, lam, s = 2, 1.0, 0.7, 0.4
    sigma = -1.3
    op = ModelOperator(d=d, h=h, lam=lam)
    f, fphi = _smooth_f()
    u = np.array([1.0, 0.0])

    def wfun(p):
        return 2.0 * math.tan(p / 2.0) * math.sin(p)

    def big(p, uu):
        return wfun(p) ** sigma * f(p, uu)

    def bigphi(p, uu):
        return wfun(p) ** sigma * (fphi(p, uu) + sigma / math.tan(p / 2.0) * f(p, uu))

    for phi in np.linspace(0.3, math.pi - 0.3, 15):
        lhs = (apply_P(op, (big, bigphi), (phi, u)) - h * s * big(phi, u)) / wfun(phi) ** sigma
        rhs = h * math.sin(phi) * fphi(phi, u) + (
            (lam + h * d / 2.0 + h * sigma) * math.cos(phi) + h * sigma - h * s
        ) * f(phi, u)
        assert abs(lhs - rhs) < 1e-9
