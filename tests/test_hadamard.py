"""Tests for the continued homogeneous-distribution pairings and residues."""

import functools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from _oracles import AwaySupportedFunction, ck_norm, reference_pairing, sphere_quadrature
from cuspflow._sphere import homogeneous_dimension, multi_indices
from cuspflow._jets import RadialSeries
from cuspflow._testfunctions import TestFunction, random_test_function
from cuspflow.errors import PoleError, ToleranceError, ValidationError
from cuspflow.hadamard import (
    _angular_moment,
    auto_regularization_depth,
    jordan_vector,
    pair_distribution,
    pairing,
    pairings,
    pole_location,
    pole_residue,
)
from cuspflow.hadamard import quad as panel_quad
from cuspflow.indicial import ModelOperator, indicial_roots


def _coupled_psi(d, seed=0, extra_const=True):
    """A test function with terms of every angular parity up to degree 2."""
    rng = np.random.default_rng(seed)
    psi = random_test_function(d, rng, n_terms=3, max_deg=2)
    e1 = (1,) + (0,) * (d - 1)
    psi = psi + TestFunction.from_monomial(d, e1, 0.3, (0.8, -0.2))
    if extra_const:
        psi = psi + TestFunction.from_monomial(d, (0,) * d, 0.9, (1.0, 0.4))
    return psi


def _upsilon_value(up: tuple, k: int, nodes: np.ndarray) -> np.ndarray:
    """Evaluate Upsilon at sphere nodes (shape (M, d))."""
    d = nodes.shape[-1]
    out = np.zeros(nodes.shape[:-1], dtype=complex)
    for c, mu in zip(up, multi_indices(d, k)):
        if c == 0:
            continue
        term = np.ones(nodes.shape[:-1])
        for i, m in enumerate(mu):
            if m:
                term = term * nodes[..., i] ** m
        out = out + c * term
    return out


def _weighted_jet_terms(psi, nu, weight, magnitude=False):
    """The terms' shares of d^nu [ g(t) J psi ](x=0) for a radial series g:
    each term's coefficient of the truncated product g * (J rest), times
    m!/w! nu!.  With ``magnitude``, each share's sum of absolute products
    |rest_i g_{m-i}| instead: the scale of its rounding in any order."""
    nu = tuple(nu)
    shares = []
    nfact = 1.0
    for a in nu:
        nfact *= float(math.factorial(a))
    wc = tuple(map(complex, weight.coeffs))
    for index, (q, mu, c, p) in enumerate(psi.terms):
        if any(b > a for a, b in zip(nu, mu)):
            continue
        w = tuple(a - b for a, b in zip(nu, mu))
        if any(v % 2 for v in w):
            continue
        w = tuple(v // 2 for v in w)
        m = sum(w)
        e = (q - sum(mu)) // 2
        rest_order = m - e
        if rest_order < 0:
            continue
        rest = psi._radial_series(index, rest_order)
        assert len(wc) > rest_order, "weight series order too small"
        g_m = rest[0] * wc[rest_order]
        for i in range(1, rest_order + 1):
            g_m = g_m + rest[i] * wc[rest_order - i]
        if magnitude:
            g_m = sum(abs(rest[i] * wc[rest_order - i]) for i in range(rest_order + 1))
        mult = math.factorial(m)
        for v in w:
            mult //= math.factorial(v)
        shares.append(g_m * mult * nfact)
    return shares


def _direct_pairing(d, h, k, upsilon, lam, psi):
    """Unregularized integral of T^sigma rho^k Upsilon(u) psi dVol over the
    sphere, legitimate for 2 Re(lam)/h + k < 0 (and for compactly-away psi)."""
    sigma = -(k + d / 2.0 + lam / h)
    nodes, weights = sphere_quadrature(d, k + 6)
    ups = _upsilon_value(upsilon, k, nodes)

    def integrand(phi):
        t_fac = 2.0 * (1.0 - math.cos(phi))
        vals = psi.value(phi, nodes)
        return t_fac**sigma * math.sin(phi) ** (k + d - 1) * complex(
            np.sum(weights * ups * vals)
        )

    val, _ = quad(integrand, 0.0, math.pi, complex_func=True, limit=600, epsabs=1e-13)
    return val


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_nreg_independence_at_complex_lambda():
    psi = _coupled_psi(2, seed=1)
    vals = [pairing(2, 1.0, 1, (1.0, 0.5), psi, 0.3 + 0.1j, n) for n in (3, 5, 8)]
    assert abs(vals[0]) > 1e-3  # meaningful, coupled configuration
    assert abs(vals[1] - vals[0]) < 1e-9
    assert abs(vals[2] - vals[0]) < 1e-9


@pytest.mark.parametrize("d,k,lam", [(1, 0, -0.8), (1, 1, -1.1), (2, 1, -0.9 + 0.2j)])
def test_direct_integral_agreement_in_l1_regime(d, k, lam):
    assert 2 * complex(lam).real + k < 0
    upsilon = tuple(1.0 + 0.25 * i for i in range(homogeneous_dimension(d, k)))
    psi = _coupled_psi(d, seed=2)
    direct = _direct_pairing(d, 1.0, k, upsilon, lam, psi)
    assert abs(pairing(d, 1.0, k, upsilon, psi, lam, 3) - direct) < 1e-8 * max(1.0, abs(direct))


def test_vanishing_near_pole_reduces_to_direct_integral():
    # psi supported strictly away from the pole: every Taylor datum vanishes
    # and the continued pairing is just the integral, far into the
    # "divergent" half plane
    d, k = 1, 0
    psi = AwaySupportedFunction(d, z_star=0.2, mu=(0,))
    for lam in (1.3, 2.6):
        direct = _direct_pairing(d, 1.0, k, (1.0,), lam, psi)
        assert abs(direct) > 1e-6
        assert abs(pairing(d, 1.0, k, (1.0,), psi, lam, 8) - direct) < 1e-8 * abs(direct)


def test_pairing_pole_error_carries_datum():
    psi = _coupled_psi(1, seed=3)
    lam0 = pole_location(2, 0, 1.0)  # = 1
    with pytest.raises(PoleError) as exc:
        pairing(1, 1.0, 0, (1.0,), psi, lam0 + 5e-9, 4)
    assert exc.value.j == 2
    assert exc.value.k == 0


def test_pairing_validity_requires_depth():
    psi = _coupled_psi(1, seed=4)
    with pytest.raises(ValidationError):
        pairing(1, 1.0, 0, (1.0,), psi, 2.0, 3)


def test_pairing_linear_in_upsilon_and_psi():
    d, k, lam = 2, 1, 0.21 + 0.05j
    psi1 = _coupled_psi(d, seed=5)
    psi2 = _coupled_psi(d, seed=6)
    u1, u2 = (1.0, 0.0), (0.3, -0.7)

    def val(ups, psi):
        return pairing(d, 1.0, k, ups, psi, lam, 5)

    combo = tuple(2.0 * a - 1.5 * b for a, b in zip(u1, u2))
    assert val(combo, psi1) == pytest.approx(
        2.0 * val(u1, psi1) - 1.5 * val(u2, psi1), abs=1e-10
    )
    psi_sum = psi1 * 0.7 + psi2 * (-2.2)
    assert val(u1, psi_sum) == pytest.approx(
        0.7 * val(u1, psi1) - 2.2 * val(u1, psi2), abs=1e-10
    )


def test_radial_taylor_reconstruction_remainder_order():
    # partial Taylor data of the weighted profile reproduces it to o(rho^n):
    # remainder exponent fit >= n + 0.9 on dyadic rho
    for d, n in ((1, 2), (2, 3), (1, 4)):
        psi = _coupled_psi(d, seed=7)
        lam = 0.17
        k = 0
        sigma = -(k + d / 2.0 + lam)
        weight = RadialSeries.power(sigma, n + 4)
        u0 = np.zeros(d)
        u0[0] = 1.0
        if d > 1:
            u0 = np.array([0.8, 0.6])
        jets = {}
        for order in range(n + 1):
            for nu in multi_indices(d, order):
                jets[nu] = sum(_weighted_jet_terms(psi, nu, weight))

        def direct(rho):
            phi = math.asin(rho)
            w = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
            jfac = (1.0 - rho * rho) ** -0.5
            return complex(
                np.asarray(psi.value(phi, u0[None, :])).ravel()[0]
            ) * w**sigma * jfac

        def taylor(rho):
            acc = 0.0 + 0.0j
            x = rho * u0
            for nu, dval in jets.items():
                fact = 1.0
                mono = 1.0
                for xi, m in zip(x, nu):
                    fact *= math.factorial(m)
                    mono *= xi**m
                acc += dval * mono / fact
            return acc

        rhos = [2.0**-i for i in range(3, 11)]
        rem = [abs(direct(r) - taylor(r)) for r in rhos]
        assert all(r > 0 for r in rem)
        # per-step dyadic exponents, ignoring pairs at the rounding floor
        steps = [
            math.log2(rem[i] / rem[i + 1])
            for i in range(len(rem) - 1)
            if rem[i] > 2e-14 and rem[i + 1] > 2e-14
        ]
        assert max(steps) >= n + 0.9
        assert steps[-1] >= n + 0.6


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=4, deadline=None)
@given(
    k=st.integers(0, 3),
    n_reg=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    lam_re=st.floats(-2.0, 2.0),
    lam_im=st.floats(-2.0, 2.0),
)
def test_profile_coefficient_matches_per_multi_index_jet_sum(d, k, n_reg, seed, lam_re, lam_im):
    # Phi_j from the moments a_mu against sum_nu (a_nu / nu!) d^nu[w^sigma J psi](0),
    # for every order the pairing's tail series can read; the error is measured
    # against the sum of the absolute (nu, term) shares, since the terms' shares
    # of one jet can cancel.  An (order,) or (order, L) weight takes each term's
    # convolution as one np.dot, whose summation order differs from the
    # sequential one that the shares repeat: by Higham's bound
    # (Accuracy and Stability of Numerical Algorithms, 3.1) the two differ by at
    # most 2 gamma_{r+3} sum_i |rest_i w_{r-i}| for r = m - e <= j // 2, which
    # the absolute products of every (nu, term) share bound from above.
    rng = np.random.default_rng(seed)
    psi = random_test_function(d, rng, n_terms=3, max_deg=2)
    upsilon = tuple(float(c) for c in rng.normal(size=homogeneous_dimension(d, k)))
    sigma = -(k + d / 2.0 + complex(lam_re, lam_im))
    j_cap = n_reg + 64
    weight = RadialSeries.power(sigma, (j_cap - 1) // 2)
    moment = functools.partial(_angular_moment, upsilon, k)
    series = np.array(weight.coeffs)
    columns = series[:, None] * np.array([1.0, 2.0])  # exact multiples
    for j in range(j_cap):
        terms, scale = [], 0.0
        for nu in multi_indices(d, j):
            a_nu = _angular_moment(upsilon, k, nu)
            if a_nu != 0.0:
                fact = math.prod(math.factorial(v) for v in nu)
                terms += [a_nu / fact * t for t in _weighted_jet_terms(psi, nu, weight)]
                scale += sum(abs(a_nu / fact) * t
                             for t in _weighted_jet_terms(psi, nu, weight, magnitude=True))
        floor = 4e-14 * sum(abs(t) for t in terms)
        gamma = (j // 2 + 3) * 2.0**-53 / (1.0 - (j // 2 + 3) * 2.0**-53)
        cols = [psi.profile_coefficient(j, series, moment),
                *np.broadcast_to(psi.profile_coefficient(j, columns, moment), (2,))]
        for c, col in zip((1.0, 1.0, 2.0), cols):
            assert abs(col - c * sum(terms)) <= c * (floor + 2.0 * gamma * scale), (j, c, col)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_angular_profile_matches_sphere_quadrature(d):
    # closed-form integral of Upsilon(u) psi(phi, u) over u against the sphere
    # rule exact to degree k + max |mu|
    rng = np.random.default_rng(40 + d)
    phi = np.linspace(0.0, math.pi, 41)
    e1 = (1,) + (0,) * (d - 1)
    for k in range(4):
        upsilon = tuple(float(c) for c in rng.normal(size=homogeneous_dimension(d, k)))
        moment = functools.partial(_angular_moment, upsilon, k)
        psis = [
            (_coupled_psi(d, seed=d + 10 * k), 2),
            (AwaySupportedFunction(d, z_star=0.3, mu=e1), 1),
            (AwaySupportedFunction(d, z_star=-0.2, mu=(2,) + (1,) * (d - 1)), d + 1),
        ]
        for psi, mu_max in psis:
            nodes, weights = sphere_quadrature(d, k + mu_max)
            ups = _upsilon_value(upsilon, k, nodes)
            vals = psi.value(phi[:, None], nodes[None])
            want = vals @ (weights * ups)
            scale = np.abs(vals) @ np.abs(weights * ups)
            got = psi.angular_profile(phi, moment)
            assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + scale)), (k, psi)


# ---------------------------------------------------------------------------
# batched pairings
# ---------------------------------------------------------------------------


def _circle(j, k, h=1.0, eps=1e-2, n_nodes=24):
    """The residue circle's nodes and their depths, as pole_residue sets them."""
    units = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    lams = pole_location(j, k, h) + eps * h * units
    return lams, [max(j + 2, auto_regularization_depth(lam, k, h)) for lam in lams.tolist()]


@pytest.mark.parametrize("d", [1, 2])
def test_pairings_match_the_one_lambda_reference_on_residue_circles(d):
    # every (k, j) circle with k <= 3, j <= 5, against the pairing as it was
    # written for one lambda; where Re(lambda) passes h (j + 2 - k)/2 - 1 the
    # depth rises to j + 3, so most circles mix two depths
    mixed = 0
    for k in range(4):
        ups = tuple(1.0 - 0.3 * i for i in range(homogeneous_dimension(d, k)))
        for j in range(6):
            psi = _coupled_psi(d, seed=20 + 6 * k + j)
            lams, n_regs = _circle(j, k)
            mixed += len(set(n_regs)) > 1
            got = pairings(d, 1.0, k, ups, psi, lams, n_regs)
            for lam, n_reg, value in zip(lams.tolist(), n_regs, got):
                ref = reference_pairing(d, 1.0, k, ups, psi, lam, n_reg)
                assert abs(value - ref) <= 1e-13 * max(abs(ref), 1.0), (k, j, lam)
    assert mixed >= 12


def _mp_angular(psi, moment, phi):
    """The angular profile of a TestFunction in mpmath arithmetic."""
    z0, rho = mpmath.cos(phi), mpmath.sin(phi)
    total = mpmath.mpc(0)
    for q, mu, c, p in psi.terms:
        poly = mpmath.polyval([mpmath.mpc(complex(x)) for x in p[::-1]], z0)
        total += moment(mu) * rho**q * poly * mpmath.exp(-c * (1 - z0**2))
    return total


@pytest.mark.parametrize("d,k,lams", [
    (1, 0, (-0.3, -0.8 + 0.4j, -1.6 - 0.2j)),
    (2, 1, (-0.7, -0.9 + 0.3j, -1.4 - 0.5j)),
])
def test_pairings_match_a_30_digit_direct_integral_in_the_l1_regime(d, k, lams):
    # for k + 2 Re(lambda)/h < 0 the pairing is the plain integral
    # of T^sigma sin(phi)^{k+d-1} times the angular profile over [0, pi]
    ups = tuple(1.0 + 0.25 * i for i in range(homogeneous_dimension(d, k)))
    psi = _coupled_psi(d, seed=30 + d)
    moment = functools.partial(_angular_moment, ups, k)
    got = pairings(d, 1.0, k, ups, psi, lams, [3, 3, 4])
    with mpmath.workdps(30):
        for lam, value in zip(lams, got):
            assert k + 2 * complex(lam).real < 0
            sigma = -(k + mpmath.mpf(d) / 2 + mpmath.mpc(lam))

            def integrand(phi):
                t_fac = 4 * mpmath.sin(phi / 2) ** 2  # 2 (1 - cos phi), no cancellation
                return t_fac**sigma * mpmath.sin(phi) ** (k + d - 1) * _mp_angular(psi, moment, phi)

            ref = complex(mpmath.quad(integrand, [0, mpmath.pi / 3, mpmath.pi]))
            assert abs(value - ref) <= 1e-12 * abs(ref), lam


def test_pairings_pole_error_names_the_one_lambda_at_a_pole():
    psi = _coupled_psi(1, seed=3)
    bad = pole_location(2, 0, 1.0) + 5e-9
    with pytest.raises(PoleError) as exc:
        pairings(1, 1.0, 0, (1.0,), psi, [0.3 + 0.2j, bad, 1.4 - 0.1j], 5)
    assert (exc.value.j, exc.value.k) == (2, 0)
    assert f"lambda={complex(bad)}" in str(exc.value)


@pytest.mark.parametrize("h", [1e-9, 1e-6, 1e3])
def test_pairings_depend_on_lambda_only_through_lambda_over_h(h):
    """The pairing family reads lambda only as w = lambda/h: at (h, h w) it
    is the pairing at (1, w), and its pole guard, in w units, refuses the
    same w at every h."""
    psi = _coupled_psi(1, seed=3)
    w = np.array([0.3 + 0.2j, -0.7 + 1.1j, 1.4 - 0.1j, 0.05 + 0j, 0.02j])
    want = pairings(1, 1.0, 0, (1.0,), psi, w, 5)
    got = pairings(1, h, 0, (1.0,), psi, h * w, 5)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    bad = pole_location(2, 0, 1.0) + 5e-9
    for scale in (1.0, h):
        with pytest.raises(PoleError) as exc:
            pairings(1, scale, 0, (1.0,), psi, scale * np.array([0.3 + 0.2j, bad]), 5)
        assert (exc.value.j, exc.value.k) == (2, 0)


class _UndecayingTail:
    """A psi whose radial Taylor tail does not decay at one exponent sigma:
    Phi_j = 4^j where the t-coefficient sigma/4 of w^sigma is sigma_bad/4,
    and 0 elsewhere; the angular profile vanishes."""

    def __init__(self, sigma_bad):
        self.sigma_bad = sigma_bad

    def angular_profile(self, phi, moment):
        return np.zeros(np.shape(phi), complex)

    def profile_coefficient(self, j, weight, moment):
        return 4.0**j * np.isclose(weight[1], self.sigma_bad / 4.0)


def test_pairings_tolerance_error_names_the_one_unresolved_lambda():
    d, k, h = 1, 0, 1.0
    lams = [0.3 + 0.2j, -0.6 + 0.1j, 1.4 - 0.1j]
    psi = _UndecayingTail(sigma_bad=-(k + d / 2 + lams[1] / h))
    with pytest.raises(ToleranceError, match=rf"at lambda={re.escape(str(lams[1]))}"):
        pairings(d, h, k, (1.0,), psi, lams, 5)
    # without the undecaying row the other two resolve
    assert np.all(np.isfinite(pairings(d, h, k, (1.0,), psi, lams[::2], 5)))


def test_jordan_finite_part_is_the_circle_mean_of_reference_pairings():
    # the 0th Laurent coefficient at lambda_0 is the mean of the pairing over a
    # circle about it, here 64 trapezoid nodes at radius h/10 (the next pole is
    # h/2 away, so the rule errs by about 5^-64); the closed form must agree
    # within 1e-14 relative, widened by the mean's own rounding, about 1e-16
    # of the largest pairing on the circle.  pair_distribution returns the
    # finite part plus the jet pairing of the correction e_j.
    units = np.exp(2j * np.pi * np.arange(64) / 64)
    for d, k, j in [(1, 0, 2), (1, 1, 1), (2, 1, 1), (2, 2, 2), (2, 0, 2), (1, 0, 0), (1, 2, 4)]:
        lam0 = pole_location(j, k, 1.0)
        ups = tuple(1.0 + 0.2 * i for i in range(homogeneous_dimension(d, k)))
        rep = jordan_vector(j, k, ups, ModelOperator(d=d, h=1.0, lam=lam0))
        psi = _coupled_psi(d, seed=100 + d + k)
        vals = [reference_pairing(d, 1.0, k, rep.upsilon, psi, lam, j + 2)
                for lam in (lam0 + 0.1 * units).tolist()]
        ref = sum(vals) / len(vals)
        bound = 1e-14 * abs(ref) + 1e-15 * max(abs(v) for v in vals)
        finite = pair_distribution(rep, psi) - psi.pair_volume_dict(rep.jet_dict)
        assert abs(finite - ref) <= bound, (d, k, j)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def test_residue_closed_vs_contour_coupled_cases():
    for d, k, j in [(1, 0, 2), (1, 1, 1), (2, 1, 1), (2, 0, 2)]:
        psi = _coupled_psi(d, seed=10 + j)
        ups = tuple(1.0 + 0.3 * i for i in range(homogeneous_dimension(d, k)))
        res = pole_residue(j, k, ups, psi, d=d, h=1.0)
        assert abs(res.closed_form) > 1e-3
        assert abs(res.closed_form - res.contour) < 1e-6 * abs(res.closed_form)


def test_residue_vanishing_psi_zero_both_ways():
    psi = AwaySupportedFunction(1, z_star=0.2, mu=(0,))
    res = pole_residue(2, 0, (1.0,), psi, d=1, h=1.0)
    assert res.closed_form == 0.0
    assert abs(res.contour) < 1e-10


def test_residue_parity_zero():
    # odd Upsilon (k=1), radially symmetric psi, even j: odd sphere integrand
    psi = TestFunction.from_monomial(2, (0, 0), 1.3, (1.0, 0.2, -0.4))
    for j in (0, 2):
        res = pole_residue(j, 1, (1.0, 1.0), psi, d=2, h=1.0)
        assert res.closed_form == 0.0
        assert abs(res.contour) < 1e-10


def test_residue_gaussian_bump_cross_validation():
    # d=2, k=0, j=1: agreement of the two evaluations (here both vanish by
    # parity, and the contour confirms it independently)
    psi = TestFunction.from_monomial(2, (0, 0), 2.0, (1.0,)) + TestFunction.from_monomial(
        2, (1, 0), 2.0, (0.6,)
    )
    res = pole_residue(1, 0, (1.0,), psi, d=2, h=1.0)
    assert abs(res.closed_form - res.contour) < 1e-6 * max(1.0, abs(res.closed_form))


def test_residue_independent_of_regularization_depth():
    d, k, j = 1, 0, 2
    psi = _coupled_psi(d, seed=12)
    lam_j = pole_location(j, k, 1.0)
    eps = 1e-2
    vals = []
    for n_reg in (j + 2, j + 6):
        acc = 0.0 + 0.0j
        m_nodes = 24
        for m in range(m_nodes):
            th = 2 * math.pi * m / m_nodes
            unit = complex(math.cos(th), math.sin(th))
            acc += pairing(d, 1.0, k, (1.0,), psi, lam_j + eps * unit, n_reg) * unit
        vals.append(acc * eps / m_nodes)
    assert abs(vals[0] - vals[1]) < 1e-9 * max(1.0, abs(vals[0]))


def test_pole_order_fits_one():
    # max |pairing| on circles of shrinking radius grows like 1/radius
    d, k, j = 1, 0, 2
    psi = _coupled_psi(d, seed=13)
    lam_j = pole_location(j, k, 1.0)
    radii = [0.02 / 2**i for i in range(4)]
    maxima = []
    for eps in radii:
        vals = []
        for m in range(12):
            th = 2 * math.pi * m / 12 + 0.1
            lam = lam_j + eps * complex(math.cos(th), math.sin(th))
            vals.append(abs(pairing(d, 1.0, k, (1.0,), psi, lam, j + 3)))
        maxima.append(max(vals))
    slope = np.polyfit(np.log(radii), np.log(maxima), 1)[0]
    assert abs(slope - (-1.0)) < 0.05


# ---------------------------------------------------------------------------
# Jordan vectors
# ---------------------------------------------------------------------------


def _q_dagger(psi, h, lam0, shift):
    return psi.apply_model_transpose(h, lam0, 0.0) + psi * shift


@pytest.mark.parametrize("d,k,j", [(1, 0, 2), (1, 1, 1), (2, 1, 1), (2, 2, 2), (2, 0, 2)])
def test_jordan_weak_nilpotency_and_nondegeneracy(d, k, j):
    h = 1.0
    lam0 = pole_location(j, k, h)
    op = ModelOperator(d=d, h=h, lam=lam0)
    ups = tuple(1.0 for _ in range(homogeneous_dimension(d, k)))
    rep = jordan_vector(j, k, ups, op)
    shift = h * (k + j + d) / 2.0
    first_powers = []
    for trial in range(5):
        psi = _coupled_psi(d, seed=100 + trial)
        qpsi = _q_dagger(psi, h, lam0, shift)
        qqpsi = _q_dagger(qpsi, h, lam0, shift)
        second = abs(pair_distribution(rep, qqpsi))
        assert second < 1e-6 * ck_norm(psi, j + 2)
        first_powers.append(abs(pair_distribution(rep, qpsi)))
    assert max(first_powers) > 1e-3


def test_jordan_restriction_agreement_away_from_pole():
    # against psi supported away from N, A_j + e_j pairs exactly like the
    # homogeneous family at the crossing value
    d, k, j = 1, 0, 2
    op = ModelOperator(d=d, h=1.0, lam=pole_location(j, k, 1.0))
    rep = jordan_vector(j, k, (1.0,), op)
    psi = AwaySupportedFunction(d, z_star=0.15, mu=(0,))
    got = pair_distribution(rep, psi)
    direct = _direct_pairing(d, 1.0, k, (1.0,), pole_location(j, k, 1.0), psi)
    assert abs(got - direct) < 1e-8 * max(1.0, abs(direct))


def test_jordan_rejects_odd_parity_and_dead_upsilon():
    op = ModelOperator(d=1, h=1.0, lam=0.5)
    with pytest.raises(ValidationError):
        jordan_vector(1, 0, (1.0,), op)  # odd gap
    # upsilon with identically vanishing residue coupling: k=2, Upsilon = u1*u2
    op2 = ModelOperator(d=2, h=1.0, lam=-1.0)
    ups = tuple(
        1.0 if mu == (1, 1) else 0.0 for mu in multi_indices(2, 2)
    )
    with pytest.raises(ValidationError):
        jordan_vector(0, 2, ups, op2)


def test_jordan_flag_agreement_with_weak_structure():
    # closed-form jordan_index flags match the weak-pairing structure for
    # d in {1,2}, k in {0,1,2}
    for d in (1, 2):
        for k in (0, 1, 2):
            j = k + 2
            s = -(j + k + d) / 2.0
            op0 = ModelOperator(d=d, h=1.0, lam=0.0)
            roots = indicial_roots(op0, s=s, n_max=k)
            r_minus = next(r for r in roots if r.sign == -1 and r.n == k)
            assert r_minus.jordan_index == 2
            lam0 = r_minus.lambda_at(s)
            assert lam0 == pytest.approx(pole_location(j, k, 1.0))
            op = ModelOperator(d=d, h=1.0, lam=lam0)
            ups = tuple(1.0 for _ in range(homogeneous_dimension(d, k)))
            rep = jordan_vector(j, k, ups, op)
            shift = 1.0 * (k + j + d) / 2.0
            psi = _coupled_psi(d, seed=50 + 10 * d + k)
            qpsi = _q_dagger(psi, 1.0, lam0, shift)
            qqpsi = _q_dagger(qpsi, 1.0, lam0, shift)
            assert abs(pair_distribution(rep, qqpsi)) < 1e-6 * ck_norm(psi, j + 2)

            # odd-gap configuration: flag 1 and no Jordan vector
            s_odd = -(2 * k + 1 + d) / 2.0
            roots_odd = indicial_roots(op0, s=s_odd, n_max=k)
            r_odd = next(r for r in roots_odd if r.sign == -1 and r.n == k)
            assert r_odd.jordan_index == 1
            with pytest.raises(ValidationError):
                jordan_vector(k + 1, k, ups, ModelOperator(d=d, h=1.0, lam=0.5))


# ---------------------------------------------------------------------------
# panel quadrature
# ---------------------------------------------------------------------------


def test_quad_matches_closed_form_complex_power():
    a, b, c = 0.25, math.sin(math.pi / 3.0), -1.7 + 0.9j
    got = panel_quad(lambda x: x ** (c - 1.0), a, b)
    assert abs(got - (b**c - a**c) / c) < 1e-12


def test_quad_checks_each_row_and_names_the_unresolved_one():
    def rows(x):
        return np.stack([x**2, np.abs(x - 0.3) ** 0.5, np.cos(x)])

    with pytest.raises(ToleranceError, match=r"integrand for b: error estimate"):
        panel_quad(rows, 0.0, 1.0, rows=("a", "b", "c"))
    got = panel_quad(lambda x: np.stack([x**2, np.cos(x)]), 0.0, 1.0)
    assert got == pytest.approx([1.0 / 3.0, math.sin(1.0)], abs=1e-14)


def test_quad_raises_with_error_estimate_on_unresolved_integrand():
    with pytest.raises(ToleranceError, match=r"error estimate \d\.\d+e-\d+"):
        panel_quad(lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_quad_raises_on_a_non_finite_error_estimate(bad):
    # err > tol is False for a NaN error estimate, which used to pass
    with pytest.raises(ToleranceError, match=r"error estimate (nan|inf)"):
        panel_quad(lambda x: np.where(x > 0.5, bad, x), 0.0, 1.0)
