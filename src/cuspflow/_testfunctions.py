"""Smooth test functions on S^d with exact derivatives and exact pole jets.

The family is built from terms

    rho^q * u^mu * p(z0) * exp(-c * (1 - z0^2)),

where z0 = cos(phi), rho = sin(phi), u in S^{d-1}, p is a polynomial, c >= 0,
and q >= |mu| with q - |mu| even (so each term is a polynomial in the ambient
coordinates (z0, rho*u) times a radial Gaussian factor, hence smooth on S^d).

The family is closed under multiplication by cos(phi) and under the vector
field sin(phi) d/dphi, so the model operator and its transpose act *exactly*
within the family.  The volume jets at the pole N are read off closed-form
radial series in t = rho^2: with z0 = (1 - t)^{1/2}, a term's p(z0) J e^{-ct}
is a sum of binomial series (1 - t)^{k/2 - 1/2} times the exponential series,
so no numerical differentiation happens anywhere.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._jets import FLOAT_ORDER_MAX, RadialSeries, float_order_error

__all__ = ["TestFunction", "random_test_function"]


def _trim(p, least: int = 0) -> np.ndarray:
    """``p`` as a complex array with its trailing zeros dropped, down to ``least``
    coefficients: np.trim_zeros(p, "b") at 0, numpy.polynomial's trimseq at 1.
    The polynomials here are short and seldom end in zeros, so a scan back from
    the end costs about a third of np.flatnonzero over the whole array."""
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    n = p.size
    while n > least and p[n - 1] == 0:
        n -= 1
    return p[:n]


# The coefficient algebra below is numpy.polynomial's, bit for bit, on plain
# arrays: a product is np.convolve trimmed to one coefficient at least, a sum
# adds the shorter series in place into a copy of the longer.  The argument
# handling of polyadd and polymul cost more than their arithmetic.

def _mul(a, b) -> np.ndarray:
    """npoly.polymul(a, b) for trimmed complex ``a`` and ``b``."""
    return _trim(np.convolve(a, b), 1)


def _add(a, b) -> np.ndarray:
    """npoly.polyadd(a, b) for trimmed complex ``a`` and ``b``."""
    long, short = (a, b) if a.size > b.size else (b, a)
    out = long.copy()
    out[:short.size] += short
    return _trim(out, 1)


def _canonical(terms):
    merged = {}
    for q, mu, c, p in terms:
        p, key = _trim(p), (q, tuple(mu), float(c))
        if p.size:
            merged[key] = _add(merged[key], p) if key in merged else p
    return [(q, mu, c, kept) for (q, mu, c), p in merged.items() if (kept := _trim(p)).size]


@functools.lru_cache(maxsize=1024)
def _binomial_series(k: int, order: int) -> np.ndarray:
    """(1 - t)^{k/2 - 1/2} to ``order``, the series of z0^k J (read-only: shared)."""
    coeffs = np.array(RadialSeries.binomial(k / 2 - 0.5, order).coeffs)
    coeffs.flags.writeable = False
    return coeffs


_Z0 = np.array([0.0, 1.0], complex)            # cos(phi)
_SIN_SQ = np.array([-1.0, 0.0, 1.0], complex)  # -sin(phi)^2 = z0^2 - 1


class TestFunction:
    """A finite sum of smooth terms, closed under the operator algebra; pairings
    read its volume jets and radial profile coefficients, exact up to rounding."""

    __test__ = False  # not a pytest collection target

    def __init__(self, terms, d: int):
        self.d = int(d)
        self.terms = _canonical(terms)
        self._degrees = [(sum(mu), (q - sum(mu)) // 2) for q, mu, _, _ in self.terms]  # |mu|, e
        self._series = {}  # term index -> radial coefficients

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_monomial(d: int, mu, c: float = 0.0, p=(1.0,)):
        mu = tuple(mu)
        return TestFunction([(sum(mu), mu, c, np.asarray(p, dtype=complex))], d)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "TestFunction") -> "TestFunction":
        return TestFunction(self.terms + other.terms, self.d)

    def __mul__(self, scalar) -> "TestFunction":
        return TestFunction(
            [(q, mu, c, np.asarray(p) * scalar) for q, mu, c, p in self.terms], self.d
        )

    __rmul__ = __mul__

    # -- exact operator algebra ----------------------------------------------

    def mult_z0(self) -> "TestFunction":
        """Multiply by cos(phi)."""
        return TestFunction([(q, mu, c, _mul(_Z0, p)) for q, mu, c, p in self.terms], self.d)

    def x_gr(self) -> "TestFunction":
        """Apply sin(phi) d/dphi exactly."""
        out = []
        for q, mu, c, p in self.terms:
            # npoly.polyder(p): a constant's derivative is its coefficient times 0
            dp = p[1:] * np.arange(1, p.size) if p.size > 1 else p[:1] * 0
            newp = _add(_mul(np.array([0.0, q], complex), p), _mul(_SIN_SQ, dp))
            if c != 0.0:
                newp = _add(newp, _mul(np.array([0.0, -2.0 * c, 0.0, 2.0 * c], complex), p))
            out.append((q, mu, c, newp))
        return TestFunction(out, self.d)

    def transpose_parts(self, h) -> tuple:
        """The lam-free terms of :meth:`apply_model_transpose`, -h x_gr() and mult_z0()."""
        return self.x_gr() * (-h), self.mult_z0()

    def apply_model_transpose(self, h, lam, A=0.0, parts=None) -> "TestFunction":
        """Apply the volume-pairing transpose  -P_{-lam} + h A cos(phi); ``parts``
        is ``transpose_parts(h)``, built once for many lam."""
        drift, z0 = self.transpose_parts(h) if parts is None else parts
        return drift + z0 * (lam - h * self.d / 2.0 + h * A)

    # -- evaluation ------------------------------------------------------------

    def _radial_factors(self, phi):
        """Each term's mu and its factor rho^q p(z0) exp(-c (1 - z0^2)) at phi;
        p(z0) by Horner's rule in npoly.polyval's order."""
        phi = np.asarray(phi, dtype=float)
        z0 = np.cos(phi)
        rho = np.sin(phi)
        rho_sq, z0_z = 1.0 - z0**2, z0 + 0j  # complex z0: Horner's products need no cast
        for q, mu, c, p in self.terms:
            val = p[-1] + z0_z * 0
            for k in range(2, p.size + 1):
                val = p[-k] + val * z0_z
            yield mu, val * rho**q * np.exp(-c * rho_sq)

    def angular_profile(self, phi, moment):
        """Integral over u in S^{d-1} of Upsilon(u) psi(phi, u), exactly: a term
        gives a_mu rho^q p(z0) exp(-c (1 - z0^2)), where a_mu = moment(mu)
        is the moment of Upsilon against u^mu."""
        acc = np.zeros(np.shape(phi), dtype=complex)
        for mu, radial in self._radial_factors(phi):
            acc = acc + moment(mu) * radial
        return acc

    # -- exact jets at the pole N ----------------------------------------------

    def _radial_series(self, index: int, order: int) -> tuple:
        """Coefficients of p(sqrt(1-t)) e^{-ct} J of term ``index``, to at
        least ``order``: sum_k p_k (1-t)^{k/2 - 1/2}, times e^{-ct} by one
        convolution.  Coefficient r depends only on coefficients <= r, so one
        long series serves every shorter request; it is rebuilt, at twice its
        order or more, only when too short.
        """
        coeffs = self._series.get(index, ())
        if len(coeffs) <= order:
            order = max(order, 2 * len(coeffs))
            _, _, c, p = self.terms[index]
            rest = sum(pk * _binomial_series(k, order) for k, pk in enumerate(p))
            if c != 0.0:
                exp = np.cumprod(np.r_[1.0, -c / np.arange(1, order + 1)])
                rest = np.convolve(rest, exp)[: order + 1]
            coeffs = self._series[index] = tuple(rest.tolist())
        return coeffs

    def volume_jet(self, nu):
        """B_nu[psi] = d^nu[(1-rho^2)^{-1/2} psi](0) in the chart
        x = sin(phi) u.  Exact up to float rounding; an order |nu| past
        ``FLOAT_ORDER_MAX`` raises ValidationError."""
        nu = tuple(nu)
        if sum(nu) > FLOAT_ORDER_MAX:
            raise float_order_error(sum(nu))
        total = 0.0 + 0.0j
        nfact = 1.0
        for a in nu:
            nfact *= float(math.factorial(a))
        for index, (q, mu, c, p) in enumerate(self.terms):
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
            g_m = self._radial_series(index, rest_order)[rest_order]
            mult = math.factorial(m)
            for v in w:
                mult //= math.factorial(v)
            total += g_m * mult * nfact
        return total

    def profile_coefficient(self, orders, weight: np.ndarray, moment) -> np.ndarray:
        """Coefficient of rho^j, for each order j of the int array ``orders``,
        in the integral over u in S^{d-1} of Upsilon(u) (g J psi)(rho u), with
        g(t) = sum_i weight[i] t^i.

        A term is x^mu t^e rest(t), e = (q - |mu|)/2, rest = p(sqrt(1-t))
        e^{-ct}.  Order j needs j - |mu| even and m = (j - |mu|)/2 >= e, and
        is a_mu = moment(mu) (|u| = 1 on the sphere) times coefficient
        r = m - e of g * (J rest).  A term gives every order of the block at
        once, as one product of the Toeplitz matrix of its rest series
        (rest_{r-i}, and 0 past i = r) with ``weight``.  ``weight`` has shape
        (W,) or (W, L), one series per column, to order max(orders) // 2 or
        more; the block has shape (len(orders),) or (len(orders), L).
        """
        orders = np.asarray(orders)
        block = np.zeros(orders.shape + np.shape(weight)[1:], complex)
        degrees = np.reshape(self._degrees, (-1, 2))  # rows term: |mu|, e
        m, odd = np.divmod(orders - degrees[:, :1], 2)
        r = m - degrees[:, 1:]  # rows term, columns order
        for index, (r_term, keep) in enumerate(zip(r, (odd == 0) & (r >= 0))):
            rows = np.flatnonzero(keep)
            if not rows.size or (c_mu := moment(self.terms[index][1])) == 0.0:
                continue
            top = int(r_term[rows].max())
            rest = np.array(self._radial_series(index, top)[: top + 1])
            lag = r_term[rows, None] - np.arange(top + 1)
            block[rows] += c_mu * (np.where(lag >= 0, rest[lag], 0.0) @ weight[: top + 1])
        return block

    def pair_volume_dict(self, jet_dict: dict):
        """Pair a volume-jet functional {mu: coeff} against this function."""
        return sum(c * self.volume_jet(mu) for mu, c in jet_dict.items())

def random_test_function(d: int, rng: np.random.Generator, n_terms: int = 3,
                         max_deg: int = 2) -> TestFunction:
    """A random member of the smooth family (reproducible via rng)."""
    terms = []
    for _ in range(n_terms):
        mu = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(d))
        while sum(mu) > max_deg:
            mu = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(d))
        c = float(rng.uniform(0.3, 2.0))
        p = rng.normal(size=int(rng.integers(1, 4)))
        extra = int(rng.integers(0, 2))
        terms.append((sum(mu) + 2 * extra, mu, c, np.asarray(p, dtype=complex)))
    return TestFunction(terms, d)
