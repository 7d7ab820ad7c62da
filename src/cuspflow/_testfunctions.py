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

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._jets import FLOAT_ORDER_MAX, RadialSeries, float_order_error

__all__ = ["TestFunction", "random_test_function"]


def _trim(p) -> np.ndarray:
    """np.trim_zeros(p, "b") of ``p`` as a complex array, at about 1/20 of its cost."""
    nonzero = np.flatnonzero(p := np.atleast_1d(np.asarray(p, dtype=complex)))
    return p[: nonzero[-1] + 1 if nonzero.size else 0]


def _canonical(terms):
    merged = {}
    for q, mu, c, p in terms:
        p, key = _trim(p), (q, tuple(mu), float(c))
        if p.size:
            merged[key] = npoly.polyadd(merged[key], p) if key in merged else p
    return [(q, mu, c, kept) for (q, mu, c), p in merged.items() if (kept := _trim(p)).size]


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
        out = []
        for q, mu, c, p in self.terms:
            out.append((q, mu, c, npoly.polymul([0.0, 1.0], p)))
        return TestFunction(out, self.d)

    def x_gr(self) -> "TestFunction":
        """Apply sin(phi) d/dphi exactly."""
        out = []
        for q, mu, c, p in self.terms:
            newp = npoly.polymul([0.0, float(q)], p)
            newp = npoly.polyadd(newp, npoly.polymul([-1.0, 0.0, 1.0], npoly.polyder(p)))
            if c != 0.0:
                newp = npoly.polyadd(
                    newp, npoly.polymul([0.0, -2.0 * c, 0.0, 2.0 * c], p)
                )
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
        """Each term's mu and its factor rho^q p(z0) exp(-c (1 - z0^2)) at phi."""
        phi = np.asarray(phi, dtype=float)
        z0 = np.cos(phi)
        rho = np.sin(phi)
        for q, mu, c, p in self.terms:
            yield mu, npoly.polyval(z0, p) * rho**q * np.exp(-c * (1.0 - z0**2))

    def value(self, phi, u):
        """Evaluate at angles phi (array) and directions u (shape (..., d))."""
        u = np.asarray(u, dtype=float)
        acc = np.zeros(np.broadcast(np.asarray(phi), u[..., 0]).shape, dtype=complex)
        for mu, radial in self._radial_factors(phi):
            upart = np.ones_like(acc, dtype=float)
            for i, m in enumerate(mu):
                if m:
                    upart = upart * u[..., i] ** m
            acc = acc + radial * upart
        return acc

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
            rest = sum(pk * np.array(RadialSeries.binomial(k / 2 - 0.5, order).coeffs)
                       for k, pk in enumerate(p))
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

    def profile_coefficient(self, j: int, weight: np.ndarray, moment):
        """Coefficient of rho^j in the integral over u in S^{d-1} of
        Upsilon(u) (g J psi)(rho u), with g(t) = sum_i weight[i] t^i.

        A term is x^mu t^e rest(t), e = (q - |mu|)/2, rest = p(sqrt(1-t))
        e^{-ct}.  Order j needs j - |mu| even and m = (j - |mu|)/2 >= e, and
        is a_mu = moment(mu) (|u| = 1 on the sphere) times coefficient m - e
        of g * (J rest), one np.dot.  ``weight`` is an array of shape (order,)
        or (order, L), one series per column; the coefficient is then one
        value per column.
        """
        acc = 0.0 + 0.0j
        for index, (deg, e) in enumerate(self._degrees):
            r = (j - deg) // 2 - e
            if (j - deg) % 2 or r < 0 or (c_mu := moment(self.terms[index][1])) == 0.0:
                continue
            rest = self._radial_series(index, r)
            acc += c_mu * np.dot(rest[r::-1], weight[: r + 1])
        return acc

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
