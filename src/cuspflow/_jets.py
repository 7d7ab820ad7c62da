"""Jet-space algebra at the regular pole of the transverse sphere.

The chart used throughout the package maps a neighbourhood of the pole
``N`` of S^d to a ball in R^d via  x = sin(phi) * u  (u in S^{d-1}), so
rho = |x| = sin(phi) and cos(phi) = sqrt(1 - rho^2) on the upper hemisphere.
The sphere volume element is  dVol = (1 - rho^2)^{-1/2} dx.

Two families of order-mu functionals at x = 0 appear:

* the *flat jet*      D_mu[F]  = d^mu F(0)        on chart functions F,
* the *volume jet*    B_mu[psi] = D_mu[J psi]     with J = (1-rho^2)^{-1/2},

and the Dirac-type eigenfunctionals are weighted volume jets

    delta_mu(lambda)[psi] = D_mu[ w^(lambda/h - |mu| - d/2) * J * psi ],

where  w = 2 / (1 + sqrt(1 - rho^2))  is the pole-conjugation factor
(equal to 2*tan(phi/2)/sin(phi)).

Every radial factor involved has a closed form in t = rho^2: J and
cos(phi) are binomial series (1 - t)^a, and every power w^sigma is the
generalized binomial series of the Catalan generating function.  This module
provides those truncated series (exact Fraction coefficients from a Fraction
exponent, else floats, complex or arrays), the one composition rule
D_mu[g(t) F] of the jet functionals with a radial series, the finite
triangular matrix of the transposed model operator on volume jets built from
that rule, and the unit-triangular change of basis between volume jets and
the Dirac eigenfunctionals.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._sphere import multi_indices, multi_indices_upto
from .errors import ValidationError

__all__ = [
    "RadialSeries",
    "radial_multiply",
    "transpose_matrix_on_volume_jets",
    "delta_in_volume_basis",
    "volume_dict_to_delta_basis",
]

#: Largest n with n! a finite float (171! > 1.8e308): the highest jet order
#: of float arithmetic.  Exact (Fraction or int) arithmetic has no limit.
FLOAT_ORDER_MAX = 170


def float_order_error(order: int) -> ValidationError:
    return ValidationError(f"jet order {order} is past {FLOAT_ORDER_MAX}, the largest whose "
                           "factorial a float holds; only exact (Fraction) arithmetic reaches it")


# ---------------------------------------------------------------------------
# Truncated power series in t = rho^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialSeries:
    """Truncated power series sum_m c_m t^m in the radial variable t = rho^2.

    The coefficients are whatever the constructor computed them in: Fractions
    from a Fraction exponent, else floats, complex or arrays over an array
    exponent.  ``order`` is the highest retained power of t.
    """

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def binomial(a, order: int) -> "RadialSeries":
        """(1 - t)^a: c_0 = 1, c_m = c_{m-1} (m - 1 - a)/m, in the arithmetic
        of ``a`` (a Fraction gives exact coefficients)."""
        c = [a * 0 + 1]
        for m in range(1, order + 1):
            c.append(c[-1] * (m - 1 - a) / m)
        return RadialSeries(tuple(c))

    @staticmethod
    def power(sigma, order: int) -> "RadialSeries":
        """w^sigma for the pole-conjugation factor w = 2/(1 + sqrt(1-t)).

        The generalized binomial series (Graham, Knuth & Patashnik, Concrete
        Mathematics, eq. 5.60): c_0 = 1 and, for n >= 1,

            c_n = sigma (sigma+n+1) (sigma+n+2) ... (sigma+2n-1) / (n! 4^n),

        in the arithmetic of ``sigma``: a Fraction gives exact coefficients,
        an int one correctly rounded integer quotient each (sigma = 1 gives
        w itself, Catalan(n)/4^n), and an array each c_n over its entries.
        No factor is divided out, so a negative integer sigma is exact too.
        In floats n! 4^n leaves the float range past order 133 (ValidationError).
        """
        shifted = [sigma + i for i in range(2 * order)]
        try:
            return RadialSeries((sigma * 0 + 1,) + tuple(
                functools.reduce(operator.mul, shifted[n + 1:2 * n], sigma)
                / (math.factorial(n) * 4**n) for n in range(1, order + 1)))
        except OverflowError:
            raise ValidationError(f"w^sigma to order {order} needs n! 4^n past the float range; "
                                  "a Fraction sigma is exact at any order") from None


# ---------------------------------------------------------------------------
# Jet-functional composition rules
# ---------------------------------------------------------------------------
# A functional is stored as a dict {mu: coeff} meaning  F |-> sum c_mu D_mu[F].


def _falling(mu: tuple[int, ...], nu: tuple[int, ...]):
    """mu! / nu! for nu <= mu componentwise (integer)."""
    out = 1
    for a, b in zip(mu, nu):
        out *= math.factorial(a) // math.factorial(b)
    return out


def _multinomial(w: tuple[int, ...]):
    """|w|! / w! (integer)."""
    out = math.factorial(sum(w))
    for a in w:
        out //= math.factorial(a)
    return out


def radial_multiply(jet: dict, series: RadialSeries) -> dict:
    """Functional F |-> L[g(t) F] for a radial series g.

    Rule:  D_mu[t^m F] = sum_{|w|=m, 2w<=mu} (m!/w!) (mu!/(mu-2w)!) D_{mu-2w}[F].
    Past ``FLOAT_ORDER_MAX`` only exact (Fraction or int) values are accepted.
    """
    out: dict = {}
    for mu, c in jet.items():
        d = len(mu)
        if sum(mu) > FLOAT_ORDER_MAX and not isinstance(c * series.coeffs[0], (int, Fraction)):
            raise float_order_error(sum(mu))
        max_m = min(series.order, sum(mu) // 2)
        for m in range(max_m + 1):
            g = series.coeffs[m]
            if g == 0:
                continue
            for w in multi_indices(d, m):
                nu = tuple(a - 2 * b for a, b in zip(mu, w))
                if any(v < 0 for v in nu):
                    continue
                coeff = c * g * _multinomial(w) * _falling(mu, nu)
                out[nu] = out.get(nu, coeff * 0) + coeff
    return out


# ---------------------------------------------------------------------------
# Transposed model operator on volume jets
# ---------------------------------------------------------------------------


def transpose_matrix_on_volume_jets(d: int, h, lam, A, K: int):
    """Matrix of the distributional model-operator action on volume jets.

    With P f = h sin(phi) d_phi f + (lambda + h d/2 + h A) cos(phi) f and the
    transpose taken against the sphere volume pairing, the action on the
    functionals B_mu (|mu| <= K) is upper triangular in graded-ascending
    order with parity-preserving couplings: column mu is the functional
    F |-> D_mu[g F] of the radial series

        g_m = (lambda + hA) s_m - h (a_m + s_m (|mu| - 2m + d/2)),

    where s_m are the coefficients of sqrt(1-t) and a_m those of
    -t (1-t)^{-1/2}.  Diagonal entries: lambda + hA - h(|mu| + d/2).

    Returns (basis, M) with basis = multi_indices_upto(d, K) and M a complex
    array.
    """
    order = K // 2
    s = RadialSeries.binomial(0.5, order).coeffs
    inv = RadialSeries.binomial(-0.5, order).coeffs
    # a(t) = -t (1-t)^{-1/2}:  a_0 = 0, a_m = -inv_{m-1}
    a = [0.0] + [-inv[m - 1] for m in range(1, order + 1)]

    basis = multi_indices_upto(d, K)
    index = {mu: i for i, mu in enumerate(basis)}
    M = np.zeros((len(basis),) * 2, dtype=complex)
    for j, mu in enumerate(basis):
        g = RadialSeries(tuple(
            (lam + h * A) * s[m] - h * (a[m] + s[m] * (sum(mu) - 2 * m + d * 0.5))
            for m in range(min(order, sum(mu) // 2) + 1)
        ))
        for nu, val in radial_multiply({mu: 1}, g).items():
            M[index[nu], j] = val
    return basis, M


# ---------------------------------------------------------------------------
# Dirac eigenfunctionals in the volume-jet basis
# ---------------------------------------------------------------------------


def delta_in_volume_basis(d: int, h, lam, mu: tuple[int, ...]) -> dict:
    """The order-mu Dirac eigenfunctional as a volume-jet dict.

    delta_mu(lambda)[psi] = D_mu[w^sigma J psi] with sigma = lambda/h - |mu| - d/2,
    expanded as  sum_nu U[nu] B_nu  via the radial multiplication rule.
    """
    sigma = lam / h - sum(mu) - d / 2.0
    return radial_multiply({mu: 1.0 + 0.0j}, RadialSeries.power(sigma, sum(mu) // 2))


def volume_dict_to_delta_basis(d: int, h, lam, jet: dict) -> dict:
    """Express a volume-jet functional in the Dirac-eigenfunctional basis.

    The change of basis is unit triangular with respect to the graded order,
    so a descending-degree sweep inverts it exactly.
    """
    residual = dict(jet)
    out: dict = {}
    if not residual:
        return out
    for n in range(max(sum(mu) for mu in residual), -1, -1):
        for mu in [m for m in residual if sum(m) == n]:
            c = residual.pop(mu)
            if c == 0:
                continue
            out[mu] = out.get(mu, c * 0) + c
            expansion = delta_in_volume_basis(d, h, lam, mu)
            for nu, u in expansion.items():
                if nu == mu:
                    continue
                residual[nu] = residual.get(nu, u * 0) - c * u
    return out
