"""Meromorphic continuation of the homogeneous distribution family at a pole.

For a homogeneous polynomial Upsilon of degree k and the conjugating factor
T = 2 tan(phi/2) sin(phi) (vanishing quadratically at the pole N, equal to 4
at the opposite pole S), the family

    F(lambda) = T^{sigma(lambda)} * rho^k Upsilon(u),
    sigma(lambda) = -(k + d/2 + lambda/h),

solves  (P_lambda + lambda + h(k + d/2)) F = 0  pointwise away from N, is
locally integrable exactly for  k + 2 Re(lambda)/h < 0, and continues
meromorphically in lambda with simple poles at  lambda_j = h(j - k)/2,
j >= 0.  The continuation is computed by subtracting a Taylor polynomial of
the regular factor in the radial integral (equivalent to iterated integration
by parts); the subtracted terms integrate in closed form and carry the poles.
Its coefficients Phi_j(lambda) pair the sphere moments a_mu of Upsilon
(psi- and lambda-free) with the radial series of psi convolved with that of
w^sigma.  Both series come from closed forms in t = rho^2: the test
function's is a sum of binomial series (1 - t)^a times e^{-ct}, and w^sigma,
for w = 2/(1 + sqrt(1 - t)), is the generalized binomial series
(:meth:`RadialSeries.power <cuspflow._jets.RadialSeries.power>`).

:func:`pairings` evaluates the family for one (Upsilon, k) against several
test functions at an array of lambda, as a residue circle needs it, or its
finite part at a pole.  The lambda-only work is done once per call: w^sigma
over the sigma array, the pole and depth checks, the tail factors and the
lambda parts of both integrands.  Each test function adds its angular
profile and its Phi_j, a block of orders at a time, one value per lambda.
The radial and colatitude integrals over every (psi, lambda) row at once
are by :func:`quad`, eight equal Gauss-Legendre panels of 32 nodes, which
sums each row on its own, so a row is bitwise the same alone or in a batch.
Panels, because test functions are smooth but need not be analytic: on
away-supported bumps one 64-node rule misses by up to 5e-7 relative, the
panels by 1e-15.  Each row's error estimate is the difference from 24-node
panels; above 1e-12 + 1e-11 |integral| it raises.

Residues are finite combinations of volume jets at N, which is what couples
this family to the Dirac-jet branch and produces index-2 Jordan blocks at
equal-parity crossings.  Those generalized eigenvectors (finite part plus a
solvable jet correction) are constructed here as well, and
:func:`pair_distribution` pairs an eigendistribution with several test
functions, its south part by one :func:`pairings` call and its jet part
exactly.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._jets import (
    RadialSeries,
    delta_in_volume_basis,
    radial_multiply,
    volume_dict_to_delta_basis,
)
from ._sphere import (
    homogeneous_dimension,
    multi_indices,
    panel_nodes,
    sphere_monomial_integral,
)
from .errors import PoleError, ToleranceError, ValidationError
from .indicial import DistributionRep, ModelOperator

__all__ = [
    "ResiduePair",
    "pairing",
    "pairings",
    "pole_residue",
    "jordan_vector",
    "pair_distribution",
    "pole_location",
    "auto_regularization_depth",
]

_POLE_GUARD = 1e-8  # pole proximity in w = lambda/h units: |lambda - lambda_j| <= guard * h
_CUT_ANGLE = math.pi / 3.0  # matching split angle of the near/far integrals
_PANELS = 8  # equal Gauss-Legendre panels per integral
_ORDERS = (32, 24)  # nodes per panel: the rule, and the rule it is checked against
_QUAD_ABS, _QUAD_REL = 1e-12, 1e-11  # error bound: abs + rel * |integral|
_TAIL_BLOCK = 28  # tail orders per block past n_reg: terms fall ~4x an order to 1e-16


@functools.lru_cache(maxsize=16)
def _panel_rule(a: float, b: float):
    """Nodes of both panel orders on [a, b], then the weights of each order."""
    edges = np.linspace(a, b, _PANELS + 1)
    (x_hi, w_hi), (x_lo, w_lo) = (panel_nodes(edges, order) for order in _ORDERS)
    nodes = np.concatenate([x_hi, x_lo])
    for arr in (nodes, w_hi, w_lo):
        arr.flags.writeable = False  # shared by every call through the cache
    return nodes, w_hi, w_lo


def quad(fn, a: float, b: float, rows=None):
    """Integral of ``fn`` over [a, b] by fixed Gauss-Legendre panels, along
    the last axis: ``fn`` maps a 1-D array of nodes to values whose last axis
    runs over them, and is called once, on the nodes of both panel orders.

    The value is the higher-order rule, one per row (a scalar for a 1-D
    ``fn``); its difference from the lower-order rule is each row's error
    estimate, and an estimate above 1e-12 + 1e-11 |value|, or not finite,
    raises ToleranceError that states it and names the row (``rows[i]``, if given).
    Each row is summed on its own, by numpy's pairwise sum along the last
    axis, so its value does not depend on the other rows (a BLAS product's
    summation order can depend on the shape of the batch).
    """
    nodes, w_hi, w_lo = _panel_rule(a, b)
    vals = fn(nodes)
    w_hi, w_lo = w_hi.astype(vals.dtype), w_lo.astype(vals.dtype)  # no cast in the products
    value = (vals[..., : w_hi.size] * w_hi).sum(axis=-1)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite estimate raises below
        err = np.abs(value - (vals[..., w_hi.size:] * w_lo).sum(axis=-1))
    bad = np.flatnonzero(~(err <= _QUAD_ABS + _QUAD_REL * np.abs(value)))
    if bad.size:
        i = bad[0]
        row = "" if np.ndim(value) == 0 else f" for {f'row {i}' if rows is None else rows[i]}"
        raise ToleranceError(
            f"panel quadrature on [{a}, {b}] did not resolve the integrand{row}: "
            f"error estimate {err.flat[i]:.3e} for value {value.flat[i]:.6e}"
        )
    return value


def pole_location(j: int, k: int, h: float = 1.0) -> float:
    """The j-th pole of the continued family: lambda_j = h (j - k)/2."""
    return h * (j - k) / 2.0


def auto_regularization_depth(lam: complex, k: int, h: float) -> int:
    """Smallest safe Taylor-subtraction depth for the given lambda.

    Finiteness needs Re(lambda) < h (N - k)/2, i.e. N > 2 Re(lambda)/h + k;
    the depth is that minimum plus a margin of two orders.
    """
    return max(1, math.floor(2.0 * complex(lam).real / h + k) + 3)


@functools.lru_cache(maxsize=65536)
def _angular_moment(up: tuple, k: int, nu: tuple) -> float:
    """a_nu = integral over S^{d-1} of Upsilon(u) u^nu (closed form)."""
    d = len(nu)
    total = 0.0
    for c, mu in zip(up, multi_indices(d, k)):
        if c == 0:
            continue
        total += c * sphere_monomial_integral(tuple(a + b for a, b in zip(mu, nu)))
    return total


def _tail(terms: list, n_reg: int, lam) -> tuple:
    """Whether the radial Taylor tail ``terms[n_reg:]`` is settled, and its sum in
    order: settled once three consecutive nonzero terms fall below
    1e-16 (1 + |sum|), or when 64 orders are in and all are zero; parity zeros
    carry no information.  64 orders that do not converge raise ToleranceError."""
    near, run = 0j, 0
    try:
        for term in terms[n_reg:n_reg + 64]:
            near += term
            if term != 0.0:
                run = run + 1 if abs(term) < 1e-16 * (1.0 + abs(near)) else 0
                if run == 3:
                    return True, near
    except OverflowError as exc:  # abs() of a term past the float range
        raise ToleranceError(f"radial Taylor tail at lambda={lam} leaves the float range") from exc
    if len(terms) < n_reg + 64:
        return False, near
    if any(terms[n_reg:n_reg + 64]):
        raise ToleranceError("radial Taylor tail did not converge below 1e-16 "
                             f"within {n_reg + 64} orders at lambda={lam}")
    return True, near


def pairings(d: int, h: float, k: int, upsilon, psis, lams, n_regs,
             finite_part: bool = False) -> np.ndarray:
    """The continued pairings <F(lambda), psi>, one row per test function of
    ``psis`` and one column per lambda of ``lams``, with Taylor-subtraction
    depths ``n_regs`` (one per lambda, or one for all).

    Near integral (rho <= sin(cut)): Taylor subtraction of the regular factor
    to depth n_reg, closed-form continuation of the subtracted monomials.
    Phi_j sums a_mu (w^sigma J rest)_{m-e} over the terms of psi, a block of
    orders at a time, with w^sigma in closed form over the lambda array; the
    integral over u of Upsilon psi is exact.  Far integral: direct quadrature
    in the colatitude over [cut, pi] in the everywhere-regular form
    T^sigma sin(phi)^{k+d-1}.  A lambda at a pole, too deep for its n_reg, or
    whose tail or integral is unresolved raises the typed error that names
    it; with ``finite_part``, a lambda at a pole lambda_j gives the 0th
    Laurent coefficient there.  The lambda-only work is done once per call;
    each test function adds its own Phi_j and angular profile, and its row
    is bitwise the same as when it is paired alone.

    ``upsilon`` holds the coefficients of Upsilon over the degree-k monomials
    (graded-lexicographic order).  Each psi has profile_coefficient(orders,
    weight, moment) and angular_profile(phi, moment), as TestFunction has
    them: ``orders`` is an int array, the weight an (order, L) array with one
    column per lambda, and profile_coefficient is linear in it and returns a
    (len(orders), L) block.
    """
    if k < 0:
        raise ValidationError(f"need k >= 0, got {k}")
    dim = homogeneous_dimension(d, k)
    if len(upsilon) != dim:
        raise ValidationError(
            f"upsilon has {len(upsilon)} coefficients, need {dim} "
            f"(degree-{k} monomials in {d} variables)"
        )
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    n_regs = np.full(lams.shape, n_regs, dtype=int)
    c_exp = -2.0 * lams / h - k  # radial exponent offset: integrand rho^{c-1}...
    # validity: the subtracted remainder integrates iff Re(c) + n_reg > 0
    if np.any(shallow := ~(c_exp.real + n_regs > 0)):
        i = int(np.argmax(shallow))
        raise ValidationError(
            f"regularization depth n_reg={int(n_regs[i])} too small for "
            f"lambda={complex(lams[i])} (need Re(lambda) < h (n_reg - k)/2); increase n_reg")
    # pole proximity, in w = lambda/h units: lambda_j - lambda = (h/2) (c + j)
    n_max = int(n_regs.max())
    orders = np.arange(n_max)  # rows lambda, columns j
    subtracted, x = orders < n_regs[:, None], c_exp[:, None] + orders
    pole = subtracted & (np.abs(x) <= 2.0 * _POLE_GUARD)
    if np.any(pole) and not finite_part:
        i, j = (int(v[0]) for v in np.nonzero(pole))
        raise PoleError(f"lambda={complex(lams[i])} is within {_POLE_GUARD}*h of the pole "
                        f"lambda_{j} = {pole_location(j, k, h)}", j, k)

    sigma = -(k + d / 2.0 + lams / h)
    moment = functools.partial(_angular_moment, tuple(upsilon), k)
    rho_c = math.sin(_CUT_ANGLE)
    rho_s = 0.25  # series/quadrature split of the near integral

    # Taylor-subtracted remainder on [0, rho_s] by the tail series: the
    # radial profile Phi(rho) is analytic with radius 1, so extra exact
    # coefficients converge geometrically and no cancellation-prone
    # subtraction is ever evaluated at small rho.  The blocks of orders are
    # the same for every psi: Phi_j reads w^sigma to order m - e <= j // 2,
    # and past n_reg a tail term is Phi_j rho_s^{c+j}/(c+j).
    j_cap = n_max + 64  # a tail not converged by order n_reg + 64 raises
    edges = [0, *range(n_max + _TAIL_BLOCK, j_cap, _TAIL_BLOCK), j_cap]
    blocks = []  # (orders, w^sigma to the last one, tail factors), made when first read

    def block(b: int):
        if b == len(blocks):
            js = np.arange(edges[b], edges[b + 1])
            den = np.where(js[:, None] < n_regs, 1.0, c_exp + js[:, None])  # tail orders only
            blocks.append((js, np.array(RadialSeries.power(sigma, int(js[-1]) // 2).coeffs),
                           rho_s ** c_exp * (rho_s ** js)[:, None] / den))
        return blocks[b]

    tails = np.empty((len(psis), lams.size), complex)
    sub = np.empty((len(psis), lams.size, n_max), complex)  # the first n_reg Phi_j, j last
    for p, psi in enumerate(psis):
        terms, done, b = [[] for _ in lams], [False] * lams.size, 0
        while not all(done):
            js, weight, factor = block(b)
            phi_j = psi.profile_coefficient(js, weight, moment)
            if b == 0:
                sub[p] = np.where(subtracted, phi_j[:n_max].T, 0.0)
            for row_terms, col in zip(terms, (phi_j * factor).T.tolist()):
                row_terms.extend(col)
            for i, n_reg in enumerate(n_regs.tolist()):
                if not done[i]:
                    done[i], tails[p, i] = _tail(terms[i], n_reg, lams[i])
            b += 1

    def angular(phi: np.ndarray) -> np.ndarray:  # (psi, 1, node)
        return np.array([psi.angular_profile(phi, moment) for psi in psis])[:, None]

    def near_integrand(rho: np.ndarray) -> np.ndarray:
        # Phi(rho) = integral of Upsilon(u) * (w^sigma J psi)(rho u) du,
        # less its first n_reg Taylor terms
        root = np.sqrt(1.0 - rho * rho)
        # the real node factors as complex arrays: a complex product casts a real
        # operand first, at several times the cost of the product itself
        log_w, log_rho, rho_z = np.log(2.0 / (1.0 + root)) + 0j, np.log(rho) + 0j, rho + 0j
        w_sigma = np.exp(np.multiply.outer(sigma, log_w))
        rho_c1 = np.exp(np.multiply.outer(c_exp - 1.0, log_rho))
        # the subtracted Taylor polynomial by Horner's rule in place, rounding as
        # np.polyval does
        taylor = np.zeros(sub.shape[:-1] + rho.shape, complex)
        for j in range(n_max - 1, -1, -1):
            taylor *= rho_z
            taylor += sub[..., j:j + 1]
        out = angular(np.arcsin(rho)) / root * w_sigma
        out -= taylor
        out *= rho_c1
        return out

    labels = [f"lambda={lam}" + (f" of test function {p}" if len(psis) > 1 else "")
              for p in range(len(psis)) for lam in lams.tolist()]
    near = tails + quad(near_integrand, rho_s, rho_c, labels)
    # closed-form continuation of the subtracted monomials, summed over j along the
    # last axis, each row on its own as in quad; at a pole, x = c + j = 0,
    # the 0th Laurent coefficient of Phi_j rho_c^x / x is Phi_j ln(rho_c) - (h/2) Phi_j',
    # and d(w^sigma)/d(lambda) = -(w^sigma ln w)/h, ln w = sum_n C(2n, n) (t/4)^n / 2n
    near += (sub * np.where(pole, math.log(rho_c), rho_c**x / np.where(pole, 1.0, x))).sum(-1)
    for i, j in zip(*np.nonzero(pole)):  # with finite_part only
        top = j // 2 + 1
        log_w = [0.0] + [math.comb(2 * n, n) / (2 * n * 4.0**n) for n in range(1, top)]
        w_log_w = np.convolve(block(0)[1][:top, i], log_w)[:top, None]
        for p, psi in enumerate(psis):
            near[p, i] += 0.5 * psi.profile_coefficient([j], w_log_w, moment)[0, 0]

    def far_integrand(phi: np.ndarray) -> np.ndarray:
        t_sigma = np.exp(np.multiply.outer(sigma, np.log(2.0 * (1.0 - np.cos(phi))) + 0j))
        return t_sigma * (np.sin(phi) ** (k + d - 1) * angular(phi))

    return near + quad(far_integrand, _CUT_ANGLE, math.pi, labels)


def pairing(d: int, h: float, k: int, upsilon, psi, lam: complex, n_reg: int | None = None,
            finite_part: bool = False) -> complex:
    """The continued pairing <F(lambda), psi>, or with ``finite_part`` its
    0th Laurent coefficient at a pole: :func:`pairings` for the one test
    function ``psi`` at the one lambda ``lam``, to depth ``n_reg`` (None
    takes :func:`auto_regularization_depth`).  The benchmark's traced run
    wraps this name (span ``hadamard.pairing``), so it stays callable until
    the benchmark is re-wrapped; the package pairs through :func:`pairings`."""
    if n_reg is None:
        n_reg = auto_regularization_depth(lam, k, h)
    return complex(pairings(d, h, k, upsilon, [psi], lam, n_reg, finite_part)[0, 0])


class ResiduePair(NamedTuple):
    closed_form: complex
    contour: complex


def pole_residue(
    j: int,
    k: int,
    upsilon: tuple,
    psi,
    d: int,
    h: float = 1.0,
    eps: float = 1e-2,
    n_nodes: int = 24,
) -> ResiduePair:
    """Residue of lambda -> <F(lambda), psi> at lambda_j = h(j-k)/2, two ways.

    closed_form: -(h/2) Phi_j(lambda_j), the one Taylor coefficient of the
    weighted profile from the sphere moments of Upsilon (equivalently the j-th
    radial derivative display, which it reproduces).
    contour: (1/2 pi i) times the circle integral of the pairing on
    |lambda - lambda_j| = eps*h by the trapezoid rule (spectrally accurate;
    the nearest other pole sits at distance h/2 > 3 eps h), all nodes in one
    :func:`pairings` call.
    """
    if j < 0 or k < 0:
        raise ValidationError("need j >= 0 and k >= 0")
    lam_j = pole_location(j, k, h)
    radius = eps * h
    if 3.0 * radius >= h / 2.0:
        raise ValidationError(
            f"circle radius {radius} too large: another pole lies within "
            f"3x the radius (pole spacing h/2 = {h / 2.0})"
        )
    n_reg = j + 2

    # closed form
    sigma = -(k + d / 2.0 + lam_j / h)
    moment = functools.partial(_angular_moment, tuple(upsilon), k)
    weight = np.array(RadialSeries.power(sigma, j // 2).coeffs)
    closed = -(h / 2.0) * psi.profile_coefficient([j], weight, moment)[0]

    # contour
    units = np.array([complex(math.cos(2.0 * math.pi * m / n_nodes),
                              math.sin(2.0 * math.pi * m / n_nodes)) for m in range(n_nodes)])
    lams = lam_j + radius * units
    n_regs = [max(n_reg, auto_regularization_depth(lam, k, h)) for lam in lams.tolist()]
    vals = pairings(d, h, k, upsilon, [psi], lams, n_regs)[0]
    contour = (vals * units).sum() * radius / n_nodes
    return ResiduePair(closed_form=complex(closed), contour=complex(contour))


def jordan_vector(j: int, k: int, upsilon, op: ModelOperator) -> DistributionRep:
    """The generalized eigenvector at the (j, k) crossing.

    At lambda_0 = h(j-k)/2 with j = k (mod 2), the continued family has a
    simple pole whose residue R is a combination of order-j volume jets at N.
    Expanding the eigen-identity of the family in lambda - lambda_0 gives

        Q A_j = -(1 + cos phi) R,        Q := P_{lambda_0} + h(k + j + d)/2,

    for the finite part A_j (0th Laurent coefficient).  Since Q acts
    diagonally on the Dirac eigenfunctionals at lambda_0 with eigenvalue
    h(j - |nu|), the correction e_j removing all jet orders < j is solvable,
    and Q(A_j + e_j) lands in ker Q: an exact index-2 block.

    Returns the DistributionRep at lam = lambda_0 whose south part is the
    finite part A_j (``finite_part`` set) and whose jet part is e_j.
    """
    if j < 0 or k < 0:
        raise ValidationError("need j >= 0 and k >= 0")
    if (j - k) % 2 != 0:
        raise ValidationError(
            f"(j={j}, k={k}) is not a Jordan crossing: the residue vanishes "
            f"for odd parity gap, the pole pairs with an orthogonal family"
        )
    if op.A != 0:
        raise ValidationError("Jordan vectors are implemented for A = 0")
    d, h = op.d, op.h
    lam0 = pole_location(j, k, h)
    dim = homogeneous_dimension(d, k)
    upsilon = tuple(complex(c) for c in np.atleast_1d(upsilon))
    if len(upsilon) != dim:
        raise ValidationError(
            f"upsilon needs {dim} coefficients for degree {k} in {d} variables"
        )

    # Residue distribution R = -(h/2) sum_{|nu|=j} (a_nu / nu!) delta_nu(lam0)
    r_dict: dict = {}
    for nu in multi_indices(d, j):
        a_nu = _angular_moment(upsilon, k, nu)
        if a_nu == 0.0:
            continue
        fact = 1.0
        for v in nu:
            fact *= math.factorial(v)
        coeff = -(h / 2.0) * a_nu / fact
        for mu, c in delta_in_volume_basis(d, h, lam0, nu).items():
            r_dict[mu] = r_dict.get(mu, 0.0 + 0.0j) + coeff * c
    if not r_dict:  # every a_nu vanished
        raise ValidationError(
            f"the residue vanishes identically for this upsilon at "
            f"(j={j}, k={k}); no index-2 block to construct"
        )

    # w = Q A_j = -(1 + cos phi) R, as a volume-jet functional
    s = RadialSeries.binomial(0.5, j + 1).coeffs
    one_plus_cos = RadialSeries((1.0 + s[0],) + s[1:])
    w_dict = {mu: -c for mu, c in radial_multiply(r_dict, one_plus_cos).items()}

    # expand w in the Dirac eigenfunctional basis at lam0 and solve Q e = -w_low
    w_delta = volume_dict_to_delta_basis(d, h, lam0, w_dict)
    e_dict: dict = {}
    for nu, c in w_delta.items():
        if sum(nu) == j:
            continue  # kernel directions: the nilpotent output Q(A_j + e_j)
        gain = -c / (h * (j - sum(nu)))
        for mu, cc in delta_in_volume_basis(d, h, lam0, nu).items():
            e_dict[mu] = e_dict.get(mu, 0.0 + 0.0j) + gain * cc

    return DistributionRep(d=d, h=h, lam=lam0, eigenvalue=-h * (k + j + d) / 2.0,
                           jet_dict=e_dict, k=k, upsilon=upsilon, finite_part=True)


def pair_distribution(rep: DistributionRep, psis) -> np.ndarray:
    """Pair a DistributionRep against each test function of ``psis``, one
    value per psi: the :func:`pairings` row of its south part (the finite
    part at rep.lam when ``rep.finite_part`` is set), plus the exact pairing
    of its jet part, in that order."""
    south = None if rep.upsilon is None else pairings(
        rep.d, rep.h, rep.k, rep.upsilon, psis, rep.lam,
        auto_regularization_depth(rep.lam, rep.k, rep.h), rep.finite_part)[:, 0]
    if not rep.jet_dict:
        return south
    jets = np.array([psi.pair_volume_dict(rep.jet_dict) for psi in psis], complex)
    return jets if south is None else south + jets
