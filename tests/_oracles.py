"""Independent oracles that only the tests use.

Each one checks a stage of the package by another route than the one the
package takes:

* :func:`apply_P` applies the model operator pointwise,
  :func:`numeric_roots_shooting` classifies a root by integrating the reduced
  mode-m ODE with scipy (the package's roots are closed forms), and
  :func:`exact_jet_matrix` is the jet matrix in Fraction arithmetic (the
  package's is complex floats);
* :class:`AwaySupportedFunction` is a smooth test function whose jets at the
  pole N all vanish, and :func:`ck_norm` is a surrogate C^k norm of a
  :class:`~cuspflow._testfunctions.TestFunction`;
* :func:`reference_pairing` is the regularized pairing at one lambda as it
  was written before the package evaluated a batch of lambdas at once, with
  w^sigma by :func:`miller_power` (the package takes the generalized
  binomial closed form) and each Phi_j by the sequential sum of
  :func:`sequential_profile_coefficient` (the package takes a block of
  orders as one Toeplitz product per term);
* :func:`reduced_flow` and :func:`lifted_flow` transport reduced points and
  cotangent vectors by the closed-form flow, with no blocking or windowing;
* :func:`stepped_tau_max` finds each transition time by stepping the sphere
  flow until the cone membership flips (the package solves for the crossing),
  over the signed grid that :func:`reflected_orbits` rebuilds from the
  package's orbit representatives, and :func:`signed_midpoint_sphere` and
  :func:`signed_glue_rings` are the signed sample sets as they were written
  before the package built representatives only;
* :func:`cone_integrand` evaluates the weight's integrand at every
  direction, all four cone profiles at once (the package sums each profile
  in closed form outside its transition window);
* :func:`tiled_plateau_conditions` computes the certificate's conditions
  iii and iv from one ``reduced_G`` batch with every plateau direction
  repeated per magnitude (the package evaluates each direction once), and
  :func:`tiled_flow_conditions` conditions i and ii from one ``reduced_G``
  batch per magnitude over the signed grid's flowed covectors (the package
  evaluates each representative once per step shift);
* :func:`rho_max_prime` is the supremum of ``rho_max`` over a half-plane,
  and :func:`full_node_line` is the contour line on every eta-node, as it
  was written before real input was folded onto eta > 0;
* :func:`mode_profile_reference` is the mode profile F_lam at one lambda to
  30 digits and :func:`paired_mode_reference` the paired residue channel's
  pairing to 35, from the variation-of-constants solution in hypergeometric
  closed form, and ``mpmath.quad`` for the pairing (the package sums its
  own power series and their moments);
* :func:`_frame_matrix` builds the SL(2, R) frame of a unit tangent vector
  of the upper half-plane, the reference step of the quotient flow: the
  time-t flow maps ``i e^t`` through it;
* :func:`reference_step` is the quotient flow's step as it was written on
  fresh arrays, and :func:`reference_reduce` the reduction as it was
  written on complex (z, v) arrays, one translation, cusp move and bubble
  inversion per round;
* :func:`reference_correlate` is the correlation loop as it was written
  before it flowed only B's support: every sample is flowed and every
  product formed;
* :func:`lockstep_liouville_samples` is the sampler as it was written before
  it batched the rejection tail: one attempt per pending stream per Philox
  call;
* :func:`disc_bump_integral` and :func:`cusp_chart_bump_integral` integrate
  a bump over the fundamental domain in two dimensions, on the bump's
  Euclidean disc and on the domain's core and cusp strips (the package
  takes a ball minus caps in geodesic polar coordinates), with the
  Newton-refined nodes of :func:`gauss_legendre`;
* :func:`geodesic_velocity` is the right-hand side of the cusp geodesic
  system, and :func:`four_branch_theta` is the exact flow's cross-section
  drift as it was written in four overflow branches (the package writes one
  expression in e^{-2|t|});
* :func:`sphere_quadrature` is a product Gauss rule on S^0, S^1 and S^2,
  :func:`constant_test_function` and :func:`d_phi` extend the package's
  test-function family with the constants and exact d/dphi, and
  :func:`point_value` evaluates a test function pointwise with
  numpy.polynomial (the package evaluates angular profiles only);
* :func:`cotangent_norm` is the Riemannian norm of a
  :class:`CotangentVector`, which the isometry tests preserve;
  :func:`hyperbolic_distance` is the upper half-plane distance, and
  :class:`QuotientSurface` tests membership and reduces one point at a
  time, by the package's array kernels;
* :func:`fd_residual` re-applies the mode equation to a sphere solve by
  seven-point finite differences;
* :func:`symbol_hat`, :func:`symbol_value`, :func:`symbol_log_derivative`
  and :func:`weight_symbol` evaluate the escape construction's symbol and
  scaled weight at caller-given directions, normalized first (the package
  evaluates its own unit rows).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp

from cuspflow import bcontinuation as bc
from cuspflow._jets import RadialSeries, radial_multiply
from cuspflow._sphere import multi_indices_upto
from cuspflow._testfunctions import TestFunction
from cuspflow.errors import (ConfigurationError, DomainError,
                             NonterminationError, PoleError, ToleranceError,
                             UnsupportedDimensionError, ValidationError)
from cuspflow.escape import (_HALF_PI, _as_unit_rows, _band_profile,
                             _dist_0, _dist_0s, _dist_0u, _dist_s, _dist_u,
                             _frame_components, _glued_hat, _in_V_s, _in_V_u,
                             _plateau_samples, _sphere_flow, _swapped,
                             _symbol_log_derivative, _transported_cone_samples)
from cuspflow.flow import (_REJECTION_CAP, _STREAM_SAMPLE, CONTAINMENT_SLACK,
                           REDUCTION_CAP, SURFACE_AREA, _accept,
                           _chunks, _eval_observable, _geodesic_step, _inside,
                           _philox_block, _reduce, _unit, flow_cusp_exact,
                           liouville_samples)
from cuspflow.hadamard import _CUT_ANGLE, _POLE_GUARD, _angular_moment, pole_location, quad
from cuspflow.geometry import direction_angle, splitting_frame_at
from cuspflow.indicial import ModelOperator, mode_exponents


# ---------------------------------------------------------------------------
# cusp geometry: the cotangent norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CotangentVector:
    """Covector ``Y dy + J . d theta`` at a base point ``(y, theta)``."""

    base: tuple
    Y: float
    J: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "J", np.atleast_1d(np.asarray(self.J, dtype=float)))


def cotangent_norm(base, v: CotangentVector) -> float:
    """Riemannian norm ``y * sqrt(Y^2 + |J|^2)`` of a cotangent vector.

    Parameters
    ----------
    base : (y, theta)
        Base point; only ``y > 0`` enters the norm.
    v : CotangentVector

    Raises
    ------
    DomainError
        If ``y <= 0`` (outside the upper half space / cusp).
    """
    y = float(base[0])
    if y <= 0:
        raise DomainError(f"cotangent norm needs y > 0, got y = {y}")
    return y * float(np.sqrt(v.Y**2 + np.dot(v.J, v.J)))


# ---------------------------------------------------------------------------
# model operator: pointwise application and mode-by-mode shooting
# ---------------------------------------------------------------------------


def apply_P(op: ModelOperator, f, point) -> complex:
    """Apply the model operator to a test function at one point (phi, u).

    ``f`` may be a TestFunction or a pair of callables (value(phi, u),
    dphi(phi, u)).
    Returns  h sin(phi) f_phi + (lambda + h d/2 + h A) cos(phi) f.
    """
    phi, u = point
    u = np.asarray(u, dtype=float)
    if isinstance(f, tuple):
        fval, fphi = f[0](phi, u), f[1](phi, u)
    else:
        fval, fphi = point_value(f, phi, u), point_value(d_phi(f), phi, u)
    lam_eff = op.lam + op.h * op.d / 2.0 + op.h * op.A
    return complex(op.h * math.sin(phi) * fphi + lam_eff * math.cos(phi) * fval)


def exact_jet_matrix(op: ModelOperator, K: int):
    """(basis, matrix) of :func:`cuspflow.indicial.jet_matrix` as an object
    array of exact Fraction entries, h, lambda and A each rounded to a
    denominator of at most 1e12; lambda and A must be real.  Column mu is the
    jet functional of g_m = (lambda + hA) s_m - h (a_m + s_m (|mu| - 2m + d/2)),
    s_m the coefficients of sqrt(1-t) and a_m those of -t (1-t)^{-1/2}, as in
    :func:`cuspflow._jets.transpose_matrix_on_volume_jets`."""
    if complex(op.lam).imag != 0 or complex(op.A).imag != 0:
        raise ValidationError("exact jet matrix requires real lambda and A")

    def exact(v):
        return Fraction(complex(v).real).limit_denominator(10**12)

    d, h, lam, A = op.d, exact(op.h), exact(op.lam), exact(op.A)
    half, order = Fraction(1, 2), K // 2
    s = RadialSeries.binomial(half, order).coeffs
    inv = RadialSeries.binomial(-half, order).coeffs
    a = [Fraction(0)] + [-inv[m - 1] for m in range(1, order + 1)]
    basis = multi_indices_upto(d, K)
    index = {mu: i for i, mu in enumerate(basis)}
    M = np.zeros((len(basis),) * 2, dtype=object)
    for j, mu in enumerate(basis):
        g = RadialSeries(tuple(
            (lam + h * A) * s[m] - h * (a[m] + s[m] * (sum(mu) - 2 * m + d * half))
            for m in range(min(order, sum(mu) // 2) + 1)))
        for nu, val in radial_multiply({mu: 1}, g).items():
            M[index[nu], j] = val
    return basis, M


@dataclass(frozen=True)
class ShootingResult:
    """Outcome of the mode-m ODE shot.

    exponent_minus / exponent_plus: measured local growth exponents of the
    solution at x = -1 / x = +1 in the variables (1+x) / (1-x).
    branches: list of (sign, level) memberships detected; is_root iff
    nonempty.
    """

    is_root: bool
    branches: tuple
    exponent_minus: complex
    exponent_plus: complex
    expected_minus: complex
    expected_plus: complex
    mode: int
    details: dict


def numeric_roots_shooting(op: ModelOperator, s: complex, m: int) -> ShootingResult:
    """Integrate the reduced mode-m radial ODE and classify (lambda, s).

    In x = cos(phi) the mode-m equation (P - hs) w = 0 reduces to
        -h (1-x^2) w' + [(lambda + h(d/2+m)) x + h(A - s)] w = 0,
    whose (unique up to scale) solution behaves like (1+x)^{a-} near -1 and
    (1-x)^{a+} near +1 with
        a- = (A - s - lambda/h - d/2 - m)/2,
        a+ = (s - A - lambda/h - d/2 - m)/2.
    Membership:
        minus branch: a- a non-negative integer  -> level n = m + 2 a-;
        plus  branch: a+ + d/2 + m a non-positive integer -ell
                      -> level n = m + 2 ell.
    The exponents are measured by log-distance slope fits with Richardson
    extrapolation, integrating log w with a 2-term local series seed at
    x0 = -1 + 1e-6 (the endpoints are characteristic, so the integrator
    cannot start exactly there).
    """
    if m < 0:
        raise ValidationError(f"need mode m >= 0, got {m}")
    d = op.d
    c, e, a_plus_exact, a_minus_exact = mode_exponents(op, s, m, op.lam)

    def rhs(x, y):
        val = (c * x + e) / (1.0 - x * x)
        return [val.real, val.imag]

    xi0 = 1e-6
    x0 = -1.0 + xi0
    k_minus = (e + c) / 4.0
    y0c = a_minus_exact * math.log(xi0) + np.log(1.0 + k_minus * xi0)
    offsets = [1e-4, 1e-5, 1e-6]
    probes = [-1.0 + 1e-5, -1.0 + 1e-4, 1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6]
    sol = solve_ivp(
        rhs,
        (x0, probes[-1]),
        [y0c.real, y0c.imag],
        t_eval=probes,
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"shooting integration failed: {sol.message}")
    yv = sol.y[0] + 1j * sol.y[1]
    y_at = dict(zip(probes, yv))
    y_at[x0] = complex(y0c)

    def _slope_fit(samples):
        # samples: [(log-distance, y)] at offsets 1e-4, 1e-5, 1e-6
        (l1, y1), (l2, y2), (l3, y3) = samples
        s1 = (y2 - y1) / (l2 - l1)
        s2 = (y3 - y2) / (l3 - l2)
        return s2 + (s2 - s1) / 9.0, abs(s2 - s1)

    minus_samples = [(math.log(t), y_at[-1.0 + t]) for t in offsets]
    plus_samples = [(math.log(t), y_at[1.0 - t]) for t in offsets]
    a_minus, dm = _slope_fit(minus_samples)
    a_plus, dp = _slope_fit(plus_samples)

    branches = []
    int_tol = 1e-6
    am = a_minus
    if abs(am.imag) < int_tol:
        r = round(am.real)
        if abs(am.real - r) < int_tol and r >= 0:
            branches.append((-1, int(m + 2 * r)))
    ap = a_plus + d / 2.0 + m
    if abs(ap.imag) < int_tol:
        r = round(ap.real)
        if abs(ap.real - r) < int_tol and r <= 0:
            branches.append((+1, int(m - 2 * r)))

    return ShootingResult(
        is_root=bool(branches),
        branches=tuple(branches),
        exponent_minus=complex(a_minus),
        exponent_plus=complex(a_plus),
        expected_minus=complex(a_minus_exact),
        expected_plus=complex(a_plus_exact),
        mode=m,
        details={
            "fit_spread_minus": float(dm),
            "fit_spread_plus": float(dp),
            "x0": x0,
        },
    )


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def constant_test_function(d: int, value=1.0) -> TestFunction:
    """The constant ``value`` on S^d as a TestFunction."""
    return TestFunction([(0, (0,) * d, 0.0, np.array([value], dtype=complex))], d)


def point_value(psi, phi, u):
    """psi at angles phi (array) and directions u (shape (..., d)).  A
    TestFunction is summed term by term, each polynomial by numpy.polynomial's
    polyval (the package evaluates only angular profiles, by an inline
    Horner's rule); any other function evaluates itself."""
    if not isinstance(psi, TestFunction):
        return psi.value(phi, u)
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    z0, rho = np.cos(phi), np.sin(phi)
    acc = np.zeros(np.broadcast(phi, u[..., 0]).shape, dtype=complex)
    for q, mu, c, p in psi.terms:
        upart = np.ones_like(acc, dtype=float)
        for i, m in enumerate(mu):
            if m:
                upart = upart * u[..., i] ** m
        acc = acc + npoly.polyval(z0 + 0j, p) * rho**q * np.exp(-c * (1.0 - z0**2)) * upart
    return acc


def d_phi(f: TestFunction) -> TestFunction:
    """d/dphi of a TestFunction, exactly.  The family is closed under it at
    the cost of odd rho-powers, which leave the smooth subfamily."""
    out = []
    for q, mu, c, p in f.terms:
        if q >= 1:
            out.append((q - 1, mu, c, npoly.polymul([0.0, float(q)], p)))
        newp = npoly.polyder(p) * (-1.0)
        if c != 0.0:
            newp = npoly.polyadd(newp, npoly.polymul([0.0, -2.0 * c], p))
        out.append((q + 1, mu, c, newp))
    return TestFunction(out, f.d)


@functools.lru_cache(maxsize=None)
def sphere_quadrature(d: int, maxdeg: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on S^{d-1} subset R^d.

    Exact for all polynomials on the sphere of total degree
    <= 2*maxdeg + 2, enough for angular integrals of products of
    degree-``maxdeg`` data.

    Returns
    -------
    (nodes, weights) : nodes of shape (M, d), weights of shape (M,),
    with weights summing to the sphere's surface measure.
    """
    if maxdeg < 0:
        raise ValueError(f"maxdeg must be >= 0, got {maxdeg}")
    target = 2 * maxdeg + 2
    if d == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
        return nodes, weights
    if d == 2:
        m = 2 * target + 4
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(m, 2.0 * math.pi / m)
        return nodes, weights
    if d == 3:
        n_gl = target // 2 + 2
        z, wz = np.polynomial.legendre.leggauss(n_gl)
        m = 2 * target + 4
        phi = 2.0 * math.pi * np.arange(m) / m
        r = np.sqrt(1.0 - z**2)
        cz, sz = np.cos(phi), np.sin(phi)
        nodes = np.column_stack(
            [
                np.outer(r, cz).ravel(),
                np.outer(r, sz).ravel(),
                np.repeat(z, m),
            ]
        )
        weights = np.repeat(wz * (2.0 * math.pi / m), m)
        return nodes, weights
    raise UnsupportedDimensionError(
        f"sphere quadrature implemented for ambient d in {{1,2,3}}, got d={d}"
    )


def ck_norm(psi, k: int, n_phi: int = 200) -> float:
    """Surrogate C^k norm: sup over a grid of |d_phi^a psi| for a <= k.

    Angular derivatives are not included; the radial (phi) derivatives
    dominate for the pole-concentrated functionals this norm calibrates.
    """
    phi = np.linspace(0.0, np.pi, n_phi)
    nodes, _ = sphere_quadrature(psi.d, 3)
    out = 0.0
    f = psi
    for _ in range(k + 1):
        vals = point_value(f, phi[:, None], nodes[None, :, :])
        out = max(out, float(np.max(np.abs(vals))))
        f = d_phi(f)
    return out


class AwaySupportedFunction:
    """Smooth function supported in {cos(phi) < z_star}, away from the pole N.

    value = x^mu * g(cos phi) with g(z) = exp(-1/(z_star - z)) for z < z_star
    and 0 otherwise.  All jets at N vanish identically.
    """

    def __init__(self, d: int, z_star: float = 0.0, mu=None):
        self.d = int(d)
        self.z_star = float(z_star)
        self.mu = tuple(mu) if mu is not None else (0,) * d

    def _bump(self, phi):
        """g(cos phi) rho^{|mu|}: the value without its factor u^mu."""
        gap = self.z_star - np.cos(phi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = np.where(gap > 0, np.exp(-1.0 / np.where(gap > 0, gap, 1.0)), 0.0)
        return g * np.sin(phi) ** sum(self.mu)

    def value(self, phi, u):
        phi = np.asarray(phi, dtype=float)
        u = np.asarray(u, dtype=float)
        upart = np.ones(np.broadcast(phi, u[..., 0]).shape, dtype=float)
        for i, m in enumerate(self.mu):
            if m:
                upart = upart * u[..., i] ** m
        return self._bump(phi) * upart

    def angular_profile(self, phi, moment):
        """Integral over u of Upsilon(u) psi(phi, u): a_mu g(cos phi) rho^{|mu|}."""
        return moment(self.mu) * self._bump(np.asarray(phi, dtype=float))

    def volume_jet(self, nu):
        return 0.0 + 0.0j

    def profile_coefficient(self, orders, weight, moment):
        return np.zeros(np.shape(orders) + np.shape(weight)[1:], complex)

    def pair_volume_dict(self, jet_dict: dict):
        return 0.0 + 0.0j


# ---------------------------------------------------------------------------
# regularized pairings: the one-lambda evaluation
# ---------------------------------------------------------------------------


def miller_power(a, sigma) -> tuple:
    """Coefficients of the series a**sigma (a[0] = 1), to the order of ``a``.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) for b = a**sigma:
    n b_n = sum_{k=1}^n ((sigma+1) k - n) a_k b_{n-k}, in the coefficients'
    own arithmetic.
    """
    s1 = sigma + 1
    b = [a[0] * 0 * sigma + 1]
    for n in range(1, len(a)):
        b.append(sum((s1 * k - n) * a[k] * b[n - k] for k in range(1, n + 1)) / n)
    return tuple(b)


def sequential_profile_coefficient(psi: TestFunction, j, weight, moment):
    """TestFunction.profile_coefficient for a sequence ``weight`` of scalars,
    each coefficient of g * (J rest) summed in order of the index of rest."""
    acc = 0.0 + 0.0j
    for index, (deg, e) in enumerate(psi._degrees):
        r = (j - deg) // 2 - e
        if (j - deg) % 2 or r < 0 or (c_mu := moment(psi.terms[index][1])) == 0.0:
            continue
        rest = psi._radial_series(index, r)
        acc += c_mu * sum(rest[i] * weight[r - i] for i in range(r + 1))
    return acc


def reference_pairing(d, h, k, upsilon, psi, lam, n_reg) -> complex:
    """The meromorphically continued pairing <F(lambda), psi> of a
    TestFunction psi, Taylor-subtracted to depth n_reg.

    Near integral (rho <= sin(cut)): Taylor subtraction of the regular factor
    to depth n_reg, closed-form continuation of the subtracted monomials.
    Phi_j sums a_mu (w^sigma J rest)_{m-e} over the terms of psi, and
    the integral over u of Upsilon psi is exact.
    Far integral: direct quadrature in the colatitude over [cut, pi] in the
    everywhere-regular form T^sigma sin(phi)^{k+d-1}.  Both integrals use the
    panel rule of :func:`quad` and raise ToleranceError when its error
    estimate exceeds 1e-12 + 1e-11 |integral|.
    """
    c_exp = -2.0 * lam / h - k  # radial exponent offset: integrand rho^{c-1}...
    # validity: the subtracted remainder integrates iff Re(c) + n_reg > 0
    if not (complex(c_exp).real + n_reg > 0):
        raise ValidationError(
            f"regularization depth n_reg={n_reg} too small for lambda={lam} "
            f"(need Re(lambda) < h (n_reg - k)/2); increase n_reg"
        )
    # pole proximity guard
    for j in range(n_reg):
        lam_j = pole_location(j, k, h)
        if abs(lam - lam_j) <= _POLE_GUARD * h:  # w = lambda/h units
            raise PoleError(
                f"lambda={lam} is within {_POLE_GUARD}*h of the pole "
                f"lambda_{j} = {lam_j}",
                j,
                k,
            )

    sigma = -(k + d / 2.0 + lam / h)
    moment = functools.partial(_angular_moment, upsilon, k)
    angular = functools.partial(psi.angular_profile, moment=moment)
    rho_c = math.sin(_CUT_ANGLE)
    rho_s = 0.25  # series/quadrature split of the near integral

    # Taylor-subtracted remainder on [0, rho_s] by the tail series: the
    # radial profile Phi(rho) is analytic with radius 1, so extra exact
    # coefficients converge geometrically and no cancellation-prone
    # subtraction is ever evaluated at small rho.
    j_cap = n_reg + 64
    # Phi_j reads w^sigma to order m - e <= j // 2
    catalan = [math.comb(2 * m, m) / ((m + 1) * 4**m) for m in range((j_cap - 1) // 2 + 1)]
    weight = miller_power(catalan, sigma)
    phi_j = [sequential_profile_coefficient(psi, j, weight, moment) for j in range(n_reg)]
    near = 0.0 + 0.0j
    small_run = 0
    any_nonzero = False
    converged = False
    for j in range(n_reg, j_cap):
        term = (sequential_profile_coefficient(psi, j, weight, moment)
                * rho_s ** (c_exp + j) / (c_exp + j))
        near += term
        if term == 0.0:
            # structural parity zeros carry no convergence information
            continue
        any_nonzero = True
        if abs(term) < 1e-16 * (1.0 + abs(near)):
            small_run += 1
            if small_run >= 3:
                converged = True
                break
        else:
            small_run = 0
    if any_nonzero and not converged:
        raise ToleranceError(
            "radial Taylor tail did not converge below 1e-16 within "
            f"{j_cap} orders at lambda={lam}"
        )

    def near_integrand(rho: np.ndarray) -> np.ndarray:
        # Phi(rho) = integral of Upsilon(u) * (w^sigma J psi)(rho u) du,
        # less its first n_reg Taylor terms
        w = 2.0 / (1.0 + np.sqrt(1.0 - rho * rho))
        profile = angular(np.arcsin(rho)) * w**sigma / np.sqrt(1.0 - rho * rho)
        return rho ** (c_exp - 1.0) * (profile - npoly.polyval(rho, phi_j))

    near += quad(near_integrand, rho_s, rho_c)
    # closed-form continuation of the subtracted monomials
    for j in range(n_reg):
        near += phi_j[j] * rho_c ** (c_exp + j) / (c_exp + j)

    def far_integrand(phi: np.ndarray) -> np.ndarray:
        t_fac = 2.0 * (1.0 - np.cos(phi))
        return t_fac**sigma * np.sin(phi) ** (k + d - 1) * angular(phi)

    far = quad(far_integrand, _CUT_ANGLE, math.pi)
    return complex(near + far)


# ---------------------------------------------------------------------------
# escape: the stepped transition-time search and the tiled certificate batches
# ---------------------------------------------------------------------------


def _first_entry_times(x, target, step, horizon):
    """First t > 0 (in multiples of step) with target(flowed x) true, per row."""
    n = x.shape[0]
    times = np.full(n, np.nan)
    pending = np.ones(n, dtype=bool)
    t = 0.0
    while np.any(pending) and t < horizon:
        t += step
        hit = np.zeros(n, dtype=bool)
        hit[pending] = target(_sphere_flow(x[pending], t))
        times[hit] = t
        pending &= ~hit
    if np.any(pending):
        raise ConfigurationError(
            f"{int(pending.sum())} sampled directions did not reach the target "
            f"cone within transport time {horizon}")
    return times


def cone_integrand(x, eps):
    """Average of the two smoothed cone indicators at unit directions x: the
    growing-dual poles against the flow+decaying band, and the flow+growing
    band against the decaying-dual poles; +1 at the growing-dual poles, -1 at
    the decaying-dual poles and 0 at the flow-dual poles."""
    up = _band_profile(_dist_u(x), eps) - _band_profile(_dist_0s(x), eps)
    down = _band_profile(_dist_0u(x), eps) - _band_profile(_dist_s(x), eps)
    return 0.5 * (up + down)


def stepped_tau_max(grid, step, horizon=200.0):
    """:func:`cuspflow.escape.estimate_tau_max` by stepping each leg's sphere
    flow ``step`` by ``step`` until the direction enters the target cone,
    over every signed direction of the grid."""
    x = signed_grid(grid)
    worst = 0.0
    same = lambda y: y
    legs = ((grid.in_cone_0s, _dist_u, same), (grid.in_cone_u, _dist_0s, _swapped),
            (grid.in_cone_0u, _dist_s, _swapped), (grid.in_cone_s, _dist_0u, same))
    for in_start_cone, dist, frame in legs:
        sel = ~in_start_cone(x)
        if np.any(sel):
            t = _first_entry_times(frame(x[sel]),
                                   lambda y: dist(frame(y)) < grid.eps,
                                   step, horizon)
            worst = max(worst, float(t.max()))
    return 2.0 * worst


def reflected_orbits(rows, multiplicity, flips):
    """Every signed row that orbit representatives stand for: each row under
    each sign pattern of its components listed in ``flips`` (the flips that
    close its set), a self-mirror component (below 1e-15, the rounded cosine
    of pi/2 or sine of pi) left as it is.  Each orbit must have the row's
    multiplicity."""
    out = []
    for row, count in zip(rows, multiplicity):
        free = [i for i in flips if abs(row[i]) > 1e-15]
        assert 2 ** len(free) == count, (row, count, flips)
        for signs in itertools.product((1.0, -1.0), repeat=len(free)):
            image = row.copy()
            image[free] *= signs
            out.append(image)
    return np.array(out)


def signed_grid(grid):
    """The grid's n_theta * n_phi signed directions: the midpoint sphere is
    closed under the flow-dual and decaying flips, and under the growing one
    at even n_phi."""
    flips = (0, 1, 2) if grid.n_phi % 2 == 0 else (0, 2)
    return reflected_orbits(grid.xihat, grid.multiplicity, flips)


def _signed_midpoint_circle(n, turn):
    """cos and sin of all n midpoint angles turn * (k + 1/2) / n, each
    mirrored entry an exact sign flip of the entry at the smaller angle."""
    a = turn * (np.arange(n) + 0.5) / n
    c, s = np.cos(a), np.sin(a)
    if turn == np.pi:
        flips = [(n, -1.0, 1.0)]
    else:
        flips = [(n // 2, -1.0, 1.0)] * (n % 2 == 0) + [(n, 1.0, -1.0)]
    for m, c_sign, s_sign in flips:
        h = m // 2
        c[m - h:m] = c_sign * c[:h][::-1]
        s[m - h:m] = s_sign * s[:h][::-1]
    return c, s


def signed_midpoint_sphere(n_theta, n_phi):
    """The signed midpoint sphere, every direction built from its own
    mirrored angle table entries."""
    ct, st = _signed_midpoint_circle(n_theta, np.pi)
    cp, sp = _signed_midpoint_circle(n_phi, 2.0 * np.pi)
    return np.column_stack([np.repeat(ct, n_phi), np.outer(st, cp).ravel(),
                            np.outer(st, sp).ravel()])


def signed_glue_rings(eps):
    """The escape probe's six signed rings around the flow-dual pole, each
    over all 128 midpoint azimuths."""
    cos_az, sin_az = _signed_midpoint_circle(128, 2.0 * np.pi)
    return _as_unit_rows(np.vstack([
        np.column_stack([np.full(128, math.cos(d0)), math.sin(d0) * cos_az,
                         math.sin(d0) * sin_az])
        for d0 in (1.05 * eps, 1.3 * eps, 1.6 * eps, 2.0 * eps, 2.4 * eps, 3.0 * eps)]))


def rounded_angle_sphere(n_theta, n_phi):
    """The midpoint sphere of :func:`cuspflow.escape._midpoint_sphere` with
    each coordinate read at its own rounded angle, which makes the grid only
    nearly closed under the component sign flips."""
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack([np.cos(tt).ravel(), (np.sin(tt) * np.cos(pp)).ravel(),
                            (np.sin(tt) * np.sin(pp)).ravel()])


def exact_midpoint_sphere(n_theta, n_phi, dps=30):
    """The midpoint sphere's directions at ``dps`` digits, rounded once."""
    import mpmath

    with mpmath.workdps(dps):
        half = mpmath.mpf(1) / 2
        rows = []
        for i in range(n_theta):
            t = mpmath.pi * (i + half) / n_theta
            for j in range(n_phi):
                p = 2 * mpmath.pi * (j + half) / n_phi
                rows.append([float(mpmath.cos(t)),
                             float(mpmath.sin(t) * mpmath.cos(p)),
                             float(mpmath.sin(t) * mpmath.sin(p))])
    return np.array(rows)


def symbol_hat(symbol, xihat):
    """The glued 0-homogeneous factor of a ``SymbolField`` at directions."""
    return _glued_hat(_as_unit_rows(xihat), symbol.T_prime, symbol.step, symbol.grid.eps)


def symbol_value(symbol, xihat, rho):
    """The full 1-homogeneous symbol at directions ``xihat`` and radii ``rho``."""
    return np.asarray(rho, dtype=float) * symbol_hat(symbol, xihat)


def symbol_log_derivative(symbol, xihat):
    """The step difference of log(symbol) along the lifted flow at directions
    (radius-independent by homogeneity)."""
    return _symbol_log_derivative(_as_unit_rows(xihat), symbol.T_prime, symbol.step,
                                  symbol.grid.eps)


def weight_symbol(data, xihat):
    """The scaled 0-homogeneous weight of ``EscapeData`` at directions, in
    [-C_G, C_G]."""
    return data.C_G_prime * data.weight(xihat)


def tiled_plateau_conditions(data):
    """The values of conditions iii and iv that ``verify`` reports, as it
    computed them: G on the plateau directions from one ``reduced_G`` batch,
    each direction repeated once per magnitude, and the plateau error from
    :func:`weight_symbol` family by family."""
    plat = _plateau_samples(data.weight.plateau_radii)
    fit_lo = max(100.0, 2.0 * data.R * data.grid.delta, 2.0 * data.grid.delta)
    rhos = np.exp(np.linspace(math.log(fit_lo), math.log(fit_lo * 1e4), 9))
    dirs = np.concatenate([plat["u"], plat["s"], plat["0"]])
    g = data.reduced_G(np.repeat(dirs, rhos.size, axis=0),
                       np.tile(rhos, len(dirs))).reshape(len(dirs), rhos.size)
    n_u, n_s = len(plat["u"]), len(plat["s"])
    slopes = {fam: np.array([np.polyfit(np.log(rhos), row, 1)[0] for row in rows])
              for fam, rows in (("u", g[:n_u]), ("s", g[n_u:n_u + n_s]))}
    plat_err = max(float(np.max(np.abs(weight_symbol(data, plat[fam]) - target)))
                   for fam, target in (("u", data.C_G), ("s", -data.C_G),
                                       ("0", 0.0)))
    return {
        "margin": max(float(np.max(np.abs(slopes[fam] / (sign * data.C_G) - 1.0)))
                      for fam, sign in (("u", 1.0), ("s", -1.0))),
        "mean_slope_growing": float(np.mean(slopes["u"])),
        "mean_slope_decaying": float(np.mean(slopes["s"])),
        "flow_dual_max_abs": float(np.max(np.abs(g[n_u + n_s:]))),
        "plateau_error_relative": plat_err / max(data.C_G, 1.0),
    }


def tiled_flow_conditions(data):
    """The flow derivatives behind conditions i and ii of ``verify``, by
    another route: each covector ``rho xihat`` is flowed by the step, forward
    and backward, as the diagonal matrix diag(1, e^t, e^-t) acting on it, and
    G is read from one ``reduced_G`` batch per magnitude level (which
    normalizes the flowed covectors itself), over every signed grid
    direction and the transported-cone samples.  Returns, per condition, the
    smallest central difference at each level (a non-finite one as -inf)."""
    grid, h, R, T = data.grid, data.weight.step, data.R, data.weight.T
    eps = grid.eps
    x = signed_grid(grid)
    u_dirs, s_dirs = _transported_cone_samples(T, eps)
    cone = np.vstack([u_dirs[_in_V_u(u_dirs, T, eps)],
                      s_dirs[_in_V_s(s_dirs, T, eps)]])

    def minima(dirs, levels):
        flowed = np.vstack([dirs * [1.0, math.exp(t), math.exp(-t)]
                            for t in (h, -h)])
        norm = np.linalg.norm(flowed, axis=1)
        out = {}
        for lvl in levels:
            g = data.reduced_G(flowed, lvl * grid.delta * norm)
            fd = (g[:len(dirs)] - g[len(dirs):]) / (2.0 * h)
            out[lvl] = float(np.where(np.isfinite(fd), fd, -np.inf).min())
        return out

    levels_ii = sorted({1.06, 1.3, 2.0, 4.0, 10.0}
                       | {r for r in (1.001 * R, 3.0 * R, 30.0 * R, 1e3 * R)
                          if r > 1.06})
    return {"i": minima(np.vstack([x[_dist_0(x) >= eps], cone]),
                        [1.0001 * R, 4.0 * R, 100.0 * R, 1e4 * R]),
            "ii": minima(x, levels_ii)}


# ---------------------------------------------------------------------------
# escape: the reduced and lifted flows
# ---------------------------------------------------------------------------


def _advance_angle(alpha, t):
    """Closed form of d alpha/dt = sin(alpha) on (-pi, pi].

    ``tan(alpha/2)`` is scaled by ``e^t``; the evaluation is branched on the
    hemisphere so neither end loses accuracy.  The fixed points 0 and pi are
    preserved exactly.
    """
    alpha = np.asarray(alpha, dtype=float)
    a = np.abs(alpha)
    sgn = np.where(alpha < 0.0, -1.0, 1.0)
    north = a <= _HALF_PI
    with np.errstate(divide="ignore"):
        ell = np.where(north,
                       np.log(np.tan(0.5 * a)),
                       -np.log(np.tan(0.5 * (np.pi - np.minimum(a, np.pi)))))
    ell = ell + t
    out = np.where(ell <= 0.0,
                   2.0 * np.arctan(np.exp(np.minimum(ell, 0.0))),
                   np.pi - 2.0 * np.arctan(np.exp(np.minimum(-ell, 0.0))))
    return sgn * out


def reduced_flow(alpha, xihat, t):
    """Time-t reduced flow on (alpha, xihat).

    Parameters
    ----------
    alpha : array_like
        Flow-direction angles in (-pi, pi].
    xihat : array_like, shape (..., 3)
        Unit covector directions in the dual frame (flow-dual, growing,
        decaying components).
    t : float

    Returns
    -------
    (alpha_t, xihat_t)
        Both transported; the two factors evolve independently.
    """
    x = _as_unit_rows(xihat)
    return _advance_angle(alpha, float(t)), _sphere_flow(x, float(t))


def lifted_flow(point, covector, t):
    """Exact lifted geodesic flow on a cotangent vector of the sphere bundle.

    The base point advances by the exact geodesic flow; the covector is
    decomposed on the dual invariant frame at the starting point, its
    components are scaled ``(xi_0, e^t xi_u, e^{-t} xi_s)`` (the flow-dual
    component is conserved, the component annihilating flow+growing directions
    grows, the one annihilating flow+decaying directions decays), and the
    result is re-expressed in coordinates at the image point.

    Parameters
    ----------
    point : PhasePoint
        d = 1 phase point.
    covector : array_like, shape (3,)
        Components ``(xi_r, xi_theta, xi_alpha)`` in cusp coordinates.
    t : float

    Returns
    -------
    (PhasePoint, ndarray)
        The advanced point and the transported covector components.

    Raises
    ------
    UnsupportedDimensionError
        If the point is not one-dimensional in the cross-section.
    """
    comps = _frame_components(point, covector)
    t = float(t)
    comps_t = np.array([comps[0], math.exp(t) * comps[1], math.exp(-t) * comps[2]])
    image = flow_cusp_exact(point, t)
    alpha1 = direction_angle(image)
    frame1 = np.column_stack(splitting_frame_at(image.r, alpha1))
    xi_t = np.linalg.solve(frame1.T, comps_t)
    return image, xi_t


# ---------------------------------------------------------------------------
# continuation: the visibility radius over a half-plane
# ---------------------------------------------------------------------------


def rho_max_prime(op: ModelOperator, tau: float) -> float:
    """sup of rho_max over Re s >= tau: max(0, Re A - tau - d/2)."""
    return max(0.0, complex(op.A).real - float(tau) - op.d / 2.0)


def fd_residual(sol) -> float:
    """sup of |(I - hs)f - g| over interior probes of a :func:`solve_indicial`
    solution, via 7-point FD, relative to the largest input coefficient sum.

    An independent check of the solve: the mode ODE is re-applied with
    sixth-order central finite differences on fresh profile evaluations.
    """
    op, s, lam = sol.op, sol.s, sol.lam
    scale = max(max(float(np.abs(np.asarray(t.poly)).sum()) for t in sol.terms), 1e-300)
    # the profile oscillates on the x-scale 1/|lam/h|, so the probe step
    # shrinks accordingly to keep the stencil truncation term flat in lam
    n_probe = 24
    delta = 1e-3 / (1.0 + abs(complex(lam)) / (4.0 * op.h))
    probes = np.linspace(-0.92, 0.79, n_probe)
    c6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    worst = 0.0
    for t in sol.terms:
        c, e, _, _ = mode_exponents(op, s, t.m, np.array([lam], complex))
        stencil = np.concatenate([probes + k * delta for k in (-3, -2, -1, 0, 1, 2, 3)])
        vals = bc._solve_mode_profiles(op, s, t.m, t.poly, [lam], stencil)[0].reshape(7, n_probe)
        fx = vals[3]
        dfx = (c6[:, None] * vals).sum(axis=0) / delta
        lhs = -op.h * (1 - probes**2) * dfx + op.h * (c[0] * probes + e) * fx
        res = lhs - npoly.polyval(probes, t.poly)
        worst = max(worst, float(np.abs(res).max()))
    return worst / scale


def full_node_line(op: ModelOperator, s, contour, f, x_grid, r_span=30.0, n_r=4096):
    """The term values of ``resolvent_line`` on every row of the r-grid and
    its contour_tail_rel, from the complex transform on every eta-node of the
    line."""
    r = bc.default_r_grid(r_span, n_r)
    eta, wq, base_panel = bc._refined_eta_nodes(op, s, contour)
    wl = contour.rho + 1j * eta
    tail_sel = np.abs(eta) >= contour.height - base_panel - 1e-12
    table = bc._exp_table(r, wl)
    rwin = np.abs(r) <= contour.r_window()
    values, tail_rel = [], 0.0
    for term in f.terms:
        fh = bc._fhat(np.asarray(term.radial(r), complex), r, table)
        prof = bc._solve_mode_profiles(op, s, term.m, term.poly, op.h * wl, x_grid)
        coeff = (wq * fh)[:, None] * prof
        vals = bc._synthesis(r, slice(0, n_r), contour.rho, eta, coeff, False) / (2.0 * math.pi)
        tails = bc._synthesis(r, slice(0, n_r), contour.rho, eta[tail_sel], coeff[tail_sel],
                              False) / (2.0 * math.pi)
        tail_rel = max(tail_rel, float(np.abs(tails[rwin]).max())
                       / (float(np.abs(vals[rwin]).max()) or 1.0))
        values.append(vals)
    return values, tail_rel


def _voc_exponents(op: ModelOperator, s, m, lam):
    """a+ and a- of the mode-m equation at lambda, in mpmath at its working
    precision."""
    import mpmath

    c = mpmath.mpc(lam) / op.h + mpmath.mpf(op.d) / 2 + m
    e = mpmath.mpc(op.A) - mpmath.mpc(s)
    return -(c + e) / 2, (e - c) / 2


def _voc_moment(ex, p, Y):
    """int_0^Y y^ex (2-y)^p dy, continued in ex: one hypergeometric closed form."""
    import mpmath

    return 2 ** p * Y ** (ex + 1) / (ex + 1) * mpmath.hyp2f1(-p, ex + 1, ex + 2, Y / 2)


def _voc_shifted(coeffs, sign):
    """Coefficients in Y of p(sign (Y - 1)), p given by its coefficients."""
    import mpmath

    coeffs = [mpmath.mpc(v) * sign**k for k, v in enumerate(coeffs)]
    return [sum(coeffs[k] * math.comb(k, j) * (-1) ** (k - j)
                for k in range(j, len(coeffs))) for j in range(len(coeffs))]


def _voc_side(op: ModelOperator, poly, Y, a_near, a_far, sign):
    """At distance Y from the pole where w ~ Y^a_near (sign +1 at S, -1 at N):
    w = Y^a_near (2-Y)^a_far and int_0^Y P / (h (1-t^2) w) in that distance,
    its moments continued in a_near."""
    flux = sum(pj * _voc_moment(j - a_near - 1, -a_far - 1, Y)
               for j, pj in enumerate(_voc_shifted(poly, sign))) / op.h
    return Y ** a_near * (2 - Y) ** a_far, flux


def mode_profile_reference(op: ModelOperator, s, m, poly, lam, x, dps=30) -> np.ndarray:
    """F_lam at the points x of ``bc._solve_mode_profiles``, to dps digits.

    F = -w int_{-1}^x P / (h (1-t^2) w) dt, the south-regular
    variation-of-constants solution, with the integral in the closed form of
    :func:`paired_mode_reference`'s south side; continued in a-, it needs no
    condition on the exponents.
    """
    import mpmath

    with mpmath.workdps(dps):
        a_p, a_m = _voc_exponents(op, s, m, lam)
        out = []
        for xi in np.atleast_1d(x):
            w, flux = _voc_side(op, poly, 1 + mpmath.mpf(float(xi)), a_m, a_p, 1)
            out.append(complex(-w * flux))
        return np.array(out)


def paired_mode_reference(op: ModelOperator, s, m, poly, lam, q_poly, x0=0.0, dps=35):
    """<F_lam, Q>_beta of ``bc._paired_mode_values`` at one lambda, to dps digits.

    Needs Re a+ < 0 and Re a- < 0.  Then the tempered solution is
    F = -w int_{-1}^x P / (h (1-t^2) w) dt, K = -int_{-1}^1 P / (h (1-t^2) w) dt
    converges and F - K w = w int_x^1 P / (h (1-t^2) w) dt is analytic at N.
    The pairing is int_{-1}^{x0} F Q (1-x^2)^beta plus int_{x0}^1 (F - K w)
    Q (1-x^2)^beta, both by ``mpmath.quad``, plus K times the continued
    moment of y^{a+ + beta} (2-y)^{a- + beta} Q(1-y) on [0, 1-x0], one
    hypergeometric closed form per power of y.
    """
    import mpmath

    with mpmath.workdps(dps):
        beta = mpmath.mpf(m) + mpmath.mpf(op.d) / 2 - 1
        a_p, a_m = _voc_exponents(op, s, m, lam)

        def integrand(Y, sign):
            # sign +1 at S, -1 at N; Q (1-x^2)^beta in the distance Y
            weight = mpmath.polyval(_voc_shifted(q_poly, sign)[::-1], Y) * (Y * (2 - Y)) ** beta
            w, flux = (_voc_side(op, poly, Y, a_m, a_p, 1) if sign > 0
                       else _voc_side(op, poly, Y, a_p, a_m, -1))
            return -sign * w * flux * weight

        x0 = mpmath.mpf(x0)
        # Y = tau^2 leaves both integrands analytic in tau
        paired = sum(mpmath.quad(lambda t: 2 * t * integrand(t * t, sign), [0, mpmath.sqrt(Y0)])
                     for sign, Y0 in ((1, 1 + x0), (-1, 1 - x0)))
        K = -(_voc_side(op, poly, 1 + x0, a_m, a_p, 1)[1]
              + _voc_side(op, poly, 1 - x0, a_p, a_m, -1)[1])
        paired += K * sum(qj * _voc_moment(a_p + beta + j, a_m + beta, 1 - x0)
                          for j, qj in enumerate(_voc_shifted(q_poly, -1)))
        return complex(paired)


# ---------------------------------------------------------------------------
# quotient flow: the frame-based reference step
# ---------------------------------------------------------------------------


def hyperbolic_distance(z1, z2):
    """Hyperbolic distance on the upper half-plane.

    ``cosh d = 1 + |z1 - z2|^2 / (2 Im z1 Im z2)``.  Accepts scalars or
    arrays; both imaginary parts must be positive.
    """
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    return np.arccosh(1.0 + np.abs(z1 - z2) ** 2 / (2.0 * z1.imag * z2.imag))


class QuotientSurface:
    """The thrice-punctured sphere as a quotient of the upper half-plane, one
    point at a time: membership and the one-point reduction, as the package
    exported them before ``correlate`` and ``flow_quotient`` became the only
    callers of the array kernels.

    The group is the level-2 congruence subgroup with the fixed generator set
    ``[[1, 2], [0, 1]]`` (z -> z + 2) and ``[[1, 0], [2, 1]]``
    (z -> z/(2z + 1)); it is torsion-free by construction of this generator
    set.  The fundamental domain is ``|Re z| <= 1`` minus the two open disks
    of radius 1/2 centered at -1/2 and 1/2; the reduction's moves are those
    of this one group.  Membership allows ``CONTAINMENT_SLACK``; a reduction
    takes at most ``REDUCTION_CAP`` rounds, as in the flow and ``correlate``.
    """

    # -- membership -------------------------------------------------------
    def contains(self, z):
        """Fundamental-domain membership (closed conditions, with slack)."""
        z = np.asarray(z, dtype=complex)
        ok = _inside(np.atleast_1d(z.real), np.atleast_1d(z.imag))
        return bool(ok[0]) if z.ndim == 0 else ok

    # -- reduction --------------------------------------------------------
    def reduce(self, z, v=1.0 + 0.0j):
        """Reduce (z, tangent v) to the fundamental domain.

        The one-point case of ``_reduce``: v transforms by the derivative
        1/(cz + d)^2 of each move.  A point inside is returned as given.

        Raises
        ------
        NonterminationError
            If ``REDUCTION_CAP`` rounds do not settle the point.
        DomainError
            If Im z <= 0.
        """
        z, v = complex(z), complex(v)
        if self.contains(z):
            return z, v
        if not z.imag > 0.0:
            raise DomainError(f"reduction needs Im z > 0, got z = {z}")
        x, y, ux, uy = (np.array([a]) for a in (z.real, z.imag, v.real / z.imag,
                                                v.imag / z.imag))
        _reduce(x, y, ux, uy, np.zeros(1, dtype=int))
        return complex(x[0], y[0]), complex(y[0] * ux[0], y[0] * uy[0])


def _frame_matrix(z, alpha):
    """SL(2, R) matrix g with g(i) = z and tangent angle alpha at z.

    The tangent angle parametrizes unit tangent vectors as ``v = y e^{i
    alpha}`` (alpha = pi/2 points straight up).  Works on scalars or arrays;
    returns the entries (a, b, c, d).  The time-t flow of (z, alpha) is
    ``(a w + b) / (c w + d)`` with w = i e^t, with tangent ``w / (c w + d)^2``.
    """
    z = np.asarray(z, dtype=complex)
    alpha = np.asarray(alpha, dtype=float)
    y = z.imag
    sy = np.sqrt(y)
    half_psi = 0.5 * (alpha - _HALF_PI)
    c_, s_ = np.cos(half_psi), np.sin(half_psi)
    a = sy * c_ - z.real / sy * s_
    b = sy * s_ + z.real / sy * c_
    c = -s_ / sy
    d = c_ / sy
    return a, b, c, d


def reference_step(x, y, ux, uy, t):
    """Time-t geodesic flow of the tangent vectors y u at z = x + iy, with
    u = ux + i uy = e^{i alpha}, on the upper half-plane (arrays, 1-d out):
    ``z(t) = x + y (ux sinh t + i) / D``, ``D = cosh t - uy sinh t``,
    ``u(t) = (ux + i (uy cosh t - sinh t)) / D``, with the smaller of
    1 +- uy written as ux^2 / the larger."""
    uy = np.atleast_1d(uy)
    p = 1.0 + np.abs(uy)       # 1 + uy where uy >= 0, else 1 - uy
    m = ux * ux / p            # the other one of the two
    down = np.nonzero(uy < 0.0)
    p[down], m[down] = m[down], p[down]
    grow = 0.5 * math.exp(t) * m
    decay = 0.5 * math.exp(-t) * p
    den = grow + decay
    y_t = y / den
    return x + y_t * ux * math.sinh(t), y_t, ux / den, (decay - grow) / den


def _reference_inside(z):
    x, y = z.real, z.imag
    ok = (y > 0.0) & (np.abs(x) <= 1.0 + CONTAINMENT_SLACK)
    for cx in (-0.5, 0.5):
        ok = ok & ((x - cx) ** 2 + y * y >= 0.25 - CONTAINMENT_SLACK)
    return ok


def reference_reduce(z, v):
    """Fundamental-domain reduction of (z, tangent v) arrays in complex
    arithmetic.

    Only points outside the domain move.  A round translates Re z into the
    strip; a point within distance 1 of its nearest cusp c in {0, 1, -1}
    then moves by delta -> delta/(1 + 2k delta), delta = z - c, k =
    floor((Re(-1/delta) + 1)/2); last, a point inside a bubble is inverted.
    v transforms by each move's derivative.
    """
    shape = np.shape(z)
    z = np.array(z, dtype=complex).ravel()
    v = np.array(v, dtype=complex).ravel()
    if not np.all(z.imag > 0.0):
        raise DomainError(f"reduction needs Im z > 0, got z = {z[~(z.imag > 0.0)][0]}")
    r2 = 0.25 - CONTAINMENT_SLACK
    pending = np.flatnonzero(~_reference_inside(z))
    for _ in range(REDUCTION_CAP):
        if pending.size == 0:
            break
        zz = z[pending]
        vv = v[pending]
        x = zz.real                      # a view: writes move zz
        far = np.flatnonzero(np.abs(x) > 1.0 + CONTAINMENT_SLACK)
        x[far] -= 2.0 * np.floor((x[far] + 1.0) / 2.0)
        c = np.round(x)
        delta = zz - c
        k = np.floor(((-1.0 / delta).real + 1.0) / 2.0)
        move = np.flatnonzero((np.abs(delta) < 1.0) & (k != 0.0))
        den = 1.0 + 2.0 * k[move] * delta[move]
        zz[move] = c[move] + delta[move] / den
        vv[move] /= den * den
        in_left = (x + 0.5) ** 2 + zz.imag ** 2 < r2
        left = np.flatnonzero(in_left)
        right = np.flatnonzero(~in_left & ((x - 0.5) ** 2 + zz.imag ** 2 < r2))
        for idx, den in ((left, 2.0 * zz[left] + 1.0), (right, 1.0 - 2.0 * zz[right])):
            zz[idx] /= den
            vv[idx] /= den * den
        z[pending] = zz
        v[pending] = vv
        pending = pending[~_reference_inside(zz)]
    if pending.size:
        raise NonterminationError(f"reference reduction left {pending.size} point(s)")
    return z.reshape(shape), v.reshape(shape)


def reference_correlate(A, B, T_max, dt, n, seed):
    """(values, stderrs) of ``correlate`` with every one of the n Liouville
    samples flowed, reduced and read by A at every time."""
    z, alpha = liouville_samples(n, seed)
    b_vals = np.array(_eval_observable(B, z, alpha), dtype=float)
    x, y = z.real.copy(), z.imag.copy()
    ux, uy = np.cos(alpha), np.sin(alpha)
    work = [np.empty(n) for _ in range(4)]
    values, stderrs = [], []
    for k in range(int(math.floor(T_max / dt + 1e-9)) + 1):
        if k > 0:
            _geodesic_step(x, y, ux, uy, dt, work)
            _reduce(x, y, ux, uy, np.flatnonzero(~_inside(x, y, work=work[:2])))
            np.copyto(z.real, x)
            np.copyto(z.imag, y)
            np.arctan2(uy, ux, out=alpha)
        prod = _eval_observable(A, z, alpha) * b_vals
        values.append(SURFACE_AREA * float(np.mean(prod)))
        stderrs.append(SURFACE_AREA * float(np.std(prod, ddof=1)) / math.sqrt(n)
                       if n > 1 else 0.0)
    return tuple(values), tuple(stderrs)


def lockstep_liouville_samples(n, seed, cap=_REJECTION_CAP):
    """``liouville_samples(n, seed)`` with every pending stream making one
    rejection attempt per Philox call until it accepts."""
    z = np.empty(int(n), dtype=complex)
    alpha = np.empty(int(n))
    for index in _chunks(int(n)):
        start = int(index[0])
        pending = np.arange(index.size)
        words = _philox_block(seed, _STREAM_SAMPLE, index, 1)
        for attempt in range(1, cap + 1):
            # block attempt + 1 holds the angle if this attempt accepts, and
            # the next attempt's uniforms if it rejects
            after = _philox_block(seed, _STREAM_SAMPLE, index[pending], attempt + 1)
            x, y, ok = _accept(words)
            i = np.flatnonzero(ok)
            at = start + pending[i]
            z.real[at] = x[i]
            z.imag[at] = y[i]
            alpha[at] = 2.0 * math.pi * _unit(after[0][i])
            i = np.flatnonzero(~ok)
            pending = pending[i]
            if pending.size == 0:
                break
            words = [w[i] for w in after]
        else:
            raise NonterminationError(
                f"rejection sampling for sample {index[pending[0]]} failed to "
                f"accept within {cap} rounds")
    return z, alpha


# ---------------------------------------------------------------------------
# the integral of a bump over the fundamental domain, in two dimensions
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on
    the Legendre recurrence: to a few ulp, where the eigenvalue nodes of
    ``numpy.polynomial.legendre.leggauss`` shift a 2-D rule by ~1e-14."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-17:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _unit_bump(bump, x, y):
    """The bump's formula at x + iy with amplitude 1 and baseline 0."""
    c = complex(bump.center)
    d = np.arccosh(1.0 + ((x - c.real) ** 2 + (y - c.imag) ** 2) / (2.0 * y * c.imag))
    q = 1.0 - (d / bump.radius) ** 2
    return np.where(q > 0.0, q, 0.0) ** bump.order


def _on(a, b, n):
    """Gauss-Legendre nodes and weights on [a, b] (arrays broadcast)."""
    t, w = gauss_legendre(n)
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    return 0.5 * (a + b) + 0.5 * (b - a) * t, 0.5 * (b - a) * w


def _circle_hits(cx, cy, rho, a, r):
    """x of the points where |z - (cx + i cy)| = rho meets |z - a| = r."""
    dx, dy = a - cx, -cy
    dist = math.hypot(dx, dy)
    if not abs(rho - r) < dist < rho + r:
        return []
    along = (rho * rho - r * r + dist * dist) / (2.0 * dist)
    across = math.sqrt(rho * rho - along * along)
    return [cx + (along * dx + s * across * dy) / dist for s in (1.0, -1.0)]


def disc_bump_integral(bump, n=64):
    """The integral of the bump (not its baseline) over the fundamental
    domain, as a 2-D rule on its support: the Euclidean disc with center
    Re c + i Im c cosh R and radius Im c sinh R, in x = Re center - radius
    cos(phi), cut at x = -1, 0, 1 and where the disc meets a bubble, and in
    y between the disc and the bubble on each piece.  For supports that
    stay out of the cusps."""
    c = complex(bump.center)
    cx, cy = c.real, c.imag * math.cosh(bump.radius)
    rho = c.imag * math.sinh(bump.radius)
    cuts = [-1.0, 0.0, 1.0] + _circle_hits(cx, cy, rho, 0.5, 0.5) + _circle_hits(cx, cy, rho, -0.5, 0.5)
    phis = sorted({0.0, math.pi} | {math.acos((cx - x) / rho) for x in cuts if abs(cx - x) < rho})
    parts = []
    for lo, hi in zip(phis, phis[1:]):
        phi, w_phi = _on(lo, hi, n)
        x = cx - rho * np.cos(phi)
        bottom = np.maximum(cy - rho * np.sin(phi), np.sqrt(np.maximum(np.abs(x) - x * x, 0.0)))
        top = cy + rho * np.sin(phi)
        keep = (np.abs(x) <= 1.0) & (top > bottom)
        y, w_y = _on(np.where(keep, bottom, 0.0), np.where(keep, top, 1.0), n)
        inner = np.sum(_unit_bump(bump, x[..., None], y) / y ** 2 * w_y, axis=-1)
        parts.append(np.sum(np.where(keep, inner * rho * np.sin(phi) * w_phi, 0.0)))
    return math.fsum(parts)


def cusp_chart_bump_integral(bump, n=96):
    """The integral of a bump centered at i (not its baseline) over the
    fundamental domain F, for radii at which the ball holds F's core.

    z -> -1/z and z -> (z - 1)/(z + 1) map F onto F and fix i, so each of
    F's four cusp neighbourhoods -- y >= 2 at infinity, the horodiscs of
    diameter 1/2 at 0 and 1 at +-1 -- carries the integral over the strip
    |x| <= 1, y >= 2, taken in log y.  The core left over lies between the
    horodiscs or bubbles below and y = 2, cut at x = +-1/5 (horodisc at 0
    meets bubble) and x = +-1/2 (bubble meets horodisc at +-1, an arc in its
    own angle).  The bump is even in x, so the core is twice its x >= 0
    half."""
    assert complex(bump.center) == 1j and bump.radius >= 5.0

    def column(x, bottom, top, w_x):
        y, w_y = _on(bottom, top, n)
        return np.sum(_unit_bump(bump, x[:, None], y) / y ** 2 * w_y, axis=1) @ w_x

    x, w = _on(0.0, 0.2, n)
    core = [column(x, 0.25 + np.sqrt(1.0 / 16.0 - x * x), 2.0, w)]
    x, w = _on(0.2, 0.5, n)
    core.append(column(x, np.sqrt(x - x * x), 2.0, w))
    theta, w = _on(0.0, 0.5 * math.pi, n)
    core.append(column(1.0 - 0.5 * np.cos(theta), 0.5 + 0.5 * np.sin(theta), 2.0,
                       0.5 * np.sin(theta) * w))
    x, w_x = _on(-1.0, 1.0, n)
    top = np.log(math.cosh(bump.radius) + np.sqrt(math.sinh(bump.radius) ** 2 - x * x))
    s, w_s = _on(math.log(2.0), top, n)
    y = np.exp(s)
    strip = np.sum(_unit_bump(bump, x[:, None], y) / y * w_s, axis=1) @ w_x
    return 2.0 * math.fsum(core) + 4.0 * strip


def geodesic_velocity(p):
    """Right-hand side (dr/dt, dtheta/dt, dphi/dt) of the cusp geodesic
    system at the phase point p."""
    sp = math.sin(p.phi)
    return (math.cos(p.phi), math.exp(p.r) * sp * p.u, sp)


def four_branch_theta(p0, t):
    """Cross-section point theta(t) of the exact cusp flow from p0, with the
    drift written as four branches: hemisphere of phi0 times sign of t."""
    t = float(t)
    north_side = p0.phi <= 0.5 * math.pi
    half = math.tan(0.5 * p0.phi) if north_side else math.tan(0.5 * (math.pi - p0.phi))
    if north_side:
        if t >= 0.0:
            em = math.exp(-2.0 * t)
            drift = half * (1.0 - em) / (half * half + em)
        else:
            ep = math.exp(2.0 * t)
            drift = half * (ep - 1.0) / (half * half * ep + 1.0)
    else:
        if t >= 0.0:
            em = math.exp(-2.0 * t)
            drift = half * (1.0 - em) / (1.0 + half * half * em)
        else:
            ep = math.exp(2.0 * t)
            drift = half * (ep - 1.0) / (ep + half * half)
    return p0.theta + (math.exp(p0.r) * drift) * p0.u
