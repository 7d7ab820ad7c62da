"""Meromorphic continuation of the cusp resolvent by contour deformation.

The radial model on the half-cylinder couples a translation variable r with
the transverse sphere.  Conjugating the generator by ``exp(lambda r / h)``
freezes r and leaves the one-parameter indicial family

    I(lambda) = lambda cos(phi) + h ( (d/2) cos(phi) + sin(phi) d/dphi + A )

acting on the sphere (see :mod:`cuspflow.indicial`).  For spectral parameter
s, the weighted resolvent along the abscissa rho is the contour transform

    (R_rho f)(r, x) = (1/2 pi) \\int e^{(rho + i eta) r}
                       [I(h(rho + i eta)) - h s]^{-1}  fhat(rho + i eta)  deta,

with ``fhat(w) = \\int e^{-w r} f(r) dr``.  Throughout this module contour
coordinates (``rho``, ``lambda0``, root positions, returned residue
locations) use the h-normalized variable ``w = lambda / h``; only
:func:`solve_indicial` takes the un-normalized ``lambda`` of the displayed
family.  Where the roots sit, which coincide, which a circle encloses or a
strip crosses, and which are visible all come from
:class:`cuspflow.indicial.RootTable`, the one home of the root geometry;
this module enumerates no root levels of its own.

Moving the abscissa across an indicial root picks up the residue operator of
the transform at that root; summing the residues of the *visible* roots (the
finitely many that sit on the wrong side of the axis for the weight to be
tempered) continues the resolvent beyond the axis in s.  The pieces exposed
here:

``solve_indicial``     one tempered sphere solve of (I(lambda) - h s) f = g,
``resolvent_line``     the contour transform along a regular abscissa,
``residue_apply``      the residue operator of one enclosed root, via a small
                       circle in w, as x-profiles,
``residue_pairing``    the same circle's residue paired with a polynomial
                       probe, which sees the rank concentrated at the north
                       pole and the r e^{w0 r} Jordan component; both
                       channels take the solve's one series form (a ring mean
                       about a node near one of its resonances), the paired
                       one as sums of its moments,
``shift_identity``     the two lines at abscissae rho_lo <= rho_hi, the
                       residues of the roots crossed between them and the
                       defect of R_hi - R_lo = sum of those residues,
``continue_resolvent`` the visible-root continuation from one abscissa,
``rho_max``            the visibility radius at one s.

``cuspflow resolvent`` calls ``resolvent_line`` and ``shift_identity``, whose
residue sum calls ``residue_apply``; the other four are library API.
``continue_resolvent`` is the paper's continued resolvent, built from the
residue sum whose shift identity the subcommand checks; ``solve_indicial``
is the paper's indicial solve at one lambda, so that the tests can check the
solve alone; ``residue_pairing`` is the channel that the sums do not expose;
and ``rho_max`` is the visibility bound of the paper's continuation
statement.

Both halves of the contour transform use e^{r w} = e^{r0_b w} e^{(r - r0_b) w}
over blocks of L rows starting at r0_b: (L + n/L) n_w exponentials instead of
n n_w (_exp_table; L = 32, 64 and 128 ran equally fast, and a factor's phase
error grows with L step |Im w|, so L = 64).  fhat reads the whole r-grid.  The
grid is exactly antisymmetric, r_{n-j} = -r_j, so the synthesis works on its
distinct |r| = a, in blocks from a = 0: with C = cos(eta a) @ coeff and
S = sin(eta a) @ coeff, two real products, the rows at r = +-a are
e^{rho r} (C +- i S).  A line's panel quadrature resolves e^{i eta r} only for
|r| <= ContourSpec.r_window(); its field holds only those rows.

A line of real input is folded onto eta > 0.  When s - A is real, and every
poly coefficient and every radial sample of f is real, the mode equation,
fhat and e^{r w} all have real coefficients, so the integrand at conj(w) is
the conjugate of the integrand at w.  The refined eta-nodes are symmetric
about eta = 0, since the minus roots sit at ordinate -Im(s - A) = 0 and
every panel holds an even number of nodes.  The line is therefore 2 Re of
the sum over its eta > 0 nodes: :func:`resolvent_line` keeps that half with
doubled weights, which halves the profile solves and fhat, and synthesizes
only the real part, e^{rho r} (cos @ Re coeff -+ sin @ Im coeff), so the field
is exactly real.  The half defines its mirror image, so the symmetry does not
depend on the roundoff of the panel edges.  Any other input takes every node
and the complex synthesis; the choice reads the input and has no option.

Inputs live on the sphere as finite sums of separated terms
``P(cos phi) sin(phi)^m u^mu`` (:class:`SphereFunction`), or on the cylinder
with an additional radial amplitude per term (:class:`CuspFunction`).
Outputs are gridded fields (:class:`CuspField`) carrying error-estimate
metadata.  All lambda-solves over a contour are independent; they are
evaluated in deterministic vectorized batches, so results are reproducible
run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._jets import RadialSeries
from ._sphere import panel_nodes
from .errors import (
    ContourOnRootError,
    InvalidEnclosureError,
    NearSingularError,
    PoleError,
    ToleranceError,
    ValidationError,
)
from .indicial import ModelOperator, RootTable, mode_exponents

__all__ = [
    "X_MAX",
    "ModeTerm",
    "SphereFunction",
    "SphereSolution",
    "CuspTerm",
    "CuspFunction",
    "CuspField",
    "ContourSpec",
    "ResidueOperator",
    "ResidueOutput",
    "default_r_grid",
    "solve_indicial",
    "resolvent_line",
    "residue_apply",
    "residue_pairing",
    "ShiftIdentity",
    "shift_identity",
    "continue_resolvent",
    "rho_max",
]

# Evaluation grids stay a fixed distance below the north pole x = 1, where
# generic solutions carry the algebraic singularity (1 - x)^{a+}.
X_MAX = 1.0 - 5e-3

_MODE_CAP = 8           # largest transverse mode order accepted
_SERIES_EDGE = 0.2      # x_c, where the south series meets the north form
_N_SERIES = 150         # Taylor order of either series (radius 2; |y| <= 1.2 at S, 0.8 at N)
_EXP_CLAMP = 650.0      # largest exponent magnitude accepted in ratio form
_ROOT_GUARD = 1e-8      # pointwise-solve exclusion distance, w units
_ABSCISSA_GUARD = 1e-6  # abscissa-to-root real-part separation, w units
_CROSSING_GUARD = 1e-8  # continuation exclusion distance to s-crossings
_RES_GUARD = 2e-2       # |a+ - i| past which the series loses < 1e-13 of F (_series_form)
_RING_NODES = 32        # trapezoid nodes on that ring
_R_BLOCK = 64           # r-grid rows per block of the e^{r w} table
_STRIP_HALF_WIDTH = 0.1  # widest strip around the axis roots, w units
# Roots closer than this share one residue circle, whose two-term expansion
# drops ~ (r gap)^2; two circles of radius 0.35 gap lose ~ 1e-17/gap instead.
_CLUSTER_GAP = 2e-6
_CLUSTER_TOL = 1e-6     # largest third_moment_rel * r^2/2 accepted for such a circle
_TAIL_TOL = 1e-9        # contour_tail_rel up to which a line reports tail_ok
_CIRCLE_NODES = 24      # trapezoid nodes on a residue circle


def _taylor_shift(poly, x0: complex) -> np.ndarray:
    """Coefficients of P(x0 + z) in powers of z."""
    poly = np.asarray(poly, complex).ravel()
    out = np.zeros(poly.size, complex)
    for k in range(poly.size):
        ck = poly[k]
        if ck == 0:
            continue
        for j in range(k + 1):
            out[j] += ck * math.comb(k, j) * x0 ** (k - j)
    return out


# ---------------------------------------------------------------------------
# Input / output containers
# ---------------------------------------------------------------------------


def _validate_term(d: int, m: int, mu, poly) -> tuple:
    if not (0 <= int(m) <= _MODE_CAP):
        raise ValidationError(
            f"transverse mode order m={m} outside the supported band 0..{_MODE_CAP}"
        )
    mu = tuple(int(v) for v in mu)
    if len(mu) != d or any(v < 0 for v in mu):
        raise ValidationError(f"angular multi-index {mu} invalid for d={d}")
    poly = tuple(complex(cv) for cv in poly)
    if len(poly) == 0:
        raise ValidationError("empty profile polynomial")
    return mu, poly


@dataclass(frozen=True)
class ModeTerm:
    """One separated sphere term  P(cos phi) sin(phi)^m u^mu.

    m    : power of sin(phi) (0..8)
    mu   : angular monomial multi-index over the d ambient coordinates of u
    poly : coefficients of P in x = cos(phi), ascending
    """

    m: int
    mu: tuple
    poly: tuple


@dataclass(frozen=True)
class SphereFunction:
    """A finite sum of separated terms on the transverse sphere."""

    d: int
    terms: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"need d >= 1, got d={self.d}")
        fixed = []
        for t in self.terms:
            mu, poly = _validate_term(self.d, t.m, t.mu, t.poly)
            fixed.append(ModeTerm(m=int(t.m), mu=mu, poly=poly))
        object.__setattr__(self, "terms", tuple(fixed))


@dataclass(frozen=True)
class CuspTerm:
    """One separated cylinder term  a(r) P(cos phi) sin(phi)^m u^mu."""

    m: int
    mu: tuple
    poly: tuple
    radial: object  # vectorized callable r -> complex amplitude


@dataclass(frozen=True)
class CuspFunction:
    """A finite sum of separated terms on the half-cylinder."""

    d: int
    terms: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"need d >= 1, got d={self.d}")
        fixed = []
        for t in self.terms:
            mu, poly = _validate_term(self.d, t.m, t.mu, t.poly)
            if not callable(t.radial):
                raise ValidationError("CuspTerm.radial must be callable")
            fixed.append(CuspTerm(m=int(t.m), mu=mu, poly=poly, radial=t.radial))
        object.__setattr__(self, "terms", tuple(fixed))


def _x_grid(x_grid) -> np.ndarray:
    """The angular grid of a solve: ``x_grid`` as floats, or 64 points on [-1, X_MAX]."""
    return np.linspace(-1.0, X_MAX, 64) if x_grid is None else np.asarray(x_grid, float)


def default_r_grid(span: float = 30.0, n: int = 4096) -> np.ndarray:
    """n points of step 2 span / n from -span, as step (j - n/2): exactly
    antisymmetric, r_{n-j} = -r_j for 0 < j < n, so only r_0 = -span is unpaired."""
    step = 2.0 * span / n
    return step * (np.arange(n) - n / 2)


@dataclass
class CuspField:
    """A gridded field on the half-cylinder, one value block per input term.

    keys holds the (m, mu) of each term and values its block, of shape
    (r_grid.size, x_grid.size); the full scalar field at an angular point u
    is the sum of values * sin(phi)^m * u^mu over the terms,
    phi = arccos(x_grid).  A contour line's r_grid is the rows of the
    transform grid that its quadrature resolves (:func:`resolvent_line`).
    meta holds what a line or :func:`continue_resolvent` reports of itself; a
    sum or difference of fields carries none.
    """

    d: int
    r_grid: np.ndarray
    x_grid: np.ndarray
    keys: tuple
    values: tuple
    meta: dict = field(default_factory=dict)

    def scalar_values(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, float))
        sx = np.sqrt(np.maximum(0.0, 1.0 - self.x_grid**2))
        out = np.zeros((self.r_grid.size, self.x_grid.size), complex)
        for (m, mu), vals in zip(self.keys, self.values):
            ang = float(np.prod(u ** np.asarray(mu)))
            out += vals * (sx**m)[None, :] * ang
        return out

    def _binary(self, other: "CuspField", sign: float) -> "CuspField":
        if not isinstance(other, CuspField):
            raise ValidationError("can only combine with another CuspField")
        if (self.d, self.keys) != (other.d, other.keys):
            raise ValidationError("field term structures differ")
        for name in ("r_grid", "x_grid"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine.shape != theirs.shape or not np.allclose(mine, theirs):
                raise ValidationError(f"field {name[0]}-grids differ")
        return CuspField(d=self.d, r_grid=self.r_grid, x_grid=self.x_grid, keys=self.keys,
                         values=tuple(v1 + sign * v2 for v1, v2 in zip(self.values, other.values)))

    def __add__(self, other):
        return self._binary(other, +1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)


# ---------------------------------------------------------------------------
# The per-mode tempered solve
# ---------------------------------------------------------------------------
#
# On the mode  F(x) sin(phi)^m u^mu  the family reduces to the first-order ODE
#
#     -h (1 - x^2) F'(x) + (h c x + h e) F(x) = G(x),
#     c = lambda/h + d/2 + m,   e = A - s,
#
# whose homogeneous solution is w(x) = (1-x)^{a+} (1+x)^{a-} with
# a+ = -(c+e)/2, a- = (e-c)/2.  The tempered branch is regular at the south
# pole x = -1: on x <= x_c = _SERIES_EDGE it is its Taylor series in y = 1 + x
# (radius 2), and on x > x_c the Frobenius form at the north pole (Olver,
# Asymptotics and Special Functions, ch. 5), the particular series P_N analytic
# there in y = 1 - x plus the jump F(x_c) - P_N(1 - x_c) carried by the ratio
# w(x) / w(x_c).  P_N has a pole where a+ is an integer i >= 0 (a resonance, not
# a root: F itself is analytic in lambda there), and a lambda near one takes
# the mean of the series form over a ring about it (Trefethen & Weideman,
# SIAM Rev. 56, 2014).


def _series_coeffs(op: ModelOperator, c, a, b, n_terms: int) -> np.ndarray:
    """Taylor coefficients in the distance y to a pole of the mode solution
    analytic there, b those of the source: c_i = (b_i - h (i - 1 + c) c_{i-1})
    / (2 h (a - i)).  At S (y = 1 + x, a = a-) the south-regular solution; at
    N (y = 1 - x, a = a+) the signs mirror, so minus it is the particular one.
    Rows of a (n_lam each) and of b are separate expansions, solved together:
    shape (rows, n_lam, n_terms)."""
    h = op.h
    coeff, prev = np.empty((n_terms,) + a.shape, complex), 0.0
    for i in range(n_terms):
        bi = b[:, i, None] if i < b.shape[1] else 0.0
        prev = coeff[i] = (bi - h * (i - 1 + c) * prev) / (2.0 * h * (a - i))
    return np.moveaxis(coeff, 0, -1)


def _series_eval(coeff: np.ndarray, y: np.ndarray) -> np.ndarray:
    powers = y[None, :] ** np.arange(coeff.shape[1])[:, None]
    return coeff @ powers


def _north(poly) -> np.ndarray:
    """Coefficients of poly(1 - y) in y."""
    return _taylor_shift(poly, 1.0) * (-1.0) ** np.arange(len(poly))


def _series_form(op: ModelOperator, s: complex, m: int, poly, lams, evaluate) -> np.ndarray:
    """evaluate(a+, a-, coeff, dpart, jump), one row per lambda of lams: the
    south series coeff in y = 1 + x, the north particular series dpart in
    y = 1 - x, and the jump F(x_c) - P_N(1 - x_c) that matches them at x_c.

    A lambda with a+ within _RES_GUARD of an integer 0 <= i < _N_SERIES, and
    within R/16 of it, takes the mean of evaluate over _RING_NODES points on
    a circle of radius R/4 about it, R the smaller of its distance to the
    nearest root and the resonance spacing 2 (w units).
    """
    lams = np.asarray(lams, complex).ravel()
    a_p = mode_exponents(op, s, m, lams)[2]
    level = np.round(a_p.real)
    dist = np.abs(a_p - level)
    near = np.flatnonzero((dist < _RES_GUARD) & (level >= 0) & (level < _N_SERIES))
    reach = np.array([min(RootTable(op, s).nearest(lam / op.h)[3], 2.0) for lam in lams[near]])
    # in a+ the ring's radius is reach/8, so it keeps reach/16 clear of the
    # resonance when |a+ - i| <= reach/16; past that the series' own roundoff,
    # ~ 1e-16 min(reach, 1) / |a+ - i|, is no larger than the ring's
    ours = dist[near] <= reach / 16.0
    near, radius = near[ours], op.h * reach[ours] / 4.0
    clear = np.delete(np.arange(lams.size), near)
    rings = lams[near, None] + np.multiply.outer(
        radius, np.exp(2j * math.pi * np.arange(_RING_NODES) / _RING_NODES))
    nodes = np.concatenate([lams[clear], rings.ravel()])
    c, _, a_p, a_m = mode_exponents(op, s, m, nodes)
    coeff, north = _series_coeffs(op, c, np.stack([a_m, a_p]),
                                  np.stack([_taylor_shift(poly, -1.0), _north(poly)]), _N_SERIES)
    dpart = -north
    k = np.arange(_N_SERIES)
    jump = coeff @ (1.0 + _SERIES_EDGE) ** k - dpart @ (1.0 - _SERIES_EDGE) ** k
    vals = evaluate(a_p, a_m, coeff, dpart, jump)
    out = np.empty((lams.size,) + vals.shape[1:], vals.dtype)
    out[clear] = vals[: clear.size]
    out[near] = vals[clear.size :].reshape((near.size, _RING_NODES) + vals.shape[1:]).mean(axis=1)
    return out


def _solve_mode_profiles(op: ModelOperator, s: complex, m: int, poly, lams,
                         x_eval) -> np.ndarray:
    """Tempered mode profiles F(x) at x_eval, shape (n_lam, n_x).

    lams are the un-normalized lambda values of the displayed family.
    """
    x_eval = np.asarray(x_eval, float).ravel()
    if x_eval.size and (float(x_eval.max()) > X_MAX + 1e-12 or float(x_eval.min()) < -1.0 - 1e-12):
        raise ValidationError(
            f"evaluation grid must lie in [-1, {X_MAX}]; got "
            f"[{x_eval.min()}, {x_eval.max()}]"
        )
    south = x_eval <= _SERIES_EDGE
    xn = x_eval[~south]
    dl1 = np.log1p(-xn) - math.log(1.0 - _SERIES_EDGE)
    dl2 = np.log1p(xn) - math.log(1.0 + _SERIES_EDGE)

    def profiles(a_p, a_m, coeff, dpart, jump):
        # the carry w(x) / w(x_c) in ratio form
        expo = np.multiply.outer(a_p, dl1) + np.multiply.outer(a_m, dl2)
        worst = float(expo.real.max(initial=-np.inf))
        if worst > _EXP_CLAMP:
            raise ToleranceError(
                f"ratio-form exponent {worst:.1f} exceeds the representable budget {_EXP_CLAMP}; "
                "the requested weight/abscissa combination is out of range for double precision")
        # exp before the matrix products: right after them it ran 15x slower (AVX-512 Xeon)
        carry = jump[:, None] * np.exp(expo)
        out = np.empty((a_p.size, x_eval.size), complex)
        out[:, south] = _series_eval(coeff, 1.0 + x_eval[south])
        out[:, ~south] = _series_eval(dpart, 1.0 - xn) + carry
        return out

    return _series_form(op, s, m, poly, lams, profiles)


# ---------------------------------------------------------------------------
# solve_indicial
# ---------------------------------------------------------------------------


@dataclass
class SphereSolution:
    """The tempered solution of (I(lambda) - h s) f = g on the sphere."""

    op: ModelOperator
    s: complex
    lam: complex
    terms: tuple
    x_grid: np.ndarray
    profiles: tuple  # per-term arrays (n_x,)


def solve_indicial(
    op: ModelOperator,
    s: complex,
    lam: complex,
    g: SphereFunction,
    x_grid=None,
) -> SphereSolution:
    """Solve (I(lambda) - h s) f = g for the tempered branch on the sphere.

    lam is the un-normalized spectral weight of the displayed family.  Raises
    NearSingularError (carrying the offending root) when lam / h is within
    1e-8 of the root set at this s, where the tempered solve degenerates.

    It carries the paper's indicial solve at one lambda: the tier-1 tests
    check through it the finite-difference residual, linearity, the root
    guard, the 1/h scaling and boundedness along a contour.  The CLI's lines
    and residues solve whole batches of lambda in ``_solve_mode_profiles``,
    so no package path calls it.
    """
    if not isinstance(g, SphereFunction):
        raise ValidationError("g must be a SphereFunction")
    if g.d != op.d:
        raise ValidationError(f"dimension mismatch: g.d={g.d}, op.d={op.d}")
    table = RootTable(op, s)
    sign, n, val, dist = table.nearest(complex(lam) / op.h)
    if dist < _ROOT_GUARD:
        raise NearSingularError(
            f"lambda={complex(lam)} lies within {_ROOT_GUARD}*h of the indicial "
            f"root {val * op.h} (branch {sign:+d}, level {n}) at s={complex(s)}",
            root=table.root(sign, n),
        )
    xg = _x_grid(x_grid)
    profiles = tuple(
        _solve_mode_profiles(op, s, t.m, t.poly, [lam], xg)[0] for t in g.terms
    )
    return SphereSolution(
        op=op,
        s=s,
        lam=complex(lam),
        terms=g.terms,
        x_grid=xg,
        profiles=profiles,
    )


# ---------------------------------------------------------------------------
# Contour transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """A vertical contour Re w = rho in the normalized variable w = lambda/h.

    rho      : abscissa (w units)
    height   : truncation half-height of the eta-integral
    panels   : number of Gauss-Legendre panels (order 16 each) on [-H, H]
    """

    rho: float
    height: float = 40.0
    panels: int = 48

    def __post_init__(self):
        if not self.height > 0:
            raise ValidationError(f"need height > 0, got {self.height}")
        if self.panels < 4:
            raise ValidationError(f"need panels >= 4, got {self.panels}")

    def r_window(self) -> float:
        """|r| up to which the panel quadrature resolves e^{i eta r}."""
        return 11.2 * self.panels / self.height


def _narrow_window(contour: ContourSpec, reach: float, what: str) -> ValidationError:
    """The error for a contour whose window |r| <= r_window() stops short of
    |r| = reach, naming the smallest panel count at its height that reaches it."""
    return ValidationError(
        f"the contour resolves |r| <= {contour.r_window():g} (panels={contour.panels}, "
        f"height={contour.height:g}), short of {what} at |r| = {reach:g}; at this "
        f"height that needs panels >= {math.ceil(reach * contour.panels / contour.r_window())}")


def _refined_eta_nodes(op: ModelOperator, s: complex, contour: ContourSpec):
    """Panel nodes on [-H, H], refined near the ordinates of minus-branch
    roots that lie close to the contour line.

    The pointwise profile family w -> v_w has simple poles exactly at the
    minus-branch roots; when such a root sits within one panel height of
    Re w = rho the integrand spikes on an eta-scale equal to the horizontal
    gap, which uniform panels cannot resolve.  Edges are inserted in a
    geometric ladder around the root ordinate so every panel is at least as
    far from the pole as it is wide.  Returns (eta, weights, base_panel).
    """
    H, P = contour.height, contour.panels
    hpanel = 2.0 * H / P
    edges = list(np.linspace(-H, H, P + 1))
    table = RootTable(op, s)
    eta0 = -table.base.imag  # shared ordinate of every minus root
    if abs(eta0) < H:
        ladder = table.abscissa_gap(contour.rho, signs=(-1,))
        if ladder < hpanel:
            d = max(ladder / 2.0, 1e-7)
            edges.append(eta0)
            while d < hpanel:
                if abs(eta0 + d) < H:
                    edges.append(eta0 + d)
                if abs(eta0 - d) < H:
                    edges.append(eta0 - d)
                d *= 2.0
    arr = np.asarray(sorted(edges))
    keep = np.concatenate([[True], np.diff(arr) > 1e-11 * max(H, 1.0)])
    arr = arr[keep]
    arr[-1] = H
    eta, wq = panel_nodes(arr, 16)
    return eta, wq, hpanel


def _grid_step(r: np.ndarray) -> float:
    """The step of an equispaced grid from its two rows nearest 0: 2 span / n
    exactly on a default_r_grid, where r[1] - r[0] carries the rounding of span."""
    k = int(np.argmin(np.abs(r[:-1])))
    return r[k + 1] - r[k]


def _exp_table(r: np.ndarray, wl: np.ndarray) -> tuple:
    """(T, E) with e^{r_j w} = E[b] T[i] at grid row j = b L + i, L = _R_BLOCK:
    T[i] = e^{i step w} and E[b] = e^{r0_b w} with r0_b = r[b L]."""
    return (np.exp(np.outer(_grid_step(r) * np.arange(_R_BLOCK), wl)),
            np.exp(np.outer(r[::_R_BLOCK], wl)))


def _radial_samples(term: CuspTerm, r: np.ndarray) -> np.ndarray:
    """term.radial on the r-grid: one complex sample per grid point."""
    a = np.asarray(term.radial(r), complex)
    if a.shape != r.shape:
        raise ValidationError(
            f"CuspTerm.radial returned shape {a.shape} on an r-grid of {r.size} "
            "points; it must return one value per point")
    return a


def _fhat(a: np.ndarray, r: np.ndarray, table: tuple) -> np.ndarray:
    """Trapezoid transform fhat(w) = int e^{-w r} a(r) dr of the samples a
    of a radial amplitude on the r-grid.

    The one transform of the contour lines and the residue circles: with
    e^{-r_j w} = T[L-1-i] / (E[b] T[L-1]), each block of a, zero-padded to
    L rows and reversed, meets the _exp_table factor T once.
    """
    T, E = table
    a = np.concatenate([a, np.zeros(-a.size % _R_BLOCK, complex)])
    blocks = a.reshape(-1, _R_BLOCK)[:, ::-1]
    return _grid_step(r) * ((blocks @ T) / E).sum(axis=0) / T[-1]


def _synthesis(r: np.ndarray, rows: slice, rho: float, eta: np.ndarray, coeff: np.ndarray,
               real: bool) -> np.ndarray:
    """sum_k e^{r_j (rho + i eta_k)} coeff[k] on the rows r[rows] of a
    default_r_grid, or its real part when ``real``: row j sits at
    r_j = +-a[|2j - n| // 2] on the grid's distinct |r|, a = -r[n//2::-1], and
    each L-row block of a from a = 0 gives the rows at +-a from the real
    products C = cos(eta a) @ coeff and S = sin(eta a) @ coeff."""
    n, L = r.size, _R_BLOCK
    j = np.arange(rows.start, rows.stop)
    k = np.abs(2 * j - n) // 2
    a = -r[n // 2 :: -1][: k.max() - k.max() % L + L]
    T, E = _exp_table(a, 1j * eta)
    # real: Re and Im of coeff; else each complex column as its (re, im) pair of real ones
    rhs = (coeff.real.copy(), coeff.imag.copy()) if real else (coeff.copy().view(float),) * 2
    sides = np.empty((2, a.size, coeff.shape[1]), float if real else complex)  # r = -a, +a
    for start, e in zip(range(0, a.size, L), E):
        phase = T[: a.size - start] * e
        c, s = phase.real.copy() @ rhs[0], phase.imag.copy() @ rhs[1]
        c, s = (c, -s) if real else (c.view(complex), 1j * s.view(complex))  # (Re) C, i S
        rho_a = rho * a[start : start + L, None]
        sides[0, start : start + L] = np.exp(-rho_a) * (c - s)
        sides[1, start : start + L] = np.exp(rho_a) * (c + s)
    return sides[(2 * j >= n).astype(int), k]


def resolvent_line(op: ModelOperator, s: complex, contour: ContourSpec, f: CuspFunction,
                   x_grid=None, r_span: float = 30.0, n_r: int = 4096) -> CuspField:
    """The weighted resolvent along a regular abscissa, as a gridded field.

    fhat reads the radial samples on the whole grid of n_r points over
    [-r_span, r_span); the field holds only the grid rows with
    |r| <= contour.r_window(), the ones the panel quadrature resolves, and
    the synthesis and, on its columns, the truncation-tail estimate cover
    only the blocks of |r| that hold them.  Real input (s - A, every poly
    coefficient and every radial sample real) is transformed on the eta > 0
    nodes alone and gives a real field (the fold of the module docstring).
    Raises ValidationError when a radial amplitude does not return one value
    per r-grid point, or when the window holds no grid row.

    Raises ContourOnRootError when some indicial root has Re within 1e-6 of
    contour.rho, where the line ceases to separate the root set.
    """
    if not isinstance(f, CuspFunction):
        raise ValidationError("f must be a CuspFunction")
    if f.d != op.d:
        raise ValidationError(f"dimension mismatch: f.d={f.d}, op.d={op.d}")
    roots = RootTable(op, s)
    gap = roots.abscissa_gap(contour.rho)
    if gap < _ABSCISSA_GUARD:
        raise ContourOnRootError(
            f"abscissa rho={contour.rho} passes within {gap:.3e} of an indicial "
            f"root's real part at s={complex(s)}; move the contour"
        )
    xg = _x_grid(x_grid)
    r = default_r_grid(r_span, n_r)
    rows = np.flatnonzero(np.abs(r) <= contour.r_window())
    if rows.size == 0:
        raise _narrow_window(contour, float(np.abs(r).min()), "the nearest r-grid point")
    rows = slice(rows[0], rows[-1] + 1)
    r_out = r[rows]
    samples = [_radial_samples(term, r) for term in f.terms]
    eta, wq, base_panel = _refined_eta_nodes(op, s, contour)
    # real input: the eta < 0 nodes give the conjugates of the eta > 0 ones
    fold = (roots.base.imag == 0.0
            and all(c.imag == 0.0 for term in f.terms for c in term.poly)
            and all(not a.imag.any() for a in samples))
    if fold:
        keep = eta > 0.0
        eta, wq = eta[keep], 2.0 * wq[keep]
    wl = contour.rho + 1j * eta
    tail_sel = np.abs(eta) >= contour.height - base_panel - 1e-12
    tail_rel = 0.0
    values = []
    table = _exp_table(r, wl)
    for term, a in zip(f.terms, samples):
        fh = _fhat(a, r, table)
        prof = _solve_mode_profiles(op, s, term.m, term.poly, op.h * wl, xg)
        coeff = (wq * fh)[:, None] * prof  # (n_q, n_x)
        vals = _synthesis(r, rows, contour.rho, eta, coeff, fold) / (2.0 * math.pi)
        tails = _synthesis(r, rows, contour.rho, eta[tail_sel], coeff[tail_sel],
                           fold) / (2.0 * math.pi)
        if fold:
            vals = vals.astype(complex)
        bad = r_out[~np.isfinite(vals).all(axis=1)]
        if bad.size:
            raise ToleranceError(
                f"the resolvent line at rho={contour.rho!r} is not finite on {bad.size} of "
                f"its rows, r={float(bad[0])!r} to r={float(bad[-1])!r}")
        scale = float(np.abs(vals).max()) or 1.0
        tail_rel = float(np.maximum(tail_rel, np.abs(tails).max() / scale))  # NaN propagates
        values.append(vals)
    meta = {"contour_tail_rel": tail_rel, "tail_ok": tail_rel <= _TAIL_TOL,
            "r_window": contour.r_window()}
    return CuspField(d=op.d, r_grid=r_out, x_grid=xg, keys=tuple((t.m, t.mu) for t in f.terms),
                     values=tuple(values), meta=meta)


# ---------------------------------------------------------------------------
# Residue operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueOperator:
    """A small positively-oriented circle |w - lambda0| = eps in w = lambda/h.

    s       : spectral parameter the root table is evaluated at
    lambda0 : circle center (w units)
    eps     : circle radius
    """

    s: complex
    lambda0: complex
    eps: float = 1e-2

    def __post_init__(self):
        if not self.eps > 0:
            raise ValidationError(f"need eps > 0, got {self.eps}")


@dataclass
class ResidueOutput:
    """The pointwise residue of f at one enclosed root:  e^{w0 r} (H0 + r H1)
    per term, keys as in :class:`CuspField`, H0 and H1 x-profiles on x_grid.

    The part of the residue concentrated at the north pole (the Dirac-jet
    family of the plus branch) has zero pointwise trace on interior grids, so
    these profiles see only the south-branch rank; :func:`residue_pairing`
    sees the rank and Jordan structure that the jets carry.
    third_moment_rel is that of :func:`_residue_moments`.
    """

    d: int
    lambda0: complex
    keys: tuple
    x_grid: np.ndarray
    H0: tuple
    H1: tuple
    third_moment_rel: float

    def field(self, r_grid) -> CuspField:
        r = np.asarray(r_grid, float)
        ex = np.exp(self.lambda0 * r)
        values = tuple(ex[:, None] * (h0[None, :] + r[:, None] * h1[None, :])
                       for h0, h1 in zip(self.H0, self.H1))
        return CuspField(d=self.d, r_grid=r, x_grid=self.x_grid, keys=self.keys, values=values)


def _validate_enclosure(op: ModelOperator, res_op: ResidueOperator) -> None:
    """The circle must cleanly separate one root location, or one cluster of
    locations closer than _CLUSTER_GAP, from the other roots."""
    w0, eps = complex(res_op.lambda0), res_op.eps
    inside = []
    for loc in RootTable(op, res_op.s).in_disc(w0, 2.0 * eps):
        dist = abs(loc.value - w0)
        if dist >= 0.8 * eps:
            raise InvalidEnclosureError(
                f"root at w={loc.value} sits at distance {dist:.3e} from the "
                f"circle center, within [0.8, 2] x eps={eps}; shrink eps or "
                "recenter"
            )
        inside.append(loc)
    if max((abs(loc.value - inside[0].value) for loc in inside),
           default=0.0) >= _CLUSTER_GAP:
        raise InvalidEnclosureError(
            f"circle of radius {eps} at w={w0} encloses {len(inside)} distinct "
            f"root locations at least {_CLUSTER_GAP} apart; shrink eps"
        )


def _residue_moments(res_op: ResidueOperator, op: ModelOperator, f: CuspFunction,
                     r_span: float, n_r: int, mode_values) -> tuple:
    """(H0, H1, third_moment_rel) of the circle res_op applied to f: per term,
    the first two circle moments of mode_values(term, lams) * fhat, one row
    per node lambda (un-normalized), and the largest third moment relative
    to them.

    The moments are trapezoid sums over _CIRCLE_NODES nodes, spectrally
    accurate in the node count; H1 is nonzero exactly when the enclosed point
    carries a second-order pole (the Jordan crossings), producing the
    r e^{w0 r} component.  Around a cluster of roots closer than
    _CLUSTER_GAP they are the two-term expansion about lambda0, and
    third_moment_rel measures the first term it drops.  A node near a
    resonance of the north particular series takes the ring mean of
    :func:`_series_form` in either channel, so the nodes are fixed.
    """
    if not isinstance(f, CuspFunction):
        raise ValidationError("f must be a CuspFunction")
    if f.d != op.d:
        raise ValidationError(f"dimension mismatch: f.d={f.d}, op.d={op.d}")
    _validate_enclosure(op, res_op)
    w0, eps = complex(res_op.lambda0), res_op.eps
    r = default_r_grid(r_span, n_r)

    theta = 2.0 * math.pi * (np.arange(_CIRCLE_NODES) + 0.37) / _CIRCLE_NODES
    wl = w0 + eps * np.exp(1j * theta)
    table = _exp_table(r, wl)
    H0, H1, m2_rel = [], [], 0.0
    for term in f.terms:
        fh = _fhat(_radial_samples(term, r), r, table)
        g_vals = mode_values(term, op.h * wl) * fh[:, None]
        m0, m1, m2 = (eps**k * np.mean(np.exp(1j * k * theta)[:, None] * g_vals, axis=0)
                      for k in (1, 2, 3))
        # moments below 1e-12 of eps^k max |g| are roundoff of the mean (a
        # residue that vanishes by parity): not a scale for m2, and not an m2
        # np.max and np.maximum propagate a NaN, which Python's max can drop
        floor = 1e-12 * np.abs(g_vals).max()
        scale = np.max([np.abs(m0).max(), np.abs(m1).max(), floor * eps, 1e-300])
        top = np.abs(m2).max()
        m2_rel = float(np.maximum(m2_rel, np.where(top <= floor * eps**3, 0.0, top) / scale))
        H0.append(m0)
        H1.append(m1)
    return tuple(H0), tuple(H1), m2_rel


def residue_apply(res_op: ResidueOperator, op: ModelOperator, f: CuspFunction,
                  x_grid=None, r_span: float = 30.0, n_r: int = 4096) -> ResidueOutput:
    """The pointwise residue of the root that res_op encloses, applied to f:
    H0/H1 gridded on x_grid (:func:`_residue_moments`)."""
    xg = _x_grid(x_grid)
    H0, H1, m2_rel = _residue_moments(
        res_op, op, f, r_span, n_r,
        lambda term, lams: _solve_mode_profiles(op, res_op.s, term.m, term.poly, lams, xg))
    return ResidueOutput(d=op.d, lambda0=complex(res_op.lambda0),
                         keys=tuple((t.m, t.mu) for t in f.terms), x_grid=xg,
                         H0=H0, H1=H1, third_moment_rel=m2_rel)


def residue_pairing(res_op: ResidueOperator, op: ModelOperator, f: CuspFunction, q_poly,
                    r_span: float = 30.0, n_r: int = 4096) -> tuple:
    """(H0, H1), one value per term of f: the residue of the root that res_op
    encloses, applied to f and paired with the probe Q(x) (coefficients
    q_poly, ascending) against the per-term weight (1-x^2)^{m + d/2 - 1},
    continued across the north pole (:func:`_paired_mode_values`).  It sees
    the rank at the north pole that :func:`residue_apply` misses."""
    H0, H1, _ = _residue_moments(
        res_op, op, f, r_span, n_r,
        lambda term, lams: _paired_mode_values(op, res_op.s, term.m, term.poly, lams,
                                               tuple(q_poly))[:, None])
    return np.concatenate(H0), np.concatenate(H1)


# -- the paired (distribution) channel --------------------------------------


def _binomial_series(p, q_y, n: int) -> np.ndarray:
    """The first n Taylor coefficients in y of (2 - y)^p Q(y), Q given by its
    coefficients q_y in y; an array p gives one row per entry."""
    series = np.multiply.outer(2.0 ** p, 0.5 ** np.arange(n)) * np.array(
        RadialSeries.binomial(p, n - 1).coeffs).T
    out = np.zeros_like(series, dtype=complex)
    for k, qk in enumerate(q_y[:n]):
        out[..., k:] += qk * series[..., : n - k]
    return out


def _moments(series, e, y: float) -> np.ndarray:
    """int_0^y t^e S(t) dt = sum_j S_j y^{e+j+1} / (e+j+1) for each row S of
    series, term by term: the continuation in e of the moment past Re e = -1
    (Gel'fand & Shilov, Generalized Functions I, ch. I sec. 3), with poles
    where e + j + 1 = 0."""
    k = e[..., None] + np.arange(1, series.shape[-1] + 1)
    return np.sum(series * np.exp(k * math.log(y)) / k, axis=-1)


def _paired_mode_values(op: ModelOperator, s: complex, m: int, poly, lams: np.ndarray,
                        q_poly: tuple) -> np.ndarray:
    """<F_lam, Q>_beta = int_{-1}^{1} F_lam Q (1-x^2)^beta dx, continued.

    beta = m + d/2 - 1 (the mode's own sin-power joined with the sphere
    volume weight).  Each piece is a sum of term-by-term moments
    (:func:`_moments`) of power series, split at x_c = _SERIES_EDGE: on
    [-1, x_c] the south series of the solve times that of (2-y)^beta Q in
    y = 1 + x; on [x_c, 1], in y = 1 - x, the north form of the solve
    (:func:`_series_form`), P_N plus K (1-x)^{a+} (1+x)^{a-} with K the jump
    at x_c over w(x_c).  The homogeneous part's moment denominators
    a+ + beta + j + 1 vanish exactly on the plus-branch root condition
    a+ + d/2 + m = -j.
    """
    beta = m + op.d / 2.0 - 1.0
    y_s, y_n = 1.0 + _SERIES_EDGE, 1.0 - _SERIES_EDGE
    k = np.arange(_N_SERIES)
    # Q (1-x^2)^beta = y^beta (2-y)^beta Q(x) on either side
    south = _moments(_binomial_series(beta, _taylor_shift(q_poly, -1.0), _N_SERIES), beta + k, y_s)
    north = _moments(_binomial_series(beta, _north(q_poly), _N_SERIES), beta + k, y_n)

    def paired(a_p, a_m, coeff, dpart, jump):
        K = jump / np.exp(a_p * math.log(y_n) + a_m * math.log(y_s))
        return (coeff @ south + dpart @ north
                + K * _moments(_binomial_series(a_m + beta, _north(q_poly), _N_SERIES),
                               a_p + beta, y_n))

    return _series_form(op, s, m, poly, lams, paired)


# ---------------------------------------------------------------------------
# Visible roots and the continued resolvent
# ---------------------------------------------------------------------------


def rho_max(op: ModelOperator, s: complex) -> float:
    """max(0, |Re w|) over the visible roots at s (w units); the level-0
    roots, at |Re w| = -Re(s - A + d/2), are the farthest out."""
    return max(0.0, -RootTable(op, s).base.real)


def _crossing_check(op: ModelOperator, s: complex):
    """Raise PoleError when s sits on an equal-parity branch collision."""
    j = RootTable(op, s).collision(_CROSSING_GUARD)
    if j is not None:
        raise PoleError(
            f"s={complex(s)} lies within {_CROSSING_GUARD} of the root-crossing "
            f"set (branch levels summing to {j} collide); the "
            "continued resolvent has a pole here",
            j=j,
            k=0,
        )


def _auto_residue(op: ModelOperator, s: complex, cluster) -> ResidueOperator:
    """The circle at the mean of the root locations ``cluster`` (one, or a few
    closer than _CLUSTER_GAP): radius 1e-2, shrunk to 0.35 times the distance
    to the nearest other root."""
    w0 = cluster[0] if len(cluster) == 1 else sum(cluster) / len(cluster)
    gaps = [abs(loc.value - w0) for loc in RootTable(op, s).in_disc(w0, 1.0)
            if min(abs(loc.value - w) for w in cluster) > 1e-10]
    return ResidueOperator(s=s, lambda0=w0, eps=min([1e-2] + [0.35 * g for g in gaps]))


def _defect_window(r_span: float) -> float:
    """Half-width in r of the window where :func:`shift_identity` reads its defect."""
    return min(10.0, r_span / 3.0)


def _residue_sum(op, s, f, locations, xg, r_span, n_r, r) -> CuspField:
    """The summed residue fields of the root locations on the rows r of a
    line, one _auto_residue circle per cluster of locations closer than
    _CLUSTER_GAP, each transforming f on the whole grid (r_span, n_r); raises
    ToleranceError naming the roots when a cluster's two-term expansion drops
    a term whose field error, third_moment_rel * r^2/2 on the defect window
    of :func:`shift_identity`, is above _CLUSTER_TOL."""
    clusters: list = []
    for w in sorted((loc.value for loc in locations), key=lambda w: w.real):
        if clusters and abs(w - clusters[-1][-1]) < _CLUSTER_GAP:
            clusters[-1].append(w)
        else:
            clusters.append([w])
    r_edge = _defect_window(r_span)
    total = CuspField(d=op.d, r_grid=r, x_grid=xg, keys=tuple((t.m, t.mu) for t in f.terms),
                      values=tuple(np.zeros((r.size, xg.size), complex) for _ in f.terms))
    for cluster in clusters:
        res = residue_apply(_auto_residue(op, s, cluster), op, f, x_grid=xg,
                            r_span=r_span, n_r=n_r)
        dropped = 0.5 * r_edge**2 * res.third_moment_rel
        if len(cluster) > 1 and not dropped <= _CLUSTER_TOL:
            raise ToleranceError(
                f"the roots at w={cluster[0]:.12g} and w={cluster[-1]:.12g}, "
                f"{abs(cluster[-1] - cluster[0]):.3e} apart, share one residue circle "
                f"whose expansion drops a third moment of {res.third_moment_rel:.3e}, "
                f"a field error of {dropped:.3e} at |r| = {r_edge:g}")
        total = total + res.field(r)
    return total


@dataclass
class ShiftIdentity:
    """R_lo and R_hi (one field when the abscissae agree), the RootTable.strip
    locations crossed between them by real part, their summed residue field,
    and the defect: max |R_hi - R_lo - residues| over |r| <= min(10, r_span/3)
    relative to the larger of max |R_hi| and max |residues| there."""

    lo: CuspField
    hi: CuspField
    crossed: tuple
    residues: CuspField
    defect: float


def shift_identity(op: ModelOperator, s: complex, f: CuspFunction, rho_lo: float,
                   rho_hi: float, x_grid=None, r_span: float = 30.0, n_r: int = 4096,
                   contour: ContourSpec | None = None) -> ShiftIdentity:
    """R_hi - R_lo = sum of the residues at the roots with rho_lo < Re w < rho_hi.

    Each distinct abscissa is transformed once, along ``contour`` (default
    ContourSpec) with its rho replaced, and the residues are evaluated on the
    rows the lines resolve.  Raises ValidationError, naming the panel count
    that would do, when the contour's r_window() is narrower than the defect
    window.
    """
    if not rho_lo <= rho_hi:
        raise ValidationError(f"need rho_lo <= rho_hi, got {rho_lo} > {rho_hi}")
    xg = _x_grid(x_grid)
    base = ContourSpec(rho=rho_lo) if contour is None else contour
    if base.r_window() < _defect_window(r_span):
        raise _narrow_window(base, _defect_window(r_span), "the shift identity's defect window")
    lines = {rho: resolvent_line(op, s, replace(base, rho=rho), f, x_grid=xg,
                                 r_span=r_span, n_r=n_r)
             for rho in dict.fromkeys((rho_lo, rho_hi))}
    lo, hi = lines[rho_lo], lines[rho_hi]
    crossed = tuple(sorted(RootTable(op, s).strip(rho_lo, rho_hi),
                           key=lambda loc: loc.value.real))
    residues = _residue_sum(op, s, f, crossed, xg, r_span, n_r, lo.r_grid)
    diff = hi - lo - residues
    window = np.abs(lo.r_grid) <= _defect_window(r_span)
    # rows diff, hi, residues; np.max propagates a NaN, which Python's max can drop
    peaks = np.array([[np.abs(vals[window]).max() for vals in field.values]
                      for field in (diff, hi, residues)])
    defect = peaks[0].max() / np.maximum(peaks[1:].max(), 1e-300)
    return ShiftIdentity(lo, hi, crossed, residues, float(defect))


def continue_resolvent(op: ModelOperator, s: complex, f: CuspFunction, x_grid=None,
                       r_span: float = 30.0, n_r: int = 4096,
                       contour: ContourSpec | None = None) -> CuspField:
    """The continued resolvent at s, beyond the axis of absolute convergence:

        R(s) = R_rho(s) - sum_{plus locations, Re w < rho} B
                        + sum_{minus locations, Re w > rho} B,

    B the residues.  rho = 0 when no root has |Re w| < 1e-6 (meta branch
    'regular'); else (branch 'patched') rho = -w for the strip |Re w| < w,
    w = min(0.1, half the real gap to the nearest root off the axis), which
    holds only the axis roots.  The same sum from +w differs from this one by
    the shift-identity defect across the strip (:func:`shift_identity`).
    ``contour`` (default ContourSpec) sets the line's height and panels, and
    with them the rows |r| <= r_window() the field holds.
    Raises PoleError when s sits within 1e-8 of the root-crossing set, where
    the continuation itself has a pole.
    """
    _crossing_check(op, s)
    xg = _x_grid(x_grid)
    table = RootTable(op, s)
    rho, branch = 0.0, "regular"
    if table.abscissa_gap(0.0) < _ABSCISSA_GUARD:
        gap = table.abscissa_gap(0.0, beyond=_ABSCISSA_GUARD)
        rho, branch = -min(_STRIP_HALF_WIDTH, 0.5 * gap), "patched"
    # plus roots lie at Re w >= Re base, minus roots at Re w <= -Re base
    reach = abs(table.base.real) + 1.0
    plus = [loc for loc in table.strip(-reach, rho) if any(sg > 0 for sg, _ in loc.members)]
    minus = [loc for loc in table.strip(rho, reach) if any(sg < 0 for sg, _ in loc.members)]
    base = ContourSpec(rho=rho) if contour is None else contour
    line = resolvent_line(op, s, replace(base, rho=rho), f, x_grid=xg, r_span=r_span, n_r=n_r)
    out = (line - _residue_sum(op, s, f, plus, xg, r_span, n_r, line.r_grid)
           + _residue_sum(op, s, f, minus, xg, r_span, n_r, line.r_grid))
    out.meta = {"branch": branch, "abscissa": rho, "corrections": len(plus) + len(minus)}
    return out
