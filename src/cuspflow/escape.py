"""Weight and escape-function construction for the cusp geodesic flow (d = 1).

This module builds, on the constant-curvature full cusp, the slowly varying
weight ``m`` and the escape function ``G`` used to control the lifted geodesic
flow on the cotangent bundle of the unit sphere bundle, together with a
sampled certificate of the defining inequalities.

Geometry of the construction
----------------------------
The lifted flow acts diagonally on covector components in the dual invariant
frame: with components ``(xi_0, xi_u, xi_s)`` (flow-dual, growing, decaying),

    ``Phi_t: (xi_0, xi_u, xi_s) -> (xi_0, e^t xi_u, e^{-t} xi_s)``

while the base point moves by the geodesic flow.  Every ingredient below is
0- or 1-homogeneous in the covector and invariant under the cusp's local
isometries, so the whole construction descends to the reduced space

    ``(alpha in S^1) x (xihat in S^2)``

where ``alpha`` is the flow-direction angle and ``xihat`` the unit covector
direction in the dual frame.  On that reduced space the flow is the product of
``d alpha/dt = sin(alpha)`` with the projective linear flow on the sphere; both
have closed forms, so all transports here are exact up to floating point.

The weight is a flow average of smoothed cone indicators,

    ``m = (m_T^+ + m_T^-)/2,   m_T^+ = int_{-T}^{T} m0_+ (Phi~_t) dt``,

computed by composite Simpson quadrature.  Because every cone distance evolves
monotonically along reduced trajectories, the integrand is nondecreasing along
every flow line; consequently finite differences of the computed average along
the flow are nonnegative *exactly* (to roundoff), and at step equal to the
quadrature step they telescope to endpoint clusters, reproducing the saturated
values of the smoothed indicators with no quadrature noise (the derivative is
evaluated from those clusters: six flows).  Each of the four cone profiles is
exactly 0 or 1 outside a closed-form transition window, so its sum over the
nodes outside the window is a prefix sum of the Simpson weights; only the
(node, direction) pairs inside are transported, in blocks that bound the
memory (see ``_weight_average``).  The sum runs profile by profile, so it
agrees with a node-by-node loop to roundoff, not bitwise.

The elliptic symbol ``f`` is the log-averaged frame norm glued log-linearly
with the flow-invariant ``|p|`` near the flow-dual directions, and

    ``G = C_G' [1 - chi(|xi|/delta)] m(xihat) log(2 f / (c_f delta))``.

``verify`` samples the defining inequalities of ``G`` at the construction
grid's directions (the angle fiber, along which every quantity here is
constant, is not sampled) and emits a JSON-serializable certificate with
margins, witnesses, evaluation counts and all constants, so the quantifier
structure (which constant depends on which) is auditable.

Directions are validated and normalized once, where they enter: in the public
methods and where this module builds its own samples.  The kernels
(``_weight_average``, ``_weight_derivative``, ``_glued_hat``,
``_symbol_log_derivative``) take unit rows as given, such as the step-shifted
rows that ``_sphere_flow`` returns normalized.

``Phi_t`` commutes with the sign flip of each dual-frame component, and every
cone distance, log-norm and stretch here reads only ``|xi_i|``, so the
weight, its flow derivative and the glued symbol factor are bitwise invariant
under the eight sign patterns.  ``_weight_average``, ``_weight_derivative``
and ``_glued_hat`` rely on that: each evaluates once per distinct row of
``|x|`` (``_per_magnitude_row``).  The midpoint grids are exactly closed under
the flips (``_midpoint_circle``), so an n-direction grid costs about n/8
kernel rows (n/4 at odd ``n_phi``), and so do its step-flowed rows in
``verify``.  A kernel that reads a signed component must not be wrapped.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, UnsupportedDimensionError, ValidationError
from .geometry import (PhasePoint, apply_local_isometry, direction_angle,
                       splitting_frame_at)

__all__ = [
    "ReducedPhaseGrid",
    "WeightField",
    "SymbolField",
    "EscapeData",
    "EscapeCertificate",
    "estimate_tau_max",
    "build_weight",
    "build_f",
    "assemble_G",
    "verify",
]

# Contraction rate of the decaying dual line in constant curvature -1.
BETA = 1.0

# Frame-comparison constant of the decaying dual line, sup_t e^{beta t} times
# its contraction factor e^{-t}: the frame action is exactly diagonal and
# beta = 1, so the supremum is 1 at every t.  Reported in the certificate.
FRAME_CONSTANT = 1.0

# Flow-average quadrature step, shared by the weight and symbol averages and
# by the along-flow finite differences (so that the weight's difference
# quotients telescope; see module docstring).
FLOW_STEP = 0.05

# Default averaging window of the glued symbol.
DEFAULT_T_PRIME = 2.0

# Largest number of (node, direction) pairs in one flow-average block.
_BLOCK_ELEMENTS = 1 << 14

# Widening, in quadrature steps, of each closed-form transition window of the
# cone profiles on both sides (see ``_transition_windows``).
_WINDOW_MARGIN = 2.0

# Longest time ``estimate_tau_max`` transports a direction toward its cone.
_TRANSPORT_HORIZON = 200.0

# Most step nodes the horizon may hold (step >= 2e-4): 1/step arrays stay under 8 MB.
_MAX_HORIZON_NODES = 1e6

# Largest t with e^t a finite float.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# scalar profiles
# ---------------------------------------------------------------------------

def _smoothstep(v):
    """Polynomial step: 0 for v <= 0, 1 for v >= 1, quintic in between."""
    v = np.clip(v, 0.0, 1.0)
    return v * v * v * (10.0 + v * (6.0 * v - 15.0))


def _band_profile(dist, eps):
    """Mollified indicator of a ``2 eps`` cone neighbourhood.

    Radial profile of the convolution of the indicator of ``{dist < 2 eps}``
    with a polynomial bump of width ``eps/2``: equals 1 for
    ``dist <= 1.75 eps``, 0 for ``dist >= 2.25 eps``, and steps smoothly in
    between.
    """
    return _smoothstep((2.25 * eps - dist) / (0.5 * eps))


def _chi_cutoff(u):
    """Even cutoff, 1 on [-1/2, 1/2], supported in (-1, 1)."""
    return _smoothstep(2.0 * (1.0 - np.abs(u)))


def _glue_profile(dist0, eps):
    """Partition weight of the ``|p|`` piece of the symbol.

    Equals 1 for ``dist0 <= 1.5 eps`` (covering the invariant cone where the
    symbol must be a function of p alone) and 0 for ``dist0 >= 2.5 eps``.
    """
    return _smoothstep((2.5 * eps - dist0) / eps)


# ---------------------------------------------------------------------------
# sphere distances and the reduced flow
# ---------------------------------------------------------------------------

def _as_unit_rows(xihat):
    """Validate/normalize an (..., 3) array of sphere directions."""
    x = np.atleast_2d(np.asarray(xihat, dtype=float))
    if x.shape[-1] != 3:
        raise ValidationError(
            f"covector directions need 3 dual-frame components, got shape {x.shape}")
    n = np.sqrt((x * x).sum(axis=-1))
    if np.any(n <= 0.0) or not np.all(np.isfinite(n)):
        raise ValidationError("covector directions must be nonzero and finite")
    return x / n[..., None]


def _magnitude_rows(x):
    """The distinct rows of |x|, and for each row of x the index of its own,
    grouped by one lexsort (several times cheaper than np.unique(axis=0))."""
    a = np.abs(x).reshape(-1, 3)
    order = np.lexsort(a.T)
    a = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = np.any(a[1:] != a[:-1], axis=1)
    slot = np.empty(len(a), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    return a[first], slot


def _per_magnitude_row(kernel):
    """Wrap a kernel of unit rows so that it evaluates ``kernel(x, *args)``
    once per distinct row of |x| and scatters the values back in row order.
    The kernel must read rows only through their magnitudes (see the module
    docstring) and give each row a value independent of the rest of the
    batch.  Only the distinct rows and indices live while the kernel runs."""
    @functools.wraps(kernel)
    def evaluate(x, *args):
        rows, slot = _magnitude_rows(x)
        return kernel(rows, *args)[slot].reshape(x.shape[:-1])
    return evaluate


def _dist_u(x):
    """Angle to the nearest growing-dual pole (0, +-1, 0)."""
    return np.arctan2(np.hypot(x[..., 0], x[..., 2]), np.abs(x[..., 1]))


def _dist_s(x):
    """Angle to the nearest decaying-dual pole (0, 0, +-1)."""
    return np.arctan2(np.hypot(x[..., 0], x[..., 1]), np.abs(x[..., 2]))


def _dist_0(x):
    """Angle to the nearest flow-dual pole (+-1, 0, 0)."""
    return np.arctan2(np.hypot(x[..., 1], x[..., 2]), np.abs(x[..., 0]))


def _dist_0s(x):
    """Angle to the great circle {xi_u = 0} (flow-dual + decaying plane)."""
    return np.arctan2(np.abs(x[..., 1]), np.hypot(x[..., 0], x[..., 2]))


def _dist_0u(x):
    """Angle to the great circle {xi_s = 0} (flow-dual + growing plane)."""
    return np.arctan2(np.abs(x[..., 2]), np.hypot(x[..., 0], x[..., 1]))


def _sphere_flow(x, t):
    """Projective diagonal flow on unit directions: scale and renormalize."""
    return _scaled_unit(x, math.exp(t), math.exp(-t))


def _stretch(x, t):
    """Norm growth factor |diag(1, e^t, e^{-t}) xihat| for unit xihat."""
    return _scaled_norm(x, math.exp(t), math.exp(-t))


def _scaled_unit(x, grow, decay):
    """diag(1, grow, decay) x, renormalized.  The factors broadcast against
    ``x[..., 0]``, so (k, 1) columns of factors give k flowed copies of x."""
    w = np.empty(np.broadcast_shapes(np.shape(grow), x.shape[:-1]) + (3,))
    w[..., 0] = x[..., 0]
    w[..., 1] = x[..., 1] * grow
    w[..., 2] = x[..., 2] * decay
    if max(np.max(grow), np.max(decay)) > 1e150:
        # past |t| ~ 345 the squares would over- or underflow; an exact
        # power-of-two rescale of each row keeps them finite
        w = np.ldexp(w, -np.frexp(np.abs(w).max(axis=-1, keepdims=True))[1])
    n = np.sqrt((w * w).sum(axis=-1))
    return w / n[..., None]


def _scaled_norm(x, grow, decay):
    """|diag(1, grow, decay) x|, with the factors broadcast as above."""
    if max(np.max(grow), np.max(decay)) > 1e150:
        # the squares would overflow, as in _scaled_unit; np.hypot squares nothing
        return np.hypot(np.hypot(x[..., 0], x[..., 1] * grow), x[..., 2] * decay)
    return np.sqrt(x[..., 0] ** 2 + (x[..., 1] * grow) ** 2
                   + (x[..., 2] * decay) ** 2)


def _frame_components(point, covector):
    """Components of a cusp-coordinate covector on the dual invariant frame
    (flow-dual, growing, decaying) at a d = 1 phase point."""
    if point.d != 1:
        raise UnsupportedDimensionError(
            "the lifted flow and the escape function are implemented for d = 1")
    xi = np.asarray(covector, dtype=float)
    if xi.shape != (3,):
        raise ValidationError(f"covector must have 3 components, got shape {xi.shape}")
    f0, st, un = splitting_frame_at(point.r, direction_angle(point))
    return np.array([xi @ f0, xi @ st, xi @ un])


# ---------------------------------------------------------------------------
# reduced grid
# ---------------------------------------------------------------------------

def _midpoint_circle(n, turn):
    """cos and sin of the midpoint angles turn * (k + 1/2) / n, k < n, for a
    half turn (pi) or a full turn (2 pi).  Each reflection that maps the
    midpoints to themselves (a -> pi - a on a half turn; a -> 2 pi - a on a
    full turn, and a -> pi - a there at even n) flips signs exactly, where the
    rounded angles would not: cos(fl(pi - a)) is not -cos(a) in floating
    point.  The mirrored entries are read from the smaller angles, so they
    are at least as close to the exact midpoints as before."""
    a = turn * (np.arange(n) + 0.5) / n
    c, s = np.cos(a), np.sin(a)
    # (mirrored prefix length, sign of cos, sign of sin), the inner one first
    if turn == np.pi:
        flips = [(n, -1.0, 1.0)]
    else:
        flips = [(n // 2, -1.0, 1.0)] * (n % 2 == 0) + [(n, 1.0, -1.0)]
    for m, c_sign, s_sign in flips:
        # entries k and m - 1 - k become mirrors; a middle one keeps its value
        h = m // 2
        c[m - h:m] = c_sign * c[:h][::-1]
        s[m - h:m] = s_sign * s[:h][::-1]
    return c, s


def _midpoint_sphere(n_theta, n_phi):
    """Midpoint latitude-longitude direction set (no point on invariant sets),
    closed under the flow-dual and decaying sign flips, and the growing one
    at even ``n_phi``, except at self-mirror angles (see ``_midpoint_circle``)."""
    ct, st = _midpoint_circle(n_theta, np.pi)
    cp, sp = _midpoint_circle(n_phi, _TWO_PI)
    return np.column_stack([
        np.repeat(ct, n_phi),
        np.outer(st, cp).ravel(),
        np.outer(st, sp).ravel(),
    ])


@dataclass(frozen=True)
class ReducedPhaseGrid:
    """Direction grid on the reduced space (alpha in S^1) x (xihat in S^2).

    The direction sphere is parametrized by colatitude from the flow-dual
    axis and azimuth in the (growing, decaying) plane; both coordinates use
    midpoint values so no grid point lies exactly on an invariant set.  Every
    quantity built here reads only ``xihat``, so the angle circle is exactly
    degenerate and is not sampled; that makes the isometry invariance exact
    by representation.  ``xihat`` holds the (n_theta * n_phi, 3) unit
    directions.

    Parameters
    ----------
    n_theta, n_phi : int
        Resolution of the direction sphere.
    eps : float
        Cone-neighbourhood width.  The mollified indicators extend to
        ``2.25 eps``, so the construction needs ``4.5 eps < pi/2``.
    delta : float
        Small-scale cutoff under which the escape function is switched off.
    """

    n_theta: int = 32
    n_phi: int = 32
    eps: float = 0.15
    delta: float = 1e-3
    xihat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_theta", "n_phi"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 2:
                raise ValidationError(f"{name} must be an integer >= 2, got {n!r}")
        if not (0.0 < self.eps < _HALF_PI):
            raise ValidationError(f"eps must lie in (0, pi/2), got {self.eps}")
        if not (0.0 < self.delta):
            raise ValidationError(f"delta must be positive, got {self.delta}")
        xihat = _midpoint_sphere(self.n_theta, self.n_phi)
        object.__setattr__(self, "xihat", xihat)
        both = self.in_cone_u(xihat) & self.in_cone_0s(xihat)
        if np.any(both):
            raise ConfigurationError(
                "cone neighbourhoods overlap on the grid: widths eps = "
                f"{self.eps} put {int(both.sum())} sampled directions in both "
                "the growing-dual and flow+decaying neighbourhoods")

    # -- cone neighbourhood memberships (on unit direction rows) -----------
    def in_cone_u(self, x):
        """Membership in the eps-neighbourhood of the growing-dual poles."""
        return _dist_u(_as_unit_rows(x)) < self.eps

    def in_cone_s(self, x):
        """Membership in the eps-neighbourhood of the decaying-dual poles."""
        return _dist_s(_as_unit_rows(x)) < self.eps

    def in_cone_0s(self, x):
        """Membership in the eps-neighbourhood of the flow+decaying circle."""
        return _dist_0s(_as_unit_rows(x)) < self.eps

    def in_cone_0u(self, x):
        """Membership in the eps-neighbourhood of the flow+growing circle."""
        return _dist_0u(_as_unit_rows(x)) < self.eps

    def as_dict(self):
        """Plain-data description (resolution and widths)."""
        return {
            "n_theta": int(self.n_theta),
            "n_phi": int(self.n_phi),
            "eps": float(self.eps),
            "delta": float(self.delta),
        }


def _require_construction(grid: ReducedPhaseGrid, step):
    """The mollified bands (up to 2.25 eps) around the growing-dual poles and
    the flow+decaying circle must not meet, being pi/2 apart, and the flow
    step must be positive and put at most _MAX_HORIZON_NODES nodes on the
    transport horizon, checked before any array sized by 1/step exists."""
    if 4.5 * grid.eps >= _HALF_PI:
        raise ConfigurationError(
            f"cone neighbourhoods overlap: eps = {grid.eps} needs 4.5*eps < pi/2 "
            "for the mollified indicators to have disjoint supports")
    if step <= 0.0:
        raise ValidationError(f"step must be positive, got {step}")
    nodes = _TRANSPORT_HORIZON / step
    if not nodes <= _MAX_HORIZON_NODES:
        raise ValidationError(
            f"step = {step!r} puts {nodes:.6g} nodes on the transport horizon "
            f"{_TRANSPORT_HORIZON}; at most {_MAX_HORIZON_NODES:.0e} are allowed, so "
            f"step >= {_TRANSPORT_HORIZON / _MAX_HORIZON_NODES!r}")


# ---------------------------------------------------------------------------
# transition-time estimate
# ---------------------------------------------------------------------------

def _swapped(y):
    """Exchange the growing and decaying dual-frame components."""
    return y[..., [0, 2, 1]]


def estimate_tau_max(grid: ReducedPhaseGrid, step=FLOW_STEP):
    """Empirical maximal transition time between the cone neighbourhoods.

    Transports every grid direction outside one neighbourhood until its cone
    membership flips (entering the attracting neighbourhood): forward into the
    growing-dual cone, backward into the flow+decaying band, backward into the
    decaying-dual cone, forward into the flow+growing band.  The worst time
    over the grid is doubled for safety.  A direction that has not entered
    by ``_TRANSPORT_HORIZON`` raises ``ConfigurationError``.

    Backward transports are run as forward transports of the swapped data:
    exchanging the growing and decaying components conjugates the sphere flow
    to its time reversal.  Times are counted in steps, t_k being k steps
    summed one at a time; the first entry step k comes from the closed-form
    crossing (``_cone_crossing``) and is confirmed by the membership of the
    flowed direction at t_{k-1} and t_k.  The grid and the step are checked
    first (``_require_construction``), before the step nodes are allocated.
    """
    _require_construction(grid, step)
    x = grid.xihat
    lc = 2.0 * math.log(math.tan(grid.eps))
    times = np.add.accumulate(np.full(int(_TRANSPORT_HORIZON / step) + 2, step))
    # up to the first t_k >= the horizon
    n_steps = int(np.searchsorted(times, _TRANSPORT_HORIZON)) + 1
    worst = 0.0
    same = lambda y: y
    legs = (
        # outside the flow+decaying band, forward into the growing-dual cone
        (grid.in_cone_0s, _dist_u, same, False),
        # outside the growing-dual cone, backward into the flow+decaying band
        (grid.in_cone_u, _dist_0s, _swapped, True),
        # outside the flow+growing band, backward into the decaying-dual cone
        (grid.in_cone_0u, _dist_s, _swapped, False),
        # outside the decaying-dual cone, forward into the flow+growing band
        (grid.in_cone_s, _dist_0u, same, True),
    )
    for in_start_cone, dist, frame, band in legs:
        y = frame(x[~in_start_cone(x)])
        if not y.size:
            continue

        def entered(k):
            t = times[k - 1]
            return dist(frame(_scaled_unit(y, np.exp(t), np.exp(-t)))) < grid.eps

        with np.errstate(divide="ignore", invalid="ignore"):
            entry = _cone_crossing(np.log(np.abs(y)).T, lc, band, band)
        k = np.minimum(np.searchsorted(times, entry, "right") + 1, n_steps)
        while np.any(late := (k > 1) & entered(np.maximum(k - 1, 1))):
            k -= late
        while np.any(early := ~entered(k) & (k < n_steps)):
            k += early
        missed = int(np.count_nonzero(~entered(k)))
        if missed:
            raise ConfigurationError(
                f"{missed} sampled directions did not reach the target cone "
                f"within transport time {_TRANSPORT_HORIZON}")
        worst = max(worst, float(times[k.max() - 1]))
    return 2.0 * worst


# ---------------------------------------------------------------------------
# flow-averaged weight
# ---------------------------------------------------------------------------

def _simpson_rule(T, step):
    """Composite-Simpson nodes on [-T, T] and the weight pattern
    1, 4, 2, 4, ..., 4, 1: the weights are step/3 times the pattern, whose
    prefix sums are exact integers.

    Requires 2T to be an (even-count) multiple of the step; callers snap T to
    the step grid, which makes the interval count 2*(T/step), always even.
    """
    if not T + step <= _LOG_FLOAT_MAX:  # the derivative flows to +-(T + step)
        raise ValidationError(
            f"averaging window T = {T} is too long: e^(T + step) must be a "
            f"finite float, so T + step <= {_LOG_FLOAT_MAX:.6f}")
    n_intervals = int(round(2.0 * T / step))
    if n_intervals < 2 or n_intervals % 2:
        raise ValidationError(
            f"averaging window T = {T} is not compatible with step {step}")
    if abs(n_intervals * step - 2.0 * T) > 1e-9 * max(1.0, T):
        raise ValidationError(
            f"averaging window T = {T} must be a multiple of the step {step}")
    nodes = -T + step * np.arange(n_intervals + 1)
    pattern = np.full(n_intervals + 1, 2.0)
    pattern[1::2] = 4.0
    pattern[0] = pattern[-1] = 1.0
    return nodes, pattern


def _snap_to_step(T, step):
    """Smallest step multiple >= T (within roundoff)."""
    return step * math.ceil(T / step - 1e-9)


# Distances read by the cone profiles P_p = _band_profile(dist_p), in the row
# order of ``_transition_windows``; each is an angle, so its argument need not
# be normalized.  The cone integrand 0.5 * ((P_0 - P_1) + (P_2 - P_3)) is
# nondecreasing along every flow line (each distance is monotone), +1 at the
# growing-dual poles, -1 at the decaying-dual poles and 0 at the flow-dual ones.
_PROFILE_DISTANCES = (_dist_u, _dist_0s, _dist_0u, _dist_s)


def _crossing_time(la, lb):
    """Half the log of the positive root of y^2 - A y - B = 0 (A, B >= 0),
    from ``la = log A`` and ``lb = log B``, evaluated in log space so that no
    power of a tiny or huge component under- or overflows."""
    log_y = np.logaddexp(la, 0.5 * np.logaddexp(2.0 * la, math.log(4.0) + lb))
    return 0.5 * (log_y - math.log(2.0))


def _cone_crossing(logs, lc, band, swap):
    """Time at which the flow of directions with component log-magnitudes
    ``logs = (l0, l1, l2)`` crosses the level ``lc = log tan^2`` of a cone edge
    around the growing-dual poles, or with ``band`` around the flow+decaying
    circle (see ``_transition_windows``).  With ``swap`` the growing and
    decaying components are exchanged, which reverses time: the decaying-dual
    poles and the flow+growing circle.  A NaN time takes the never-crossing
    limit, +inf before the swap (see ``_transition_windows``)."""
    l0, near, far = (logs[0], logs[2], logs[1]) if swap else logs
    lc = lc if band else -lc
    t = _crossing_time(2.0 * (l0 - near) + lc, 2.0 * (far - near) + lc)
    t[np.isnan(t)] = np.inf
    return -t if swap else t


def _transition_windows(x, eps, margin):
    """Times outside which each cone profile of the flowed x is saturated.

    Returns ``(lo, hi)``, each of shape (4, n), with rows in the order of
    ``_PROFILE_DISTANCES``: growing-dual poles, flow+decaying band,
    flow+growing band, decaying-dual poles.  On row p the profile is exactly
    0 or 1 at every time outside ``[lo[p], hi[p]]``: the even rows, which
    enter the cone integrand with a plus sign, are 1 past ``hi[p]``, and the
    odd rows are 1 before ``lo[p]``.  With y = e^{2t} and c = tan^2 of a band
    edge (1.75 eps or 2.25 eps),

        tan^2 dist_u = (x0^2 y + x2^2) / (x1^2 y^2) = c
            <=>  y^2 - (x0^2 / (c x1^2)) y - x2^2 / (c x1^2) = 0,
        sin^2 dist_0s = x1^2 y^2 / (x0^2 y + x1^2 y^2 + x2^2) = c / (1 + c)
            <=>  y^2 - (c x0^2 / x1^2) y - c x2^2 / x1^2 = 0,

    each with one positive root; the other two profiles follow by the
    growing<->decaying swap, which reverses time.  Each distance is monotone
    in t, so its two edge times bound its band.  Windows are widened by
    ``margin`` on both sides; infinite edges are exact.  A NaN edge is
    inf - inf from a zero near component (growing on rows 0-1, decaying on
    rows 2-3): that distance is constant, the profile exactly 0 (pole rows)
    or 1 (band rows), and both edges take the never-crossing limit, +inf
    before the swap.
    """
    lc_in = 2.0 * math.log(math.tan(1.75 * eps))
    lc_out = 2.0 * math.log(math.tan(2.25 * eps))
    # (band, swap, level of the lo edge, level of the hi edge) per row: a pole
    # profile meets its outer edge first, a band profile its inner one, and a
    # swapped row runs backward in time, so its edges trade places
    rows = ((False, False, lc_out, lc_in), (True, False, lc_in, lc_out),
            (True, True, lc_out, lc_in), (False, True, lc_in, lc_out))
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.abs(x)).T
        lo = np.stack([_cone_crossing(logs, lc, band, swap) for band, swap, lc, _ in rows])
        hi = np.stack([_cone_crossing(logs, lc, band, swap) for band, swap, _, lc in rows])
    return lo - margin, hi + margin


def _windowed_average(x, times, pattern, eps, margin):
    """0.5 * ((S_0 - S_1) + (S_2 - S_3)) at the n directions x, where S_p
    sums ``pattern[j]`` times cone profile p of the time-``times[j]`` flow
    of x over ascending ``times``.

    Outside its window (``_transition_windows``) a profile is a step, so its
    sum there is a difference of prefix sums of the pattern, read at the
    window edges.  Only the (direction, node) pairs inside are transported,
    for one distance each, in blocks of about ``_BLOCK_ELEMENTS / 4`` pairs
    (which bounds the memory), and summed per direction with ``bincount``.
    """
    # nodes before each window, and nodes up to its end
    first, stop = (np.searchsorted(times, edge, side) for edge, side in
                   zip(_transition_windows(x, eps, margin), ("left", "right")))
    prefix = np.concatenate(([0.0], np.cumsum(pattern)))
    grow = np.array([math.exp(t) for t in times])
    decay = np.array([math.exp(-t) for t in times])
    sums = []
    for p, dist in enumerate(_PROFILE_DISTANCES):
        # the even rows are 1 past their windows, the odd rows before them
        s = prefix[-1] - prefix[stop[p]] if p % 2 == 0 else prefix[first[p]]
        count = stop[p] - first[p]
        ends = np.cumsum(count)
        offset = first[p] + count - ends   # node index minus flat pair index
        # direction blocks of a quarter of _BLOCK_ELEMENTS pairs (plus one
        # direction's): a pair holds about four times a log average's temporaries
        block = _BLOCK_ELEMENTS // 4
        cuts = np.searchsorted(ends, np.arange(block, count.sum(), block), "right")
        for d0, d1 in zip([0, *cuts], [*cuts, len(x)]):
            d = np.repeat(np.arange(d0, d1), count[d0:d1])
            if not d.size:
                continue
            j = offset[d]
            j += np.arange(ends[d0] - count[d0], ends[d1 - 1])
            y = x[d]
            y[:, 1] *= grow[j]
            y[:, 2] *= decay[j]
            v = _band_profile(dist(y), eps)
            s += np.bincount(d, pattern[j] * v, minlength=len(x))
        sums.append(s)
    return 0.5 * ((sums[0] - sums[1]) + (sums[2] - sums[3]))


@_per_magnitude_row
def _weight_average(x, T, step, eps):
    """Composite-Simpson flow average of the cone integrand over [-T, T].

    Each cone distance is monotone along the flow and crosses its band edges
    (1.75 eps, 2.25 eps) at closed-form times (``_transition_windows``).
    Widened by ``_WINDOW_MARGIN`` steps on both sides, a window holds every
    node at which the computed distance can fall strictly inside its band:
    there it moves at rate at least sin(2 dist)/2, so a few ulps of roundoff
    shift a crossing by far less than a step.  Outside its window a profile
    is exactly 0 or 1 (``_smoothstep`` clips), so only the nodes inside are
    evaluated (``_windowed_average``), and none for a profile that a zero
    near component keeps constant.  The sum runs profile by profile, so it
    agrees with a per-node loop to roundoff, not bitwise.
    """
    nodes, pattern = _simpson_rule(T, step)
    return (step / 3.0) * _windowed_average(x, nodes, pattern, eps,
                                            _WINDOW_MARGIN * step)


@_per_magnitude_row
def _weight_derivative(x, T, step, eps):
    """Telescoped flow difference quotient (see ``WeightField.derivative``),
    through the same windowed sum as ``_weight_average``; the six times
    below, with their weights, ascend for every T >= step."""
    times = np.array([-T - step, -T, -T + step, T - step, T, T + step])
    pattern = np.array([-1.0, -4.0, -1.0, 1.0, 4.0, 1.0])
    return _windowed_average(x, times, pattern, eps,
                             _WINDOW_MARGIN * step) / 6.0


def _plateau_radii(T, step, eps):
    """Direction-ball radii on which the averaged weight saturates exactly.

    Within these radii of the growing/decaying/flow-dual poles the cone
    integrand stays saturated for all transport times up to T + step (the
    extra step covers the finite differences), so the Simpson average equals
    +2T, -2T and 0 exactly.  The growing/decaying radii shrink at rate 2
    (worst relative drift between the two scaled components), the flow-dual
    radius at rate 1.
    """
    reach = T + step
    return {
        "u": 0.5 * (1.75 * eps) * math.exp(-2.0 * reach),
        "s": 0.5 * (1.75 * eps) * math.exp(-2.0 * reach),
        "0": 0.5 * math.asin(math.sin(1.75 * eps) * math.exp(-reach)),
    }


def _in_V_u(x, T, eps):
    """Forward-T image of the complement of the flow+decaying band."""
    return np.abs(_sphere_flow(x, -T)[..., 1]) >= math.sin(eps)


def _in_V_s(x, T, eps):
    """Backward-T image of the complement of the flow+growing band."""
    return np.abs(_sphere_flow(x, T)[..., 2]) >= math.sin(eps)


@dataclass(frozen=True)
class WeightField:
    """Flow-averaged weight on covector directions.

    Calling the field evaluates it at unit directions.  The field is odd
    under the growing<->decaying component swap, takes values in [-2T, 2T],
    saturates exactly on the plateau balls (see ``plateau_radii``) and
    beyond +-T on the transported cones, and its finite differences along
    the reduced flow at the quadrature step are nonnegative everywhere and
    >= 1 outside the transported cones and the flow-dual neighbourhood.
    """

    grid: ReducedPhaseGrid
    T: float
    step: float
    tau_max: float

    def __call__(self, xihat):
        """Evaluate the averaged weight at unit directions."""
        return _weight_average(_as_unit_rows(xihat), self.T, self.step,
                               self.grid.eps)

    def derivative(self, xihat):
        """Finite difference along the reduced flow at the quadrature step h.

        At this specific step the two shifted Simpson sums telescope: interior
        nodes cancel and only endpoint clusters remain, so with I(t) the cone
        integrand at the time-t flow the difference quotient is exactly

            [I(T-h) + 4I(T) + I(T+h) - I(-T-h) - 4I(-T) - I(-T+h)] / 6,

        which is evaluated directly (six flows, no quadrature noise).
        """
        return _weight_derivative(_as_unit_rows(xihat), self.T, self.step,
                                  self.grid.eps)

    @property
    def plateau_radii(self):
        """Radii of exact saturation around the three pole families."""
        return _plateau_radii(self.T, self.step, self.grid.eps)


def _plateau_samples(radii):
    """Direction samples inside the exact-saturation balls.

    For each pole family: the pole itself plus rings at fractions of the
    plateau radius, mixed over azimuths (for the growing/decaying poles the
    worst drift direction is toward the opposite pole; for the flow-dual pole
    all azimuths behave alike).
    """
    return {k: _deep_cone_samples(k, [f * radii[k] for f in (0.0, 0.35, 0.9)])
            for k in ("u", "s", "0")}


def build_weight(grid: ReducedPhaseGrid, T=None, step=FLOW_STEP):
    """Build the flow-averaged weight field on the reduced space.

    The weight is the symmetrized composite-Simpson average over [-T, T] of
    smoothed cone indicators transported by the reduced flow.  ``T`` defaults
    to twice the (already safety-doubled) empirical transition time and must
    be at least that; it is snapped up to the quadrature step grid.

    Returns a :class:`WeightField`, which evaluates the average where it is
    called; ``verify`` samples its guarantees (see :class:`WeightField`)
    through G.

    Raises
    ------
    ConfigurationError
        If the mollified cone neighbourhoods would overlap at this ``eps``,
        or if ``T`` is below twice the measured transition time.
    """
    tau_max = estimate_tau_max(grid, step=step)   # validates grid and step
    if T is None:
        T = 2.0 * tau_max
    if T < 2.0 * tau_max - 1e-12:
        raise ConfigurationError(
            f"averaging window T = {T} is below twice the measured "
            f"transition time 2*tau_max = {2.0 * tau_max}")
    T = _snap_to_step(T, step)
    _simpson_rule(T, step)   # raises for a window past the float range
    return WeightField(grid=grid, T=T, step=step, tau_max=tau_max)


# ---------------------------------------------------------------------------
# elliptic symbol
# ---------------------------------------------------------------------------

def _log_norm_average(x, T_prime, step):
    """exp of the Simpson average of log |transported direction| over
    [-T', T'], normalized by the window length 2T'.  The sum runs node by
    node in blocks of at most ``_BLOCK_ELEMENTS`` (node, direction) pairs."""
    nodes, pattern = _simpson_rule(T_prime, step)
    weights = pattern * (step / 3.0)
    k = max(1, _BLOCK_ELEMENTS // max(1, x.shape[0]))
    acc = np.zeros(x.shape[0])
    for lo in range(0, len(nodes), k):
        block = nodes[lo:lo + k]
        grow = np.array([[math.exp(t)] for t in block])
        decay = np.array([[math.exp(-t)] for t in block])
        for w_j, v_j in zip(weights[lo:lo + k],
                            np.log(_scaled_norm(x, grow, decay))):
            acc += w_j * v_j
    return np.exp(acc / (2.0 * T_prime))


@_per_magnitude_row
def _glued_hat(x, T_prime, step, eps):
    """0-homogeneous symbol factor: log-linear glue of |flow-dual component|
    (near the flow-dual poles) with the log-averaged transported norm."""
    f_us = _log_norm_average(x, T_prime, step)
    w0 = _glue_profile(_dist_0(x), eps)
    ax0 = np.abs(x[..., 0])
    log_ax0 = np.where(w0 > 0.0, np.log(np.maximum(ax0, 1e-300)), 0.0)
    return np.exp(w0 * log_ax0 + (1.0 - w0) * np.log(f_us))


def _symbol_log_derivative(x, T_prime, step, eps):
    """Central step difference of log(symbol) along the lifted flow at unit
    rows x (see ``SymbolField.log_derivative``)."""
    fwd, bwd = (np.log(_stretch(x, t))
                + np.log(_glued_hat(_sphere_flow(x, t), T_prime, step, eps))
                for t in (step, -step))
    return (fwd - bwd) / (2.0 * step)


@dataclass(frozen=True)
class SymbolField:
    """Glued 1-homogeneous elliptic symbol on covectors.

    ``hat`` is the 0-homogeneous factor (glued symbol on unit directions);
    the full symbol is ``|xi| * hat(direction)``, exactly 1-homogeneous by
    construction.  Near the flow-dual poles the symbol equals the conserved
    flow-dual component exactly, so it is flow-invariant there; deep in the
    growing (resp. decaying) dual cones its logarithmic flow derivative
    approaches +1 (resp. -1).  ``c_f`` is the infimum of ``hat`` measured
    by ``build_f``; the certificate's constants record it.
    """

    grid: ReducedPhaseGrid
    T_prime: float
    step: float
    c_f: float

    def hat(self, xihat):
        """Glued 0-homogeneous factor at unit directions."""
        return _glued_hat(_as_unit_rows(xihat), self.T_prime, self.step,
                          self.grid.eps)

    def __call__(self, xihat, rho):
        """Full 1-homogeneous symbol at directions ``xihat`` and radii ``rho``."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0.0):
            raise ValidationError("covector magnitude must be positive")
        return rho * self.hat(xihat)

    def log_derivative(self, xihat):
        """Finite difference of log(symbol) along the lifted flow (step-sized,
        radius-independent by homogeneity)."""
        return _symbol_log_derivative(_as_unit_rows(xihat), self.T_prime,
                                      self.step, self.grid.eps)


def _deep_cone_samples(pole, radii):
    """Direction samples near a pole family at the given angular radii.

    ``pole`` is "u", "s" or "0"; each radius contributes three azimuth mixes
    (toward each of the two complementary components and diagonal).
    """
    mixes = ((1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5)))
    rows = np.array([[math.cos(rad), math.sin(rad) * c0, math.sin(rad) * c1]
                     for rad in radii for c0, c1 in mixes])
    # the pole's axis takes the cosine, the other two the mixed sines
    order = {"u": [1, 0, 2], "s": [1, 2, 0], "0": [0, 1, 2]}[pole]
    return _as_unit_rows(rows[:, order])


def build_f(grid: ReducedPhaseGrid, T_prime=DEFAULT_T_PRIME, step=FLOW_STEP):
    """Build the glued elliptic symbol on the reduced space.

    The unglued factor is the exponential of the windowed log average of the
    transported covector norm; near the flow-dual poles it is glued
    log-linearly to the conserved flow-dual component, making the full symbol
    exactly flow-invariant there.  The window must exceed twice the
    frame-comparison constant's log over the contraction rate (that constant
    is 1 here, so any positive window qualifies); the default window 2 puts
    the logarithmic flow derivative within a percent of +-1 deep in the
    growing/decaying dual cones.

    Returns a :class:`SymbolField` with the infimum ``c_f`` of the glued
    factor, measured on a refined midpoint sphere plus the grid directions.
    The symbol's homogeneity, cone log-derivatives and flow invariance enter
    the flow derivative of G that ``verify`` samples.
    """
    _require_construction(grid, step)
    window_floor = 2.0 * math.log(FRAME_CONSTANT) / BETA
    if T_prime <= window_floor:
        raise ConfigurationError(
            f"symbol window T' = {T_prime} must exceed {window_floor} "
            "(twice the frame-comparison log over the contraction rate)")
    T_prime = _snap_to_step(T_prime, step)

    probe = np.vstack([
        _midpoint_sphere(max(4 * grid.n_theta, 96), max(4 * grid.n_phi, 96)),
        grid.xihat,
    ])
    c_f = float(_glued_hat(probe, T_prime, step, grid.eps).min())
    return SymbolField(grid=grid, T_prime=T_prime, step=step, c_f=c_f)


# ---------------------------------------------------------------------------
# escape function and certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EscapeData:
    """Assembled escape function and its auditable constants.

    ``weight_symbol`` evaluates the 0-homogeneous weight symbol (the scaled
    flow average); it equals ``+C_G`` on the growing-dual plateau, ``-C_G``
    on the decaying-dual plateau and 0 on the flow-dual plateau.  ``G``
    evaluates the escape function on a phase point and a covector in cusp
    coordinates; it depends on the covector only through its dual-frame
    direction and magnitude, which is what makes it invariant under the
    cusp's local isometries by representation.  Its windows, ``c_f`` and the
    cutoff scale are those of ``weight``, ``symbol`` and ``grid``.
    """

    grid: ReducedPhaseGrid
    weight: WeightField
    symbol: SymbolField
    C_G_prime: float
    R: float
    constants: dict = field(repr=False, compare=False)

    @property
    def C_G(self):
        """Plateau value of the scaled weight, 2 C_G' T."""
        return 2.0 * self.C_G_prime * self.weight.T

    def weight_symbol(self, xihat):
        """Scaled 0-homogeneous weight at unit directions (values in
        [-C_G, C_G])."""
        return self.C_G_prime * self.weight(xihat)

    def reduced_G(self, xihat, rho):
        """Escape function on reduced data: directions and magnitudes.

        ``rho`` broadcasts against the direction batch.  The angle fiber does
        not enter: the escape function is exactly constant along it.
        """
        x = _as_unit_rows(xihat)
        rho = np.broadcast_to(np.asarray(rho, dtype=float), x.shape[:-1])
        if np.any(rho <= 0.0):
            raise ValidationError("covector magnitude must be positive")
        return _escape_values(rho, *self._factors(x), self.symbol.c_f,
                              self.grid.delta)

    def _factors(self, x):
        """Scaled weight and symbol factor at unit rows x, which are passed
        to the kernels as they are."""
        w, f = self.weight, self.symbol
        return (self.C_G_prime * _weight_average(x, w.T, w.step, w.grid.eps),
                _glued_hat(x, f.T_prime, f.step, f.grid.eps))

    def G(self, point, covector):
        """Escape function at a phase point and covector in cusp coordinates.

        The covector components are ``(xi_r, xi_theta, xi_alpha)``; they are
        decomposed on the dual invariant frame at the point, and the value
        depends only on the resulting direction and magnitude.
        """
        direction, rho = _frame_direction(point, covector)
        return float(self.reduced_G(direction, rho)[0])


def _escape_values(rho, mval, fhat, c_f, delta):
    """G from its factors, broadcast together: magnitudes ``rho``, scaled
    weight ``mval`` and symbol factor ``fhat`` at the directions."""
    cut = 1.0 - _chi_cutoff(rho / delta)
    return cut * mval * np.log(2.0 * rho * fhat / (c_f * delta))


def _frame_direction(point, covector):
    """Dual-frame direction and magnitude of a covector at a phase point, the
    only data of the covector that G reads."""
    comps = _frame_components(point, covector)
    rho = float(np.linalg.norm(comps))
    if rho <= 0.0:
        raise ValidationError("covector must be nonzero")
    return comps / rho, rho


def _escape_probe_directions(grid: ReducedPhaseGrid):
    """Direction probe for the measured constants of the escape function.

    A refined midpoint sphere grid, the user grid itself, dense rings through
    the glue band around the flow-dual poles (where the symbol interpolates),
    and rings near the swap-symmetric surface (where the weight changes sign).
    """
    eps = grid.eps
    pieces = [
        _midpoint_sphere(max(2 * grid.n_theta, 64), max(2 * grid.n_phi, 64)),
        grid.xihat,
    ]
    cos_az, sin_az = _midpoint_circle(128, _TWO_PI)
    for d0 in (1.05 * eps, 1.3 * eps, 1.6 * eps, 2.0 * eps, 2.4 * eps,
               3.0 * eps):
        pieces.append(np.column_stack([
            np.full(cos_az.shape, math.cos(d0)),
            math.sin(d0) * cos_az,
            math.sin(d0) * sin_az,
        ]))
    # near the swap-symmetric surface |growing| = |decaying|
    lat = np.linspace(0.05, _HALF_PI - 0.05, 64)
    for off in (-0.02, -0.004, 0.004, 0.02):
        pieces.append(np.column_stack([
            np.cos(lat),
            np.sin(lat) * np.cos(0.25 * np.pi + off),
            np.sin(lat) * np.sin(0.25 * np.pi + off),
        ]))
    return _as_unit_rows(np.vstack(pieces))


def assemble_G(grid: ReducedPhaseGrid, T=None, T_prime=DEFAULT_T_PRIME, C_G_prime=None,
               R=None, step=FLOW_STEP):
    """Assemble the escape function from the weight and the glued symbol.

    ``G = C_G' [1 - chi(|xi|/delta)] m(direction) log(2 f / (c_f delta))``

    where ``m`` is the flow-averaged weight, ``f`` the glued 1-homogeneous
    symbol, ``chi`` a smooth cutoff equal to 1 on [-1/2, 1/2] and supported
    in (-1, 1), and ``C_G'`` at least ``max(2/(beta T), 1)``.

    The small-scale radius ``R`` beyond which the escape derivative is
    certified strictly positive is computed from measured quantities: with
    ``D`` the largest sampled value of ``(-m * X log f)_+`` off the flow-dual
    neighbourhood (the product is sign-aligned by the swap symmetry, so this
    is roundoff-small) and ``x_min >= 1`` the sampled floor of the weight's
    flow derivative outside the transported cones,

        ``R = (1/2) exp((D + 1.5 / C_G') / x_min)``

    which makes the escape derivative at magnitudes >= R*delta at least 1.5
    by construction.  All measured inputs are recorded in ``constants``.

    Parameters
    ----------
    grid : ReducedPhaseGrid
        Construction grid; its ``delta`` is the cutoff scale.
    T, T_prime : float
        Weight and symbol windows; T = None takes twice the transition time.
    C_G_prime, R : float, optional
        Prefactor (at least its floor) and small-scale radius; None derives
        each as above.  Overriding R may fail the certificate.
    step : float
        Flow quadrature step.

    Raises
    ------
    ConfigurationError
        If the cone neighbourhoods overlap, a window is below its floor, the
        prefactor is below ``max(2/(beta T), 1)``, or the measured weight
        derivative floor degenerates.
    """
    step = float(step)
    weight = build_weight(grid, T=T, step=step)
    symbol = build_f(grid, T_prime=T_prime, step=step)
    T = weight.T
    floor = max(2.0 / (BETA * T), 1.0)
    C_G_prime = floor if C_G_prime is None else float(C_G_prime)
    if C_G_prime < floor - 1e-12:
        raise ConfigurationError(
            f"C_G_prime = {C_G_prime} is below its floor {floor} "
            "= max(2/(beta*T), 1)")

    probe = _escape_probe_directions(grid)
    m_probe = _weight_average(probe, T, step, grid.eps)
    xm_probe = _weight_derivative(probe, T, step, grid.eps)
    xlogf_probe = _symbol_log_derivative(probe, symbol.T_prime, step, grid.eps)
    off_invariant = _dist_0(probe) >= grid.eps
    strict = off_invariant & ~(_in_V_u(probe, T, grid.eps)
                               | _in_V_s(probe, T, grid.eps))
    product_bound = float(np.max(np.maximum(
        -(m_probe[off_invariant] * xlogf_probe[off_invariant]), 0.0)))
    xm_floor = float(xm_probe[strict].min())
    if xm_floor <= 0.5:
        raise ConfigurationError(
            f"measured weight-derivative floor {xm_floor} outside the "
            "transported cones is degenerate; the averaging window is too "
            "short for this grid")
    slack = 0.5
    R_derived = 0.5 * math.exp(
        (product_bound + (1.0 + slack) / C_G_prime) / xm_floor)
    R = R_derived if R is None else float(R)
    if R <= 0.0:
        raise ValidationError(f"R must be positive, got {R}")

    record = {
        "C_G": 2.0 * C_G_prime * T,
        "C_G_prime": C_G_prime,
        "C_G_prime_floor": floor,
        "T": T,
        "T_prime": symbol.T_prime,
        "R": R,
        "R_derived": R_derived,
        "beta": BETA,
        "c_f": symbol.c_f,
        "delta": float(grid.delta),
        "eps": float(grid.eps),
        "step": step,
        "tau_max": weight.tau_max,
        "frame_constant": FRAME_CONSTANT,
        "product_bound": product_bound,
        "weight_derivative_floor": xm_floor,
        "slack": slack,
        "n_probe_directions": int(probe.shape[0]),
        "plateau_radii": {k: float(v)
                          for k, v in weight.plateau_radii.items()},
    }
    return EscapeData(grid=grid, weight=weight, symbol=symbol,
                      C_G_prime=C_G_prime, R=R, constants=record)


@dataclass(frozen=True)
class EscapeCertificate:
    """Sampled certificate of the escape-function inequalities.

    ``conditions`` holds one record per certified condition: strict
    positivity of the flow derivative at large magnitude off the invariant
    cone ("i"), nonnegativity of the flow derivative above the cutoff scale
    ("ii"), logarithmic growth with the stated slopes along the saturated
    cones ("iii"), and exact invariance plus weight plateaus ("iv").  Each
    record carries the measured margin, its tolerance, the sample count and
    any witnesses of failure.  ``constants`` repeats the auditable constant
    record of the assembled data.
    """

    passed: bool
    conditions: dict
    constants: dict
    grid: dict
    notes: list

    def as_dict(self):
        """Plain-data form of the certificate: its fields hold only str,
        int, float, bool, list and dict values."""
        return asdict(self)

    def to_json(self):
        """The certificate as JSON text."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _transported_cone_samples(T, eps):
    """Directions inside the forward/backward transported cones.

    The forward cone reaches angular radius ``atan(e^-T cot eps)`` toward the
    flow-dual poles and ``atan(e^-2T cot eps)`` toward the decaying-dual
    poles; samples sit at 70% of those radii (plus the poles), the backward
    cone is the swap mirror.
    """
    r0 = math.atan(math.exp(-T) / math.tan(eps))
    rs = math.atan(math.exp(-2.0 * T) / math.tan(eps))
    c = math.sqrt(0.5)
    rows_u = [
        [0.0, 1.0, 0.0],
        [math.sin(0.7 * r0), math.cos(0.7 * r0), 0.0],
        [0.0, math.cos(0.7 * rs), math.sin(0.7 * rs)],
        [c * math.sin(0.7 * rs), math.cos(0.7 * rs), c * math.sin(0.7 * rs)],
    ]
    u_dirs = _as_unit_rows(np.array(rows_u))
    s_dirs = _swapped(u_dirs)
    return u_dirs, s_dirs


def verify(data: EscapeData, seed=0):
    """Sample the escape-function inequalities at the directions of
    ``data.grid`` and emit a certificate.

    Conditions certified (finite differences along the lifted flow are taken
    at the shared quadrature step):

    i.   The flow derivative of G is >= 1 - 1e-3 at magnitudes above
         ``R * delta`` away from the flow-dual cone neighbourhood, including
         explicit samples inside the transported cones.
    ii.  The flow derivative of G is >= -1e-6 at all sampled magnitudes
         above the cutoff scale ``delta``.
    iii. Along the saturated directions G grows as ``+-C_G log|xi|`` (slope
         fit within 2% over the recorded magnitude range) and vanishes along
         the flow-dual plateau directions (the weight and the symbol once
         per direction, G broadcast over the magnitudes).
    iv.  The scaled weight equals ``+C_G``/``-C_G``/``0`` exactly on the
         plateau balls (the values iii read), and G is invariant under the
         cusp's local isometries (exact at the reduced level by
         representation; spot-checked through the coordinate interface:
         each random point and covector, and its isometric image, goes
         through G's own frame decomposition, and all of them are evaluated
         in one ``reduced_G`` batch).

    This is the construction's one verification path: ``build_weight`` and
    ``build_f`` validate their inputs and compute data, and every guarantee
    is sampled here, through G.  The flow derivative of G reads the weight
    and the symbol at the step-shifted directions only.  Returns an
    :class:`EscapeCertificate`; any sampled violation beyond tolerance fails
    the certificate and lists the worst witnesses.  Each condition's
    ``n_samples`` is the number of (direction, magnitude) evaluations it made.

    Parameters
    ----------
    data : EscapeData
    seed : int
        Seed of the coordinate-level invariance spot-check.
    """
    if not isinstance(data, EscapeData):
        raise ValidationError("verify needs the assembled escape data")
    grid = data.grid
    eps, delta = grid.eps, grid.delta
    h = data.weight.step
    T = data.weight.T
    C_G = data.C_G
    cf = data.symbol.c_f
    R = data.R

    def bundle(dirs):
        """Scaled weight, symbol factor and stretch at the step shifts of
        dirs: (weight, factor, stretch) forward, then backward."""
        return [(*data._factors(_sphere_flow(dirs, t)), _stretch(dirs, t))
                for t in (h, -h)]

    def scan(levels, tol, samples):
        """Smallest flow derivative over the magnitude levels (over delta)
        and the (directions, bundle) samples, a non-finite value counting as
        -inf (it fails), and the witnesses: at each level and sample set the
        worst four below tol (at most), the first ten kept."""
        margin, witnesses = math.inf, []
        for lvl in levels:
            rho = lvl * delta
            for dirs, ((mf, ff, nf), (mb, fb, nb)) in samples:
                fd = (_escape_values(rho * nf, mf, ff, cf, delta)
                      - _escape_values(rho * nb, mb, fb, cf, delta)) / (2.0 * h)
                key = np.where(np.isfinite(fd), fd, -np.inf)
                low = float(key.min())
                if low < tol:
                    witnesses += [{"magnitude_over_delta": float(lvl),
                                   "xihat": [float(v) for v in dirs[k]],
                                   "flow_derivative": float(fd[k])}
                                  for k in np.argsort(key)[:4] if key[k] < tol]
                margin = min(margin, low)
        return margin, witnesses[:10]

    x = grid.xihat
    bx = bundle(x)

    # -- condition ii: nonnegative flow derivative above the cutoff scale --
    levels_ii = sorted({1.06, 1.3, 2.0, 4.0, 10.0}
                       | {r for r in (1.001 * R, 3.0 * R, 30.0 * R,
                                      1e3 * R) if r > 1.06})
    tol_ii = -1e-6
    margin_ii, witnesses_ii = scan(levels_ii, tol_ii, [(x, bx)])
    cond_ii = {
        "description": "flow derivative of G nonnegative at sampled "
                       "magnitudes above the cutoff scale",
        "passed": bool(margin_ii >= tol_ii),
        "margin": margin_ii,
        "threshold": tol_ii,
        "magnitude_levels_over_delta": [float(v) for v in levels_ii],
        "n_samples": len(levels_ii) * x.shape[0],
        "n_distinct_directions": x.shape[0],
        "witnesses": witnesses_ii,
    }

    # -- condition i: strict positivity beyond R*delta, off the flow-dual
    #    cone, with explicit transported-cone samples ----------------------
    levels_i = [1.0001 * R, 4.0 * R, 100.0 * R, 1e4 * R]
    tol_i = 1.0 - 1e-3
    region = _dist_0(x) >= eps
    u_dirs, s_dirs = _transported_cone_samples(T, eps)
    keep_u = _in_V_u(u_dirs, T, eps)
    keep_s = _in_V_s(s_dirs, T, eps)
    cone_dirs = np.vstack([u_dirs[keep_u], s_dirs[keep_s]])
    off_cone = [tuple(a[region] for a in side) for side in bx]
    margin_i, witnesses_i = scan(levels_i, tol_i, [(x[region], off_cone),
                                                    (cone_dirs, bundle(cone_dirs))])
    n_dirs_i = int(region.sum()) + cone_dirs.shape[0]
    cond_i = {
        "description": "flow derivative of G >= 1 beyond R*delta away from "
                       "the flow-dual cone neighbourhood",
        "passed": bool(margin_i >= tol_i),
        "margin": margin_i,
        "threshold": tol_i,
        "magnitude_levels_over_delta": [float(v) for v in levels_i],
        "n_samples": len(levels_i) * n_dirs_i,
        "n_distinct_directions": n_dirs_i,
        "n_transported_cone_samples": int(cone_dirs.shape[0]),
        "witnesses": witnesses_i,
    }

    # -- condition iii: logarithmic slopes along the plateaus --------------
    plat = _plateau_samples(data.weight.plateau_radii)
    fit_lo = max(100.0, 2.0 * R * delta, 2.0 * delta)
    fit_hi = fit_lo * 1e4
    rhos = np.exp(np.linspace(math.log(fit_lo), math.log(fit_hi), 9))
    dirs = np.concatenate([plat["u"], plat["s"], plat["0"]])
    # m and f-hat do not depend on rho: each direction is evaluated once, and
    # its row of G over the magnitudes follows (rows u, s, 0 in order)
    m_plat, f_plat = data._factors(dirs)
    g_rows = iter(_escape_values(rhos, m_plat[:, None], f_plat[:, None], cf,
                                 delta))
    slope_dev = 0.0
    slopes = {}
    for fam, sign in (("u", 1.0), ("s", -1.0)):
        slopes[fam] = [float(np.polyfit(np.log(rhos), next(g_rows), 1)[0])
                       for _ in plat[fam]]
        slope_dev = float(np.maximum(slope_dev, np.max(np.abs(  # NaN propagates
            np.array(slopes[fam]) / (sign * C_G) - 1.0))))
    zero_mag = float(np.max(np.abs(list(g_rows))))
    tol_iii = 0.02
    tol_zero = 1e-10 * max(1.0, C_G)
    cond_iii = {
        "description": "G grows as +-C_G log|xi| along the saturated "
                       "plateaus and vanishes along the flow-dual plateau",
        "passed": bool(slope_dev <= tol_iii and zero_mag <= tol_zero),
        "margin": float(slope_dev),
        "threshold": tol_iii,
        "flow_dual_max_abs": zero_mag,
        "flow_dual_threshold": tol_zero,
        "fit_range": [float(fit_lo), float(fit_hi)],
        "mean_slope_growing": float(np.mean(slopes["u"])),
        "mean_slope_decaying": float(np.mean(slopes["s"])),
        "C_G": float(C_G),
        "n_samples": len(dirs) * rhos.size,
        "n_distinct_directions": len(dirs),
        "witnesses": [],
    }
    if not cond_iii["passed"]:
        cond_iii["witnesses"] = [{"slopes_growing": slopes["u"],
                                  "slopes_decaying": slopes["s"],
                                  "flow_dual_max_abs": zero_mag}]

    # -- condition iv: plateau values and isometry invariance --------------
    targets = np.repeat([C_G, -C_G, 0.0], [len(plat[k]) for k in "us0"])
    plat_err = float(np.max(np.abs(m_plat - targets)))
    plat_rel = plat_err / max(C_G, 1.0)

    rng = np.random.default_rng(seed)
    n_iso = 48
    frames = []
    for _ in range(n_iso):
        p = PhasePoint(float(rng.uniform(-2.0, 4.0)),
                       np.array([float(rng.uniform(-3.0, 3.0))]),
                       float(rng.uniform(0.1, math.pi - 0.1)),
                       np.array([float(rng.choice((-1.0, 1.0)))]))
        xi = rng.normal(size=3) * 10.0 ** rng.uniform(-1.0, 5.0)
        tau = float(rng.uniform(-3.0, 3.0))
        r2, theta2 = apply_local_isometry(tau, [float(rng.uniform(-5.0, 5.0))],
                                          (p.r, p.theta))
        p2 = PhasePoint(r2, theta2, p.phi, p.u)
        xi2 = np.array([xi[0], math.exp(-tau) * xi[1], xi[2]])
        frames += [_frame_direction(p, xi), _frame_direction(p2, xi2)]
    g = data.reduced_G(np.array([d for d, _ in frames]),
                       np.array([r for _, r in frames]))
    g1, g2 = g[0::2], g[1::2]
    iso_dev = float(np.max(np.abs(g1 - g2) / (1.0 + np.abs(g1))))
    tol_iv = 1e-9
    margin_iv = float(np.maximum(plat_rel, iso_dev))  # NaN propagates
    cond_iv = {
        "description": "weight plateaus exact and G invariant under the "
                       "cusp's local isometries",
        "passed": bool(margin_iv <= tol_iv),
        "margin": float(margin_iv),
        "threshold": tol_iv,
        "plateau_error_relative": float(plat_rel),
        "isometry_deviation_relative": float(iso_dev),
        "reduced_representation_exact": True,
        "n_samples": n_iso + len(dirs),
        "witnesses": [],
    }

    conditions = {"i": cond_i, "ii": cond_ii, "iii": cond_iii, "iv": cond_iv}
    passed = all(c["passed"] for c in conditions.values())
    notes = [
        "Finite differences along the flow use the shared quadrature step, "
        "at which the weight's difference quotients telescope to endpoint "
        "clusters of the averaging window.",
        "R is derived from the measured product bound and weight-derivative "
        "floor recorded in constants; the certificate is a sampled statement "
        "at the recorded directions and magnitudes.",
    ]
    return EscapeCertificate(passed=passed, conditions=conditions,
                             constants=dict(data.constants),
                             grid=grid.as_dict(), notes=notes)
