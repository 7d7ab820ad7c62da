"""Geodesic flow on hyperbolic cusps and on the level-2 congruence surface.

Two exact flows live here.  On the model cusp (any cross-section dimension)
the geodesic equations

    dr/dt = cos(phi),   dphi/dt = sin(phi),   dtheta/dt = e^r sin(phi) u,
    du/dt = 0,

integrate in closed form: ``tan(phi(t)/2) = e^t tan(phi(0)/2)`` and the rest
by elementary integrals.  On the thrice-punctured sphere (upper half-plane
modulo the level-2 congruence subgroup, generated by z -> z + 2 and
z -> z/(2z + 1)) the flow is the Moebius closed form, followed by a greedy
reduction into the fundamental domain ``{|Re z| <= 1, |2z - 1| >= 1,
|2z + 1| >= 1}``.

The module also provides i.i.d. Liouville sampling on the quotient (horoball
rejection sampling, counter-based per-sample random streams), correlation
functions of observables along the flow, and truncated Laplace transforms of
correlation records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonterminationError, ValidationError
from .geometry import PhasePoint

__all__ = [
    "FlowState",
    "QuotientSurface",
    "CorrelationRecord",
    "BumpObservable",
    "flow_cusp_exact",
    "flow_quotient",
    "sample_liouville",
    "estimate_area",
    "correlate",
    "laplace_transform",
    "laplace_tail_bound",
    "hyperbolic_distance",
    "DEFAULT_DT",
    "DEFAULT_T_MAX",
    "SURFACE_AREA",
]

#: default correlation time step
DEFAULT_DT = 0.1
#: default correlation horizon
DEFAULT_T_MAX = 20.0
#: iteration cap for fundamental-domain reduction (a trip signals a bug)
REDUCTION_CAP = 10 ** 6
#: points this close to the domain boundary count as inside (stops ping-pong
#: between two boundary representatives of the same orbit)
CONTAINMENT_SLACK = 1e-12
#: total hyperbolic mass of the horoball proposal mixture used for sampling
PROPOSAL_MASS = 16.0
#: hyperbolic area of the quotient surface: Gauss-Bonnet, 2*pi*|chi| with
#: chi(thrice-punctured sphere) = -1.  Exact, not estimated.
SURFACE_AREA = 2.0 * math.pi

# stream tags namespacing the counter-based random streams (one Philox key
# per (seed, tag, index) triple, so results never depend on scheduling)
_STREAM_SAMPLE = 0
_STREAM_AREA = 1
_MAX_STREAM_INDEX = 1 << 48
#: cap on rejection rounds for a single Liouville sample (accept rate is
#: area/mass = 2*pi/16, so even 100 rounds failing means a broken sampler)
_REJECTION_CAP = 200_000

_HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# closed-form flow on the model cusp
# ---------------------------------------------------------------------------

def _log1p_exp2(x):
    """log(1 + e^(2x)) without overflow."""
    if x > 0.0:
        return 2.0 * x + math.log1p(math.exp(-2.0 * x))
    return math.log1p(math.exp(2.0 * x))


def flow_cusp_exact(p0: PhasePoint, t) -> PhasePoint:
    """Exact time-t geodesic flow on the model cusp.

    Solves dr/dt = cos(phi), dphi/dt = sin(phi), dtheta/dt = e^r sin(phi) u,
    du/dt = 0 in closed form.  With ``T0 = tan(phi0/2)``:

    - ``tan(phi(t)/2) = e^t T0``,
    - ``r(t) = r0 + t - log((1 + T0^2 e^(2t)) / (1 + T0^2))``,
    - ``theta(t) = theta0 + u e^(r0) T0 (1 - e^(-2t)) / (T0^2 + e^(-2t))``.

    The evaluation branches on ``phi0 <= pi/2`` (parametrize by ``T0``) versus
    ``phi0 > pi/2`` (parametrize by ``cot(phi0/2)``) and on the sign of t, so
    no intermediate overflows for |t| up to several hundred.

    Parameters
    ----------
    p0 : PhasePoint
    t : float

    Returns
    -------
    PhasePoint
    """
    t = float(t)
    phi0 = float(p0.phi)
    if phi0 == 0.0:
        return PhasePoint(p0.r + t, p0.theta, 0.0, p0.u)
    if phi0 == math.pi:
        return PhasePoint(p0.r - t, p0.theta, math.pi, p0.u)

    north_side = phi0 <= _HALF_PI
    if north_side:
        half = math.tan(0.5 * phi0)                 # tan(phi0/2) <= 1
        ell0 = math.log(half)
    else:
        half = math.tan(0.5 * (math.pi - phi0))     # cot(phi0/2) < 1
        ell0 = -math.log(half)
    ell = ell0 + t

    # polar angle from tan(phi/2) = e^ell, kept accurate at both ends
    if ell <= 0.0:
        phi = 2.0 * math.atan(math.exp(ell))
    else:
        phi = math.pi - 2.0 * math.atan(math.exp(-ell))

    r = p0.r + t - _log1p_exp2(ell) + _log1p_exp2(ell0)

    # cross-section drift integral e^{r0} * int_0^t e^{r(s)-r0} sin(phi(s)) ds
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
    theta = p0.theta + (math.exp(p0.r) * drift) * p0.u
    return PhasePoint(r, theta, phi, p0.u)


@dataclass(frozen=True)
class FlowState:
    """A phase point together with the elapsed flow time."""

    point: PhasePoint
    time: float = 0.0

    def advance(self, dt) -> "FlowState":
        """Flow by dt (exact closed form) and accumulate time."""
        return FlowState(flow_cusp_exact(self.point, dt), self.time + float(dt))

    def velocity(self):
        """Right-hand side (dr/dt, dtheta/dt, dphi/dt) of the geodesic field."""
        p = self.point
        sp = math.sin(p.phi)
        return (math.cos(p.phi), math.exp(p.r) * sp * p.u, sp)


# ---------------------------------------------------------------------------
# the level-2 congruence quotient
# ---------------------------------------------------------------------------

def hyperbolic_distance(z1, z2):
    """Hyperbolic distance on the upper half-plane.

    ``cosh d = 1 + |z1 - z2|^2 / (2 Im z1 Im z2)``.  Accepts scalars or
    arrays; both imaginary parts must be positive.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    q = np.abs(z1 - z2) ** 2 / (2.0 * z1.imag * z2.imag)
    return np.arccosh(1.0 + q)


@dataclass(frozen=True)
class QuotientSurface:
    """The thrice-punctured sphere as a quotient of the upper half-plane.

    The group is the level-2 congruence subgroup with the fixed generator set
    ``[[1, 2], [0, 1]]`` (z -> z + 2) and ``[[1, 0], [2, 1]]``
    (z -> z/(2z + 1)); it is torsion-free by construction of this generator
    set.  The fundamental domain is ``|Re z| <= re_halfwidth`` minus the two
    open disks of radius ``bubble_radius`` centered at ``bubble_centers``.
    The reduction algorithm is specific to these defaults; the fields exist
    so the membership predicate is explicit data, not to support other
    groups.
    """

    generators: tuple = (((1, 2), (0, 1)), ((1, 0), (2, 1)))
    re_halfwidth: float = 1.0
    bubble_centers: tuple = (-0.5, 0.5)
    bubble_radius: float = 0.5
    reduction_cap: int = REDUCTION_CAP

    def __post_init__(self):
        for m in self.generators:
            (a, b), (c, d) = m
            if a * d - b * c != 1:
                raise ValidationError(f"generator {m} must have determinant 1")
        if not self.re_halfwidth > 0 or not self.bubble_radius > 0:
            raise ValidationError("domain parameters must be positive")

    # -- membership -------------------------------------------------------
    def contains(self, z, slack=CONTAINMENT_SLACK):
        """Fundamental-domain membership (closed conditions, with slack)."""
        z = np.asarray(z, dtype=complex)
        x, y = z.real, z.imag
        ok = (y > 0.0) & (np.abs(x) <= self.re_halfwidth + slack)
        r2 = self.bubble_radius ** 2
        for cx in self.bubble_centers:
            ok = ok & ((x - cx) ** 2 + y * y >= r2 - slack)
        return bool(ok) if ok.ndim == 0 else ok

    # -- reduction --------------------------------------------------------
    def reduce(self, z, v=1.0 + 0.0j):
        """Reduce (z, tangent v) to the fundamental domain.

        Greedy: translate Re z into the strip, then invert at whichever
        bubble contains the point (either move is the unique one that raises
        the violated constraint; bubble inversions strictly increase Im z).
        Returns the reduced pair; v transforms by 1/(cz + d)^2.

        Raises
        ------
        NonterminationError
            If the iteration cap is exceeded (signals a bug, not bad input).
        DomainError
            If Im z <= 0.
        """
        z = complex(z)
        v = complex(v)
        if not z.imag > 0.0:
            raise DomainError(f"reduction needs Im z > 0, got z = {z}")
        hw = self.re_halfwidth
        r2 = self.bubble_radius ** 2
        c_left = min(self.bubble_centers)
        c_right = max(self.bubble_centers)
        for _ in range(self.reduction_cap):
            x = z.real
            if abs(x) > hw + CONTAINMENT_SLACK:
                k = math.floor((x + hw) / (2.0 * hw))
                z = complex(x - 2.0 * hw * k, z.imag)
                continue
            y = z.imag
            if (x - c_left) ** 2 + y * y < r2 - CONTAINMENT_SLACK:
                den = 2.0 * z + 1.0
            elif (x - c_right) ** 2 + y * y < r2 - CONTAINMENT_SLACK:
                den = 1.0 - 2.0 * z
            else:
                return z, v
            v = v / (den * den)
            z = z / den
        raise NonterminationError(
            f"fundamental-domain reduction exceeded {self.reduction_cap} steps")


def _reduce_arrays(z, v, surf: QuotientSurface, max_rounds=10_000):
    """Vectorized fundamental-domain reduction of (z, v) arrays.

    Each round applies at most one translation and one bubble inversion per
    point and drops settled points; geodesic segments of length T need O(T)
    rounds, so the cap is generous.
    """
    z = np.array(z, dtype=complex)
    v = np.array(v, dtype=complex)
    hw = surf.re_halfwidth
    r2 = surf.bubble_radius ** 2
    c_left = min(surf.bubble_centers)
    c_right = max(surf.bubble_centers)
    pending = np.arange(z.size)
    for _ in range(max_rounds):
        if pending.size == 0:
            return z, v
        zz = z[pending]
        x = zz.real
        trans = np.abs(x) > hw + CONTAINMENT_SLACK
        if trans.any():
            k = np.where(trans, np.floor((x + hw) / (2.0 * hw)), 0.0)
            zz = zz - 2.0 * hw * k
            x = zz.real
        y = zz.imag
        in_left = (x - c_left) ** 2 + y * y < r2 - CONTAINMENT_SLACK
        in_right = ~in_left & ((x - c_right) ** 2 + y * y < r2 - CONTAINMENT_SLACK)
        den = np.where(in_left, 2.0 * zz + 1.0,
                       np.where(in_right, 1.0 - 2.0 * zz, 1.0))
        z[pending] = zz / den
        v[pending] = v[pending] / (den * den)
        pending = pending[trans | in_left | in_right]
    raise NonterminationError(
        f"vectorized reduction did not settle within {max_rounds} rounds")


def _frame_matrix(z, alpha):
    """SL(2, R) matrix g with g(i) = z and tangent angle alpha at z.

    The tangent angle parametrizes unit tangent vectors as ``v = y e^{i
    alpha}`` (alpha = pi/2 points straight up).  Works on scalars or arrays;
    returns the entries (a, b, c, d).
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


def flow_quotient(z0, alpha0, t, surf: QuotientSurface | None = None):
    """Geodesic flow on the quotient surface, reduced to the fundamental domain.

    Flows the unit tangent vector (z0, angle alpha0) for time t along the
    exact hyperbolic geodesic (Moebius closed form), then reduces.

    Parameters
    ----------
    z0 : complex
        Start point, Im z0 > 0.
    alpha0 : float
        Tangent angle: the tangent vector is ``Im(z0) e^{i alpha0}``.
    t : float
    surf : QuotientSurface, optional

    Returns
    -------
    (z, alpha) : complex and float
        Reduced endpoint and its tangent angle in (-pi, pi].

    Raises
    ------
    DomainError
        If Im z0 <= 0.
    """
    if surf is None:
        surf = QuotientSurface()
    z0 = complex(z0)
    if not z0.imag > 0.0:
        raise DomainError(f"flow_quotient needs Im z0 > 0, got {z0}")
    a, b, c, d = _frame_matrix(z0, float(alpha0))
    w = complex(0.0, math.exp(float(t)))
    den = c * w + d
    z = (a * w + b) / den
    v = w / (den * den)
    z, v = surf.reduce(z, v)
    return z, math.atan2(v.imag, v.real)


# ---------------------------------------------------------------------------
# Liouville sampling
# ---------------------------------------------------------------------------
#
# Proposal mixture: four horoball pieces in hyperbolic measure dx dy / y^2.
#
#   infinity:  {|x| <= 1, y >= 1/4}                                mass 8
#   cusp 0:    image under z -> -1/z       of {|x| <= 1,   y >= 1/2}  mass 4
#   cusp -1:   image under z -> -1/z - 1   of {-1 <= x <= 0, y >= 1/2} mass 2
#   cusp +1:   image under z -> -1/z + 1   of {0 <= x <= 1,  y >= 1/2} mass 2
#
# The union covers the fundamental domain: the part of the domain outside
# the four pieces lies in the compact band 1/4 <= y <= 1 already inside the
# infinity piece's strip.  A proposal z drawn from piece k with probability
# mass_k/16 has mixture density m(z)/16 (m = number of pieces containing z),
# so accepting with probability 1_F(z)/m(z) yields the uniform hyperbolic
# law on F, and the acceptance rate estimates area(F)/16.

def _sample_stream(seed, tag, index):
    """Counter-based generator for one (seed, tag, index) stream."""
    if not 0 <= index < _MAX_STREAM_INDEX:
        raise ValidationError(f"stream index out of range: {index}")
    key = np.array([seed % (1 << 64), (tag << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _propose(u1, u2, u3):
    """Draw one z from the horoball proposal mixture given three uniforms."""
    if u1 < 0.5:
        return complex(-1.0 + 2.0 * u2, 0.25 / (1.0 - u3))
    if u1 < 0.75:
        w = complex(-1.0 + 2.0 * u2, 0.5 / (1.0 - u3))
        return -1.0 / w
    if u1 < 0.875:
        w = complex(-1.0 + u2, 0.5 / (1.0 - u3))
        return -1.0 / w - 1.0
    w = complex(u2, 0.5 / (1.0 - u3))
    return -1.0 / w + 1.0


def _piece_multiplicity(z):
    """Number of proposal pieces containing z (>= 1 on the domain)."""
    m = 0
    if abs(z.real) <= 1.0 and z.imag >= 0.25:
        m += 1
    w = -1.0 / z
    if abs(w.real) <= 1.0 and w.imag >= 0.5:
        m += 1
    w = -1.0 / (z + 1.0)
    if -1.0 <= w.real <= 0.0 and w.imag >= 0.5:
        m += 1
    w = -1.0 / (z - 1.0)
    if 0.0 <= w.real <= 1.0 and w.imag >= 0.5:
        m += 1
    return m


def _draw_liouville_sample(seed, index, surf):
    gen = _sample_stream(seed, _STREAM_SAMPLE, index)
    for _ in range(_REJECTION_CAP):
        u1, u2, u3, u4 = gen.random(4)
        z = _propose(u1, u2, u3)
        if not surf.contains(z, slack=0.0):
            continue
        if u4 * _piece_multiplicity(z) < 1.0:
            alpha = 2.0 * math.pi * gen.random()
            return z, alpha
    raise NonterminationError(
        f"rejection sampling failed to accept within {_REJECTION_CAP} rounds")


def sample_liouville(n, seed, surf: QuotientSurface | None = None):
    """Draw n i.i.d. samples from normalized Liouville measure on the quotient.

    The base point is uniform in hyperbolic area on the fundamental domain
    (horoball rejection sampling); the fiber angle is uniform on [0, 2 pi).
    Sample i is drawn from its own counter-based stream keyed by (seed, i),
    so the result is deterministic in seed and independent of scheduling.

    Returns
    -------
    list of (z, alpha)
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    if surf is None:
        surf = QuotientSurface()
    return [_draw_liouville_sample(seed, i, surf) for i in range(int(n))]


def estimate_area(n, seed, surf: QuotientSurface | None = None):
    """Monte Carlo estimate of the hyperbolic area of the fundamental domain.

    Runs n proposals of the sampling mixture and returns
    ``(mass * p_hat, mass * sqrt(p_hat (1 - p_hat) / n))`` where p_hat is the
    acceptance fraction.  The exact area is 2 pi (Gauss-Bonnet for the
    thrice-punctured sphere), which makes this an end-to-end sampler check.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 proposals, got {n}")
    if surf is None:
        surf = QuotientSurface()
    accepted = 0
    for i in range(int(n)):
        gen = _sample_stream(seed, _STREAM_AREA, i)
        u1, u2, u3, u4 = gen.random(4)
        z = _propose(u1, u2, u3)
        if surf.contains(z, slack=0.0) and u4 * _piece_multiplicity(z) < 1.0:
            accepted += 1
    p_hat = accepted / n
    stderr = PROPOSAL_MASS * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return PROPOSAL_MASS * p_hat, stderr


# ---------------------------------------------------------------------------
# correlation functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpObservable:
    """Smooth compactly supported bump on the unit tangent bundle.

    ``f(z, alpha) = baseline + amplitude * max(0, 1 - (d(z, center)/radius)^2)
    ** order`` with d the hyperbolic distance; independent of alpha.  order k
    gives a C^(k-1) cutoff.  The default ball (center i, radius 0.8) lies
    inside the fundamental domain.
    """

    center: complex = 1.0j
    radius: float = 0.8
    order: int = 3
    amplitude: float = 1.0
    baseline: float = 0.0

    def __post_init__(self):
        if not self.radius > 0 or self.order < 1:
            raise ValidationError("bump needs radius > 0 and order >= 1")

    def __call__(self, z, alpha=None):
        d = hyperbolic_distance(z, self.center)
        q = 1.0 - (d / self.radius) ** 2
        bump = np.where(q > 0.0, q, 0.0) ** self.order
        return self.baseline + self.amplitude * bump


@dataclass(frozen=True)
class CorrelationRecord:
    """Sampled correlation function with standard errors.

    Serializes to CSV with exactly the columns ``t, rho, stderr`` and to
    JSON with those keys plus ``sample_count`` and ``seed``.
    """

    times: tuple
    values: tuple
    stderrs: tuple
    sample_count: int
    seed: int

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        stderrs = tuple(float(e) for e in self.stderrs)
        if not (len(times) == len(values) == len(stderrs)):
            raise ValidationError("times, values, stderrs must share a length")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("times must be strictly increasing")
        if self.sample_count < 1:
            raise ValidationError("sample_count must be >= 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stderrs", stderrs)

    def to_csv(self, path):
        """Write columns t, rho, stderr (full float precision)."""
        with open(path, "w", newline="") as fh:
            fh.write("t,rho,stderr\n")
            for t, v, e in zip(self.times, self.values, self.stderrs):
                fh.write(f"{t!r},{v!r},{e!r}\n")

    def to_json(self, path=None):
        """Serialize to a JSON string; also write it to path when given."""
        text = json.dumps({
            "t": list(self.times),
            "rho": list(self.values),
            "stderr": list(self.stderrs),
            "sample_count": self.sample_count,
            "seed": self.seed,
        })
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(times=tuple(data["t"]), values=tuple(data["rho"]),
                   stderrs=tuple(data["stderr"]),
                   sample_count=int(data["sample_count"]),
                   seed=int(data["seed"]))


def _eval_observable(f, z, alpha):
    """Evaluate an observable on arrays, falling back to a scalar loop."""
    try:
        out = np.asarray(f(z, alpha), dtype=float)
        if out.shape == z.shape:
            return out
        if out.shape == ():
            return np.full(z.shape, float(out))
    except (TypeError, ValueError):
        pass
    return np.fromiter((float(f(zi, ai)) for zi, ai in zip(z, alpha)),
                       dtype=float, count=len(z))


def correlate(A, B, T_max=DEFAULT_T_MAX, dt=DEFAULT_DT, n=1000, seed=0,
              surf: QuotientSurface | None = None) -> CorrelationRecord:
    """Monte Carlo correlation function of two observables along the flow.

    Estimates ``rho(t) = integral of (A o flow_t) * B`` against Liouville
    measure (total mass 2 pi: unit-mass fiber over the hyperbolic area) at
    times 0, dt, ..., T_max.  The estimator is ``2 pi * mean_i A(x_i(t))
    B(x_i(0))`` over n Liouville samples, with the per-time standard error of
    the mean; for constant observables it is exact with zero variance.

    Observables are callables ``f(z, alpha)`` (alpha is passed in (-pi, pi]
    for flowed points, so they must be 2 pi-periodic in alpha); vectorized
    callables are used as such, scalar ones looped.

    Returns
    -------
    CorrelationRecord
    """
    if not T_max > 0:
        raise ValidationError(f"T_max must be > 0, got {T_max}")
    if not dt > 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    if surf is None:
        surf = QuotientSurface()

    samples = sample_liouville(n, seed, surf)
    z_cur = np.array([z for z, _ in samples], dtype=complex)
    al_cur = np.array([al for _, al in samples], dtype=float)
    b_vals = _eval_observable(B, z_cur, al_cur)

    steps = int(math.floor(T_max / dt + 1e-9))
    times = [k * dt for k in range(steps + 1)]

    # step incrementally: flow by dt from the previously reduced point (the
    # flow is a one-parameter group, so this composes to the time-k*dt flow
    # exactly) -- reduction from a just-left point needs O(1) rounds instead
    # of the O(t) a single shot from t = 0 would.
    w = complex(0.0, math.exp(dt))
    values = []
    stderrs = []
    root_n = math.sqrt(n)
    for k in range(steps + 1):
        if k > 0:
            a_, b_, c_, d_ = _frame_matrix(z_cur, al_cur)
            den = c_ * w + d_
            z_new = (a_ * w + b_) / den
            v_new = w / (den * den)
            z_cur, v_cur = _reduce_arrays(z_new, v_new, surf)
            al_cur = np.angle(v_cur)
        prod = _eval_observable(A, z_cur, al_cur) * b_vals
        values.append(SURFACE_AREA * float(np.mean(prod)))
        if n > 1:
            stderrs.append(SURFACE_AREA * float(np.std(prod, ddof=1)) / root_n)
        else:
            stderrs.append(0.0)
    return CorrelationRecord(times=tuple(times), values=tuple(values),
                             stderrs=tuple(stderrs), sample_count=int(n),
                             seed=int(seed))


# ---------------------------------------------------------------------------
# Laplace transforms of correlation records
# ---------------------------------------------------------------------------

def _phi1(x):
    """(1 - e^-x)/x for complex arrays, series below |x| = 0.01."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 0.01
    xs = np.where(small, x, 0.0)
    series = 1.0 - xs / 2.0 + xs ** 2 / 6.0 - xs ** 3 / 24.0 + xs ** 4 / 120.0
    with np.errstate(invalid="ignore"):
        direct = (1.0 - np.exp(-x)) / np.where(small, 1.0, x)
    return np.where(small, series, direct)


def _phi2(x):
    """(1 - e^-x (1 + x))/x^2 for complex arrays, series below |x| = 0.01."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 0.01
    xs = np.where(small, x, 0.0)
    series = 0.5 - xs / 3.0 + xs ** 2 / 8.0 - xs ** 3 / 30.0 + xs ** 4 / 144.0
    xd = np.where(small, 1.0, x)
    with np.errstate(invalid="ignore"):
        direct = (1.0 - np.exp(-x) * (1.0 + x)) / (xd * xd)
    return np.where(small, series, direct)


def laplace_transform(rec: CorrelationRecord, s):
    """Truncated Laplace transform of a correlation record.

    Computes ``int_0^T_max e^(-s t) rho(t) dt`` with the piecewise-linear
    interpolant of the record integrated exactly against the kernel on each
    interval (so constant and linear records transform exactly, up to
    roundoff).  Use :func:`laplace_tail_bound` for the discarded tail.

    Raises
    ------
    DomainError
        If Re(s) <= 0; the truncated transform is only claimed there.
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"laplace_transform needs Re(s) > 0, got s = {s}")
    t = np.asarray(rec.times, dtype=float)
    f = np.asarray(rec.values, dtype=float)
    if t.size < 2:
        return 0.0j
    h = np.diff(t)
    x = s * h
    seg = np.exp(-s * t[:-1]) * h * (f[:-1] * _phi1(x) + np.diff(f) * _phi2(x))
    return complex(np.sum(seg))


def laplace_tail_bound(rec: CorrelationRecord, s):
    """Reported bound on the tail dropped by :func:`laplace_transform`.

    Bounds ``|int_T^inf e^(-st) rho dt|`` by ``M e^(-Re(s) T)/Re(s)`` where M
    is the max |rho| over the last tenth of the record -- a heuristic plateau
    bound appropriate for mixing correlations, reported rather than proven.
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"laplace_tail_bound needs Re(s) > 0, got s = {s}")
    k = max(1, len(rec.values) // 10)
    m = max(abs(v) for v in rec.values[-k:])
    return m * math.exp(-s.real * rec.times[-1]) / s.real
