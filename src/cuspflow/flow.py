"""Geodesic flow on hyperbolic cusps and on the level-2 congruence surface.

Two exact flows live here.  On the model cusp (any cross-section dimension)
the geodesic equations

    dr/dt = cos(phi),   dphi/dt = sin(phi),   dtheta/dt = e^r sin(phi) u,
    du/dt = 0,

integrate in closed form: ``tan(phi(t)/2) = e^t tan(phi(0)/2)`` and the rest
by elementary integrals.  On the thrice-punctured sphere (upper half-plane
modulo the level-2 congruence subgroup, generated by z -> z + 2 and
z -> z/(2z + 1)) the flow is a real closed form on (z, u = e^{i alpha}),
then the points that left the fundamental domain ``{|Re z| <= 1,
|2z - 1| >= 1, |2z + 1| >= 1}`` are reduced into it.  Besides infinity the
domain has the cusps 0 and +-1; in the chart w = -1/(z - c) of a cusp c the
group acts by w -> w + 2, so one move there brings back any cusp depth.
Step, containment test and reduction all work on the real arrays
(Re z, Im z, Re u, Im u); ``correlate`` keeps them in preallocated arrays
that each step updates in place.

The module also provides i.i.d. Liouville sampling on the quotient (horoball
rejection sampling on counter-based Philox4x64-10 streams, computed on
arrays of counters), correlation functions of observables along the flow,
and truncated Laplace transforms of correlation records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonterminationError, ToleranceError, ValidationError
from .geometry import PhasePoint

__all__ = [
    "CorrelationRecord",
    "BumpObservable",
    "flow_cusp_exact",
    "flow_quotient",
    "sample_liouville",
    "liouville_samples",
    "estimate_area",
    "correlate",
    "laplace_transform",
    "laplace_tail_bound",
    "DEFAULT_DT",
    "DEFAULT_T_MAX",
    "SURFACE_AREA",
]

#: default correlation time step
DEFAULT_DT = 0.1
#: default correlation horizon
DEFAULT_T_MAX = 20.0
#: cap on reduction rounds (a trip signals a bug).  A round is a translation,
#: a cusp move and a translation, so cusp depth costs one round; the rest
#: grows like the continued-fraction length of Re z at resolution Im z: at
#: most 145 seen for 10^5 points with Im z >= 1e-308.
REDUCTION_CAP = 256
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
# largest |t| with e^|t| a finite float
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# the fundamental domain of the quotient
_RE_HALFWIDTH = 1.0
_BUBBLE_CENTERS = (-0.5, 0.5)
_BUBBLE_RADIUS = 0.5


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
    ``phi0 > pi/2`` (parametrize by ``cot(phi0/2)``), and the drift is written
    in ``e^(-2|t|) <= 1``, so no intermediate overflows for |t| up to several
    hundred.

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

    # cross-section drift integral e^{r0} * int_0^t e^{r(s)-r0} sin(phi(s)) ds,
    # odd in t: half (1 - e) / (half^2 + e) toward the far hemisphere, else
    # half (1 - e) / (half^2 e + 1), with e = e^{-2|t|} <= 1
    if not p0.r <= _LOG_FLOAT_MAX:
        raise ValidationError(f"log-height r = {p0.r!r} is past {_LOG_FLOAT_MAX:.6f}, "
                              "where e^r leaves the float range")
    e = math.exp(-2.0 * abs(t))
    den = half * half + e if north_side == (t >= 0.0) else half * half * e + 1.0
    drift = math.copysign(half * (1.0 - e) / den, t)
    theta = p0.theta + (math.exp(p0.r) * drift) * p0.u
    return PhasePoint(r, theta, phi, p0.u)


# ---------------------------------------------------------------------------
# the level-2 congruence quotient
# ---------------------------------------------------------------------------

def _inside(x, y, slack=CONTAINMENT_SLACK, work=None):
    """Fundamental-domain membership of the points x + iy (real arrays).

    Only the bubble on the side of x can hold x + iy, and (|x| - 1/2)^2 is
    (x -+ 1/2)^2 to the bit.  ``work``: two scratch arrays shaped like x.
    """
    a, b = (None, None) if work is None else work
    a = np.abs(x, out=a)
    ok = a <= _RE_HALFWIDTH + slack
    a -= _BUBBLE_CENTERS[1]
    np.square(a, out=a)
    a += np.multiply(y, y, out=b)
    ok &= a >= _BUBBLE_RADIUS ** 2 - slack
    ok &= y > 0.0
    return ok


def _flow_time(t, name):
    """t as a float for the step, which needs e^|t| to be a finite float."""
    t = float(t)
    if not abs(t) <= _LOG_FLOAT_MAX:
        raise ValidationError(f"{name} = {t!r}: e^|{name}| must be a finite float, "
                              f"so |{name}| <= {_LOG_FLOAT_MAX:.6f}")
    return t


def _translate(x):
    """Re z taken into the strip by z -> z - 2m where |Re z| > 1 (+ slack)."""
    shift = np.floor((x + 1.0) / 2.0)
    shift *= np.abs(x) > _RE_HALFWIDTH + CONTAINMENT_SLACK
    return x - 2.0 * shift


def _chart_move(c, d, y, ux, uy, k):
    """The move w -> w - 2k in the chart w = -1/(z - c) of the cusp c:
    d + iy = z - c goes to (d + iy)/D, D = 1 + 2k (d + iy) = a + ib, and u
    turns by conj(D)^2/|D|^2, the phase of the derivative 1/D^2.  At k = 0
    it is the identity to the bit, as d = Re z - c is exact."""
    two_k = 2.0 * k
    a = 1.0 + two_k * d
    b = two_k * y
    aa = a * a
    bb = b * b
    n2 = aa + bb
    e = aa - bb                # conj(D)^2 = e - i f
    f = 2.0 * a * b
    return (c + (d * a + y * b) / n2, y / n2,
            (ux * e + uy * f) / n2, (uy * e - ux * f) / n2)


def _reduce(x, y, ux, uy, live):
    """Reduce the points at the indices ``live``, which lie outside the
    fundamental domain, into it, in place on z = x + iy and the direction
    u = ux + i uy of the tangent vector y u (of any length).

    A round translates Re z into the strip; then a point within distance 1
    of its nearest cusp c in {0, 1, -1} sits higher in the chart
    w = -1/(z - c) than at infinity, and w -> w - 2k, k = floor((Re w + 1)/2),
    takes it into the chart's strip in one move (a point in a bubble moves
    by the cusp on its side), so cusp depth costs one round; last, Re z is
    translated again.  Only the points still outside go to the next round.

    Raises
    ------
    DomainError
        If some Im z <= 0.
    NonterminationError
        If points remain outside after ``REDUCTION_CAP`` rounds.
    """
    bad = live[~(y[live] > 0.0)]
    if bad.size:
        raise DomainError(f"reduction needs Im z > 0, got z = {complex(x[bad[0]], y[bad[0]])}")
    for _ in range(REDUCTION_CAP):
        if live.size == 0:
            return
        xs, ys = _translate(x[live]), y[live]
        c = np.rint(xs)
        d = xs - c
        k = np.floor((1.0 - d / (d * d + ys * ys)) * 0.5)
        xs, ys, ux[live], uy[live] = _chart_move(c, d, ys, ux[live], uy[live], k)
        x[live] = xs = _translate(xs)
        y[live] = ys
        live = live[~_inside(xs, ys)]
    if live.size:
        raise NonterminationError(
            f"reduction left {live.size} point(s) outside the fundamental domain "
            f"after {REDUCTION_CAP} rounds, e.g. z = {complex(x[live[0]], y[live[0]])}")


def _geodesic_step(x, y, ux, uy, t, work):
    """Time-t geodesic flow of the tangent vectors y u at z = x + iy, with
    u = ux + i uy = e^{i alpha}, on the upper half-plane, in place on the
    1-d arrays x, y, ux, uy:

        z(t) = x + y (ux sinh t + i) / D,   D = cosh t - uy sinh t,
        u(t) = (ux + i (uy cosh t - sinh t)) / D.

    D and uy cosh t - sinh t are the sum and difference of e^-t p / 2 and
    e^t m / 2, p = 1 + uy, m = 1 - uy, the smaller of p and m written as
    ux^2 / the larger: cosh and sinh would cancel for large |t| and u near
    +-i.  Then D^2 - (uy cosh t - sinh t)^2 = p m = ux^2, so |u(t)| = 1.
    ``work`` is four scratch arrays shaped like x; |t| must pass
    ``_flow_time``.
    """
    p, m, s, q = work
    np.abs(uy, out=p)
    p += 1.0                   # 1 + uy where uy >= 0, else 1 - uy
    np.multiply(ux, ux, out=m)
    m /= p                     # the other one of the two
    # swap them where uy < 0: times the indicator s in {0, 1} every product
    # and sum is exact, so this selects with no gather or scatter
    np.less(uy, 0.0, out=s)
    np.multiply(p, s, out=q)
    s *= m
    m -= s
    m += q
    p -= q
    p += s
    m *= 0.5 * math.exp(t)     # the growing term
    p *= 0.5 * math.exp(-t)    # the decaying term
    np.add(m, p, out=s)        # D
    y /= s
    np.multiply(y, ux, out=q)
    q *= math.sinh(t)
    x += q
    ux /= s
    np.subtract(p, m, out=uy)
    uy /= s


def flow_quotient(z0, alpha0, t):
    """Geodesic flow on the quotient surface, reduced to the fundamental domain.

    Flows the unit tangent vector (z0, angle alpha0) for time t along the
    exact hyperbolic geodesic (``_geodesic_step``), then reduces.  It carries
    the paper's flow on the level-2 quotient as a function of its own: the
    tier-1 tests check through it that the flow is reversible, runs at unit
    speed and matches the 40-digit flow and reduction.  ``correlate`` steps
    the same kernels in place on its sample arrays, so no package path calls it.

    Parameters
    ----------
    z0 : complex or array of complex
        Start point(s), Im z0 > 0.
    alpha0 : float or array of float
        Tangent angle: the tangent vector is ``Im(z0) e^{i alpha0}``.
    t : float
        Flow time; e^|t| must be a finite float.

    Returns
    -------
    (z, alpha) : complex and float, or arrays for array input
        Reduced endpoint and its tangent angle in (-pi, pi].

    Raises
    ------
    DomainError
        If some Im z0 <= 0.
    ValidationError
        If e^|t| overflows.
    """
    t = _flow_time(t, "t")
    z0 = np.asarray(z0, dtype=complex)
    if not np.all(z0.imag > 0.0):
        raise DomainError(f"flow_quotient needs Im z0 > 0, got {z0[~(z0.imag > 0.0)].flat[0]}")
    shape = np.broadcast(z0, alpha0).shape
    x, y, ux, uy = (np.array(np.broadcast_to(a, shape), dtype=float).ravel()
                    for a in (z0.real, z0.imag, np.cos(alpha0), np.sin(alpha0)))
    _geodesic_step(x, y, ux, uy, t, [np.empty(x.size) for _ in range(4)])
    _reduce(x, y, ux, uy, np.flatnonzero(~_inside(x, y)))
    if not shape:
        return complex(x[0], y[0]), math.atan2(uy[0], ux[0])
    return (x + 1j * y).reshape(shape), np.arctan2(uy, ux).reshape(shape)


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
#
# Random words: Philox4x64-10 (Salmon et al., SC'11) on arrays.  Stream
# (seed, tag, index) has key (seed mod 2^64, tag << 48 | index); its block
# b >= 1 encrypts counter (b, 0, 0, 0), as numpy's Philox(key=...) does.

_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
#: stream indices per sampler chunk, so working memory does not grow with n
_SAMPLE_CHUNK = 1 << 15
#: pending streams below which one Philox call draws several rejection
#: attempts per stream (a call costs about 0.5 ms below this size, whatever it is)
_TAIL_STREAMS = 1000


def _mulhilo(m, x):
    """High and low words of the 128-bit products m * x: the low word by
    wrapping multiplication, the high one by 32-bit limbs."""
    m_lo, m_hi = m & _LOW32, m >> _U32
    x_lo, x_hi = x & _LOW32, x >> _U32
    hi_lo = m_hi * x_lo
    mid = (m_lo * x_lo >> _U32) + (hi_lo & _LOW32) + m_lo * x_hi   # < 2^64
    return m_hi * x_hi + (hi_lo >> _U32) + (mid >> _U32), m * x


def _philox_block(seed, tag, index, block):
    """Words 0-3 of counter block ``block`` of the streams (seed, tag, i) for
    the stream indices i in the uint64 array ``index``; an array of blocks
    broadcasts against ``index``."""
    k0 = seed % (1 << 64)     # the same for every stream
    k1 = (np.uint64(tag) << np.uint64(48)) | index
    # the counters broadcast: the first round costs no stream-sized array work
    c0 = np.array(block, dtype=np.uint64, ndmin=1)
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)
    for rnd in range(10):
        if rnd:
            k0, k1 = (k0 + _PHILOX_W[0]) % (1 << 64), k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _unit(word):
    """Random words as doubles in [0, 1), as numpy's ``Generator.random``."""
    return (word >> np.uint64(11)) * 2.0 ** -53


def _neg_reciprocal(re, im):
    """Parts of -1/(re + i im), im > 0, by the steps of CPython's complex
    division.

    Each value is bitwise the one scalar Python arithmetic gives; numpy's
    own complex division differs by an ulp on about a tenth of proposals.
    Each branch runs on its own index subset; with im > 0 the constant
    terms of the numerators drop out exactly.
    """
    w_re, w_im = np.empty_like(re), np.empty_like(re)
    wide = np.abs(re) >= im
    i = np.flatnonzero(wide)
    ratio = im[i] / re[i]
    denom = re[i] + im[i] * ratio
    w_re[i], w_im[i] = -1.0 / denom, ratio / denom
    i = np.flatnonzero(~wide)
    ratio = re[i] / im[i]
    denom = re[i] * ratio + im[i]
    w_re[i], w_im[i] = (0.0 - ratio) / denom, 1.0 / denom
    return w_re, w_im


def _propose(u1, u2, u3):
    """Proposals x + iy from the horoball mixture, given uniform arrays."""
    # pieces infinity, 0, -1, 1 split u1 at 1/2, 3/4, 7/8.  Built from 0/1
    # comparisons, x and y are each piece's formula to the bit: x = -1 + 2 u2,
    # -1 + 2 u2, -1 + u2, u2 and y = 0.25, 0.5, 0.5, 0.5 over 1 - u3
    chart = u1 >= 0.5
    minus = u1 >= 0.75
    plus = u1 >= 0.875
    x = (2.0 - minus) * u2
    x -= ~plus
    y = (0.25 + 0.25 * chart) / (1.0 - u3)
    # z itself on the infinity piece, w -> -1/w + c from the chart point w
    # on the others, c = 0, -1, 1
    i = np.flatnonzero(chart)
    w_re, w_im = _neg_reciprocal(x[i], y[i])
    x[i] = w_re + (2.0 * plus[i] - minus[i])
    y[i] = w_im
    return x, y


def _piece_multiplicity(x, y):
    """Number of proposal pieces containing each x + iy (>= 1 on the domain)."""
    m = ((np.abs(x) <= 1.0) & (y >= 0.25)).astype(int)
    for re, lo, hi in ((x, -1.0, 1.0), (x + 1.0, -1.0, 0.0), (x - 1.0, 0.0, 1.0)):
        w_re, w_im = _neg_reciprocal(re, y)
        m += (lo <= w_re) & (w_re <= hi) & (w_im >= 0.5)
    return m


def _accept(words):
    """Proposals x + iy from the four words of a block, and whether each is
    accepted."""
    u1, u2, u3, u4 = map(_unit, words)
    x, y = _propose(u1, u2, u3)
    ok = _inside(x, y, slack=0.0)
    i = np.flatnonzero(ok)
    ok[i] = u4[i] * _piece_multiplicity(x[i], y[i]) < 1.0
    return x, y, ok


def _chunks(n):
    """uint64 arrays of stream indices 0..n-1, at most _SAMPLE_CHUNK each."""
    if n > _MAX_STREAM_INDEX:
        raise ValidationError(f"stream index out of range: {n - 1}")
    for start in range(0, n, _SAMPLE_CHUNK):
        yield np.arange(start, min(n, start + _SAMPLE_CHUNK), dtype=np.uint64)


def _attempts_per_call(pending, left):
    """Rejection attempts per stream that one Philox call draws for
    ``pending`` streams, of the ``left`` that the cap allows: one while
    ``_TAIL_STREAMS`` or more are pending; below that, enough that all of them
    accept with probability about 15/16, as an attempt rejects with
    probability 1 - area/mass."""
    if pending >= _TAIL_STREAMS:
        return 1
    per_attempt = -math.log1p(-SURFACE_AREA / PROPOSAL_MASS)
    return min(left, math.ceil(math.log(16 * pending) / per_attempt))


def liouville_samples(n, seed):
    """Draw n i.i.d. samples from normalized Liouville measure on the quotient.

    The base point is uniform in hyperbolic area on the fundamental domain
    (horoball rejection sampling); the fiber angle is uniform on [0, 2 pi).
    Sample i reads its own Philox4x64-10 stream, keyed (seed mod 2^64, i):
    rejection attempt j = 0, 1, ... takes u1..u4 from counter block
    (j + 1, 0, 0, 0), the angle is word 0 of the next block, and a word
    maps to ``(word >> 11) * 2^-53``.  So the result depends on seed only.

    The streams run in lockstep, one attempt per Philox call, until fewer
    than ``_TAIL_STREAMS`` are pending; then one call draws the next several
    attempts of every pending stream, and each keeps its first acceptance.
    A word is a function of its stream and block alone, so the batching
    changes no sample.

    Returns
    -------
    (z, alpha) : complex and float arrays of length n

    Raises
    ------
    NonterminationError
        If a sample rejects ``_REJECTION_CAP`` proposals (names the index).
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    z = np.empty(int(n), dtype=complex)
    alpha = np.empty(int(n))
    for index in _chunks(int(n)):
        start = int(index[0])
        pending = np.arange(index.size)
        words = _philox_block(seed, _STREAM_SAMPLE, index, 1)
        attempt = 1                # the attempt whose uniforms ``words`` holds
        while pending.size:
            if attempt > _REJECTION_CAP:
                raise NonterminationError(
                    f"rejection sampling for sample {index[pending[0]]} failed to "
                    f"accept within {_REJECTION_CAP} rounds")
            k = _attempts_per_call(pending.size, _REJECTION_CAP - attempt + 1)
            # blocks attempt + 1 .. attempt + k, a row per pending stream:
            # block b holds the angle if attempt b - 1 accepts, and the
            # uniforms of attempt b if it rejects
            after = _philox_block(seed, _STREAM_SAMPLE, index[pending, None],
                                  np.arange(attempt + 1, attempt + k + 1))
            x, y, ok = _accept(words if k == 1 else
                               [np.concatenate((w[:, None], a[:, :-1]), axis=1).ravel()
                                for w, a in zip(words, after)])
            hit = np.flatnonzero(ok)
            row = hit // k
            first = np.ones(hit.size, dtype=bool)     # each stream's first acceptance
            first[1:] = row[1:] != row[:-1]
            hit, row = hit[first], row[first]
            at = start + pending[row]
            z.real[at] = x[hit]
            z.imag[at] = y[hit]
            alpha[at] = 2.0 * math.pi * _unit(after[0].ravel()[hit])
            left = np.ones(pending.size, dtype=bool)
            left[row] = False
            i = np.flatnonzero(left)
            pending = pending[i]
            words = [a[i, -1] for a in after]
            attempt += k
    return z, alpha


def sample_liouville(n, seed):
    """:func:`liouville_samples` as a list of (z, alpha) pairs.

    The benchmark's traced run wraps this name (span ``flow.sample_liouville``),
    so it stays callable until the benchmark is re-wrapped; the package calls
    :func:`liouville_samples`."""
    z, alpha = liouville_samples(n, seed)
    return list(zip(z.tolist(), alpha.tolist()))


def estimate_area(n, seed):
    """Monte Carlo estimate of the hyperbolic area of the fundamental domain.

    Runs n proposals of the sampling mixture and returns
    ``(mass * p_hat, mass * sqrt(p_hat (1 - p_hat) / n))`` where p_hat is the
    acceptance fraction.  The exact area is 2 pi (Gauss-Bonnet for the
    thrice-punctured sphere), which makes this an end-to-end sampler check.
    Proposal i takes u1..u4 from block 1 of the stream (seed, tag 1, i).
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 proposals, got {n}")
    accepted = sum(int(np.count_nonzero(_accept(_philox_block(seed, _STREAM_AREA, index, 1))[2]))
                   for index in _chunks(int(n)))
    p_hat = accepted / n
    stderr = PROPOSAL_MASS * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return PROPOSAL_MASS * p_hat, stderr


# ---------------------------------------------------------------------------
# correlation functions
# ---------------------------------------------------------------------------

#: tanh-sinh rule of BumpObservable.integral: step 1/32 for |t| <= 3.5, past
#: which the weights are below 1e-21
_TS_STEP = 1.0 / 32.0
_TS_NODES = 112


@dataclass(frozen=True)
class BumpObservable:
    """Smooth compactly supported bump on the unit tangent bundle.

    ``f(z, alpha) = baseline + amplitude * max(0, 1 - (d(z, center)/radius)^2)
    ** order`` with d the hyperbolic distance; independent of alpha.  order k
    gives a C^(k-1) cutoff.  The default ball (center i, radius 0.8) lies
    inside the fundamental domain.  Amplitude 0 gives the constant
    ``baseline``, whose :meth:`integral` is exact.
    """

    center: complex = 1.0j
    radius: float = 0.8
    order: int = 3
    amplitude: float = 1.0
    baseline: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0 and self.order >= 1 and complex(self.center).imag > 0):
            raise ValidationError("bump needs radius > 0, order >= 1 and Im center > 0")
        if not self.radius <= _LOG_FLOAT_MAX:
            raise ValidationError(f"bump radius {self.radius!r} is past {_LOG_FLOAT_MAX:.6f}, "
                                  "where e^radius leaves the float range")

    def __call__(self, z, alpha=None):
        # arccosh and the power only where cosh d < cosh(radius) (1 + 1e-9):
        # the bump is 0 beyond, and the 1e-9 keeps every point whose rounded
        # distance is under the radius.  The bound is on 1 + q, which
        # arccosh reads, as 1 + q rounds q off at small radii.  1 + q is
        # |z - c|^2 / (2 Im z Im c), in place.
        z = np.asarray(z, dtype=complex)
        flat = np.abs(z.ravel() - self.center)
        np.square(flat, out=flat)
        out = np.multiply(z.imag, 2.0).ravel()
        out *= complex(self.center).imag
        flat /= out
        flat += 1.0
        out.fill(self.baseline + self.amplitude * 0.0)
        near = np.flatnonzero(flat < math.cosh(self.radius) * (1.0 + 1e-9))
        q = 1.0 - (np.arccosh(flat[near]) / self.radius) ** 2
        out[near] = self.baseline + self.amplitude * np.where(q > 0.0, q, 0.0) ** self.order
        return out.reshape(z.shape)[()]

    def integral(self):
        """``(value, error)``: the integral of f against Liouville measure
        (mass 2 pi), i.e. over the fundamental domain F in hyperbolic area,
        and a bound on the error of the value.

        The half-planes beyond F's four sides are disjoint, so the ball
        meets F in the ball minus one cap per side, wherever the center
        lies.  About the center, a side at signed distance D (D < 0 beyond
        it) cuts ``2 atan2(sqrt(sinh(r - |D|) sinh(r + |D|)), sinh D cosh r)``
        off the circle of radius r > |D|, and all of it at r < -D.  Each
        piece is a tanh-sinh integral in r of bump(r) sinh r times an angle.
        The bound adds the embedded half rule's difference and 8 ulp of the
        terms' magnitudes: the ball and the caps grow like e^radius, so
        their difference loses about eps e^radius to roundoff.
        """
        R, k = float(self.radius), self.order
        x0, y0 = complex(self.center).real, complex(self.center).imag
        t = np.arange(-_TS_NODES, _TS_NODES + 1) * _TS_STEP
        u = _HALF_PI * np.sinh(t)
        node = 1.0 / (1.0 + np.exp(-2.0 * u))      # in (0, 1), exact near 0
        weight = _TS_STEP * _HALF_PI * np.cosh(t) / (2.0 * np.cosh(u) ** 2)

        def radial(lo, hi):
            """r - lo and r at the nodes of [lo, hi], and the weights times
            bump(r) sinh r there."""
            off = (hi - lo) * node
            r = lo + off
            return off, r, (hi - lo) * weight * (1.0 - (r / R) ** 2) ** k * np.sinh(r)

        two_pi = 2.0 * math.pi
        rows = [two_pi * radial(0.0, R)[2]]
        # sinh D for the sides Re z = 1, Re z = -1, |z - 1/2| = 1/2, |z + 1/2| = 1/2
        for s in ((1.0 - x0) / y0, (1.0 + x0) / y0,
                  (x0 * x0 - x0 + y0 * y0) / y0, (x0 * x0 + x0 + y0 * y0) / y0):
            d = math.asinh(abs(s))
            if s < 0.0:
                rows.append(-two_pi * radial(0.0, min(d, R))[2])
            if d < R:
                off, r, g = radial(d, R)
                rows.append(-2.0 * g * np.arctan2(np.sqrt(np.sinh(off) * np.sinh(r + d)),
                                                  s * np.cosh(r)))
        terms = np.array(rows)
        embedded = terms.sum(axis=1) - 2.0 * terms[:, ::2].sum(axis=1)
        error = (float(np.abs(embedded).sum())
                 + 8.0 * float(np.finfo(float).eps) * float(np.abs(terms).sum()))
        return (two_pi * self.baseline + self.amplitude * float(terms.sum()),
                abs(self.amplitude) * error)


@dataclass(frozen=True)
class CorrelationRecord:
    """Sampled correlation function with standard errors; the CLI writes the
    columns ``t, rho, stderr`` as ``correlation.csv``."""

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


def correlate(A, B, T_max=DEFAULT_T_MAX, dt=DEFAULT_DT, n=1000,
              seed=0) -> CorrelationRecord:
    """Monte Carlo correlation function of two observables along the flow.

    Estimates ``rho(t) = integral of (A o flow_t) * B`` against Liouville
    measure (total mass 2 pi: unit-mass fiber over the hyperbolic area) at
    times 0, dt, ..., T_max.  The estimator is ``2 pi * mean_i A(x_i(t))
    B(x_i(0))`` over n Liouville samples, with the per-time standard error of
    the mean; for constant observables (a :class:`BumpObservable` of
    amplitude 0 is one) it is exact with zero variance.  A value or standard
    error that is not finite raises ToleranceError naming its time.
    Samples with B(x_i(0)) = 0 are not flowed, as their products are 0: A
    is read only on B's support, and a reduction error (``DomainError``,
    ``NonterminationError``) can come only from a flowed sample.

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
    dt = _flow_time(dt, "dt")
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")

    z, alpha = liouville_samples(n, seed)
    b_vals = _eval_observable(B, z, alpha)
    # off B's support A * B is the 0 that B forces: flow only the support (a
    # NaN of B is flowed); indexing copies, so B may return a view of z or alpha
    live = np.flatnonzero(b_vals != 0.0)
    z, alpha, b_vals = z[live], alpha[live], b_vals[live]

    steps = int(math.floor(T_max / dt + 1e-9))
    times = [k * dt for k in range(steps + 1)]

    # step incrementally: flow by dt from the previously reduced point (the
    # flow is a one-parameter group, so this composes to the time-k*dt flow
    # exactly).  A point flowed by a short dt from the domain is one or a
    # few reduction rounds from it, whichever cusp it entered; one shot from
    # t = 0 would put it at distance t, through up to O(t) domain copies.
    # Each step moves (x, y, u) in place, tests containment once and reduces
    # only the points that left the domain; z and alpha are rewritten in
    # place for the observable, whose products fill the support of prod.
    x, y = z.real.copy(), z.imag.copy()
    ux, uy = np.cos(alpha), np.sin(alpha)
    work = [np.empty(x.size) for _ in range(4)]
    prod = np.zeros(n)
    dev = np.empty(n)
    values = []
    stderrs = []
    root_n = math.sqrt(n)
    for k in range(steps + 1):
        if k > 0:
            _geodesic_step(x, y, ux, uy, dt, work)
            _reduce(x, y, ux, uy, np.flatnonzero(~_inside(x, y, work=work[:2])))
            np.copyto(z.real, x)
            np.copyto(z.imag, y)
            np.arctan2(uy, ux, out=alpha)
        prod[live] = _eval_observable(A, z, alpha) * b_vals
        # np.mean and np.std(ddof=1) to the bit, from one sum of prod
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan raises below
            mean = np.add.reduce(prod) / n
            values.append(SURFACE_AREA * float(mean))
            if n > 1:
                np.subtract(prod, mean, out=dev)
                np.multiply(dev, dev, out=dev)
                stderrs.append(SURFACE_AREA * math.sqrt(np.add.reduce(dev) / (n - 1)) / root_n)
            else:
                stderrs.append(0.0)
        if not (math.isfinite(values[-1]) and math.isfinite(stderrs[-1])):
            raise ToleranceError(f"the correlation at t={times[k]!r} is {values[-1]!r} with "
                                 f"standard error {stderrs[-1]!r}, not a finite value")
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
