"""Hyperbolic cusp geometry.

Model cusps ``Z = [a, oo) x R^d / Lambda`` carry the metric
``g = (dy^2 + d theta^2) / y^2``.  In the log-height coordinate ``r = log y``
this is ``dr^2 + e^{-2r} d theta^2``.  Points are written on the cover,
theta in R^d; nothing here reduces theta modulo Lambda.  Unit (co)sphere
directions are written ``zeta = (cos phi, sin phi * u)`` with inclination
``phi`` in ``[0, pi]`` and azimuth ``u`` a unit vector of R^d; ``phi = 0`` is
the zenith (North pole, pointing up the cusp) and ``phi = pi`` the nadir
(South pole).

For ``d = 1`` the module also provides the exact flow-invariant splitting of
the tangent space of the unit cotangent bundle into flow / stable / unstable
lines, in coordinates ``(r, theta, alpha)`` where ``alpha = u * phi`` is the
signed direction angle.  The frame is built from the isometry-group picture of
the hyperbolic plane (horizontal translation, dilation, rotation about the
base point), which makes the time-t pushforward rates exactly ``e^{-t}`` and
``e^{+t}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedDimensionError, ValidationError

#: tolerance for | |u| - 1 |
UNIT_TOL = 1e-12
#: phi closer than this to {0, pi} counts as a pole (azimuth canonicalized)
POLE_TOL = 1e-14
#: the splitting frame must have |det| above this floor
FRAME_DET_FLOOR = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """A point of the unit cotangent sphere bundle in cusp coordinates.

    Fields: log-height ``r``, cross-section point ``theta`` on the cover
    R^d (never reduced modulo a lattice), inclination ``phi in [0, pi]`` and
    unit azimuth ``u``.  At the poles the azimuth is dynamically irrelevant
    and is stored as the first basis vector.
    """

    r: float
    theta: np.ndarray
    phi: float
    u: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        if theta.shape != u.shape:
            raise ValidationError(f"theta and u differ in shape: {theta.shape}, {u.shape}")
        if not (0.0 <= self.phi <= np.pi):
            raise ValidationError(f"phi must lie in [0, pi], got {self.phi!r}")
        if abs((norm := float(np.linalg.norm(u))) - 1.0) > UNIT_TOL:
            raise ValidationError(f"u must be a unit vector, got |u| = {norm!r}")
        if min(self.phi, np.pi - self.phi) <= POLE_TOL:
            u = np.zeros_like(u)
            u[0] = 1.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "u", u)

    @property
    def d(self):
        return self.theta.shape[0]

    @property
    def y(self):
        return float(np.exp(self.r))


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


def apply_local_isometry(tau, theta0, p):
    """Apply the local isometry ``T_{tau, theta0}(r, theta) = (r + tau, e^tau theta + theta0)``.

    Parameters
    ----------
    tau : float
        Log-dilation parameter.
    theta0 : array_like
        Cross-section translation.
    p : (r, theta)
        Point to move, theta on the cover R^d.

    Returns
    -------
    (r, theta) : tuple of float and ndarray
    """
    r, theta = p
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    return (float(r) + float(tau), np.exp(tau) * theta + theta0)


# ---------------------------------------------------------------------------
# d = 1 invariant splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingFrame:
    """Flow/stable/unstable frame at a phase point, d = 1.

    Vectors are components in ``(r, theta, alpha)`` coordinates, where
    ``alpha = u * phi`` is the signed direction angle (``alpha = 0`` points up
    the cusp).  ``coframe`` rows are the dual covectors: ``coframe @ V`` has a
    single 1 for each frame vector V, so covector components in the dual frame
    are ``(xi . flow, xi . stable, xi . unstable)``.

    The construction is exact: the time-t pushforward of ``stable`` is
    ``e^{-t}`` times the stable vector at the image point, and ``unstable``
    carries ``e^{+t}`` (no error beyond floating point).
    """

    point: PhasePoint
    flow: np.ndarray
    stable: np.ndarray
    unstable: np.ndarray
    coframe: np.ndarray = field(default=None)

    def __post_init__(self):
        m = np.column_stack([self.flow, self.stable, self.unstable])
        det = np.linalg.det(m)
        if abs(det) < FRAME_DET_FLOOR:
            raise ValidationError(f"degenerate frame, |det| = {float(abs(det))!r}")
        object.__setattr__(self, "coframe", np.linalg.inv(m))

    @property
    def matrix(self):
        """Frame vectors as columns (flow, stable, unstable)."""
        return np.column_stack([self.flow, self.stable, self.unstable])


def direction_angle(p: PhasePoint) -> float:
    """Signed direction angle ``alpha = u * phi`` for a d = 1 phase point."""
    if p.d != 1:
        raise UnsupportedDimensionError("direction angle is defined for d = 1")
    return float(p.u[0]) * float(p.phi)


def splitting_frame_at(r, alpha):
    """Raw frame vectors at ``(r, alpha)`` in (r, theta, alpha) components.

    Returns (flow, stable, unstable).  Used by :func:`invariant_splitting`
    and by :mod:`cuspflow.escape`, which takes the raw vectors without
    building a :class:`SplittingFrame`.
    """
    y = np.exp(r)
    ca, sa = np.cos(alpha), np.sin(alpha)
    flow = np.array([ca, y * sa, sa])
    stable = np.array([-sa, y * ca, ca - 1.0])
    unstable = np.array([-sa, y * ca, ca + 1.0])
    return flow, stable, unstable


def invariant_splitting(p: PhasePoint) -> SplittingFrame:
    """Exact invariant splitting frame at a phase point (d = 1 only).

    At the North pole the stable line is spanned by the cross-section
    translation d/d theta (so d phi = 0 and dy = 0 along it), and the unstable
    line satisfies dy = 0, d theta / y = u * d phi / 2.

    Raises
    ------
    UnsupportedDimensionError
        If the phase point's dimension is not 1.
    """
    if p.d != 1:
        raise UnsupportedDimensionError(
            "the invariant splitting frame is implemented for d = 1 only")
    alpha = direction_angle(p)
    flow, stable, unstable = splitting_frame_at(p.r, alpha)
    return SplittingFrame(point=p, flow=flow, stable=stable, unstable=unstable)
