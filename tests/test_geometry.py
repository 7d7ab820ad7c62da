import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from _oracles import CotangentVector, cotangent_norm
from cuspflow import (
    DomainError,
    PhasePoint,
    UnsupportedDimensionError,
    apply_local_isometry,
    direction_angle,
    invariant_splitting,
    splitting_frame_at,
)
from cuspflow.errors import ValidationError
from cuspflow.geometry import FRAME_DET_FLOOR, SplittingFrame

finite = dict(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# PhasePoint invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, named", [
    (lambda: PhasePoint(0.0, (0.0, 0.0), 1.0, (1.0,)), "(2,), (1,)"),
    (lambda: PhasePoint(0.0, (0.0,), 4.0, (1.0,)), "got 4.0"),
    (lambda: PhasePoint(0.0, (0.0,), 1.0, (1.000000001,)), "|u| = 1.000000001"),
    (lambda: SplittingFrame(*np.eye(3)[[0, 0, 1]]), "|det| = 0.0"),
], ids=["u-shape", "phi", "u-norm", "frame"])
def test_invalid_geometry_raises_validation_error_naming_the_value(build, named):
    with pytest.raises(ValidationError) as err:
        build()
    assert named in str(err.value)


def test_phase_point_invariants():
    with pytest.raises(ValueError):
        PhasePoint(0.0, (0.0,), -0.1, (1.0,))
    with pytest.raises(ValueError):
        PhasePoint(0.0, (0.0,), 3.5, (1.0,))
    with pytest.raises(ValueError):
        PhasePoint(0.0, (0.0,), 1.0, (1.1,))
    # azimuth is canonicalized at the poles
    p = PhasePoint(0.0, (0.0,), 0.0, (-1.0,))
    assert p.u[0] == 1.0
    q = PhasePoint(0.0, (0.0, 0.0), math.pi, (0.6, 0.8))
    assert tuple(q.u) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# cotangent_norm
# ---------------------------------------------------------------------------

def test_cotangent_norm_examples():
    base = (1.0, (0.0,))
    assert cotangent_norm(base, CotangentVector(base, 1.0, (0.0,))) == 1.0
    base2 = (2.0, (0.0, 0.0))
    assert cotangent_norm(base2, CotangentVector(base2, 0.0, (3.0, 4.0))) == 10.0
    assert cotangent_norm((7.3, (0.0,)), CotangentVector((7.3, (0.0,)), 0.0, (0.0,))) == 0.0


def test_cotangent_norm_domain_error():
    base = (0.0, (0.0,))
    with pytest.raises(DomainError):
        cotangent_norm(base, CotangentVector(base, 1.0, (0.0,)))
    with pytest.raises(DomainError):
        cotangent_norm((-1.0, (0.0,)), CotangentVector((-1.0, (0.0,)), 1.0, (0.0,)))


# ---------------------------------------------------------------------------
# apply_local_isometry
# ---------------------------------------------------------------------------

def test_isometry_identity():
    r, theta = apply_local_isometry(0.0, (0.0,), (0.3, (0.12,)))
    assert r == 0.3
    assert theta[0] == pytest.approx(0.12, abs=1e-16)


def test_isometry_dilation_example():
    r, theta = apply_local_isometry(math.log(2.0), (0.0,), (0.0, (0.25,)))
    assert r == pytest.approx(math.log(2.0), abs=1e-15)
    assert theta[0] == pytest.approx(0.5, abs=1e-15)


@given(
    tau1=st.floats(-3, 3, **finite),
    tau2=st.floats(-3, 3, **finite),
    t1=st.floats(-5, 5, **finite),
    t2=st.floats(-5, 5, **finite),
    r=st.floats(-5, 5, **finite),
    th=st.floats(-5, 5, **finite),
)
@settings(max_examples=100, deadline=None)
def test_isometry_composition_law(tau1, tau2, t1, t2, r, th):
    step = apply_local_isometry(tau2, (t2,), apply_local_isometry(tau1, (t1,), (r, (th,))))
    combined = apply_local_isometry(tau1 + tau2, (math.exp(tau2) * t1 + t2,), (r, (th,)))
    assert step[0] == pytest.approx(combined[0], abs=1e-12)
    assert step[1][0] == pytest.approx(combined[1][0], rel=1e-12, abs=1e-12)


@given(
    tau=st.floats(-3, 3, **finite),
    t0=st.floats(-5, 5, **finite),
    y=st.floats(1e-2, 1e2, **finite),
    Y=st.floats(-10, 10, **finite),
    J=st.floats(-10, 10, **finite),
)
@settings(max_examples=100, deadline=None)
def test_isometry_preserves_cotangent_norm(tau, t0, y, Y, J):
    # T_{tau,theta0}: y -> e^tau y; a covector (Y, J) at the image pulls back
    # to (e^tau Y, e^tau J), so (Y, J) pushes forward to e^-tau (Y, J).
    base = (y, (0.0,))
    n0 = cotangent_norm(base, CotangentVector(base, Y, (J,)))
    y_img = math.exp(tau) * y
    img = (y_img, (t0,))
    s = math.exp(-tau)
    n1 = cotangent_norm(img, CotangentVector(img, s * Y, (s * J,)))
    assert n1 == pytest.approx(n0, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# invariant splitting (d = 1)
# ---------------------------------------------------------------------------

def _tangent_flow(r0, th0, al0, V0, t_end, t_eval):
    """Numeric tangent flow oracle: geodesic field + its linearization.

    State (r, theta, alpha, V) with dr = cos(alpha), dtheta = e^r sin(alpha),
    dalpha = sin(alpha) and dV = J(x) V, integrated with a high-order method.
    """

    def rhs(t, s):
        r, th, al = s[:3]
        ca, sa = math.cos(al), math.sin(al)
        er = math.exp(r)
        jac = np.array([
            [0.0, 0.0, -sa],
            [er * sa, 0.0, er * ca],
            [0.0, 0.0, ca],
        ])
        return np.concatenate(([ca, er * sa, sa], jac @ s[3:]))

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate(([r0, th0, al0], V0)),
                    t_eval=t_eval, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol


def test_unsupported_dimension():
    p2 = PhasePoint(0.0, (0.0, 0.0), 1.0, (1.0, 0.0))
    with pytest.raises(UnsupportedDimensionError):
        invariant_splitting(p2)
    with pytest.raises(UnsupportedDimensionError):
        direction_angle(p2)


def test_stable_is_cross_section_at_north_pole():
    p = PhasePoint(0.7, (0.2,), 0.0, (1.0,))
    fr = invariant_splitting(p)
    # stable = span(d/dtheta): no dr, no dalpha component
    assert fr.stable[0] == 0.0
    assert fr.stable[2] == 0.0
    assert fr.stable[1] > 0.0
    # unstable at the pole: dr = 0 and dtheta / y = u * dalpha / 2
    assert fr.unstable[0] == 0.0
    assert fr.unstable[1] / p.y == pytest.approx(fr.unstable[2] / 2.0, rel=1e-14)


def test_frame_determinant_100_random_points():
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        r = rng.uniform(-3.0, 3.0)
        phi = rng.uniform(0.05, math.pi - 0.05)
        u = rng.choice([-1.0, 1.0])
        p = PhasePoint(r, (rng.uniform(-1, 1),), phi, (u,))
        fr = invariant_splitting(p)
        frame = np.column_stack([fr.flow, fr.stable, fr.unstable])
        det = np.linalg.det(frame)
        assert abs(det) > FRAME_DET_FLOOR
        # the closed form gives det = 2y exactly
        assert det == pytest.approx(2.0 * p.y, rel=1e-12)
        # coframe really is dual
        assert np.allclose(fr.coframe @ frame, np.eye(3), atol=1e-10)


def test_stable_contraction_time_5():
    p = PhasePoint(0.3, (0.1,), 2.1, (1.0,))
    al0 = direction_angle(p)
    fr = invariant_splitting(p)
    sol = _tangent_flow(p.r, 0.1, al0, fr.stable, 5.0, [5.0])
    r5, th5, al5 = sol.y[:3, -1]
    expected = math.exp(-5.0) * splitting_frame_at(r5, al5)[1]
    err = np.max(np.abs(sol.y[3:, -1] - expected)) / np.max(np.abs(expected))
    assert err < 1e-8


@pytest.mark.parametrize("which,rate_sign", [("stable", -1.0), ("unstable", +1.0)])
def test_pushforward_rates_random_points(which, rate_sign):
    # 100 random points, rates at t in {1, 2, 5} within 1e-6 relative
    rng = np.random.default_rng(77)
    idx = {"stable": 1, "unstable": 2}[which]
    for _ in range(100):
        r = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.1, math.pi - 0.1)
        u = rng.choice([-1.0, 1.0])
        p = PhasePoint(r, (0.0,), phi, (u,))
        fr = invariant_splitting(p)
        v0 = (fr.stable, fr.unstable)[idx - 1]
        sol = _tangent_flow(p.r, 0.0, direction_angle(p), v0, 5.0, [1.0, 2.0, 5.0])
        for k, t in enumerate((1.0, 2.0, 5.0)):
            rt, _, alt = sol.y[:3, k]
            target = math.exp(rate_sign * t) * splitting_frame_at(rt, alt)[idx]
            num = sol.y[3:, k]
            assert np.max(np.abs(num - target)) <= 1e-6 * max(1.0, np.max(np.abs(target)))


def test_flow_direction_is_preserved_by_pushforward():
    p = PhasePoint(-0.4, (0.0,), 0.9, (-1.0,))
    fr = invariant_splitting(p)
    sol = _tangent_flow(p.r, 0.0, direction_angle(p), fr.flow, 3.0, [3.0])
    rt, _, alt = sol.y[:3, -1]
    target = splitting_frame_at(rt, alt)[0]
    assert np.max(np.abs(sol.y[3:, -1] - target)) < 1e-9
