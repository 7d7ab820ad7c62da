import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import cuspflow.flow as fl
from _oracles import (QuotientSurface, _frame_matrix, cusp_chart_bump_integral,
                      disc_bump_integral, four_branch_theta, geodesic_velocity,
                      hyperbolic_distance, lockstep_liouville_samples,
                      reference_correlate, reference_reduce, reference_step)
from cuspflow import (
    BumpObservable,
    CorrelationRecord,
    DomainError,
    NonterminationError,
    PhasePoint,
    ToleranceError,
    ValidationError,
    correlate,
    estimate_area,
    flow_cusp_exact,
    flow_quotient,
    laplace_tail_bound,
    laplace_transform,
    sample_liouville,
)

SURF = QuotientSurface()

finite = dict(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# closed-form cusp flow vs frozen and live oracles
# ---------------------------------------------------------------------------

# endpoints computed by an independent adaptive DOP853 integration of the
# geodesic system at rtol 1e-13 (worst closed-form deviation seen: ~1e-12)
FROZEN = [
    ((0.0, 0.0, 1.0471975511965976, 1.0, 2.0),
     (-0.6671960885860438, 1.6117656382311665, 2.6810916998925984)),
    ((0.5, 0.25, 2.5, -1.0, 3.0),
     (-2.3955482553084684, -0.2963188151283298, 3.108509832591375)),
    ((-0.2, 0.1, 0.7, 1.0, -4.0),
     (-4.074958791512329, -0.19874644442477224, 0.013371260965925877)),
]


@pytest.mark.parametrize("start,end", FROZEN)
def test_flow_matches_frozen_oracle(start, end):
    r0, th0, phi0, u, t = start
    p = flow_cusp_exact(PhasePoint(r0, (th0,), phi0, (u,)), t)
    assert p.r == pytest.approx(end[0], abs=1e-11)
    assert p.theta[0] == pytest.approx(end[1], abs=1e-11)
    assert p.phi == pytest.approx(end[2], abs=1e-11)


@pytest.mark.parametrize("r0,th0,phi0,u,t", [
    (0.4, 0.3, 1.2, -1.0, 6.0),
    (-1.0, 0.0, 2.8, 1.0, 1.5),
    (0.0, -0.2, 0.35, 1.0, -3.0),
])
def test_flow_matches_live_integration(r0, th0, phi0, u, t):
    def rhs(_, s):
        r, th, phi = s
        return [math.cos(phi), math.exp(r) * math.sin(phi) * u, math.sin(phi)]

    sol = solve_ivp(rhs, (0.0, t), [r0, th0, phi0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    p = flow_cusp_exact(PhasePoint(r0, (th0,), phi0, (u,)), t)
    assert p.r == pytest.approx(sol.y[0, -1], abs=1e-9)
    assert p.theta[0] == pytest.approx(sol.y[1, -1], abs=1e-9)
    assert p.phi == pytest.approx(sol.y[2, -1], abs=1e-9)


def test_pole_axes_are_exact():
    north = PhasePoint(0.3, (0.1,), 0.0, (1.0,))
    p = flow_cusp_exact(north, 7.25)
    assert (p.r, p.phi) == (0.3 + 7.25, 0.0)
    assert p.theta[0] == 0.1
    south = PhasePoint(0.3, (0.1,), math.pi, (1.0,))
    q = flow_cusp_exact(south, 7.25)
    assert (q.r, q.phi) == (0.3 - 7.25, math.pi)
    assert q.theta[0] == 0.1


def test_drift_is_bitwise_the_four_branch_formula():
    # the one expression in e = e^{-2|t|} must equal each overflow branch
    # exactly: both hemispheres, t = +0.0 and -0.0, and |t| from 1e-12 to
    # past 355, where e^{2|t|} itself overflows
    mags = np.concatenate(([0.0], np.geomspace(1e-12, 400.0, 240)))
    points = [PhasePoint(r0, theta0, phi0, u0)
              for phi0 in (1e-9, 0.3, 1.2, 0.5 * math.pi, 2.0, 3.1, math.pi - 1e-9)
              for r0, theta0, u0 in ((0.0, (0.0,), (1.0,)), (-1.7, (0.4,), (-1.0,)),
                                     (2.5, (-3.0, 0.25), (0.6, -0.8)))]
    for p0 in points:
        for t in np.concatenate((mags, -mags)):
            assert np.array_equal(flow_cusp_exact(p0, t).theta, four_branch_theta(p0, t))


def test_max_height():
    # r_max = r0 - log sin(phi0), attained where tan(phi/2) = 1
    r0, phi0 = 0.2, 0.9
    p0 = PhasePoint(r0, (0.0,), phi0, (1.0,))
    t_star = -math.log(math.tan(0.5 * phi0))
    r_star = flow_cusp_exact(p0, t_star).r
    assert r_star == pytest.approx(r0 - math.log(math.sin(phi0)), abs=1e-12)
    for t in np.linspace(0.0, 20.0, 401):
        assert flow_cusp_exact(p0, t).r <= r_star + 1e-12


@given(
    r0=st.floats(-3, 3, **finite),
    phi0=st.floats(0.01, math.pi - 0.01, **finite),
    u=st.sampled_from([-1.0, 1.0]),
    t1=st.floats(-5, 5, **finite),
    t2=st.floats(-5, 5, **finite),
)
@settings(max_examples=150, deadline=None)
def test_semigroup(r0, phi0, u, t1, t2):
    p0 = PhasePoint(r0, (0.0,), phi0, (u,))
    one = flow_cusp_exact(p0, t1 + t2)
    two = flow_cusp_exact(flow_cusp_exact(p0, t1), t2)
    assert two.r == pytest.approx(one.r, abs=1e-10)
    assert two.phi == pytest.approx(one.phi, abs=1e-10)
    assert two.theta[0] == pytest.approx(one.theta[0], rel=1e-10, abs=1e-10)


@given(
    phi0=st.floats(1e-5, math.pi - 1e-5, **finite),
    t=st.floats(-8, 8, **finite),
)
@settings(max_examples=150, deadline=None)
def test_azimuth_constant_and_decoupled(phi0, t):
    # (A) u is a constant of motion; (B) the (phi, u) dynamics does not see
    # (r0, theta0)
    u3 = np.array([2.0, -1.0, 2.0]) / 3.0
    p = PhasePoint(0.4, (0.0, 0.0, 0.0), phi0, u3)
    q = flow_cusp_exact(p, t)
    assert np.max(np.abs(q.u - u3)) < 1e-12
    a = flow_cusp_exact(PhasePoint(0.0, (0.0,), phi0, (1.0,)), t)
    b = flow_cusp_exact(PhasePoint(-2.3, (0.7,), phi0, (1.0,)), t)
    assert a.phi == b.phi


@given(
    r0=st.floats(-2, 2, **finite),
    phi0=st.floats(0.01, math.pi - 0.01, **finite),
    t=st.floats(0, 20, **finite),
)
@settings(max_examples=200, deadline=None)
def test_bounded_excursion(r0, phi0, t):
    p = flow_cusp_exact(PhasePoint(r0, (0.0,), phi0, (1.0,)), t)
    assert p.r <= r0 - math.log(math.sin(phi0)) + 1e-12


def test_flow_state():
    p0 = PhasePoint(0.0, (0.0,), 1.3, (1.0,))
    stepped = flow_cusp_exact(flow_cusp_exact(p0, 0.7), 0.3)
    direct = flow_cusp_exact(p0, 1.0)
    assert stepped.r == pytest.approx(direct.r, abs=1e-12)
    # velocity is the right-hand side of the geodesic system
    dr, dth, dphi = geodesic_velocity(p0)
    eps = 1e-7
    q = flow_cusp_exact(p0, eps)
    assert (q.r - p0.r) / eps == pytest.approx(dr, abs=1e-6)
    assert (q.theta[0] - p0.theta[0]) / eps == pytest.approx(dth[0], abs=1e-6)
    assert (q.phi - p0.phi) / eps == pytest.approx(dphi, abs=1e-6)


# ---------------------------------------------------------------------------
# quotient surface
# ---------------------------------------------------------------------------

def test_membership_predicate():
    assert SURF.contains(0.3 + 1.2j)
    assert SURF.contains(2.0j)
    assert not SURF.contains(1.5 + 0.2j)      # outside the strip
    assert not SURF.contains(0.5 + 0.3j)      # inside the right bubble
    assert not SURF.contains(0.3 - 1.0j)      # lower half-plane


def test_quotient_identity_at_t0():
    z0, a0 = 0.1 + 1.3j, 0.7
    z, a = flow_quotient(z0, a0, 0.0)
    assert abs(z - z0) < 1e-13
    assert a == pytest.approx(a0, abs=1e-13)


def test_quotient_requires_upper_half_plane():
    with pytest.raises(DomainError):
        flow_quotient(0.3 - 0.2j, 0.0, 1.0)
    with pytest.raises(DomainError, match=r"0\.2-0\.1j"):
        _reduce_zv([0.3 + 1.0j, 0.2 - 0.1j], [1.0, 1.0])


@pytest.mark.parametrize("z0,a0,t", [
    (0.3 + 0.9j, 0.7, 4.0),
    (-0.6 + 0.4j, -2.0, 9.5),
    (0.05 + 2.1j, 1.3, 13.0),
])
def test_quotient_reversibility(z0, a0, t):
    # match representatives: compare against the reduced start pair
    z0r, v0r = SURF.reduce(z0, z0.imag * complex(math.cos(a0), math.sin(a0)))
    a0r = math.atan2(v0r.imag, v0r.real)
    z1, a1 = flow_quotient(z0, a0, t)
    z2, a2 = flow_quotient(z1, a1, -t)
    assert abs(z2 - z0r) < 1e-9
    assert math.remainder(a2 - a0r, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def _reduce_zv(z, v):
    """``fl._reduce`` on complex (z, tangent v) arrays: the points outside
    the domain move, as the oracle ``QuotientSurface.reduce`` moves one point."""
    z = np.array(z, dtype=complex)
    v = np.array(v, dtype=complex)
    x, y = z.real.copy(), z.imag.copy()
    with np.errstate(all="ignore"):
        ux, uy = v.real / y, v.imag / y
    out = np.flatnonzero(~fl._inside(x, y))
    fl._reduce(x, y, ux, uy, out)
    z[out] = x[out] + 1j * y[out]
    v[out] = y[out] * (ux[out] + 1j * uy[out])
    return z, v


def _word_ball(radius):
    """All Moebius matrices over the generators with word length <= radius."""
    gens = [np.array([[1, 2], [0, 1]]), np.array([[1, 0], [2, 1]])]
    gens += [np.linalg.inv(g).astype(int) for g in list(gens)]
    ball = {(1, 0, 0, 1)}
    frontier = [np.eye(2, dtype=int)]
    for _ in range(radius):
        new = []
        for m in frontier:
            for g in gens:
                w = m @ g
                key = tuple(int(x) for x in w.ravel())
                if key not in ball:
                    ball.add(key)
                    new.append(w)
        frontier = new
    return [np.array(k).reshape(2, 2) for k in ball]


def test_unit_speed_and_distance():
    z0, a0 = 0.05 + 0.9j, 0.4
    t = 1.5
    # unreduced lift moves at unit speed: dist == t
    a, b, c, d = _frame_matrix(z0, a0)
    w = complex(0.0, math.exp(t))
    den = c * w + d
    z_lift = (a * w + b) / den
    v_lift = w / (den * den)
    assert float(hyperbolic_distance(z0, z_lift)) == pytest.approx(t, abs=1e-9)
    assert abs(v_lift) / z_lift.imag == pytest.approx(1.0, abs=1e-10)
    # reduced endpoint: quotient distance (min over a word ball) is <= t
    z_red, _ = flow_quotient(z0, a0, t)
    dq = min(float(hyperbolic_distance(z0, (m[0, 0] * z_red + m[0, 1]) /
                                       (m[1, 0] * z_red + m[1, 1])))
             for m in _word_ball(3))
    assert dq <= t + 1e-9


def test_unit_speed_along_long_flow():
    z0, a0 = 0.3 + 0.9j, 0.7
    a, b, c, d = _frame_matrix(z0, a0)
    for t in np.linspace(-15, 15, 31):
        w = complex(0.0, math.exp(t))
        den = c * w + d
        z = (a * w + b) / den
        v = w / (den * den)
        z, v = SURF.reduce(z, v)
        assert abs(v) / z.imag == pytest.approx(1.0, abs=1e-10)


def _exact_flow(mpmath, x, y, ux, uy, t):
    """Time-t flow of (x + iy, direction (ux, uy)) at the working precision:
    ``(z(t), u(t))`` from the closed form, u taken as the unit vector along
    (ux, uy)."""
    x, y, ux, uy, t = map(mpmath.mpf, (x, y, ux, uy, t))
    norm = mpmath.sqrt(ux * ux + uy * uy)
    c, s = ux / norm, uy / norm
    ch, sh = mpmath.cosh(t), mpmath.sinh(t)
    den = ch - s * sh
    return mpmath.mpc(x + y * c * sh / den, y / den), mpmath.mpc(c, s * ch - sh) / den


def test_geodesic_step_is_no_less_accurate_than_the_frame_step():
    # 64 Liouville samples flowed to T = 20 as correlate flows them; at each
    # step both steps start from the same float state and are judged
    # against the 40-digit closed form: z relative to Im z, u absolutely
    mpmath = pytest.importorskip("mpmath")
    dt = 0.1
    w = complex(0.0, math.exp(dt))
    smp = sample_liouville(64, 0)
    x = np.array([z.real for z, _ in smp])
    y = np.array([z.imag for z, _ in smp])
    al = np.array([a for _, a in smp])
    ux, uy = np.cos(al), np.sin(al)
    worst = {"step": 0.0, "frame": 0.0}
    work = [np.empty(x.size) for _ in range(4)]
    with mpmath.workdps(40):
        for _ in range(200):
            nx, ny, nux, nuy = x.copy(), y.copy(), ux.copy(), uy.copy()
            fl._geodesic_step(nx, ny, nux, nuy, dt, work)
            a, b, c, d = _frame_matrix(x + 1j * y, np.arctan2(uy, ux))
            den = c * w + d
            fz = (a * w + b) / den
            fu = w / (den * den) / fz.imag
            for i in range(x.size):
                z_ref, u_ref = _exact_flow(mpmath, x[i], y[i], ux[i], uy[i], dt)
                for name, z, u in (("step", complex(nx[i], ny[i]), complex(nux[i], nuy[i])),
                                   ("frame", fz[i], fu[i])):
                    err = max(abs(mpmath.mpc(z) - z_ref) / z_ref.imag, abs(mpmath.mpc(u) - u_ref))
                    worst[name] = max(worst[name], float(err))
            x, y, ux, uy = nx, ny, nux, nuy
            fl._reduce(x, y, ux, uy, np.flatnonzero(~fl._inside(x, y)))
    assert worst["step"] <= worst["frame"]
    assert worst["step"] < 1e-13


def _exact_reduce(mpmath, z, v):
    """The reduction's moves (translation, cusp-chart move, bubble
    inversion) at the working precision, without slack."""
    for _ in range(64):
        x, y = z.real, z.imag
        if abs(x) <= 1 and min((x - 0.5) ** 2, (x + 0.5) ** 2) + y * y >= 0.25:
            return z, v
        if abs(x) > 1:
            z -= 2 * mpmath.floor((x + 1) / 2)
            continue
        c = mpmath.nint(x)
        delta = z - c
        k = mpmath.floor(((-1 / delta).real + 1) / 2)
        if abs(delta) < 1 and k != 0:
            den = 1 + 2 * k * delta
            z = c + delta / den
        else:
            den = 2 * z + 1 if (x + 0.5) ** 2 + y * y < 0.25 else 1 - 2 * z
            z = z / den
        v /= den * den
    raise AssertionError("reference reduction did not settle")


@pytest.mark.parametrize("t", [13.0, -13.0])
@pytest.mark.parametrize("a0", [0.5 * math.pi + 1e-8, 0.5 * math.pi - 1e-8,
                                -0.5 * math.pi + 1e-8])
def test_quotient_flow_near_vertical_at_long_times(a0, t):
    # 1 - sin(a0) is below the resolution of sin(a0), so the plain
    # cosh t - sin(a0) sinh t loses the leading term when the vector rises;
    # z0 on the imaginary axis keeps the descending endpoints exact enough
    # for the cusp-0 reduction not to amplify their rounding
    mpmath = pytest.importorskip("mpmath")
    z0 = 0.9j
    with mpmath.workdps(40):
        z_ref, u_ref = _exact_flow(mpmath, z0.real, z0.imag, mpmath.cos(a0), mpmath.sin(a0), t)
        z_ref, v_ref = _exact_reduce(mpmath, z_ref, u_ref * z_ref.imag)
        z, a = flow_quotient(z0, a0, t)
        assert abs(mpmath.mpc(z) - z_ref) <= 1e-14 * abs(z_ref)
        assert abs(a - mpmath.arg(v_ref)) <= 1e-14 * abs(mpmath.arg(v_ref))


def test_reduction_cap_trips(monkeypatch):
    # 0.123 + 1e-8 i needs three rounds, each a cusp move and a translation;
    # 0.3 + 1e-8 i needs two, as the translation after the cusp-0 move comes
    # in the same round; depth alone, as at 1e-4 + 1e-8 i, costs one round
    monkeypatch.setattr(fl, "REDUCTION_CAP", 2)
    with pytest.raises(NonterminationError):
        SURF.reduce(complex(0.123, 1e-8))
    z, _ = SURF.reduce(complex(0.3, 1e-8))
    assert SURF.contains(z)
    monkeypatch.setattr(fl, "REDUCTION_CAP", 1)
    z, _ = SURF.reduce(complex(1e-4, 1e-8))
    assert SURF.contains(z)
    # the default cap handles the same point easily
    monkeypatch.undo()
    z, _ = SURF.reduce(complex(0.123, 1e-8))
    assert SURF.contains(z)


def test_vectorized_reduction_matches_scalar():
    rng = np.random.default_rng(4)
    zs = rng.uniform(-8, 8, 50) + 1j * np.exp(rng.uniform(-6, 2, 50))
    vs = np.exp(1j * rng.uniform(0, 2 * math.pi, 50)) * zs.imag
    zr, vr = _reduce_zv(zs, vs)
    for k in range(50):
        z1, v1 = SURF.reduce(complex(zs[k]), complex(vs[k]))
        assert abs(z1 - zr[k]) < 1e-12 * max(1.0, abs(z1))
        assert abs(v1 - vr[k]) < 1e-12 * max(1.0, abs(v1))
        assert SURF.contains(zr[k])


def _greedy_reduce_arrays(z, v, max_rounds=10_000):
    """The greedy reduction the cusp-aware one replaced, kept as reference:
    one translation and one bubble inversion per round, so depth in a cusp
    costs one round per unit of depth."""
    z = np.array(z, dtype=complex)
    v = np.array(v, dtype=complex)
    pending = np.arange(z.size)
    for _ in range(max_rounds):
        if pending.size == 0:
            return z, v
        zz = z[pending]
        x = zz.real
        trans = np.abs(x) > 1.0 + fl.CONTAINMENT_SLACK
        if trans.any():
            k = np.where(trans, np.floor((x + 1.0) / 2.0), 0.0)
            zz = zz - 2.0 * k
            x = zz.real
        y = zz.imag
        in_left = (x + 0.5) ** 2 + y * y < 0.25 - fl.CONTAINMENT_SLACK
        in_right = ~in_left & ((x - 0.5) ** 2 + y * y < 0.25 - fl.CONTAINMENT_SLACK)
        den = np.where(in_left, 2.0 * zz + 1.0,
                       np.where(in_right, 1.0 - 2.0 * zz, 1.0))
        z[pending] = zz / den
        v[pending] = v[pending] / (den * den)
        pending = pending[trans | in_left | in_right]
    raise NonterminationError("greedy reference did not settle")


def _cusp_points(cusp, heights, spread, seed):
    """Unit tangent vectors at the given heights in a cusp's chart, with Re w
    uniform in [-spread, spread]."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-spread, spread, len(heights)) + 1j * np.asarray(heights)
    z = w if cusp is None else cusp - 1.0 / w
    return z, z.imag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(heights)))


def test_reduction_matches_greedy_reference():
    rng = np.random.default_rng(4)
    zs = rng.uniform(-8, 8, 50) + 1j * np.exp(rng.uniform(-6, 2, 50))
    vs = np.exp(1j * rng.uniform(0, 2 * math.pi, 50)) * zs.imag
    zr, vr = _reduce_zv(zs, vs)
    zg, vg = _greedy_reduce_arrays(zs, vs)
    assert np.all(np.abs(zr - zg) < 1e-12 * np.maximum(1.0, np.abs(zg)))
    assert np.all(np.abs(vr - vg) < 1e-12 * np.maximum(1.0, np.abs(vg)))
    # depth costs the greedy reduction one round per unit, so up to 1e2 here
    for cusp in (None, 0.0, 1.0, -1.0):
        z, v = _cusp_points(cusp, np.geomspace(1.5, 1e2, 40), 40.0, 5)
        zr, vr = _reduce_zv(z, v)
        zg, vg = _greedy_reduce_arrays(z, v)
        assert np.max(np.abs(zr - zg)) < 1e-9
        assert np.max(np.abs(vr - vg)) < 1e-9 * np.max(np.abs(vg))


@pytest.mark.parametrize("cusp", [None, 0.0, 1.0, -1.0], ids=["inf", "0", "1", "-1"])
def test_reduction_rounds_do_not_grow_with_depth(cusp, monkeypatch):
    # a wide Re w range: the move's algebraic form ((1 + 2k) z - 2k) /
    # (2kz + 1 - 2k) at cusp 1 would lose 1e-10 in unit speed here
    z, v = _cusp_points(cusp, np.geomspace(1e2, 1e12, 61), 1e3, 6)
    monkeypatch.setattr(fl, "REDUCTION_CAP", 4)
    zr, vr = _reduce_zv(z, v)
    one = [SURF.reduce(complex(a), complex(b)) for a, b in zip(z, v)]
    for zz, vv in ((zr, vr), (np.array([a for a, _ in one]), np.array([b for _, b in one]))):
        assert np.all(SURF.contains(zz))
        assert np.max(np.abs(np.abs(vv) / zz.imag - 1.0)) < 1e-12


def test_step_is_bitwise_the_reference_step():
    # Liouville samples plus the directions where the swap of 1 +- uy and
    # the signs matter: straight up and down, horizontal, -0.0
    rng = np.random.default_rng(7)
    z, alpha = fl.liouville_samples(4000, 3)
    alpha = np.concatenate([alpha, [0.5 * math.pi, -0.5 * math.pi, 0.0, math.pi],
                            rng.uniform(-math.pi, math.pi, 96)])
    z = np.concatenate([z, np.full(100, 0.3 + 0.8j)])
    ux, uy = np.cos(alpha), np.sin(alpha)
    uy[-1] = -0.0
    work = [np.empty(z.size) for _ in range(4)]
    for t in (0.1, -0.1, 3.0, -25.0, 700.0):
        ref = reference_step(z.real, z.imag, ux, uy, t)
        got = [z.real.copy(), z.imag.copy(), ux.copy(), uy.copy()]
        fl._geodesic_step(*got, t, work)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def _reduction_points(n, seed):
    """n random, n deep-cusp and n near-boundary points outside or on the
    edge of the domain, with unit tangent vectors v = Im z e^{i a}."""
    rng = np.random.default_rng(seed)
    random = rng.uniform(-8, 8, n) + 1j * np.exp(rng.uniform(-6, 2, n))
    deep = []
    for cusp in (None, 0.0, 1.0, -1.0):
        w = rng.uniform(-1e3, 1e3, n // 4) + 1j * np.exp(rng.uniform(0.4, 27.6, n // 4))
        deep.append(w if cusp is None else cusp - 1.0 / w)
    # outside by eps: across the lines Re z = +-1 or inside a bubble
    eps = np.exp(rng.uniform(math.log(1e-9), math.log(1e-2), n))
    side = rng.integers(0, 4, n)
    edge = np.exp(1j * rng.uniform(0.02, math.pi - 0.02, n))
    y = np.exp(rng.uniform(-4, 1.5, n))
    near = np.select([side == 0, side == 1, side == 2],
                     [1 + eps + 1j * y, -1 - eps + 1j * y, 0.5 + 0.5 * (1 - eps) * edge],
                     -0.5 + 0.5 * (1 - eps) * edge)
    z = np.concatenate([random, *deep, near])
    return z, z.imag * np.exp(1j * rng.uniform(0, 2 * math.pi, z.size))


def test_reduction_reaches_the_reference_representative():
    z, v = _reduction_points(9000, 11)
    zr, vr = reference_reduce(z, v)
    zn, vn = _reduce_zv(z, v)
    assert np.all(SURF.contains(zn))
    assert np.max(np.abs(zn - zr) / np.abs(zr)) <= 1e-13
    assert np.max(np.abs(vn - vr) / np.abs(vr)) <= 1e-13


def test_reduction_is_no_less_accurate_than_the_reference():
    # judged against the moves at 40 digits: z relative to Im z, v relative
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    z = rng.uniform(-8, 8, 300) + 1j * np.exp(rng.uniform(-6, 2, 300))
    v = z.imag * np.exp(1j * rng.uniform(0, 2 * math.pi, 300))
    worst = {}
    with mpmath.workdps(40):
        exact = [_exact_reduce(mpmath, mpmath.mpc(a), mpmath.mpc(b)) for a, b in zip(z, v)]
        for name, (zz, vv) in (("new", _reduce_zv(z, v)), ("reference", reference_reduce(z, v))):
            worst[name] = max(max(float(abs(mpmath.mpc(a) - ze) / ze.imag),
                                  float(abs(mpmath.mpc(b) - ve) / abs(ve)))
                              for a, b, (ze, ve) in zip(zz, vv, exact))
    assert worst["new"] <= worst["reference"]
    assert worst["new"] < 1e-13


def test_reduce_and_flow_quotient_keep_their_interface(monkeypatch):
    z, v = SURF.reduce(1.7 + 0.05j, 0.05j)
    assert type(z) is complex and type(v) is complex and SURF.contains(z)
    inside = (0.1 + 1.3j, 0.2 - 0.7j)
    assert SURF.reduce(*inside) == inside
    z, a = flow_quotient(0.1 + 1.3j, 0.7, 2.0)
    assert type(z) is complex and type(a) is float
    zs, al = flow_quotient(np.full((2, 3), 0.1 + 1.3j), np.linspace(-3, 3, 6).reshape(2, 3),
                           2.0)
    assert zs.shape == al.shape == (2, 3) and zs.dtype == complex and al.dtype == float
    with pytest.raises(DomainError, match=r"0\.2-0\.1j"):
        SURF.reduce(0.2 - 0.1j)
    with pytest.raises(DomainError):
        flow_quotient(np.array([0.1 + 1.3j, 0.2 - 0.1j]), 0.0, 1.0)
    monkeypatch.setattr(fl, "REDUCTION_CAP", 1)
    with pytest.raises(NonterminationError):
        SURF.reduce(complex(0.123, 1e-8))
    with pytest.raises(NonterminationError):
        flow_quotient(complex(0.123, 1e-8), 0.4, 0.0)


@pytest.mark.parametrize("t", [710.0, -710.0, math.inf, math.nan])
def test_flow_quotient_past_the_float_range_raises_naming_t(t):
    with pytest.raises(ValidationError, match=r"^t = "):
        flow_quotient(0.9j, 0.3, t)
    assert flow_quotient(0.9j, 0.3, 700.0)[0].imag > 0.0


# ---------------------------------------------------------------------------
# Liouville sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,tag,index", [
    (0, 0, 0), (1, 0, 5), (2 ** 64 - 1, 1, 12_345), (-7, 0, 2 ** 48 - 1), (123_456_789, 1, 99),
])
def test_philox_words_match_numpy(seed, tag, index):
    key = np.array([seed % 2 ** 64, (tag << 48) | index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(16)
    idx = np.array([index], dtype=np.uint64)
    words = [w[0] for block in range(1, 5) for w in fl._philox_block(seed, tag, idx, block)]
    assert np.array_equal(np.array(words, dtype=np.uint64), raw)


def test_neg_reciprocal_is_bitwise_python_division():
    rng = np.random.default_rng(9)
    im = np.concatenate([np.exp(rng.uniform(-40, 40, 2000)), [0.5, 0.5, 0.5, 0.5, 2.0, 1e-300]])
    re = np.concatenate([rng.uniform(-3, 3, 1000) * im[:1000],
                         rng.uniform(-3, 3, 1000), [0.0, -0.0, 0.5, -0.5, 3.0, 1.0]])
    w_re, w_im = fl._neg_reciprocal(re, im)
    ref = [-1.0 / complex(a, b) for a, b in zip(re.tolist(), im.tolist())]
    assert w_re.tobytes() == np.array([w.real for w in ref]).tobytes()
    assert w_im.tobytes() == np.array([w.imag for w in ref]).tobytes()


# SHA-256 of the little-endian (Re z, Im z, alpha) rows of
# sample_liouville(2000, seed) as the per-sample numpy Philox generators drew
# them before the sampler was vectorised
FROZEN_SAMPLE_DIGESTS = {
    0: "503cb3ee97731845dd1d9a6374466b62e89715cd2ec4134832a9ac7825e3c70c",
    1: "e84d9d6623da447fa782bc7fac2ad6b01407c156fb81e9b333fab1a734bfa8b5",
    2: "26a727d6ac82bb8b7649e88826b52964a7bf20753352783b08a8d5be3567c14e",
    3: "355e415a24449f2439b32d1e7d922af8f9b536663ebdfa9546c73677a89e0887",
}
# estimate_area(20000, seed) from the same per-proposal generators
FROZEN_AREAS = {
    0: (6.3296, 0.05532167922252541),
    1: (6.232, 0.05516981783547958),
    2: (6.3896, 0.05541056390256284),
    3: (6.2248, 0.05515825639013619),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_SAMPLE_DIGESTS))
def test_sampler_is_bitwise_the_per_sample_generator(seed):
    rows = np.array([(z.real, z.imag, a) for z, a in sample_liouville(2000, seed)],
                    dtype="<f8")
    assert hashlib.sha256(rows.tobytes()).hexdigest() == FROZEN_SAMPLE_DIGESTS[seed]
    assert estimate_area(20_000, seed) == FROZEN_AREAS[seed]


def _philox_calls(monkeypatch):
    """Wrap ``flow._philox_block``; the list gets each call's block count."""
    blocks = []
    philox = fl._philox_block

    def recorded(seed, tag, index, block):
        blocks.append(np.size(block))
        return philox(seed, tag, index, block)

    monkeypatch.setattr(fl, "_philox_block", recorded)
    return blocks


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampler_is_bitwise_the_lockstep_loop_across_a_chunk(monkeypatch, seed):
    # 40,000 streams fill one 32,768-stream chunk and part of a second, and
    # each chunk ends in a batched tail
    blocks = _philox_calls(monkeypatch)
    z, alpha = fl.liouville_samples(40_000, seed)
    assert sum(k > 1 for k in blocks) >= 2
    z0, alpha0 = lockstep_liouville_samples(40_000, seed)
    assert z.tobytes() == z0.tobytes() and alpha.tobytes() == alpha0.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampler_draws_20000_samples_in_nine_philox_calls(monkeypatch, seed):
    # block 1, then one call per attempt while 1,000 or more streams are
    # pending (attempts 1-7), then one batch
    blocks = _philox_calls(monkeypatch)
    fl.liouville_samples(20_000, seed)
    assert len(blocks) == 9


@pytest.mark.parametrize("cap", [12, 16])
def test_rejection_cap_inside_a_batch_names_the_lockstep_sample(monkeypatch, cap):
    # at n = 20,000, seed 0, 603 streams are pending at attempt 8, and the
    # batch for them would draw 19 attempts: the cap cuts it to cap - 7
    with pytest.raises(NonterminationError) as want:
        lockstep_liouville_samples(20_000, 0, cap=cap)
    blocks = _philox_calls(monkeypatch)
    monkeypatch.setattr(fl, "_REJECTION_CAP", cap)
    with pytest.raises(NonterminationError) as got:
        fl.liouville_samples(20_000, 0)
    assert str(got.value) == str(want.value)
    assert blocks == [1] * 8 + [cap - 7]
    assert fl._attempts_per_call(603, 1_000) == 19


def test_sampling_is_deterministic_and_in_domain():
    s1 = sample_liouville(64, 42)
    s2 = sample_liouville(64, 42)
    assert s1 == s2
    for z, alpha in s1:
        assert SURF.contains(z)
        assert 0.0 <= alpha < 2.0 * math.pi
    # different seeds decorrelate
    assert sample_liouville(64, 43) != s1


def test_sampling_validates_count():
    with pytest.raises(ValidationError):
        sample_liouville(0, 1)


def test_area_estimate_within_3_stderr():
    area, se = estimate_area(100_000, 7)
    assert abs(area - 2.0 * math.pi) <= 3.0 * se
    assert se < 0.03


def test_monte_carlo_rate():
    # fixed bump observable: n^{-1/2} convergence at n in {1e3, 1e4, 1e5},
    # judged against an independent reference at 4 combined standard errors
    bump = BumpObservable()

    def bump_mean(n, seed):
        smp = sample_liouville(n, seed)
        vals = bump(np.array([z for z, _ in smp]), None)
        return float(np.mean(vals)), float(np.std(vals, ddof=1)) / math.sqrt(n)

    ref, ref_se = bump_mean(100_000, 101)
    for n in (1_000, 10_000, 100_000):
        m, se = bump_mean(n, 0)
        assert abs(m - ref) <= 4.0 * math.hypot(se, ref_se)


def _full_array_bump(bump, z):
    """BumpObservable's value as it was computed on every point, before it
    took arccosh and the power only on the bump's support."""
    z = np.asarray(z, dtype=complex)
    c = np.asarray(bump.center, dtype=complex)
    q = np.abs(z - c) ** 2 / (2.0 * z.imag * c.imag)
    q = 1.0 - (np.arccosh(1.0 + q) / bump.radius) ** 2
    return bump.baseline + bump.amplitude * np.where(q > 0.0, q, 0.0) ** bump.order


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_support_only_bump_is_bitwise_the_full_formula_on_samples(seed):
    z = np.array([p for p, _ in sample_liouville(5000, seed)])
    for bump in (BumpObservable(),
                 BumpObservable(center=0.2 + 1.4j, radius=0.6, order=1, baseline=0.1),
                 BumpObservable(center=-0.4 + 0.7j, radius=2.0, amplitude=-0.5, baseline=1.0)):
        assert bump(z).tobytes() == _full_array_bump(bump, z).tobytes()


@pytest.mark.parametrize("radius", [0.05, 0.1, 0.8, 3.0])
@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("baseline,amplitude", [(0.25, 1.5), (0.0, -0.75)])
def test_support_only_bump_is_bitwise_the_full_formula_at_the_rim(radius, order,
                                                                    baseline, amplitude):
    # Points a few ulps either side of distance = radius, above and below the
    # center, so 1 + q runs over the float values next to cosh(radius).  At
    # radius 0.1 cosh rounds down: 1 + q equal to the rounded cosh(radius)
    # still gives a positive bump, which the 1e-9 widening of the support
    # test keeps.
    bump = BumpObservable(center=0.2 + 1.3j, radius=radius, order=order,
                          amplitude=amplitude, baseline=baseline)
    c = bump.center
    ys = [c.imag * math.exp(s * radius) for s in (1.0, -1.0)]
    z = c.real + 1j * np.concatenate([y + np.arange(-64, 65) * np.spacing(y) for y in ys])
    cosh_d = 1.0 + np.abs(z - c) ** 2 / (2.0 * z.imag * c.imag)
    assert np.any(cosh_d < math.cosh(radius)) and np.any(cosh_d > math.cosh(radius))
    assert bump(z).tobytes() == _full_array_bump(bump, z).tobytes()
    assert bump(complex(z[0])) == _full_array_bump(bump, z[0])


EXACT_MEAN_BUMPS = {
    "default-a": BumpObservable(),                      # inside F
    "default-b": BumpObservable(center=0.2 + 1.2j),     # crosses Re z = 1
    "two-sides": BumpObservable(center=0.9 + 0.5j),     # Re z = 1 and |z - 1/2| = 1/2
    "outside": BumpObservable(center=1.3 + 1.0j),       # center beyond Re z = 1
    "order-1": BumpObservable(center=0.9 + 0.5j, order=1),
    "order-5": BumpObservable(center=-0.3 + 0.6j, radius=1.0, order=5, amplitude=-2.0),
    "baseline": BumpObservable(center=0.2 + 1.2j, baseline=0.25, amplitude=1.5),
}


@pytest.mark.parametrize("bump", EXACT_MEAN_BUMPS.values(), ids=EXACT_MEAN_BUMPS)
def test_bump_integral_is_a_2d_rule_on_its_disc(bump):
    value, error = bump.integral()
    want = 2.0 * math.pi * bump.baseline + bump.amplitude * disc_bump_integral(bump)
    assert abs(value - want) <= 1e-12
    assert error <= 1e-14


@pytest.mark.parametrize("kwargs", [dict(radius=0.0), dict(order=0), dict(center=0.5),
                                    dict(center=0.5 - 1.0j), dict(radius=710.0)])
def test_bump_validates_its_parameters(kwargs):
    # a center off the upper half-plane gave zeros from the bump and a
    # ZeroDivisionError or a finite wrong value from its integral; cosh and
    # sinh of a radius past 709.78 overflow
    with pytest.raises(ValidationError):
        BumpObservable(**kwargs)


@pytest.mark.parametrize("radius", [0.8, 5.0, 20.0])
def test_bump_integral_error_bound_holds_at_any_radius(radius):
    # past radius ~5 the ball reaches into every cusp, and the ball and its
    # caps grow like e^radius while their difference stays below 2 pi
    bump = BumpObservable(radius=radius)
    value, error = bump.integral()
    want = disc_bump_integral(bump) if radius < 1.0 else cusp_chart_bump_integral(bump)
    assert abs(value - want) <= error < 1e-7


def test_bump_of_amplitude_0_is_its_baseline_with_an_exact_integral():
    # the CLI's constant observables: the value everywhere, and the integral
    # 2 pi v with error 0, in the arithmetic of SURFACE_AREA * v
    bump = BumpObservable(amplitude=0.0, baseline=0.5)
    z = np.array([1.0j, 0.1 + 1.05j, 0.4 + 3.0j, 0.2 + 0.6j])
    assert np.array_equal(bump(z), np.full(z.shape, 0.5))
    assert bump.integral() == (fl.SURFACE_AREA * 0.5, 0.0)


def test_flow_cusp_exact_log_height_past_the_float_range_raises_naming_it():
    p0 = PhasePoint(1e300, np.array([0.0]), 1.2, np.array([1.0]))
    with pytest.raises(ValidationError, match=r"log-height r = 1e\+300 is past 709\.78"):
        flow_cusp_exact(p0, 1.0)
    # at the poles the flow reads no e^r
    assert flow_cusp_exact(PhasePoint(1e300, np.array([0.0]), 0.0, np.array([1.0])), 1.0).r == 1e300


def test_time_1_flow_preserves_liouville():
    bump = BumpObservable()
    smp = sample_liouville(20_000, 1)
    pushed, _ = flow_quotient(np.array([z for z, _ in smp]),
                              np.array([a for _, a in smp]), 1.0)
    v1 = bump(pushed, None)
    m1, se1 = float(np.mean(v1)), float(np.std(v1, ddof=1)) / math.sqrt(len(v1))
    fresh = sample_liouville(20_000, 2)
    v0 = bump(np.array([z for z, _ in fresh]), None)
    m0, se0 = float(np.mean(v0)), float(np.std(v0, ddof=1)) / math.sqrt(len(v0))
    assert abs(m1 - m0) <= 3.0 * math.hypot(se0, se1)


# ---------------------------------------------------------------------------
# correlation functions
# ---------------------------------------------------------------------------

def test_constant_observables_are_exact():
    one = lambda z, a: 1.0
    rec = correlate(one, one, T_max=1.0, dt=0.25, n=50, seed=3)
    assert all(v == 2.0 * math.pi for v in rec.values)
    assert all(e == 0.0 for e in rec.stderrs)
    assert rec.times == (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_correlation_raises_naming_its_time():
    # the sum of products 1e308 * 1 overflows at t = 0
    A = BumpObservable(amplitude=1e308)
    with pytest.raises(ToleranceError, match=r"the correlation at t=0\.0 is inf"):
        correlate(A, BumpObservable(), T_max=0.5, dt=0.25, n=200, seed=3)


def test_rho_at_time_zero_is_plain_monte_carlo():
    A = BumpObservable()
    B = BumpObservable(center=0.2 + 1.4j, radius=0.6)
    rec = correlate(A, B, T_max=0.5, dt=0.5, n=400, seed=9)
    smp = sample_liouville(400, 9)
    z = np.array([p for p, _ in smp])
    al = np.array([a for _, a in smp])
    direct = 2.0 * math.pi * float(np.mean(A(z, al) * B(z, al)))
    assert rec.values[0] == pytest.approx(direct, rel=1e-13)


# repr of the t = 0 row of correlate(n=20000) with the two bumps below, as
# the sampler and observables gave it before the (z, u) step; the row is
# plain Monte Carlo over the sampler's draws
PINNED_T0_ROWS = {
    0: ("0.11001559110280687", "0.0034091391743730167"),
    1: ("0.11407581111956513", "0.003455593297866282"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_T0_ROWS))
def test_correlate_time_zero_row_is_pinned(seed):
    A = BumpObservable()
    B = BumpObservable(center=0.2 + 1.4j, radius=0.6)
    rec = correlate(A, B, T_max=0.1, dt=0.1, n=20_000, seed=seed)
    assert (repr(rec.values[0]), repr(rec.stderrs[0])) == PINNED_T0_ROWS[seed]


def test_correlation_decays_to_product_of_means():
    bump = BumpObservable()
    rec = correlate(bump, bump, T_max=20.0, dt=0.1, n=20_000, seed=11)
    smp = sample_liouville(20_000, 12)
    vals = bump(np.array([z for z, _ in smp]), None)
    mean_b = 2.0 * math.pi * float(np.mean(vals))
    se_b = 2.0 * math.pi * float(np.std(vals, ddof=1)) / math.sqrt(20_000)
    limit = mean_b * mean_b / (2.0 * math.pi)
    se_limit = 2.0 * mean_b * se_b / (2.0 * math.pi)
    assert abs(rec.values[-1] - limit) <= 3.0 * math.hypot(rec.stderrs[-1], se_limit)


def test_correlate_completes_on_a_deep_cusp_excursion():
    # seed 1 sends a sample deep into a cusp; the greedy reduction gave up
    rec = correlate(BumpObservable(), BumpObservable(center=0.2 + 1.2j),
                    n=20_000, seed=1)
    assert len(rec.values) == 201 and np.all(np.isfinite(rec.values))


# bumps centred inside the ranges the perfbench mixing workload draws from
BENCH_LIKE = (BumpObservable(center=0.1 + 1.0j), BumpObservable(center=-0.1 + 1.2j))


def _recording_step(monkeypatch):
    """Wrap ``flow._geodesic_step``; the list gets the stepped arrays'
    size and largest Im z after each step."""
    seen = []
    step = fl._geodesic_step

    def recorded(x, y, ux, uy, t, work):
        step(x, y, ux, uy, t, work)
        seen.append((x.size, float(y.max(initial=0.0))))

    monkeypatch.setattr(fl, "_geodesic_step", recorded)
    return seen


def test_correlate_flows_every_sample_deep_into_a_cusp(monkeypatch):
    # a constant B flows every sample, so the seed-1 samples that reach far
    # up a cusp still go through the step and the reduction; the bump B of
    # test_correlate_completes_on_a_deep_cusp_excursion is 0 at all but one
    # of them, and correlate flows only B's support
    seen = _recording_step(monkeypatch)
    rec = correlate(BumpObservable(), lambda z, a: 1.0, n=20_000, seed=1)
    assert len(rec.values) == 201 and np.all(np.isfinite(rec.values))
    assert {size for size, _ in seen} == {20_000}
    assert max(top for _, top in seen) > 1e5


def test_correlate_flows_only_the_support_of_b(monkeypatch):
    A, B = BENCH_LIKE
    seen = _recording_step(monkeypatch)
    correlate(A, B, T_max=1.0, dt=0.1, n=2000, seed=0)
    z, alpha = fl.liouville_samples(2000, 0)
    support = np.count_nonzero(B(z, alpha))
    assert 0 < support < 2000
    assert [size for size, _ in seen] == [support] * 10


@pytest.mark.parametrize("A, B, n, seed", [
    (*BENCH_LIKE, 20_000, 0),
    (*BENCH_LIKE, 20_000, 1),
    (BENCH_LIKE[0], BumpObservable(center=-0.1 + 1.2j, baseline=0.25), 2000, 2),
    (BENCH_LIKE[0], lambda z, a: np.zeros(np.shape(z)), 2000, 3),
    (lambda z, a: math.cos(a), BENCH_LIKE[1], 500, 4),
], ids=["bumps-seed0", "bumps-seed1", "baseline", "zero-b", "scalar-a"])
def test_correlate_is_bitwise_the_every_sample_loop(A, B, n, seed):
    """Flowing only B's support leaves every value and standard error
    bitwise as flowing all samples gives them."""
    rec = correlate(A, B, n=n, seed=seed)
    assert (rec.values, rec.stderrs) == reference_correlate(A, B, 20.0, 0.1, n, seed)


def test_correlate_of_a_zero_b_is_zero():
    rec = correlate(BumpObservable(), lambda z, a: np.zeros(np.shape(z)),
                    T_max=1.0, dt=0.5, n=100, seed=0)
    assert rec.values == (0.0,) * 3 and rec.stderrs == (0.0,) * 3


def test_correlate_validates_arguments():
    one = lambda z, a: 1.0
    with pytest.raises(ValidationError):
        correlate(one, one, T_max=0.0, dt=0.1, n=10, seed=0)
    with pytest.raises(ValidationError):
        correlate(one, one, T_max=1.0, dt=-0.1, n=10, seed=0)
    with pytest.raises(ValidationError):
        correlate(one, one, T_max=1.0, dt=0.1, n=0, seed=0)


def test_correlate_loops_scalar_only_observables():
    """``math.cos`` rejects arrays with a TypeError; the scalar loop then
    gives what the vectorised observable gives."""
    scalar = lambda z, a: math.cos(a)
    vector = lambda z, a: np.cos(a)
    rec_s = correlate(scalar, scalar, T_max=0.5, dt=0.25, n=64, seed=2)
    rec_v = correlate(vector, vector, T_max=0.5, dt=0.25, n=64, seed=2)
    assert rec_s.values == pytest.approx(rec_v.values, rel=1e-12, abs=1e-12)
    assert rec_s.stderrs == pytest.approx(rec_v.stderrs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("view, copy", [
    (lambda z, a: z.imag, lambda z, a: np.array(z.imag)),
    (lambda z, a: z.real, lambda z, a: np.array(z.real)),
    (lambda z, a: a, lambda z, a: np.array(a)),
], ids=["imag", "real", "alpha"])
def test_correlate_holds_b_at_time_zero_when_b_returns_a_view(view, copy):
    """B(x(0)) stays fixed even when B hands back its input or a view of it."""
    A = BumpObservable()
    rec_view = correlate(A, view, T_max=1.0, dt=0.25, n=500, seed=4)
    rec_copy = correlate(A, copy, T_max=1.0, dt=0.25, n=500, seed=4)
    assert rec_view.values == rec_copy.values
    assert rec_view.stderrs == rec_copy.stderrs


def test_correlate_propagates_observable_errors():
    """An error other than an array rejection is not retried point by point."""
    def fragile(z, a):
        if np.ndim(z):
            raise RuntimeError("observable failed on a batch")
        return 1.0

    with pytest.raises(RuntimeError, match="on a batch"):
        correlate(fragile, fragile, T_max=0.5, dt=0.25, n=16, seed=0)


# ---------------------------------------------------------------------------
# correlation records and Laplace transforms
# ---------------------------------------------------------------------------

def test_record_validation():
    with pytest.raises(ValidationError):
        CorrelationRecord((0.0, 1.0), (1.0,), (0.0, 0.0), 1, 0)
    with pytest.raises(ValidationError):
        CorrelationRecord((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), 1, 0)
    with pytest.raises(ValidationError):
        CorrelationRecord((0.0, 1.0), (1.0, 1.0), (0.0, 0.0), 0, 0)


def test_laplace_of_constant_record():
    times = tuple(0.05 * k for k in range(401))
    c = 3.7
    rec = CorrelationRecord(times, (c,) * 401, (0.0,) * 401, 1, 0)
    for s in (0.3, 1.0 + 0.5j, 0.001):
        expected = c * (1.0 - np.exp(-s * times[-1])) / s
        assert laplace_transform(rec, s) == pytest.approx(expected, rel=1e-12)


def test_laplace_linearity():
    rng = np.random.default_rng(8)
    times = tuple(np.sort(rng.uniform(0, 10, 40)))
    f = rng.normal(size=40)
    g = rng.normal(size=40)
    z = (0.0,) * 40

    def rec(vals):
        return CorrelationRecord(times, tuple(vals), z, 1, 0)

    s = 0.4 + 1.1j
    lhs = laplace_transform(rec(2.5 * f - 1.5 * g), s)
    rhs = 2.5 * laplace_transform(rec(f), s) - 1.5 * laplace_transform(rec(g), s)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_laplace_domain_error():
    rec = CorrelationRecord((0.0, 1.0), (1.0, 1.0), (0.0, 0.0), 1, 0)
    for s in (0.0, -0.2, -0.1 + 3.0j):
        with pytest.raises(DomainError):
            laplace_transform(rec, s)
        with pytest.raises(DomainError):
            laplace_tail_bound(rec, s)


def test_laplace_tail_bound_reported():
    rec = CorrelationRecord((0.0, 1.0, 2.0), (1.0, 0.5, 0.25), (0.0,) * 3, 1, 0)
    bound = laplace_tail_bound(rec, 0.5)
    assert bound == pytest.approx(0.25 * math.exp(-1.0) / 0.5, rel=1e-12)


def test_pole_residue_at_zero_from_small_s():
    # s * rho_hat(s) -> mu(A) mu(B) / mu(M) as s -> 0+; at s = 0.05 the
    # truncated transform plus a plateau tail completion lands within 5%
    A = BumpObservable(amplitude=0.3, baseline=1.0)
    rec = correlate(A, A, T_max=20.0, dt=0.1, n=20_000, seed=5)
    s = 0.05
    late = [v for t, v in zip(rec.times, rec.values) if t >= 15.0]
    rho_late = sum(late) / len(late)
    s_rho = s * laplace_transform(rec, s).real + rho_late * math.exp(-s * rec.times[-1])
    smp = sample_liouville(20_000, 6)
    z = np.array([p for p, _ in smp])
    al = np.array([a for _, a in smp])
    mean_a = 2.0 * math.pi * float(np.mean(A(z, al)))
    limit = mean_a * mean_a / (2.0 * math.pi)
    assert abs(s_rho - limit) <= 0.05 * limit
