"""Tests for the weight / escape-function construction on the cusp (d = 1)."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from _oracles import (cone_integrand, exact_midpoint_sphere, lifted_flow,
                      reduced_flow, reflected_orbits, rounded_angle_sphere,
                      signed_glue_rings, signed_grid, signed_midpoint_sphere,
                      stepped_tau_max, symbol_hat, symbol_log_derivative, symbol_value,
                      tiled_flow_conditions, tiled_plateau_conditions, weight_symbol)
from cuspflow import escape
from cuspflow.errors import (ConfigurationError, UnsupportedDimensionError,
                             ValidationError)
from cuspflow.escape import (BETA, FLOW_STEP, FRAME_CONSTANT,
                             EscapeCertificate, EscapeData,
                             ReducedPhaseGrid, SymbolField, WeightField,
                             assemble_G, build_f, build_weight,
                             estimate_tau_max, verify)
from cuspflow.escape import (_as_unit_rows, _band_profile,
                             _escape_probe_directions, _exponential_rule,
                             _glued_hat, _in_V_s, _in_V_u, _log_norm_average,
                             _midpoint_sphere, _plateau_samples, _simpson_rule,
                             _sphere_flow, _stretch, _transition_windows,
                             _transported_cone_samples, _weight_average,
                             _weight_derivative, _windowed_average)
from cuspflow.geometry import (PhasePoint, direction_angle,
                               splitting_frame_at)


# ---------------------------------------------------------------------------
# shared fixtures (module-scoped: the builds are reused across tests)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_grid():
    return ReducedPhaseGrid(n_theta=16, n_phi=16)


@pytest.fixture(scope="module")
def weight(small_grid):
    return build_weight(small_grid)


@pytest.fixture(scope="module")
def symbol(small_grid):
    return build_f(small_grid)


@pytest.fixture(scope="module")
def data(small_grid):
    return assemble_G(small_grid)


@pytest.fixture(scope="module")
def certificate(small_grid, data):
    return verify(data)


def _dual_frame_covector(point, components):
    """Coordinate covector with the given dual-frame components at point."""
    alpha = direction_angle(point)
    frame = np.column_stack(splitting_frame_at(point.r, alpha))
    return np.linalg.solve(frame.T, np.asarray(components, dtype=float))


def _frame_components(point, xi):
    alpha = direction_angle(point)
    f0, st_, un = splitting_frame_at(point.r, alpha)
    return np.array([xi @ f0, xi @ st_, xi @ un])


# ---------------------------------------------------------------------------
# reduced flow
# ---------------------------------------------------------------------------

def test_reduced_flow_matches_ode_oracle():
    """Closed-form reduced flow vs a direct integration of its vector field."""
    lam = np.diag([0.0, 1.0, -1.0])

    def rhs(_, y):
        alpha, x = y[0], y[1:]
        xdot = lam @ x - (x @ lam @ x) * x
        return np.concatenate([[math.sin(alpha)], xdot])

    rng = np.random.default_rng(7)
    for _ in range(6):
        alpha0 = float(rng.uniform(-3.0, 3.0))
        x0 = _as_unit_rows(rng.normal(size=3))[0]
        t = float(rng.uniform(-2.3, 2.3))
        sol = solve_ivp(rhs, (0.0, t), np.concatenate([[alpha0], x0]),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        a_exact, x_exact = reduced_flow(alpha0, x0, t)
        assert abs(float(a_exact) - sol.y[0, -1]) < 1e-9
        assert np.max(np.abs(x_exact[0] - sol.y[1:, -1])) < 1e-9


def test_reduced_flow_semigroup():
    rng = np.random.default_rng(3)
    alpha = rng.uniform(-3.0, 3.0, size=5)
    x = _as_unit_rows(rng.normal(size=(5, 3)))
    a1, x1 = reduced_flow(alpha, x, 0.9)
    a2, x2 = reduced_flow(a1, x1, 1.3)
    a3, x3 = reduced_flow(alpha, x, 2.2)
    assert np.max(np.abs(a2 - a3)) < 1e-12
    assert np.max(np.abs(x2 - x3)) < 1e-12


def test_reduced_flow_fixed_points_exact():
    for alpha0 in (0.0, math.pi):
        a, _ = reduced_flow(alpha0, [1.0, 0.0, 0.0], 5.0)
        assert float(a) == pytest.approx(alpha0, abs=0.0)
    for pole in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
        _, x = reduced_flow(0.5, pole, 4.0)
        assert np.max(np.abs(x[0] - np.array(pole))) == 0.0


def test_reduced_flow_rejects_bad_directions():
    with pytest.raises(ValidationError):
        reduced_flow(0.0, [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValidationError):
        reduced_flow(0.0, [1.0, 2.0], 1.0)


# ---------------------------------------------------------------------------
# lifted flow
# ---------------------------------------------------------------------------

def test_lifted_flow_preserves_flow_dual_component():
    p = PhasePoint(0.7, np.array([0.2]), 1.1, np.array([1.0]))
    xi = _dual_frame_covector(p, [1.0, 0.0, 0.0])
    img, xi_t = lifted_flow(p, xi, 4.0)
    comps = _frame_components(img, xi_t)
    assert np.max(np.abs(comps - [1.0, 0.0, 0.0])) < 1e-10


def test_lifted_flow_growing_component_rate():
    p = PhasePoint(-0.3, np.array([0.6]), 2.0, np.array([-1.0]))
    xi = _dual_frame_covector(p, [0.0, 1.0, 0.0])
    img, xi_t = lifted_flow(p, xi, 3.0)
    comps = _frame_components(img, xi_t)
    assert abs(comps[1] / math.exp(3.0) - 1.0) < 1e-8
    assert abs(comps[0]) < 1e-10 and abs(comps[2]) < 1e-10


def _cotangent_rhs(_, y):
    """Geodesic flow plus covector transport in cusp coordinates (r, theta,
    alpha): the covector obeys minus the transposed linearization."""
    r, _theta, alpha, xi_r, xi_th, xi_al = y
    yy = math.exp(r)
    s, c = math.sin(alpha), math.cos(alpha)
    return [c, yy * s, s,
            -yy * s * xi_th,
            0.0,
            s * xi_r - yy * c * xi_th - c * xi_al]


def test_lifted_flow_matches_cotangent_ode_oracle():
    p = PhasePoint(0.4, np.array([-0.7]), 1.9, np.array([1.0]))
    xi = np.array([0.8, -0.5, 0.3])
    t = 1.7
    alpha0 = direction_angle(p)
    sol = solve_ivp(_cotangent_rhs, (0.0, t),
                    [p.r, p.theta[0], alpha0, *xi],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    img, xi_t = lifted_flow(p, xi, t)
    assert abs(img.r - sol.y[0, -1]) < 1e-9
    assert abs(img.theta[0] - sol.y[1, -1]) < 1e-9
    assert abs(direction_angle(img) - sol.y[2, -1]) < 1e-9
    assert np.max(np.abs(xi_t - sol.y[3:, -1])) < 1e-8 * max(
        1.0, np.max(np.abs(sol.y[3:, -1])))


def test_lifted_flow_growing_dual_dominates():
    """A generic covector aligns with the growing dual direction: by t = 10
    its growing component dominates the others by > 1e3, in both the exact
    transport and the direct integration."""
    p = PhasePoint(0.1, np.array([0.3]), 1.3, np.array([1.0]))
    xi = np.array([-0.5, 0.8, -0.6])
    t = 10.0
    img, xi_t = lifted_flow(p, xi, t)
    comps = _frame_components(img, xi_t)
    assert abs(comps[1]) / np.hypot(comps[0], comps[2]) > 1e3

    sol = solve_ivp(_cotangent_rhs, (0.0, t),
                    [p.r, p.theta[0], direction_angle(p), *xi],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    img_o = PhasePoint(sol.y[0, -1], np.array([sol.y[1, -1]]),
                       abs(sol.y[2, -1]),
                       np.array([math.copysign(1.0, sol.y[2, -1])]))
    comps_o = _frame_components(img_o, sol.y[3:, -1])
    assert abs(comps_o[1]) / np.hypot(comps_o[0], comps_o[2]) > 1e3
    assert np.max(np.abs(xi_t - sol.y[3:, -1])) < 1e-6 * np.max(np.abs(xi_t))


def test_lifted_flow_rejects_higher_dimension():
    p = PhasePoint(0.0, np.array([0.1, 0.2]), 1.0,
                   np.array([1.0, 0.0]))
    with pytest.raises(UnsupportedDimensionError):
        lifted_flow(p, np.zeros(3), 1.0)


def test_lifted_flow_rejects_bad_covector():
    p = PhasePoint(0.0, np.array([0.1]), 1.0, np.array([1.0]))
    with pytest.raises(ValidationError):
        lifted_flow(p, np.zeros(4), 1.0)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_counts_and_membership_disjointness(small_grid):
    g = small_grid
    # one representative per orbit of the eight sign flips
    assert g.xihat.shape == (16 * 16 // 8, 3)
    assert np.array_equal(g.multiplicity, np.full(32, 8))
    x = signed_grid(g)
    assert x.shape == (16 * 16, 3)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-14)
    # midpoint parametrization keeps samples off every invariant set
    assert np.min(np.abs(x)) > 1e-3
    assert not np.any(g.in_cone_u(x) & g.in_cone_0s(x))
    assert not np.any(g.in_cone_s(x) & g.in_cone_0u(x))


def test_grid_cone_overlap_raises():
    with pytest.raises(ConfigurationError):
        ReducedPhaseGrid(n_theta=16, n_phi=16, eps=1.0)


def test_grid_validation():
    with pytest.raises(ValidationError):
        ReducedPhaseGrid(n_theta=1)
    with pytest.raises(ValidationError):
        ReducedPhaseGrid(eps=0.0)
    with pytest.raises(ValidationError):
        ReducedPhaseGrid(delta=-1.0)


def test_build_weight_rejects_wide_mollified_bands():
    # the grid itself is fine at this eps, but the mollified bands (2.25 eps)
    # around the two pi/2-separated cone families would meet
    g = ReducedPhaseGrid(n_theta=16, n_phi=16, eps=0.36)
    with pytest.raises(ConfigurationError):
        build_weight(g)


# ---------------------------------------------------------------------------
# weight field
# ---------------------------------------------------------------------------

def test_estimate_tau_max(small_grid):
    tau = estimate_tau_max(small_grid)
    # closed-form transition scale: a direction on a cone boundary needs
    # about 2 log cot(eps) to cross; the estimate doubles the grid worst
    base = 2.0 * math.log(1.0 / math.tan(small_grid.eps))
    assert 1.5 * base < tau < 2.5 * base
    assert tau == pytest.approx(7.4, abs=0.2)


@pytest.mark.parametrize("shape, eps", [((32, 32), 0.15), ((12, 20), 0.2),
                                        ((40, 64), 0.1), ((8, 8), 0.3)])
def test_tau_max_is_bitwise_the_stepped_search(shape, eps):
    # the closed-form crossing must land on the step the stepping loop finds
    grid = ReducedPhaseGrid(n_theta=shape[0], n_phi=shape[1], eps=eps)
    assert estimate_tau_max(grid) == stepped_tau_max(grid, FLOW_STEP)
    if (shape, eps) == ((32, 32), 0.15):
        assert estimate_tau_max(grid) == 7.499999999999989


@pytest.mark.parametrize("band, dist", [(False, escape._dist_u), (True, escape._dist_0u)])
def test_entry_time_lands_on_the_cone_edge(band, dist):
    eps = 0.15
    y = _as_unit_rows(np.random.default_rng(3).normal(size=(200, 3)))
    tau = escape._cone_crossing(np.log(np.abs(y)).T, 2.0 * math.log(math.tan(eps)),
                                band, swap=band)
    flowed = escape._scaled_unit(y, np.exp(tau), np.exp(-tau))
    assert np.max(np.abs(dist(flowed) - eps)) < 1e-12


def test_tau_max_beyond_the_horizon_raises(small_grid, monkeypatch):
    # the worst leg needs 3.7 to enter its cone
    monkeypatch.setattr(escape, "_TRANSPORT_HORIZON", 2.0)
    with pytest.raises(ConfigurationError, match="within transport time 2.0"):
        estimate_tau_max(small_grid)


def test_weight_window_too_short_raises(small_grid):
    with pytest.raises(ConfigurationError):
        build_weight(small_grid, T=5.0)


def test_build_weight_rejects_a_window_past_the_float_range(small_grid):
    with pytest.raises(ValidationError, match="T = 800.0 is too long"):
        build_weight(small_grid, T=800.0)


def test_weight_range_and_report(weight):
    values = weight(weight.grid.xihat)
    assert np.max(np.abs(values)) <= 2.0 * weight.T * (1.0 + 1e-12)
    assert weight.T >= 2.0 * weight.tau_max - 1e-9


def test_weight_plateau_values_exact(weight):
    """The averaged weight saturates exactly on the plateau balls."""
    radii = weight.plateau_radii
    two_T = 2.0 * weight.T
    for frac in (0.0, 0.5, 0.95):
        d = frac * radii["u"]
        vu = weight([[math.sin(d), math.cos(d), 0.0]])
        assert abs(float(vu[0]) - two_T) < 1e-9 * two_T
        d = frac * radii["s"]
        vs = weight([[0.0, math.sin(d), math.cos(d)]])
        assert abs(float(vs[0]) + two_T) < 1e-9 * two_T
        d = frac * radii["0"]
        v0 = weight([[math.cos(d), math.sin(d) / 2.0,
                      math.sin(d) * math.sqrt(3.0) / 2.0]])
        assert abs(float(v0[0])) < 1e-9 * two_T


def test_weight_flow_derivative_nonnegative_everywhere(weight, small_grid):
    deriv = weight.derivative(small_grid.xihat)
    assert deriv.min() >= -1e-6
    # on this grid every direction fully sweeps between the saturated cones,
    # so the telescoped difference quotient equals its maximal value 2
    assert deriv.min() == pytest.approx(2.0, abs=1e-9)
    assert deriv.max() == pytest.approx(2.0, abs=1e-9)


def test_weight_saturates_on_transported_cones(weight):
    """Inside the forward-T image of the complement of the flow+decaying band
    the weight is at least T, and inside the backward-T image of the
    complement of the flow+growing band at most -T (no grid direction lies
    in either cone)."""
    T, eps = weight.T, weight.grid.eps
    u_dirs, s_dirs = _transported_cone_samples(T, eps)
    u_dirs = u_dirs[_in_V_u(u_dirs, T, eps)]
    s_dirs = s_dirs[_in_V_s(s_dirs, T, eps)]
    assert len(u_dirs) and len(s_dirs)
    assert weight(u_dirs).min() >= T - 1e-9
    assert weight(s_dirs).max() <= -T + 1e-9


def test_weight_flow_derivative_vanishes_on_plateaus(weight):
    radii = weight.plateau_radii
    dirs = np.array([
        [0.0, 1.0, 0.0],
        [math.sin(0.5 * radii["u"]), math.cos(0.5 * radii["u"]), 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ])
    deriv = weight.derivative(dirs)
    assert np.max(np.abs(deriv)) < 1e-9


def _reference_weight_average(x, T, step, eps):
    """The Simpson flow average as a plain loop, one node at a time, with the
    per-node values summed exactly (math.fsum) per direction."""
    nodes, pattern = _simpson_rule(T, step)
    terms = [w_j * cone_integrand(_sphere_flow(x, t_j), eps)
             for t_j, w_j in zip(nodes, pattern * (step / 3.0))]
    return np.array([math.fsum(col) for col in np.transpose(terms)])


def _reference_weight_derivative(x, T, step, eps):
    """The six-flow difference quotient as a plain loop, one flow at a time,
    summed exactly per direction."""
    terms = [w * cone_integrand(_sphere_flow(x, t), eps)
             for t, w in zip((T - step, T, T + step, -T - step, -T, -T + step),
                             (1.0, 4.0, 1.0, -1.0, -4.0, -1.0))]
    return np.array([math.fsum(col) for col in np.transpose(terms)]) / 6.0


def _window_fill_is_exact(x, times, step, eps):
    """At each of the times, every cone profile of the per-node flow of x
    that lies outside its transition window is bitwise the 0/1 value the
    windowed sum counts there: 1 past the window on the even rows, 1 before
    it on the odd rows."""
    lo, hi = _transition_windows(x, eps, escape._WINDOW_MARGIN * step)
    for t in times:
        y = _sphere_flow(x, t)
        for p, dist in enumerate(escape._PROFILE_DISTANCES):
            outside = (t < lo[p]) | (t > hi[p])
            fill = t > hi[p] if p % 2 == 0 else t < lo[p]
            if not np.array_equal(_band_profile(dist(y), eps)[outside],
                                  fill[outside].astype(float)):
                return False
    return True


def _average_and_derivative_times(T, step):
    """The Simpson nodes of [-T, T] and the two extra times of the six-flow
    derivative."""
    nodes, _ = _simpson_rule(T, step)
    return np.concatenate([nodes, [-T - step, T + step]])


def _windowed_matches_reference(x, T, step, eps):
    """The window check above at every time the average and the derivative
    read, and their values within 1e-13 * 2T and 1e-14 of the exactly summed
    per-node loops."""
    return (_window_fill_is_exact(x, _average_and_derivative_times(T, step),
                                  step, eps)
            and np.max(np.abs(_weight_average(x, T, step, eps)
                              - _reference_weight_average(x, T, step, eps)))
            <= 1e-13 * 2.0 * T
            and np.max(np.abs(_weight_derivative(x, T, step, eps)
                              - _reference_weight_derivative(x, T, step, eps)))
            <= 1e-14)


@pytest.fixture(scope="module", params=["grid", "random"])
def oracle_dirs(request, small_grid):
    if request.param == "grid":
        return small_grid.xihat
    return _as_unit_rows(np.random.default_rng(17).normal(size=(500, 3)))


def test_weight_average_matches_per_node_loop(weight, oracle_dirs):
    """The field's values, called as a WeightField, on the grid and on
    random directions: the window fill is exact and the sums agree with the
    exactly summed per-node loops."""
    T, h, eps = weight.T, weight.step, weight.grid.eps
    x = _as_unit_rows(oracle_dirs)
    assert _window_fill_is_exact(x, _average_and_derivative_times(T, h), h, eps)
    ref = _reference_weight_average(x, T, h, eps)
    assert np.max(np.abs(weight(oracle_dirs) - ref)) <= 1e-13 * 2.0 * T
    ref = _reference_weight_derivative(x, T, h, eps)
    assert np.max(np.abs(weight.derivative(oracle_dirs) - ref)) <= 1e-14


def test_weight_derivative_matches_two_sum_difference(weight, oracle_dirs):
    """The telescoped endpoint form equals (fwd - bwd)/(2h) of two full
    Simpson sums over the shifted directions, and is nonnegative."""
    T, h, eps = weight.T, weight.step, weight.grid.eps
    fwd = _reference_weight_average(_sphere_flow(oracle_dirs, h), T, h, eps)
    bwd = _reference_weight_average(_sphere_flow(oracle_dirs, -h), T, h, eps)
    deriv = weight.derivative(oracle_dirs)
    assert np.max(np.abs(deriv - (fwd - bwd) / (2.0 * h))) <= 1e-12 * 2.0 * T
    assert deriv.min() >= 0.0


def _transported_back(z, times):
    """Row i of z flowed by -times[i]: whatever row i of z does at time 0,
    its returned direction does at times[i]."""
    return _as_unit_rows(np.array([_sphere_flow(row[None], -t)[0]
                                   for row, t in zip(z, times)]))


def _ulp_targets(times, n_ulps):
    """Each time and its neighbours up to n_ulps floats away."""
    return [t + k * np.spacing(t) for t in times
            for k in range(-n_ulps, n_ulps + 1)]


def _band_edge_directions(times, eps, n_ulps=2):
    """Directions that cross a band edge (1.75 eps or 2.25 eps from one of
    the four cone sets) within n_ulps floats of each of the given times."""
    z = []
    for theta in (1.75 * eps, 2.25 * eps):
        c, s = math.cos(theta), math.sin(theta)
        for phi in (0.3, 1.1, 2.0):
            cp, sp = math.cos(phi), math.sin(phi)
            z += [[s * cp, c, s * sp],    # growing-dual pole
                  [c * cp, s, c * sp],    # flow+decaying band
                  [c * cp, c * sp, s],    # flow+growing band
                  [s * cp, s * sp, c]]    # decaying-dual pole
    targets = _ulp_targets(times, n_ulps)
    return _transported_back(np.array(z * len(targets)),
                             np.repeat(targets, len(z)))


def _quiet_edge_directions(times, eps, n_ulps=8):
    """Directions outside every band until they reach the outer edge of the
    flow+growing band at (within n_ulps floats of) one of the given times,
    and their swap mirrors.  While outside every band the cone integrand is
    exactly 0, so on a window that ends at such a time a misjudged edge
    shows up in the average even as a 1e-47 smoothstep value."""
    theta = 2.25 * eps
    z = [[math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
          math.sin(theta)] for phi in np.linspace(0.6, 1.0, 9)]
    targets = _ulp_targets(times, n_ulps)
    x = _transported_back(np.array(z * len(targets)),
                          np.repeat(targets, len(z)))
    return np.vstack([x, x[:, [0, 2, 1]]])


_POLES_AND_ZEROS = _as_unit_rows(np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
    [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
    [0.0, 0.6, 0.8], [0.0, -0.8, 0.6], [0.6, 0.0, 0.8],
    [-0.8, 0.0, -0.6], [0.6, 0.8, 0.0], [0.8, -0.6, 0.0],
]))


def _adversarial_cases(weight):
    """(directions, T) pairs on which the windowed weight and its derivative
    are compared with the per-node loops: poles and zero components, band
    edges landing within ulps of the sampled times of the full window, and
    quiet directions whose edge is the last sampled time of a short window."""
    T, h, eps = weight.T, weight.step, weight.grid.eps
    plateau = np.vstack(list(_plateau_samples(weight.plateau_radii).values()))
    full = np.vstack([
        _POLES_AND_ZEROS, plateau, *_transported_cone_samples(T, eps),
        _band_edge_directions((-T - h, -T, -T + h, 0.0, T - h, T, T + h), eps),
    ])
    cases = [(full, T)]
    for T_short in (2.0 * h, 3.0 * h):
        nodes, _ = _simpson_rule(T_short, h)
        cases.append((np.vstack([
            _POLES_AND_ZEROS,
            _band_edge_directions((nodes[0], nodes[-1]), eps),
            _quiet_edge_directions((nodes[-1], T_short + h), eps),
        ]), T_short))
    return cases


def _profile_evaluations(x, times, pattern, eps, margin):
    """Number of (direction, time) pairs at which ``_windowed_average``
    evaluates each of the four cone profiles of x."""
    counts = [0, 0, 0, 0]

    def counted(p, dist):
        def dist_counted(y):
            counts[p] += len(y)
            return dist(y)
        return dist_counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(escape, "_PROFILE_DISTANCES", tuple(
            counted(p, dist) for p, dist in enumerate(escape._PROFILE_DISTANCES)))
        _windowed_average(x, _exponential_rule(times, pattern), eps, margin)
    return counts


def test_flow_rule_caches_read_only_node_exponentials():
    """The Simpson rule of a window with math.exp of each node, built once
    and shared read-only."""
    nodes, pattern, grow, decay = escape._flow_rule(2.0, 0.05)
    assert escape._flow_rule(2.0, 0.05)[2] is grow
    assert np.array_equal(pattern, _simpson_rule(2.0, 0.05)[1])
    assert grow.tolist() == [math.exp(t) for t in nodes]
    assert decay.tolist() == [math.exp(-t) for t in nodes]
    with pytest.raises(ValueError):
        grow[0] = 0.0


def test_constant_profiles_are_evaluated_at_no_node(weight):
    """A zero near component (growing on profiles 0-1, decaying on 2-3)
    keeps that profile's distance constant along the flow.  Its window edges
    are then inf - inf in log space; they must come back as the limit, not
    NaN, and the profile must be evaluated at no Simpson node.  At the poles
    that holds for all four profiles."""
    nodes, pattern = _simpson_rule(weight.T, weight.step)
    eps, margin = weight.grid.eps, escape._WINDOW_MARGIN * weight.step
    for edges in _transition_windows(_POLES_AND_ZEROS, eps, margin):
        assert not np.any(np.isnan(edges))
    assert _profile_evaluations(_POLES_AND_ZEROS[:6], nodes, pattern, eps,
                                margin) == [0, 0, 0, 0]
    for row in _POLES_AND_ZEROS[6:]:
        counts = _profile_evaluations(row[None], nodes, pattern, eps, margin)
        near_zero = [row[1] == 0.0] * 2 + [row[2] == 0.0] * 2
        assert all(c == 0 for c, zero in zip(counts, near_zero) if zero)


def test_windowed_weight_matches_per_node_loops_on_adversarial_set(weight):
    h, eps = weight.step, weight.grid.eps
    for x, T in _adversarial_cases(weight):
        assert _windowed_matches_reference(x, T, h, eps), T


def test_zero_window_margin_changes_a_value_on_adversarial_set(weight,
                                                               monkeypatch):
    """Without its margin a closed-form window misses, by a few ulps, a
    node at which the computed profile is still inside its band; the
    window check on the adversarial set sees that."""
    monkeypatch.setattr(escape, "_WINDOW_MARGIN", 0.0)
    h, eps = weight.step, weight.grid.eps
    assert not all(
        _window_fill_is_exact(x, _average_and_derivative_times(T, h), h, eps)
        for x, T in _adversarial_cases(weight))


def test_windowed_derivative_matches_six_flow_loop_beyond_overflow(weight):
    """Past |t| of about 354, where squaring the e^t-scaled components would
    overflow, the per-node evaluation still reads the saturated value that
    the windowed sum counts."""
    h, eps = weight.step, weight.grid.eps
    x = _as_unit_rows(np.random.default_rng(23).normal(size=(50, 3)))
    times = (-380.0 - h, -380.0, -380.0 + h, 380.0 - h, 380.0, 380.0 + h)
    assert _window_fill_is_exact(x, times, h, eps)
    ref = _reference_weight_derivative(x, 380.0, h, eps)
    got = _weight_derivative(x, 380.0, h, eps)
    assert np.max(np.abs(got - ref)) <= 1e-14


def test_weight_average_saturates_at_T_400():
    """Beyond |t| = 20 the cone integrand of these directions is +1 forward
    and -1 backward, so the Simpson tails over [20, 400] and [-400, -20]
    cancel and the T = 400 average is the T = 20 one."""
    x = _as_unit_rows(np.array([[0.3, 0.8, 0.5], [0.1, 0.2, 0.97]]))
    assert np.linalg.norm(_sphere_flow(x, 400.0), axis=1) == pytest.approx(1.0)
    far = _weight_average(x, 400.0, 0.05, 0.15)
    assert far == pytest.approx(_weight_average(x, 20.0, 0.05, 0.15), abs=1e-9)
    assert far == pytest.approx([0.471, -1.579], abs=1e-3)
    assert np.array_equal(_weight_derivative(x, 400.0, 0.05, 0.15), [2.0, 2.0])


_DIRECTION_ROWS = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                     st.floats(-1.0, 1.0)),
                           min_size=1, max_size=8)


@settings(settings.get_profile("reproducible"), max_examples=30,
          deadline=None)
@given(rows=_DIRECTION_ROWS)
def test_windowed_weight_matches_per_node_loops_hypothesis(weight, rows):
    rows = [r for r in rows if r[0] ** 2 + r[1] ** 2 + r[2] ** 2 > 0.0]
    assume(rows)
    assert _windowed_matches_reference(_as_unit_rows(np.array(rows)),
                                       weight.T, weight.step, weight.grid.eps)


@settings(settings.get_profile("reproducible"), max_examples=200,
          deadline=None)
@given(rows=_DIRECTION_ROWS)
def test_transition_windows_are_never_nan_hypothesis(rows):
    rows = [r for r in rows if r[0] ** 2 + r[1] ** 2 + r[2] ** 2 > 0.0]
    assume(rows)
    for edges in _transition_windows(_as_unit_rows(np.array(rows)), 0.15, 0.1):
        assert not np.any(np.isnan(edges))


# ---------------------------------------------------------------------------
# reflection symmetry: the kernels run on orbit representatives
# ---------------------------------------------------------------------------

_SIGN_PATTERNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


def _kernel_cases(weight, symbol):
    """The kernels that run on orbit representatives, with their windows,
    step and eps, and the stretch at one step."""
    eps = weight.grid.eps
    return [(_weight_average, (weight.T, weight.step, eps)),
            (_weight_derivative, (weight.T, weight.step, eps)),
            (_glued_hat, (symbol.T_prime, symbol.step, eps)),
            (_stretch, (weight.step,))]


def test_kernels_read_only_component_magnitudes(weight, symbol):
    """What the orbit representatives rest on: each kernel gives bitwise the
    same values at all eight sign patterns of random directions, poles and
    zero components."""
    x = np.vstack([_as_unit_rows(np.random.default_rng(41).normal(size=(200, 3))),
                   _POLES_AND_ZEROS])
    for kernel, args in _kernel_cases(weight, symbol):
        want = kernel(x, *args).tobytes()
        for signs in _SIGN_PATTERNS[1:]:
            assert kernel(x * signs, *args).tobytes() == want, \
                (kernel.__name__, signs)


def test_kernels_give_each_row_its_own_value(weight, symbol):
    """On a batch with no shared magnitudes and on one with repeated and
    sign-flipped rows, each kernel gives bitwise what it gives one row at a
    time, so a representative's value does not depend on its batch."""
    plain = _as_unit_rows(np.random.default_rng(43).normal(size=(40, 3)))
    repeated = np.vstack([plain[:10], plain[:10] * [-1.0, 1.0, -1.0],
                          plain[3:7], -plain[:10][::-1]])
    for kernel, args in _kernel_cases(weight, symbol):
        for x in (plain, repeated):
            one_by_one = np.concatenate([kernel(row[None], *args) for row in x])
            assert kernel(x, *args).tobytes() == one_by_one.tobytes(), \
                kernel.__name__


def _multiset(rows):
    return sorted(row.tobytes() for row in rows)


@pytest.mark.parametrize("n_theta, n_phi", [(32, 32), (16, 12), (8, 33),
                                            (7, 9), (6, 10), (2, 2)])
def test_midpoint_sphere_is_closed_under_its_sign_flips(n_theta, n_phi):
    """The representatives, reflected by their multiplicities, are bitwise
    the signed midpoint sphere, every mirror an exact sign flip of the entry
    at the smaller angle.  So each flip that maps the midpoint angles to
    themselves maps the sphere onto itself exactly: the flow-dual and
    decaying flips always, the growing flip at even n_phi.  An angle that is
    its own mirror (pi/2 at odd n_theta or at n_phi = 2 mod 4, pi at odd
    n_phi) keeps its rounded cosine or sine, under 2e-16; only that
    coordinate may miss its flip."""
    reps, multiplicity = _midpoint_sphere(n_theta, n_phi)
    assert multiplicity.sum() == n_theta * n_phi
    flips = (0, 1, 2) if n_phi % 2 == 0 else (0, 2)
    x = reflected_orbits(reps, multiplicity, flips)
    assert _multiset(x) == _multiset(signed_midpoint_sphere(n_theta, n_phi))
    rows = set(map(tuple, x))
    signs_kept = [s for s in _SIGN_PATTERNS if n_phi % 2 == 0 or s[1] == 1.0]
    assert len(signs_kept) == (8 if n_phi % 2 == 0 else 4)
    on_mirror = np.abs(x) < 2e-16
    for signs in signs_kept:
        missed = np.array([tuple(r) not in rows for r in x * signs])
        assert not np.any(missed & ~np.any(on_mirror & (signs < 0.0), axis=1))
    if n_theta % 2 == 0 and n_phi % 4 == 0:
        assert len(reps) == len(set(map(tuple, np.abs(x)))) == n_theta * n_phi // 8
    # as close to the exact midpoints as the rounded angles were, and within
    # the rounded angles' own error (up to 3.5 ulps of 1) of them
    x = signed_midpoint_sphere(n_theta, n_phi)
    old, exact = rounded_angle_sphere(n_theta, n_phi), exact_midpoint_sphere(n_theta, n_phi)
    ulp = np.spacing(1.0)
    assert np.max(np.abs(x - exact)) <= min(np.max(np.abs(old - exact)), 1.5 * ulp)
    assert np.max(np.abs(x - old)) <= 4.0 * ulp


@pytest.mark.parametrize("n_theta, n_phi", [(32, 32), (16, 12), (8, 33)])
def test_escape_probe_is_the_signed_probe_by_orbits(n_theta, n_phi):
    """The probe is the refined sphere's and the grid's representatives,
    the glue rings' representatives (which reflect bitwise to the signed
    rings under the growing and decaying flips) and the swap-surface rings
    in the positive octant; its multiplicities sum to every signed row."""
    grid = ReducedPhaseGrid(n_theta=n_theta, n_phi=n_phi)
    rows, multiplicity = _escape_probe_directions(grid)
    fine = (max(2 * n_theta, 64), max(2 * n_phi, 64))
    sphere, sphere_multiplicity = _midpoint_sphere(*fine)
    start = len(sphere) + len(grid.xihat)
    rings = slice(start, start + 6 * 32)
    assert np.array_equal(rows[:len(sphere)], _as_unit_rows(sphere))
    assert np.array_equal(multiplicity[:start], np.concatenate(
        [sphere_multiplicity, grid.multiplicity]))
    assert _multiset(reflected_orbits(rows[rings], multiplicity[rings], (1, 2))) \
        == _multiset(signed_glue_rings(grid.eps))
    assert np.all(rows[rings.stop:] > 0.0) and np.all(multiplicity[rings.stop:] == 1)
    assert multiplicity.sum() == fine[0] * fine[1] + n_theta * n_phi + 6 * 128 + 4 * 64


def test_weight_swap_oddness(weight, small_grid):
    x = small_grid.xihat
    swapped = x[:, [0, 2, 1]]
    total = weight(x) + weight(swapped)
    assert np.max(np.abs(total)) < 1e-9 * 2.0 * weight.T


def test_weight_sign_aligned_with_dominant_component(weight):
    """Along any trajectory the swap mirror is visited earlier, so the
    weight is nonnegative exactly where the growing component dominates."""
    rng = np.random.default_rng(11)
    x = _as_unit_rows(rng.normal(size=(200, 3)))
    vals = weight(x)
    dominant = np.abs(x[:, 1]) - np.abs(x[:, 2])
    assert np.all(vals * dominant >= -1e-9)


def test_weight_monotone_along_trajectories(weight):
    rng = np.random.default_rng(5)
    x = _as_unit_rows(rng.normal(size=(30, 3)))
    ts = np.arange(-3.0, 3.0 + 1e-9, 0.4)
    rows = np.column_stack([weight(_sphere_flow(x, t)) for t in ts])
    assert np.min(np.diff(rows, axis=1)) >= -1e-9


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0),
       c=st.floats(-1.0, 1.0))
def test_weight_bounds_hypothesis(weight, a, b, c):
    if abs(a) + abs(b) + abs(c) < 1e-3:
        return
    val = float(weight(np.array([[a, b, c]]))[0])
    assert abs(val) <= 2.0 * weight.T * (1.0 + 1e-12)
    mirrored = float(weight(np.array([[a, c, b]]))[0])
    assert abs(val + mirrored) <= 1e-9 * 2.0 * weight.T


# ---------------------------------------------------------------------------
# symbol field
# ---------------------------------------------------------------------------

def test_symbol_exactly_one_homogeneous(symbol):
    rng = np.random.default_rng(2)
    x = _as_unit_rows(rng.normal(size=(32, 3)))
    ratio = symbol_value(symbol, x, 2.0) / symbol_value(symbol, x, 1.0)
    assert np.max(np.abs(ratio - 2.0)) <= 1e-10
    ratio = symbol_value(symbol, x, 3.5e4) / symbol_value(symbol, x, 1.75e4)
    assert np.max(np.abs(ratio - 2.0)) <= 1e-10


def test_symbol_log_derivative_cone_bounds(symbol):
    deep_u = np.array([[1e-9, 1.0, 0.0], [0.0, 1.0, 1e-9],
                       [1e-7, 1.0, 1e-7], [0.0, 1.0, 0.0]])
    du = symbol_log_derivative(symbol, _as_unit_rows(deep_u))
    assert du.min() >= 0.5 * BETA - 1e-3

    deep_s = deep_u[:, [0, 2, 1]]
    ds = symbol_log_derivative(symbol, _as_unit_rows(deep_s))
    assert ds.max() <= -0.5 * BETA + 1e-3
    # at the decaying-dual pole the rate is exactly -beta
    pole = symbol_log_derivative(symbol, np.array([[0.0, 0.0, 1.0]]))
    assert float(pole[0]) == pytest.approx(-BETA, abs=1e-6)
    assert float(pole[0]) <= -0.75 * BETA + 1e-3


def test_symbol_flow_invariant_near_flow_dual_poles(symbol, small_grid):
    eps = small_grid.eps
    dirs = []
    for d0 in (0.0, 0.4 * eps, 0.95 * eps):
        dirs.append([math.cos(d0), math.sin(d0) * 0.6,
                     math.sin(d0) * 0.8])
    fd = symbol_log_derivative(symbol, _as_unit_rows(np.array(dirs)))
    assert np.max(np.abs(fd)) < 1e-8


def test_symbol_window_floor_raises(small_grid):
    with pytest.raises(ConfigurationError):
        build_f(small_grid, T_prime=0.0)


def test_symbol_infimum_and_frame_constant(symbol):
    assert 0.5 < symbol.c_f <= 1.0 + 1e-12
    assert symbol.c_f == pytest.approx(0.9727, abs=5e-4)
    assert FRAME_CONSTANT == pytest.approx(1.0, abs=1e-12)


def test_symbol_dominates_components(symbol):
    """The unglued factor majorizes every component magnitude, so the glued
    infimum stays well above the generic lower bound 1/sqrt(3)."""
    rng = np.random.default_rng(4)
    x = _as_unit_rows(rng.normal(size=(64, 3)))
    us = _log_norm_average(x, symbol.T_prime, symbol.step)
    assert np.all(us >= np.abs(x[:, 0]) - 1e-12)


# ---------------------------------------------------------------------------
# assembled escape function
# ---------------------------------------------------------------------------

def test_assemble_constants(data):
    assert data.C_G_prime == pytest.approx(1.0)
    assert data.C_G == pytest.approx(2.0 * data.weight.T)
    assert data.constants["beta"] == BETA
    assert data.weight.T >= 2.0 * data.weight.tau_max - 1e-9
    assert data.symbol.T_prime == pytest.approx(2.0)
    # derived small-scale radius: product bound is roundoff-small by the
    # swap alignment, the derivative floor saturates at 2
    assert data.constants["product_bound"] < 1e-9
    assert data.constants["weight_derivative_floor"] == pytest.approx(
        2.0, abs=1e-6)
    assert data.R == pytest.approx(0.5 * math.exp(0.75), rel=1e-3)
    m = weight_symbol(data, signed_grid(data.grid))
    assert m.shape == (data.grid.n_theta * data.grid.n_phi,)
    assert np.max(np.abs(m)) <= data.C_G * (1.0 + 1e-12)


def test_assemble_validations(small_grid):
    with pytest.raises(TypeError):
        assemble_G(small_grid, bogus=1.0)
    with pytest.raises(ConfigurationError):
        assemble_G(small_grid, C_G_prime=0.5)


def test_escape_function_coordinate_interface(data):
    p = PhasePoint(1.2, np.array([0.4]), 0.9, np.array([1.0]))
    xi_u = _dual_frame_covector(p, [0.0, 1.0, 0.0]) * 1e4
    xi_s = _dual_frame_covector(p, [0.0, 0.0, 1.0]) * 1e4
    xi_0 = _dual_frame_covector(p, [1.0, 0.0, 0.0]) * 1e4
    g_u = data.G(p, xi_u)
    g_s = data.G(p, xi_s)
    g_0 = data.G(p, xi_0)
    # growing plateau: +C_G log(2 rho fhat / (c_f delta)) with fhat = 1
    expected = data.C_G * math.log(2e4 / (data.symbol.c_f * data.grid.delta))
    assert g_u == pytest.approx(expected, rel=1e-12)
    assert g_s == pytest.approx(-expected, rel=1e-12)
    assert g_0 == pytest.approx(0.0, abs=1e-9)


def test_escape_function_vanishes_below_half_cutoff(data):
    p = PhasePoint(0.0, np.array([0.0]), 1.0, np.array([1.0]))
    xi = _dual_frame_covector(p, [0.2, 0.7, 0.4])
    xi *= 0.4 * data.grid.delta / np.linalg.norm(_frame_components(p, xi))
    assert data.G(p, xi) == 0.0


def test_escape_function_rejects_bad_input(data):
    p2 = PhasePoint(0.0, np.array([0.1, 0.2]), 1.0, np.array([1.0, 0.0]))
    with pytest.raises(UnsupportedDimensionError):
        data.G(p2, np.ones(3))
    p = PhasePoint(0.0, np.array([0.1]), 1.0, np.array([1.0]))
    with pytest.raises(ValidationError):
        data.G(p, np.ones(4))
    with pytest.raises(ValidationError):
        data.reduced_G(np.array([[1.0, 0.0, 0.0]]), 0.0)


def test_escape_function_base_point_independent(data):
    """The value depends on the covector only through frame components, so
    moving the base point by a local isometry (with the matching covector
    transport) leaves it unchanged."""
    p = PhasePoint(-0.5, np.array([2.2]), 2.3, np.array([-1.0]))
    xi = np.array([3.0, -0.4, 1.7]) * 50.0
    g1 = data.G(p, xi)
    tau = 1.9
    p2 = PhasePoint(p.r + tau, math.exp(tau) * p.theta + 4.5, p.phi, p.u)
    xi2 = np.array([xi[0], math.exp(-tau) * xi[1], xi[2]])
    g2 = data.G(p2, xi2)
    assert g1 == pytest.approx(g2, rel=1e-12, abs=1e-12)


def test_escape_monotone_along_lifted_trajectories(data):
    """G is nondecreasing along lifted flow lines whose magnitude stays
    above the cutoff scale."""
    rng = np.random.default_rng(9)
    x = _as_unit_rows(rng.normal(size=(25, 3)))
    rho0 = 5.0 * data.grid.delta
    ts = np.arange(-2.4, 2.4 + 1e-9, 0.3)
    rows = []
    for t in ts:
        xt = _sphere_flow(x, t)
        rt = rho0 * _stretch(x, t)
        assert np.all(rt > data.grid.delta)
        rows.append(data.reduced_G(xt, rt))
    rows = np.column_stack(rows)
    assert np.min(np.diff(rows, axis=1)) >= -1e-9


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def test_certificate_passes(certificate):
    assert isinstance(certificate, EscapeCertificate)
    assert certificate.passed
    for name in ("i", "ii", "iii", "iv"):
        assert certificate.conditions[name]["passed"], name
        assert not certificate.conditions[name]["witnesses"]


def test_certificate_margins(certificate):
    cond = certificate.conditions
    assert cond["i"]["margin"] >= 1.5
    assert cond["i"]["threshold"] == pytest.approx(1.0 - 1e-3)
    assert cond["ii"]["margin"] >= 1.4
    assert cond["ii"]["threshold"] == -1e-6
    assert cond["iii"]["margin"] <= 1e-12
    assert cond["iii"]["flow_dual_max_abs"] <= 1e-10
    assert cond["iv"]["margin"] <= 1e-12
    assert cond["ii"]["n_samples"] == len(cond["ii"]["magnitude_levels_over_delta"]) * 16 * 16


def test_certificate_slopes_match_growth_constant(certificate, data):
    cond = certificate.conditions["iii"]
    assert cond["mean_slope_growing"] == pytest.approx(data.C_G, rel=1e-10)
    assert cond["mean_slope_decaying"] == pytest.approx(-data.C_G, rel=1e-10)


def test_certificate_constants_audit(certificate, data):
    consts = certificate.constants
    for key in ("C_G", "C_G_prime", "T", "T_prime", "R", "beta", "c_f",
                "delta", "eps", "tau_max", "product_bound",
                "weight_derivative_floor", "plateau_radii"):
        assert key in consts, key
    assert consts["C_G"] == pytest.approx(data.C_G)
    assert consts["R"] == pytest.approx(data.R)


def test_certificate_json_roundtrip(certificate):
    assert json.loads(certificate.to_json()) == certificate.as_dict()


@pytest.fixture(scope="module")
def default_data():
    return assemble_G(ReducedPhaseGrid())


@pytest.mark.parametrize("seed", range(5))
def test_plateau_conditions_are_bitwise_the_tiled_batch(default_data, seed):
    """Conditions iii and iv evaluate the weight and the symbol once per
    plateau direction and broadcast G over the magnitudes; at the default
    grid what they report is bitwise what the tiled reduced_G batch gives."""
    cond = verify(default_data, seed=seed).conditions
    want = tiled_plateau_conditions(default_data)
    got = {key: cond["iv" if key == "plateau_error_relative" else "iii"][key]
           for key in want}
    assert {k: float(v).hex() for k, v in got.items()} == \
        {k: float(v).hex() for k, v in want.items()}


@pytest.mark.parametrize("which", ["default_data", "data"])
def test_flow_conditions_match_the_tiled_covector_batch(which, request):
    """Conditions i and ii evaluate the weight and the symbol once per
    representative and step shift; their margins are those of G read from
    one reduced_G batch per magnitude over every signed direction's flowed
    covector (default grid and 16x16)."""
    data = request.getfixturevalue(which)
    cond = verify(data).conditions
    want = tiled_flow_conditions(data)
    for key in ("i", "ii"):
        assert cond[key]["magnitude_levels_over_delta"] == list(want[key])
        assert cond[key]["margin"] == pytest.approx(min(want[key].values()),
                                                    rel=1e-12)


def test_flow_condition_i_fails_at_the_tiled_batch_lowest_level(small_grid):
    """With R under the cutoff support both routes fail condition i, and at
    the same lowest magnitude level."""
    bad = assemble_G(small_grid, R=0.2)
    cond = verify(bad).conditions["i"]
    tol = cond["threshold"]
    want = tiled_flow_conditions(bad)["i"]
    failing = [lvl for lvl, low in want.items() if low < tol]
    assert failing and not cond["passed"]
    assert min(w["magnitude_over_delta"] for w in cond["witnesses"]) == failing[0]


def test_certificate_counts_the_evaluations_it_makes(default_data):
    """n_samples is the number of (direction, magnitude) evaluations: the
    angle fiber, on which G is constant, is neither sampled nor counted."""
    cert = verify(default_data)
    cond = cert.conditions
    for key in ("i", "ii"):
        assert cond[key]["n_samples"] == (len(cond[key]["magnitude_levels_over_delta"])
                                          * cond[key]["n_distinct_directions"])
    # 904 directions off the flow-dual cone (896 on the grid, 8 in the
    # transported cones) at 4 levels; all 1,024 grid directions at 8 levels
    assert (cond["i"]["n_samples"], cond["ii"]["n_samples"]) == (3616, 8192)
    assert cond["iii"]["n_samples"] == 9 * cond["iii"]["n_distinct_directions"]
    record = cert.as_dict()
    assert "n_alpha" not in record["grid"]
    assert not any("fiber" in note for note in record["notes"])


def test_reduced_G_normalizes_its_batch_once(data, monkeypatch):
    """The batch is normalized where it enters; the weight and the symbol
    factor get those unit rows as they are."""
    calls = []

    def counting(xihat):
        calls.append(np.shape(xihat))
        return _as_unit_rows(xihat)

    monkeypatch.setattr(escape, "_as_unit_rows", counting)
    x = np.random.default_rng(31).normal(size=(40, 3))
    data.reduced_G(x, 10.0)
    assert calls == [(40, 3)]


def test_empty_direction_batches_give_empty_arrays(data):
    none = np.empty((0, 3))
    for values in (data.weight(none), data.weight.derivative(none),
                   symbol_hat(data.symbol, none), symbol_log_derivative(data.symbol, none),
                   data.reduced_G(none, 1.0)):
        assert values.shape == (0,)


def test_certificate_deterministic(small_grid, data):
    c1 = verify(data, seed=123)
    c2 = verify(data, seed=123)
    assert c1.as_dict() == c2.as_dict()


def test_certificate_fails_with_sabotaged_radius(small_grid):
    """Forcing the small-scale radius under the cutoff support makes the
    strict-positivity samples sit where G vanishes: the certificate must
    fail and list witnesses."""
    bad = assemble_G(small_grid, R=0.2)
    cert = verify(bad)
    assert not cert.passed
    assert not cert.conditions["i"]["passed"]
    assert cert.conditions["i"]["witnesses"]
    assert cert.conditions["i"]["margin"] < cert.conditions["i"]["threshold"]


def test_verify_requires_escape_data():
    with pytest.raises(ValidationError):
        verify("not escape data")


@pytest.mark.parametrize("key", ["T", "T_prime"])
def test_window_past_the_float_range_raises_naming_T(small_grid, key):
    # e^800 is no float; both windows take their nodes from one routine
    with pytest.raises(ValidationError, match="T = 800.0 is too long"):
        assemble_G(small_grid, **{key: 800.0})


@pytest.mark.parametrize("step", [1e-5, 5e-324])
def test_step_past_the_node_bound_raises_before_allocating(small_grid, step):
    # 200 / step nodes on the transport horizon (inf at the smallest
    # subnormal); the CLI tests take steps 1e-9 and 1e-300
    with pytest.raises(ValidationError, match=rf"step = {step!r} puts .* nodes on the "
                                              r"transport horizon .* step >= 0\.0002"):
        assemble_G(small_grid, step=step)


@pytest.mark.parametrize("step, message", [
    (1e-300, r"step = 1e-300 puts 2e\+302 nodes on the transport horizon"),
    (5e-324, r"step = 5e-324 puts inf nodes on the transport horizon"),
    (0.0, r"step must be positive, got 0\.0"),
    (-0.05, r"step must be positive, got -0\.05"),
])
def test_tau_max_checks_its_own_step(step, message):
    # called directly, not behind build_weight's checks: numpy's untyped
    # "Maximum allowed dimension exceeded" came from the 1/step node array
    with pytest.raises(ValidationError, match=message):
        estimate_tau_max(ReducedPhaseGrid(n_theta=8, n_phi=8), step=step)


def test_verify_fails_conditions_i_and_ii_on_nan_samples(data):
    """A NaN flow derivative fails its condition: min(inf, nan) is inf, so
    a NaN that entered the margin as a number would pass with margin inf."""
    cert = verify(dataclasses.replace(
        data, symbol=dataclasses.replace(data.symbol, c_f=math.nan)))
    assert not cert.passed
    for key in ("i", "ii"):
        cond = cert.conditions[key]
        assert not cond["passed"]
        assert cond["margin"] == -math.inf
        assert cond["witnesses"]
        assert all(math.isnan(w["flow_derivative"]) for w in cond["witnesses"])


def test_verify_fails_conditions_iii_and_iv_on_nan_samples(data):
    """G is NaN everywhere at c_f = NaN: the slope deviation and the isometry
    deviation are NaN, and max(finite, nan) would have kept the finite one
    (condition iv passed with the plateau error as its margin)."""
    cert = verify(dataclasses.replace(
        data, symbol=dataclasses.replace(data.symbol, c_f=math.nan)))
    for key in ("iii", "iv"):
        assert not cert.conditions[key]["passed"]
        assert math.isnan(cert.conditions[key]["margin"])
