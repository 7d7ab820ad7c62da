"""Tests for contour inversion, residue operators, and resolvent continuation."""

import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspflow.bcontinuation as bc
from _fd_helpers import gauss, identity_residual
from _oracles import (fd_residual, full_node_line, mode_profile_reference,
                      paired_mode_reference, rho_max_prime)
from cuspflow.bcontinuation import (
    ContourSpec,
    CuspField,
    CuspFunction,
    CuspTerm,
    ModeTerm,
    ResidueOperator,
    SphereFunction,
    continue_resolvent,
    default_r_grid,
    residue_apply,
    residue_pairing,
    resolvent_line,
    rho_max,
    shift_identity,
    solve_indicial,
)
from cuspflow.errors import (
    ContourOnRootError,
    InvalidEnclosureError,
    NearSingularError,
    PoleError,
    ToleranceError,
    ValidationError,
)
from cuspflow._sphere import panel_nodes
from cuspflow.indicial import ModelOperator, RootTable, mode_exponents

XG = np.linspace(-0.9, 0.6, 41)


def term(d, m, mu, radial, poly=(1.0,)):
    return CuspFunction(d=d, terms=(CuspTerm(m=m, mu=mu, poly=poly, radial=radial),))


def monomial(d, m=0, poly=(1.0,)):
    """The one-term sphere input P(cos phi) sin(phi)^m."""
    return SphereFunction(d=d, terms=(ModeTerm(m=m, mu=(0,) * d, poly=tuple(poly)),))


def sup_norm(sol):
    """Largest |profile value| of a SphereSolution over its grid."""
    return max(float(np.abs(p).max()) for p in sol.profiles)


def line_rows(line, n_r=4096):
    """The rows of the full r-grid that a line's field holds."""
    return np.isin(default_r_grid(30.0, n_r), line.r_grid)


def residue_max_abs(H0, H1):
    """Largest |entry| of a residue's H0 and H1: per-term profiles of
    residue_apply, or per-term values of residue_pairing."""
    return float(np.abs(np.asarray([H0, H1])).max())


def residue_channel(res_op, op, f, psi):
    """(H0, H1) of f's residue at res_op: paired with the probe psi, or
    pointwise on XG when psi is None."""
    if psi is not None:
        return residue_pairing(res_op, op, f, psi)
    res = residue_apply(res_op, op, f, x_grid=XG)
    return res.H0, res.H1


# ---------------------------------------------------------------------------
# solve_indicial
# ---------------------------------------------------------------------------


def test_zero_input_gives_zero_solution():
    op = ModelOperator(d=1)
    g = monomial(1, m=0, poly=(0.0,))
    sol = solve_indicial(op, 0.3, 1.1 + 0.2j, g)
    assert sup_norm(sol) == 0.0


@pytest.mark.parametrize("d,h,m,A", [(1, 1.0, 0, 0.0), (2, 0.5, 1, 0.3), (3, 1.0, 2, 0.0)])
@pytest.mark.parametrize("lam_t", [2.3 + 0.7j, -1.7 + 11.0j, 0.4 - 37.0j])
def test_manufactured_mode_solutions(d, h, m, A, lam_t):
    # plug F = 1 and F = x into the mode reduction of (I(lam) - hs) and check
    # the solver reproduces them from the corresponding right-hand sides
    from cuspflow.bcontinuation import _solve_mode_profiles

    op = ModelOperator(d=d, h=h, A=A)
    s = 0.7 - 0.4j
    lam = h * lam_t
    c = lam / h + d / 2.0 + m
    e = A - s
    x = np.linspace(-1.0, 1.0 - 5e-3, 97)
    v1 = _solve_mode_profiles(op, s, m, (h * e, h * c), [lam], x)[0]
    assert np.abs(v1 - 1.0).max() < 1e-9
    v2 = _solve_mode_profiles(op, s, m, (-h, h * e, h * (1 + c)), [lam], x)[0]
    assert np.abs(v2 - x).max() < 1e-9


def test_random_solves_reproduce_input():
    rng = np.random.default_rng(0)
    worst = 0.0
    solved = 0
    while solved < 10:
        d = int(rng.integers(1, 3))
        op = ModelOperator(d=d, h=float(rng.choice([1.0, 0.5])), A=0.0)
        s = complex(rng.normal(), rng.normal())
        lam = complex(rng.normal(scale=2), rng.normal(scale=5))
        g = monomial(
            d, m=int(rng.integers(0, 3)), poly=tuple(rng.normal(size=3))
        )
        try:
            sol = solve_indicial(op, s, lam, g)
        except NearSingularError:
            continue
        solved += 1
        worst = max(worst, fd_residual(sol))
    assert worst < 1e-8


def test_solution_operator_stays_bounded_along_contour():
    for h in (1.0, 0.5):
        op = ModelOperator(d=1, h=h)
        g = monomial(1, m=0, poly=(1.0, 0.5))
        sups = [
            sup_norm(solve_indicial(op, 10.0, h * (1j * im), g))
            for im in (0.0, 10.0, 35.0)
        ]
        assert sups[1] < 2 * sups[0] + 1
        assert sups[2] < 2 * sups[0] + 1


def test_near_root_raises_with_datum():
    op = ModelOperator(d=1)
    g = monomial(1, m=0, poly=(1.0,))
    with pytest.raises(NearSingularError) as exc:
        solve_indicial(op, 1.3, -1.8 + 5e-9, g)
    root = exc.value.root
    assert root.sign == -1
    assert root.n == 0
    # slightly outside the guard the solve succeeds
    sol = solve_indicial(op, 1.3, -1.8 + 1e-6, g)
    assert np.isfinite(sup_norm(sol))


@pytest.mark.parametrize("h", [1e-9, 1e-6, 1e3])
def test_solve_indicial_profile_scales_as_one_over_h(h):
    """(I(h w) - h s) f = g is h (I_1(w) - s) f = g: the profile at (h, h w)
    is the one at (1, w) over h, and the root guard, in w units, accepts a w
    0.36 from the nearest root at every h."""
    g = monomial(1, m=0, poly=(1.0, 0.5))
    w = 1.1 + 0.2j
    want = solve_indicial(ModelOperator(d=1), 0.3, w, g).profiles[0]
    got = solve_indicial(ModelOperator(d=1, h=h), 0.3, h * w, g).profiles[0]
    assert np.max(np.abs(h * got - want)) <= 1e-13 * np.max(np.abs(want))


def test_ratio_form_exponent_past_its_budget_raises_with_the_exponent():
    # the north form carries w(x) / w(x_c) = (1-x)^{a+} (1+x)^{a-} / w(x_c), whose
    # exponent at x = X_MAX grows like lambda/2 log(1/(1 - X_MAX)); at lambda = +290
    # and +300 it passes the 650 budget.  At lambda = -280 and -300 the carry
    # decays and stays inside it (the values there are not accurate:
    # test_mode_profiles_past_the_series_reach_match_the_oracle)
    op, g = ModelOperator(d=1), monomial(1, m=0, poly=(1.0,))
    xg = np.linspace(-1.0, bc.X_MAX, 64)
    for lam in (-280.0, -300.0):
        assert np.isfinite(sup_norm(solve_indicial(op, 0.3, lam, g, x_grid=xg)))
    for lam, worst in ((290.0, "662.5"), (300.0, "685.3")):
        with pytest.raises(ToleranceError, match=rf"ratio-form exponent {worst} exceeds"):
            solve_indicial(op, 0.3, lam, g, x_grid=xg)


# (d, s, lambda): contour nodes at |eta| = 37 and 11, and a+ = 1 exactly at
# s = 1.005, lambda = -1.495, where the north particular series has a pole
ORACLE_LAMBDAS = {"eta37": (1, 0.3, 2.3 + 37j), "eta11": (1, 0.3, -1.7 + 11j),
                  "resonance": (1, 1.005, -1.495), "d2-eta80": (2, 1.3, -2.3 + 80j)}


@pytest.mark.parametrize("d,s,lam", ORACLE_LAMBDAS.values(), ids=ORACLE_LAMBDAS.keys())
def test_mode_profiles_match_the_oracle(d, s, lam):
    # the north form against the 30-digit variation-of-constants closed form,
    # on both sides of x_c = 0.2
    op = ModelOperator(d=d)
    x = np.array([-0.6, 0.1, 0.3, 0.6, 0.9, bc.X_MAX])
    got = bc._solve_mode_profiles(op, s, 0, (1.0, -0.4), [lam], x)[0]
    ref = mode_profile_reference(op, s, 0, (1.0, -0.4), lam, x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.xfail(strict=True, reason="_N_SERIES = 150 truncates the south series at "
                   "|eta| = 160, and at real lambda <= -20 it cancels; both reach x_c")
@pytest.mark.parametrize("lam", [-300.0, -2.3 + 160j], ids=["minus300", "eta160"])
def test_mode_profiles_past_the_series_reach_match_the_oracle(lam):
    # measured: 6.0e52 and 6.6e-4 of the row max.  The parent raised at
    # lambda = -300, and was off by 4.7e62 at -280 and by 6.6e-4 at -2.3 + 160i
    op = ModelOperator(d=1)
    x = np.array([0.3, 0.6, 0.9, bc.X_MAX])
    got = bc._solve_mode_profiles(op, 0.3, 0, (1.0,), [lam], x)[0]
    ref = mode_profile_reference(op, 0.3, 0, (1.0,), lam, x)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=10, deadline=None)
@given(
    p1=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
    p2=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
)
def test_solve_linearity(p1, p2):
    op = ModelOperator(d=1)
    alpha = 0.7 - 0.2j
    s, lam = 0.7, 1.1 + 0.2j
    g1 = monomial(1, m=0, poly=p1)
    g2 = monomial(1, m=0, poly=p2)
    g12 = monomial(
        1, m=0, poly=tuple(alpha * np.array(p1) + np.array(p2))
    )
    xs = np.linspace(-0.95, 0.9, 17)
    lhs, u1, u2 = (solve_indicial(op, s, lam, g, x_grid=xs).profiles[0] for g in (g12, g1, g2))
    rhs = alpha * u1 + u2
    scale = max(np.abs(lhs).max(), 1e-12)
    assert np.abs(lhs - rhs).max() / scale < 1e-10


# ---------------------------------------------------------------------------
# ContourSpec validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rho": 0.0, "height": 0.0},
        {"rho": 0.0, "height": -3.0},
        {"rho": 0.0, "panels": 3},
    ],
)
def test_contour_spec_invalid(kwargs):
    with pytest.raises(ValidationError):
        ContourSpec(**kwargs)


def test_contour_spec_nodes_and_window():
    spec = ContourSpec(rho=0.3, height=20.0, panels=10)
    eta, wq = panel_nodes(np.linspace(-spec.height, spec.height, spec.panels + 1), 16)
    assert eta.size == 10 * 16
    assert abs(float(wq.sum()) - 40.0) < 1e-10
    assert spec.r_window() > 0


def test_fields_combine_only_with_a_field_of_the_same_terms_and_grids():
    r, x = default_r_grid(1.0, 8), np.linspace(-0.5, 0.5, 3)

    def field(keys=((0, (0,)),), r=r, x=x, d=1):
        return CuspField(d=d, r_grid=r, x_grid=x, keys=keys,
                         values=tuple(np.full((r.size, x.size), i + 1.0) for i in range(len(keys))))

    two = field(((0, (0,)), (1, (1,))))
    np.testing.assert_array_equal((two + two).values, [np.full((8, 3), 2.0), np.full((8, 3), 4.0)])
    assert not np.any((two - two).values)
    for other, what in [(1.0, "another CuspField"),
                        (field(((1, (1,)),)), "term structures"),
                        (two, "term structures"),
                        (field(((0, (0, 0)),), d=2), "term structures"),
                        (field(r=r + 0.5), "r-grids"), (field(r=r[1:]), "r-grids"),
                        (field(x=x + 0.1), "x-grids"), (field(x=x[1:]), "x-grids")]:
        for combine in (operator.add, operator.sub):
            with pytest.raises(ValidationError, match=what):
                combine(field(), other)


# ---------------------------------------------------------------------------
# resolvent_line
# ---------------------------------------------------------------------------


def test_line_satisfies_generator_identity():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    U = resolvent_line(op, 5.0, ContourSpec(rho=0.0), f, x_grid=np.linspace(-0.9, 0.6, 301))
    assert U.meta["tail_ok"]
    assert identity_residual(U, op, 5.0, f) < 1e-6


def test_root_free_abscissas_agree():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    U1 = resolvent_line(op, 1.3, ContourSpec(rho=0.2), f, x_grid=XG)
    U2 = resolvent_line(op, 1.3, ContourSpec(rho=0.9), f, x_grid=XG)
    win = np.abs(U1.r_grid) <= 6.0
    rel = np.abs((U2 - U1).values[0][win]).max() / np.abs(
        U1.values[0][win]
    ).max()
    assert rel < 1e-6


def test_output_decay_is_governed_by_nearest_root():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    U = resolvent_line(op, 5.0, ContourSpec(rho=0.0), f, x_grid=XG)
    r = U.r_grid
    vals = U.values[0]
    col = int(np.argmin(np.abs(U.x_grid)))
    sel = (r >= 2.0) & (r <= 3.6)
    slope = np.polyfit(r[sel], np.log(np.abs(vals[sel, col])), 1)[0]
    # nearest root past the contour for this mode sits at -(s + d/2) = -5.5
    assert abs(slope + 5.5) < 0.11
    # and the prefactor matches the residue operator of that root
    B = residue_apply(ResidueOperator(s=5.0, lambda0=-5.5), op, f, x_grid=XG)
    Bf = B.field(r)
    i35 = int(np.argmin(np.abs(r - 3.5)))
    ratio = np.abs(vals[i35] / Bf.values[0][i35] - 1.0).max()
    assert ratio < 2e-2


def test_contour_on_root_raises():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    with pytest.raises(ContourOnRootError):
        resolvent_line(op, 1.3, ContourSpec(rho=-1.8), f, x_grid=XG)


def test_dimension_mismatch_raises():
    op = ModelOperator(d=2)
    f = term(1, 0, (0,), gauss())
    with pytest.raises(ValidationError):
        resolvent_line(op, 5.0, ContourSpec(rho=0.0), f, x_grid=XG)


def test_line_reports_error_estimates():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    U = resolvent_line(op, 5.0, ContourSpec(rho=0.0), f, x_grid=XG)
    assert set(U.meta) == {"contour_tail_rel", "tail_ok", "r_window"}
    assert U.meta["contour_tail_rel"] < 1e-9
    assert U.meta["tail_ok"] is True


def test_linearity_in_f():
    op = ModelOperator(d=1)
    alpha = 0.7 - 0.2j
    a1, a2 = gauss(), gauss(0.5)
    f1 = term(1, 0, (0,), a1)
    f2 = term(1, 0, (0,), a2)
    f12 = term(1, 0, (0,), lambda rr: alpha * a1(rr) + a2(rr))
    spec = ContourSpec(rho=0.0)
    u1 = resolvent_line(op, 5.0, spec, f1, x_grid=XG)
    u2 = resolvent_line(op, 5.0, spec, f2, x_grid=XG)
    u12 = resolvent_line(op, 5.0, spec, f12, x_grid=XG)
    win = np.abs(u1.r_grid) <= 10.0
    diff = (u12.values[0] - (alpha * u1.values[0] + u2.values[0]))[win]
    assert np.abs(diff).max() / np.abs(u12.values[0][win]).max() < 1e-12


def test_linearity_in_poly():
    # a complex profile polynomial keeps the full-node line: dropping the
    # poly condition from the fold would return a real field here
    op = ModelOperator(d=1)
    spec = ContourSpec(rho=0.0)
    u1, ux, uc = (resolvent_line(op, 5.0, spec, term(1, 0, (0,), gauss(), poly), x_grid=XG)
                  for poly in ((1.0,), (0.0, 1.0), (1.0, 0.4j)))
    win = np.abs(u1.r_grid) <= 10.0
    diff = (uc.values[0] - (u1.values[0] + 0.4j * ux.values[0]))[win]
    assert np.abs(diff).max() / np.abs(uc.values[0][win]).max() < 1e-12


@pytest.mark.parametrize("A,s,s_alone", [(0.2j, 1.3, 1.3 - 0.2j), (0.2j, 1.3 + 0.2j, 1.3)])
def test_line_reads_s_and_A_through_s_minus_A(A, s, s_alone):
    # the fold is chosen from s - A, not from s: a complex A at real s keeps
    # the full-node line, and s - A real folds whatever A is
    f = term(1, 0, (0,), gauss())
    spec = ContourSpec(rho=-1.3)
    U = resolvent_line(ModelOperator(d=1, A=A), s, spec, f, x_grid=XG)
    V = resolvent_line(ModelOperator(d=1), s_alone, spec, f, x_grid=XG)
    np.testing.assert_array_equal(U.values[0], V.values[0])
    assert U.values[0].imag.any() == bool(complex(s_alone).imag)


def _two_term(d):
    return CuspFunction(d=d, terms=(
        CuspTerm(m=0, mu=(0,) * d, poly=(1.0,), radial=gauss(0.2)),
        CuspTerm(m=2, mu=(1,) + (0,) * (d - 1), poly=(1.0, 0.3, -0.5), radial=gauss(-0.3))))


@pytest.mark.parametrize("rho", [-0.5, 0.0])
@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2])
def test_folded_line_matches_full_node_line(d, h, rho):
    # s = -1.7 - d/2 puts the level-2 minus root, the first that both the
    # m = 0 and the m = 2 profiles have a pole at, at w = -0.3, between the
    # two abscissas; measured worst 5.1e-15
    op, s = ModelOperator(d=d, h=h), -1.7 - d / 2.0
    spec = ContourSpec(rho=rho)
    U = resolvent_line(op, s, spec, _two_term(d), x_grid=XG)
    values, _ = full_node_line(op, s, spec, _two_term(d), XG)
    win = np.abs(U.r_grid) <= 10.0
    for i, want in enumerate(values):
        got, want = U.values[i], want[line_rows(U)]
        assert not got.imag.any()
        assert np.abs(got - want)[win].max() < 1e-13 * np.abs(want[win]).max()


def test_folded_tail_estimate_matches_full_node_line():
    # at height 20 the truncation tail (3.5e-4) stands far above roundoff,
    # and the eta > 0 half of the tail columns estimates it as both ends do
    op, spec, f = ModelOperator(d=1), ContourSpec(rho=-1.3, height=20.0, panels=24), _two_term(1)
    U = resolvent_line(op, 1.3, spec, f, x_grid=XG)
    _, tail_rel = full_node_line(op, 1.3, spec, f, XG)
    assert U.meta["contour_tail_rel"] == pytest.approx(tail_rel, rel=1e-6)
    assert tail_rel > 1e-4 and U.meta["tail_ok"] is False


@pytest.mark.parametrize("A,s,poly,radial", [
    (0.0, 1.3 + 0.25j, (1.0,), gauss()),
    (0.2j, 1.3, (1.0,), gauss()),
    (0.0, 1.3, (1.0, 0.4j), gauss()),
    (0.0, 1.3, (1.0,), lambda rr: (1.0 - 0.5j) * gauss()(rr)),
], ids=["s", "A", "poly", "radial"])
def test_non_real_line_is_the_full_node_line(A, s, poly, radial):
    op, spec = ModelOperator(d=1, A=A), ContourSpec(rho=-1.3)
    f = term(1, 0, (0,), radial, poly)
    U = resolvent_line(op, s, spec, f, x_grid=XG)
    (want,), tail_rel = full_node_line(op, s, spec, f, XG)
    np.testing.assert_array_equal(U.values[0], want[line_rows(U)])
    assert U.meta["contour_tail_rel"] == tail_rel


@pytest.mark.parametrize("radial,shape", [(lambda rr: 1.0, "()"),
                                          (lambda rr: np.ones(10), "(10,)")])
def test_radial_of_the_wrong_shape_raises(radial, shape):
    op, f = ModelOperator(d=1), term(1, 0, (0,), radial)
    for call in (lambda: resolvent_line(op, 1.3, ContourSpec(rho=-1.3), f, x_grid=XG),
                 lambda: residue_apply(ResidueOperator(s=1.3, lambda0=-1.8), op, f, x_grid=XG)):
        with pytest.raises(ValidationError,
                           match=re.escape(f"shape {shape} on an r-grid of 4096")):
            call()


def _one_nan_sample(rr):
    out = gauss(0.0)(rr)
    out[len(out) // 2] = math.nan
    return out


def test_a_nan_radial_sample_fails_the_line_naming_its_abscissa():
    # one NaN sample makes every cell of the line NaN; the line used to
    # report contour_tail_rel 0.0 and tail_ok True
    op, f = ModelOperator(d=1), term(1, 0, (0,), _one_nan_sample)
    with pytest.raises(ToleranceError, match=r"line at rho=-1\.3 is not finite on 1835 of its rows"):
        resolvent_line(op, 1.3, ContourSpec(rho=-1.3), f, x_grid=XG)


def test_a_nan_radial_sample_gives_a_nan_third_moment():
    op, f = ModelOperator(d=1), term(1, 0, (0,), _one_nan_sample)
    res = residue_apply(ResidueOperator(s=1.3, lambda0=-1.8), op, f, x_grid=XG)
    assert math.isnan(res.third_moment_rel)


def test_a_nan_residue_cell_gives_a_nan_shift_identity_defect(monkeypatch):
    # max(defect, nan) keeps the defect: the NaN must reach the gate
    residue_sum = bc._residue_sum

    def one_nan_cell(*args):
        total = residue_sum(*args)
        total.values[0][len(total.r_grid) // 2, 0] = math.nan
        return total

    monkeypatch.setattr(bc, "_residue_sum", one_nan_cell)
    op, f = ModelOperator(d=1), term(1, 0, (0,), gauss(0.0))
    assert math.isnan(shift_identity(op, 1.3, f, -2.3, -1.3, x_grid=XG).defect)


def test_translation_equivariance_in_r():
    op = ModelOperator(d=1)
    r = default_r_grid()
    k = 34
    r0 = k * (r[1] - r[0])
    spec = ContourSpec(rho=0.0)
    U0 = resolvent_line(op, 5.0, spec, term(1, 0, (0,), gauss()), x_grid=XG)
    Us = resolvent_line(op, 5.0, spec, term(1, 0, (0,), gauss(r0)), x_grid=XG)
    rolled = np.roll(U0.values[0], k, axis=0)
    win = np.abs(U0.r_grid) <= 10.0 - r0
    rel = np.abs((Us.values[0] - rolled)[win]).max() / np.abs(
        Us.values[0][win]
    ).max()
    assert rel < 1e-8


@pytest.mark.parametrize("n", [64, 1000, 1001, 4096, 4097])
def test_r_grid_is_exactly_antisymmetric(n):
    # r_{n-j} = -r_j for 0 < j < n pairs every row but r_0 with its mirror
    r = default_r_grid(30.0, n)
    np.testing.assert_array_equal(r[1:], -r[:0:-1])
    assert r[0] < 0.0 and np.all(np.diff(r) > 0.0)


@pytest.mark.parametrize("span,n", [(30.0, 4096), (30.0, 1024), (25.0, 4096)])
def test_r_grid_is_bitwise_its_offset_form_where_that_is_exact(span, n):
    step = 2.0 * span / n
    np.testing.assert_array_equal(default_r_grid(span, n), -span + step * np.arange(n))


@pytest.mark.parametrize("n_r", [1000, 4096, 4097])
def test_windowed_line_is_the_full_grid_synthesis_bitwise(n_r):
    # the window |r| <= 13.44 ends mid-block of the grid's distinct |r| on
    # each grid; its rows come from the same block products as on the full
    # grid, so they are equal bit for bit (a complex poly keeps every
    # eta-node, as the oracle does)
    op, spec = ModelOperator(d=1), ContourSpec(rho=-1.3)
    f = term(1, 0, (0,), gauss(0.2), (1.0, 0.4j))
    U = resolvent_line(op, 1.3, spec, f, x_grid=XG[::10], n_r=n_r)
    (want,), tail_rel = full_node_line(op, 1.3, spec, f, XG[::10], n_r=n_r)
    rows = line_rows(U, n_r)
    outermost = abs(2 * int(np.flatnonzero(rows)[0]) - n_r) // 2  # its index among the |r|
    assert (outermost + 1) % bc._R_BLOCK != 0
    np.testing.assert_array_equal(U.r_grid, default_r_grid(30.0, n_r)[rows])
    np.testing.assert_array_equal(U.values[0], want[rows])
    assert U.meta["contour_tail_rel"] == tail_rel


def test_window_without_a_grid_row_raises_naming_the_panels():
    # at height 1e6 the 48 panels resolve |r| <= 5.4e-4, and the nearest
    # point of the odd grid sits at |r| = 30/4097
    op, f = ModelOperator(d=1), term(1, 0, (0,), gauss())
    need = math.ceil((30.0 / 4097) * 1e6 / 11.2)
    with pytest.raises(ValidationError, match=f"needs panels >= {need}$"):
        resolvent_line(op, 1.3, ContourSpec(rho=-1.3, height=1e6), f, x_grid=XG, n_r=4097)


# The written rows' error, relative to the largest |reference| in each band
# of |r|, against 4x the panels.  At rho = -0.5 the field for r < -8 is below
# 1e-13 of its max, and the 4x and 8x references differ there by 8.5e-6 of the
# outer band's max (the line: 1.9e-2): the synthesis's e^{rho r} roundoff
# floor, which no window constant lifts short of writing no row past |r| = 10.
@pytest.mark.parametrize("rho,band", [
    (-2.3, "inner"), (-2.3, "outer"), (-0.5, "inner"),
    pytest.param(-0.5, "outer", marks=pytest.mark.xfail(
        strict=True, reason="decaying side below the synthesis roundoff floor"))])
@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_written_rows_match_a_four_times_panel_reference(h, rho, band):
    # the input and grids of cuspflow resolvent, on its three written x-nodes;
    # measured worst 4.8e-10 (outer, rho = -2.3) and 4.7e-14 (inner)
    op, f, xg = ModelOperator(d=1, h=h), term(1, 0, (0,), gauss()), np.linspace(-0.9, 0.6, 3)
    U = resolvent_line(op, 1.3, ContourSpec(rho=rho), f, x_grid=xg)
    ref = resolvent_line(op, 1.3, ContourSpec(rho=rho, panels=192), f, x_grid=xg)
    # the reference's window is the whole grid, unpaired row r = -30 included
    assert ref.r_grid.size == 4096 and ref.r_grid[0] == -30.0
    assert U.r_grid[-1] <= U.meta["r_window"]
    want = ref.values[0][line_rows(U)]
    sel = (np.abs(U.r_grid) < 10.0) == (band == "inner")
    err = np.abs(U.values[0] - want)[sel].max()
    assert err <= 1e-9 * np.abs(want[sel]).max()


# ---------------------------------------------------------------------------
# the separable contour transform against the dense exp(outer(r, w)) kernel
# ---------------------------------------------------------------------------

# Per-entry error of _fhat and _synthesis, relative to the sum of the
# absolute values of the terms, that _R_BLOCK = 64 meets on every grid and
# abscissa below (measured worst: 2.2e-13 for fhat, at n_r = 64, and 5.3e-14
# at n_r = 1000; 7.6e-15 for the synthesis, complex or real).
KERNEL_BOUND = 2e-12


def _line_nodes(n_r, rho, h):
    eta, _, _ = bc._refined_eta_nodes(ModelOperator(d=1, h=h), 1.3, ContourSpec(rho=rho))
    return default_r_grid(30.0, n_r), rho + 1j * eta


def _kernel_errors(n_r, rho):
    """(fhat error, synthesis error, real synthesis error) of the separable
    kernels against dense exponentials, for random inputs, on every 7th
    w-node and on the first block, the last two blocks (the short one
    included), the two blocks around r = 0 and every 5th row."""
    r, wl = _line_nodes(n_r, rho, 1.0)
    rng = np.random.default_rng(n_r)
    a = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
    coeff = rng.standard_normal((wl.size, 3)) + 1j * rng.standard_normal((wl.size, 3))
    table = bc._exp_table(r, wl)
    step = r[1] - r[0]
    sub = np.arange(0, wl.size, 7)
    dense = np.exp(-np.outer(wl[sub], r))
    fh = bc._fhat(a, r, table)
    fh_err = np.abs(fh[sub] - step * dense @ a) / (step * np.abs(dense) @ np.abs(a))
    L = bc._R_BLOCK
    rows = np.unique(np.r_[0:L, max(0, n_r - 2 * L) : n_r,
                           max(0, n_r // 2 - L) : min(n_r, n_r // 2 + L), 0:n_r:5])
    dense = np.exp(np.outer(r[rows], wl))
    want, bound = dense @ coeff, np.abs(dense) @ np.abs(coeff)
    syn, syn_real = (bc._synthesis(r, slice(0, n_r), rho, wl.imag, coeff, real)[rows]
                     for real in (False, True))
    return (float(fh_err.max()), float((np.abs(syn - want) / bound).max()),
            float((np.abs(syn_real - want.real) / bound).max()))


@pytest.mark.parametrize("rho", [-2.3, -1.3, 0.0])
@pytest.mark.parametrize("n_r", [64, 1000, 4096, 4097])
def test_separable_kernels_match_dense(n_r, rho):
    # the w-nodes depend on h only through the root table in w units, so the
    # kernel sees the same nodes at every h; h enters through the profiles
    # (test_separable_line_matches_dense)
    for h in (0.5, 1.0, 2.0):
        np.testing.assert_array_equal(_line_nodes(n_r, rho, h)[1], _line_nodes(n_r, rho, 1.0)[1])
    fh_err, syn_err, real_err = _kernel_errors(n_r, rho)
    assert fh_err < KERNEL_BOUND
    assert syn_err < KERNEL_BOUND
    assert real_err < KERNEL_BOUND


def test_kernel_check_catches_block_anchor_off_by_one(monkeypatch):
    # anchoring block b at r0_{b+1} instead of r0_b must fail the check above
    real = bc._exp_table

    def shifted(r, wl):
        L = bc._R_BLOCK
        return real(r, wl)[0], np.exp(np.outer(r[::L] + L * (r[1] - r[0]), wl))

    monkeypatch.setattr(bc, "_exp_table", shifted)
    fh_err, syn_err, real_err = _kernel_errors(1000, -1.3)
    assert fh_err > 1e6 * KERNEL_BOUND
    assert syn_err > 1e6 * KERNEL_BOUND
    assert real_err > 1e6 * KERNEL_BOUND


@pytest.fixture
def dense_kernels(monkeypatch):
    """Swap the separable table for dense exponentials inside resolvent_line
    and residue_apply: the "table" carries the w-nodes as a 1 x n_w row."""

    def table(r, wl):
        return (wl[None, :],)

    def fhat(a, r, tab):
        return (r[1] - r[0]) * (np.exp(-np.outer(tab[0][0], r)) @ a)

    def synthesis(r, rows, rho, eta, coeff, real):
        out = np.exp(np.outer(r[rows], rho + 1j * eta)) @ coeff
        return out.real if real else out

    monkeypatch.setattr(bc, "_exp_table", table)
    monkeypatch.setattr(bc, "_fhat", fhat)
    monkeypatch.setattr(bc, "_synthesis", synthesis)


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_separable_line_matches_dense(h, request):
    op = ModelOperator(d=1, h=h)
    f = term(1, 0, (0,), gauss(0.2))
    xg = np.linspace(-0.9, 0.6, 3)
    sep = resolvent_line(op, 1.3, ContourSpec(rho=-1.3), f, x_grid=xg)
    request.getfixturevalue("dense_kernels")
    dense = resolvent_line(op, 1.3, ContourSpec(rho=-1.3), f, x_grid=xg)
    # towards r = -13 either kernel's e^{rho r} roundoff floor reaches 1e-9 of
    # the field (the mpmath test below), so the two agree to roundoff only
    # where that floor is low; measured 6.2e-12 inside |r| <= 8
    win = np.abs(dense.r_grid) <= 8.0
    scale = np.abs(dense.values[0][win]).max()
    assert np.abs((sep - dense).values[0][win]).max() / scale < 5e-11
    assert sep.meta["tail_ok"] == dense.meta["tail_ok"]


@pytest.mark.parametrize("s,w0,psi", [(1.3, -1.8, None), (-1.5, 1.0, (1.0,))])
def test_separable_residue_circle_matches_dense(s, w0, psi, request):
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    res_op = ResidueOperator(s=s, lambda0=w0)
    sep = residue_channel(res_op, op, f, psi)
    request.getfixturevalue("dense_kernels")
    dense = residue_channel(res_op, op, f, psi)
    scale = residue_max_abs(*dense)
    for a, b in zip(sep, dense):
        assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-12 * scale


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n_r", [64, 1000, 4096, 4097])
def test_separable_synthesis_error_matches_dense_against_mpmath(n_r, real):
    # the synthesis of one resolvent line at rows across the window, against
    # a 40-digit sum of the same float nodes and coefficients; errors are
    # relative to the window maximum and compared as the worst over the rows.
    # Real output is the folded line's: the eta > 0 nodes, doubled weights
    mpmath = pytest.importorskip("mpmath")
    op = ModelOperator(d=1)
    contour = ContourSpec(rho=-1.3)
    eta, wq, _ = bc._refined_eta_nodes(op, 1.3, contour)
    if real:
        eta, wq = eta[eta > 0.0], 2.0 * wq[eta > 0.0]
    r, wl = default_r_grid(30.0, n_r), contour.rho + 1j * eta
    xg = np.linspace(-0.9, 0.6, 2)
    a = np.asarray(gauss(0.2)(r), complex)
    coeff = (wq * bc._fhat(a, r, bc._exp_table(r, wl)))[:, None] * bc._solve_mode_profiles(
        op, 1.3, 0, (1.0,), op.h * wl, xg
    )
    sep = bc._synthesis(r, slice(0, n_r), contour.rho, eta, coeff, real)
    scale = np.abs(sep[np.abs(r) <= contour.r_window()]).max()
    rows = [int(np.argmin(np.abs(r - x))) for x in (-13.0, -11.0, -8.0, 0.0, 8.0, 13.0)]
    dense = np.exp(np.outer(r[rows], wl)) @ coeff
    exact = np.empty_like(dense)
    with mpmath.workdps(40):
        ws = [mpmath.mpc(w) for w in wl]
        for i, j in enumerate(rows):
            ex = [mpmath.exp(mpmath.mpf(r[j]) * w) for w in ws]
            for c in range(xg.size):
                exact[i, c] = complex(mpmath.fsum(e * mpmath.mpc(q) for e, q in zip(ex, coeff[:, c])))
    if real:
        dense, exact = dense.real, exact.real
    err_sep = np.abs(sep[rows] - exact).max() / scale
    err_dense = np.abs(dense - exact).max() / scale
    assert err_sep <= 4.0 * err_dense


# ---------------------------------------------------------------------------
# residue_apply
# ---------------------------------------------------------------------------


def test_empty_enclosure_gives_zero():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    U = resolvent_line(op, 1.3, ContourSpec(rho=0.2), f, x_grid=XG)
    res = residue_apply(ResidueOperator(s=1.3, lambda0=-2.5 + 0.3j), op, f, x_grid=XG)
    assert residue_max_abs(res.H0, res.H1) < 1e-10 * np.abs(U.values[0]).max()


def test_rank_matches_multiplicity():
    # minus-branch root at level n=1 in d=2 has multiplicity 2: one rank per
    # angular channel, two channels in total
    op = ModelOperator(d=2)
    s, w0 = 1.3, -(1.3 + 1.0 + 1.0)
    u_probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8])]
    cols = []
    for mu in [(1, 0), (0, 1)]:
        for r0 in (-0.4, 0.3, 0.9):
            f = term(2, 1, mu, gauss(r0))
            res = residue_apply(ResidueOperator(s=s, lambda0=w0), op, f, x_grid=XG)
            rf = res.field(np.linspace(-3, 3, 24))
            cols.append(
                np.concatenate([rf.scalar_values(u).ravel() for u in u_probes])
            )
    M = np.stack(cols, axis=1)
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[1] / sv[0] > 1e-6  # genuinely rank 2 across channels
    assert sv[2] / sv[0] < 1e-8  # and no more
    blk1 = np.linalg.svd(M[:, :3], compute_uv=False)
    blk2 = np.linalg.svd(M[:, 3:], compute_uv=False)
    assert blk1[1] / blk1[0] < 1e-8
    assert blk2[1] / blk2[0] < 1e-8


@pytest.mark.parametrize("d", [1, 2])
def test_one_root_strip_shift_identity(d):
    op = ModelOperator(d=d)
    s = 1.3
    base = s + d / 2.0
    f = term(d, 0, tuple([0] * d), gauss())
    Ua = resolvent_line(op, s, ContourSpec(rho=-(base + 0.5)), f, x_grid=XG)
    Ub = resolvent_line(op, s, ContourSpec(rho=-(base - 0.5)), f, x_grid=XG)
    res = residue_apply(ResidueOperator(s=s, lambda0=-base), op, f, x_grid=XG)
    diff = Ub - Ua - res.field(Ua.r_grid)
    win = np.abs(Ua.r_grid) <= 10.0
    num = np.abs(diff.values[0][win]).max()
    den = max(
        np.abs(Ub.values[0][win]).max(),
        np.abs(res.field(Ua.r_grid).values[0][win]).max(),
    )
    assert num / den < 1e-6


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_roots", [2, 3])
def test_multi_root_strip_sum_rule(d, n_roots):
    op = ModelOperator(d=d)
    s = 1.3
    base = s + d / 2.0
    mu0 = tuple([0] * d)
    mu1 = tuple([1] + [0] * (d - 1))
    f = CuspFunction(
        d=d,
        terms=(
            CuspTerm(m=0, mu=mu0, poly=(1.0,), radial=gauss()),
            CuspTerm(m=1, mu=mu1, poly=(0.8,), radial=gauss(0.3)),
        ),
    )
    Ua = resolvent_line(
        op, s, ContourSpec(rho=-(base + 0.5 + (n_roots - 1))), f, x_grid=XG
    )
    Ub = resolvent_line(op, s, ContourSpec(rho=-(base - 0.5)), f, x_grid=XG)
    total = Ub - Ua
    for k in range(n_roots):
        res = residue_apply(ResidueOperator(s=s, lambda0=-(base + k)), op, f, x_grid=XG)
        total = total - res.field(Ua.r_grid)
    win = np.abs(Ua.r_grid) <= 6.0
    for i in range(2):
        num = np.abs(total.values[i][win]).max()
        den = max(
            np.abs(Ub.values[i][win]).max(),
            np.abs(Ua.values[i][win]).max(),
        )
        assert num / den < 1e-6


def test_invalid_enclosure_raises():
    # -2.3 sits midway between the roots -1.8 and -2.8; a circle of radius
    # 0.6 violates the 2-eps separation requirement
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    with pytest.raises(InvalidEnclosureError):
        residue_apply(ResidueOperator(s=1.3, lambda0=-2.3, eps=0.6), op, f, x_grid=XG)


def test_simple_pole_structure():
    op = ModelOperator(d=2)
    f = term(2, 1, (1, 0), gauss())
    res = residue_apply(
        ResidueOperator(s=1.3, lambda0=-(1.3 + 2.0)), op, f, x_grid=XG
    )
    assert res.third_moment_rel < 1e-10
    h0 = max(np.abs(v).max() for v in res.H0)
    h1 = max(np.abs(v).max() for v in res.H1)
    assert h1 < 1e-8 * h0


# ---------------------------------------------------------------------------
# Jordan crossings
# ---------------------------------------------------------------------------


def test_jordan_r_term_appears_exactly_at_crossing():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    # s0 = -3/2: the level-0 minus root meets the level-2 plus root at w = 1
    at_h0, at_h1 = residue_pairing(ResidueOperator(s=-1.5, lambda0=1.0), op, f, (1.0,))
    assert abs(at_h1[0]) > 1e-3 * abs(at_h0[0])
    away_h0, away_h1 = residue_pairing(ResidueOperator(s=-1.3, lambda0=0.8), op, f, (1.0,))
    assert abs(away_h1[0]) < 1e-8 * abs(away_h0[0])


def test_plus_root_residue_concentrates_at_north_pole():
    # pointwise the plus-root residue vanishes; the paired channel sees it
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    res_op = ResidueOperator(s=-1.3, lambda0=-0.8)
    paired_h0, _ = residue_channel(res_op, op, f, (1.0,))
    assert abs(paired_h0[0]) > 1e-12
    assert residue_max_abs(*residue_channel(res_op, op, f, None)) < 1e-9 * abs(paired_h0[0])


@pytest.mark.parametrize("d,h,m,s,poly,q_poly,w0,gamma_band", [
    (1, 1.0, 0, 0.4 - 0.1j, (0.7, -0.3), (1.0, 0.5), 0.3 + 0.4j, (-1.0, -0.5)),
    (1, 1.0, 1, -1.1 + 0.3j, (1.0, 0.2, -0.4), (0.6, -0.8), 2.0 + 0.5j, (-3.0, -1.0)),
    (2, 0.5, 0, -1.943 - 0.724j, (1.3921,), (-0.081, -0.642), 7.740 - 1.989j,
     (-6.0, -5.0)),
], ids=["tempered", "continued", "far"])
def test_paired_mode_values_match_mpmath(d, h, m, s, poly, q_poly, w0, gamma_band):
    # gamma_band brackets Re(a+ + beta): the north moment needs no
    # continuation (tempered), continuation past one pole, or past five (far)
    op = ModelOperator(d=d, h=h)
    theta = 2.0 * math.pi * (np.arange(bc._CIRCLE_NODES) + 0.37) / bc._CIRCLE_NODES
    lams = h * (w0 + 0.05 * np.exp(1j * theta))
    _, _, a_p, a_m = mode_exponents(op, s, m, lams)
    gamma = a_p.real + m + d / 2.0 - 1.0
    assert np.all(a_m.real < 0.0) and np.all(a_p.real < 0.0)
    assert gamma_band[0] < gamma.min() and gamma.max() < gamma_band[1]
    got = bc._paired_mode_values(op, s, m, poly, lams, q_poly)
    for i in (0, 12):
        ref = paired_mode_reference(op, s, m, poly, lams[i], q_poly)
        assert abs(got[i] - ref) <= 1e-12 * abs(ref)


# s = 1.005, lambda = -1.495 puts a+ = 1 exactly, 0.01 from the level-0 minus
# root at w = -1.505: a pole of the north particular series, not of F
RESONANCE = (1.005, -1.495)


def test_paired_channel_matches_the_oracle_on_a_resonance():
    # the reference's K and north moment each have the pole; 1e-20 off it, at
    # 50 digits, they cancel to 30
    op, (s, lam) = ModelOperator(d=1), RESONANCE
    assert mode_exponents(op, s, 0, lam)[2] == 1.0
    got = bc._paired_mode_values(op, s, 0, (1.0, -0.4), np.array([lam]), (1.0, 0.5))[0]
    ref = paired_mode_reference(op, s, 0, (1.0, -0.4), lam + 1e-20j, (1.0, 0.5), dps=50)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("psi", [None, (1.0,)], ids=["pointwise", "paired"])
def test_residue_circle_with_a_node_on_a_resonance_is_the_rotated_circle(psi):
    # centre the circle so that its first node sits on the resonance; the
    # same circle with nodes at offset 0.11, built by hand, has none there
    op, (s, lam) = ModelOperator(d=1), RESONANCE
    eps = 1e-2
    first = 2.0 * math.pi * 0.37 / bc._CIRCLE_NODES
    res_op = ResidueOperator(s=s, lambda0=lam - eps * np.exp(1j * first), eps=eps)
    assert abs(mode_exponents(op, s, 0, res_op.lambda0 + eps * np.exp(1j * first))[2] - 1) < 1e-15
    out_h0, out_h1 = residue_channel(res_op, op, term(1, 0, (0,), gauss()), psi)
    theta = 2.0 * math.pi * (np.arange(bc._CIRCLE_NODES) + 0.11) / bc._CIRCLE_NODES
    r = default_r_grid()
    wl = res_op.lambda0 + eps * np.exp(1j * theta)
    if psi is None:
        vals = bc._solve_mode_profiles(op, s, 0, (1.0,), wl, XG)
    else:
        vals = bc._paired_mode_values(op, s, 0, (1.0,), wl, psi)[:, None]
    g = vals * bc._fhat(gauss()(r).astype(complex), r, bc._exp_table(r, wl))[:, None]
    h0, h1 = (eps**k * np.mean(np.exp(1j * k * theta)[:, None] * g, axis=0) for k in (1, 2))
    scale = np.abs(h0).max()
    assert np.abs(out_h0[0] - h0).max() <= 1e-12 * scale
    assert np.abs(out_h1[0] - h1).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# continue_resolvent
# ---------------------------------------------------------------------------


def test_continuation_equals_line_on_invertible_halfplane():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    Ur = continue_resolvent(op, 5.0, f, x_grid=XG)
    Ul = resolvent_line(op, 5.0, ContourSpec(rho=0.0), f, x_grid=XG)
    assert Ur.meta["branch"] == "regular"
    assert Ur.meta["corrections"] == 0
    win = np.abs(Ur.r_grid) <= 10.0
    rel = np.abs((Ur - Ul).values[0][win]).max() / np.abs(
        Ul.values[0][win]
    ).max()
    assert rel < 1e-8


def test_continued_resolvent_satisfies_identity():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    s = -1.0 + 0.3j
    U = continue_resolvent(op, s, f, x_grid=np.linspace(-0.9, 0.6, 301))
    assert U.meta["branch"] == "regular"
    assert U.meta["corrections"] == 2  # one visible root per branch
    assert identity_residual(U, op, s, f) < 1e-5


@pytest.mark.parametrize("centre,radius,n", [(-0.5 + 0.5j, 0.3, 48), (-1.5 + 0.4j, 0.35, 32)])
def test_continued_resolvent_has_the_mean_value_property(centre, radius, n):
    # holomorphy in s across the places where the bookkeeping changes: each
    # circle passes through patched and regular points with different numbers
    # of corrections.  On 1024 r-nodes and 5 x-nodes; the default grid with
    # 31 x-nodes gave 3.1e-15 and 8.5e-15
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    grid = dict(x_grid=np.linspace(-0.9, 0.6, 5), n_r=1024)
    at_centre = continue_resolvent(op, centre, f, **grid)
    mean, seen = 0.0, set()
    for k in range(n):
        U = continue_resolvent(op, centre + radius * np.exp(2j * math.pi * k / n), f, **grid)
        mean = mean + U.values[0] / n
        seen.add((U.meta["branch"], U.meta["corrections"]))
    assert len(seen) == 3
    win = np.abs(at_centre.r_grid) <= 10.0
    ref = at_centre.values[0][win]
    assert np.abs(mean[win] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_patching_expressions_agree():
    # the axis carries the roots +-0.3i, so continue_resolvent patches from the
    # strip's lower edge; the expression from the upper edge differs from it by
    # the shift-identity defect across the strip
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    s = -0.5 + 0.3j
    U = continue_resolvent(op, s, f, x_grid=XG)
    assert U.meta["branch"] == "patched"
    rho = U.meta["abscissa"]
    shift = shift_identity(op, s, f, rho, -rho, x_grid=XG)
    crossed = sorted((loc.value for loc in shift.crossed), key=lambda w: w.imag)
    assert crossed == pytest.approx([-0.3j, 0.3j], abs=1e-14)
    assert shift.defect < 1e-6


# ---------------------------------------------------------------------------
# shift_identity
# ---------------------------------------------------------------------------


def test_shift_identity_transforms_each_abscissa_once():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    shift = shift_identity(op, 1.3, f, -2.3, -1.3, x_grid=XG, n_r=1024)
    for rho, got in ((-2.3, shift.lo), (-1.3, shift.hi)):
        line = resolvent_line(op, 1.3, ContourSpec(rho=rho), f, x_grid=XG, n_r=1024)
        assert np.array_equal(got.values[0], line.values[0])
    assert [loc.value for loc in shift.crossed] == [-1.8]
    assert np.abs(shift.residues.values[0]).max() > 1e-3
    assert shift.defect < 1e-9
    same = shift_identity(op, 1.3, f, -2.3, -2.3, x_grid=XG, n_r=1024)
    assert same.hi is same.lo and same.crossed == () and same.defect == 0.0
    with pytest.raises(ValidationError):
        shift_identity(op, 1.3, f, -1.3, -2.3, x_grid=XG, n_r=1024)


# s = s0 - gap/2 puts two crossed roots gap apart around w0: at s0 = -1 the
# plus root of level 1 and the minus root of level 0 (semisimple) meet at
# w0 = 1/2, at s0 = -3/2 the plus root of level 2 and the minus root of level 0
# (a Jordan pair) at w0 = 1, and the level-1 pair, whose residues vanish on
# this even input, at w0 = 0; gaps on either side of _CLUSTER_GAP = 2e-6
@pytest.mark.parametrize("s0,w0", [(-1.0, 0.5), (-1.5, 1.0), (-1.5, 0.0)])
@pytest.mark.parametrize("gap", [1e-9, 1.9e-6, 2.1e-6, 1e-5, 4e-5])
def test_shift_identity_holds_across_close_roots(s0, w0, gap):
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    shift = shift_identity(op, s0 - gap / 2.0, f, w0 - 0.3, w0 + 0.3, x_grid=XG, n_r=1024)
    crossed = [loc.value for loc in shift.crossed]
    assert crossed == pytest.approx([w0 - gap / 2.0, w0 + gap / 2.0], abs=1e-12)
    assert shift.defect < 1e-9


@pytest.mark.parametrize("gap", [7e-10, 9e-10, 1e-9])
def test_vanishing_cluster_residue_drops_no_third_moment(gap):
    # the level-1 pair at w = 0 has no residue on this even input, so its circle
    # moments are roundoff; m2 read up to 2.0e-8 of the floored scale (a field
    # error of 1.0e-6 at |r| = 10, which raised at gap 9e-10) until it was
    # floored at 1e-12 of eps^3 max |g| like m0 and m1 at eps max |g|
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    res = residue_apply(ResidueOperator(s=-1.5 - gap / 2.0, lambda0=0.0), op, f, x_grid=XG,
                        n_r=1024)
    assert res.third_moment_rel == 0.0
    shift = shift_identity(op, -1.5 - gap / 2.0, f, -0.3, 0.3, x_grid=XG, n_r=1024)
    assert len(shift.crossed) == 2 and shift.defect < 1e-9


def test_cluster_circle_raises_naming_both_roots_past_its_tolerance(monkeypatch):
    # one circle around roots 1e-2 apart drops a third moment of (1e-2 / 2)^2
    # relative, a field error 50 times that at |r| = 10, over the 1e-6
    # accepted; 1e-4 apart it drops 2.5e-9, a field error of 1.25e-7
    monkeypatch.setattr(bc, "_CLUSTER_GAP", 0.05)
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    with pytest.raises(ToleranceError) as exc:
        shift_identity(op, -1.005, f, 0.2, 0.8, x_grid=XG, n_r=1024)
    assert "w=0.495+0j and w=0.505-0j, 1.000e-02 apart" in str(exc.value)
    shift = shift_identity(op, -1.00005, f, 0.2, 0.8, x_grid=XG, n_r=1024)
    assert len(shift.crossed) == 2


def test_cluster_check_weighs_the_dropped_moment_by_the_defect_window(monkeypatch):
    # roots 1e-3 apart drop a third moment of only 2.5e-7 relative, but the
    # field error it stands for is r^2/2 = 50 times that at the edge |r| = 10
    # of the defect window, and the shift identity's defect is that large
    monkeypatch.setattr(bc, "_CLUSTER_GAP", 0.05)
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    with pytest.raises(ToleranceError) as exc:
        shift_identity(op, -1.0005, f, 0.2, 0.8, x_grid=XG, n_r=1024)
    assert "a field error of 1.250e-05 at |r| = 10" in str(exc.value)
    monkeypatch.setattr(bc, "_CLUSTER_TOL", math.inf)
    shift = shift_identity(op, -1.0005, f, 0.2, 0.8, x_grid=XG, n_r=1024)
    assert shift.defect == pytest.approx(1.25e-5, rel=0.05)


def test_crossing_raises_pole_error_with_datum():
    op = ModelOperator(d=1)
    f = term(1, 0, (0,), gauss())
    with pytest.raises(PoleError) as exc:
        continue_resolvent(op, -1.5, f, x_grid=XG)
    assert exc.value.j == 2
    assert exc.value.k == 0


# ---------------------------------------------------------------------------
# visible roots and the visibility radius
# ---------------------------------------------------------------------------


def test_visible_root_halfplane_conditions():
    op = ModelOperator(d=1)
    vis = RootTable(op, -2.2 + 0.4j)
    positive_visible = tuple(vis.value(+1, n) for n in vis.visible())
    negative_visible = tuple(vis.value(-1, n) for n in vis.visible())
    assert len(positive_visible) == len(negative_visible) == 2
    for w in positive_visible:
        assert w.real < 0
    for w in negative_visible:
        assert w.real > 0
    # on the invertible half-plane nothing is visible
    empty = RootTable(op, 5.0)
    assert tuple(empty.value(+1, n) for n in empty.visible()) == ()
    assert tuple(empty.value(-1, n) for n in empty.visible()) == ()


def test_rho_max_closed_form_examples():
    assert rho_max_prime(ModelOperator(d=2), 0.0) == 0.0
    assert abs(rho_max_prime(ModelOperator(d=1), -3.0) - 2.5) < 1e-12


def test_rho_max_prime_matches_enumeration():
    for A in (0.0, 0.7):
        for d in (1, 2):
            op = ModelOperator(d=d, A=A)
            for tau in np.linspace(-4, 3, 13):
                brute = max(
                    rho_max(op, complex(tt, 0.17))
                    for tt in np.linspace(tau, tau + 6, 241)
                )
                assert abs(brute - rho_max_prime(op, tau)) < 1e-9


def test_mode_cap_enforced():
    with pytest.raises(ValidationError):
        term(1, 9, (9,), gauss())
