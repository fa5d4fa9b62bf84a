"""Residual verification lab: 2D family, fixture, swirl identity, 3D family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from swirlgas import (
    CollapsedState,
    ThreeAxisParams,
    GenericRotationField,
    Grid3Spec,
    GridSpec,
    GridTouchesSupportBoundary,
    IntegrationConfig,
    InvalidParams,
    LadderTooShort,
    NonPositiveTime,
    SolutionParams,
    TrajectoryTooShort,
    euler_residual_2d,
    euler_residual_3d,
    integrate,
    integrate_scales_3d,
    mass_residual_generic_g,
    profile_f,
    residual_convergence,
    zhang_zheng_embedding,
    zz_direct_residual,
)
from swirlgas.cli import PRESETS
from swirlgas.fields import eval_flow_arrays
from swirlgas.residuals import _order3, eval_flow_3d_arrays
from swirlgas import _rk, residuals

GENERIC = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)


@pytest.fixture(scope="module")
def generic_traj():
    return integrate(GENERIC, IntegrationConfig(t_end=1.0))


def grid_2d(h, h_t=None, r_hi=2.0):
    return GridSpec(kind="annulus", r_lo=0.3, r_hi=r_hi, n_r=16, n_theta=24,
                    h=h, h_t=h / 2 if h_t is None else h_t)


# ----------------------------------------------------------- 2D family

def test_generic_family_residual_small(generic_traj):
    rep = euler_residual_2d(GENERIC, generic_traj, 0.5, grid_2d(1e-3))
    assert rep.max_normalized <= 1e-6
    assert set(rep.equations) == {"mass", "momentum-x", "momentum-y"}


def test_generic_family_residual_second_order(generic_traj):
    r1 = euler_residual_2d(GENERIC, generic_traj, 0.5, grid_2d(1e-3)).max_normalized
    r2 = euler_residual_2d(GENERIC, generic_traj, 0.5, grid_2d(5e-4)).max_normalized
    assert 3.0 <= r1 / r2 <= 5.0


def test_uniform_static_residual_is_zero():
    p = SolutionParams(gamma=1.4, K=1, xi=0.0, lam=0.0, alpha=1, a0=1, a1=0)
    traj = integrate(p, IntegrationConfig(t_end=1.0))
    grid = GridSpec(kind="annulus", r_lo=0.05, r_hi=1.4, n_r=8, n_theta=8, h=1e-3, h_t=5e-4)
    rep = euler_residual_2d(p, traj, 0.5, grid)
    assert rep.max_normalized == 0.0


def test_fixture_member_residual_small():
    p = zhang_zheng_embedding(1.0)
    traj = integrate(p, IntegrationConfig(t_end=0.4))
    rep = euler_residual_2d(p, traj, 0.2, grid_2d(1e-3))
    assert rep.max_normalized <= 1e-6


def test_residual_guards(generic_traj):
    with pytest.raises(TrajectoryTooShort):
        euler_residual_2d(GENERIC, generic_traj, 0.9999, grid_2d(1e-3, h_t=1e-3))
    wide = GridSpec(kind="annulus", r_lo=0.3, r_hi=3.6, n_r=8, n_theta=8, h=1e-3, h_t=5e-4)
    with pytest.raises(GridTouchesSupportBoundary):
        euler_residual_2d(GENERIC, generic_traj, 0.5, wide)


# ----------------------------------------------------------- fixture direct path

def test_fixture_direct_residual():
    grid = GridSpec(kind="annulus", r_lo=0.1, r_hi=2.0, n_r=20, n_theta=24, h=5e-4)
    rep = zz_direct_residual(1.0, 1.0, grid)
    assert rep.max_normalized <= 1e-7
    rep2 = zz_direct_residual(2.0, 1.0, grid)
    assert rep2.max_normalized <= 1e-7


def test_fixture_direct_residual_second_order():
    g1 = GridSpec(kind="annulus", r_lo=0.1, r_hi=2.0, n_r=20, n_theta=24, h=1e-3)
    g2 = GridSpec(kind="annulus", r_lo=0.1, r_hi=2.0, n_r=20, n_theta=24, h=5e-4)
    r1 = zz_direct_residual(1.0, 1.0, g1).max_normalized
    r2 = zz_direct_residual(1.0, 1.0, g2).max_normalized
    assert 3.0 <= r1 / r2 <= 5.0


def test_fixture_direct_rejects_origin_grid():
    with pytest.raises(ValueError):
        zz_direct_residual(1.0, 1.0, GridSpec(kind="annulus", r_lo=1e-4, r_hi=1.0, h=1e-3))


def test_mirrored_fixture_variant_is_not_a_solution():
    # Negating the swirl of the fixture breaks the equations at O(1): the
    # residual no longer vanishes.  This pins the sign convention.
    t, K, h = 1.0, 1.0, 1e-4
    grid = GridSpec(kind="annulus", r_lo=0.5, r_hi=1.5, n_r=10, n_theta=16, h=h)
    x, y = grid.points()

    def mirrored(xs, ys):
        rho = (xs ** 2 + ys ** 2) / (8 * K * t * t)
        return rho, (xs + ys) / (2 * t), (xs - ys) / (2 * t)

    rho, u1, u2 = mirrored(x, y)
    rx_p = mirrored(x + h, y)
    rx_m = mirrored(x - h, y)
    ry_p = mirrored(x, y + h)
    ry_m = mirrored(x, y - h)
    mass = (-2 * rho / t
            + (rx_p[0] * rx_p[1] - rx_m[0] * rx_m[1]) / (2 * h)
            + (ry_p[0] * ry_p[2] - ry_m[0] * ry_m[2]) / (2 * h))
    scale = np.max(np.abs(2 * rho / t))
    assert np.max(np.abs(mass)) / scale > 1e-2


# ----------------------------------------------------------- generic swirl mass identity

def annulus_for_mass(h):
    return GridSpec(kind="annulus", r_lo=0.3, r_hi=2.0, n_r=16, n_theta=24, h=h, h_t=1e-4)


def test_mass_identity_no_swirl():
    spec = GenericRotationField(f=lambda eta: np.exp(-eta ** 2),
                                G=lambda t, r: np.zeros_like(r),
                                a=lambda t: 1.0 + t, adot=lambda t: 1.0)
    assert mass_residual_generic_g(spec, 0.5, annulus_for_mass(1e-3)) <= 1e-7


def test_mass_identity_weird_swirl():
    spec = GenericRotationField(f=lambda eta: np.exp(-eta ** 2),
                                G=lambda t, r: (1 + t) * r ** 2 * np.sin(r),
                                a=lambda t: 1.0 + t, adot=lambda t: 1.0)
    assert mass_residual_generic_g(spec, 0.5, annulus_for_mass(1e-3)) <= 1e-7


def test_mass_identity_random_polynomial_sweep():
    rng = np.random.default_rng(7)
    values = []
    for _ in range(5):
        coef = rng.uniform(-1, 1, 5)
        spec = GenericRotationField(
            f=lambda eta: np.exp(-eta ** 2),
            G=lambda t, r, c=coef: c[0] + c[1] * r + c[2] * r ** 2 + c[3] * r ** 3 + c[4] * r ** 4,
            a=lambda t: 1.0 + 0.5 * t, adot=lambda t: 0.5)
        values.append(mass_residual_generic_g(spec, 0.5, annulus_for_mass(1e-3)))
    assert max(values) <= 1e-6
    # The bound must not depend on the swirl profile.  Some spread is
    # inherent because the normalization scale carries the swirl flux
    # itself; a factor 4 keeps the check meaningful (measured spread ~2.2x).
    assert max(values) <= 4.0 * max(min(values), 1e-12)


def test_generic_swirl_mass_matches_family_mass(generic_traj):
    # The family member written as a generic-swirl field: two independent
    # code paths for the same mass residual.
    a = lambda t: generic_traj.state_at(t).a
    spec = GenericRotationField(f=lambda eta: profile_f(eta ** 2, GENERIC),
                                G=lambda t, r: GENERIC.xi * r / a(t) ** 2,
                                a=a, adot=lambda t: generic_traj.state_at(t).adot)
    grid = grid_2d(1e-3)
    family = euler_residual_2d(GENERIC, generic_traj, 0.5, grid).equations["mass"]["max"]
    generic = mass_residual_generic_g(spec, 0.5, grid)
    assert abs(generic - family) <= 1e-4 * family


# ----------------------------------------------------------- viscous term

def _viscous(traj, grid, mu, params=GENERIC):
    return euler_residual_2d(params, traj, 0.5, grid, mu=mu).viscous_term_normalized


def test_viscous_term_vanishes_on_family(generic_traj):
    for mu in (1.0, 3.7):
        assert _viscous(generic_traj, grid_2d(1e-3), mu) <= 1e-10


def test_viscous_term_scales_linearly(generic_traj):
    # A power-of-two factor scales every float exactly, so the normalized
    # value must be exactly 4 times the mu = 1 value.
    one = _viscous(generic_traj, grid_2d(1e-3), 1.0)
    four = _viscous(generic_traj, grid_2d(1e-3), 4.0)
    assert one > 0.0
    assert four == 4.0 * one


def _reference_viscous_norm(params, state, x, y, mu, h):
    """max |mu Lap(u)| of the family velocity by the 5-point stencil, apart
    from _balance, over the velocity-gradient scale / h."""

    def vel(xs, ys):
        return eval_flow_arrays(params, state, xs, ys)[1:3]

    centre = vel(x, y)
    around = [vel(x + h, y), vel(x - h, y), vel(x, y + h), vel(x, y - h)]
    laps = [(sum(v[i] for v in around) - 4.0 * centre[i]) / (h * h) for i in (0, 1)]
    grad_scale = abs(state.adot / state.a) + abs(params.xi) / state.a ** 2
    peak = max(np.max(np.abs(mu * lap)) for lap in laps)
    return float(peak / (max(grad_scale, 1e-300) / h))


@pytest.mark.parametrize("preset, h", [("generic-smooth", 1e-3), ("generic-smooth", 1e-2),
                                       ("periodic-demo", 1e-3), ("gamma3-critical", 1e-3),
                                       ("zhang-zheng", 1e-3)])
def test_viscous_term_is_the_reference_laplacian(preset, h):
    # The balance pass's viscous column, read as the report's peak, is the
    # separately evaluated 5-point Laplacian bit for bit.
    params = SolutionParams(**PRESETS[preset])
    traj = integrate(params, IntegrationConfig(t_end=1.0))
    grid = grid_2d(h, h_t=5e-4)
    x, y = grid.points()
    for mu in (1e-7, 0.1, 1.0, 3.7):
        expected = _reference_viscous_norm(params, traj.state_at(0.5), x, y, mu, h)
        assert _viscous(traj, grid, mu, params) == expected, mu


def test_laplacian_oracle_quadratic_field():
    # u = (x^2, 0) has Laplacian (2, 0), so the balance's viscous column is -2 mu.
    X = tuple(g.ravel() for g in np.meshgrid(np.linspace(-1, 1, 11), np.linspace(-1, 1, 11)))

    def field(X):
        x = X[0]
        return np.ones_like(x), (x ** 2, np.zeros_like(x)), np.ones_like(x)

    for mu in (1.0, 3.7):
        _, viscous = residuals._balance(field, X, 1e-3, 4, lambda rho, U: (0.0 * rho, 0.0 * U),
                                        mu=mu)
        assert abs(viscous - 2.0 * mu) <= 1e-6


def test_euler_vs_viscous_momentum_residuals(generic_traj):
    # The family velocity is affine, so adding mu * Laplacian(u) changes the
    # momentum residuals only at rounding level.  h large enough to keep the
    # second-difference rounding noise under the bound.
    grid = grid_2d(1e-2, h_t=5e-4)
    base = euler_residual_2d(GENERIC, generic_traj, 0.5, grid)
    for mu in (1.0, 3.7, 10.0):
        ns = euler_residual_2d(GENERIC, generic_traj, 0.5, grid, mu=mu)
        for eq in ("momentum-x", "momentum-y"):
            assert abs(ns.equations[eq]["max"] - base.equations[eq]["max"]) <= 1e-10


# ----------------------------------------------------------- 3D scales

def test_3d_isotropic_symmetry():
    c3 = ThreeAxisParams(gamma=5 / 3, K=1.0, xi3=1.0, alpha3=1.0)
    sc = integrate_scales_3d(c3, 1.5)
    assert np.max(np.abs(sc.a[:, 0] - sc.a[:, 1])) <= 1e-10
    assert np.max(np.abs(sc.a[:, 0] - sc.a[:, 2])) <= 1e-10


def test_3d_isotropic_matches_scalar_reduction():
    g = 5 / 3
    c3 = ThreeAxisParams(gamma=g, K=1.0, xi3=1.0, alpha3=1.0)
    sc = integrate_scales_3d(c3, 1.0)
    sol = _rk.solve(lambda t, y: np.array([y[1], 1.0 / y[0] ** (3 * g - 2)]),
                    np.array([1.0, 0.0]), 1.0, rtol=1e-12, atol=1e-12)
    assert abs(sc.a[-1, 0] - sol.ys[-1, 0]) <= 1e-8


def test_3d_first_integral_is_conserved():
    # H = sum adot_i^2/2 + xi3/((g-1) prod a_k^(g-1)) should be a constant of
    # motion; verify on an anisotropic run before trusting the drift monitor.
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0,
                            a_init=(1.0, 1.2, 0.8), adot_init=(0.1, -0.2, 0.0))
    sc = integrate_scales_3d(c3, 2.0)
    assert np.max(sc.drift) <= 1e-9
    g = c3.gamma
    prod = np.prod(sc.a, axis=1)
    h = 0.5 * np.sum(sc.adot ** 2, axis=1) + c3.xi3 / ((g - 1) * prod ** (g - 1))
    assert np.max(np.abs(h - h[0])) <= 1e-9 * max(1.0, abs(h[0]))


def test_3d_zero_forcing_is_linear():
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=0.0, alpha3=1.0,
                            a_init=(1, 1.2, 0.8), adot_init=(0.1, -0.05, 0.2))
    sc = integrate_scales_3d(c3, 2.0)
    expect = np.array([1, 1.2, 0.8]) + 2.0 * np.array([0.1, -0.05, 0.2])
    assert np.max(np.abs(sc.a[-1] - expect)) == 0.0


def test_3d_contraction_collapses():
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=-1.0, alpha3=1.0)
    sc = integrate_scales_3d(c3, 10.0)
    assert sc.terminal.kind == "collapsed"


def test_3d_trajectory_exposes_solver_counters():
    sc = integrate_scales_3d(ThreeAxisParams(gamma=1.4, K=1.0, xi3=-1.0, alpha3=1.0), 10.0)
    assert sc.naccepted == sc.ts.size - 1
    assert sc.nfev == 2 + 6 * (sc.naccepted + sc.nrejected)
    with pytest.raises(AttributeError):
        sc.naccepted = 0


def test_collapse_bracket_spans_the_remaining_time_bound():
    # Both scale integrators end a collapse at a node t_n whose remaining-time
    # bound b = a/|adot| of the smallest falling scale is at most
    # u = rel_tol max(1, t_n), and report the bracket [t_n - u, t_n + b + u].
    # (A gamma = 2 fall ends at its closed-form root instead; this one is a xi = 0 fall.)
    cfg = IntegrationConfig(t_end=2.0)
    traj = integrate(SolutionParams(gamma=1.4, K=1, xi=0, lam=-1, alpha=1, a0=1, a1=0), cfg)
    sc = integrate_scales_3d(ThreeAxisParams(gamma=1.4, K=1.0, xi3=-1.0, alpha3=1.0), 10.0)
    for ev, t_n, b in ((traj.terminal, traj.ts[-1], traj.a[-1] / -traj.adot[-1]),
                       (sc.terminal, sc.ts[-1], np.min(sc.a[-1] / -sc.adot[-1]))):
        u = cfg.rel_tol * max(1.0, t_n)
        assert ev.kind == "collapsed" and 0.0 < b <= u
        lo, hi = ev.bracket
        assert lo == t_n - u and hi == pytest.approx(t_n + b + u, rel=1e-15)
        assert lo < t_n < ev.t < hi


def test_a_start_at_or_below_the_collapse_epsilon_is_collapsed_in_both_integrators():
    cfg = IntegrationConfig(t_end=1.0)
    for a in (cfg.collapse_epsilon, 1e-9):
        with pytest.raises(CollapsedState):
            integrate(SolutionParams(gamma=2, K=1, xi=1, lam=0, alpha=1, a0=a, a1=0), cfg)
        with pytest.raises(CollapsedState):
            integrate_scales_3d(ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0,
                                                a_init=(1.0, a, 1.0)), 1.0)


def test_3d_integration_needs_a_positive_t_end_like_2d():
    with pytest.raises(NonPositiveTime):
        integrate_scales_3d(ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0), 0.0)


@pytest.mark.parametrize("tolerance", [0.0, -1.0])
def test_3d_residual_rejects_a_non_positive_tolerance(tolerance):
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0)
    sc = integrate_scales_3d(c3, 1.0)
    with pytest.raises(InvalidParams) as exc:
        euler_residual_3d(c3, sc, 0.5, Grid3Spec(half_width=0.4, n=7, h=1e-3, h_t=5e-4),
                          tolerance=tolerance)
    assert exc.value.violations == ["NonPositive:tolerance"]


def test_3d_trajectory_diagnostics_have_the_2d_keys():
    traj = integrate(GENERIC, IntegrationConfig(t_end=1.0))
    sc = integrate_scales_3d(ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0), 1.0)
    d = sc.diagnostics
    assert set(d) == set(traj.diagnostics) == {"nfev", "naccepted", "nrejected", "min_step",
                                               "terminal", "message"}
    assert (d["nfev"], d["naccepted"], d["nrejected"]) == (sc.nfev, sc.naccepted, sc.nrejected)
    assert d["min_step"] == float(np.min(sc._sol.hs[1:])) and d["terminal"] == "reached_end"


def test_3d_params_validation():
    with pytest.raises(InvalidParams):
        ThreeAxisParams(gamma=1.0, K=1.0, xi3=1.0, alpha3=1.0)
    with pytest.raises(InvalidParams):
        ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0, a_init=(1.0, -1.0, 1.0))


@pytest.mark.parametrize("kwargs, violations", [
    (dict(K=math.inf), ["NonFinite:K"]),
    (dict(xi3=math.nan), ["NonFinite:xi3"]),
    (dict(alpha3=math.inf), ["NonFinite:alpha3"]),
    (dict(adot_init=(0.0, 0.0)), ["WrongLength:adot_init"]),
    (dict(drift_rate=(0.1, 0.2)), ["WrongLength:drift_rate"]),
    (dict(a_init=(1.0, 1.0, 1.0, 1.0)), ["WrongLength:a_init"]),
    (dict(drift0=(0.0, math.inf, 0.0)), ["NonFinite:drift0"]),
    (dict(adot_init=(math.nan, 0.0, 0.0), drift_rate=(0.0,)),
     ["NonFinite:adot_init", "WrongLength:drift_rate"]),
    (dict(a_init=(1.0, math.inf, 1.0)), ["NonFinite:a_init"]),
])
def test_3d_params_reject_non_finite_values_and_wrong_lengths(kwargs, violations):
    with pytest.raises(InvalidParams) as exc:
        ThreeAxisParams(**{**dict(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0), **kwargs})
    assert exc.value.violations == violations


def test_3d_params_accept_tuples_of_numpy_floats():
    rng = np.random.default_rng(0)
    c3 = ThreeAxisParams(gamma=np.float64(1.4), K=1.0, xi3=np.float64(-1.0), alpha3=1.0,
                         a_init=tuple(rng.uniform(0.8, 1.2, 3)),
                         adot_init=tuple(rng.uniform(-0.1, 0.1, 3)),
                         drift0=tuple(rng.uniform(-0.1, 0.1, 3)),
                         drift_rate=tuple(rng.uniform(-0.1, 0.1, 3)))
    assert integrate_scales_3d(c3, 0.5).terminal.kind == "reached_end"


def isotropic_collapse_time(g, xi3, a0, adot0):
    """Oracle: the time for an isotropic run, addot = xi3 a^(2 - 3 g) with xi3 < 0,
    to fall from a0 to 0: int da / sqrt(2 (E - U(a))) over [0, a0] by scipy's
    quad, with U = xi3 a^(3 - 3 g) / (3 (g - 1)) and E = adot0^2/2 + U(a0).
    quad runs in x = ln(a0/a) over [0, inf), since the fall spans decades, and
    U(a0) - U(a) is formed with expm1, so g near 1 loses no digits to it.
    Where a^(3 - 3 g) passes the float range, E - U is inf and dt/dx is 0."""
    p = 3.0 - 3.0 * g

    def dt_dx(x):
        a = a0 * math.exp(-x)
        try:
            e_minus_u = 0.5 * adot0 * adot0 + xi3 / (3.0 * (g - 1.0)) * a ** p * math.expm1(p * x)
        except (OverflowError, ZeroDivisionError):
            return 0.0
        return a / math.sqrt(2.0 * e_minus_u)

    return quad(dt_dx, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize("g", [1.0005, 1.4, 3.4, 5.0, 8.0, 12.0])
@pytest.mark.parametrize("xi3, a0, adot0", [(-1.0, 1.0, -1.0), (-5.0, 0.7, -2.0)])
def test_3d_collapse_time_matches_the_isotropic_quadrature(g, xi3, a0, adot0):
    # The event estimates the time at which a reaches 0 from the last node's
    # local power law; an isotropic fall has a ~ (t* - t)^(2/(3 g - 1)).  For
    # g = 1.0005 the run ends at a = collapse_epsilon, 1.6e-9 before the
    # collapse, and every other g on the bound.  The worst gap measured 0.047
    # units of rel_tol max(1, t*), at g = 1.0005 (7.4 with the event t + b/2).
    c3 = ThreeAxisParams(gamma=g, K=1.0, xi3=xi3, alpha3=1.0,
                         a_init=(a0,) * 3, adot_init=(adot0,) * 3)
    t_star = isotropic_collapse_time(g, xi3, a0, adot0)
    end = integrate_scales_3d(c3, 2.0 * t_star + 1.0).terminal
    assert end.kind == "collapsed", end.message
    assert abs(end.t - t_star) <= 0.05 * IntegrationConfig.rel_tol * max(1.0, t_star)
    lo, hi = end.bracket
    assert lo <= t_star <= hi


def test_3d_steep_anisotropic_collapses_end_collapsed():
    # A seeded draw of contracting runs; case 24 used to stop at a = 1e-3
    # with "tolerance unmet at the step floor" instead of a collapse.
    rng = np.random.default_rng(17)
    for case in range(25):
        g, xi3 = rng.uniform(2.5, 6.0), -10.0 ** rng.uniform(-1.0, 0.7)
        a_init, adot_init = tuple(rng.uniform(0.5, 1.5, 3)), tuple(rng.uniform(-2.0, 0.2, 3))
        c3 = ThreeAxisParams(gamma=g, K=1.0, xi3=xi3, alpha3=1.0,
                             a_init=a_init, adot_init=adot_init)
        end = integrate_scales_3d(c3, 100.0).terminal
        assert end.kind == "collapsed", (case, end.message)


def test_3d_step_floor_under_an_outward_force_is_no_collapse():
    # xi3 > 0 pushes every axis out, so a/|adot| does not bound the time to
    # a = 0: a start too stiff for the step floor is a step failure.
    c3 = ThreeAxisParams(gamma=3.0, K=1.0, xi3=1.0, alpha3=1.0,
                         a_init=(1e-4,) * 3, adot_init=(-10.0,) * 3)
    assert integrate_scales_3d(c3, 1.0).terminal.kind == "step_failure"


# ----------------------------------------------------------- 3D residuals

def test_3d_residual_rejects_a_grid_past_the_support_margin():
    # xi3 > 0 gives finite support, s_b = 2 K gamma alpha3 / (xi3 (gamma - 1)) = 7.
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0)
    sc = integrate_scales_3d(c3, 1.0)
    with pytest.raises(GridTouchesSupportBoundary, match="^stencil reaches s = "):
        euler_residual_3d(c3, sc, 0.5, Grid3Spec(half_width=2.0, n=3, h=1e-3, h_t=5e-4))


def test_3d_isotropic_residual_and_radial_crosscheck():
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0)
    sc = integrate_scales_3d(c3, 1.0)
    rep = euler_residual_3d(c3, sc, 0.5, Grid3Spec(half_width=0.4, n=7, h=1e-3, h_t=5e-4),
                            tolerance=1e-6)
    assert rep.verdict == "PASS"
    # Radial evaluation path: rho(r) = f(r^2/a^2)/a^3 for equal axes.
    a, adot = sc.state_at(0.5)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.4, 0.4, (50, 3))
    rho, u1, u2, u3, _ = eval_flow_3d_arrays(c3, a, adot, 0.5,
                                             pts[:, 0], pts[:, 1], pts[:, 2])
    r2 = np.sum(pts ** 2, axis=1)
    s = r2 / a[0] ** 2
    slope = -c3.xi3 * (c3.gamma - 1) / (2 * c3.K * c3.gamma)
    f = np.maximum(slope * s + c3.alpha3, 0.0) ** (1 / (c3.gamma - 1))
    assert np.max(np.abs(rho - f / a[0] ** 3)) <= 1e-13
    radial = (u1 * pts[:, 0] + u2 * pts[:, 1] + u3 * pts[:, 2])
    assert np.max(np.abs(radial - (adot[0] / a[0]) * r2)) <= 1e-13


def test_3d_pure_drift_residual():
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=0.0, alpha3=1.0,
                            drift0=(0.1, 0.0, -0.2), drift_rate=(0.3, -0.1, 0.05))
    sc = integrate_scales_3d(c3, 1.0)
    rep = euler_residual_3d(c3, sc, 0.5, Grid3Spec(half_width=0.4, n=7, h=1e-3, h_t=5e-4),
                            tolerance=1e-8)
    assert rep.verdict == "PASS"
    assert rep.max_normalized <= 1e-8


ANISO = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0,
                           a_init=(1.0, 1.2, 0.8), drift_rate=(0.1, 0.0, -0.05))


def test_3d_anisotropic_with_drift_passes():
    sc = integrate_scales_3d(ANISO, 1.0)
    rep = euler_residual_3d(ANISO, sc, 0.5, Grid3Spec(half_width=0.4, n=7, h=1e-3, h_t=5e-4),
                            tolerance=1e-6)
    assert rep.verdict == "PASS"
    study = residual_convergence(
        lambda h: euler_residual_3d(ANISO, sc, 0.5,
                                    Grid3Spec(half_width=0.4, n=7, h=h, h_t=h / 2)),
        [4e-3, 2e-3, 1e-3])
    assert not study["not_applicable"]
    assert 1.8 <= study["order"] <= 4.2


def test_3d_permutation_equivariance():
    perm = (2, 0, 1)
    c3 = ANISO
    c3p = ThreeAxisParams(gamma=c3.gamma, K=c3.K, xi3=c3.xi3, alpha3=c3.alpha3,
                             a_init=tuple(c3.a_init[i] for i in perm),
                             adot_init=tuple(c3.adot_init[i] for i in perm),
                             drift0=tuple(c3.drift0[i] for i in perm),
                             drift_rate=tuple(c3.drift_rate[i] for i in perm))
    sc = integrate_scales_3d(c3, 1.0)
    scp = integrate_scales_3d(c3p, 1.0)
    grid = Grid3Spec(half_width=0.4, n=5, h=1e-3, h_t=5e-4)
    rep = euler_residual_3d(c3, sc, 0.5, grid)
    repp = euler_residual_3d(c3p, scp, 0.5, grid)
    names = ("momentum-x", "momentum-y", "momentum-z")
    for axis_new, axis_old in enumerate(perm):
        a = repp.equations[names[axis_new]]["max"]
        b = rep.equations[names[axis_old]]["max"]
        assert abs(a - b) <= 1e-13
    assert abs(repp.equations["mass"]["max"] - rep.equations["mass"]["max"]) <= 1e-13


# ----------------------------------------------------------- convergence studies

def test_convergence_order_2d(generic_traj):
    study = residual_convergence(
        lambda h: euler_residual_2d(GENERIC, generic_traj, 0.5, grid_2d(h)),
        [4e-3, 2e-3, 1e-3])
    assert not study["not_applicable"]
    assert 1.8 <= study["order"] <= 4.2


def test_convergence_negative_control_plateaus(generic_traj):
    exact = euler_residual_2d(GENERIC, generic_traj, 0.5, grid_2d(5e-4)).max_normalized
    study = residual_convergence(
        lambda h: euler_residual_2d(GENERIC, generic_traj, 0.5, grid_2d(h),
                                    density_factor=1.01),
        [4e-3, 2e-3, 1e-3, 5e-4])
    assert abs(study["order"]) <= 0.5
    assert study["residuals"][-1] >= 100.0 * exact


def test_convergence_not_applicable_for_machine_zero():
    p = SolutionParams(gamma=1.4, K=1, xi=0.0, lam=0.0, alpha=1, a0=1, a1=0)
    traj = integrate(p, IntegrationConfig(t_end=1.0))
    grid = lambda h: GridSpec(kind="annulus", r_lo=0.05, r_hi=1.4, n_r=6, n_theta=6,
                              h=h, h_t=h / 2)
    study = residual_convergence(
        lambda h: euler_residual_2d(p, traj, 0.5, grid(h)), [4e-3, 2e-3, 1e-3])
    assert study["not_applicable"]
    assert study["order"] is None


def test_convergence_ladder_validation(generic_traj):
    run = lambda h: pytest.fail("the ladder is checked before any run")
    with pytest.raises(LadderTooShort):
        residual_convergence(run, [1e-3, 5e-4])
    with pytest.raises(ValueError):
        residual_convergence(run, [1e-3, 2e-3, 5e-4])


# ----------------------------------------------------------- vectorized balance

def _reference_summary(residual, terms, coords, payloads):
    scale = max([float(np.max(np.abs(v))) for v in (*terms, *payloads)] + [1e-300])
    normal = np.abs(residual) / scale
    k = int(np.argmax(normal))
    return {"max": float(normal[k]), "mean": float(np.mean(normal)), "scale": scale,
            "worst_point": tuple(float(c[k]) for c in coords)}


def _reference_balance(field, X, h, order, time_derivative, mu=0.0):
    """The per-equation, per-axis balance that residuals._balance vectorizes,
    with the largest |mu Laplacian(u_i)| (None for mu = 0).

    Kept as the reference the vectorized form must match bitwise.  The only
    change is that time_derivative receives U as one (d, n) array, as it
    does from _balance.
    """
    d, n = len(X), X[0].size
    offsets = (-2, -1, 1, 2) if order == 4 else (-1, 1)
    m = len(offsets)
    rho_s, U_s, p_s = field(tuple(
        np.concatenate([X[i]] + [X[i] + k * h if i == j else X[i]
                                 for j in range(d) for k in offsets])
        for i in range(d)))

    def rows(q):
        return q.reshape(1 + d * m, n)

    def along(q, j):
        return rows(q)[1 + j * m:1 + (j + 1) * m]

    def diff(s):
        if order == 4:
            fm2, fm1, fp1, fp2 = s
            return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
        fm1, fp1 = s
        return (fp1 - fm1) / (2.0 * h)

    rho = rows(rho_s)[0]
    U = [rows(u)[0] for u in U_s]
    rho_t, U_t = time_derivative(rho, np.array(U))

    terms = [rho_t] + [diff(along(rho_s, j) * along(U_s[j], j)) for j in range(d)]
    eqs = {"mass": _reference_summary(sum(terms), terms, X, [rho] + [rho * u for u in U])}
    viscous = None
    if p_s is None:
        return eqs, viscous
    neighbours = [1 + j * m + offsets.index(k) for j in range(d) for k in (1, -1)]
    for i in range(d):
        terms = ([rho * U_t[i]] + [rho * U[j] * diff(along(U_s[i], j)) for j in range(d)]
                 + [diff(along(p_s, i))])
        if mu != 0.0:
            ui = rows(U_s[i])
            lap = (sum(ui[r] for r in neighbours) - 2.0 * d * ui[0]) / (h * h)
            terms.append(-mu * lap)
            viscous = max(viscous or 0.0, float(np.max(np.abs(terms[-1]))))
        payloads = [rho * U[i]] + [rho * U[j] * U[i] for j in range(d)] + [rows(p_s)[0]]
        eqs[f"momentum-{'xyz'[i]}"] = _reference_summary(sum(terms), terms, X, payloads)
    return eqs, viscous


NEAR_CORE = dict(kind="annulus", r_lo=0.05, r_hi=1.3, n_r=9, n_theta=11)
WEIRD_SWIRL = GenericRotationField(f=lambda eta: np.exp(-eta ** 2),
                                   G=lambda t, r: (1 + t) * r ** 2 * np.sin(r),
                                   a=lambda t: 1.0 + t, adot=lambda t: 1.0)
BALANCE_CASES = {
    "annulus": lambda traj: euler_residual_2d(GENERIC, traj, 0.5, grid_2d(1e-3)),
    "annulus-viscous": lambda traj: euler_residual_2d(GENERIC, traj, 0.5,
                                                      grid_2d(1e-2, h_t=5e-4), mu=3.7),
    "near-core": lambda traj: euler_residual_2d(GENERIC, traj, 0.5,
                                                GridSpec(**NEAR_CORE, h=1e-3, h_t=5e-4)),
    "near-core-viscous": lambda traj: euler_residual_2d(
        GENERIC, traj, 0.5, GridSpec(**NEAR_CORE, h=1e-2, h_t=5e-4), mu=1.0),
    "density-control": lambda traj: euler_residual_2d(GENERIC, traj, 0.5, grid_2d(2e-3),
                                                      density_factor=1.01),
    "three-axis-drift": lambda traj: euler_residual_3d(
        ANISO, integrate_scales_3d(ANISO, 1.0), 0.5,
        Grid3Spec(half_width=0.4, n=5, h=1e-3, h_t=5e-4), tolerance=1e-6),
    "generic-swirl-mass": lambda traj: mass_residual_generic_g(WEIRD_SWIRL, 0.5,
                                                               annulus_for_mass(1e-3)),
    "fixture-order-2": lambda traj: zz_direct_residual(
        1.7, 1.3, GridSpec(kind="annulus", r_lo=0.1, r_hi=2.0, n_r=20, n_theta=24, h=5e-4)),
}


@pytest.mark.parametrize("case", sorted(BALANCE_CASES))
def test_balance_matches_the_per_equation_reference(case, generic_traj, monkeypatch):
    # Every _balance call the public check makes is repeated by the reference
    # on the same field and time derivative; the summaries and the viscous
    # peak must be equal floats.
    pairs = []
    vectorized = residuals._balance

    def both(*args, **kwargs):
        got = vectorized(*args, **kwargs)
        pairs.append((got, _reference_balance(*args, **kwargs)))
        return got

    monkeypatch.setattr(residuals, "_balance", both)
    BALANCE_CASES[case](generic_traj)
    assert len(pairs) == 1
    (got, got_viscous), (ref, ref_viscous) = pairs[0]
    assert list(got) == list(ref)
    for name in ref:
        assert got[name] == ref[name], name
    assert got_viscous == ref_viscous


# Ties come from triples drawn out of a small pool.  +-0.0 ties are compared
# by value only: np.minimum settles them by argument order, while np.sort may
# leave them in either order.  eval_flow_3d_arrays orders squares, which are
# never -0.0, and there the rows are bitwise np.sort's.
_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                          math.inf, -math.inf, 1.0])
_VALUES = st.one_of(st.floats(allow_nan=False), _EDGES)
_TRIPLES = st.one_of(
    st.tuples(_VALUES, _VALUES, _VALUES),
    st.lists(_VALUES, min_size=1, max_size=2).flatmap(
        lambda pool: st.tuples(*[st.sampled_from(pool)] * 3)))


@settings(deadline=None)
@given(st.lists(_TRIPLES, min_size=1, max_size=40))
def test_order3_returns_the_sorted_rows(triples):
    q = np.array(triples).T
    rows, ref = np.stack(_order3(*q)), np.sort(q, axis=0)
    assert np.array_equal(rows, ref)
    if not np.any((q == 0.0) & np.signbit(q)):
        assert rows.tobytes() == ref.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):  # huge sums, inf + -inf
            assert (rows[0] + rows[1] + rows[2]).tobytes() == (ref[0] + ref[1] + ref[2]).tobytes()


# ----------------------------------------------------------- shared sample points

def test_points_are_read_only_and_shared_by_geometry():
    fine, coarse = grid_2d(1e-3), grid_2d(4e-3, h_t=1e-3)
    assert all(a is b for a, b in zip(fine.points(), coarse.points()))
    g3 = Grid3Spec(half_width=0.4, n=5, h=1e-3, h_t=5e-4)
    g3_coarse = Grid3Spec(half_width=0.4, n=5, h=4e-3, h_t=2e-3)
    assert all(a is b for a, b in zip(g3.points((0.0, 0.0, 0.0)), g3_coarse.points((0.0, 0.0, 0.0))))
    for arr in (*fine.points(), *g3.points((0.0, 0.0, 0.0))):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_points_of_different_geometries_are_apart():
    # The annulus's (r, theta) axes, not mapped to (x, y), are another geometry.
    annulus = GridSpec(kind="annulus", r_lo=0.3, r_hi=1.5, n_r=6, n_theta=8)
    unmapped = residuals._points(False, ((0.3, 1.5, 6), (0.0, 2.0 * math.pi, 8, False)))
    (x, y), (r, th) = annulus.points(), unmapped
    assert x is not r and y is not th
    assert np.array_equal(x, r * np.cos(th)) and np.array_equal(y, r * np.sin(th))
    g3 = Grid3Spec(half_width=0.4, n=5)
    here, there = g3.points((0.0, 0.0, 0.0)), g3.points((0.1, 0.0, -0.2))
    assert all(a is not b for a, b in zip(here, there))
    assert np.array_equal(there[1], here[1])
    assert not np.array_equal(there[0], here[0]) and not np.array_equal(there[2], here[2])
