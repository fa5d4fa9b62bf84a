"""Scale-factor dynamics: right-hand side, energy, integration, oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swirlgas import (
    CollapsedAtOrBefore,
    CollapsedState,
    IntegrationConfig,
    InvalidParams,
    NonPositiveTime,
    ScaleState,
    SolutionParams,
    StepBudgetExceeded,
    TerminalEvent,
    ThreeAxisParams,
    classify,
    closed_form_gamma2,
    emden_rhs,
    energy_of,
    gamma2_scale_squared_coeffs,
    integrate,
    integrate_scales_3d,
)
from swirlgas import _rk
from swirlgas.orbit import collapse_time


def P(gamma, xi, lam, a0=1.0, a1=0.0, K=1.0, alpha=1.0):
    return SolutionParams(gamma=gamma, K=K, xi=xi, lam=lam, alpha=alpha, a0=a0, a1=a1)


# ----------------------------------------------------------- right-hand side

def test_rhs_unit_case():
    _, acc = emden_rhs(ScaleState(0, 1.0, 0.0), P(2, 1, 0))
    assert acc == 1.0


def test_rhs_equilibrium_cases():
    # xi^2/a^3 = -lam/a^(2g-1) at a = 1/2 for gamma = 1.5, lam = -2.
    _, acc = emden_rhs(ScaleState(0, 0.5, 0.0), P(1.5, 1, -2))
    assert 1.0 / 0.5 ** 3 == 8.0 and -2.0 / 0.5 ** 2 == -8.0
    assert acc == 0.0
    # barrier top a = (-lam/xi^2)^(1/(2g-4)) = 1 for gamma = 3, lam = -1.
    _, acc = emden_rhs(ScaleState(0, 1.0, 0.0), P(3, 1, -1))
    assert acc == 0.0


def test_rhs_collapsed():
    with pytest.raises(CollapsedState):
        emden_rhs(ScaleState(0, 0.0, -1.0), P(2, 1, 0))


def test_rhs_of_a_scale_whose_cube_overflows():
    # a ** 3 raised OverflowError past about 5.6e102; xi^2/a^3 is then 0.
    assert emden_rhs(ScaleState(0, 1e120, 0.0), P(1.5, 1, -2)) == (0.0, -2.0 / 1e240)
    assert emden_rhs(ScaleState(0, 1e120, 0.0), P(3, 1, -1)) == (0.0, 0.0)


# ----------------------------------------------------------- energy

def test_energy_values():
    e = energy_of(1.0, 0.0, P(1.5, 1, -2))
    assert e.E == pytest.approx(0.5 - 2.0, abs=1e-15)      # 2g-2 = 1
    e = energy_of(1.0, 0.0, P(2, 1, 0))
    assert e.E == pytest.approx(0.5, abs=1e-15)
    e = energy_of(1.0, 0.0, P(3, 1, -1))
    assert e.E == pytest.approx(0.5 - 0.25, abs=1e-15)     # 2g-2 = 4
    assert e.E == e.F_kin + e.F_pot


def test_a_starting_scale_whose_square_overflows_is_invalid():
    # q = a0^2 starts the integration; at a0 = 1e160 it is inf.
    with pytest.raises(InvalidParams) as exc:
        energy_of(1e160, 0.0, P(1.5, 1, -2))
    assert exc.value.violations == ["NonFiniteSquare:a0"]
    with pytest.raises(InvalidParams):
        integrate(P(1.5, 1, -2, a0=1e160))
    assert energy_of(1e150, 0.0, P(1.5, 1, -2)).E == pytest.approx(-2e-150, rel=1e-14)


def test_an_infinite_horizon_is_rejected_before_any_step():
    # It used to run through the whole step budget first.
    c3 = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0)
    for run in (lambda t: integrate(P(1.5, 1, -2), IntegrationConfig(t_end=t)),
                lambda t: integrate_scales_3d(c3, t)):
        with pytest.raises(InvalidParams) as exc:
            run(math.inf)
        assert exc.value.violations == ["NonFinite:t_end"]
        for t in (math.nan, 0.0, -math.inf):
            with pytest.raises(NonPositiveTime):
                run(t)


# ----------------------------------------------------------- gamma=2 closed form

def test_closed_form_basic():
    st = closed_form_gamma2(P(2, 1, 0), 1.0)
    assert st.a == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_closed_form_satisfies_the_equation():
    # Substitute the closed form into the scale equation by central
    # differences: addot - xi^2/a^3 - lam/a^3 -> 0 at O(h^2).
    p = P(2, 1.3, -0.7, a0=1.2, a1=0.4)
    hs = [1e-3, 5e-4, 2.5e-4]
    errs = []
    for h in hs:
        res = []
        for t in np.linspace(0.2, 1.8, 9):
            am = closed_form_gamma2(p, t - h).a
            a0 = closed_form_gamma2(p, t).a
            ap = closed_form_gamma2(p, t + h).a
            addot = (ap - 2 * a0 + am) / (h * h)
            res.append(abs(addot - (p.xi ** 2 + p.lam) / a0 ** 3))
        errs.append(max(res))
    assert errs[-1] <= 1e-6
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.5 <= order <= 2.5


def test_closed_form_scale_squared_second_difference_is_4E():
    p = P(2, 1, 0)
    e0 = energy_of(p.a0, p.a1, p).E
    h = 1e-4
    for t in (0.3, 0.9, 1.7):
        sq = [closed_form_gamma2(p, tt).a ** 2 for tt in (t - h, t, t + h)]
        dd = (sq[2] - 2 * sq[1] + sq[0]) / (h * h)
        assert dd == pytest.approx(4 * e0, rel=1e-6)


def test_closed_form_collapse():
    p = P(2, 1, -2)  # a^2 = 1 - t^2
    with pytest.raises(CollapsedAtOrBefore) as exc:
        closed_form_gamma2(p, 1.0)
    assert exc.value.t_collapse == pytest.approx(1.0, abs=1e-12)
    st = closed_form_gamma2(p, 0.999)
    assert st.a == pytest.approx(math.sqrt(1 - 0.999 ** 2), rel=1e-12)


def test_closed_form_constant_solution():
    p = P(2, 1, -1)  # xi^2 + lam = 0, a1 = 0: a stays 1
    for t in (0.5, 5.0, 50.0):
        st = closed_form_gamma2(p, t)
        assert st.a == 1.0 and st.adot == 0.0


def test_closed_form_requires_gamma2():
    with pytest.raises(ValueError):
        closed_form_gamma2(P(1.5, 1, 0), 1.0)


# ----------------------------------------------------------- integration

def test_integrate_matches_closed_form_free_spin():
    traj = integrate(P(2, 1, 0), IntegrationConfig(t_end=2.0))
    ts = np.linspace(0, 2, 401)
    a, _ = traj.sample(ts)
    assert np.max(np.abs(a - np.sqrt(1 + ts ** 2))) <= 1e-8
    assert traj.state_at(2.0).a == pytest.approx(math.sqrt(5.0), abs=1e-8)


def test_integrate_collapse_time():
    traj = integrate(P(2, 1, -2), IntegrationConfig(t_end=2.0))
    assert traj.terminal.kind == "collapsed"
    assert abs(traj.terminal.t - 1.0) <= 1e-6
    lo, hi = traj.terminal.bracket
    assert lo <= traj.terminal.t <= hi


def test_integrate_equilibrium_is_constant():
    traj = integrate(P(1.5, 1, -2, a0=0.5), IntegrationConfig(t_end=10.0))
    assert np.max(np.abs(traj.a - 0.5)) <= 1e-9
    assert traj.terminal.kind == "reached_end"


def test_time_reversal_symmetry():
    p = P(1.5, 1, -2)
    fwd = integrate(p, IntegrationConfig(t_end=1.5)).state_at(1.5)
    back = integrate(P(1.5, 1, -2, a0=fwd.a, a1=-fwd.adot),
                     IntegrationConfig(t_end=1.5)).state_at(1.5)
    assert abs(back.a - p.a0) <= 1e-7
    assert abs(back.adot - (-p.a1)) <= 1e-7


def test_dense_output_reproduces_nodes_exactly():
    traj = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=3.0))
    for k in (1, len(traj.ts) // 2, len(traj.ts) - 1):
        st = traj.state_at(float(traj.ts[k]))
        assert st.a == traj.a[k]
        assert st.adot == traj.adot[k]


@pytest.mark.parametrize("t", [0.5, np.float64(0.5), np.array(0.5)], ids=["float", "float64", "0-d"])
def test_sample_at_a_scalar_time_is_the_one_element_sample(t):
    traj = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=3.0))
    a, adot = traj.sample(t)
    ref_a, ref_adot = traj.sample([0.5])
    assert a.shape == adot.shape == (1,)
    assert a.tobytes() == ref_a.tobytes() and adot.tobytes() == ref_adot.tobytes()


def test_gamma2_oracle_sweep():
    rng = np.random.default_rng(42)
    tested = 0
    while tested < 20:
        xi = rng.uniform(-2, 2)
        lam = rng.uniform(-3, 3)
        a0 = rng.uniform(0.3, 2.5)
        a1 = rng.uniform(-1.5, 1.5)
        p = P(2, xi, lam, a0=a0, a1=a1)
        c0, c1, c2 = gamma2_scale_squared_coeffs(p)
        ts = np.linspace(0, 2, 201)
        q = c0 + c1 * ts + c2 * ts ** 2
        if np.min(q) < 0.05:
            continue
        tested += 1
        traj = integrate(p, IntegrationConfig(t_end=2.0))
        a, _ = traj.sample(ts)
        assert np.max(np.abs(a - np.sqrt(q))) <= 1e-8


def test_collapse_monotonicity():
    traj = integrate(P(2, 1, -2), IntegrationConfig(t_end=2.0))
    going_down = np.where(traj.adot < 0)[0]
    assert going_down.size > 0
    k0 = going_down[0]
    assert np.all(np.diff(traj.a[k0:]) < 0)


def test_gamma2_dip_through_zero_ends_at_the_closed_form_root():
    # E0 > 0 and a1 < 0 with xi^2 < -lam: q = a^2 is convex and falls through
    # a simple root.  A step longer than the time to its tangent's root could
    # end beyond the dip, where q is positive again.
    rng = np.random.default_rng(11)
    tested = 0
    while tested < 50:
        p = P(2, rng.uniform(-3, 3), rng.uniform(-5, 5), a0=rng.uniform(0.05, 3.0),
              a1=rng.uniform(-3, 0))
        c0, c1, c2 = gamma2_scale_squared_coeffs(p)
        if not (p.xi ** 2 < -p.lam and c2 > 0.0):
            continue
        tested += 1
        # The first root by the quadratic formula, in its form without cancellation for c1 < 0.
        t_star = 2.0 * c0 / (-c1 + math.sqrt(c1 * c1 - 4.0 * c2 * c0))
        traj = integrate(p, IntegrationConfig(t_end=2.0 * t_star + 1.0))
        assert traj.terminal.kind == "collapsed"
        assert abs(traj.terminal.t - t_star) <= 1e-10 * max(1.0, t_star)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 3e-13, 1e-13])
@pytest.mark.parametrize("p", [P(2, 1, -1, a1=-0.001), P(1.4, 0, 0, a1=-0.001),
                               P(3, 0, 0, a1=-0.001)], ids=["2aII", "free-1.4", "free-3"])
def test_linear_collapse_double_root_ends_collapsed(p, tol):
    # A force-free fall (2aII, or xi = lam = 0 at any gamma): q = (1 - 0.001 t)^2
    # has a double root at t = 1000, which rounding lifts or lowers by a few eps,
    # more than collapse_epsilon^2, so the run may pass the turn above zero (at
    # tol 1e-8 and 1e-12 for gamma = 1.4 and 3); it ends at the closed form's
    # root t* = 1000 either way.
    traj = integrate(p, IntegrationConfig(rel_tol=tol, abs_tol=tol, t_end=3000.0))
    assert traj.terminal.kind == "collapsed"
    assert abs(traj.terminal.t - 1000.0) <= 1e-6


@pytest.mark.parametrize("max_step", [3e-3, 1e-3, 1e-4])
def test_linear_collapse_under_a_capped_step_lands_in_its_bracket(max_step):
    # linear-blowup-demo's q = (1 - t/2)^2 has a double root at t* = -a0/a1 = 2,
    # which each of its many steps moves by about eps a0^2; an event estimated
    # at the a = collapse_epsilon exit would miss t* by 3e-7 to 7e-7.
    traj = integrate(P(2, 1, -1, a1=-0.5), IntegrationConfig(max_step=max_step))
    lo, hi = traj.terminal.bracket
    assert traj.terminal.kind == "collapsed" and lo <= 2.0 <= hi


@pytest.mark.parametrize("p, t_star", [(P(2, 1, -2), 1.0), (P(2, 1, -1, a1=-0.5), 2.0),
                                        (P(3, 1, -2), 0.7853981633974482),
                                        (P(1.4, 0, -1), 1.136655629415973)],
                         ids=["blowup-demo", "linear-blowup-demo", "gamma3-plunge", "xi0-fall"])
def test_the_step_budget_counts_to_the_predicted_collapse(p, t_star, monkeypatch):
    # Where the orbit collapses the run ends there: steps of max_step to t_end
    # = 10 pass a budget of 3,000, and the 786 to 2,000 to t* do not.  t* is the
    # first root of q's parabola, or the energy quadrature of a gamma > 2 plunge
    # and of a xi = 0 fall.
    monkeypatch.setattr(_rk, "_MAX_STEPS", 3000)
    traj = integrate(p, IntegrationConfig(max_step=1e-3, t_end=10.0))
    lo, hi = traj.terminal.bracket
    assert traj.terminal.kind == "collapsed" and lo <= t_star <= hi
    with pytest.raises(StepBudgetExceeded):
        integrate(P(1.5, 1, -2), IntegrationConfig(max_step=1e-3, t_end=10.0))


def test_a_collapse_time_that_is_not_positive_is_not_resolved():
    # At gamma = 1e30 the energy quadrature of this xi = 0 fall gives t* = 0.0.
    # Counted to it, 1e9 steps of 1e-12 to t_end passed the budget, and the run
    # took 1,000,001 steps to a step failure; unresolved, it is rejected at once.
    p = P(1e30, 0, -2)
    assert collapse_time(p, energy_of(p.a0, p.a1, p).E) == math.inf
    with pytest.raises(StepBudgetExceeded, match="t_end / max_step"):
        integrate(p, IntegrationConfig(t_end=1e-3, max_step=1e-12))


def test_gamma2_global_orbit_takes_few_steps():
    # In q the gamma = 2 equation is qddot = 4 E0: the 5(4) pair is exact
    # on it, and the steps grow at the controller's largest factor.
    traj = integrate(P(2, 1, -0.5, a1=0.3), IntegrationConfig(t_end=20.0))
    assert traj.terminal.kind == "reached_end"
    assert traj.naccepted <= 20


def test_trajectory_diagnostics():
    traj = integrate(P(2, 1, -2), IntegrationConfig(t_end=2.0))
    d = traj.diagnostics
    assert set(d) == {"nfev", "naccepted", "nrejected", "min_step", "terminal", "message"}
    assert (d["nfev"], d["naccepted"], d["nrejected"]) == (traj.nfev, traj.naccepted,
                                                           traj.nrejected)
    assert d["min_step"] == float(np.min(traj.hs[1:])) and d["terminal"] == "collapsed"


def test_integration_continues_where_a_force_power_passes_the_float_range():
    # For gamma = 50, a ** (2 gamma - 1) and (a1 a2 a3) ** (gamma - 1) pass the
    # float range at a ~ 1300 and a ~ 130; the force is then 0, not a failure.
    traj = integrate(P(50, 1, 1, a1=2.0), IntegrationConfig(t_end=2000.0))
    assert traj.terminal.kind == "reached_end" and traj.a[-1] > 4000
    c3 = ThreeAxisParams(gamma=50.0, K=1.0, xi3=1.0, alpha3=1.0, adot_init=(2.0, 2.0, 2.0))
    with np.errstate(over="ignore"):   # the first-integral record overflows too
        sc = integrate_scales_3d(c3, 2000.0)
    assert sc.terminal.kind == "reached_end" and np.all(sc.a[-1] > 4000)


@pytest.mark.parametrize("p, t_fail", [
    # a_min = 8.3e-9, period 1.865: the bounce lasts less than the step floor.
    (P(1.8594228642996016, 0.1723301913564539, -4.772204229955089,
       a0=1.2768533562903674, a1=-0.8271047156358691), 0.50991954644876),
    # a_min = 1.85e-151.
    (P(1.999, 1, -2), 1.0003867958129629),
], ids=["found-orbit", "missing-period"])
def test_a_bounce_below_the_step_floor_is_a_step_failure_not_a_collapse(p, t_fail):
    # xi != 0 with gamma < 2: F_pot -> +inf as a -> 0, so these trapped orbits
    # cannot collapse and their q runs have no collapse exit.  The step that
    # fails at the floor inside the bounce is a step failure.
    traj = integrate(p, IntegrationConfig(t_end=5.0))
    assert traj.terminal.kind == "step_failure" and traj.terminal.t == t_fail
    assert traj.terminal.message.startswith("tolerance unmet at the step floor")
    assert traj.terminal.bracket is None


def test_every_collapse_bracket_holds_the_blowup_time():
    # The first 260 located blowups of a seeded draw, 2aII left out: 50 at
    # gamma = 2 (t* from the closed form) and 210 at gamma > 2 (t* from the
    # energy quadrature).  Every run ends collapsed at an accepted node, none
    # at the step floor, and every bracket holds t*.  The worst event gaps,
    # in units of rel_tol max(1, t*), measured 3.6e-5 at gamma = 2 and 0.981
    # at gamma > 2.
    rng = np.random.default_rng(2024)
    worst, drawn = {True: 0.0, False: 0.0}, 0
    while drawn < 260:
        g = 2.0 if rng.uniform() < 0.3 else rng.uniform(2.0, 4.0)
        p = P(g, rng.uniform(-3, 3), rng.uniform(-5, 0), a0=rng.uniform(0.05, 3.0),
              a1=rng.uniform(-3, 3))
        r = classify(p, locate_blowup=True)
        if r.kind != "finite-time-blowup" or r.blowup_time is None or r.branch == "2aII":
            continue
        drawn += 1
        t_star = r.blowup_time
        end = integrate(p, IntegrationConfig(t_end=1.5 * t_star + 1.0)).terminal
        assert end.kind == "collapsed" and end.message == "", (p, end)
        lo, hi = end.bracket
        assert lo <= t_star <= hi, (p, end, t_star)
        unit = IntegrationConfig.rel_tol * max(1.0, t_star)
        worst[g == 2.0] = max(worst[g == 2.0], abs(end.t - t_star) / unit)
    assert worst[True] <= 1e-4 and worst[False] <= 0.982


def test_plunge_drift_is_measured_on_its_own_first_integral():
    # t* = pi/4.  Near a = 0 the energy E = F_kin + F_pot is a difference of
    # two terms of size a^(2 - 2 gamma), and its drift at the last node is 571,
    # rounding noise of that size; the plunge's H keeps terms of order one and
    # measures 1.6e-11.
    traj = integrate(P(3, 1, -2), IntegrationConfig(t_end=2.0))
    n_q = traj._sol.ts.size
    assert traj.terminal.kind == "collapsed" and traj.ts.size > n_q
    assert float(traj.drift.max()) <= 1.7e-11
    e_drift = np.abs(traj.E - traj.E[0]) / max(1.0, abs(traj.E[0]))
    assert np.array_equal(traj.drift[:n_q], e_drift[:n_q])
    assert e_drift[-1] > 100.0


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        integrate(P(2, 1, 0), IntegrationConfig(t_end=-1.0))
    with pytest.raises(CollapsedState):
        integrate(P(2, 1, 0, a0=1e-9), IntegrationConfig(t_end=1.0))
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=-1e-10)


# ----------------------------------------------------------- energy drift

def test_drift_equilibrium_zero():
    traj = integrate(P(1.5, 1, -2, a0=0.5), IntegrationConfig(t_end=10.0))
    assert float(traj.drift.max()) <= 1e-14


def test_drift_periodic_orbit():
    traj = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=2.5))
    assert float(traj.drift.max()) <= 1e-9


def test_drift_vs_closed_form():
    traj = integrate(P(2, 0.8, -0.3, a0=1.1, a1=0.2), IntegrationConfig(t_end=3.0))
    assert float(traj.drift.max()) <= 1e-9
    ts = np.linspace(0, 3, 101)
    a, _ = traj.sample(ts)
    c0, c1, c2 = gamma2_scale_squared_coeffs(traj.params)
    assert np.max(np.abs(a - np.sqrt(c0 + c1 * ts + c2 * ts ** 2))) <= 1e-8


def test_drift_bounded_by_tolerance_budget():
    # Holds for orbits whose potential magnitude along the path stays
    # comparable to |E(0)|; a deep pericenter pass (potential depth far
    # below E(0)) deposits absolute error the relative budget cannot cap.
    cfg = IntegrationConfig(t_end=6.0)
    for p in (P(1.5, 1, -2), P(1.8, 1.0, -1.2), P(3, 1, -1, a0=2.0)):
        traj = integrate(p, cfg)
        if traj.terminal.kind == "reached_end":
            assert float(traj.drift.max()) <= 100 * cfg.rel_tol


# ----------------------------------------------------------- solver guts

def test_rk_step_failure_is_reported(monkeypatch):
    # A discontinuous right-hand side defeats the error controller.
    def nasty(t, y):
        return np.array([math.copysign(1e6, math.sin(1e5 * t))])

    monkeypatch.setattr(_rk, "_MAX_STEPS", 2000)
    sol = _rk.solve(nasty, np.array([1.0]), 1.0, rtol=1e-12, atol=1e-12)
    assert sol.status in ("step_failure", "reached_end")
    # Either outcome must leave a usable trajectory prefix.
    assert sol.ts.size >= 1


def test_rk_dense_output_accuracy():
    sol = _rk.solve(lambda t, y: np.array([y[1], -y[0]]),
                    np.array([1.0, 0.0]), 6.0, rtol=1e-10, atol=1e-10)
    ts = np.linspace(0, 6, 500)
    ys = sol.eval_dense(ts)
    assert np.max(np.abs(ys[:, 0] - np.cos(ts))) <= 1e-8


def _orbit_solution(t_end=60.0):
    # A long periodic orbit: thousands of nodes, so random queries span
    # several dense-output chunks.
    return integrate(P(1.5, 1, -2), IntegrationConfig(t_end=t_end))._sol


def test_dense_output_at_all_nodes_is_bitwise():
    sol = _orbit_solution()
    out = sol.eval_dense(sol.ts)
    assert out.shape == sol.ys.shape
    assert np.array_equal(out, sol.ys)


def test_dense_output_batches_match_the_per_point_formula():
    sol = _orbit_solution()
    rng = np.random.default_rng(5)
    ts = rng.uniform(sol.ts[0], sol.ts[-1], 3 * _rk._CHUNK + 17)
    out = sol.eval_dense(ts)
    seg = np.searchsorted(sol.ts, ts) - 1
    h = sol.hs[seg + 1]
    theta = (ts - sol.ts[seg]) / h
    powers = theta[:, None] ** np.arange(1, 5)
    ref = sol.ys[seg] + h[:, None] * np.einsum("kdj,kj->kd", sol.dense_q[seg], powers)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(sol.ys))


def test_dense_output_scalar_shape_and_span():
    sol = _orbit_solution(t_end=3.0)
    y = sol.eval_dense(1.2345)
    assert y.shape == (2,)
    assert np.array_equal(y, sol.eval_dense(np.array([1.2345]))[0])
    for t in (-0.1, 3.1):
        with pytest.raises(ValueError):
            sol.eval_dense(t)
    with pytest.raises(ValueError):
        sol.eval_dense(np.array([1.0, 3.1]))


def test_dense_output_of_a_single_node():
    sol = _rk.solve(lambda t, y: (y[1], -y[0]), (1.0, 0.5), 0.0)
    assert sol.ts.size == 1 and sol.dense_q.shape == (0, 2, 4)
    assert np.array_equal(sol.eval_dense(0.0), [1.0, 0.5])
    assert np.array_equal(sol.eval_dense(np.array([0.0, 0.0])), [[1.0, 0.5], [1.0, 0.5]])
    out = sol.eval_dense(np.zeros(3 * _rk._CHUNK + 17))
    assert out.shape == (3 * _rk._CHUNK + 17, 2) and np.all(out == [1.0, 0.5])


def _queries_over_three_chunks(sol, rng):
    """Sorted, shuffled and repeated times over at least three chunks: every
    node time, the span's end and uniform draws inside the span."""
    n = 3 * _rk._CHUNK + 17
    extra = rng.uniform(sol.ts[0], sol.ts[-1], max(n - sol.ts.size - 1, 0))
    times = np.concatenate([sol.ts, [sol.ts[-1]], extra])
    return {"sorted": np.sort(times), "shuffled": rng.permutation(times),
            "repeated": rng.choice(times, n)}


@pytest.mark.parametrize("which", ["scale", "three-axis"])
def test_dense_output_array_path_is_bitwise_the_scalar_path(which):
    if which == "scale":
        sol = _orbit_solution(t_end=30.0)
    else:
        sol = integrate_scales_3d(ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0,
                                                  a_init=(1.0, 1.2, 0.8)), 3.0)._sol
    assert sol.ys.shape[1] == (2 if which == "scale" else 6)
    rng = np.random.default_rng(8)
    for kind, ts in _queries_over_three_chunks(sol, rng).items():
        assert ts.size >= 3 * _rk._CHUNK + 17
        out = sol.eval_dense(ts)
        ref = np.array([sol.eval_dense(t) for t in ts.tolist()])
        assert out.shape == ref.shape == (ts.size, sol.ys.shape[1])
        assert np.ascontiguousarray(out).tobytes() == ref.tobytes(), kind


def test_dense_output_rejects_nan_times():
    traj = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=3.0))
    nan = float("nan")
    for t in (nan, np.array(nan), np.array([nan]), np.array([0.5, nan]), [nan, 0.5, 1.0]):
        with pytest.raises(ValueError, match="outside covered span"):
            traj._sol.eval_dense(t)
    with pytest.raises(ValueError, match="outside covered span"):
        traj.state_at(nan)
    for ts in ([0.5, nan], nan, np.full(3, nan)):
        with pytest.raises(ValueError, match="outside covered span"):
            traj.sample(ts)


def _reference_step(f, t0, y0, h):
    """One Dormand-Prince trial step in numpy, straight from the tableau arrays."""
    K = np.empty((7, y0.size))
    K[0] = f(t0, y0)
    for i in range(1, 7):
        c = _rk._C[i] if i < 6 else 1.0
        K[i] = f(t0 + c * h, y0 + h * (K[:i].T @ _rk._A[i - 1]))
    return y0 + h * (K.T @ np.append(_rk._A[-1], 0.0)), h * (K.T @ _rk._E), K


@pytest.mark.parametrize("f, y0", [
    (lambda t, y: (y[1], -math.sin(y[0]) + 0.3 * t), (0.7, -0.2)),
    (lambda t, y: (y[3], y[4], y[5], -y[0] * y[1], y[2] - t, math.cos(y[0] + y[5])),
     (1.0, 0.8, 1.3, 0.1, -0.4, 0.25)),
])
def test_first_step_matches_a_numpy_reference(f, y0):
    # Guards the written-out stage sums against transcription errors.
    y0 = np.array(y0)
    sol = _rk.solve(f, y0, 1.0, rtol=1e-8, atol=1e-8)
    h = sol.hs[1]
    y_ref, err_ref, K = _reference_step(f, 0.0, y0, h)
    assert np.max(np.abs(sol.ys[1] - y_ref)) <= 1e-14 * np.max(np.abs(y_ref))
    assert np.max(np.abs(sol.dense_q[0] - K.T @ _rk._P)) <= 1e-14 * np.max(np.abs(K))
    scale = 1e-8 + 1e-8 * np.maximum(np.abs(y0), np.abs(y_ref))
    norm_ref = np.sqrt(np.mean((err_ref / scale) ** 2))
    _, err, _, record = _rk._trial(f, (False,) * y0.size, 1e-8, 1e-8, 0.0, list(y0), list(K[0]), h)
    stages = np.array(list(record)).reshape(y0.size, 7).T
    assert np.max(np.abs(stages - K)) <= 1e-14 * np.max(np.abs(K))
    assert abs(err - norm_ref) <= 1e-14 * h * np.max(np.abs(K / scale))


def test_scale_loop_first_step_matches_a_numpy_reference():
    # solve_scale writes its stages out on named floats; guard its transcription too.
    force = (2.5, -1.3, -0.7)
    y0 = np.array([1.2, -0.4])
    sol = _rk.solve_scale(*force, y0, 1.0, rtol=1e-8, atol=1e-8)
    h = sol.hs[1]
    y_ref, _, K = _reference_step(_rk.scale_rhs(*force), 0.0, y0, h)
    assert np.max(np.abs(sol.ys[1] - y_ref)) <= 1e-14 * np.max(np.abs(y_ref))
    assert np.max(np.abs(sol.dense_q[0] - K.T @ _rk._P)) <= 1e-14 * np.max(np.abs(K))


def _outcome(step, f, positive, y, h):
    """One trial step from t = 0 as bytes, or how it was rejected."""
    try:
        y_new, err, k7, record = step(f, tuple(i in positive for i in range(len(y))), 1e-8,
                                      1e-8, 0.0, list(y), list(f(0.0, y)), h)
    except _rk._StageRejected:
        return "rejected"
    except ArithmeticError as exc:
        return type(exc)
    return np.array([*y_new, err, *k7, *record]).tobytes()


def _pendulum(t, y):
    return y[1], -math.sin(y[0]) + 0.3 * t


def _inf_at_the_new_point(y, h):
    """_pendulum, but infinite at the endpoint of the step of size h from y."""
    y_new = _rk._trial(_pendulum, (False, False), 1.0, 1.0, 0.0, list(y),
                       list(_pendulum(0.0, y)), h)[0]
    return lambda t, u: (u[1], math.inf) if list(u) == y_new else _pendulum(t, u)


def _raises_past(t_bad):
    def f(t, y):
        if t > t_bad:
            raise ZeroDivisionError
        return y[1], -y[0]
    return f


@pytest.mark.parametrize("f, y, h, expected", [
    (_pendulum, (0.7, -0.2), 0.1, "accepted"),
    (_inf_at_the_new_point((0.7, -0.2), 0.1), (0.7, -0.2), 0.1, "rejected"),
    (lambda t, y: (y[1], math.inf if t > 0.0 else 1.0), (1.0, 0.5), 0.1, "rejected"),
    (lambda t, y: (y[1], -y[0] * 1e306), (10.0, 0.0), 100.0, "rejected"),
    (lambda t, y: (y[1], 0.0), (0.01, -1.0), 0.5, "not positive"),
    (_raises_past(0.05), (1.0, 0.0), 0.1, ZeroDivisionError),
], ids=["accepted", "inf-at-the-new-point", "inf-stage", "overflow", "non-positive",
        "arithmetic-error"])
@pytest.mark.parametrize("positive", [(), (0,)])
def test_generic_step_outcome(f, y, h, expected, positive):
    out = _outcome(_rk._trial, f, positive, y, h)
    if expected == "not positive":
        expected = "rejected" if positive else "accepted"
    if expected == "accepted":
        assert isinstance(out, bytes)
    else:
        assert out == expected


def _scale_exit(handoff=0.0, collapse_tol=0.0, q_floor=0.0):
    """solve_scale's exit rules as solve's node_exit callback."""
    def node_exit(t, y):
        q, qdot = y
        if qdot < 0.0:
            if q < handoff:
                return "handoff"
            if collapse_tol and (q <= q_floor or 2.0 * q / -qdot <= collapse_tol * max(1.0, t)):
                return "collapsed"
        return None
    return node_exit


def _through_solve(A, C, P, y0, t_end, *, rtol=1e-10, atol=1e-10, max_step=math.inf, **exits):
    """solve_scale's run made by the generic solve, with the equivalent callbacks."""
    return _rk.solve(_rk.scale_rhs(A, C, P), y0, t_end, rtol=rtol, atol=atol,
                     max_step=max_step, positive=(0,), step_bound=_tangent_bound,
                     node_exit=_scale_exit(**exits))


def _tangent_bound(t, y):
    """solve_scale's step bound as solve's callback: q/|qdot| while q falls."""
    return y[0] / -y[1] if y[1] < 0.0 else None


def _assert_same_run(scale, generic):
    """Two RkSolutions agree bitwise: nodes, stages, status and counters."""
    for name in ("ts", "ys", "hs", "dense_q"):
        assert getattr(scale, name).tobytes() == getattr(generic, name).tobytes(), name
    for name in ("status", "message", "nfev", "naccepted", "nrejected"):
        assert getattr(scale, name) == getattr(generic, name), name


def _assert_scale_loop_is_solve(p, cfg):
    """integrate through solve_scale and through solve agree bitwise; returns the first."""
    scale = integrate(p, cfg)._sol
    with mock.patch.object(_rk, "solve_scale", _through_solve):
        generic = integrate(p, cfg)._sol
    _assert_same_run(scale, generic)
    return scale


def _scale_reference(A, C, P, positive):
    """The generic step's callback for qddot = A + C q^P.

    With q flagged positive it is scale_rhs; with no flag its force is NaN
    at q <= 0, so the generic step rejects those stages one stage later.
    """
    rhs = _rk.scale_rhs(A, C, P)
    if positive:
        return rhs
    return lambda t, y: rhs(t, y) if y[0] > 0.0 else (y[1], math.nan)


@pytest.mark.parametrize("force, y, h, accepted", [
    ((2.5, -1.3, -0.7), (1.2, -0.4), 0.1, True),
    # Only C q^P at the new point (q = 8.3e-4) overflows, to -inf; q0 has this
    # exit only inside a window 1.1e-8 wide.
    ((0.0, -2.0, -100.0), (0.98210942, 0.0), 0.1, False),
    # C q^P at stage 2 (q = 2) overflows to inf; qdot at stage 3 is inf.
    ((0.0, 1e308, 1.0), (1.0, 1.0), 5.0, False),
    # qdot at stage 2 overflows to -inf.
    ((-1e307, 1.0, -2.0), (1.0, 0.0), 100.0, False),
    # q at stage 3 is -3.5.
    ((-100.0, 1.0, -2.0), (1.0, 0.0), 1.0, False),
    # q^P at stage 2 (q = 3) raises OverflowError in the scale step; scale_rhs gives inf.
    ((0.0, 1.0, 1000.0), (1.0, 1.0), 10.0, False),
], ids=["accepted", "inf-at-the-new-point", "inf-stage", "overflow", "non-positive",
        "arithmetic-error"])
@pytest.mark.parametrize("positive", [(), (0,)])
def test_two_component_step_is_bitwise_the_generic_step(force, y, h, accepted, positive):
    # Each case's first trial step leaves solve_scale's step by a different exit;
    # the run to t = h (rejected steps are retried smaller, down to the step
    # floor) is bitwise solve's with the equivalent callbacks.
    ref = _scale_reference(*force, positive)
    out = _outcome(_rk._trial, ref, positive, y, h)
    assert isinstance(out, bytes) if accepted else out == "rejected"
    with mock.patch.object(_rk, "_initial_step", lambda *args: h):
        scale = _rk.solve_scale(*force, y, h)
        generic = _rk.solve(ref, y, h, positive=positive, step_bound=_tangent_bound)
    _assert_same_run(scale, generic)


def _force_overflows(p, cfg):
    """Whether a stage force q^(1 - gamma) of the run overflows (scale_rhs maps it to inf)."""
    fpow, powers = _rk._fpow, []

    def recorded(x, e):
        powers.append(fpow(x, e))
        return powers[-1]

    with mock.patch.object(_rk, "_fpow", recorded), \
            mock.patch.object(_rk, "solve_scale", _through_solve):
        integrate(p, cfg)
    return math.inf in powers


_EXPANDING_GAMMA50 = (P(50, 1, 1, a1=1.0), 1e4)
_FORCE_OVERFLOW = (P(50, 0, 1e-290, a1=-1.0), 3.0)


@pytest.mark.parametrize("p, t_end, status", [
    (P(1.5, 1, -2), 30.0, "reached_end"),
    (P(2, 1, -2), 20.0, "reached_end"),
    (P(2, 1, -1, a1=-0.001), 3000.0, "collapsed"),
    (*_EXPANDING_GAMMA50, "reached_end"),
    (*_FORCE_OVERFLOW, "reached_end"),
], ids=["periodic", "2b-collapse", "2aII-collapse", "expanding-gamma50", "force-overflow"])
def test_solve_is_bitwise_the_same_through_either_step(p, t_end, status):
    # A gamma = 2 collapse runs to its closed-form root t*: the 2b run reaches
    # it (the tangent of the concave q = 1 - t^2 meets zero past t* = 1), and
    # the 2aII run ends on its remaining-time bound just before t* = 1000.
    sol = _assert_scale_loop_is_solve(p, IntegrationConfig(t_end=t_end))
    assert (sol.status, sol.message) == (status, "")


def test_gamma50_orbits_reach_the_limits_of_the_force():
    # Far out on the expanding orbit q^(1 - gamma) underflows to 0; the
    # bounce off the gamma = 50 wall at q = 1.1e-6 sends a stage below the
    # 5e-7 where it overflows, and that trial step is rejected.
    p, t_end = _EXPANDING_GAMMA50
    sol = integrate(p, IntegrationConfig(t_end=t_end))._sol
    assert sol.ys[-1, 0] ** (1 - p.gamma) == 0.0
    assert not _force_overflows(p, IntegrationConfig(t_end=t_end))
    p, t_end = _FORCE_OVERFLOW
    assert _force_overflows(p, IntegrationConfig(t_end=t_end))
    assert integrate(p, IntegrationConfig(t_end=t_end)).terminal.kind == "reached_end"


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(1.0, 4.0, exclude_min=True), xi=st.floats(-3.0, 3.0),
       lam=st.floats(-5.0, 5.0), a0=st.floats(0.05, 3.0), a1=st.floats(-3.0, 3.0))
def test_scale_loop_is_bitwise_solve_over_the_sweep_ranges(gamma, xi, lam, a0, a1):
    # The q phase: a gamma > 2, lam < 0 draw hands off to the plunge loop,
    # which the tests below compare with solve.
    _assert_scale_loop_is_solve(P(gamma, xi, lam, a0=a0, a1=a1), IntegrationConfig(t_end=5.0))


# ----------------------------------------------------------- the plunge in Sundman time

def _plunge_bound(k, max_step):
    """solve_plunge's step bounds as solve's callback: a/|w| while a falls, and max_step/a^k."""
    def bound(s, y):
        b = y[0] / -y[1] if y[1] < 0.0 else math.inf
        u = _rk._fpow(y[0], k)
        if max_step < math.inf and u > 0.0:
            b = min(b, max_step / u)
        return b
    return bound


def _plunge_exit(k, t_end, collapse_tol, a_floor):
    """solve_plunge's exit rules as solve's node_exit callback."""
    def node_exit(s, y):
        a, w, t = y
        if t >= t_end:
            return "reached_end"
        if w < 0.0 and (a <= a_floor or a ** k * a / -w <= collapse_tol * max(1.0, t)):
            return "collapsed"
        return None
    return node_exit


def _plunge_through_solve(B, D, k, y0, t_end, collapse_tol, a_floor, *, rtol=1e-10,
                          atol=1e-10, max_step=math.inf):
    """solve_plunge's run made by the generic solve, with the equivalent callbacks."""
    return _rk.solve(_rk.plunge_rhs(B, D, k), y0, math.inf, rtol=rtol, atol=atol,
                     positive=(0,), step_bound=_plunge_bound(k, max_step),
                     node_exit=_plunge_exit(k, t_end, collapse_tol, a_floor))


@pytest.mark.parametrize("force, y, h, accepted", [
    ((2.0, 0.5, 2.0), (0.8, -0.3, 0.1), 0.05, True),
    # Only u^2/a at the new point overflows, to inf; a0 has this exit only
    # inside a window about 2.5e-4 wide.
    ((1.0, 0.0, 50.0), (1.002695, 1.0, 0.0), 0.1, False),
    # u^2/a at stage 2 (a = 1220) overflows to inf; w at stage 3 is inf.
    ((1.0, 0.0, 50.0), (1200.0, 100.0, 0.0), 1.0, False),
    # w at stage 2 overflows to -inf.
    ((-1e307, 0.0, 1.0), (1.0, 0.0, 0.0), 100.0, False),
    # a at stage 3 is -3.5.
    ((-100.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0, False),
    # a^k at stage 2 (a = 3) raises OverflowError in the plunge step; plunge_rhs gives inf.
    ((1.0, 0.0, 1000.0), (1.0, 1.0, 0.0), 10.0, False),
], ids=["accepted", "inf-at-the-new-point", "inf-stage", "overflow", "non-positive",
        "arithmetic-error"])
def test_three_component_step_is_bitwise_the_generic_step(force, y, h, accepted):
    # As for the scale loop: each case's first trial step leaves solve_plunge's
    # step by a different exit, and the run to the first accepted step past
    # t = y[2] is bitwise solve's with the equivalent callbacks.
    out = _outcome(_rk._trial, _rk.plunge_rhs(*force), (0,), y, h)
    assert isinstance(out, bytes) if accepted else out == "rejected"
    t_stop = math.nextafter(y[2], math.inf)
    with mock.patch.object(_rk, "_initial_step", lambda *args: h):
        plunge = _rk.solve_plunge(*force, y, t_stop, 0.0, 0.0)
        generic = _plunge_through_solve(*force, y, t_stop, 0.0, 0.0)
    _assert_same_run(plunge, generic)


def test_plunge_loop_first_step_matches_a_numpy_reference():
    force, y0 = (2.0, 0.5, 2.0), np.array([0.8, -0.3, 0.1])
    sol = _rk.solve_plunge(*force, y0, 10.0, 1e-8, 0.0, rtol=1e-8, atol=1e-8)
    h = sol.hs[1]
    y_ref, _, K = _reference_step(_rk.plunge_rhs(*force), 0.0, y0, h)
    assert np.max(np.abs(sol.ys[1] - y_ref)) <= 1e-14 * np.max(np.abs(y_ref))
    assert np.max(np.abs(sol.dense_q[0] - K.T @ _rk._P)) <= 1e-14 * np.max(np.abs(K))


def _assert_plunge_loop_is_solve(p, cfg):
    """integrate through solve_plunge and through solve agree bitwise; returns the first."""
    traj = integrate(p, cfg)
    with mock.patch.object(_rk, "solve_plunge", _plunge_through_solve):
        generic = integrate(p, cfg)
    assert (traj._plunge is None) == (generic._plunge is None)
    if traj._plunge is not None:
        _assert_same_run(traj._plunge, generic._plunge)
    assert traj.terminal == generic.terminal
    for name in ("ts", "a", "adot", "hs"):
        assert getattr(traj, name).tobytes() == getattr(generic, name).tobytes(), name
    return traj


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(2.0, 4.0, exclude_min=True), xi=st.floats(-3.0, 3.0),
       lam=st.floats(-5.0, 0.0, exclude_max=True), a0=st.floats(0.05, 3.0),
       a1=st.floats(-3.0, 3.0), max_step=st.sampled_from([math.inf, 0.05]))
def test_plunge_loop_is_bitwise_solve_over_the_sweep_ranges(gamma, xi, lam, a0, a1, max_step):
    _assert_plunge_loop_is_solve(P(gamma, xi, lam, a0=a0, a1=a1),
                                 IntegrationConfig(t_end=5.0, max_step=max_step))


def test_plunge_hands_off_below_the_barrier_only():
    # gamma = 3, xi = 1, lam = -2: the barrier is at a = sqrt(2).  From rest at
    # a0 = 1 the orbit falls at once; the first q node hands off.
    traj = integrate(P(3, 1, -2), IntegrationConfig(t_end=2.0))
    assert traj._sol.ts.size == 2 and traj._sol.status == "handoff"
    # Falling from below the barrier at t = 0: no q step at all.
    traj = integrate(P(3, 1, -2, a1=-0.5), IntegrationConfig(t_end=2.0))
    assert traj._sol.ts.size == 1 and traj.ts[0] == 0.0 and traj.terminal.kind == "collapsed"
    # Outside the barrier, or rising, or lam >= 0, or gamma = 2: q alone.
    for p in (P(3, 1, -2, a0=2.0, a1=1.0), P(3, 1, 2, a1=-0.5), P(2, 1, -2)):
        assert integrate(p, IntegrationConfig(t_end=2.0))._plunge is None


def test_plunge_events_agree_with_the_blowup_quadrature():
    # Seeded gamma > 2 collapses over the ranges of the totality sweep: every
    # event lies within 0.99 units of rel_tol max(1, t*) from the quadrature's
    # t* (the worst measured, 0.98, is at gamma = 2.97), and every run plunges.
    rng = np.random.default_rng(2024)
    drawn, worst = 0, 0.0
    while drawn < 200:
        p = P(rng.uniform(2.0, 4.0), rng.uniform(-3, 3), rng.uniform(-5, 0),
              a0=rng.uniform(0.05, 3.0), a1=rng.uniform(-3, 3))
        r = classify(p, locate_blowup=True)
        if r.kind != "finite-time-blowup" or r.blowup_time is None:
            continue
        drawn += 1
        traj = integrate(p, IntegrationConfig(t_end=1.5 * r.blowup_time + 1.0))
        assert traj.terminal.kind == "collapsed" and traj._plunge is not None
        worst = max(worst, abs(traj.terminal.t - r.blowup_time) / max(1.0, r.blowup_time))
    assert worst <= 0.99 * IntegrationConfig.rel_tol


def _plunging_orbit(**cfg):
    # t* = pi/4: E0 = 0 for gamma = 3, xi = 1, lam = -2 from rest at a0 = 1.
    return integrate(P(3, 1, -2), IntegrationConfig(**{"t_end": 2.0, **cfg}))


def test_plunge_state_at_and_sample_agree_and_reproduce_nodes():
    traj = _plunging_orbit()
    t_h = float(traj._sol.ts[-1])
    ts = np.linspace(0.0, traj.ts[-1], 2001)
    assert np.count_nonzero(ts > t_h) > 1900
    a, adot = traj.sample(ts)
    for t, x, y in zip(ts.tolist(), a, adot):
        st = traj.state_at(t)
        assert (st.a, st.adot) == (x, y)
    # The run ends while its steps still move t (the time left is at least
    # rel_tol max(1, t)/gamma), so no two nodes share a time.
    assert np.all(np.diff(traj.ts) > 0.0)
    for k in range(traj.ts.size):
        st = traj.state_at(float(traj.ts[k]))
        assert (st.a, st.adot) == (traj.a[k], traj.adot[k])
    a, adot = traj.sample(traj.ts)
    assert np.array_equal(a, traj.a) and np.array_equal(adot, traj.adot)
    with pytest.raises(ValueError, match="outside covered span"):
        traj.state_at(traj.ts[-1] + 1e-6)


def test_a_horizon_inside_the_plunge_ends_there():
    full = _plunging_orbit()
    assert full.terminal.kind == "collapsed"
    assert full.terminal.t == pytest.approx(math.pi / 4, abs=1e-10)
    for t_end in (0.3, 0.7, 0.78):
        traj = _plunging_orbit(t_end=t_end)
        assert traj.terminal == TerminalEvent(kind="reached_end", t=t_end)
        assert traj.ts[-1] == t_end and traj.covers(0.0, t_end)
        st, ref = traj.state_at(t_end), full.state_at(t_end)
        assert (st.a, st.adot) == (traj.a[-1], traj.adot[-1])
        assert st.a == pytest.approx(ref.a, rel=1e-9)
        assert st.adot == pytest.approx(ref.adot, rel=1e-9)


def test_plunge_steps_honour_max_step_in_t():
    for max_step in (0.003, 0.01):
        traj = _plunging_orbit(max_step=max_step)
        assert np.max(np.diff(traj.ts)) <= max_step
        assert traj.terminal.t == pytest.approx(math.pi / 4, abs=1e-10)


def test_a_gamma50_plunge_ends_on_its_bound_before_its_speed_overflows():
    # gamma = 50: a^49 underflows to 0 below a = 2.5e-7 while w stays about
    # constant, where adot = w a^(1 - gamma) would be -inf.  The remaining-time
    # bound a^50/|w| falls to rel_tol max(1, t) near a = 0.54 already, so every
    # node's speed and drift are finite, and the event meets the quadrature's t*.
    p = P(50, 1, -2)
    traj = _assert_plunge_loop_is_solve(p, IntegrationConfig(t_end=2.0))
    assert traj.terminal.kind == "collapsed" and traj.terminal.message == ""
    t_star = classify(p, locate_blowup=True).blowup_time
    assert abs(traj.terminal.t - t_star) <= 0.3 * IntegrationConfig.rel_tol
    assert 0.5 < traj.a[-1] < 0.6
    assert np.all(np.isfinite(traj.adot)) and np.all(traj.drift <= 1e-11)


@pytest.mark.parametrize("gamma", [2.2, 4.0, 50.0])
def test_a_collapse_epsilon_past_the_resolution_of_s_changes_no_plunge(gamma):
    # In s the plunge cannot resolve a below about 1e-15 of its handoff scale,
    # and it need not: the remaining-time bound ends the run first (at
    # a = 2.8e-5, 1.7e-3 and 0.54), so collapse_epsilon = 1e-120 gives the
    # default run bit for bit.
    p = P(gamma, 1, -2)
    traj = _assert_plunge_loop_is_solve(p, IntegrationConfig(t_end=2.0, collapse_epsilon=1e-120))
    default = integrate(p, IntegrationConfig(t_end=2.0))
    assert traj.terminal == default.terminal and traj.terminal.kind == "collapsed"
    for name in ("ts", "a", "adot"):
        assert getattr(traj, name).tobytes() == getattr(default, name).tobytes(), name


def test_trajectory_exposes_solver_counters():
    traj = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=10.0))
    assert traj.naccepted == traj.ts.size - 1
    assert traj.nfev == 2 + 6 * (traj.naccepted + traj.nrejected)
    with pytest.raises(AttributeError):
        traj.nfev = 0
    # A plunge's counters add to its q phase's; each phase starts with two evaluations.
    traj = _plunging_orbit()
    assert traj.naccepted == traj.ts.size - 1 == traj._plunge.naccepted + 1
    assert traj.nfev == 4 + 6 * (traj.naccepted + traj.nrejected)
