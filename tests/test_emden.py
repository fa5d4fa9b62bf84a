"""Scale-factor dynamics: right-hand side, energy, integration, oracles."""

import math

import numpy as np
import pytest

from swirlgas import (
    CollapsedAtOrBefore,
    CollapsedState,
    IntegrationConfig,
    ScaleState,
    SolutionParams,
    ThreeAxisParams,
    closed_form_gamma2,
    emden_rhs,
    energy_drift,
    energy_of,
    gamma2_scale_squared_coeffs,
    integrate,
    integrate_scales_3d,
)
from swirlgas import _rk
from swirlgas.emden import _first_positive_root


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


# ----------------------------------------------------------- energy

def test_energy_values():
    e = energy_of(1.0, 0.0, P(1.5, 1, -2))
    assert e.E == pytest.approx(0.5 - 2.0, abs=1e-15)      # 2g-2 = 1
    e = energy_of(1.0, 0.0, P(2, 1, 0))
    assert e.E == pytest.approx(0.5, abs=1e-15)
    e = energy_of(1.0, 0.0, P(3, 1, -1))
    assert e.E == pytest.approx(0.5 - 0.25, abs=1e-15)     # 2g-2 = 4
    assert e.E == e.F_kin + e.F_pot


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
        t_star = _first_positive_root(c2, c1, c0)
        traj = integrate(p, IntegrationConfig(t_end=2.0 * t_star + 1.0))
        assert traj.terminal.kind == "collapsed"
        assert abs(traj.terminal.t - t_star) <= 1e-10 * max(1.0, t_star)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12, 3e-13, 1e-13])
def test_linear_collapse_double_root_ends_collapsed(tol):
    # 2aII: q = (1 - 0.001 t)^2 touches zero at t = 1000.  Rounding lifts or
    # lowers that double root by a few eps, more than collapse_epsilon^2, and
    # a = collapse_epsilon falls 1e-5 before the root; the touch is the turn.
    traj = integrate(P(2, 1, -1, a1=-0.001),
                     IntegrationConfig(rel_tol=tol, abs_tol=tol, t_end=3000.0))
    assert traj.terminal.kind == "collapsed"
    assert abs(traj.terminal.t - 1000.0) <= 1e-6      # classify's 2aII bracket


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
    assert energy_drift(traj) <= 1e-14


def test_drift_periodic_orbit():
    traj = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=2.5))
    assert energy_drift(traj) <= 1e-9


def test_drift_vs_closed_form():
    traj = integrate(P(2, 0.8, -0.3, a0=1.1, a1=0.2), IntegrationConfig(t_end=3.0))
    assert energy_drift(traj) <= 1e-9
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
            assert energy_drift(traj) <= 100 * cfg.rel_tol


# ----------------------------------------------------------- solver guts

def test_rk_step_failure_is_reported():
    # A discontinuous right-hand side defeats the error controller.
    def nasty(t, y):
        return np.array([math.copysign(1e6, math.sin(1e5 * t))])

    sol = _rk.solve(nasty, 0.0, np.array([1.0]), 1.0, rtol=1e-12, atol=1e-12,
                    max_steps=2000)
    assert sol.status in ("step_failure", "reached_end")
    # Either outcome must leave a usable trajectory prefix.
    assert sol.ts.size >= 1


def test_rk_dense_output_accuracy():
    sol = _rk.solve(lambda t, y: np.array([y[1], -y[0]]), 0.0,
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
    sol = _rk.solve(lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.5), 0.0)
    assert sol.ts.size == 1 and sol.dense_q.shape == (0, 2, 4)
    assert np.array_equal(sol.eval_dense(0.0), [1.0, 0.5])
    assert np.array_equal(sol.eval_dense(np.array([0.0, 0.0])), [[1.0, 0.5], [1.0, 0.5]])


def _reference_step(f, t0, y0, h):
    """One Dormand-Prince trial step in numpy, straight from the tableau arrays."""
    K = np.empty((7, y0.size))
    K[0] = f(t0, y0)
    for i in range(1, 7):
        c = _rk._C[i] if i < 6 else 1.0
        K[i] = f(t0 + c * h, y0 + h * (K[:i].T @ _rk._A[i - 1]))
    return y0 + h * (K.T @ _rk._B), h * (K.T @ _rk._E), K


@pytest.mark.parametrize("f, y0", [
    (lambda t, y: (y[1], -math.sin(y[0]) + 0.3 * t), (0.7, -0.2)),
    (lambda t, y: (y[3], y[4], y[5], -y[0] * y[1], y[2] - t, math.cos(y[0] + y[5])),
     (1.0, 0.8, 1.3, 0.1, -0.4, 0.25)),
])
def test_first_step_matches_a_numpy_reference(f, y0):
    # Guards the written-out stage sums against transcription errors.
    y0 = np.array(y0)
    sol = _rk.solve(f, 0.0, y0, 1.0, rtol=1e-8, atol=1e-8)
    h = sol.hs[1]
    y_ref, err_ref, K = _reference_step(f, 0.0, y0, h)
    assert np.max(np.abs(sol.ys[1] - y_ref)) <= 1e-14 * np.max(np.abs(y_ref))
    assert np.max(np.abs(sol.dense_q[0] - K.T @ _rk._P)) <= 1e-14 * np.max(np.abs(K))
    scale = 1e-8 + 1e-8 * np.maximum(np.abs(y0), np.abs(y_ref))
    norm_ref = np.sqrt(np.mean((err_ref / scale) ** 2))
    for trial in (_rk._trial, _rk._trial2) if y0.size == 2 else (_rk._trial,):
        _, err, _, record = trial(f, (False,) * y0.size, 1e-8, 1e-8, 0.0, list(y0), list(K[0]), h)
        stages = np.array(list(record)).reshape(y0.size, 7).T
        assert np.max(np.abs(stages - K)) <= 1e-14 * np.max(np.abs(K))
        assert abs(err - norm_ref) <= 1e-14 * h * np.max(np.abs(K / scale))


def _outcome(step, f, positive, y, h):
    """One trial step from t = 0 as bytes, or how it was rejected."""
    try:
        y_new, err, k7, record = step(f, (0 in positive, 1 in positive), 1e-8, 1e-8,
                                      0.0, list(y), list(f(0.0, y)), h)
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
def test_two_component_step_is_bitwise_the_generic_step(f, y, h, expected, positive):
    out = _outcome(_rk._trial2, f, positive, y, h)
    assert out == _outcome(_rk._trial, f, positive, y, h)
    if expected == "not positive":
        expected = "rejected" if positive else "accepted"
    if expected == "accepted":
        assert isinstance(out, bytes)
    else:
        assert out == expected


@pytest.mark.parametrize("p, t_end, message", [
    (P(1.5, 1, -2), 30.0, ""),
    (P(3, 1, -2), 20.0, "step floor reached inside the stop neighborhood"),
    (P(2, 1, -1, a1=-0.001), 3000.0, ""),
], ids=["periodic", "collapse-at-the-step-floor", "2aII-touch"])
def test_solve_is_bitwise_the_same_through_either_step(p, t_end, message, monkeypatch):
    cfg = IntegrationConfig(t_end=t_end)
    written_out = integrate(p, cfg)._sol
    monkeypatch.setattr(_rk, "_trial2", _rk._trial)
    generic = integrate(p, cfg)._sol
    assert written_out.message == message
    for name in ("ts", "ys", "hs", "dense_q"):
        assert getattr(written_out, name).tobytes() == getattr(generic, name).tobytes()
    for name in ("status", "stop_t", "stop_bracket", "message", "nfev", "naccepted",
                 "nrejected"):
        assert getattr(written_out, name) == getattr(generic, name)


def test_trajectory_exposes_solver_counters():
    traj = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=10.0))
    assert traj.naccepted == traj.ts.size - 1
    assert traj.nfev == 2 + 6 * (traj.naccepted + traj.nrejected)
    with pytest.raises(AttributeError):
        traj.nfev = 0
