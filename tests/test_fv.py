"""Finite-volume benchmark: initialization, stepping, convergence, guards."""

import numpy as np
import pytest
from scipy.integrate import dblquad

from swirlgas import (
    BoxOutsideSupport,
    ConservativeField,
    FvConfig,
    IntegrationConfig,
    NonFiniteState,
    NonPositiveTime,
    SolutionParams,
    StepBudgetExceeded,
    TrajectoryTooShort,
    init_from_exact,
    run_and_compare,
    step,
    integrate,
    zhang_zheng_embedding,
)
from swirlgas.emden import Trajectory
from swirlgas.fields import eval_flow_arrays, zhang_zheng_arrays
from swirlgas import fv
from swirlgas.fv import _errors_vs_exact, run

GENERIC = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
STATIC = SolutionParams(gamma=1.4, K=1, xi=0.0, lam=0.0, alpha=1, a0=1, a1=0)
SOD_GAS = SolutionParams(gamma=1.4, K=1, xi=0, lam=0, alpha=1, a0=1, a1=0)
SOD_TUBE = FvConfig(x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=0.1, nx=128, ny=16,
                    boundary="outflow", t0=0.0, t_end=0.1)


@pytest.fixture(scope="module")
def generic_traj():
    return integrate(GENERIC, IntegrationConfig(t_end=0.5))


@pytest.fixture(scope="module")
def static_traj():
    return integrate(STATIC, IntegrationConfig(t_end=0.5))


def test_config_validation():
    with pytest.raises(ValueError):
        FvConfig(cfl=1.5)
    with pytest.raises(ValueError):
        FvConfig(nx=8)
    with pytest.raises(ValueError):
        FvConfig(boundary="periodic")
    # A cell of 1.25e-321 squared is 0: every L1 error would read 0, and the
    # exact density at a cell centre squares coordinates of that size.
    with pytest.raises(ValueError, match="CellAreaUnderflow:0.0"):
        FvConfig(x_lo=-1e-320, x_hi=1e-320, y_lo=-1e-320, y_hi=1e-320, nx=16, ny=16)


def test_a_cfl_step_that_underflows_is_a_step_budget_error():
    # A cell 1.25e-301 wide against a sound speed of about 1e30: dt is 0, and
    # the run could never reach t_end.
    loud = SolutionParams(gamma=1.5, K=1e60, xi=1.0, lam=-2.0, alpha=1.0, a0=1.0, a1=0.0)
    traj = integrate(loud, IntegrationConfig(t_end=0.5))
    cfg = FvConfig(x_lo=-1e-300, x_hi=1e-300, y_lo=-1.0, y_hi=1.0, nx=16, ny=16, t_end=0.1)
    with pytest.raises(StepBudgetExceeded, match="underflows to 0.0"):
        run(loud, traj, cfg)


def test_init_uniform_static(static_traj):
    cfg = FvConfig(nx=16, ny=16, t_end=0.1)
    field = init_from_exact(STATIC, static_traj, cfg)
    assert np.all(field.rho == field.rho[1, 1])
    assert np.all(field.m1 == 0.0) and np.all(field.m2 == 0.0)


def test_init_matches_fixture_samples():
    p = zhang_zheng_embedding(1.0)
    traj = integrate(p, IntegrationConfig(t_end=0.3))
    cfg = FvConfig(x_lo=-0.8, x_hi=0.8, y_lo=-0.8, y_hi=0.8, nx=16, ny=16, t_end=0.1)
    field = init_from_exact(p, traj, cfg)
    xg, yg = cfg.centers()
    rho, u1, u2, _ = zhang_zheng_arrays(1.0, xg, yg, 1.0)  # family clock 0 = fixture time 1
    assert np.max(np.abs(field.rho - rho)) <= 1e-14
    assert np.max(np.abs(field.m1 - rho * u1)) <= 1e-14
    assert np.max(np.abs(field.m2 - rho * u2)) <= 1e-14


def test_init_total_mass_midpoint_error(generic_traj):
    st = generic_traj.state_at(0.0)

    def rho_xy(y, x):
        return eval_flow_arrays(GENERIC, st, np.array([x]), np.array([y]))[0][0]

    exact, _ = dblquad(rho_xy, -1.0, 1.0, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    errs = []
    for n in (32, 64):
        cfg = FvConfig(x_lo=-1, x_hi=1, y_lo=-1, y_hi=1, nx=n, ny=n, t_end=0.0)
        field = init_from_exact(GENERIC, generic_traj, cfg)
        total = float(np.sum(field.interior()[0])) * cfg.dx * cfg.dy
        errs.append(abs(total - exact))
    # Midpoint-rule error shrinks at second order under mesh doubling.
    assert errs[1] <= errs[0] / 2.5


def test_init_box_outside_support(generic_traj):
    cfg = FvConfig(x_lo=-3.0, x_hi=3.0, y_lo=-3.0, y_hi=3.0, nx=16, ny=16, t_end=0.1)
    with pytest.raises(BoxOutsideSupport):
        init_from_exact(GENERIC, generic_traj, cfg)


def test_init_rejects_a_trajectory_that_ends_before_the_run():
    # The orbit collapses at t = 1 and the density has full support, so no
    # support check stops a run to t = 2 from chasing the collapse.
    blowup = SolutionParams(gamma=2.0, K=1.0, xi=1.0, lam=-2.0, alpha=1.0, a0=1.0, a1=0.0)
    traj = integrate(blowup, IntegrationConfig(t_end=2.0))
    assert traj.terminal.kind == "collapsed"
    cfg = FvConfig(nx=16, ny=16, t_end=2.0)
    with pytest.raises(TrajectoryTooShort) as exc:
        init_from_exact(blowup, traj, cfg)
    assert str(exc.value) == f"need [0.0, 2.0] inside {traj.t_span}"


def test_step_uniform_static_is_exact(static_traj):
    cfg = FvConfig(nx=16, ny=16, t_end=0.1)
    field = init_from_exact(STATIC, static_traj, cfg)
    before = field.rho.copy()
    for _ in range(5):
        step(field, STATIC, static_traj)
    assert np.array_equal(field.rho[1:-1, 1:-1], before[1:-1, 1:-1])
    assert field.floor_events == 0


def test_single_step_deviation_first_order(generic_traj):
    devs = []
    for n in (32, 64):
        cfg = FvConfig(x_lo=-1, x_hi=1, y_lo=-1, y_hi=1, nx=n, ny=n, t_end=0.1)
        field = init_from_exact(GENERIC, generic_traj, cfg)
        dt = step(field, GENERIC, generic_traj, dt_cap=0.4 * (2.0 / 64) / 3.0)
        xg, yg = cfg.centers()
        sl = (slice(1, -1), slice(1, -1))
        rho_e = eval_flow_arrays(GENERIC, generic_traj.state_at(field.t),
                                 xg[sl], yg[sl])[0]
        devs.append(np.max(np.abs(field.rho[sl] - rho_e)))
    # Same dt on both grids: the spatial truncation error halves with dx.
    assert devs[1] <= devs[0] * 0.75


def test_positivity_and_no_flooring(generic_traj):
    cfg = FvConfig(x_lo=-1.2, x_hi=1.2, y_lo=-1.2, y_hi=1.2, nx=32, ny=32, t_end=0.1)
    field = run(GENERIC, generic_traj, cfg)
    assert np.min(field.rho[1:-1, 1:-1]) >= cfg.rho_floor
    assert field.floor_events == 0


def test_non_finite_detection(static_traj):
    cfg = FvConfig(nx=16, ny=16, t_end=0.1)
    field = init_from_exact(STATIC, static_traj, cfg)
    field.rho[5, 5] = np.nan
    with pytest.raises(NonFiniteState):
        step(field, STATIC, static_traj)


def test_sod_tube_monotone_positive():
    field = _sod_field(SOD_TUBE)
    while field.t < SOD_TUBE.t_end:
        step(field, SOD_GAS, None, dt_cap=SOD_TUBE.t_end - field.t)
    profile = field.rho[1:-1, 8]
    assert np.min(profile) > 0.1
    assert np.all(np.diff(profile) <= 1e-12)
    assert field.floor_events == 0


def test_zero_horizon_errors_vanish(generic_traj):
    # A run to its start time is the initial field, the exact one at the centres.
    for n in (16, 32):
        cfg = FvConfig(x_lo=-1, x_hi=1, y_lo=-1, y_hi=1, nx=n, ny=n, t0=0.0, t_end=0.0)
        field = run(GENERIC, generic_traj, cfg)
        assert _errors_vs_exact(field, GENERIC, generic_traj)[:2] == (0.0, 0.0)


@pytest.mark.parametrize("t_end", [0.0, -0.1])
def test_non_positive_horizon_is_rejected(generic_traj, t_end):
    # At a zero horizon every error vanishes, so no order can be observed.
    cfg = FvConfig(x_lo=-1, x_hi=1, y_lo=-1, y_hi=1, t0=0.0, t_end=t_end)
    with pytest.raises(NonPositiveTime):
        run_and_compare(GENERIC, generic_traj, cfg, [16, 32])


def test_convergence_orders(generic_traj):
    cfg = FvConfig(x_lo=-1.2, x_hi=1.2, y_lo=-1.2, y_hi=1.2, t0=0.0, t_end=0.1)
    report = run_and_compare(GENERIC, generic_traj, cfg, [32, 64, 128])
    assert report.l1_rho[0] > report.l1_rho[1] > report.l1_rho[2]
    for order in report.orders_l1_rho:
        assert 0.7 <= order <= 1.2
    assert report.floor_events == (0, 0, 0)


def test_determinism(generic_traj):
    cfg = FvConfig(x_lo=-1, x_hi=1, y_lo=-1, y_hi=1, t0=0.0, t_end=0.05)
    r1 = run_and_compare(GENERIC, generic_traj, cfg, [32, 64])
    r2 = run_and_compare(GENERIC, generic_traj, cfg, [32, 64])
    assert r1 == r2


def test_run_requires_trajectory_for_exact_boundaries(static_traj):
    cfg = FvConfig(nx=16, ny=16, t_end=0.1)
    field = init_from_exact(STATIC, static_traj, cfg)
    with pytest.raises(ValueError):
        step(field, STATIC, None)


# The step before the fused kernel, kept verbatim (only renamed) as the
# reference that the fused step must match bit for bit.

def _sound_speed(rho, params: SolutionParams):
    return np.sqrt(params.gamma * params.K * rho ** (params.gamma - 1.0))


def _flux_x(rho, m1, m2, params):
    u = m1 / rho
    p = params.K * rho ** params.gamma
    return m1, m1 * u + p, m2 * u


def _flux_y(rho, m1, m2, params):
    v = m2 / rho
    p = params.K * rho ** params.gamma
    return m2, m1 * v, m2 * v + p


def _fill_ghosts(field: ConservativeField, params, traj, t: float):
    cfg = field.cfg
    if cfg.boundary == "outflow":
        for q in (field.rho, field.m1, field.m2):
            q[0, :] = q[1, :]
            q[-1, :] = q[-2, :]
            q[:, 0] = q[:, 1]
            q[:, -1] = q[:, -2]
        return
    if traj is None:
        raise ValueError("exact-Dirichlet boundaries need the scale trajectory")
    xg, yg = cfg.centers()
    state = traj.state_at(t)
    ring = np.zeros_like(xg, dtype=bool)
    ring[0, :] = ring[-1, :] = True
    ring[:, 0] = ring[:, -1] = True
    rho, u1, u2, _ = eval_flow_arrays(params, state, xg[ring], yg[ring])
    field.rho[ring] = rho
    field.m1[ring] = rho * u1
    field.m2[ring] = rho * u2


def _reference_step(field: ConservativeField, params: SolutionParams,
                    traj: Trajectory | None = None, dt_cap: float | None = None) -> float:
    """Advance one forward-Euler step with Rusanov fluxes; returns dt used.

    Ghost cells are refreshed at the current time before the fluxes are
    formed.  Densities below the floor are clamped (and counted).  NaN or
    Inf anywhere aborts via NonFiniteState with diagnostics.
    """
    cfg = field.cfg
    _fill_ghosts(field, params, traj, field.t)
    rho, m1, m2 = field.rho, field.m1, field.m2
    u1 = m1 / rho
    u2 = m2 / rho
    c = _sound_speed(rho, params)
    smax = float(np.max(np.maximum(np.abs(u1), np.abs(u2)) + c))
    dt = cfg.cfl * min(cfg.dx, cfg.dy) / smax
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    fx = _flux_x(rho, m1, m2, params)
    fy = _flux_y(rho, m1, m2, params)
    ax = np.abs(u1) + c
    ay = np.abs(u2) + c

    # x faces between columns i and i+1 (rows trimmed to the interior).
    amax_x = np.maximum(ax[:-1, 1:-1], ax[1:, 1:-1])
    flux_x = [0.5 * (f[:-1, 1:-1] + f[1:, 1:-1]) - 0.5 * amax_x * (q[1:, 1:-1] - q[:-1, 1:-1])
              for f, q in zip(fx, (rho, m1, m2))]
    amax_y = np.maximum(ay[1:-1, :-1], ay[1:-1, 1:])
    flux_y = [0.5 * (f[1:-1, :-1] + f[1:-1, 1:]) - 0.5 * amax_y * (q[1:-1, 1:] - q[1:-1, :-1])
              for f, q in zip(fy, (rho, m1, m2))]

    lam_x, lam_y = dt / cfg.dx, dt / cfg.dy
    for q, gx, gy in zip((field.rho, field.m1, field.m2), flux_x, flux_y):
        q[1:-1, 1:-1] -= lam_x * (gx[1:, :] - gx[:-1, :]) + lam_y * (gy[:, 1:] - gy[:, :-1])

    inner = field.rho[1:-1, 1:-1]
    low = inner < cfg.rho_floor
    if np.any(low):
        field.floor_events += int(np.count_nonzero(low))
        inner[low] = cfg.rho_floor
    field.t += dt
    if not (np.all(np.isfinite(field.rho)) and np.all(np.isfinite(field.m1))
            and np.all(np.isfinite(field.m2))):
        raise NonFiniteState(f"non-finite cell state at t = {field.t}")
    return dt




def _sod_field(cfg):
    xg, _ = cfg.centers()
    rho0 = np.where(xg <= 0.5 * (cfg.x_lo + cfg.x_hi), 1.0, 0.125)
    zeros = np.zeros_like(rho0)
    return ConservativeField(cfg, rho0, zeros, zeros, 0.0)


def _pocket_field(cfg):
    # A low-density pocket flowing apart: the floor at 0.3 clips it every step.
    xg, yg = cfg.centers()
    rho0 = 1.0 - 0.8 * np.exp(-8.0 * (xg ** 2 + yg ** 2))
    return ConservativeField(cfg, rho0, rho0 * (0.5 * xg), rho0 * (-0.3 * yg), 0.0)


@pytest.mark.parametrize("case", ["generic-40x24", "generic-24x40", "sod-128x16", "floor"])
def test_fused_step_is_bitwise_the_reference_step(case, generic_traj):
    if case.startswith("generic"):
        nx, ny = map(int, case.split("-")[1].split("x"))
        params, traj = GENERIC, generic_traj
        field = init_from_exact(GENERIC, generic_traj, FvConfig(nx=nx, ny=ny, t_end=0.1))
    elif case == "sod-128x16":
        params, traj = SOD_GAS, None
        field = _sod_field(SOD_TUBE)
    else:
        params, traj = SolutionParams(gamma=1.5, K=2, xi=0, lam=0, alpha=1, a0=1, a1=0), None
        field = _pocket_field(FvConfig(nx=24, ny=40, rho_floor=0.3, boundary="outflow"))
    ref = ConservativeField(field.cfg, field.rho, field.m1, field.m2, field.t)
    t_end = field.cfg.t_end
    dts, ref_dts = [], []
    while field.t < t_end:
        dts.append(step(field, params, traj, dt_cap=t_end - field.t))
        ref_dts.append(_reference_step(ref, params, traj, dt_cap=t_end - ref.t))
    assert dts == ref_dts and len(dts) > 5
    inner = (slice(None), slice(1, -1), slice(1, -1))
    assert np.array_equal(field.U[inner], ref.U[inner])
    assert field.floor_events == ref.floor_events
    assert (field.floor_events > 0) == (case == "floor")


def test_field_rows_are_views_of_the_state(static_traj):
    field = init_from_exact(STATIC, static_traj, FvConfig(nx=16, ny=16, t_end=0.1))
    field.rho[2, 3], field.m1[4, 5], field.m2[6, 7] = 7.0, 8.0, 9.0
    assert (field.U[0, 2, 3], field.U[1, 4, 5], field.U[2, 6, 7]) == (7.0, 8.0, 9.0)
    assert field.interior()[0].base is field.U


def test_run_statistics_of_the_default_table():
    # The CLI's default `fvbench --preset generic-smooth` table: its 209 steps
    # are the fv.step calls per round of the fv-convergence benchmark.
    traj = integrate(GENERIC, IntegrationConfig(t_end=0.3))
    cfg = FvConfig(x_lo=-1.2, x_hi=1.2, y_lo=-1.2, y_hi=1.2, t0=0.0, t_end=0.2)
    report = run_and_compare(GENERIC, traj, cfg, [64, 128, 256])
    diag = {k: list(v) for k, v in report.diagnostics.items()}
    assert list(diag) == ["steps", "dt_min", "dt_max", "max_wave_speed"]
    assert diag["steps"] == [30, 60, 119]
    for k in range(3):
        assert 0.0 < diag["dt_min"][k] <= diag["dt_max"][k]
        assert diag["max_wave_speed"][k] > 0.0
    # The stable dt halves with dx while the peak wave speed barely moves.
    assert diag["dt_max"][1] == pytest.approx(diag["dt_max"][0] / 2, rel=0.02)
    assert diag["max_wave_speed"][2] == pytest.approx(diag["max_wave_speed"][0], rel=0.02)


def test_a_run_that_would_take_too_many_steps_stops_at_its_first():
    # A sound speed of 1e15 makes the CFL step 1e-17: 1e15 steps to t = 0.05.
    loud = SolutionParams(gamma=1.4, K=1e30, xi=50.0, lam=0.9, alpha=1.0, a0=1.0, a1=0.5)
    traj = integrate(loud, IntegrationConfig(t_end=0.15))
    cfg = FvConfig(nx=16, ny=16, t_end=0.05)
    calls = []
    real = fv.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fv, "step", counted)
        with pytest.raises(StepBudgetExceeded, match="predicts"):
            run(loud, traj, cfg)
    assert len(calls) == 1


def test_a_run_stops_at_the_step_budget(generic_traj, monkeypatch):
    # The first step predicts 10 steps to t_end; each later one is half the last.
    real = fv.step

    def halving(field, params, traj, dt_cap=None):
        return real(field, params, traj, dt_cap=0.02 * 0.5 ** field.stats["steps"])

    monkeypatch.setattr(fv, "step", halving)
    monkeypatch.setattr(fv, "_STEPS_PER_CELL", 2)
    with pytest.raises(StepBudgetExceeded, match="32 steps end at t = "):
        run(GENERIC, generic_traj, FvConfig(nx=16, ny=16, t_end=0.2))


def test_the_step_budget_grows_with_the_cells(generic_traj, monkeypatch):
    # fvbench --resolutions 64,128,256,512,1024 --horizon 5 predicts about
    # 11,900 steps on its finest grid, 12 per cell.  A stand-in step of span /
    # 20,000 (78 per cell at 256 cells) runs to t_end and is not rejected by
    # the first step's prediction.
    cfg = FvConfig(nx=256, ny=256, t_end=0.2)

    def uniform(field, params, traj, dt_cap=None):
        dt = min(cfg.t_end / 20_000, dt_cap)
        field.t += dt
        field.stats["steps"] += 1
        return dt

    monkeypatch.setattr(fv, "step", uniform)
    field = run(GENERIC, generic_traj, cfg)
    assert field.t == cfg.t_end and field.stats["steps"] >= 20_000
