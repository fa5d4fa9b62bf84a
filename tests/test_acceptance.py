"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
from scipy.optimize import brentq

from swirlgas import (
    ThreeAxisParams,
    FvConfig,
    GenericRotationField,
    Grid3Spec,
    GridSpec,
    IntegrationConfig,
    SolutionParams,
    certify,
    classify,
    closed_form_gamma2,
    euler_residual_2d,
    euler_residual_3d,
    integrate,
    integrate_scales_3d,
    mass_residual_generic_g,
    period_quadrature,
    run_and_compare,
    zhang_zheng_arrays,
    zhang_zheng_embedding,
    zz_direct_residual,
)
from swirlgas.fields import eval_flow_arrays

GAMMA2_ORACLE = SolutionParams(gamma=2, K=1, xi=1, lam=0, alpha=1, a0=1, a1=0)
PERIODIC = SolutionParams(gamma=1.5, K=1, xi=1, lam=-2, alpha=1, a0=1, a1=0)
BLOWUP = SolutionParams(gamma=2, K=1, xi=1, lam=-2, alpha=1, a0=1, a1=0)
GAMMA3 = SolutionParams(gamma=3, K=1, xi=1, lam=-1, alpha=1, a0=2, a1=0)
LINEAR_BLOWUP = SolutionParams(gamma=2, K=1, xi=1, lam=-1, alpha=1, a0=1, a1=-0.5)
GENERIC = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_gamma2_closed_form_oracle():
    t0 = time.perf_counter()
    traj = integrate(GAMMA2_ORACLE, IntegrationConfig(t_end=2.0))
    ts = np.linspace(0.0, 2.0, 2001)
    a, _ = traj.sample(ts)
    err = float(np.max(np.abs(a - np.sqrt(1.0 + ts ** 2))))
    elapsed = time.perf_counter() - t0
    report(1, "gamma2-closed-form", err <= 1e-8 and elapsed < 1.0,
           f"max |a_num - sqrt(1+t^2)| = {err:.3e} (<= 1e-8), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_energy_conservation():
    traj = integrate(PERIODIC, IntegrationConfig(t_end=10.0))
    drift = float(traj.drift.max())
    report(2, "energy-conservation", drift <= 1e-9,
           f"relative drift over [0, 10] = {drift:.3e} (<= 1e-9)")


def test_criterion_03_classification_table():
    expected = [(PERIODIC, "1"), (BLOWUP, "2b-blowup"),
                (GAMMA3, "3bI-global"), (LINEAR_BLOWUP, "2aII")]
    mismatches = 0
    branches = []
    for params, want in expected:
        regime = classify(params)
        branches.append(regime.branch)
        if regime.branch != want:
            mismatches += 1
            continue
        certify(params, regime, horizon=20.0)  # raises on disagreement
    report(3, "classification-table", mismatches == 0,
           f"branches {branches} == ['1', '2b-blowup', '3bI-global', '2aII'], "
           f"all four certified by integration")


def test_criterion_04_period_round_trip():
    t0 = time.perf_counter()
    pr = period_quadrature(PERIODIC)
    traj = integrate(PERIODIC, IntegrationConfig(t_end=3.0 * pr.period))

    def adot_at(t):
        return traj.state_at(float(t)).adot

    sign = np.sign(traj.adot)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    roots = [brentq(adot_at, traj.ts[k], traj.ts[k + 1], xtol=1e-13)
             for k in flips[:2]]
    t_return = roots[1]  # second rate zero: one full period from a turning start
    rel = abs(pr.period - t_return) / t_return
    elapsed = time.perf_counter() - t0
    report(4, "period-round-trip", rel <= 1e-5 and elapsed < 5.0,
           f"|T_quad - T_return|/T_return = {rel:.3e} (<= 1e-5), "
           f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_05_blowup_time():
    traj = integrate(BLOWUP, IntegrationConfig(t_end=2.0))
    regime = classify(BLOWUP)
    ok = (traj.terminal.kind == "collapsed"
          and abs(traj.terminal.t - 1.0) <= 1e-6
          and abs(regime.blowup_time - 1.0) <= 1e-6)
    report(5, "blowup-time", ok,
           f"event at t = {traj.terminal.t!r}, closed form t* = {regime.blowup_time!r} "
           f"(both within 1e-6 of 1)")


def test_criterion_06_pde_exactness():
    traj = integrate(GENERIC, IntegrationConfig(t_end=1.0))

    def residual(h):
        grid = GridSpec(kind="annulus", r_lo=0.3, r_hi=2.0, n_r=16, n_theta=24,
                        h=h, h_t=h / 2)
        return euler_residual_2d(GENERIC, traj, 0.5, grid)

    rep = residual(1e-3)
    worst = rep.max_normalized
    per_eq = {k: v["max"] for k, v in rep.equations.items()}
    ratio = worst / residual(5e-4).max_normalized
    ok = all(v <= 1e-6 for v in per_eq.values()) and 3.0 <= ratio <= 5.0
    report(6, "pde-exactness", ok,
           f"normalized residuals {per_eq} (every equation <= 1e-6), "
           f"halving h reduces by {ratio:.2f} (in [3, 5])")


def test_criterion_07_fixture_and_embedding():
    grid = GridSpec(kind="annulus", r_lo=0.1, r_hi=2.0, n_r=20, n_theta=24, h=5e-4)
    direct = zz_direct_residual(1.0, 1.0, grid).max_normalized
    p = zhang_zheng_embedding(1.0)
    rng = np.random.default_rng(2)
    x = rng.uniform(-2.5, 2.5, 100)
    y = rng.uniform(-2.5, 2.5, 100)
    worst_rho = worst_speed = 0.0
    for t in (1.0, 1.6):
        st = closed_form_gamma2(p, t - 1.0)  # family clock 0 = fixture time 1
        rho_f, u1_f, u2_f, _ = eval_flow_arrays(p, st, x, y)
        rho_z, u1_z, u2_z, _ = zhang_zheng_arrays(t, x, y, 1.0)
        worst_rho = max(worst_rho, float(np.max(np.abs(rho_f - rho_z))))
        worst_speed = max(worst_speed, float(np.max(np.abs(
            np.hypot(u1_f, u2_f) - np.hypot(u1_z, u2_z)))))
    ok = direct <= 1e-7 and worst_rho <= 1e-12 and worst_speed <= 1e-12
    report(7, "fixture-and-embedding", ok,
           f"direct-path residual {direct:.3e} (<= 1e-7); embedding density "
           f"diff {worst_rho:.2e}, speed diff {worst_speed:.2e} (<= 1e-12 at 100 points)")


def test_criterion_08_mass_identity_generality():
    rng = np.random.default_rng(7)
    grid = GridSpec(kind="annulus", r_lo=0.3, r_hi=2.0, n_r=16, n_theta=24,
                    h=1e-3, h_t=1e-4)
    values = []
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, 5)
        spec = GenericRotationField(
            f=lambda eta: np.exp(-eta ** 2),
            G=lambda t, r, c=c: c[0] + c[1] * r + c[2] * r ** 2 + c[3] * r ** 3 + c[4] * r ** 4,
            a=lambda t: 1.0 + 0.5 * t, adot=lambda t: 0.5)
        values.append(mass_residual_generic_g(spec, 0.5, grid))
    worst = max(values)
    report(8, "mass-identity-generality", worst <= 1e-6,
           f"max normalized mass residual over 5 random swirl polynomials = "
           f"{worst:.3e} (<= 1e-6)")


def test_criterion_09_viscous_equivalence():
    traj = integrate(GENERIC, IntegrationConfig(t_end=1.0))
    grid = GridSpec(kind="annulus", r_lo=0.3, r_hi=2.0, n_r=16, n_theta=24,
                    h=1e-2, h_t=5e-4)
    base = euler_residual_2d(GENERIC, traj, 0.5, grid)
    vnorms, diffs = {}, []
    for mu in (1.0, 3.7):
        ns = euler_residual_2d(GENERIC, traj, 0.5, grid, mu=mu)
        vnorms[mu] = ns.viscous_term_normalized
        diffs.append(max(abs(ns.equations[eq]["max"] - base.equations[eq]["max"])
                         for eq in ("momentum-x", "momentum-y")))
    ok = all(v <= 1e-10 for v in vnorms.values()) and max(diffs) <= 1e-10
    report(9, "viscous-equivalence", ok,
           f"|mu lap(u)| normalized = {vnorms} (<= 1e-10); inviscid vs viscous "
           f"momentum residual difference {max(diffs):.2e} (<= 1e-10)")


def test_criterion_10_three_axis_family():
    t0 = time.perf_counter()
    iso = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0)
    sc_iso = integrate_scales_3d(iso, 1.0)
    rep_iso = euler_residual_3d(iso, sc_iso, 0.5,
                                Grid3Spec(half_width=0.4, n=7, h=1e-3, h_t=5e-4),
                                tolerance=1e-6)

    drift_case = ThreeAxisParams(gamma=1.4, K=1.0, xi3=0.0, alpha3=1.0,
                                    drift0=(0.1, 0.0, -0.2),
                                    drift_rate=(0.3, -0.1, 0.05))
    sc_drift = integrate_scales_3d(drift_case, 1.0)
    rep_drift = euler_residual_3d(drift_case, sc_drift, 0.5,
                                  Grid3Spec(half_width=0.4, n=7, h=1e-3, h_t=5e-4),
                                  tolerance=1e-6)

    aniso = ThreeAxisParams(gamma=1.4, K=1.0, xi3=1.0, alpha3=1.0,
                               a_init=(1.0, 1.2, 0.8), drift_rate=(0.1, 0.0, -0.05))
    sc_an = integrate_scales_3d(aniso, 1.0)
    residuals = [euler_residual_3d(aniso, sc_an, 0.5,
                                   Grid3Spec(half_width=0.4, n=7, h=h, h_t=h / 2),
                                   tolerance=1e-6)
                 for h in (4e-3, 2e-3, 1e-3)]
    order = float(np.polyfit(np.log([4e-3, 2e-3, 1e-3]),
                             np.log([r.max_normalized for r in residuals]), 1)[0])
    verdict = residuals[-1].verdict
    elapsed = time.perf_counter() - t0
    ok = (rep_iso.verdict == "PASS" and rep_drift.verdict == "PASS"
          and rep_drift.max_normalized <= 1e-8
          and verdict in ("PASS", "FAIL") and verdict == "PASS"
          and 1.5 <= order <= 4.5 and elapsed < 60.0)
    report(10, "three-axis-family", ok,
           f"isotropic {rep_iso.max_normalized:.2e} PASS, pure-drift "
           f"{rep_drift.max_normalized:.2e} PASS (<= 1e-8), anisotropic-with-drift "
           f"verdict {verdict} at 1e-6 with observed order {order:.2f}, "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_11_fv_benchmark():
    t0 = time.perf_counter()
    traj = integrate(GENERIC, IntegrationConfig(t_end=0.5))
    cfg = FvConfig(x_lo=-1.2, x_hi=1.2, y_lo=-1.2, y_hi=1.2, t0=0.0, t_end=0.2)
    rep = run_and_compare(GENERIC, traj, cfg, [64, 128, 256])
    elapsed = time.perf_counter() - t0
    decreasing = rep.l1_rho[0] > rep.l1_rho[1] > rep.l1_rho[2]
    orders_ok = all(0.7 <= o <= 1.2 for o in rep.orders_l1_rho)
    ok = decreasing and orders_ok and elapsed < 120.0
    report(11, "fv-benchmark", ok,
           f"L1 density errors {[f'{e:.3e}' for e in rep.l1_rho]} strictly "
           f"decreasing, observed orders {[f'{o:.2f}' for o in rep.orders_l1_rho]} "
           f"(in [0.7, 1.2]), runtime {elapsed:.1f}s (< 2min)")
