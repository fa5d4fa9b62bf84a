"""Decision tree, turning points, period quadrature, certification."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import swirlgas
from swirlgas import emden, regimes
from swirlgas import (
    CertificationMismatch,
    DegenerateOrbit,
    IntegrationConfig,
    IntegrationFailed,
    InvalidParams,
    NoBracket,
    Regime,
    SolutionParams,
    ZeroRotation,
    certify,
    classify,
    energy_of,
    integrate,
    period_quadrature,
    potential,
    turning_points,
)
from swirlgas.orbit import barrier, collapse_time, parabola_collapse


def P(gamma, xi, lam, a0=1.0, a1=0.0, K=1.0, alpha=1.0):
    return SolutionParams(gamma=gamma, K=K, xi=xi, lam=lam, alpha=alpha, a0=a0, a1=a1)


# ----------------------------------------------------------- module boundary

def _imports(module):
    """(module relative to the package, imported names, private attributes read
    from a module name) for each import and attribute of swirlgas/<module>.py."""
    tree = ast.parse((Path(swirlgas.__file__).parent / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or "" if node.level else node.module.removeprefix("swirlgas")
            yield base.lstrip("."), [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            yield from ((a.name.removeprefix("swirlgas").lstrip("."), []) for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, [node.attr]


def test_the_orbit_module_sits_below_emden_and_regimes():
    # orbit is the one home of the potential's geometry: it imports neither of
    # the modules that use it, and regimes reads no private name of emden.
    for module, names in _imports("orbit"):
        assert module not in ("emden", "regimes"), (module, names)
        assert not (module == "" and {"emden", "regimes"} & set(names)), names
    for module, names in _imports("regimes"):
        if module == "emden":
            assert not [n for n in names if n.startswith("_")], names


# ----------------------------------------------------------- potential

def test_potential_values():
    assert potential(1.0, P(3, 1, -1)) == pytest.approx(0.25, abs=1e-15)
    for a in (0.3, 1.0, 2.7):
        assert potential(a, P(2, 1, -1)) == pytest.approx(0.0, abs=1e-15)
    assert potential(1.0, P(1.5, 1, -2)) == pytest.approx(-1.5, abs=1e-15)


# ----------------------------------------------------------- critical data

def certified_barrier(p):
    """orbit.barrier's (a*, F*), which classify's certificate carries bit for bit."""
    a_star, _, f_star = barrier(p)
    cert = classify(p).certificate
    assert [cert["a_max_scale"].hex(), cert["F_pot_at_max"].hex()] == [a_star.hex(), f_star.hex()]
    return a_star, f_star


def test_a_max_critical_values():
    for p in (P(3, 1, -1), P(3, 2, -4), P(4, 1, -1)):
        assert certified_barrier(p)[0] == pytest.approx(1.0, rel=1e-14)


def test_a_max_critical_is_local_max():
    p = P(2.7, 1.3, -0.8)
    a, f_star = certified_barrier(p)
    assert potential(a * 0.999, p) < f_star
    assert potential(a * 1.001, p) < f_star


def test_a_max_critical_of_a_swirl_whose_square_overflows():
    # ln xi^2 is 2 ln|xi|, so xi^2 = inf never forms: the barrier is at
    # a* = sqrt(-lam)/xi = 1e-200 with an infinite height.  Its E(0) is not
    # finite, so only barrier answers there.
    a_star, _, f_star = barrier(P(3, 1e200, -1))
    assert a_star == pytest.approx(1e-200, rel=1e-13)
    assert f_star == math.inf
    assert certified_barrier(P(3, 1e150, -1))[0] == pytest.approx(1e-150, rel=1e-14)


def test_a_max_critical_when_2_gamma_minus_2_overflows():
    # The height's factor (gamma - 2)/(2 gamma - 2) is formed from three logs;
    # its quotient was 0 here, and its log a math domain error.
    a_star, f_star = certified_barrier(P(1.7976931348623157e308, 1, -2))
    assert a_star == 1.0
    assert f_star == pytest.approx(0.5, rel=1e-12)


# ----------------------------------------------------------- turning points

def test_turning_points_degenerate_orbit():
    a_min, a_max = turning_points(P(1.5, 1, -2, a0=0.5))
    assert a_min == a_max == pytest.approx(0.5, rel=1e-12)


def test_turning_points_reference_orbit():
    # E0 = -1.5; roots of 1/(2a^2) - 2/a = -1.5 are a = 1/3 and a = 1.
    a_min, a_max = turning_points(P(1.5, 1, -2))
    assert a_min == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert a_max == pytest.approx(1.0, rel=1e-12)
    p = P(1.5, 1, -2)
    for a in (a_min, a_max):
        assert abs(potential(a, p) - (-1.5)) <= 1e-12


def test_turning_points_are_orbit_invariants():
    a_min, a_max = turning_points(P(1.5, 1, -2, a0=1.0 / 3.0))
    assert a_min == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert a_max == pytest.approx(1.0, rel=1e-12)
    # Restart from an interior point of the same orbit.
    st = integrate(P(1.5, 1, -2), IntegrationConfig(t_end=0.7)).state_at(0.7)
    b_min, b_max = turning_points(P(1.5, 1, -2, a0=st.a, a1=st.adot))
    assert b_min == pytest.approx(a_min, rel=1e-8)
    assert b_max == pytest.approx(a_max, rel=1e-8)


def test_turning_points_need_negative_energy():
    with pytest.raises(NoBracket):
        turning_points(P(1.5, 1, 0.5))
    with pytest.raises(NoBracket):
        turning_points(P(3, 1, -1))  # gamma out of range


def brentq_turning_points(p):
    """Oracle: scipy's brentq at full precision, on brackets grown by factors
    of 2 from the closed-form minimum of the potential."""
    e0 = energy_of(p.a0, p.a1, p).E

    def g(a):
        return potential(a, p) - e0

    a_eq = (-p.lam / p.xi ** 2) ** (1.0 / (2.0 * p.gamma - 4.0))
    lo = hi = a_eq
    while g(lo) <= 0.0:
        lo *= 0.5
    while g(hi) <= 0.0:
        hi *= 2.0
    tol = dict(xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=1000)
    return brentq(g, lo, a_eq, **tol), brentq(g, a_eq, hi, **tol)


def trapped_orbits(seed, gamma_range, count, zero_rate):
    """Seeded trapped orbits: gamma in gamma_range (inside (1, 2)), lam < 0, E(0) < 0."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        p = P(rng.uniform(*gamma_range), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0),
              rng.uniform(-5.0, -0.1), a0=rng.uniform(0.05, 3.0),
              a1=0.0 if zero_rate else rng.uniform(-3.0, 3.0))
        if energy_of(p.a0, p.a1, p).E < 0.0:
            found.append(p)
    return found


def root_fuzz(p, a):
    """Width of the band around a root a of F_pot - E(0) where the difference is
    below its rounding error: a few eps times the size of its terms over the
    slope |F_pot'(a)|.  It exceeds 1e-13 a near the bottom of the well (small
    slope) and close to gamma = 2, where the two potential terms cancel."""
    e0 = energy_of(p.a0, p.a1, p).E
    two_g_minus_2 = 2.0 * p.gamma - 2.0
    t1, t2 = p.xi ** 2 / (2 * a * a), p.lam / (two_g_minus_2 * a ** two_g_minus_2)
    # F_pot(a) = t1 + t2 and a F_pot'(a) = -2 t1 - (2 gamma - 2) t2.
    return 8.0 * np.finfo(float).eps * (abs(t1) + abs(t2) + abs(e0)) * a / abs(
        2.0 * t1 + two_g_minus_2 * t2)


@pytest.mark.parametrize("zero_rate", [False, True])
@pytest.mark.parametrize("gamma_range", [(1.05, 1.99), (1.99, 1.999)])
def test_turning_points_match_brentq(gamma_range, zero_rate):
    for p in trapped_orbits(11 + zero_rate, gamma_range, 100, zero_rate):
        try:
            got = turning_points(p)
        except NoBracket:   # the inner turning point lies below the 1e-150 cut
            continue
        for a, ref in zip(got, brentq_turning_points(p)):
            assert abs(a - ref) <= max(1e-13 * ref, root_fuzz(p, ref))


def test_import_loads_no_scipy():
    code = "import sys, swirlgas; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(swirlgas.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------- period

def return_time_oracle(p, t_end):
    """Brute force: integrate and locate the second rate zero-crossing with
    the starting sign pattern (start at a turning point with a1 = 0)."""
    traj = integrate(p, IntegrationConfig(t_end=t_end))

    def adot_at(t):
        return traj.state_at(float(t)).adot

    sign = np.sign(traj.adot)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    roots = [brentq(adot_at, traj.ts[k], traj.ts[k + 1], xtol=1e-13) for k in flips[:2]]
    assert len(roots) == 2, "did not observe a full period"
    return roots[1]


def test_period_matches_return_time():
    p = P(1.5, 1, -2)
    pr = period_quadrature(p)
    t_return = return_time_oracle(p, 3.0 * pr.period)
    assert abs(pr.period - t_return) / t_return <= 1e-5


def test_period_harmonic_limit():
    # Small oscillation about the equilibrium: T -> 2 pi / sqrt(V''(a_eq)),
    # with the curvature measured by independent finite differences.
    p_eq = P(1.5, 1, -2, a0=0.5)
    h = 1e-5
    v2 = (potential(0.5 + h, p_eq) - 2 * potential(0.5, p_eq)
          + potential(0.5 - h, p_eq)) / (h * h)
    p = P(1.5, 1, -2, a0=0.5 * (1 + 1e-3))
    pr = period_quadrature(p)
    assert abs(pr.period - 2 * math.pi / math.sqrt(v2)) / pr.period <= 1e-3


def test_period_degenerate_orbit_error():
    with pytest.raises(DegenerateOrbit):
        period_quadrature(P(1.5, 1, -2, a0=0.5))


def test_period_is_orbit_invariant():
    p = P(1.5, 1, -2)
    t0 = period_quadrature(p).period
    st = integrate(p, IntegrationConfig(t_end=0.9)).state_at(0.9)
    t1 = period_quadrature(P(1.5, 1, -2, a0=st.a, a1=st.adot)).period
    assert abs(t1 - t0) / t0 <= 1e-8


# ----------------------------------------------------------- classify

FIXTURES = [
    (P(1.5, 1, -2), "1", "time-periodic"),
    (P(2, 1, -2), "2b-blowup", "finite-time-blowup"),
    (P(3, 1, -1, a0=2.0), "3bI-global", "global"),
    (P(2, 1, -1, a1=-0.5), "2aII", "finite-time-blowup"),
]


@pytest.mark.parametrize("p,branch,kind", FIXTURES)
def test_classify_fixture_branches(p, branch, kind):
    r = classify(p)
    assert r.branch == branch
    assert r.kind == kind


def test_classify_fixture_certificates():
    r = classify(P(1.5, 1, -2))
    assert r.certificate["E0"] == pytest.approx(-1.5, abs=1e-14)
    assert r.period == pytest.approx(period_quadrature(P(1.5, 1, -2)).period, rel=1e-12)

    r = classify(P(2, 1, -2))
    assert r.blowup_time == pytest.approx(1.0, abs=1e-12)

    r = classify(P(3, 1, -1, a0=2.0))
    assert r.certificate["a_max_scale"] == pytest.approx(1.0, rel=1e-14)
    assert r.certificate["F_pot_at_max"] == pytest.approx(0.25, abs=1e-14)
    assert r.certificate["E0"] == pytest.approx(0.109375, abs=1e-14)

    r = classify(P(2, 1, -1, a1=-0.5))
    assert r.blowup_time == pytest.approx(2.0, abs=1e-14)
    assert r.certificate["linear_root"] == pytest.approx(2.0, abs=1e-14)
    assert r.certificate["rate_ratio"] == pytest.approx(0.5, abs=1e-14)
    assert r.notes  # the ratio-convention ambiguity is called out


def test_classify_requires_rotation():
    with pytest.raises(ZeroRotation):
        classify(P(2, 0.0, -1))


def test_classify_steady_states():
    r = classify(P(1.5, 1, -2, a0=0.5))
    assert r.kind == "steady" and r.branch == "1"
    r = classify(P(3, 1, -1, a0=1.0))
    assert r.kind == "steady" and r.branch == "3bI-global"
    r = classify(P(2, 1, -1, a1=0.0))
    assert r.kind == "steady" and r.branch == "2aI"


def test_classify_gamma2_boundaries():
    # xi^2 = -lam with a1 > 0: linear growth, global.
    assert classify(P(2, 1, -1, a1=0.3)).branch == "2aI"
    # Marginal 2b rate exactly at the threshold: global.
    r = classify(P(2, 1, -2, a1=1.0))
    assert r.branch == "2b-global" and r.kind == "global"
    assert classify(P(2, 1, -2, a1=0.999)).branch == "2b-blowup"
    assert classify(P(2, 1, -0.5)).branch == "2aI"


def test_classify_gamma3_branches():
    assert classify(P(3, 1, 0.5)).branch == "3a"
    assert classify(P(2.5, 1, -1, a0=3.0, a1=-2.0)).branch == "3bI-blowup"
    r = classify(P(3, 1, -1, a0=0.5), locate_blowup=True)
    assert r.branch == "3bII-blowup"
    assert r.blowup_bracket is not None
    lo, hi = r.blowup_bracket
    assert lo <= r.blowup_time <= hi
    # Clearing the barrier needs E0 >= F*(= 1/4) with outward rate:
    # E0 = a1^2/2 + F_pot(1/2) = a1^2/2 - 2, so a1 = 2.5 gives E0 = 1.125.
    assert classify(P(3, 1, -1, a0=0.5, a1=2.0)).branch == "3bII-blowup"
    assert classify(P(3, 1, -1, a0=0.5, a1=2.5)).branch == "3bII-global"


# ----------------------------------------------------------- certify

@pytest.mark.parametrize("p,branch,kind", FIXTURES)
def test_certify_fixtures(p, branch, kind):
    regime = classify(p)
    report = certify(p, regime, horizon=20.0)
    assert report.passed


def test_certify_blowup_event_in_bracket():
    regime = classify(P(2, 1, -2))
    report = certify(P(2, 1, -2), regime, horizon=5.0)
    assert abs(report.checks["event_time"] - 1.0) <= 1e-6


def test_certify_reports_event_margins():
    # Closed-form gamma = 2 collapse at t* = 1: the integrated q = 1 - t^2 is checked
    # at t* against its budget, |qdot| = 2 times the half-width 1e-10 plus the run's
    # tolerance share rel_tol max q + abs_tol = 2e-10; there is no event margin.
    regime = classify(P(2, 1, -2))
    assert regime.blowup_bracket == (1.0 - 1e-10, 1.0 + 1e-10)
    report = certify(P(2, 1, -2), regime, horizon=5.0)
    assert report.checks["event_time"] == 1.0 and "event_margin" not in report.checks
    assert abs(report.checks["q_at_event"]) <= 1e-15
    assert report.checks["q_budget"] == pytest.approx(4e-10, rel=1e-6)
    # Quadrature gamma > 2 bracket: its error enters the certificate.
    p = P(3, 1, -1, a0=0.5)
    regime = classify(p, locate_blowup=True)
    assert 0.0 <= regime.certificate["blowup_quad_error"] <= 1e-12
    lo, hi = regime.blowup_bracket
    report = certify(p, regime)
    margin = abs(report.checks["event_time"] - regime.blowup_time) / (0.5 * (hi - lo))
    assert report.checks["event_margin"] == pytest.approx(margin, rel=1e-6)
    assert report.checks["event_margin"] <= 1.0


# Cases on which the integration in a (not q = a^2) failed certify, as
# (gamma, xi, lam, a0, a1): the three regime-sweep faults and a periodic
# orbit with a_max / a_min = 40.
MENDED_BY_Q = {
    # a_min = 3.08e-5: the return missed by 4.0e-3.
    "deep-bounce": ((1.857604934988552, 0.4110078078837296, -2.791294969427409,
                     0.8170976717480969, -0.724354448302734), "time-periodic"),
    # a_max / a_min = 216, T = 1245: the return missed by 1.3e-6.
    "wide-orbit": ((1.1081704393536216, 1.7869396909645534, -0.5339627048259352,
                    1.1650893995745153, 0.9324657086172001), "time-periodic"),
    # gamma = 3.88: the step floor was reached at a = 1.02e-3, a step failure.
    "steep-collapse": ((3.8819809951524586, -0.3459854551904975, -1.723173265514836,
                        2.478008649030398, -0.13936775499563137), "finite-time-blowup"),
    # T = 8.66: the return missed by 2.06e-6.
    "width-40": ((1.339644808248847, -0.616442057637931, -2.976491689815568,
                  0.10584312751662779, 1.7220328902561803), "time-periodic"),
    # 2aII, t* = 1000: a = collapse_epsilon came 1e-5 before the root.
    "slow-linear-collapse": ((2.0, 1.0, -1.0, 1.0, -0.001), "finite-time-blowup"),
}


@pytest.mark.parametrize("case,kind", MENDED_BY_Q.values(), ids=MENDED_BY_Q)
def test_classify_and_certify_agree_on_mended_faults(case, kind):
    g, xi, lam, a0, a1 = case
    p = P(g, xi, lam, a0=a0, a1=a1)
    regime = classify(p, locate_blowup=True)
    assert regime.kind == kind
    report = certify(p, regime)
    assert report.passed and report.diagnostics["terminal"] == report.checks["terminal"]


# Near the barrier of a gamma > 2 collapse, t* goes like -log|E0 - F*|, so the
# integrator's energy error moves the event by more than the bracket's fixed
# 200 rel_tol max(1, t*).  This case certified when the scale was integrated
# in a (event 80 units from t*) and does not in q (248 units).
@pytest.mark.xfail(strict=True, raises=CertificationMismatch,
                   reason="event 248 units of rel_tol max(1, t*) from t*; the bracket is 200")
def test_near_barrier_collapse_certifies():
    p = P(2.0258945336936307, -1.4659826454235778, -1.970857156003798,
          a0=1.2264120434222827, a1=-1.171344269424501)
    certify(p, classify(p, locate_blowup=True))


def test_near_barrier_collapses_certify_at_the_recorded_rate():
    # |E0 - F*| from 1e-5 to 1e-2 of F*: 22 of these 30 certify (21 when the
    # scale was integrated in a).  Fewer means the event gap has grown.
    rng = np.random.default_rng(5)
    drawn = passed = 0
    while drawn < 30:
        g, xi, lam = rng.uniform(2, 4), rng.uniform(-3, 3), rng.uniform(-5, 0)
        a0, p = rng.uniform(0.05, 3), P(g, xi, lam)
        e0 = barrier(p)[2] * (1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-5, -2))
        gap = e0 - potential(a0, p)
        if not 0.0 < gap < math.inf:
            continue
        p = P(g, xi, lam, a0=a0, a1=rng.choice([-1, 1]) * math.sqrt(2.0 * gap))
        r = classify(p, locate_blowup=True)
        if r.kind != "finite-time-blowup" or r.blowup_time is None:
            continue
        drawn += 1
        try:
            passed += certify(p, r).passed
        except CertificationMismatch:
            pass
    assert passed >= 22


def test_certify_reports_a_failed_integration():
    # lam = 1e160 at a1 = 1e-320: the first step fails at the step floor.
    p = P(3, 1, 1e160, a0=2.0, a1=1e-320)
    regime = classify(p, locate_blowup=True)
    assert regime.kind == "global"
    with pytest.raises(IntegrationFailed) as exc:
        certify(p, regime)
    assert exc.value.t == 0.0
    assert exc.value.reason.startswith("tolerance unmet at the step floor")


def test_certify_of_a_bounce_below_the_step_floor_is_an_integration_failure():
    # A periodic orbit with a_min = 8.3e-9: its q run cannot resolve the
    # bounce and fails at the step floor.  It cannot collapse, so that is a
    # failed integration, not a disagreement with the periodic verdict.
    p = P(1.8594228642996016, 0.1723301913564539, -4.772204229955089,
          a0=1.2768533562903674, a1=-0.8271047156358691)
    regime = classify(p, locate_blowup=True)
    assert regime.kind == "time-periodic"
    with pytest.raises(IntegrationFailed) as exc:
        certify(p, regime)
    assert exc.value.t == 0.50991954644876
    assert exc.value.reason.startswith("tolerance unmet at the step floor")


@pytest.mark.parametrize("a0,a1", [(1.0, -0.025), (1.0, -0.25), (3.0, -0.075), (0.2, -0.005)])
def test_linear_collapse_certifies_in_its_bracket(a0, a1):
    # 2aII at t* = -a0/a1 = 40 and 4: the event is t*, and the integrated q and
    # qdot of the double root vanish there within their budgets.
    p = P(2, 1, -1, a0=a0, a1=a1)
    regime = classify(p)
    report = certify(p, regime)
    assert report.checks["event_time"] == regime.blowup_time == -a0 / a1
    for name in ("q", "qdot"):
        assert abs(report.checks[f"{name}_at_event"]) <= report.checks[f"{name}_budget"] <= 1e-8


@st.composite
def gamma2_collapses(draw):
    """gamma = 2 collapses over xi in [0.2, 3] and a0 in [0.3, 3]: exact float ties
    lam = -xi xi (2aII) with a1 = -10^U(-3, 0.5), and 2b blowups lam = -xi xi - d,
    d in [0.01, 5], with a1 in [-3, thr) or near thr, a1 = thr (1 - 10^U(-8, -2))."""
    kind = draw(st.sampled_from(["tie", "2b", "near-threshold"]))
    xi, a0 = draw(st.floats(0.2, 3.0)), draw(st.floats(0.3, 3.0))
    if kind == "tie":
        return P(2, xi, -(xi * xi), a0=a0, a1=-10.0 ** draw(st.floats(-3.0, 0.5)))
    lam = -(xi * xi) - draw(st.floats(0.01, 5.0))
    thr = math.sqrt(-(xi * xi + lam)) / a0
    if kind == "2b":
        return P(2, xi, lam, a0=a0, a1=draw(st.floats(-3.0, thr, exclude_max=True)))
    return P(2, xi, lam, a0=a0, a1=thr * (1.0 - 10.0 ** draw(st.floats(-8.0, -2.0))))


@settings(max_examples=60, deadline=2000)
@given(gamma2_collapses())
# xi xi + lam = 0 exactly, but xi ** 2 is one ulp below -lam: classify called it
# 2b-blowup at the quadratic's root 182.28969272, and the run collapsed 8.4e-6 earlier.
@example(P(2, 2.5132684463830057, -6.316518283584448, a0=1.4389122601282571,
           a1=-0.007893526304586567))
def test_classify_and_certify_agree_on_gamma2_collapses(p):
    regime = classify(p, locate_blowup=True)
    assert regime.branch == ("2aII" if p.xi * p.xi + p.lam == 0.0 else "2b-blowup")
    report = certify(p, regime)
    assert report.passed and report.checks["event_time"] == regime.blowup_time


def test_the_gamma2_tie_is_decided_once_on_xi_times_xi():
    # xi ** 2 == -lam (libm's pow), but xi * xi + lam = 1.8e-15 > 0: the orbit turns
    # at a ~ 8e-8 and is global (2aI), where classify said 2aII at t* = 2.  The run
    # has no collapse exit, and it cannot resolve that bounce (ROADMAP item 1).
    p = P(2, 2.9900584297811834, -8.940449413505515, a1=-0.5)
    assert p.xi ** 2 == -p.lam and p.xi * p.xi + p.lam > 0.0
    regime = classify(p, locate_blowup=True)
    assert (regime.kind, regime.branch, regime.blowup_time) == ("global", "2aI", None)
    assert integrate(p, IntegrationConfig(t_end=20.0)).terminal.kind != "collapsed"


@pytest.mark.parametrize("shift", [-1e-3, 1e-3])
@pytest.mark.parametrize("p", [P(2, 1, -2), P(2, 1, -1, a1=-0.5)],
                         ids=["blowup-demo", "linear-blowup-demo"])
def test_certify_does_not_take_the_closed_form_root_on_trust(p, shift, monkeypatch):
    # classify and the run take t* from one function; moved by 1e-3 t* in both,
    # the integrated q (1 - t^2 at t* = 1) or qdot ((1 - t/2)^2 at t* = 2) misses 0.
    collapse = regimes.parabola_collapse

    def moved(params, rel_tol):
        s, r, c2, t_star, w = collapse(params, rel_tol)
        return s, r, c2, t_star * (1.0 + shift), w

    monkeypatch.setattr(regimes, "parabola_collapse", moved)
    monkeypatch.setattr(emden, "parabola_collapse", moved)
    regime = classify(p, locate_blowup=True)
    assert regime.blowup_time == (1.0 if p.a1 == 0.0 else 2.0) * (1.0 + shift)
    with pytest.raises(CertificationMismatch):
        certify(p, regime)


def test_certify_rejects_an_infinite_horizon_at_once():
    for p in (P(1.4, 0.7, 0.9, a1=0.3), P(3, 1, -1, a0=0.5)):   # global; blowup, no bracket
        regime = classify(p)
        assert regime.blowup_bracket is None
        with pytest.raises(InvalidParams, match="NonFinite:t_end"):
            certify(p, regime, horizon=math.inf)


def test_a_scale_whose_cube_overflows_is_a_kepler_orbit():
    # Far out only lam/a^2 acts (gamma = 1.5): E0 = lam/a0 = -2e-120 and
    # T = 2 pi mu/(-2 E0)^1.5 with mu = -lam = 2.
    p = P(1.5, 1, -2, a0=1e120)
    regime = classify(p)
    assert regime.kind == "time-periodic"
    assert regime.period == pytest.approx(4.0 * math.pi / 4e-120 ** 1.5, rel=1e-12)
    assert period_quadrature(p).period == regime.period


def test_certify_steady_long_horizon():
    p = P(1.5, 1, -2, a0=0.5)
    report = certify(p, classify(p), horizon=100.0)
    assert report.checks["max_wobble"] <= 1e-9


def test_certify_detects_wrong_classification():
    p = P(2, 1, -2)  # actually blows up at t* = 1
    wrong = Regime(kind="global", branch="2b-global")
    with pytest.raises(CertificationMismatch):
        certify(p, wrong, horizon=5.0)
    wrong2 = Regime(kind="finite-time-blowup", branch="2b-blowup",
                    blowup_time=0.5, blowup_bracket=(0.4, 0.6))
    with pytest.raises(CertificationMismatch):
        certify(p, wrong2, horizon=5.0)


# ----------------------------------------------------------- property sweeps

BRANCHES = {"1", "2aI", "2aII", "2b-blowup", "2b-global", "3a",
            "3bI-global", "3bI-blowup", "3bII-global", "3bII-blowup"}


def test_branch_totality_sweep():
    rng = np.random.default_rng(2024)
    n = 10_000
    gammas = rng.uniform(1.01, 4.0, n)
    gammas[rng.random(n) < 0.25] = 2.0  # force the closed-form branch often
    for k in range(n):
        xi = rng.uniform(-3, 3)
        if xi == 0.0:
            continue
        p = P(gammas[k], xi, rng.uniform(-5, 5),
              a0=rng.uniform(0.05, 3.0), a1=rng.uniform(-3, 3))
        r = classify(p)
        assert r.branch in BRANCHES
        if r.kind == "time-periodic":
            assert r.branch == "1"
            # Trapped orbits whose inner bound leaves float range carry a
            # note instead of a period; all others report a positive period.
            if r.period is None:
                assert r.notes
            else:
                assert r.period > 0
            # Energy can never sit below the potential minimum.
            f_min = r.certificate.get("F_pot_min")
            if f_min is not None:
                assert r.certificate["E0"] >= f_min - 1e-12
        if r.kind == "finite-time-blowup":
            assert r.branch in ("2aII", "2b-blowup", "3bI-blowup", "3bII-blowup")
        if r.branch == "1":
            assert 1.0 < p.gamma < 2.0


def test_gamma2_quadratic_sign_consistency():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = P(2.0, rng.uniform(-2, 2) or 0.5, rng.uniform(-4, 4),
              a0=rng.uniform(0.1, 2.5), a1=rng.uniform(-2, 2))
        r = classify(p)
        c0, c1, c2 = p.a0 * p.a0, 2.0 * p.a0 * p.a1, parabola_collapse(p, 0.0)[2]
        # c0 > 0: no root t > 0 iff c2 >= 0 and q rises at t = 0 or its
        # discriminant is negative.
        stays_positive = c2 >= 0.0 and (c1 >= 0.0 or c1 * c1 < 4.0 * c2 * c0)
        assert (r.kind in ("global", "steady")) == stays_positive


# ----------------------------------------------------------- blowup times

def quad_blowup_time(p):
    """Oracle: t* = int da / sqrt(2 (E0 - F_pot)) by scipy's quad, with the
    potential written out here.  Next to a turning point a_t (brentq),
    E0 - F_pot(a) = (a_t - a) D(a) with the divided difference D of F_pot
    formed without cancellation, and the end (a_t - a)^(-1/2) goes to quad's
    algebraic weight."""
    g, xi, lam, a0, a1 = p.gamma, p.xi, p.lam, p.a0, p.a1
    q = 2 * g - 2

    def f_pot(a):
        return xi * xi / (2 * a * a) + lam / (q * a ** q)

    e0 = 0.5 * a1 * a1 + f_pot(a0)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    if a1 < 0.0:
        return quad(lambda a: 1.0 / math.sqrt(2.0 * (e0 - f_pot(a))), 0.0, a0, **opts)[0]
    a_t = a0
    if a1 > 0.0:
        a_barrier = (-lam / (xi * xi)) ** (1.0 / (2 * g - 4))
        a_t = brentq(lambda a: f_pot(a) - e0, a0, a_barrier, xtol=1e-300,
                     rtol=4 * np.finfo(float).eps)

    def inv_sqrt_2d(a):
        # D = (F_pot(a_t) - F_pot(a)) / (a_t - a), term by term; D -> inf at a = 0.
        if a == 0.0:
            return 0.0
        h = a_t - a
        d_xi = -xi * xi * (a + a_t) / (2 * a * a * a_t * a_t)
        d_lam = (-lam * a ** (-q - 1) if h == 0.0 else
                 lam / q * a ** -q * math.expm1(-q * math.log1p(h / a)) / h)
        return 1.0 / math.sqrt(2.0 * (d_xi + d_lam))

    alg = dict(weight="alg", wvar=(0.0, -0.5), **opts)
    fall = quad(inv_sqrt_2d, 0.0, a_t, **alg)[0]
    return fall + (quad(inv_sqrt_2d, a0, a_t, **alg)[0] if a1 > 0.0 else 0.0)


SLOW_COLLAPSE = P(2.107981387180343, 0.21698705944058094, -3.5644659815860513,
                  a0=1.859449678936598, a1=0.8905861841676552)


@pytest.mark.parametrize("p,branch", [
    (P(3, 1, -1, a0=0.5), "3bII-blowup"),                  # inward from rest
    (P(3, 1, -1, a0=0.5, a1=-0.7), "3bII-blowup"),         # inward
    (P(3, 1, -1, a0=0.5, a1=2.0), "3bII-blowup"),          # outward: climbs, then falls
    (P(2.5, 1, -1, a0=3.0, a1=-2.0), "3bI-blowup"),        # falls over the barrier
    (P(3.7, 0.8, -4.2, a0=2.5, a1=-0.5), "3bI-blowup"),    # steep collapse
    (SLOW_COLLAPSE, "3bII-blowup"),                        # outward, t* = 346
])
def test_blowup_time_matches_quad(p, branch):
    r = classify(p, locate_blowup=True)
    assert r.branch == branch
    t_ref = quad_blowup_time(p)
    assert abs(r.blowup_time - t_ref) <= 1e-10 * t_ref
    assert r.certificate["blowup_quad_error"] <= 1e-12 * max(1.0, t_ref)


def test_slow_collapse_located_and_certified():
    # t* = 346 lies past the horizons of an integrating classify (100) and of
    # certify (20); the quadrature bracket sends certify's integration past it.
    r = classify(SLOW_COLLAPSE, locate_blowup=True)
    assert r.blowup_time == pytest.approx(346.2407364, rel=1e-9)
    report = certify(SLOW_COLLAPSE, r)
    assert report.checks["terminal"] == "collapsed"
    assert report.checks["event_margin"] <= 1.0


def test_unresolved_blowup_time_is_a_note():
    # a1^2/2 lies below the rounding of E0, so the turning point a hair
    # above a0 cannot be found: no time is reported, and certify still sees
    # the collapse.
    p = P(3, 1, -1, a0=0.5, a1=1e-9)
    r = classify(p, locate_blowup=True)
    assert r.branch == "3bII-blowup"
    assert r.blowup_time is None and r.blowup_bracket is None
    assert r.notes and "blowup_quad_error" not in r.certificate
    assert certify(p, r).checks["terminal"] == "collapsed"


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.floats(2.0, 4.0, exclude_min=True), st.floats(4.0, 1e30)),
       st.floats(-3.0, 3.0).filter(bool), st.floats(-5.0, 0.0, exclude_max=True),
       st.floats(0.05, 3.0), st.floats(-3.0, 3.0))
@example(1e30, 1.0, -2.0, 1.0, -0.1)
# lam (gamma - 2) underflows, so q_force's c is 0 and q a parabola: its t* = 2.1e156, not
# the quadrature's, which is not resolved here.
@example(2.0000000000000004, 2.2250738585e-313, -2.2250738585e-313, 1.0, 0.0)
def test_classify_and_the_integrator_take_one_blowup_time(g, xi, lam, a0, a1):
    # Over the sweep ranges at gamma > 2 and lam < 0, and gamma up to 1e30:
    # classify's blowup time is orbit.collapse_time's, bitwise, None for inf,
    # on every 3bI and 3bII blowup (and None, inf, on every other orbit).
    p = P(g, xi, lam, a0=a0, a1=a1)
    try:
        e0 = energy_of(a0, a1, p).E
    except InvalidParams:       # at extreme gamma, a0^(2 gamma - 2) leaves the float range
        assume(False)
    t_star = classify(p, locate_blowup=True).blowup_time
    assert (math.inf if t_star is None else t_star).hex() == collapse_time(p, e0).hex()


def test_barrier_overflow_is_global():
    # gamma just above 2 puts the barrier at a* = 9.3e-223, where the
    # potential overflows to inf - inf; the closed-form height is inf, so
    # E0 is below it and the orbit bounces off the barrier.
    p = P(2.003023981063952, -2.868815479652806, -0.37374411219798986,
          a0=0.6811112925563371, a1=-2.533426735489858)
    r = classify(p, locate_blowup=True)
    assert r.certificate["a_max_scale"] == pytest.approx(9.3e-223, rel=1e-2)
    assert r.certificate["F_pot_at_max"] == math.inf
    assert (r.kind, r.branch) == ("global", "3bI-global")
    assert certify(p, r).passed


def test_blowup_sweep_events_in_bracket():
    """Seeded gamma > 2, lam < 0 blowups over the ranges of the totality
    sweep, none screened out: every integration collapses, inside the
    quadrature bracket.  None ends in step_failure (steep collapses near
    gamma = 4 used to reach the step floor first)."""
    rng = np.random.default_rng(2024)
    located = step_failures = 0
    while located < 300:
        g, xi, lam = rng.uniform(1.01, 4.0), rng.uniform(-3, 3), rng.uniform(-5, 5)
        p = P(g, xi, lam, a0=rng.uniform(0.05, 3.0), a1=rng.uniform(-3, 3))
        if not (g > 2.0 and lam < 0.0 and xi != 0.0):
            continue
        r = classify(p, locate_blowup=True)
        if r.kind != "finite-time-blowup":
            continue
        located += 1
        assert r.blowup_time is not None, r.notes
        try:
            report = certify(p, r)
        except IntegrationFailed:
            step_failures += 1
            continue
        assert report.checks["event_margin"] <= 1.0
    assert step_failures == 0
