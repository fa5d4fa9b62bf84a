"""Exact field evaluation: constructors, profile, fixture, invariants."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from swirlgas import (
    BoxOutsideSupport,
    CollapsedState,
    GridTouchesSupportBoundary,
    InvalidParams,
    NonPositiveTime,
    ScaleState,
    SolutionParams,
    closed_form_gamma2,
    eval_flow_arrays,
    profile_f,
    support_radius,
    support_s_bound,
    validate_params,
    zhang_zheng_arrays,
    zhang_zheng_embedding,
)
from swirlgas.fields import SUPPORT_MARGIN, check_support_reach


# ----------------------------------------------------------- validation

def test_validate_accepts_basic_sets():
    validate_params(gamma=2, K=1, xi=1, lam=0, alpha=1, a0=1, a1=0)
    validate_params(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)


def test_validate_rejects_unit_gamma():
    with pytest.raises(InvalidParams) as exc:
        validate_params(gamma=1.0, K=1, xi=1, lam=0, alpha=1, a0=1, a1=0)
    assert "NonPositiveGammaMargin" in exc.value.violations


def test_validate_lists_every_violation():
    with pytest.raises(InvalidParams) as exc:
        validate_params(gamma=0.5, K=-1, xi=0, lam=0, alpha=-2, a0=0, a1=0)
    v = exc.value.violations
    assert {"NonPositiveGammaMargin", "NonPositiveK", "NonPositiveA0",
            "NegativeAlpha"} <= set(v)


def test_validate_rejects_nan():
    with pytest.raises(InvalidParams) as exc:
        validate_params(gamma=math.nan, K=1, xi=1, lam=0, alpha=1, a0=1, a1=0)
    assert any(s.startswith("NonFinite") for s in exc.value.violations)


def test_validate_missing_field():
    with pytest.raises(InvalidParams):
        validate_params({"gamma": 2.0, "K": 1.0})


# ----------------------------------------------------------- profile

def test_profile_at_zero_is_alpha_power():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
    assert profile_f(0.0, p) == pytest.approx(1.0, abs=0)
    p3 = SolutionParams(gamma=3, K=1, xi=1, lam=-1, alpha=2, a0=1, a1=0)
    assert profile_f(0.0, p3) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_profile_fixture_slope_point():
    # gamma=2, K=1, lam=-1/2, alpha=0: base slope is 1/8, so f(8) = 1.
    p = SolutionParams(gamma=2, K=1, xi=-0.5, lam=-0.5, alpha=0, a0=1, a1=0.5)
    assert profile_f(8.0, p) == pytest.approx(1.0, abs=1e-15)


def test_profile_support_root():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0)
    s_b = support_s_bound(p)
    assert s_b == pytest.approx(2 * 1 * 1.4 * 1 / (0.9 * 0.4), rel=1e-14)
    assert profile_f(s_b, p) == 0.0
    assert profile_f(s_b * 1.01, p) == 0.0
    # The linear base changes sign at s_b: bracket it by bisection.
    lo, hi = 0.9 * s_b, 1.1 * s_b
    slope = -p.lam * (p.gamma - 1) / (2 * p.K * p.gamma)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope * mid + p.alpha > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(s_b, rel=1e-12)


def test_profile_rejects_negative_s():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0)
    with pytest.raises(ValueError):
        profile_f(-0.1, p)


def test_profile_vectorized():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0)
    s = np.linspace(0, 10, 64)
    f = profile_f(s, p)
    assert f.shape == s.shape
    assert np.all(f >= 0)


# ----------------------------------------------------------- support radius

def test_support_radius_finite():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0)
    st = ScaleState(t=0, a=1.0, adot=0.0)
    r_star = support_radius(p, st)
    assert r_star == pytest.approx(math.sqrt(2 * 1 * 1.4 / (0.9 * 0.4)), rel=1e-13)
    assert r_star == pytest.approx(2.7889, abs=5e-5)
    assert profile_f((r_star / st.a) ** 2, p) == 0.0


def test_support_radius_infinite_for_negative_lam():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=-2.0, alpha=1, a0=1, a1=0)
    assert math.isinf(support_radius(p, ScaleState(0, 1.0, 0.0)))


def test_support_radius_zero_for_zero_alpha():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=0.0, a0=1, a1=0)
    assert support_radius(p, ScaleState(0, 1.0, 0.0)) == 0.0


def test_support_reach_check_allows_up_to_the_margin():
    # s = (reach/a_min)^2 may reach SUPPORT_MARGIN * s_b and no further;
    # full support (s_b = inf) passes any reach.
    s_b = 10.0
    edge = math.sqrt(SUPPORT_MARGIN * s_b)
    check_support_reach(s_b, edge, 1.0, GridTouchesSupportBoundary, "stencil")
    check_support_reach(math.inf, 1e300, 1e-300, GridTouchesSupportBoundary, "stencil")
    with pytest.raises(BoxOutsideSupport, match=r"^the box reaches s = 9\.61, beyond 0\.9 \* s_b"):
        check_support_reach(s_b, 3.1, 1.0, BoxOutsideSupport, "the box")


# ----------------------------------------------------------- field evaluation

def test_eval_flow_origin():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=2.0, a1=0.3)
    st = ScaleState(t=0, a=2.0, adot=0.3)
    rho, u1, u2, _ = eval_flow_arrays(p, st, 0.0, 0.0)
    assert u1 == 0.0 and u2 == 0.0
    assert rho == pytest.approx(1.0 / 4.0, rel=1e-15)


def test_eval_flow_fixture_density_point():
    # Embedded fixture member: rho at (2, 0), t = 1 equals r^2/(8 K t^2) = 0.5.
    emb = zhang_zheng_embedding(1.0)
    rho = eval_flow_arrays(emb.params, emb.state, 2.0, 0.0)[0]
    assert rho == pytest.approx(0.5, abs=1e-15)


def test_eval_flow_matches_extended_precision():
    # Re-evaluate the closed forms through 50-digit decimal arithmetic.
    getcontext().prec = 50
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
    st = ScaleState(t=0.25, a=1.1, adot=0.45)
    for (x, y) in [(0.3, -0.4), (0.55, 0.2), (-0.1, 0.9)]:
        rho, u1, u2, _ = eval_flow_arrays(p, st, x, y)
        xd, yd, ad = Decimal(x), Decimal(y), Decimal(st.a)
        s_d = (xd * xd + yd * yd) / (ad * ad)
        slope_d = (-Decimal(p.lam) * (Decimal(p.gamma) - 1)
                   / (2 * Decimal(p.K) * Decimal(p.gamma)))
        base_d = slope_d * s_d + Decimal(p.alpha)
        expo_d = Decimal(1.0 / (p.gamma - 1.0))  # same float exponent as the library
        rho_d = (base_d.ln() * expo_d).exp() / (ad * ad)
        u1_d = Decimal(st.adot) / ad * xd - Decimal(p.xi) / (ad * ad) * yd
        u2_d = Decimal(p.xi) / (ad * ad) * xd + Decimal(st.adot) / ad * yd
        assert rho == pytest.approx(float(rho_d), rel=4e-15)
        assert u1 == pytest.approx(float(u1_d), rel=4e-15, abs=1e-17)
        assert u2 == pytest.approx(float(u2_d), rel=4e-15, abs=1e-17)


def test_eval_flow_collapsed_state():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0)
    with pytest.raises(CollapsedState):
        eval_flow_arrays(p, ScaleState(t=1.0, a=0.0, adot=-1.0), 1.0, 0.0)
    with pytest.raises(CollapsedState):
        eval_flow_arrays(p, ScaleState(t=1.0, a=-0.5, adot=-1.0), 1.0, 0.0)


# ----------------------------------------------------------- gamma=2 fixture

def test_fixture_point_values():
    # Note the swirl sign: u2 = (y - x)/(2t).  The mirrored variant
    # ((x - y)/(2t)) does not satisfy the governing equations (see the
    # residual tests), so the clockwise convention is the fixture.
    assert zhang_zheng_arrays(1.0, 2.0, 0.0, 1.0)[:3] == (0.5, 1.0, -1.0)
    assert zhang_zheng_arrays(2.0, 0.0, 2.0, 1.0)[:3] == (0.125, 0.5, 0.5)


def test_fixture_origin():
    assert zhang_zheng_arrays(1.0, 0.0, 0.0, 1.0)[:3] == (0.0, 0.0, 0.0)


def test_fixture_requires_positive_time():
    with pytest.raises(NonPositiveTime):
        zhang_zheng_arrays(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(NonPositiveTime):
        zhang_zheng_arrays(-1.0, 1.0, 0.0, 1.0)


def test_embedding_matches_fixture_everywhere():
    emb = zhang_zheng_embedding(1.0)
    rng = np.random.default_rng(3)
    x = rng.uniform(-3, 3, 100)
    y = rng.uniform(-3, 3, 100)
    for t in (1.0, 1.7, 2.5):
        st = emb.scale_state(t)
        rho_f, u1_f, u2_f, _ = eval_flow_arrays(emb.params, st, x, y)
        rho_z, u1_z, u2_z, _ = zhang_zheng_arrays(t, x, y, 1.0)
        assert np.max(np.abs(rho_f - rho_z)) <= 1e-12
        speed_f = np.hypot(u1_f, u2_f)
        speed_z = np.hypot(u1_z, u2_z)
        assert np.max(np.abs(speed_f - speed_z)) <= 1e-12
        # The match is in fact component-wise exact.
        assert np.max(np.abs(u1_f - u1_z)) <= 1e-12
        assert np.max(np.abs(u2_f - u2_z)) <= 1e-12


def test_embedding_scale_is_sqrt_t():
    emb = zhang_zheng_embedding(1.0)
    for delta in (0.5, 1.0):
        st = closed_form_gamma2(emb.params, delta)
        assert st.a ** 2 == pytest.approx(1.0 + delta, rel=1e-14)


def test_embedding_flags():
    emb = zhang_zheng_embedding(1.0)
    assert emb.chirality == "clockwise"
    assert emb.field_match == "exact"
    assert emb.params.xi == -0.5 and emb.params.lam == -0.5 and emb.params.alpha == 0.0
    assert (emb.state.t, emb.state.a, emb.state.adot) == (1.0, 1.0, 0.5)


# ----------------------------------------------------------- invariants

def test_pressure_consistency_exact():
    p = SolutionParams(gamma=1.4, K=2.3, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
    st = ScaleState(t=0, a=1.2, adot=-0.4)
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, 200)
    y = rng.uniform(-2, 2, 200)
    rho, _, _, pres = eval_flow_arrays(p, st, x, y)
    assert np.array_equal(pres, p.K * rho ** p.gamma)


def test_density_is_radial():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
    st = ScaleState(t=0, a=1.3, adot=0.2)
    rng = np.random.default_rng(5)
    x0, y0 = rng.uniform(0.1, 1.5, 2)
    r = math.hypot(x0, y0)
    base = eval_flow_arrays(p, st, x0, y0)[0]
    for k in range(16):
        th = 2 * math.pi * k / 16
        rho = eval_flow_arrays(p, st, r * math.cos(th), r * math.sin(th))[0]
        assert abs(rho - base) <= 1e-13


def test_velocity_decomposition():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0.3)
    st = ScaleState(t=0, a=1.3, adot=0.2)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.uniform(-1.5, 1.5, 2)
        r = math.hypot(x, y)
        if r < 1e-3:
            continue
        _, u1, u2, _ = eval_flow_arrays(p, st, x, y)
        radial = (u1 * x + u2 * y) / r
        tangential = (-u1 * y + u2 * x) / r
        assert abs(radial - st.adot / st.a * r) <= 1e-13
        assert abs(tangential - p.xi / st.a ** 2 * r) <= 1e-13


def test_profile_balance_identity_second_order():
    # Inside its support, f obeys lam + 2 K gamma f^(gamma-2) f' = 0; with a
    # central-difference f' the residual must shrink at O(h^2).
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0)
    s_b = support_s_bound(p)
    s = np.linspace(0.1 * s_b, 0.7 * s_b, 40)
    worst = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fp = (profile_f(s + h, p) - profile_f(s - h, p)) / (2 * h)
        f = profile_f(s, p)
        res = p.lam + 2 * p.K * p.gamma * f ** (p.gamma - 2.0) * fp
        worst.append(np.max(np.abs(res)))
    order = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(worst), 1)[0]
    assert 1.8 <= order <= 2.2


def test_profile_continuous_at_support_boundary():
    p = SolutionParams(gamma=1.4, K=1, xi=0.7, lam=0.9, alpha=1, a0=1, a1=0)
    s_b = support_s_bound(p)
    left = profile_f(s_b * (1 - 1e-8), p)
    right = profile_f(s_b * (1 + 1e-8), p)
    assert abs(left - right) <= 1e-10

