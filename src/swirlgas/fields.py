"""Exact swirling self-similar flow fields of the 2D isentropic Euler system.

The family evaluated here solves

    rho_t + div(rho u) = 0,
    rho [u_t + (u . grad) u] + K grad(rho^gamma) = 0,        p = K rho^gamma,

with a density profile carried by the similarity variable s = (x^2+y^2)/a(t)^2:

    rho(t, x, y) = max(-lam (gamma-1)/(2 K gamma) s + alpha, 0)^(1/(gamma-1)) / a^2
    u(t, x, y)   = (adot/a) (x, y) + (xi/a^2) (-y, x)

The scale factor a(t) obeys  addot = xi^2/a^3 + lam/a^(2 gamma - 1)  (see the
``emden`` module).  The velocity is a pure dilation plus a rigid-looking swirl
whose angular rate decays as 1/a^2; the density is radial, compactly supported
when lam (gamma-1) > 0 and positive everywhere otherwise.

A classical gamma = 2 fixture (density r^2/(8 K t^2), dilation + clockwise
swirl both of speed r/(2t)) is provided as an independent code path for
cross-checks; see ``zhang_zheng_arrays``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollapsedState, InvalidParams, NonPositiveTime

__all__ = [
    "SolutionParams",
    "ScaleState",
    "ZhangZhengEmbedding",
    "validate_params",
    "profile_f",
    "support_s_bound",
    "support_radius",
    "eval_flow_arrays",
    "zhang_zheng_arrays",
    "zhang_zheng_embedding",
]


@dataclass(frozen=True)
class SolutionParams:
    """One member of the exact family.

    gamma : adiabatic exponent, > 1
    K     : pressure constant, > 0
    xi    : swirl constant (0 gives the swirl-free limit)
    lam   : scale-equation forcing constant, any sign
    alpha : profile amplitude at s = 0, >= 0
    a0    : initial scale, > 0
    a1    : initial scale rate, any sign
    """

    gamma: float
    K: float
    xi: float
    lam: float
    alpha: float
    a0: float
    a1: float

    def __post_init__(self):
        violations = []
        for name in ("gamma", "K", "xi", "lam", "alpha", "a0", "a1"):
            if not math.isfinite(getattr(self, name)):
                violations.append(f"NonFinite:{name}")
        if not self.gamma > 1.0:
            violations.append("NonPositiveGammaMargin")
        if not self.K > 0.0:
            violations.append("NonPositiveK")
        if not self.a0 > 0.0:
            violations.append("NonPositiveA0")
        if not self.alpha >= 0.0:
            violations.append("NegativeAlpha")
        if violations:
            raise InvalidParams(violations)


def validate_params(record=None, **kwargs) -> SolutionParams:
    """Build SolutionParams from a mapping or keyword arguments.

    Raises InvalidParams listing every violated constraint.
    """
    data = dict(record or {})
    data.update(kwargs)
    try:
        return SolutionParams(
            gamma=float(data["gamma"]),
            K=float(data["K"]),
            xi=float(data["xi"]),
            lam=float(data["lam"]),
            alpha=float(data["alpha"]),
            a0=float(data["a0"]),
            a1=float(data["a1"]),
        )
    except KeyError as missing:
        raise InvalidParams([f"Missing:{missing.args[0]}"]) from None


@dataclass(frozen=True)
class ScaleState:
    """Scale factor degrees of freedom at one instant: (t, a, adot)."""

    t: float
    a: float
    adot: float


def profile_law(s, gamma, K, c, alpha):
    """max(-c (gamma-1)/(2 K gamma) s + alpha, 0)^(1/(gamma-1)) on an array s.

    The density profile of both families: c is lam in 2D and xi3 in 3D.  The
    base is clamped at zero before exponentiation so a fractional power never
    sees a negative argument.
    """
    slope = -c * (gamma - 1.0) / (2.0 * K * gamma)
    return np.maximum(slope * s + alpha, 0.0) ** (1.0 / (gamma - 1.0))


def profile_support(gamma, K, c, alpha) -> float:
    """Largest s where profile_law is positive; inf when it never vanishes."""
    d = c * (gamma - 1.0)
    return 2.0 * K * gamma * alpha / d if d > 0.0 else math.inf


def profile_f(s, params: SolutionParams):
    """Self-similar density profile f(s) = profile_law(s) with (lam, alpha).

    Accepts a scalar or an array; s must be >= 0.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("similarity coordinate s must be >= 0")
    f = profile_law(s_arr, params.gamma, params.K, params.lam, params.alpha)
    if s_arr.ndim == 0:
        return float(f)
    return f


def support_s_bound(params: SolutionParams) -> float:
    """Largest s with positive profile; inf when the profile never vanishes."""
    return profile_support(params.gamma, params.K, params.lam, params.alpha)


# Share of the support bound s_b that sample points may reach: the profile's
# fractional power is not smooth at the support edge.
SUPPORT_MARGIN = 0.9


def check_support_reach(s_b: float, reach: float, a_min: float, error, what: str):
    """Raise error unless points within radius reach of the support centre,
    at scales down to a_min, keep s = (reach/a_min)^2 <= SUPPORT_MARGIN * s_b."""
    s_reach = (reach / a_min) ** 2
    if s_reach > SUPPORT_MARGIN * s_b:
        raise error(f"{what} reaches s = {s_reach:.4g}, beyond "
                    f"{SUPPORT_MARGIN:g} * s_b = {SUPPORT_MARGIN:g} * {s_b:.4g}")


def support_radius(params: SolutionParams, state: ScaleState) -> float:
    """Radius where the density reaches zero (inf for full support)."""
    s_b = support_s_bound(params)
    if math.isinf(s_b):
        return math.inf
    return state.a * math.sqrt(s_b)


def eval_flow_arrays(params: SolutionParams, state: ScaleState, x, y):
    """Vectorized field evaluation; returns (rho, u1, u2, p) arrays."""
    if not state.a > 0.0:
        raise CollapsedState(f"scale a = {state.a!r} is not positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = state.a
    s = (x * x + y * y) / (a * a)
    rho = profile_f(s, params) / (a * a)
    dil = state.adot / a
    swirl = params.xi / (a * a)
    u1 = dil * x - swirl * y
    u2 = swirl * x + dil * y
    p = params.K * rho ** params.gamma
    return rho, u1, u2, p


def zhang_zheng_arrays(t: float, x, y, K: float = 1.0):
    """Vectorized gamma = 2 fixture field; returns (rho, u1, u2, p).

    rho = r^2/(8 K t^2), u = (r/(2t)) e_r - (r/(2t)) e_theta, i.e.

        u1 = (x + y)/(2t),   u2 = (y - x)/(2t).

    The swirl is clockwise for t > 0.  Mirroring the swirl (u2 -> -u2) does
    NOT solve the momentum or mass equations; that variant appears in some
    statements of this fixture and is rejected here (see the residual tests).
    """
    if not t > 0.0:
        raise NonPositiveTime(f"fixture requires t > 0, got {t!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = (x * x + y * y) / (8.0 * K * t * t)
    u1 = (x + y) / (2.0 * t)
    u2 = (y - x) / (2.0 * t)
    p = K * rho * rho
    return rho, u1, u2, p


@dataclass(frozen=True)
class ZhangZhengEmbedding:
    """Family parameters reproducing the gamma = 2 fixture.

    The family clock starts at the fixture time t = 1 (the scale equation is
    autonomous), so integrating ``params`` from tau = 0 gives
    a(tau) = sqrt(1 + tau), matching the fixture scale sqrt(t) at t = 1 + tau.

    chirality    : swirl sense of the embedded field ("clockwise").
    field_match  : "exact" - density, speed AND both velocity components of
                   the embedded member coincide with the fixture; the
                   mirrored fixture variant (u2 negated) matches only in
                   density and speed and fails the governing equations.
    """

    params: SolutionParams
    state: ScaleState
    chirality: str = "clockwise"
    field_match: str = "exact"

    def scale_state(self, t: float) -> ScaleState:
        """Fixture-clock scale state (a = sqrt(t)) for any t > 0."""
        if not t > 0.0:
            raise NonPositiveTime(f"fixture requires t > 0, got {t!r}")
        a = math.sqrt(t)
        return ScaleState(t=t, a=a, adot=0.5 / a)


def zhang_zheng_embedding(K: float = 1.0) -> ZhangZhengEmbedding:
    """Embed the gamma = 2 fixture into the self-similar family.

    Matching the swirl rate fixes xi = -1/2 (clockwise), the density profile
    fixes lam = -1/2 and alpha = 0, and a = sqrt(t) pins (a0, a1) = (1, 1/2)
    at the fixture time t = 1.
    """
    if not K > 0.0:
        raise InvalidParams(["NonPositiveK"])
    params = SolutionParams(gamma=2.0, K=K, xi=-0.5, lam=-0.5, alpha=0.0, a0=1.0, a1=0.5)
    state = ScaleState(t=1.0, a=1.0, adot=0.5)
    return ZhangZhengEmbedding(params=params, state=state)
