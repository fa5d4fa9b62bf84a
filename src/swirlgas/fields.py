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
    "validate_params",
    "profile_f",
    "support_s_bound",
    "support_radius",
    "eval_flow_arrays",
    "zhang_zheng_arrays",
    "zhang_zheng_embedding",
]


_NAMES = ("gamma", "K", "xi", "lam", "alpha", "a0", "a1")


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
        for name in _NAMES:
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
        return SolutionParams(**{name: float(data[name]) for name in _NAMES})
    except KeyError as missing:
        raise InvalidParams([f"Missing:{missing.args[0]}"]) from None


@dataclass(frozen=True)
class ScaleState:
    """Scale factor degrees of freedom at one instant: (t, a, adot)."""

    t: float
    a: float
    adot: float


def profile_law(s, gamma, K, c, alpha, scale=1.0):
    """max(-c (gamma-1)/(2 K gamma) s + alpha, 0)^(1/(gamma-1)) / scale on an array s.

    The density of both families: c is lam in 2D and xi3 in 3D, and scale
    the product of the scale factors.  The base is clamped at zero before
    exponentiation so a fractional power never sees a negative argument.
    InvalidParams when the slope leaves the float range (K far below c), or
    when the largest density or its power gamma, which the pressure takes,
    would: one scalar check, before the power, on the largest base alpha +
    slope max(s) (alpha where the slope is not positive, as s >= 0).
    """
    slope = -c * (gamma - 1.0) / (2.0 * K * gamma)
    if not -math.inf < slope < math.inf:
        raise InvalidParams(["NonFinite:profile_slope"])
    base = float(alpha + slope * float(s.max(initial=0.0)) if slope > 0.0 else alpha)
    try:        # math.pow raises OverflowError where numpy's power warns
        rho = math.pow(base, 1.0 / (gamma - 1.0)) / float(scale) if base > 0.0 else 0.0
        finite = math.pow(rho, gamma) < math.inf
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise InvalidParams([f"NonFiniteDensityPower:{base!r}"])
    f = slope * s
    f += alpha
    # In place on f, never on s; a 0-d s makes f a numpy scalar, which has no out=.
    f = np.maximum(f, 0.0, out=f if isinstance(f, np.ndarray) else None)
    f **= 1.0 / (gamma - 1.0)
    f /= scale
    return f


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


def check_reach_squares(reach: float, a: float, name: str):
    """InvalidParams naming the setting behind reach unless eval_flow_arrays
    can take s = (x^2 + y^2)/a^2 out to radius reach at scale a: reach^2 and
    (reach/a)^2 finite."""
    ratio = reach / a
    if not max(reach * reach, ratio * ratio) < math.inf:
        raise InvalidParams([f"NonFiniteSquare:{name}"])


def check_support_reach(s_b: float, reach: float, a_min: float, error, what: str):
    """Raise error unless points within radius reach of the support centre,
    at scales down to a_min, keep s = (reach/a_min)^2 <= SUPPORT_MARGIN * s_b."""
    ratio = reach / a_min
    s_reach = ratio * ratio     # inf where a float power would raise OverflowError
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
    """Vectorized field evaluation; returns (rho, u1, u2, p) arrays.

    Each output is computed in place on the temporary that starts it, by
    the operations of rho = f(s) / a^2 with s = (x^2 + y^2) / a^2,
    u1 = dil x - swirl y, u2 = swirl x + dil y and p = K rho^gamma, in that
    order; x and y are only read (they may be read-only arrays).
    """
    if not state.a > 0.0:
        raise CollapsedState(f"scale a = {state.a!r} is not positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:      # each output starts from x's shape
        x, y = np.broadcast_arrays(x, y)
    a = state.a
    a2 = a * a
    s = x * x
    s += y * y
    s /= a2                     # s >= 0, so profile_f's sign check is not needed
    rho = profile_law(s, params.gamma, params.K, params.lam, params.alpha, a2)
    dil = state.adot / a
    swirl = params.xi / a2
    u1 = dil * x
    u1 -= swirl * y
    u2 = swirl * x
    u2 += dil * y
    p = rho ** params.gamma
    p *= params.K
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


def zhang_zheng_embedding(K: float = 1.0) -> SolutionParams:
    """The family member that reproduces the gamma = 2 fixture exactly.

    Matching the swirl rate fixes xi = -1/2 (clockwise), the density profile
    fixes lam = -1/2 and alpha = 0, and a = sqrt(t) pins (a0, a1) = (1, 1/2)
    at the fixture time t = 1, where the family clock starts.  There 2 E(0) =
    a1^2 + (xi^2 + lam)/a0^2 = 0, so ``orbit.closed_form_gamma2(params, tau)``
    is the fixture scale sqrt(1 + tau).  Density, speed AND both velocity
    components match; the mirrored fixture (u2 negated) matches only in
    density and speed and fails the governing equations.
    """
    return SolutionParams(gamma=2.0, K=K, xi=-0.5, lam=-0.5, alpha=0.0, a0=1.0, a1=0.5)
