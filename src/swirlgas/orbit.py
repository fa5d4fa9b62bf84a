"""The orbit's geometry: every question asked of the effective potential

    F_pot(a) = xi^2/(2 a^2) + lam/((2 gamma - 2) a^(2 gamma - 2))

of addot = xi^2/a^3 + lam/a^(2 gamma - 1) = -F_pot'(a), whose orbits conserve
E = adot^2/2 + F_pot(a): the potential, its force in each of the integrator's
coordinates, its stationary point (the gamma > 2 barrier), the turning points,
the energy quadrature of orbit times, and the closed form where a^2(t) is a
parabola (gamma = 2, or lam = 0), which decides and times its collapse.
``emden`` integrates orbits and ``regimes`` sorts them from these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rk import _fpow
from .errors import CollapsedAtOrBefore, CollapsedState, InvalidParams, NoBracket
from .fields import ScaleState, SolutionParams

__all__ = ["EnergySplit", "potential", "energy_of", "emden_rhs", "turning_points",
           "closed_form_gamma2", "gamma2_scale_squared_coeffs"]


@dataclass(frozen=True)
class EnergySplit:
    """Total energy and its kinetic/potential parts; E = F_kin + F_pot."""

    E: float
    F_kin: float
    F_pot: float


def potential(a, params: SolutionParams):
    """Effective potential F_pot(a) = xi^2/(2 a^2) + lam/((2g-2) a^(2g-2)).

    Overflow to +-inf for extreme scales is the correct limit and is allowed.
    """
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr <= 0.0):
        raise CollapsedState("potential requires a > 0")
    two_g_minus_2 = 2.0 * params.gamma - 2.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        val = (params.xi ** 2 / (2.0 * a_arr ** 2)
               + params.lam / (two_g_minus_2 * a_arr ** two_g_minus_2))
    return float(val) if a_arr.ndim == 0 else val


def energy_of(a: float, adot: float, params: SolutionParams) -> EnergySplit:
    """Energy split for a starting (a, adot) = (a0, a1); InvalidParams unless E
    and the q = a^2 that starts the integration are finite."""
    if not a > 0.0:
        raise CollapsedState(f"scale a = {a!r} is not positive")
    if not a * a < math.inf:
        raise InvalidParams(["NonFiniteSquare:a0"])
    f_kin = 0.5 * adot * adot
    try:
        f_pot = potential(a, params)
    except OverflowError:  # xi^2 beyond the float range
        f_pot = math.inf
    e = f_kin + f_pot
    if not math.isfinite(e):
        raise InvalidParams(["NonFiniteEnergy"])
    return EnergySplit(E=e, F_kin=f_kin, F_pot=f_pot)


def emden_rhs(state: ScaleState, params: SolutionParams):
    """Right-hand side (adot, addot) of the scale equation."""
    a = state.a
    if not a > 0.0:
        raise CollapsedState(f"scale a = {a!r} is not positive")
    addot = params.xi ** 2 / _fpow(a, 3) + params.lam / _fpow(a, 2.0 * params.gamma - 1.0)
    return state.adot, addot


def q_force(params: SolutionParams):
    """(c, p) of q = a^2's equation qddot = 4 E(0) + c q^p, free of the centrifugal
    term; where c = 0 (gamma = 2, or lam = 0) q is a parabola."""
    g = params.gamma
    return 2.0 * params.lam * (g - 2.0) / (g - 1.0), 1.0 - g


def plunge_force(params: SolutionParams, e0: float):
    """(B, D, k) of a plunge in Sundman time, dt = a^k ds with k = gamma - 1:
    w = a^k adot obeys w' = (B - D/a^2) a^(2k)/a, B = 2 E(0) k, D = (gamma - 2) xi^2."""
    k = params.gamma - 1.0
    return 2.0 * e0 * k, (params.gamma - 2.0) * params.xi * params.xi, k


def plunge_drift(params: SolutionParams, e0: float, a, w):
    """|H| / max(1, |lam/k|) at plunge states (a, w) of H = w^2 - 2 E(0) a^(2k)
    + xi^2 a^(2k - 2) + lam/k, the energy times a^(2k), 0 on the orbit; its
    terms stay of order one as a -> 0, where those of E do not."""
    lam_k = params.lam / (params.gamma - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (w * w - 2.0 * e0 * a ** (2.0 * params.gamma - 2.0)
             + params.xi * params.xi * a ** (2.0 * params.gamma - 4.0) + lam_k)
    return np.abs(h) / max(1.0, abs(lam_k))


def barrier(params: SolutionParams):
    """(a*, a*^2, F*) at F_pot's stationary point xi^2 a*^(2 gamma - 4) = -lam < 0:
    the gamma > 2 barrier and its height, or the gamma < 2 well's bottom and F_pot
    there (None where a* leaves the float range); (inf, inf, 0) at xi = 0.

    In log space, as xi^2 may leave the float range and near gamma = 2 the
    exponent 1/(2 gamma - 4) explodes: ln a* takes 2 ln|xi| for ln xi^2; a* is
    0 or inf beyond e^(+-700), a*^2 inf beyond e^709; F* = xi^2 (gamma - 2)/
    ((2 gamma - 2) a*^2) takes ln(gamma - 2) - ln 2 - ln(gamma - 1) (2 gamma - 2
    may overflow) and is its limit inf or 0 there, not the nan of inf - inf that
    the potential gives, so that E(0) still compares with it exactly.
    """
    g, xi = params.gamma, params.xi
    if xi == 0.0:
        return math.inf, math.inf, 0.0
    log_a = (math.log(-params.lam) - 2.0 * math.log(abs(xi))) / (2.0 * g - 4.0)
    a = 0.0 if log_a < -700.0 else math.inf if log_a > 700.0 else math.exp(log_a)
    q = math.exp(2.0 * log_a) if 2.0 * log_a < 709.0 else math.inf
    if g < 2.0:
        return a, q, potential(a, params) if 0.0 < a < math.inf else None
    log_f = (2.0 * math.log(abs(xi)) + math.log(g - 2.0) - math.log(2.0)
             - math.log(g - 1.0) - 2.0 * log_a)
    return a, q, math.exp(log_f) if log_f < 709.0 else math.inf


def reaches_zero(params: SolutionParams, e0: float, a_star: float, f_star: float) -> bool:
    """Whether a lam < 0 orbit with gamma > 2 or xi = 0 reaches a = 0, given its
    barrier (a*, F*): from outside it only by falling over its top, and from
    inside unless it climbs over it."""
    if params.a0 >= a_star:
        return e0 > f_star and params.a1 < 0.0
    return e0 < f_star or params.a1 <= 0.0


def collapse_time(params: SolutionParams, e0: float) -> float:
    """The time t* at which a reaches 0; inf where it does not, or t* is not resolved.

    Where c = 0 (q_force), t* is parabola_collapse's.  Where lam < 0 and gamma > 2
    or xi = 0, t* is the energy quadrature of an orbit that reaches_zero; a
    quadrature time that is not > 0 (at extreme gamma) is not resolved.  On any
    other orbit F_pot -> +inf as a -> 0.
    """
    if q_force(params)[0] == 0.0:
        return parabola_collapse(params, 0.0)[1]
    if not (params.lam < 0.0 and (params.gamma > 2.0 or params.xi == 0.0)):
        return math.inf
    a_star, _, f_star = barrier(params)
    if not reaches_zero(params, e0, a_star, f_star):
        return math.inf
    t, err = _blowup_time(params, e0, a_star)
    return t if t > 0.0 and err <= 1e-6 * max(1.0, t) else math.inf


def parabola_collapse(params: SolutionParams, rel_tol: float):
    """(s, t*, w) of an orbit whose force in q has no q term (q_force's c = 0:
    gamma = 2, or lam = 0), where F_pot = s/(2 a^2) with s = xi xi + lam.

    q = a^2 is the parabola a0^2 + 2 a0 a1 t + (a1^2 + s/a0^2) t^2, whose
    discriminant is -4 s: for s <= 0 it is (a0 + (a1 - r) t)(a0 + (a1 + r) t)
    with r = sqrt(-s)/a0.  So the orbit collapses iff s <= 0 and a1 < r, at
    t* = a0/(r - a1) (the other root is negative or later), with no cancelling
    difference; t* = inf where it does not.  w bounds the rounding of t* from s
    to first order, (2 + r/(r - a1)) eps t* (r - a1 cancels near the 2b
    threshold; where w nears t* the floats do not decide whether the orbit
    collapses), and is never below rel_tol max(1, t*).
    """
    a0, a1 = params.a0, params.a1
    s = params.xi * params.xi + params.lam
    r = math.sqrt(-s) / a0 if s <= 0.0 else 0.0
    if not (s <= 0.0 and a1 < r):
        return s, math.inf, 0.0
    t = a0 / (r - a1)
    return s, t, max(rel_tol * max(1.0, t), (2.0 + r / (r - a1)) * math.ulp(1.0) * t)


def turning_points(params: SolutionParams):
    """Roots (a_min, a_max) of F_pot(a) = E(0) bounding a trapped orbit.

    Requires the trapped-orbit hypotheses 1 < gamma < 2 and E(0) < 0.  The
    starting scale a0 always satisfies F_pot(a0) <= E(0), so it anchors the
    bracketing; exact turning starts (a1 = 0) are nudged toward the interior
    along the force direction first.
    """
    if not (1.0 < params.gamma < 2.0):
        raise NoBracket(f"turning points need 1 < gamma < 2, got {params.gamma}")
    e0 = energy_of(params.a0, params.a1, params).E
    if not e0 < 0.0:
        raise NoBracket(f"turning points need E(0) < 0, got {e0}")

    g = _excess(params, e0)
    a0 = params.a0
    if params.a1 != 0.0 and g(a0) < 0.0:
        anchor = a0
    else:
        # Starting at a turning point: step into the well along the force.
        acc = emden_rhs(ScaleState(0.0, a0, 0.0), params)[1]
        if acc == 0.0:
            return a0, a0  # exact equilibrium
        cands = (a0 * (1.0 + math.copysign(1e-8 * 4.0 ** k, acc)) for k in range(13))  # to 0.17
        anchor = next((c for c in cands if g(c) < 0.0), None)
        if anchor is None:
            return a0, a0  # degenerate at numerical resolution

    lo = 0.5 * anchor
    while lo >= 1e-150 and not g(lo) > 0.0:
        lo *= 0.5
    if lo < 1e-150:
        # Near gamma = 2 the two potential terms have nearly equal
        # exponents and the inner turning point can sit beyond float
        # range; the orbit is trapped but its bounds are not computable.
        raise NoBracket("inner turning point below representable scale")
    a_min = _log_bisect(g, lo, anchor)
    # F_pot -> 0 > E(0) as a -> inf, so the search ends (at inf at the latest).
    a_max = _log_bisect(g, anchor, math.inf)
    return float(a_min), float(a_max)


def _excess(params: SolutionParams, e0: float):
    """g(a) = F_pot(a) - E(0) on floats, for the root finds: ~50 evaluations per root.
    Its powers overflow to inf (_fpow), as a root search may probe any scale."""
    xi2, lam, p = params.xi ** 2, params.lam, 2.0 * params.gamma - 2.0

    def g(a):
        return 0.5 * xi2 * _fpow(a, -2.0) + lam / p * _fpow(a, -p) - e0

    return g


def _log_bisect(g, lo, hi):
    """Root of g between 0 < lo < hi, where g changes sign, by bisection in u = ln a.

    hi = inf searches 2 lo, 4 lo, ... for the first hi with g(hi) > 0.  The
    midpoint sqrt(lo) sqrt(hi) cannot overflow.  The search ends when it
    rounds to an end, and returns the end with g <= 0, inside the well.
    """
    if hi == math.inf:
        hi = 2.0 * lo
        while not g(hi) > 0.0:
            hi *= 2.0
    lo_positive = g(lo) > 0.0
    mid = math.sqrt(lo) * math.sqrt(hi)
    while lo < mid < hi:
        if (g(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
        mid = math.sqrt(lo) * math.sqrt(hi)
    return hi if lo_positive else lo


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Panels per node array in _orbit_time: a fine quadrature is summed a chunk at
# a time, so that its arrays stay at 768 floats (128 panels a chunk raised the
# regime-sweep peak RSS by 0.4 MB).
_PANEL_CHUNK = 32
_MAX_PANELS = 8192
# Blowup times: the quadrature converges to 1e-12 relative (absolute below 1).
_BLOWUP_QUAD_TOL = 1e-12


def _orbit_time(params: SolutionParams, a_lo, a_hi, gap_lo, gap_hi, abs_tol, rel_tol=0.0):
    """Time int da / sqrt(2 (E0 - F_pot(a))) to pass from a_lo to a_hi.

    gap_lo and gap_hi are E0 - F_pot at the two ends, given exactly: 0 at a
    turning point, a1^2/2 at the starting scale.  a_lo = 0 is a collapse
    (lam < 0, gamma > 2 or xi = 0), where the integrand vanishes like a^(gamma - 1).

    The substitution a = a_lo + (a_hi - a_lo) sin^2(theta) removes the
    inverse-square-root singularities at turning points.  The plain
    difference E0 - F_pot(a) cancels to rounding noise next to a turning
    point, so at each node the gap is taken from an end instead: the gap
    there plus the fall of F_pot from it, formed from ln(a / a_end) with
    expm1.  The end is a_lo on the lower half of [0, pi/2] while a <= 2 a_lo,
    and a_hi elsewhere.  Composite 24-node Gauss-Legendre panels, summed
    _PANEL_CHUNK at a time, double until three successive sums agree to
    max(abs_tol, rel_tol * value).  Returns (value, error estimate, nodes).
    """
    width = a_hi - a_lo
    xi2, lam, p = params.xi ** 2, params.lam, 2.0 * params.gamma - 2.0
    ends = [(a_hi, gap_hi), (a_lo, gap_lo)] if a_lo > 0.0 else [(a_hi, gap_hi)]
    # Per end: (a_end, gap there, xi^2/(2 a_end^2), lam/(p a_end^p)).
    ends = np.array([(a, gap, 0.5 * xi2 * _fpow(a, -2.0), lam / p * _fpow(a, -p))
                     for a, gap in ends])

    def integral(panels):
        h = 0.5 * math.pi / panels
        total = 0.0
        for k in range(0, panels, _PANEL_CHUNK):
            mid = h * (np.arange(k, min(k + _PANEL_CHUNK, panels)) + 0.5)
            theta = (mid[:, None] + 0.5 * h * _GAUSS_NODES).ravel()
            s, c = np.sin(theta), np.cos(theta)
            rise = width * s * s            # a - a_lo, and a_hi - a is width c^2
            a = a_lo + rise
            from_lo = (theta < 0.25 * math.pi) & (rise <= a_lo)
            a_end, gap_end, c_xi, c_lam = ends[from_lo.astype(int)].T
            rel = np.where(from_lo, rise, -width * c * c) / a_end
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                log_u = np.where(np.abs(rel) <= 0.5, np.log1p(rel), np.log(a / a_end))
                gap = gap_end - c_xi * np.expm1(-2.0 * log_u) - c_lam * np.expm1(-p * log_u)
                f = 2.0 * width * s * c / np.sqrt(2.0 * gap)
            total += float(np.sum(f.reshape(-1, _GAUSS_NODES.size) @ _GAUSS_WEIGHTS))
        return 0.5 * h * total

    # Two successive doublings must agree: a first agreement can be chance
    # (1 and 2 panels agree to 1.8e-13 on a fall whose 2-panel sum is 1.6e-12 off).
    prev, err_prev, panels = integral(1), math.inf, 2
    while True:
        cur = integral(panels)
        err = abs(cur - prev)
        if max(err, err_prev) <= max(abs_tol, rel_tol * abs(cur)) or panels >= _MAX_PANELS:
            return cur, err, panels * _GAUSS_NODES.size
        prev, err_prev, panels = cur, err, 2 * panels


def _blowup_time(params: SolutionParams, e0: float, a_barrier: float):
    """Time t* at which a reaches 0 on an orbit that reaches_zero, and its error.

    An inward start (a1 <= 0) falls from a0 with the gap a1^2/2 there.  An
    outward one climbs to the turning point below the barrier a_barrier and
    falls from it.  The error is inf when that turning point is not resolved
    in floats.
    """
    a0, a1 = params.a0, params.a1
    if a1 <= 0.0:
        t, err, _ = _orbit_time(params, 0.0, a0, None, 0.5 * a1 * a1,
                                _BLOWUP_QUAD_TOL, _BLOWUP_QUAD_TOL)
        return t, err
    g = _excess(params, e0)
    if not g(a0) < 0.0:
        return math.nan, math.inf   # a1^2/2 is below the rounding of E(0)
    # Where the barrier is beyond the float range, F_pot -> 0 > E(0) before it.
    a_turn = _log_bisect(g, a0, a_barrier)
    up, err_up, _ = _orbit_time(params, a0, a_turn, 0.5 * a1 * a1, 0.0,
                                _BLOWUP_QUAD_TOL, _BLOWUP_QUAD_TOL)
    down, err_down, _ = _orbit_time(params, 0.0, a_turn, None, 0.0,
                                    _BLOWUP_QUAD_TOL, _BLOWUP_QUAD_TOL)
    return up + down, err_up + err_down


def gamma2_scale_squared_coeffs(params: SolutionParams):
    """Coefficients (c0, c1, c2) of a^2(t) = c0 + c1 t + c2 t^2 for gamma = 2.

    c0 = a0^2, c1 = 2 a0 a1, c2 = 2 E(0) = a1^2 + s/a0^2 with parabola_collapse's
    s = xi xi + lam; exact because (a^2)'' = 4 E is constant when gamma = 2.
    """
    if params.gamma != 2.0:
        raise ValueError("closed form requires gamma = 2")
    c0 = params.a0 ** 2
    c1 = 2.0 * params.a0 * params.a1
    c2 = params.a1 ** 2 + (params.xi * params.xi + params.lam) / params.a0 ** 2
    return c0, c1, c2


def closed_form_gamma2(params: SolutionParams, t: float) -> ScaleState:
    """Exact gamma = 2 scale state at time t.

    Raises CollapsedAtOrBefore if a^2 reaches 0 in (0, t], at parabola_collapse's t*.
    """
    c0, c1, c2 = gamma2_scale_squared_coeffs(params)
    t_star = parabola_collapse(params, 0.0)[1]
    a_sq = c0 + c1 * t + c2 * t * t
    if t_star <= t or a_sq <= 0.0:
        raise CollapsedAtOrBefore(min(t_star, t))
    a = math.sqrt(a_sq)
    adot = (0.5 * c1 + c2 * t) / a
    return ScaleState(t=float(t), a=a, adot=adot)
