"""Long-time behavior of the scale factor: the full decision tree.

With E(0) = a1^2/2 + xi^2/(2 a0^2) + lam/((2g-2) a0^(2g-2)) and the effective
potential F_pot(a) = xi^2/(2 a^2) + lam/((2g-2) a^(2g-2)), the orbit of

    addot = xi^2/a^3 + lam/a^(2 gamma - 1)

falls into exactly one branch:

  1 < gamma < 2 : F_pot has a unique global minimum.  E(0) < 0 traps the
      orbit between two turning points (time-periodic; steady when it sits
      at the minimum); otherwise the orbit is global.                ["1"]
  gamma = 2     : addot = (xi^2 + lam)/a^3, and a^2(t) is an exact quadratic.
      xi^2 > -lam, or xi^2 = -lam with a1 >= 0        -> global      ["2aI"]
      xi^2 = -lam and a1 < 0 (a is linear in t)       -> blowup      ["2aII"]
      xi^2 < -lam: blowup iff a1 < sqrt(-lam-xi^2)/a0 -> blowup/global ["2b-*"]
  gamma > 2     : lam >= 0 makes F_pot decreasing     -> global      ["3a"]
      lam < 0: F_pot has a unique maximum at a_Max = (-lam/xi^2)^(1/(2g-4));
      whether the orbit clears or is trapped by that barrier decides
      global vs finite-time blowup.                   ["3bI-*", "3bII-*"]

Periods and gamma > 2 blowup times are the energy integral
int da / sqrt(2 (E0 - F_pot(a))), taken by one quadrature.  ``certify``
cross-checks any classification against direct integration and refuses to
stay silent on a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rk import _fpow
from .emden import (
    IntegrationConfig,
    _first_positive_root,
    _log_stationary_scale,
    emden_rhs,
    energy_of,
    gamma2_scale_squared_coeffs,
    integrate,
    potential,
)
from .errors import (
    CertificationMismatch,
    DegenerateOrbit,
    IntegrationFailed,
    InvalidParams,
    NoBracket,
    NonPositiveTime,
    UndefinedCritical,
    ZeroRotation,
)
from .fields import ScaleState, SolutionParams

__all__ = [
    "Regime",
    "CriticalData",
    "PeriodResult",
    "CertificationReport",
    "classify",
    "a_max_critical",
    "turning_points",
    "period_quadrature",
    "certify",
]

KINDS = ("global", "time-periodic", "steady", "finite-time-blowup")

@dataclass(frozen=True)
class Regime:
    """Classification outcome with its certificate data."""

    kind: str
    branch: str
    period: float | None = None
    blowup_time: float | None = None
    blowup_bracket: tuple | None = None
    certificate: dict = field(default_factory=dict)
    notes: tuple = ()


@dataclass(frozen=True)
class CriticalData:
    """Critical quantities of the decision tree (whichever are defined)."""

    a_max_scale: float | None = None        # (-lam/xi^2)^(1/(2g-4)) for gamma > 2
    f_pot_at_max: float | None = None


@dataclass(frozen=True)
class PeriodResult:
    period: float
    quad_error: float
    a_min: float
    a_max: float
    nodes: int


@dataclass(frozen=True)
class CertificationReport:
    """classify --certify's "certification" block; diagnostics record its one integration."""

    passed: bool
    checks: dict
    horizon: float
    diagnostics: dict


def a_max_critical(params: SolutionParams) -> CriticalData:
    """Barrier location and height for gamma > 2, lam < 0, xi != 0.

    At the barrier a*, lam a*^(4 - 2 gamma) = -xi^2, so its height is
    F* = xi^2 (gamma - 2) / ((2 gamma - 2) a*^2), formed in log space, where
    ln xi^2 is 2 ln|xi| (xi^2 may leave the float range) and the gamma factor
    is ln(gamma - 2) - ln 2 - ln(gamma - 1) (2 gamma - 2 may overflow).  Near
    gamma = 2 the exponent 1/(2 gamma - 4) explodes and a* can leave the
    float range; a* is then returned as 0 or inf, and F* as its limit inf or
    0 (not the nan of inf - inf that the potential gives there), so that
    E(0) still compares with it exactly.
    """
    if not (params.gamma > 2.0 and params.lam < 0.0 and params.xi != 0.0):
        raise UndefinedCritical(
            f"needs gamma > 2, lam < 0, xi != 0; got gamma={params.gamma}, "
            f"lam={params.lam}, xi={params.xi}"
        )
    g = params.gamma
    log_a = _log_stationary_scale(params)
    log_f = (2.0 * math.log(abs(params.xi)) + math.log(g - 2.0) - math.log(2.0)
             - math.log(g - 1.0) - 2.0 * log_a)
    f_star = math.exp(log_f) if log_f < 709.0 else math.inf
    return CriticalData(a_max_scale=_stationary_scale(params), f_pot_at_max=f_star)


def _stationary_scale(params: SolutionParams) -> float | None:
    """Stationary point (-lam/xi^2)^(1/(2g-4)) of the potential, when lam < 0.

    Computed in log space; returns 0.0 / inf when outside the representable
    range (exponent blows up as gamma -> 2).
    """
    if params.lam >= 0.0 or params.xi == 0.0 or params.gamma == 2.0:
        return None
    log_a = _log_stationary_scale(params)
    return 0.0 if log_a < -700.0 else math.inf if log_a > 700.0 else math.exp(log_a)


def _is_steady(params: SolutionParams) -> bool:
    """Exact equilibrium: zero rate and exactly zero acceleration.

    Exact zero is deliberate: at an unstable barrier top (gamma > 2) any
    nonzero residual acceleration, however small, grows exponentially, so
    only a float-exact equilibrium can be certified as steady.
    """
    return params.a1 == 0.0 and emden_rhs(ScaleState(0.0, params.a0, 0.0), params)[1] == 0.0


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

    # F_pot -> 0 > E(0) as a -> inf, so the doubling ends (at inf at the latest).
    hi = 2.0 * anchor
    while not g(hi) > 0.0:
        hi *= 2.0
    a_max = _log_bisect(g, anchor, hi)
    return float(a_min), float(a_max)


def _excess(params: SolutionParams, e0: float):
    """g(a) = F_pot(a) - E(0) on floats, for the root finds: ~50 evaluations per root."""
    xi2, lam, p = params.xi ** 2, params.lam, 2.0 * params.gamma - 2.0

    def g(a):
        return 0.5 * xi2 * _fpow(a, -2.0) + lam / p * _fpow(a, -p) - e0

    return g


def _log_bisect(g, lo, hi):
    """Root of g between 0 < lo < hi, where g changes sign, by bisection in u = ln a.

    The midpoint sqrt(lo) sqrt(hi) cannot overflow.  The search ends when it
    rounds to an end, and returns the end with g <= 0, inside the well.
    """
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
# Blowup times: the quadrature converges to 1e-12 relative (absolute below 1),
# and the bracket adds the integrator's share, _EVENT_BUDGET times its default
# rel_tol scaled by max(1, t*).  Over 600 seeded gamma > 2 blowups (seeds 3, 17
# and 2024 of the sweep ranges) the event lay a median 0.03 and at most 12 of
# those units from t*; near the barrier, more.
_BLOWUP_QUAD_TOL = 1e-12
_EVENT_BUDGET = 200.0


def _orbit_time(params: SolutionParams, a_lo, a_hi, gap_lo, gap_hi, abs_tol, rel_tol=0.0):
    """Time int da / sqrt(2 (E0 - F_pot(a))) to pass from a_lo to a_hi.

    gap_lo and gap_hi are E0 - F_pot at the two ends, given exactly: 0 at a
    turning point, a1^2/2 at the starting scale.  a_lo = 0 is a collapse
    (gamma > 2, lam < 0), where the integrand vanishes like a^(gamma - 1).

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


def period_quadrature(params: SolutionParams, quad_tol: float = 1e-9) -> PeriodResult:
    """Oscillation period T = 2 * integral da / sqrt(2 (E0 - F_pot(a))).

    The integral runs between the turning points, by ``_orbit_time`` to an
    absolute tolerance quad_tol (its error estimate is reported as quad_error).
    """
    a_min, a_max = turning_points(params)
    if a_max - a_min <= 1e-12 * max(a_min, 1e-300):
        raise DegenerateOrbit("orbit is a single point; report it as steady instead")
    half, err, nodes = _orbit_time(params, a_min, a_max, 0.0, 0.0, 0.5 * quad_tol)
    return PeriodResult(period=2.0 * half, quad_error=2.0 * err, a_min=a_min,
                        a_max=a_max, nodes=nodes)


def _blowup_time(params: SolutionParams, e0: float, a_barrier: float):
    """Time t* at which a reaches 0 on a gamma > 2, lam < 0 blowup orbit, and its error.

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
    hi = a_barrier
    if math.isinf(hi):  # the barrier is beyond the float range, F_pot -> 0 > E(0) before it
        hi = 2.0 * a0
        while not g(hi) > 0.0:
            hi *= 2.0
    a_turn = _log_bisect(g, a0, hi)
    up, err_up, _ = _orbit_time(params, a0, a_turn, 0.5 * a1 * a1, 0.0,
                                _BLOWUP_QUAD_TOL, _BLOWUP_QUAD_TOL)
    down, err_down, _ = _orbit_time(params, 0.0, a_turn, None, 0.0,
                                    _BLOWUP_QUAD_TOL, _BLOWUP_QUAD_TOL)
    return up + down, err_up + err_down


def classify(params: SolutionParams, locate_blowup: bool = False) -> Regime:
    """Map parameters to their long-time branch.

    Classification is symbolic: energy against the potential's shape.  For
    gamma = 2 blowups the time comes from the closed-form quadratic.  For
    gamma > 2 blowups, ``locate_blowup`` adds the time t* from the energy
    quadrature (no integration) with the bracket t* +- w, where w is the
    quadrature's error estimate plus the integrator's share,
    _EVENT_BUDGET * rel_tol * max(1, t*) at the default rel_tol.  When the
    quadrature cannot produce t*, blowup_time stays None and a note says why.
    """
    if params.xi == 0.0:
        raise ZeroRotation("classification requires xi != 0")
    g = params.gamma
    split = energy_of(params.a0, params.a1, params)
    e0 = split.E
    cert = {"E0": e0, "F_kin0": split.F_kin, "F_pot0": split.F_pot}

    if g < 2.0:
        if e0 < 0.0:
            a_eq = _stationary_scale(params)
            if a_eq is not None and 0.0 < a_eq < math.inf:
                cert["a_eq"] = a_eq
                cert["F_pot_min"] = potential(a_eq, params)
            if _is_steady(params):
                return Regime(kind="steady", branch="1", certificate=cert)
            try:
                pr = period_quadrature(params)
            except DegenerateOrbit:
                # Below quadrature resolution the orbit is a point.
                return Regime(kind="steady", branch="1", certificate=cert,
                              notes=("orbit degenerate at quadrature resolution",))
            except NoBracket as exc:
                # Trapped by energy, but the inner turning point is beyond
                # float range (gamma extremely close to 2): periodic with an
                # uncomputable period.
                return Regime(kind="time-periodic", branch="1", certificate=cert,
                              notes=(f"period not computable: {exc}",))
            cert.update(a_min=pr.a_min, a_max=pr.a_max, period_quad_error=pr.quad_error)
            return Regime(kind="time-periodic", branch="1", period=pr.period,
                          certificate=cert)
        return Regime(kind="global", branch="1", certificate=cert)

    if g == 2.0:
        xi2, neg_lam = params.xi ** 2, -params.lam
        cert["xi_squared"] = xi2
        cert["neg_lam"] = neg_lam
        if xi2 > neg_lam or (xi2 == neg_lam and params.a1 >= 0.0):
            # Steady when xi^2 = -lam with a1 = 0: the scale never moves.
            kind = "steady" if _is_steady(params) else "global"
            return Regime(kind=kind, branch="2aI", certificate=cert)
        if xi2 == neg_lam:  # a1 < 0: a(t) = a0 + a1 t is exactly linear
            t_star = -params.a0 / params.a1
            cert["linear_root"] = t_star
            cert["rate_ratio"] = -params.a1 / params.a0
            notes = (
                "scale is linear in t; the blowup time is the root -a0/a1 of "
                "a0 + a1 t (the reciprocal ratio -a1/a0 equals it only when "
                "a0 = -a1 and does not zero the scale in general)",
            )
            return Regime(kind="finite-time-blowup", branch="2aII", blowup_time=t_star,
                          blowup_bracket=(t_star - 1e-6, t_star + 1e-6),
                          certificate=cert, notes=notes)
        threshold = math.sqrt(neg_lam - xi2) / params.a0
        cert["blowup_threshold"] = threshold
        if params.a1 < threshold:
            c0, c1, c2 = gamma2_scale_squared_coeffs(params)
            t_star = _first_positive_root(c2, c1, c0)
            bracket = (t_star - 1e-6, t_star + 1e-6) if t_star is not None else None
            return Regime(kind="finite-time-blowup", branch="2b-blowup", blowup_time=t_star,
                          blowup_bracket=bracket, certificate=cert)
        return Regime(kind="global", branch="2b-global", certificate=cert)

    # gamma > 2
    if params.lam >= 0.0:
        return Regime(kind="global", branch="3a", certificate=cert)
    crit = a_max_critical(params)
    a_max, f_star = crit.a_max_scale, crit.f_pot_at_max
    cert["a_max_scale"] = a_max
    cert["F_pot_at_max"] = f_star
    if params.a0 >= a_max:
        branch_stub = "3bI"
        is_global = e0 <= f_star or params.a1 >= 0.0
    else:
        branch_stub = "3bII"
        is_global = e0 >= f_star and params.a1 > 0.0
    if is_global:
        kind = "steady" if _is_steady(params) else "global"
        return Regime(kind=kind, branch=f"{branch_stub}-global", certificate=cert)
    branch = f"{branch_stub}-blowup"
    if not locate_blowup:
        return Regime(kind="finite-time-blowup", branch=branch, certificate=cert)
    t_star, quad_err = _blowup_time(params, e0, a_max)
    if not quad_err <= 1e-6 * max(1.0, t_star):     # false for a nan or inf as well
        return Regime(kind="finite-time-blowup", branch=branch, certificate=cert,
                      notes=(f"blowup time not computable: quadrature gave {t_star} "
                             f"+- {quad_err}",))
    cert["blowup_quad_error"] = quad_err
    w = quad_err + _EVENT_BUDGET * IntegrationConfig.rel_tol * max(1.0, t_star)
    return Regime(kind="finite-time-blowup", branch=branch, blowup_time=t_star,
                  blowup_bracket=(t_star - w, t_star + w), certificate=cert)


def certify(params: SolutionParams, regime: Regime, horizon: float = 20.0) -> CertificationReport:
    """Cross-check a classification by direct integration.

    global   : no collapse up to the horizon.
    periodic : the state returns to (a0, a1) after one period within 1e-6.
    steady   : the scale stays within 1e-9 of a0 over the horizon.
    blowup   : a collapse event occurs, inside the reported bracket if any;
               event_margin is its distance from the bracket centre over the
               half-width.

    All of them come from one integration, whose solver record is the
    report's diagnostics.  Raises CertificationMismatch on disagreement; never
    suppresses it, IntegrationFailed when the integration ends in a step
    failure, and NonPositiveTime for a horizon that is not positive, whatever
    the regime.
    """
    if not horizon > 0:
        raise NonPositiveTime(f"certification horizon must be positive, got {horizon}")
    if regime.kind not in KINDS:
        raise ValueError(f"unknown regime kind {regime.kind!r}")
    if regime.kind == "time-periodic" and regime.period is None:
        raise InvalidParams(["Missing:period"])
    t_end = horizon
    if regime.kind == "time-periodic":
        t_end = regime.period * 1.001
    elif regime.blowup_bracket is not None:
        t_end = max(horizon, regime.blowup_bracket[1] * 1.5)
    traj = integrate(params, IntegrationConfig(t_end=t_end))
    end = traj.terminal
    if end.kind == "step_failure":
        raise IntegrationFailed(end.t, end.message)
    checks = {"terminal": end.kind}
    if end.kind != ("collapsed" if regime.kind == "finite-time-blowup" else "reached_end"):
        raise CertificationMismatch(regime.kind, end.kind, f"classified {regime.kind} but "
                                    f"integration ended with {end.kind} at t = {end.t}")
    if regime.kind == "time-periodic":
        st = traj.state_at(regime.period)
        dist = max(abs(st.a - params.a0), abs(st.adot - params.a1))
        checks["return_distance"] = dist
        if dist > 1e-6 * max(1.0, abs(params.a0), abs(params.a1)):
            raise CertificationMismatch(regime.kind, f"return distance {dist}", f"state after "
                                        f"one period T = {regime.period} is off by {dist}")
    elif regime.kind == "steady":
        wobble = float(np.max(np.abs(traj.a - params.a0)))
        checks["max_wobble"] = wobble
        if wobble > 1e-9:
            raise CertificationMismatch(regime.kind, f"wobble {wobble}",
                                        f"classified steady but |a - a0| reached {wobble}")
    elif regime.kind == "finite-time-blowup":
        checks["event_time"] = end.t
        if regime.blowup_bracket is not None:
            lo, hi = regime.blowup_bracket
            checks["event_margin"] = abs(end.t - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
            if not lo <= end.t <= hi:
                raise CertificationMismatch(
                    regime.kind, f"event at {end.t}",
                    f"collapse at t = {end.t} outside the reported bracket [{lo}, {hi}]")
    return CertificationReport(passed=True, checks=checks, horizon=horizon,
                               diagnostics=traj.diagnostics)
