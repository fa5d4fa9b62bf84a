"""Long-time behavior of the scale factor: the full decision tree.

With E(0) = a1^2/2 + F_pot(a0) and the effective potential F_pot of
``orbit``, every orbit of addot = xi^2/a^3 + lam/a^(2 gamma - 1) falls into
exactly one branch:

  1 < gamma < 2 : F_pot has a unique global minimum.  E(0) < 0 traps the
      orbit between two turning points (time-periodic; steady when it sits
      at the minimum); otherwise the orbit is global.                ["1"]
  gamma = 2     : addot = (xi^2 + lam)/a^3, and a^2(t) is an exact quadratic.
      xi^2 > -lam, or xi^2 = -lam with a1 >= 0        -> global      ["2aI"]
      xi^2 = -lam and a1 < 0 (a is linear in t)       -> blowup      ["2aII"]
      xi^2 < -lam: blowup iff a1 < sqrt(-lam-xi^2)/a0 -> blowup/global ["2b-*"]
      So too at any gamma where lam < 0 and lam (gamma - 2) underflows to 0.
  gamma > 2     : lam >= 0 makes F_pot decreasing     -> global      ["3a"]
      lam < 0: F_pot has a unique maximum at a_Max = (-lam/xi^2)^(1/(2g-4));
      whether the orbit clears or is trapped by that barrier decides
      global vs finite-time blowup.                   ["3bI-*", "3bII-*"]

Periods and gamma > 2 blowup times are the energy integral
int da / sqrt(2 (E0 - F_pot(a))), taken by ``orbit``'s one quadrature, between
its turning points.  ``certify``
cross-checks any classification against direct integration and refuses to
stay silent on a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emden import IntegrationConfig, integrate
from .errors import (
    CertificationMismatch,
    DegenerateOrbit,
    IntegrationFailed,
    InvalidParams,
    NoBracket,
    NonPositiveTime,
    ZeroRotation,
)
from .fields import ScaleState, SolutionParams
from .orbit import (_blowup_time, _orbit_time, barrier, emden_rhs, energy_of,
                    parabola_collapse, parabolic, reaches_zero, resolved, turning_points)

__all__ = [
    "Regime",
    "PeriodResult",
    "CertificationReport",
    "classify",
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


def _is_steady(params: SolutionParams) -> bool:
    """Exact equilibrium: zero rate and exactly zero acceleration.

    Exact zero is deliberate: at an unstable barrier top (gamma > 2) any
    nonzero residual acceleration, however small, grows exponentially, so
    only a float-exact equilibrium can be certified as steady.
    """
    return params.a1 == 0.0 and emden_rhs(ScaleState(0.0, params.a0, 0.0), params)[1] == 0.0


# A gamma > 2 blowup's bracket adds the integrator's share to the quadrature's
# error: _EVENT_BUDGET times its default rel_tol scaled by max(1, t*).  Over
# 600 seeded gamma > 2 blowups (seeds 3, 17 and 2024 of the sweep ranges) the
# event lay a median 0.03 and at most 12 of those units from t*; near the
# barrier, more.
_EVENT_BUDGET = 200.0


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


def classify(params: SolutionParams, locate_blowup: bool = False) -> Regime:
    """Map parameters to their long-time branch.

    Classification is symbolic: energy against the potential's shape.  Asked
    first: where q is a parabola (orbit.parabolic) at gamma = 2 or lam < 0,
    orbit.parabola_collapse decides the branch on s = xi xi + lam and a1, and
    gives the blowup time t* with its bracket t* +- w, as for the run.  For
    gamma > 2 blowups, ``locate_blowup`` adds the time t* from the energy
    quadrature (no integration) with the bracket t* +- w, where w is the
    quadrature's error estimate plus the integrator's share,
    _EVENT_BUDGET * rel_tol * max(1, t*) at the default rel_tol.  Where t* is
    not orbit.resolved (nor so for orbit.collapse_time), blowup_time stays None
    and a note says why.
    """
    if params.xi == 0.0:
        raise ZeroRotation("classification requires xi != 0")
    g = params.gamma
    split = energy_of(params.a0, params.a1, params)
    e0 = split.E
    cert = {"E0": e0, "F_kin0": split.F_kin, "F_pot0": split.F_pot}

    if parabolic(params) and (g == 2.0 or params.lam < 0.0):
        s, r, _, t_star, w = parabola_collapse(params, IntegrationConfig.rel_tol)
        cert.update(xi_squared=params.xi * params.xi, neg_lam=-params.lam)
        if t_star == math.inf and s >= 0.0:
            # Steady when xi^2 = -lam with a1 = 0: the scale never moves.
            kind = "steady" if _is_steady(params) else "global"
            return Regime(kind=kind, branch="2aI", certificate=cert)
        if s == 0.0:  # a1 < 0: a(t) = a0 + a1 t is exactly linear
            cert.update(linear_root=t_star, rate_ratio=-params.a1 / params.a0)
            notes = (
                "scale is linear in t; the blowup time is the root -a0/a1 of "
                "a0 + a1 t (the reciprocal ratio -a1/a0 equals it only when "
                "a0 = -a1 and does not zero the scale in general)",
            )
            return Regime(kind="finite-time-blowup", branch="2aII", blowup_time=t_star,
                          blowup_bracket=(t_star - w, t_star + w), certificate=cert, notes=notes)
        cert["blowup_threshold"] = r
        if t_star < math.inf:
            return Regime(kind="finite-time-blowup", branch="2b-blowup", blowup_time=t_star,
                          blowup_bracket=(t_star - w, t_star + w), certificate=cert)
        return Regime(kind="global", branch="2b-global", certificate=cert)

    if g < 2.0:
        if e0 < 0.0:        # so lam < 0: the well's bottom exists
            a_eq, _, f_min = barrier(params)
            if f_min is not None:
                cert.update(a_eq=a_eq, F_pot_min=f_min)
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

    # gamma > 2
    if params.lam >= 0.0:
        return Regime(kind="global", branch="3a", certificate=cert)
    a_max, _, f_star = barrier(params)     # a* is 0 or inf, F* inf or 0, beyond the floats
    cert.update(a_max_scale=a_max, F_pot_at_max=f_star)
    branch_stub = "3bI" if params.a0 >= a_max else "3bII"
    if not reaches_zero(params, e0, a_max, f_star):
        kind = "steady" if _is_steady(params) else "global"
        return Regime(kind=kind, branch=f"{branch_stub}-global", certificate=cert)
    branch = f"{branch_stub}-blowup"
    if not locate_blowup:
        return Regime(kind="finite-time-blowup", branch=branch, certificate=cert)
    t_star, quad_err = _blowup_time(params, e0, a_max)
    if not resolved(t_star, quad_err):
        return Regime(kind="finite-time-blowup", branch=branch, certificate=cert,
                      notes=(f"blowup time not computable: quadrature gave {t_star} "
                             f"+- {quad_err}",))
    cert["blowup_quad_error"] = quad_err
    w = quad_err + _EVENT_BUDGET * IntegrationConfig.rel_tol * max(1.0, t_star)
    return Regime(kind="finite-time-blowup", branch=branch, blowup_time=t_star,
                  blowup_bracket=(t_star - w, t_star + w), certificate=cert)


def _parabola_check(params: SolutionParams, traj, t_star: float, half: float) -> dict:
    """Check a c = 0 collapse at t* +- half on the integrated state, not on the root
    that the run shares with classify: the parabola of the run's last node t_n,
    q + qdot tau + 2 E(0) tau^2 with tau = t* - t_n, must vanish at t*, and its rate
    too where s = 0 (a double root).  Each budget holds the gap between the run's
    parabola and the closed form's, |2 E(0) - c2| t*^2 in q with c2 = a1^2 + s/a0^2
    and its rounding (the derivative, in qdot), a root's move within +- half, and
    the run's tolerance share, rel_tol max|q| + abs_tol (max|qdot| in qdot).
    """
    cfg, a0, a1 = IntegrationConfig(), params.a0, params.a1
    s, _, c2, _, _ = parabola_collapse(params, 0.0)
    e0 = energy_of(a0, a1, params).E
    tau, a, adot = t_star - float(traj.ts[-1]), float(traj.a[-1]), float(traj.adot[-1])
    q, qdot = a * a + tau * (2.0 * a * adot + 2.0 * e0 * tau), 2.0 * a * adot + 4.0 * e0 * tau
    gap = abs(2.0 * e0 - c2) + math.ulp(1.0) * (a1 * a1 + abs(s) / (a0 * a0))
    rows = [("q", q, gap * t_star * t_star + abs(qdot) * half, traj.a * traj.a)]
    if s == 0.0:
        rows.append(("qdot", qdot, 2.0 * gap * t_star + 4.0 * abs(e0) * half,
                     2.0 * traj.a * traj.adot))
    checks = {}
    for name, value, budget, run in rows:
        budget += cfg.rel_tol * float(np.max(np.abs(run))) + cfg.abs_tol
        checks[f"{name}_at_event"], checks[f"{name}_budget"] = value, budget
        if not abs(value) <= budget:
            raise CertificationMismatch("finite-time-blowup", f"{name} = {value} at t*",
                                        f"integrated {name} = {value} at the collapse t* = "
                                        f"{t_star}, beyond its budget {budget}")
    return checks


def certify(params: SolutionParams, regime: Regime, horizon: float = 20.0) -> CertificationReport:
    """Cross-check a classification by direct integration.

    global   : no collapse up to the horizon.
    periodic : the state returns to (a0, a1) after one period within 1e-6.
    steady   : the scale stays within 1e-9 of a0 over the horizon.
    blowup   : a collapse event occurs, inside the reported bracket if any;
               event_margin is its distance from the bracket centre over the
               half-width.  Where q is a parabola (orbit.parabolic), whose
               event is the closed-form t* that classify reports too, the
               integrated state at t* is checked instead (_parabola_check).

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
            if parabolic(params):
                checks.update(_parabola_check(params, traj, regime.blowup_time, 0.5 * (hi - lo)))
            else:
                checks["event_margin"] = abs(end.t - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
                if not lo <= end.t <= hi:
                    raise CertificationMismatch(
                        regime.kind, f"event at {end.t}",
                        f"collapse at t = {end.t} outside the reported bracket [{lo}, {hi}]")
    return CertificationReport(passed=True, checks=checks, horizon=horizon,
                               diagnostics=traj.diagnostics)
