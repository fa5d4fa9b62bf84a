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

``certify`` cross-checks any classification against direct integration and
refuses to stay silent on a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .emden import (
    IntegrationConfig,
    _first_positive_root,
    _fpow,
    emden_rhs,
    energy_of,
    gamma2_scale_squared_coeffs,
    integrate,
    potential,
)
from .errors import (
    CertificationMismatch,
    DegenerateOrbit,
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

BRANCHES = (
    "1", "2aI", "2aII", "2b-blowup", "2b-global", "3a",
    "3bI-global", "3bI-blowup", "3bII-global", "3bII-blowup",
)

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
    regime: Regime
    horizon: float
    checks: dict
    passed: bool = True


def a_max_critical(params: SolutionParams) -> CriticalData:
    """Barrier location and height for gamma > 2, lam < 0, xi != 0.

    Near gamma = 2 the exponent 1/(2 gamma - 4) explodes and the barrier
    scale can leave the representable range; those limits are returned as 0
    (with an infinite barrier height) or inf (with height 0) so the decision
    tree still applies.
    """
    if not (params.gamma > 2.0 and params.lam < 0.0 and params.xi != 0.0):
        raise UndefinedCritical(
            f"needs gamma > 2, lam < 0, xi != 0; got gamma={params.gamma}, "
            f"lam={params.lam}, xi={params.xi}"
        )
    a_max = _stationary_scale(params)
    if a_max == 0.0:
        return CriticalData(a_max_scale=0.0, f_pot_at_max=math.inf)
    if math.isinf(a_max):
        return CriticalData(a_max_scale=math.inf, f_pot_at_max=0.0)
    f_star = potential(a_max, params)
    # Sanity: the barrier is a local maximum (tolerant probe; near gamma = 2
    # the barrier is so flat the difference can sit at rounding level).
    slack = 1e-9 * max(1.0, abs(f_star))
    for probe in (a_max * (1.0 - 1e-3), a_max * (1.0 + 1e-3)):
        if potential(probe, params) > f_star + slack:
            raise UndefinedCritical("potential is not locally maximal at the critical scale")
    return CriticalData(a_max_scale=a_max, f_pot_at_max=f_star)


def _stationary_scale(params: SolutionParams) -> float | None:
    """Stationary point (-lam/xi^2)^(1/(2g-4)) of the potential, when lam < 0.

    Computed in log space; returns 0.0 / inf when outside the representable
    range (exponent blows up as gamma -> 2).
    """
    if params.lam >= 0.0 or params.xi == 0.0 or params.gamma == 2.0:
        return None
    log_a = math.log(-params.lam / params.xi ** 2) / (2.0 * params.gamma - 4.0)
    if log_a < -700.0:
        return 0.0
    if log_a > 700.0:
        return math.inf
    return math.exp(log_a)


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

    xi2, lam, p = params.xi ** 2, params.lam, 2.0 * params.gamma - 2.0

    def g(a):  # F_pot(a) - E(0) in floats: bisection takes ~50 evaluations per root
        return 0.5 * xi2 * _fpow(a, -2.0) + lam / p * _fpow(a, -p) - e0

    a0 = params.a0
    if params.a1 != 0.0 and g(a0) < 0.0:
        anchor = a0
    else:
        # Starting at a turning point: step into the well along the force.
        acc = emden_rhs(ScaleState(0.0, a0, 0.0), params)[1]
        if acc == 0.0:
            return a0, a0  # exact equilibrium
        direction = math.copysign(1.0, acc)
        anchor = None
        step = 1e-8
        while step < 0.5:
            cand = a0 * (1.0 + direction * step)
            if g(cand) < 0.0:
                anchor = cand
                break
            step *= 4.0
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


def period_quadrature(params: SolutionParams, quad_tol: float = 1e-9) -> PeriodResult:
    """Oscillation period T = 2 * integral da / sqrt(2 (E0 - F_pot(a))).

    The substitution a = a_min + (a_max - a_min) sin^2(theta) removes the
    inverse-square-root endpoint singularities.  The transformed integrand is
    integrated by composite 24-node Gauss-Legendre panels, doubling the panel
    count until successive values agree to quad_tol (reported as quad_error).
    """
    a_min, a_max = turning_points(params)
    width = a_max - a_min
    if width <= 1e-12 * max(a_min, 1e-300):
        raise DegenerateOrbit("orbit is a single point; report it as steady instead")
    e0 = energy_of(params.a0, params.a1, params).E

    def integral(panels):
        edges = np.linspace(0.0, 0.5 * math.pi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        theta = (mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel()
        st = np.sin(theta)
        a = a_min + width * st * st
        pot = potential(a, params)
        # E0 - F_pot cancels catastrophically right at the turning points;
        # flooring at the rounding scale of the operands keeps the poisoned
        # endpoint nodes from exploding the quadrature.
        noise = 8.0 * np.finfo(float).eps * (abs(e0) + np.abs(pot))
        delta = np.maximum(e0 - pot, noise)
        g = 2.0 * width * st * np.cos(theta) / np.sqrt(2.0 * delta)
        w = (half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel()
        return 2.0 * float(np.sum(w * g))

    prev = integral(1)
    panels, nodes = 2, 24
    err_prev = math.inf
    while panels <= 4096:
        cur = integral(panels)
        nodes = panels * 24
        err = abs(cur - prev)
        if err <= quad_tol:
            return PeriodResult(period=cur, quad_error=err, a_min=a_min,
                                a_max=a_max, nodes=nodes)
        if err >= 0.5 * err_prev:
            # Refinement has hit the cancellation noise floor; the previous
            # estimate is as good as this integrand evaluation permits.
            return PeriodResult(period=prev, quad_error=err_prev, a_min=a_min,
                                a_max=a_max, nodes=nodes // 2)
        prev, err_prev = cur, err
        panels *= 2
    return PeriodResult(period=prev, quad_error=err_prev, a_min=a_min,
                        a_max=a_max, nodes=nodes)


def classify(params: SolutionParams, locate_blowup: bool = False,
             blowup_horizon: float = 100.0) -> Regime:
    """Map parameters to their long-time branch.

    For gamma = 2 blowups the time comes from the closed-form quadratic.  For
    gamma > 2 blowups a certified bracket is produced by integration only
    when ``locate_blowup`` is set (classification itself stays symbolic).
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
            if _is_steady(params):
                # xi^2 = -lam with a1 = 0: the scale never moves.
                return Regime(kind="steady", branch="2aI", certificate=cert)
            return Regime(kind="global", branch="2aI", certificate=cert)
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
        if _is_steady(params):
            return Regime(kind="steady", branch=f"{branch_stub}-global", certificate=cert)
        return Regime(kind="global", branch=f"{branch_stub}-global", certificate=cert)
    regime = Regime(kind="finite-time-blowup", branch=f"{branch_stub}-blowup",
                    certificate=cert)
    if locate_blowup:
        traj = integrate(params, IntegrationConfig(t_end=blowup_horizon))
        if traj.terminal.kind == "collapsed":
            regime = Regime(kind=regime.kind, branch=regime.branch,
                            blowup_time=traj.terminal.t,
                            blowup_bracket=traj.terminal.bracket,
                            certificate=cert)
        else:
            regime = Regime(kind=regime.kind, branch=regime.branch, certificate=cert,
                            notes=(f"no collapse located within horizon {blowup_horizon}",))
    return regime


def certify(params: SolutionParams, regime: Regime, horizon: float = 20.0,
            cfg: IntegrationConfig | None = None) -> CertificationReport:
    """Cross-check a classification by direct integration.

    global   : no collapse up to the horizon.
    periodic : the state returns to (a0, a1) after one period within 1e-6.
    steady   : the scale stays within 1e-9 of a0 over the horizon.
    blowup   : a collapse event occurs, inside the reported bracket if any.

    Raises CertificationMismatch on disagreement; never suppresses it, and
    NonPositiveTime for a horizon that is not positive, whatever the regime.
    """
    if not horizon > 0:
        raise NonPositiveTime(f"certification horizon must be positive, got {horizon}")
    checks = {}
    cfg = cfg or IntegrationConfig()
    if regime.kind == "global":
        traj = integrate(params, replace(cfg, t_end=horizon))
        checks["terminal"] = traj.terminal.kind
        if traj.terminal.kind != "reached_end":
            raise CertificationMismatch(regime.kind, traj.terminal.kind,
                                        f"classified global but integration ended with "
                                        f"{traj.terminal.kind} at t = {traj.terminal.t}")
    elif regime.kind == "time-periodic":
        t_ret = regime.period
        if t_ret is None:
            raise InvalidParams(["Missing:period"])
        traj = integrate(params, replace(cfg, t_end=t_ret * 1.001))
        if traj.terminal.kind != "reached_end":
            raise CertificationMismatch(regime.kind, traj.terminal.kind,
                                        "classified periodic but the orbit did not survive "
                                        "one period")
        st = traj.state_at(t_ret)
        dist = max(abs(st.a - params.a0), abs(st.adot - params.a1))
        tol = 1e-6 * max(1.0, abs(params.a0), abs(params.a1))
        checks["return_distance"] = dist
        if dist > tol:
            raise CertificationMismatch(regime.kind, f"return distance {dist}",
                                        f"state after one period T = {t_ret} is off by {dist}")
    elif regime.kind == "steady":
        traj = integrate(params, replace(cfg, t_end=horizon))
        checks["terminal"] = traj.terminal.kind
        if traj.terminal.kind != "reached_end":
            raise CertificationMismatch(regime.kind, traj.terminal.kind,
                                        "classified steady but the orbit did not survive")
        wobble = float(np.max(np.abs(traj.a - params.a0)))
        checks["max_wobble"] = wobble
        if wobble > 1e-9:
            raise CertificationMismatch(regime.kind, f"wobble {wobble}",
                                        f"classified steady but |a - a0| reached {wobble}")
    elif regime.kind == "finite-time-blowup":
        t_hi = horizon
        if regime.blowup_bracket is not None:
            t_hi = max(horizon, regime.blowup_bracket[1] * 1.5)
        traj = integrate(params, replace(cfg, t_end=t_hi))
        checks["terminal"] = traj.terminal.kind
        if traj.terminal.kind != "collapsed":
            raise CertificationMismatch(regime.kind, traj.terminal.kind,
                                        f"classified blowup but integration ended with "
                                        f"{traj.terminal.kind} at t = {traj.terminal.t}")
        checks["event_time"] = traj.terminal.t
        if regime.blowup_bracket is not None:
            lo, hi = regime.blowup_bracket
            if not (lo <= traj.terminal.t <= hi):
                raise CertificationMismatch(
                    regime.kind, f"event at {traj.terminal.t}",
                    f"collapse at t = {traj.terminal.t} outside the reported "
                    f"bracket [{lo}, {hi}]")
    else:
        raise ValueError(f"unknown regime kind {regime.kind!r}")
    return CertificationReport(regime=regime, horizon=horizon, checks=checks)
