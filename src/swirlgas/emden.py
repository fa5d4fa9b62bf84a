"""Scale-factor dynamics: the second-order Emden-type equation

    addot = xi^2 / a^3 + lam / a^(2 gamma - 1),    a(0) = a0 > 0, adot(0) = a1.

This one-degree-of-freedom system conserves

    E = adot^2 / 2 + xi^2 / (2 a^2) + lam / ((2 gamma - 2) a^(2 gamma - 2)),

which the integrator monitors node by node.  For gamma = 2 the equation
collapses to addot = (xi^2 + lam)/a^3 and a^2(t) is an exact quadratic in t;
``closed_form_gamma2`` provides that closed form as an independent oracle.

``integrate`` steps q = a^2 instead (Levi-Civita's regularization in one
degree of freedom): with E held at E(0), qddot = 4 E(0) + c q^(1 - gamma),
c = 2 lam (gamma - 2)/(gamma - 1).  The centrifugal term drops out, a bounce
is a smooth turn of q, and for gamma = 2 q is the quadratic itself, which the
adaptive 5(4) pair of ``_rk`` reproduces to rounding.  Trajectories report
a = sqrt(q), adot = qdot/(2 a) and E from those, so the drift of E checks the
q system's first integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import (CollapsedAtOrBefore, CollapsedState, InvalidParams, NonPositiveTime,
                     TrajectoryTooShort)
from .fields import ScaleState, SolutionParams

__all__ = [
    "EnergySplit",
    "IntegrationConfig",
    "TerminalEvent",
    "Trajectory",
    "emden_rhs",
    "energy_of",
    "potential",
    "integrate",
    "closed_form_gamma2",
    "gamma2_scale_squared_coeffs",
]


@dataclass(frozen=True)
class EnergySplit:
    """Total energy and its kinetic/potential parts; E = F_kin + F_pot."""

    E: float
    F_kin: float
    F_pot: float


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerances and event thresholds for the scale-factor integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = math.inf
    collapse_epsilon: float = 1e-8
    t_end: float = 10.0

    def __post_init__(self):
        violations = [f"NonPositive:{name}"
                      for name in ("rel_tol", "abs_tol", "max_step", "collapse_epsilon")
                      if not getattr(self, name) > 0]
        if violations:
            raise InvalidParams(violations)


@dataclass(frozen=True)
class TerminalEvent:
    """How an integration ended.

    kind: "reached_end" | "collapsed" | "step_failure".
    For "collapsed", t is the bisected time at which the smallest scale
    reaches collapse_epsilon, or the time of a touch of zero, and bracket is
    (t_lo, t_hi) with the last step size as its width scale.
    """

    kind: str
    t: float
    bracket: tuple | None = None
    message: str = ""


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
    addot = params.xi ** 2 / _rk._fpow(a, 3) + params.lam / _rk._fpow(a, 2.0 * params.gamma - 1.0)
    return state.adot, addot


class Trajectory:
    """An integrated scale-factor path with dense output and energy record.

    Attributes
    ----------
    ts, a, adot : node arrays
    E, F_kin, F_pot : per-node energy split
    drift : per-node |E - E(0)| / max(1, |E(0)|)
    terminal : TerminalEvent
    nfev, naccepted, nrejected, diagnostics : solver counters (read-only)
    """

    nfev = property(lambda self: self._sol.nfev, doc="right-hand-side evaluations")
    naccepted = property(lambda self: self._sol.naccepted, doc="accepted steps")
    nrejected = property(lambda self: self._sol.nrejected, doc="rejected trial steps")

    def __init__(self, params: SolutionParams, sol: _rk.RkSolution, terminal: TerminalEvent):
        self.params = params
        self._sol = sol
        self.ts = sol.ts
        self.a = np.sqrt(sol.ys[:, 0])
        self.adot = sol.ys[:, 1] / (2.0 * self.a)
        self.hs = sol.hs
        self.terminal = terminal
        self.F_kin = 0.5 * self.adot ** 2
        self.F_pot = potential(self.a, params)
        self.E = self.F_kin + self.F_pot
        self.drift = np.abs(self.E - self.E[0]) / max(1.0, abs(self.E[0]))

    @property
    def t_span(self):
        return float(self.ts[0]), float(self.ts[-1])

    def state_at(self, t: float) -> ScaleState:
        """Dense-output state; node times reproduce node values exactly."""
        q, qdot = self._sol.eval_dense(t).tolist()
        a = math.sqrt(q)
        return ScaleState(t=float(t), a=a, adot=qdot / (2.0 * a))

    def sample(self, ts):
        """Vectorized dense evaluation; returns (a, adot) arrays, of one
        element for a scalar time."""
        # eval_dense's (m, 2) result is a transposed (2, m) buffer: contiguous rows.
        a, adot = self._sol.eval_dense(np.asarray(ts, dtype=float).reshape(-1)).T
        np.sqrt(a, out=a)       # in place: (q, qdot) -> (a, adot), no temporaries
        adot /= a
        adot *= 0.5             # qdot / (2 a) exactly, as in state_at
        return a, adot

    @property
    def diagnostics(self) -> dict:
        """Solver counters, the smallest step and how the run ended."""
        return {"nfev": self.nfev, "naccepted": self.naccepted, "nrejected": self.nrejected,
                "min_step": float(self.hs[1:].min(initial=math.inf)),
                "terminal": self.terminal.kind, "message": self.terminal.message}

    def covers(self, t_lo: float, t_hi: float) -> bool:
        lo, hi = self.t_span
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        return lo - slack <= t_lo and t_hi <= hi + slack

    def csv_rows(self):
        """Rows (t, a, adot, E, F_kin, F_pot) for export."""
        return np.column_stack([self.ts, self.a, self.adot, self.E, self.F_kin, self.F_pot])


def integrate(params: SolutionParams, cfg: IntegrationConfig = IntegrationConfig()) -> Trajectory:
    """Integrate the scale equation from (a0, a1) at t = 0 to cfg.t_end.

    The run steps (q, qdot) = (a^2, 2 a adot) under qddot = 4 E(0) + c q^(1 - gamma),
    at _Q_TOL times cfg's tolerances.  While q falls, a step is at most q/|qdot|,
    the time to the root of its tangent.  The run ends "collapsed" when q falls
    to cfg.collapse_epsilon^2, when a step fails at the step floor while q falls
    (2 q/|qdot| = a/|adot| bounds the time left), or at a touch of zero: the
    double root of a 2aII collapse, which rounding lifts or lowers by a few
    eps a0^2.  A falling q whose local parabola turns above -q_touch stops at
    q_touch (the tangent bound leaves an endpoint below 2 q_min before any
    step passes a turn), and the event is that turn.
    """
    a0, eps, g = params.a0, cfg.collapse_epsilon, params.gamma
    _check_start((a0,), cfg.t_end, eps)
    four_e0 = 4.0 * energy_of(a0, params.a1, params).E
    c, p = 2.0 * params.lam * (g - 2.0) / (g - 1.0), 1.0 - g
    q_eps, q_touch = eps * eps, _TOUCH_ULPS * math.ulp(1.0) * a0 * a0

    rhs = _rk.scale_rhs(four_e0, c, p)

    def turn_in(t, y):
        """Time to the turn of q's local parabola if it turns within rounding of zero."""
        acc = rhs(t, y)[1]
        if acc > 0.0 and y[0] - y[1] * y[1] / (2.0 * acc) > -q_touch:
            return -y[1] / acc
        return None

    def stop(y):
        return y[0] - (q_touch if y[0] <= q_touch and turn_in(0.0, y) is not None else q_eps)

    sol = _rk.solve_scale(four_e0, c, p, (a0 * a0, 2.0 * a0 * params.a1), cfg.t_end,
                          rtol=_Q_TOL * cfg.rel_tol, atol=_Q_TOL * cfg.abs_tol,
                          max_step=cfg.max_step, stop=stop, stop_below=max(q_eps, q_touch),
                          near_stop=lambda t, y: 2.0 * y[0] / -y[1] if y[1] < 0.0 else None)
    if sol.status == "stopped":
        dt = turn_in(sol.stop_t, sol.eval_dense(sol.stop_t).tolist())
        if dt is not None:      # a touch of zero: the event is the turn (in _terminal's bracket)
            sol.stop_t += dt
    return Trajectory(params, sol, _terminal(sol))


def _check_start(a_init, t_end, eps):
    if not t_end > 0.0:
        raise NonPositiveTime("t_end must be positive")
    if t_end == math.inf:       # the run would spend its whole step budget first
        raise InvalidParams(["NonFinite:t_end"])
    if not min(a_init) > eps:
        raise CollapsedState(f"a_init = {tuple(a_init)!r} is not above collapse_epsilon = {eps!r}")


def _check_span(traj, t_lo: float, t_hi: float):
    """TrajectoryTooShort unless traj (a Trajectory or Scales3Trajectory) covers [t_lo, t_hi]."""
    if not traj.covers(t_lo, t_hi):
        raise TrajectoryTooShort(f"need [{t_lo}, {t_hi}] inside {traj.t_span}")


def _terminal(sol: _rk.RkSolution) -> TerminalEvent:
    """The TerminalEvent of a run; a collapse bracket is widened by the last step on both sides."""
    if sol.status != "stopped":
        return TerminalEvent(kind=sol.status, t=float(sol.ts[-1]), message=sol.message)
    h_last = float(sol.hs[-1])
    lo, hi = sol.stop_bracket
    bracket = (min(lo, sol.stop_t - h_last), max(hi, sol.stop_t + h_last))
    return TerminalEvent(kind="collapsed", t=float(sol.stop_t), bracket=bracket,
                         message=sol.message)


# rel_tol and abs_tol bound the error of (a, adot); the run asks this share of them of (q, qdot).
_Q_TOL = 0.3
# q_touch in units of eps a0^2: rounding moved the double root of a 2aII
# collapse by at most 6.5 of them over 3,000 seeded runs, below half of it.
_TOUCH_ULPS = 16.0


def gamma2_scale_squared_coeffs(params: SolutionParams):
    """Coefficients (c0, c1, c2) of a^2(t) = c0 + c1 t + c2 t^2 for gamma = 2.

    c0 = a0^2, c1 = 2 a0 a1, c2 = 2 E(0) = a1^2 + (xi^2 + lam)/a0^2; exact
    because (a^2)'' = 4 E is constant when gamma = 2.
    """
    if params.gamma != 2.0:
        raise ValueError("closed form requires gamma = 2")
    c0 = params.a0 ** 2
    c1 = 2.0 * params.a0 * params.a1
    c2 = params.a1 ** 2 + (params.xi ** 2 + params.lam) / params.a0 ** 2
    return c0, c1, c2


def closed_form_gamma2(params: SolutionParams, t: float) -> ScaleState:
    """Exact gamma = 2 scale state at time t.

    Raises CollapsedAtOrBefore if the quadratic a^2(t) has a root in (0, t].
    """
    c0, c1, c2 = gamma2_scale_squared_coeffs(params)
    root = _first_positive_root(c2, c1, c0)
    if root is not None and root <= t:
        raise CollapsedAtOrBefore(root)
    a_sq = c0 + c1 * t + c2 * t * t
    if a_sq <= 0.0:
        raise CollapsedAtOrBefore(root if root is not None else t)
    a = math.sqrt(a_sq)
    adot = (0.5 * c1 + c2 * t) / a
    return ScaleState(t=float(t), a=a, adot=adot)


def _first_positive_root(c2, c1, c0):
    """Smallest root > 0 of c2 x^2 + c1 x + c0 (None if there is none)."""
    if c2 == 0.0:
        if c1 == 0.0:
            return None
        x = -c0 / c1
        return x if x > 0.0 else None
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    # Numerically stable pairing of the two roots.
    q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else 0.5 * sq
    pos = [r for r in ((q / c2, c0 / q) if q != 0.0 else ()) if r > 0.0]
    return min(pos) if pos else None

