"""Scale-factor dynamics: the second-order Emden-type equation

    addot = xi^2 / a^3 + lam / a^(2 gamma - 1),    a(0) = a0 > 0, adot(0) = a1.

This one-degree-of-freedom system conserves

    E = adot^2 / 2 + xi^2 / (2 a^2) + lam / ((2 gamma - 2) a^(2 gamma - 2)),

which the integrator monitors node by node.  For gamma = 2 the equation
collapses to addot = (xi^2 + lam)/a^3 and a^2(t) is an exact quadratic in t;
``closed_form_gamma2`` provides that closed form as an independent oracle.

Integration is an adaptive embedded 5(4) pair with PI step control and dense
output.  Near a collapse (a decreasing toward zero) the step is additionally
bounded by 0.1 a/|adot| so the singular region is approached geometrically
instead of overshot; the collapse event a = collapse_epsilon is then located
by bisection on the dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import CollapsedAtOrBefore, CollapsedState, InvalidParams, NonPositiveTime
from .fields import ScaleState, SolutionParams

__all__ = [
    "EnergySplit",
    "IntegrationConfig",
    "TerminalEvent",
    "Trajectory",
    "emden_rhs",
    "energy",
    "energy_of",
    "potential",
    "integrate",
    "closed_form_gamma2",
    "gamma2_scale_squared_coeffs",
    "energy_drift",
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
    For "collapsed", t is the bisected time of a = collapse_epsilon and
    bracket is (t_lo, t_hi) with the last step size as its width scale.
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
    if a_arr.ndim == 0:
        return float(val)
    return val


def energy_of(a: float, adot: float, params: SolutionParams) -> EnergySplit:
    """Energy split for a raw (a, adot) pair."""
    if not a > 0.0:
        raise CollapsedState(f"scale a = {a!r} is not positive")
    f_kin = 0.5 * adot * adot
    f_pot = potential(a, params)
    return EnergySplit(E=f_kin + f_pot, F_kin=f_kin, F_pot=f_pot)


def energy(state: ScaleState, params: SolutionParams) -> EnergySplit:
    return energy_of(state.a, state.adot, params)


def emden_rhs(state: ScaleState, params: SolutionParams):
    """Right-hand side (adot, addot) of the scale equation."""
    a = state.a
    if not a > 0.0:
        raise CollapsedState(f"scale a = {a!r} is not positive")
    addot = params.xi ** 2 / a ** 3 + params.lam / a ** (2.0 * params.gamma - 1.0)
    return state.adot, addot


class Trajectory:
    """An integrated scale-factor path with dense output and energy record.

    Attributes
    ----------
    ts, a, adot : node arrays
    E, F_kin, F_pot : per-node energy split
    drift : per-node |E - E(0)| / max(1, |E(0)|)
    terminal : TerminalEvent
    nfev, naccepted, nrejected : solver counters (read-only)
    """

    nfev = property(lambda self: self._sol.nfev, doc="right-hand-side evaluations")
    naccepted = property(lambda self: self._sol.naccepted, doc="accepted steps")
    nrejected = property(lambda self: self._sol.nrejected, doc="rejected trial steps")

    def __init__(self, params: SolutionParams, sol: _rk.RkSolution, terminal: TerminalEvent):
        self.params = params
        self._sol = sol
        self.ts = sol.ts
        self.a = sol.ys[:, 0]
        self.adot = sol.ys[:, 1]
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
        y = self._sol.eval_dense(t)
        return ScaleState(t=float(t), a=float(y[0]), adot=float(y[1]))

    def sample(self, ts):
        """Vectorized dense evaluation; returns (a, adot) arrays."""
        ys = self._sol.eval_dense(np.asarray(ts, dtype=float))
        return ys[:, 0], ys[:, 1]

    def covers(self, t_lo: float, t_hi: float) -> bool:
        lo, hi = self.t_span
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        return lo - slack <= t_lo and t_hi <= hi + slack

    def csv_rows(self):
        """Rows (t, a, adot, E, F_kin, F_pot) for export."""
        return np.column_stack([self.ts, self.a, self.adot, self.E, self.F_kin, self.F_pot])


def integrate(params: SolutionParams, cfg: IntegrationConfig = IntegrationConfig()) -> Trajectory:
    """Integrate the scale equation from (a0, a1) at t = 0 to cfg.t_end.

    Under the collapse rule of ``_integrate_scales``, a fall of a to
    cfg.collapse_epsilon ends the run with a "collapsed" terminal event.
    """
    xi2, lam, expo = params.xi ** 2, params.lam, 2.0 * params.gamma - 1.0

    def rhs(t, y):
        a = y[0]
        return y[1], xi2 / _fpow(a, 3) + lam / _fpow(a, expo)

    return Trajectory(params, *_integrate_scales(rhs, (params.a0,), (params.a1,), cfg.t_end, cfg))


def _integrate_scales(rhs, a_init, adot_init, t_end, cfg: IntegrationConfig):
    """Integrate y = (a_1..a_n, adot_1..adot_n) under the collapse rule.

    The rule, shared by the 2D (n = 1) and three-axis (n = 3) systems: every
    scale stays positive; each contracting axis moves by at most 0.1 a/|adot|
    per step; the run stops when the smallest scale reaches
    cfg.collapse_epsilon, or at the step floor once the smallest axis is near
    collapse.  Returns the RkSolution and its TerminalEvent.
    """
    if not t_end > 0.0:
        raise NonPositiveTime("t_end must be positive")
    n, eps = len(a_init), cfg.collapse_epsilon
    if min(a_init) <= eps:
        raise CollapsedState(f"a_init = {tuple(a_init)!r} is not above collapse_epsilon = {eps!r}")
    axes = tuple(range(n))  # plain loops over a tuple: these run at every step

    def step_bound(t, y):
        bound = None
        for k in axes:
            if y[n + k] < 0.0:
                creep = 0.1 * y[k] / -y[n + k]
                if bound is None or creep < bound:
                    bound = creep
        return bound

    def stop(y):
        a = y[0]
        for k in axes:
            if y[k] < a:
                a = y[k]
        return a - eps

    def near_stop(t, y):
        # Deep in a collapse the derivatives exceed what double precision
        # resolves at the smallest step near t.  Once the remaining time to
        # a = 0 (bounded by a/|adot| while the plunge accelerates) falls below
        # that scale, the collapse is reported with it as the bracket width.
        k = min(axes, key=y.__getitem__)
        a, adot = y[k], y[n + k]
        if adot < 0.0:
            plunge = a / -adot
            floor = 16.0 * math.ulp(1.0) * max(abs(t), 1.0)
            if a <= max(20.0 * eps, 1e-7) or (a <= 1e-3 and plunge <= 1e4 * floor):
                return plunge
        return None

    sol = _rk.solve(rhs, 0.0, tuple(a_init) + tuple(adot_init), t_end,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
                    step_bound=step_bound, positive=axes, stop=stop, near_stop=near_stop)
    if sol.status != "stopped":
        return sol, TerminalEvent(kind=sol.status, t=float(sol.ts[-1]), message=sol.message)
    # The collapse bracket is widened by the last step on both sides of the event.
    h_last = float(sol.hs[-1])
    lo, hi = sol.stop_bracket
    bracket = (min(lo, sol.stop_t - h_last), max(hi, sol.stop_t + h_last))
    return sol, TerminalEvent(kind="collapsed", t=float(sol.stop_t), bracket=bracket,
                              message=sol.message)


def _fpow(x, p):
    """x ** p on floats, overflowing to inf as numpy does instead of raising.

    Far out on an expanding orbit a ** p can pass the float range; its force
    term is then c / inf = 0, not a failed step.
    """
    try:
        return x ** p
    except OverflowError:
        return math.inf


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
    if q != 0.0:
        roots = [q / c2, c0 / q]
    else:
        roots = [0.0, 0.0]
    pos = [r for r in roots if r > 0.0]
    return min(pos) if pos else None


def energy_drift(traj: Trajectory) -> float:
    """Worst relative energy drift across the trajectory nodes."""
    if traj.ts.size == 0:
        raise ValueError("empty trajectory")
    return float(np.max(traj.drift))
