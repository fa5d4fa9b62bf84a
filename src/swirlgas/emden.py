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

A gamma > 2 collapse is a plunge a ~ (t* - t)^(1/gamma), through which q
would creep at a fixed fraction of the time left.  Below the barrier it runs
in Sundman time s, dt = a^(gamma - 1) ds, where a is regular.

Every collapse ends at an accepted node by one rule.  In a fall that cannot
turn (the force is nowhere outward below the current scale) the time left is
at most b = a/|adot|, so the run ends at the first falling node with
b <= rel_tol max(1, t) or a <= collapse_epsilon.  The event is t + b/share,
the time left of the node's local power law a ~ (t* - t)^p, 1/p = share =
1 - a addot/adot^2 (gamma in a plunge, 1 in a force-free fall), in
[t - u, t + b + u] with u = rel_tol max(1, t).  Only orbits that can collapse
have these exits; on any other a step failing at the step floor is a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _rk
from .errors import (CollapsedAtOrBefore, CollapsedState, IntegrationFailed, InvalidParams,
                     NonPositiveTime, StepBudgetExceeded, TrajectoryTooShort)
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
    For "collapsed", t is the event estimated from the run's last node t_n,
    t_n + b/share in [t_n - u, t_n + b + u] by the module docstring's rule
    (the smallest b over the falling scales for three axes); the touch of a
    force-free collapse such as 2aII reports the turn of its parabola, +- u.
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

    A run has a q phase and, when a gamma > 2 orbit falls below its barrier,
    a plunge phase in Sundman time (see integrate); the node record runs over
    both, and the plunge's first node, the handoff, is the q phase's last.

    Attributes
    ----------
    ts, a, adot : node arrays
    hs : the step in t that produced each node (hs[0] = 0)
    E, F_kin, F_pot : per-node energy split
    drift : per-node |E - E(0)| / max(1, |E(0)|) on q nodes.  On plunge nodes,
        where E is a difference of terms of size a^(2 - 2 gamma), it is
        |H| / max(1, |lam/(gamma - 1)|) of the plunge's first integral, whose terms
        stay of order one: H = w^2 - 2 E(0) a^(2g-2) + xi^2 a^(2g-4) + lam/(g-1) = 0.
    terminal : TerminalEvent
    nfev, naccepted, nrejected, diagnostics : solver counters over both phases (read-only)
    """

    nfev = property(lambda self: self._sol.nfev, doc="right-hand-side evaluations")
    naccepted = property(lambda self: self._sol.naccepted, doc="accepted steps")
    nrejected = property(lambda self: self._sol.nrejected, doc="rejected trial steps")

    def __init__(self, params: SolutionParams, sol: _rk.RkSolution, terminal: TerminalEvent,
                 plunge: _rk.RkSolution | None = None):
        self.params = params
        if plunge is not None:      # the q phase's record carries the counters of both
            sol = replace(sol, **{name: getattr(sol, name) + getattr(plunge, name)
                                  for name in ("nfev", "naccepted", "nrejected")})
        self._sol, self._plunge = sol, plunge
        self.ts = sol.ts
        self.a = np.sqrt(sol.ys[:, 0])
        self.adot = sol.ys[:, 1] / (2.0 * self.a)
        self.hs = sol.hs
        if plunge is not None:
            t = plunge.ys[:, 2]
            self.ts = np.concatenate([self.ts, t[1:]])
            self.a = np.concatenate([self.a, plunge.ys[1:, 0]])
            self.adot = np.concatenate([self.adot, [self._rate(*y) for y in
                                                    plunge.ys[1:, :2].tolist()]])
            self.hs = np.concatenate([self.hs, np.diff(t)])
        self.terminal = terminal
        # At an extreme scale adot^2 or the potential can pass the float
        # range; a node whose E is then inf - inf = nan gets drift inf.
        with np.errstate(over="ignore", invalid="ignore"):
            self.F_kin = 0.5 * self.adot ** 2
            self.F_pot = potential(self.a, params)
            self.E = self.F_kin + self.F_pot
        self.drift = np.abs(self.E - self.E[0]) / max(1.0, abs(self.E[0]))
        if plunge is not None:
            self.drift[sol.ts.size:] = self._plunge_drift(plunge.ys[1:, 0], plunge.ys[1:, 1])
        self.drift[np.isnan(self.drift)] = math.inf

    @property
    def t_span(self):
        return float(self.ts[0]), float(self.ts[-1])

    def _plunge_drift(self, a, w):
        """|H| / max(1, |lam/(gamma - 1)|) at plunge nodes (a, w); see the class docstring."""
        p = self.params
        e0 = energy_of(p.a0, p.a1, p).E
        lam_k = p.lam / (p.gamma - 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            h = (w * w - 2.0 * e0 * a ** (2.0 * p.gamma - 2.0)
                 + p.xi * p.xi * a ** (2.0 * p.gamma - 4.0) + lam_k)
        return np.abs(h) / max(1.0, abs(lam_k))

    def _rate(self, a, w):
        """adot = w a^(1 - gamma) of a plunge state (inf times w where the power
        passes the float range)."""
        return w * _rk._fpow(a, 1.0 - self.params.gamma)

    def state_at(self, t: float) -> ScaleState:
        """Dense-output state; node times reproduce node values exactly."""
        if self._plunge is not None and t > self._sol.ts[-1]:
            a, w = self._plunge_at(float(t))
            return ScaleState(t=float(t), a=a, adot=self._rate(a, w))
        q, qdot = self._sol.eval_dense(t).tolist()
        a = math.sqrt(q)
        return ScaleState(t=float(t), a=a, adot=qdot / (2.0 * a))

    def _plunge_at(self, t: float):
        """(a, w) at a time t inside the plunge, in the step that holds t."""
        sol = self._plunge
        ts = sol.ys[:, 2]
        t_last = float(ts[-1])
        if not t <= t_last + 1e-12 * max(1.0, t_last):
            raise ValueError(f"dense evaluation outside covered span [{self.ts[0]}, {t_last}]")
        if t >= t_last:
            return tuple(sol.ys[-1, :2].tolist())
        return _plunge_root(sol, int(ts.searchsorted(t, "right")) - 1, t)[1:]

    def sample(self, ts):
        """Vectorized dense evaluation; returns (a, adot) arrays, of one
        element for a scalar time."""
        tq = np.asarray(ts, dtype=float).reshape(-1)
        if self._plunge is None:
            return self._sample_q(tq)
        late = tq > self._sol.ts[-1]
        a, adot = np.empty(tq.size), np.empty(tq.size)
        a[~late], adot[~late] = self._sample_q(tq[~late])
        for i in np.flatnonzero(late).tolist():
            st = self.state_at(tq[i])
            a[i], adot[i] = st.a, st.adot
        return a, adot

    def _sample_q(self, tq):
        # eval_dense's (m, 2) result is a transposed (2, m) buffer: contiguous rows.
        a, adot = self._sol.eval_dense(tq).T
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
    the time to the root of its tangent.  StepBudgetExceeded at once when
    steps of cfg.max_step need more than _rk._MAX_STEPS to reach t_end or,
    where q is a parabola (c = 0), its first root.

    A gamma > 2, lam < 0 orbit that falls below its barrier, where
    xi^2 a^(2 gamma - 4) < -lam and so addot < 0, never turns again and
    plunges to a = 0 like (t* - t)^(1/gamma); in q the steps would shrink
    with the time left.  At the first q node in that region (at t = 0 if the
    orbit starts there) the run hands off to Sundman time s, dt = a^(gamma-1) ds,
    in which a is regular: it steps (a, w, t) with w = a^(gamma-1) adot under
    a' = w, w' = 2 E(0) (gamma-1) a^(2gamma-3) - (gamma-2) xi^2 a^(2gamma-5),
    t' = a^(gamma-1) (_rk.solve_plunge).  cfg.max_step bounds its steps in t,
    and a plunge that outlives t_end ends "reached_end", its last step cut
    where its dense t reaches t_end.

    Every plunge and, in q, every fall that _q_collapses names ends
    "collapsed" by the module docstring's rule, with b = 2 q/|qdot| and
    share = 1 - 4 a^3 addot/qdot^2 in q, b = a^gamma/|w| and share =
    gamma - a w'/w^2 in the plunge.  Where c = 0 (gamma = 2, or xi = lam = 0)
    q is a parabola, and a fall also ends at a touch of zero: the double root
    of a force-free collapse such as 2aII, which each step's rounding lifts or
    lowers by about eps a0^2.  At the first node n with q <= n q_touch whose
    parabola turns above -n q_touch (the tangent bound leaves a node below
    2 q_min before any step passes the turn) the event is that turn,
    +- rel_tol max(1, t).
    """
    a0, eps, g, lam = params.a0, cfg.collapse_epsilon, params.gamma, params.lam
    e0 = energy_of(a0, params.a1, params).E
    four_e0 = 4.0 * e0
    c, p = 2.0 * lam * (g - 2.0) / (g - 1.0), 1.0 - g
    y0 = (a0 * a0, 2.0 * a0 * params.a1)
    t_root = _first_positive_root(2.0 * e0, y0[1], y0[0]) if c == 0.0 else None
    _check_start((a0,), cfg.t_end, eps, cfg.max_step, t_root or math.inf)
    q_barrier, falls = _plunge_level(params), _q_collapses(params)

    if y0[1] < 0.0 and y0[0] < q_barrier:       # the plunge starts at t = 0
        sol = _rk.RkSolution(ts=np.zeros(1), ys=np.array([y0]), hs=np.zeros(1),
                             dense_q=np.empty((0, 2, 4)), status="handoff")
    else:
        sol = _rk.solve_scale(
            four_e0, c, p, y0, cfg.t_end, rtol=_Q_TOL * cfg.rel_tol, atol=_Q_TOL * cfg.abs_tol,
            max_step=cfg.max_step, handoff=q_barrier, collapse_tol=cfg.rel_tol if falls else 0.0,
            q_floor=eps * eps if falls else 0.0,
            q_touch=_TOUCH_ULPS * math.ulp(1.0) * a0 * a0 if falls and c == 0.0 else 0.0)
    if sol.status == "handoff":
        return _plunge(params, cfg, e0, sol)
    t, (q, qdot) = float(sol.ts[-1]), sol.ys[-1].tolist()
    if sol.status == "collapsed":
        # share = 2 - 2 q qddot/qdot^2 = 1 - 4 a^3 addot/qdot^2 from the force, not from
        # q, whose double root in a force-free fall rounding lifts or lowers.
        a3_addot = params.xi * params.xi + (lam * _rk._fpow(q, 2.0 - g) if lam else 0.0)
        end = _collapse_event(t, cfg.rel_tol,
                              [(2.0 * q / -qdot, 1.0 - 4.0 * a3_addot / qdot / qdot)])
    elif sol.status == "touched":       # the turn of q's parabola; qddot = 4 E(0) where c = 0
        t_turn, u = t - qdot / four_e0, cfg.rel_tol * max(1.0, t)
        end = TerminalEvent(kind="collapsed", t=t_turn, bracket=(t_turn - u, t_turn + u))
    else:
        end = _terminal(sol)
    return Trajectory(params, sol, end)


def _log_stationary_scale(params: SolutionParams) -> float:
    """ln of the potential's stationary point (-lam/xi^2)^(1/(2g-4)), as if xi^2 had no range."""
    return (math.log(-params.lam) - 2.0 * math.log(abs(params.xi))) / (2.0 * params.gamma - 4.0)


def _plunge_level(params: SolutionParams) -> float:
    """q below which a gamma > 2, lam < 0 orbit is inside its barrier: the barrier's
    a^2, where xi^2 a^(2 gamma - 4) = -lam, formed in log space (inf for xi = 0);
    0 for every other orbit, which never hands off."""
    if not (params.gamma > 2.0 and params.lam < 0.0):
        return 0.0
    if params.xi == 0.0:
        return math.inf
    log_q = 2.0 * _log_stationary_scale(params)
    return math.exp(log_q) if log_q < 709.0 else math.inf


def _q_collapses(params: SolutionParams) -> bool:
    """Whether a fall in q can reach a = 0: the force is nowhere outward at gamma = 2
    with xi^2 + lam <= 0 and at xi = 0 with lam <= 0 (at gamma > 2 the plunge takes
    such falls).  On any other orbit F_pot -> +inf as a -> 0, or a fall in q hands off."""
    lam = params.lam
    return lam <= 0.0 and (params.xi == 0.0
                           or (params.gamma == 2.0 and params.xi * params.xi + lam <= 0.0))


def _plunge(params: SolutionParams, cfg: IntegrationConfig, e0: float,
            sol: _rk.RkSolution) -> Trajectory:
    """Continue a run from its handoff node (sol's last) in Sundman time; see integrate."""
    g, k = params.gamma, params.gamma - 1.0
    t_h, (q, qdot) = float(sol.ts[-1]), sol.ys[-1].tolist()
    a = math.sqrt(q)
    w = _rk._fpow(a, k) * (qdot / (2.0 * a))
    B, D = 2.0 * e0 * k, (g - 2.0) * params.xi * params.xi
    plunge = _rk.solve_plunge(B, D, k, (a, w, t_h), cfg.t_end, cfg.rel_tol, cfg.collapse_epsilon,
                              rtol=_Q_TOL * cfg.rel_tol, atol=_Q_TOL * cfg.abs_tol,
                              max_step=cfg.max_step)
    a, w, t = plunge.ys[-1].tolist()
    if plunge.status == "collapsed":        # a w'/w^2 = (B - D/a^2) a^(2 gamma - 2)/w^2
        u = a ** k
        end = _collapse_event(t, cfg.rel_tol, [(u * a / -w, g - (B - D / a / a) * u * u / w / w)])
    elif plunge.status == "reached_end":
        plunge = _cut_last_step(plunge, cfg.t_end)
        end = TerminalEvent(kind="reached_end", t=cfg.t_end)
    else:
        end = TerminalEvent(kind=plunge.status, t=t, message=plunge.message)
    return Trajectory(params, sol, end, plunge)


def _plunge_root(sol: _rk.RkSolution, seg: int, t: float):
    """(theta, a, w) where the dense t of plunge step seg is t, a time inside the step:
    the step fraction theta, by Newton's method kept inside [0, 1], and the state there."""
    (a0, w0, t0), h = sol.ys[seg].tolist(), float(sol.hs[seg + 1])
    (qa, qw, (q0, q1, q2, q3)) = sol.dense_q[seg].tolist()
    target = (t - t0) / h
    theta = (t - t0) / (float(sol.ys[seg + 1, 2]) - t0)
    for _ in range(50):
        slope = ((4.0 * q3 * theta + 3.0 * q2) * theta + 2.0 * q1) * theta + q0
        if theta == 0.0 or not slope > 0.0:
            break
        res = (((q3 * theta + q2) * theta + q1) * theta + q0) * theta - target
        new = min(max(theta - res / slope, 0.0), 1.0)
        if new == theta:
            break
        theta = new
    return (theta, *(v + h * ((((c3 * theta + c2) * theta + c1) * theta + c0) * theta)
                     for v, (c0, c1, c2, c3) in ((a0, qa), (w0, qw))))


def _cut_last_step(sol: _rk.RkSolution, t_end: float) -> _rk.RkSolution:
    """sol with its last step ending at the fraction theta where its dense t reaches
    t_end; its node is the dense state there with t set to t_end exactly, and its
    quartic is rescaled to the shorter step."""
    theta, a, w = _plunge_root(sol, sol.ts.size - 2, t_end)
    h_cut = theta * float(sol.hs[-1])
    ts, hs, ys, dense_q = sol.ts.copy(), sol.hs.copy(), sol.ys.copy(), sol.dense_q.copy()
    ts[-1], hs[-1], ys[-1] = ts[-2] + h_cut, h_cut, (a, w, t_end)
    # y_k + h sum_j q_j (theta theta')^(j+1) is y_k + h_cut sum_j q_j theta^j theta'^(j+1).
    dense_q[-1] *= theta ** np.arange(4)
    return replace(sol, ts=ts, hs=hs, ys=ys, dense_q=dense_q)


def _check_start(a_init, t_end, eps, max_step, t_stop=math.inf):
    """Reject a run that cannot start, or whose steps of max_step cannot reach
    min(t_end, t_stop) within _rk._MAX_STEPS (t_stop: a collapse known in advance)."""
    if not t_end > 0.0:
        raise NonPositiveTime("t_end must be positive")
    if t_end == math.inf:       # the run would spend its whole step budget first
        raise InvalidParams(["NonFinite:t_end"])
    span = min(t_end, t_stop)
    if span / max_step > _rk._MAX_STEPS:
        what = "t_end" if span == t_end else f"the collapse at {span!r}"
        raise StepBudgetExceeded(f"{what} / max_step = {span / max_step:.3g} steps, "
                                 f"more than the budget of {_rk._MAX_STEPS}")
    if not min(a_init) > eps:
        raise CollapsedState(f"a_init = {tuple(a_init)!r} is not above collapse_epsilon = {eps!r}")


def _check_span(traj, t_lo: float, t_hi: float):
    """Unless traj (a Trajectory or Scales3Trajectory) covers [t_lo, t_hi]:
    IntegrationFailed if its run ended in a step failure, else TrajectoryTooShort."""
    if not traj.covers(t_lo, t_hi):
        if traj.terminal.kind == "step_failure":
            raise IntegrationFailed(traj.terminal.t, traj.terminal.message)
        raise TrajectoryTooShort(f"need [{t_lo}, {t_hi}] inside {traj.t_span}")


def _terminal(sol: _rk.RkSolution) -> TerminalEvent:
    """The TerminalEvent of a run that did not collapse."""
    return TerminalEvent(kind=sol.status, t=float(sol.ts[-1]), message=sol.message)


def _collapse_event(t: float, rel_tol: float, falls) -> TerminalEvent:
    """The collapse from a last node at t, given (b, share) of each falling scale:
    t plus the least b/share (b where rounding puts share below 1, as a force-free
    fall's share is 1), in [t - u, t + b + u] with the least b, u = rel_tol max(1, t)."""
    u = rel_tol * max(1.0, t)
    left = min(b / share if share > 1.0 else b for b, share in falls)
    b = min(b for b, _ in falls)
    return TerminalEvent(kind="collapsed", t=t + left, bracket=(t - u, t + b + u))


# rel_tol and abs_tol bound the error of (a, adot); the run asks this share of them of (q, qdot).
_Q_TOL = 0.3
# q_touch per accepted step, in units of eps a0^2: each step's rounding moves
# the double root of a 2aII collapse by at most about one of them (0.5 on
# linear-blowup-demo at every max_step from 1e-5 to inf).
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

