"""Scale-factor dynamics: the second-order Emden-type equation

    addot = xi^2 / a^3 + lam / a^(2 gamma - 1),    a(0) = a0 > 0, adot(0) = a1.

Its energy E = adot^2/2 + F_pot(a) (``orbit``) is conserved, and the
integrator monitors it node by node.

``integrate`` steps q = a^2 instead (Levi-Civita's regularization in one
degree of freedom): with E held at E(0), qddot = 4 E(0) + c q^(1 - gamma)
(``orbit.q_force``) has no centrifugal term, a bounce is a smooth turn of q,
and for gamma = 2 q is the quadratic itself, which the adaptive 5(4) pair of
``_rk`` reproduces to rounding.  Trajectories report
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
[t - u, t + b + u] with u = rel_tol max(1, t).  Where q is a parabola (c = 0)
its collapse time t* is closed-form (orbit.parabola_collapse): the run stops
at t* at the latest, and the event is t*.  Only orbits that can collapse have
these exits; on any other a step failing at the step floor is a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _rk
from .errors import (CollapsedState, IntegrationFailed, InvalidParams, NonPositiveTime,
                     StepBudgetExceeded, TrajectoryTooShort)
from .fields import ScaleState, SolutionParams
from .orbit import (barrier, collapse_time, energy_of, parabola_collapse, plunge_drift,
                    plunge_force, potential, q_force)

__all__ = ["IntegrationConfig", "TerminalEvent", "Trajectory", "integrate"]


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
    (the smallest b over the falling scales for three axes); where q is a
    parabola, its closed-form root t*, +- orbit.parabola_collapse's half-width.
    """

    kind: str
    t: float
    bracket: tuple | None = None
    message: str = ""


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
    drift : per-node |E - E(0)| / max(1, |E(0)|) on q nodes, and on plunge nodes,
        where E is a difference of terms of size a^(2 - 2 gamma), orbit.plunge_drift.
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
            e0 = energy_of(params.a0, params.a1, params).E
            self.drift[sol.ts.size:] = plunge_drift(params, e0, plunge.ys[1:, 0], plunge.ys[1:, 1])
        self.drift[np.isnan(self.drift)] = math.inf

    @property
    def t_span(self):
        return float(self.ts[0]), float(self.ts[-1])

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
    steps of cfg.max_step need more than _rk._MAX_STEPS to reach t_end or the
    collapse that orbit.collapse_time predicts, which is worked out only then.

    A gamma > 2, lam < 0 orbit that falls below its barrier, where
    xi^2 a^(2 gamma - 4) < -lam and so addot < 0, never turns again and
    plunges to a = 0 like (t* - t)^(1/gamma); in q the steps would shrink
    with the time left.  At the first q node in that region (at t = 0 if the
    orbit starts there) the run hands off to Sundman time s, dt = a^(gamma-1) ds,
    in which a is regular: it steps (a, w, t), w = a^(gamma-1) adot, under
    orbit.plunge_force (_rk.solve_plunge).  cfg.max_step bounds its steps in t,
    and a plunge that outlives t_end ends "reached_end", its last step cut
    where its dense t reaches t_end.

    Every plunge, and in q every fall at xi = 0 with lam < 0, ends "collapsed"
    by the module docstring's rule, with b = 2 q/|qdot| and share =
    1 - 4 a^3 addot/qdot^2 in q, b = a^gamma/|w| and share = gamma - a w'/w^2
    in the plunge.  Where c = 0 (gamma = 2, or lam = 0) q is a parabola, and
    orbit.parabola_collapse decides and times its collapse: the run goes to
    min(t_end, t*), with the same exits, and a fall that ends "collapsed" or
    reaches t* ends "collapsed" at t*, +- that function's half-width.
    """
    a0, eps, g, lam = params.a0, cfg.collapse_epsilon, params.gamma, params.lam
    e0 = energy_of(a0, params.a1, params).E
    c, p = q_force(params)
    y0 = (a0 * a0, 2.0 * a0 * params.a1)
    t_stop = collapse_time(params, e0) if cfg.t_end / cfg.max_step > _rk._MAX_STEPS else math.inf
    _check_start((a0,), cfg.t_end, eps, cfg.max_step, t_stop)
    q_barrier = barrier(params)[1] if g > 2.0 and lam < 0.0 else 0.0
    t_star, half = parabola_collapse(params, cfg.rel_tol)[1:] if c == 0.0 else (math.inf, 0.0)
    falls = t_star < math.inf or (c != 0.0 and lam < 0.0 and params.xi == 0.0)

    if y0[1] < 0.0 and y0[0] < q_barrier:       # the plunge starts at t = 0
        sol = _rk.RkSolution(ts=np.zeros(1), ys=np.array([y0]), hs=np.zeros(1),
                             dense_q=np.empty((0, 2, 4)), status="handoff")
    else:
        sol = _rk.solve_scale(
            4.0 * e0, c, p, y0, min(cfg.t_end, t_star), rtol=_Q_TOL * cfg.rel_tol,
            atol=_Q_TOL * cfg.abs_tol, max_step=cfg.max_step, handoff=q_barrier,
            collapse_tol=cfg.rel_tol if falls else 0.0, q_floor=eps * eps if falls else 0.0)
    if sol.status == "handoff":
        return _plunge(params, cfg, e0, sol)
    t, (q, qdot) = float(sol.ts[-1]), sol.ys[-1].tolist()
    if t_star < math.inf and (sol.status == "collapsed"
                              or (sol.status == "reached_end" and t_star <= cfg.t_end)):
        end = TerminalEvent(kind="collapsed", t=t_star, bracket=(t_star - half, t_star + half))
    elif sol.status == "collapsed":     # a xi = 0 fall, a^3 addot = lam q^(2 - gamma): share =
        u = lam * _rk._fpow(q, 2.0 - g)   # 2 - 2 q qddot/qdot^2 = 1 - 4 a^3 addot/qdot^2
        end = _collapse_event(t, cfg.rel_tol, [(2.0 * q / -qdot, 1.0 - 4.0 * u / qdot / qdot)])
    else:
        end = _terminal(sol)
    return Trajectory(params, sol, end)


def _plunge(params: SolutionParams, cfg: IntegrationConfig, e0: float,
            sol: _rk.RkSolution) -> Trajectory:
    """Continue a run from its handoff node (sol's last) in Sundman time; see integrate."""
    g, (B, D, k) = params.gamma, plunge_force(params, e0)
    t_h, (q, qdot) = float(sol.ts[-1]), sol.ys[-1].tolist()
    a = math.sqrt(q)
    w = _rk._fpow(a, k) * (qdot / (2.0 * a))
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
