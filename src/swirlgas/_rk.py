"""Adaptive Dormand-Prince 5(4) stepping with dense output and node exits.

Three loops take the same steps, with the same controller and exits:

* solve_scale integrates the scale equation, y = (q, qdot) under
  qddot = A + C q^P, with the force given as the three numbers (A, C, P);
* solve_plunge integrates a gamma > 2 plunge in Sundman time s,
  y = (a, w, t) under a' = w, w' = (B - D/a^2) a^(2k)/a, t' = a^k;
* solve integrates any y' = f(t, y) through a callback; it is the stepper of
  the coupled three-axis system (d = 6) and the reference that solve_scale
  and solve_plunge are tested against.

Features the callers rely on:

* embedded 5(4) error estimate with the classic PI controller
  (h_new = h * safety * err^-0.17 * err_prev^0.04, clipped to [0.1, 5]),
* quartic dense output per accepted step,
* a state-dependent step bound (used to approach a collapse without
  stepping past it; solve_scale's is q/|qdot| while q falls),
* components that must stay positive at every stage, checked inline (a
  step whose stages leave that region, turn non-finite or raise
  ArithmeticError is rejected and retried smaller),
* exits at accepted nodes only: a run ends at the first node that meets one
  of its exit rules (a collapse, a handoff, the end of a plunge), so every
  run ends at a node; a step that fails at the step floor is a step failure.

Steps run on plain Python floats, since on states this small a numpy call
costs more than its arithmetic.  Accepted steps fill flat array('d') buffers
with t, h, y and the seven stage derivatives; nodes and dense-output
coefficients are built once at the end, by one matmul with _P.  No stage sum
goes through BLAS gemv, so nodes don't depend on its kernel.

solve's trial step, _trial, works on lists: callbacks get the state as a
list, stage sums are written out from the tableau tuples, and the error norm
is a sorted sum, bitwise invariant under permutations of the components.
On two components most of that step's cost is the interpreter's work on
lists, calls and per-stage checks, not the arithmetic.  So solve_scale
writes the whole step out in one function on named floats: the stages, the
force, the error norm, the controller, the buffer appends and its exit rules,
which are comparisons of the node with numbers, not callbacks.  Each component
is computed by _trial's expression for it, in the same order, and the loop
makes the same decisions as solve with the equivalent callbacks (scale_rhs,
the q/|qdot| bound, positive q and a node_exit with the same rules), so both
give bitwise the same nodes, stages, counters and status.  solve_plunge is
written out the same way for its three components, against plunge_rhs, its
a/|w| and max_step bounds and positive a.  The initial step and the assembly
of the RkSolution are helpers that every loop calls.

RkSolution.eval_dense evaluates many times per component: 1-D gathers from
the flat coefficient array and Horner's rule in place, in batches of _CHUNK.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress
from math import isfinite

import numpy as np

# Dormand-Prince 5(4) tableau (FSAL: stage 7 is the derivative at the new point).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
# b - bhat: weights of the embedded 4th-order error estimate.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Quartic dense-output polynomial coefficients (columns: theta^1..theta^4 factors).
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# The same tableau as float tuples for the stepper (zero weights are skipped).
_C2, _C3, _C4, _C5 = _C[1:5].tolist()
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76)) = (r.tolist() for r in _A)
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E.tolist()

_SAFETY = 0.9
_MIN_FACTOR = 0.1
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.17   # err exponent (0.2 - 0.75*beta)
_PI_BETA = 0.04    # previous-err exponent
# Query times per dense-output batch: it bounds the temporaries, 64 KB each
# at 8192.  Sampling the trajectory-sampling workload's six orbits at 20,000
# times each (150 interleaved rounds, seeds 5 and 1) took 1.30x as long per
# point at 2048, 1.09x at 4096 and 1.31x unchunked as at 8192.
_CHUNK = 8192
_FLOOR_ULPS = 16.0 * math.ulp(1.0)   # the step floor, per unit of max(|t|, 1)
_MAX_STEPS = 1_000_000                # loop passes (accepted or rejected) before a run gives up


@dataclass
class RkSolution:
    """Nodes, dense-output coefficients and the terminal condition of a run."""

    ts: np.ndarray                 # accepted node times, shape (n,)
    ys: np.ndarray                 # accepted states, shape (n, d)
    hs: np.ndarray                 # step size that produced each node (hs[0] = 0)
    dense_q: np.ndarray            # shape (n-1, d, 4): per-step quartic coefficients
    status: str                    # "reached_end" | "step_failure" | a node exit's status
    message: str = ""
    nfev: int = 0
    naccepted: int = 0
    nrejected: int = 0

    def eval_dense(self, t):
        """Dense evaluation of the state at times inside the covered span.

        A scalar time gives shape (d,), an array of m times shape (m, d); a
        time outside the span, or NaN, raises ValueError.  Node times
        reproduce the stored node values exactly.  A scalar is evaluated in
        floats, by the same Horner sequence as an array.

        An array is evaluated in chunks of _CHUNK times.  Each chunk finds
        its steps and step fractions once; then, per component, the four
        dense coefficients and the node value are gathered by 1-D takes from
        the flat arrays, straight into that component's row of a (d, m)
        buffer, where Horner's rule runs in place.  The (m, d) result is the
        buffer's transpose, so a component is a contiguous row.
        """
        t_arr = np.asarray(t, dtype=float)
        tq = t_arr.reshape(-1)
        ts, ys = self.ts, self.ys
        lo, hi = float(ts[0]), float(ts[-1])
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if tq.size == 1:
            t_lo = t_hi = float(tq[0])
        else:
            t_lo, t_hi = (tq.min(), tq.max()) if tq.size else (lo, hi)
        if not (lo - slack <= t_lo and t_hi <= hi + slack):    # NaN fails too
            raise ValueError(f"dense evaluation outside covered span [{lo}, {hi}]")
        # Searching from the right puts a node time at theta = 0 of the step
        # it starts, so the node value comes back exactly; the last node
        # starts no step and is returned as stored.
        nseg, d = self.dense_q.shape[0], ys.shape[1]
        if t_arr.ndim == 0:
            if not nseg or t_lo == hi:
                return ys[-1].copy()
            seg = min(max(int(ts.searchsorted(t_lo, "right")) - 1, 0), nseg - 1)
            h = float(self.hs[seg + 1])
            theta = (t_lo - float(ts[seg])) / h
            return np.array([v + h * ((((q3 * theta + q2) * theta + q1) * theta + q0) * theta)
                             for v, (q0, q1, q2, q3)
                             in zip(ys[seg].tolist(), self.dense_q[seg].tolist())])
        out = np.empty((d, tq.size))
        if not nseg:
            out.T[:] = ys[0]
            return out.T
        # Flat views: coefficient j of component c of step k sits at
        # qf[4 d k + 4 c + j], so qf[4 c + j:] taken at 4 d k gathers it.
        # The offsets are in range; mode="clip" lets take write to out
        # directly, where the default mode buffers it.
        qf, yf, hs = self.dense_q.reshape(-1), ys.reshape(-1), self.hs[1:]
        tmp = np.empty(min(tq.size, _CHUNK))
        for k in range(0, tq.size, _CHUNK):
            tc = tq[k:k + _CHUNK]
            seg = ts.searchsorted(tc, "right")
            seg -= 1
            np.clip(seg, 0, nseg - 1, out=seg)
            h = hs.take(seg)
            theta = tc - ts.take(seg)
            theta /= h
            end = tc == hi
            last = end.any()
            seg *= d                            # now the offsets into yf
            sq, part = seg * 4, tmp[:tc.size]
            for c in range(d):
                acc = out[c, k:k + tc.size]
                qf[4 * c + 3:].take(sq, out=acc, mode="clip")
                for j in (2, 1, 0):
                    acc *= theta
                    qf[4 * c + j:].take(sq, out=part, mode="clip")
                    acc += part
                acc *= theta
                acc *= h
                yf[c:].take(seg, out=part, mode="clip")
                acc += part
                if last:
                    acc[end] = ys[-1, c]
        return out.T


def _rms(v):
    # Summed in sorted order so the norm is bitwise invariant under any
    # permutation of the state components.
    sq = sorted(x * x for x in v)
    return math.sqrt(sum(sq) / len(sq))


class _StageRejected(Exception):
    """A Runge-Kutta stage left the admissible region; retry smaller."""


def _check(y, positive):
    if not all(map(isfinite, y)):
        raise _StageRejected
    for k in positive:
        if not y[k] > 0.0:
            raise _StageRejected


def _trial(f, pos, rtol, atol, t, y, k1, h):
    """One trial step from (t, y) with first stage k1: (y_new, err, k7, record).

    pos flags the components that must stay > 0 at every stage.  err is the
    norm of the embedded error estimate, k7 is f's value at the new point and
    record the seven stages flat, by component.  Raises _StageRejected when a
    stage leaves the admissible region or turns non-finite.
    """
    # Indexing the flagged components costs less than iterating the flags at
    # each of the seven checks.
    positive = list(compress(range(len(y)), pos))
    y2 = [v + h * (_A21 * a) for v, a in zip(y, k1)]
    _check(y2, positive)
    k2 = f(t + _C2 * h, y2)
    y3 = [v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)]
    _check(y3, positive)
    k3 = f(t + _C3 * h, y3)
    y4 = [v + h * (_A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)]
    _check(y4, positive)
    k4 = f(t + _C4 * h, y4)
    y5 = [v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * e)
          for v, a, b, c, e in zip(y, k1, k2, k3, k4)]
    _check(y5, positive)
    k5 = f(t + _C5 * h, y5)
    y6 = [v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * e + _A65 * g)
          for v, a, b, c, e, g in zip(y, k1, k2, k3, k4, k5)]
    _check(y6, positive)
    k6 = f(t + h, y6)
    y7 = [v + h * (_A71 * a + _A73 * c + _A74 * e + _A75 * g + _A76 * m)
          for v, a, c, e, g, m in zip(y, k1, k3, k4, k5, k6)]
    _check(y7, positive)
    k7 = f(t + h, y7)
    if not all(map(isfinite, k7)):
        raise _StageRejected
    err = _rms([h * (_E1 * a + _E3 * c + _E4 * e + _E5 * g + _E6 * m + _E7 * n)
                / (atol + rtol * max(abs(v), abs(w)))
                for a, c, e, g, m, n, v, w in zip(k1, k3, k4, k5, k6, k7, y, y7)])
    return y7, err, k7, chain.from_iterable(zip(k1, k2, k3, k4, k5, k6, k7))


def _initial_step(f, y0, f0, rtol, atol, max_step, positive):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not h0 > 0.0:            # d1 overflowed to inf
        return min(1e-12, max_step)
    for _ in range(20):
        y1 = [v + h0 * g for v, g in zip(y0, f0)]
        if all(y1[k] > 0.0 for k in positive):
            break
        h0 *= 0.1
    else:
        return min(1e-12, max_step)
    f1 = f(h0, y1)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def solve(f, y0, t_end, rtol=1e-10, atol=1e-10, max_step=math.inf,
          step_bound=None, positive=(), node_exit=None):
    """Integrate y' = f(t, y) from t = 0 to t_end.

    f(t, y)          -> derivative as a float sequence; y is a list of floats.
    step_bound(t, y) -> additional per-step upper bound on h (or None).
    positive         -> indices of components that must stay > 0 at every
                        stage (a step leaving that region is retried smaller).
    node_exit(t, y)  -> called at every accepted node before t_end; a status
                        string ends the run there with that status, None
                        goes on.
    A step that fails at the step floor, or a run that makes _MAX_STEPS loop
    passes before t_end, ends in "step_failure".
    """
    y = [float(v) for v in y0]
    d = len(y)
    pos = tuple(k in positive for k in range(d))

    t = 0.0
    f_curr = f(t, y)
    h = _initial_step(f, y, f_curr, rtol, atol, max_step, positive)
    nfev = 2

    t_buf, h_buf, y_buf, k_buf = array("d", [t]), array("d", [0.0]), array("d", y), array("d")
    err_prev = 1e-4
    naccepted = nrejected = 0
    status, message = "reached_end", ""

    steps = 0
    while t < t_end:
        if steps >= _MAX_STEPS:
            status, message = "step_failure", f"exceeded {_MAX_STEPS} steps"
            break
        steps += 1

        h_floor = _FLOOR_ULPS * max(abs(t), 1.0)
        h = min(h, max_step, t_end - t)
        if step_bound is not None:
            b = step_bound(t, y)
            if b is not None:
                h = min(h, b)
        pinned = h <= h_floor
        h = max(h, h_floor)

        nfev += 6
        try:
            y_new, err, f_new, record = _trial(f, pos, rtol, atol, t, y, f_curr, h)
        except (_StageRejected, ArithmeticError):   # e.g. dividing by an underflowed power
            err = None

        if err is None or err > 1.0:
            nrejected += 1
            if pinned:
                status, message = "step_failure", _floor_message(err)
                break
            h *= 0.5 if err is None else max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        # Accepted: record node and stage derivatives, advance (FSAL).
        t_new = t + h
        if t_end - t_new < h_floor:
            t_new = min(t_new, t_end)
        t_buf.append(t_new)
        h_buf.append(h)
        y_buf.extend(y_new)
        k_buf.extend(record)   # (d, 7) per step
        naccepted += 1

        factor = _SAFETY * err ** -_PI_ALPHA * err_prev ** _PI_BETA if err > 0 else _MAX_FACTOR
        h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = max(err, 1e-4)

        if node_exit is not None and t_new < t_end:
            end = node_exit(t_new, y_new)
            if end is not None:
                status = end
                break
        t, y, f_curr = t_new, y_new, f_new

    return _solution(d, t_buf, h_buf, y_buf, k_buf, status=status, message=message, nfev=nfev,
                     naccepted=naccepted, nrejected=nrejected)


def _fpow(x, p):
    """x ** p on floats, overflowing to inf as numpy does instead of raising.

    Far out on an expanding orbit a ** p can pass the float range; its force
    term is then c / inf = 0, not a failed step.
    """
    try:
        return x ** p
    except OverflowError:
        return math.inf


def scale_rhs(A, C, P):
    """The right-hand side (t, (q, qdot)) -> (qdot, A + C q^P) as a callback for solve.

    solve_scale takes its initial derivative and initial step size from it.
    solve with this callback, the step bound q/|qdot| while qdot < 0,
    positive=(0,) and a node_exit with the same exit rules makes bitwise
    solve_scale's run.
    """
    def rhs(t, y):
        return y[1], A + C * _fpow(y[0], P)
    return rhs


def solve_scale(A, C, P, y0, t_end, rtol=1e-10, atol=1e-10, max_step=math.inf,
                handoff=0.0, collapse_tol=0.0, q_floor=0.0):
    """Integrate y = (q, qdot) under qddot = A + C q^P from t = 0 to t_end.

    q must stay > 0 at every stage, and while q falls a step is at most
    q/|qdot|, the time to the root of its tangent; _MAX_STEPS is solve's
    budget.  A stage whose force q^P overflows is rejected: its inf would
    reject the step anyway.  The run ends at the first accepted node before
    t_end that meets one of these rules, checked in this order (with the
    default zeros, none):

    * qdot < 0 and q < handoff: status "handoff";
    * collapse_tol > 0, qdot < 0 and either q <= q_floor or the
      remaining-time bound 2 q/|qdot| is at most collapse_tol max(1, t):
      status "collapsed".
    """
    inf, sqrt = math.inf, math.sqrt
    rhs = scale_rhs(A, C, P)
    t = 0.0
    v0, v1 = float(y0[0]), float(y0[1])
    k1 = rhs(t, [v0, v1])
    g1 = k1[1]
    h = _initial_step(rhs, [v0, v1], k1, rtol, atol, max_step, (0,))
    nfev = 2

    t_buf, h_buf, k_buf = array("d", [t]), array("d", [0.0]), array("d")
    y_buf = array("d", (v0, v1))
    err_prev = 1e-4
    naccepted = nrejected = 0
    status, message = "reached_end", ""

    steps = 0
    while t < t_end:
        if steps >= _MAX_STEPS:
            status, message = "step_failure", f"exceeded {_MAX_STEPS} steps"
            break
        steps += 1

        # solve's bounds, with max(abs(t), 1) for t >= 0 and min / max as comparisons.
        h_floor = _FLOOR_ULPS * (t if t > 1.0 else 1.0)
        if max_step < h:
            h = max_step
        if t_end - t < h:
            h = t_end - t
        if v1 < 0.0:
            b = v0 / -v1
            if b < h:
                h = b
        pinned = h <= h_floor
        if pinned:
            h = h_floor

        # _trial's step for (q, qdot): stage k is (qk, sk) with force gk, so
        # its derivative is (sk, gk); s1 = v1 and the endpoint is (w0, w1).
        nfev += 6
        try:
            q2 = v0 + h * (_A21 * v1)
            s2 = v1 + h * (_A21 * g1)
            if not (0.0 < q2 < inf and -inf < s2 < inf):
                raise _StageRejected
            g2 = A + C * q2 ** P
            q3 = v0 + h * (_A31 * v1 + _A32 * s2)
            s3 = v1 + h * (_A31 * g1 + _A32 * g2)
            if not (0.0 < q3 < inf and -inf < s3 < inf):
                raise _StageRejected
            g3 = A + C * q3 ** P
            q4 = v0 + h * (_A41 * v1 + _A42 * s2 + _A43 * s3)
            s4 = v1 + h * (_A41 * g1 + _A42 * g2 + _A43 * g3)
            if not (0.0 < q4 < inf and -inf < s4 < inf):
                raise _StageRejected
            g4 = A + C * q4 ** P
            q5 = v0 + h * (_A51 * v1 + _A52 * s2 + _A53 * s3 + _A54 * s4)
            s5 = v1 + h * (_A51 * g1 + _A52 * g2 + _A53 * g3 + _A54 * g4)
            if not (0.0 < q5 < inf and -inf < s5 < inf):
                raise _StageRejected
            g5 = A + C * q5 ** P
            q6 = v0 + h * (_A61 * v1 + _A62 * s2 + _A63 * s3 + _A64 * s4 + _A65 * s5)
            s6 = v1 + h * (_A61 * g1 + _A62 * g2 + _A63 * g3 + _A64 * g4 + _A65 * g5)
            if not (0.0 < q6 < inf and -inf < s6 < inf):
                raise _StageRejected
            g6 = A + C * q6 ** P
            w0 = v0 + h * (_A71 * v1 + _A73 * s3 + _A74 * s4 + _A75 * s5 + _A76 * s6)
            w1 = v1 + h * (_A71 * g1 + _A73 * g3 + _A74 * g4 + _A75 * g5 + _A76 * g6)
            if not (0.0 < w0 < inf and -inf < w1 < inf):
                raise _StageRejected
            g7 = A + C * w0 ** P
            if not -inf < g7 < inf:
                raise _StageRejected
            x0 = (h * (_E1 * v1 + _E3 * s3 + _E4 * s4 + _E5 * s5 + _E6 * s6 + _E7 * w1)
                  / (atol + rtol * (w0 if w0 > v0 else v0)))
            m1, n1 = abs(v1), abs(w1)
            x1 = (h * (_E1 * g1 + _E3 * g3 + _E4 * g4 + _E5 * g5 + _E6 * g6 + _E7 * g7)
                  / (atol + rtol * (n1 if n1 > m1 else m1)))
            err = sqrt((x0 * x0 + x1 * x1) / 2)     # _rms of two terms
        except (_StageRejected, ArithmeticError):
            err = None

        if err is None or err > 1.0:
            nrejected += 1
            if pinned:
                status, message = "step_failure", _floor_message(err)
                break
            h *= 0.5 if err is None else max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        t_new = t + h
        if t_end - t_new < h_floor:
            t_new = min(t_new, t_end)
        t_buf.append(t_new)
        h_buf.append(h)
        y_buf.append(w0)
        y_buf.append(w1)
        k_buf.extend((v1, s2, s3, s4, s5, s6, w1, g1, g2, g3, g4, g5, g6, g7))
        naccepted += 1

        factor = _SAFETY * err ** -_PI_ALPHA * err_prev ** _PI_BETA if err > 0 else _MAX_FACTOR
        h *= ((factor if factor < _MAX_FACTOR else _MAX_FACTOR) if factor > _MIN_FACTOR
              else _MIN_FACTOR)
        err_prev = 1e-4 if err < 1e-4 else err

        if t_new < t_end and w1 < 0.0:
            if w0 < handoff:
                status = "handoff"
                break
            if collapse_tol and (w0 <= q_floor or 2.0 * w0 / -w1
                                 <= collapse_tol * (t_new if t_new > 1.0 else 1.0)):
                status = "collapsed"
                break
        t, v0, v1, g1 = t_new, w0, w1, g7

    return _solution(2, t_buf, h_buf, y_buf, k_buf, status=status, message=message, nfev=nfev,
                     naccepted=naccepted, nrejected=nrejected)


def plunge_rhs(B, D, k):
    """The right-hand side (s, (a, w, t)) -> (w, (B - D/a^2) u^2/a, u), u = a^k, for solve.

    solve_plunge takes its initial derivative and initial step size from it.
    """
    def rhs(s, y):
        a = y[0]
        u = _fpow(a, k)
        return y[1], (B - D / a / a) * (u * u / a), u
    return rhs


def solve_plunge(B, D, k, y0, t_end, collapse_tol, a_floor, rtol=1e-10, atol=1e-10,
                 max_step=math.inf):
    """Integrate y = (a, w, t) under a' = w, w' = (B - D/a^2) u^2/a, t' = u = a^k in s >= 0.

    The run ends "reached_end" at the first accepted node with t >= t_end,
    and otherwise "collapsed" at the first with w < 0 and either a <= a_floor
    or a remaining-time bound a^(k+1)/|w| = a/|da/dt| of at most
    collapse_tol max(1, t).  a must stay > 0 at every stage; while a falls a
    step is at most a/|w|, the s to the root of its tangent, and it is at
    most max_step/u, so that max_step bounds the step in t.  There is no end
    in s; the step floor and _MAX_STEPS are solve's.  solve with plunge_rhs,
    those step bounds, positive=(0,) and a node_exit with the same rules
    makes bitwise the same run.
    """
    inf, sqrt = math.inf, math.sqrt
    rhs = plunge_rhs(B, D, k)
    s = 0.0
    a, w, t = float(y0[0]), float(y0[1]), float(y0[2])
    k1 = rhs(s, [a, w, t])
    g1, u1 = k1[1], k1[2]
    h = _initial_step(rhs, [a, w, t], k1, rtol, atol, inf, (0,))
    nfev = 2

    s_buf, h_buf, k_buf = array("d", [s]), array("d", [0.0]), array("d")
    y_buf = array("d", (a, w, t))
    err_prev = 1e-4
    naccepted = nrejected = 0
    status, message = "reached_end", ""

    steps = 0
    while True:
        if steps >= _MAX_STEPS:
            status, message = "step_failure", f"exceeded {_MAX_STEPS} steps"
            break
        steps += 1

        h_floor = _FLOOR_ULPS * (s if s > 1.0 else 1.0)
        if w < 0.0:
            b = a / -w
            if b < h:
                h = b
        if max_step < inf and u1 > 0.0:
            b = max_step / u1
            if b < h:
                h = b
        pinned = h <= h_floor
        if pinned:
            h = h_floor

        # _trial's step for (a, w, t): stage k is (ak, wk, tk) with derivative
        # (wk, gk, uk); the endpoint is (a7, w7, t7).
        nfev += 6
        try:
            a2 = a + h * (_A21 * w)
            w2 = w + h * (_A21 * g1)
            t2 = t + h * (_A21 * u1)
            if not (0.0 < a2 < inf and -inf < w2 < inf and -inf < t2 < inf):
                raise _StageRejected
            u2 = a2 ** k
            g2 = (B - D / a2 / a2) * (u2 * u2 / a2)
            a3 = a + h * (_A31 * w + _A32 * w2)
            w3 = w + h * (_A31 * g1 + _A32 * g2)
            t3 = t + h * (_A31 * u1 + _A32 * u2)
            if not (0.0 < a3 < inf and -inf < w3 < inf and -inf < t3 < inf):
                raise _StageRejected
            u3 = a3 ** k
            g3 = (B - D / a3 / a3) * (u3 * u3 / a3)
            a4 = a + h * (_A41 * w + _A42 * w2 + _A43 * w3)
            w4 = w + h * (_A41 * g1 + _A42 * g2 + _A43 * g3)
            t4 = t + h * (_A41 * u1 + _A42 * u2 + _A43 * u3)
            if not (0.0 < a4 < inf and -inf < w4 < inf and -inf < t4 < inf):
                raise _StageRejected
            u4 = a4 ** k
            g4 = (B - D / a4 / a4) * (u4 * u4 / a4)
            a5 = a + h * (_A51 * w + _A52 * w2 + _A53 * w3 + _A54 * w4)
            w5 = w + h * (_A51 * g1 + _A52 * g2 + _A53 * g3 + _A54 * g4)
            t5 = t + h * (_A51 * u1 + _A52 * u2 + _A53 * u3 + _A54 * u4)
            if not (0.0 < a5 < inf and -inf < w5 < inf and -inf < t5 < inf):
                raise _StageRejected
            u5 = a5 ** k
            g5 = (B - D / a5 / a5) * (u5 * u5 / a5)
            a6 = a + h * (_A61 * w + _A62 * w2 + _A63 * w3 + _A64 * w4 + _A65 * w5)
            w6 = w + h * (_A61 * g1 + _A62 * g2 + _A63 * g3 + _A64 * g4 + _A65 * g5)
            t6 = t + h * (_A61 * u1 + _A62 * u2 + _A63 * u3 + _A64 * u4 + _A65 * u5)
            if not (0.0 < a6 < inf and -inf < w6 < inf and -inf < t6 < inf):
                raise _StageRejected
            u6 = a6 ** k
            g6 = (B - D / a6 / a6) * (u6 * u6 / a6)
            a7 = a + h * (_A71 * w + _A73 * w3 + _A74 * w4 + _A75 * w5 + _A76 * w6)
            w7 = w + h * (_A71 * g1 + _A73 * g3 + _A74 * g4 + _A75 * g5 + _A76 * g6)
            t7 = t + h * (_A71 * u1 + _A73 * u3 + _A74 * u4 + _A75 * u5 + _A76 * u6)
            if not (0.0 < a7 < inf and -inf < w7 < inf and -inf < t7 < inf):
                raise _StageRejected
            u7 = a7 ** k
            g7 = (B - D / a7 / a7) * (u7 * u7 / a7)
            if not (-inf < g7 < inf and -inf < u7 < inf):
                raise _StageRejected
            x0 = (h * (_E1 * w + _E3 * w3 + _E4 * w4 + _E5 * w5 + _E6 * w6 + _E7 * w7)
                  / (atol + rtol * (a7 if a7 > a else a)))
            m, n = abs(w), abs(w7)
            x1 = (h * (_E1 * g1 + _E3 * g3 + _E4 * g4 + _E5 * g5 + _E6 * g6 + _E7 * g7)
                  / (atol + rtol * (n if n > m else m)))
            m, n = abs(t), abs(t7)
            x2 = (h * (_E1 * u1 + _E3 * u3 + _E4 * u4 + _E5 * u5 + _E6 * u6 + _E7 * u7)
                  / (atol + rtol * (n if n > m else m)))
            p0, p1, p2 = sorted((x0 * x0, x1 * x1, x2 * x2))
            err = sqrt((p0 + p1 + p2) / 3)          # _rms of three terms
        except (_StageRejected, ArithmeticError):
            err = None

        if err is None or err > 1.0:
            nrejected += 1
            if pinned:
                status, message = "step_failure", _floor_message(err)
                break
            h *= 0.5 if err is None else max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        s_new = s + h
        s_buf.append(s_new)
        h_buf.append(h)
        y_buf.extend((a7, w7, t7))
        k_buf.extend((w, w2, w3, w4, w5, w6, w7, g1, g2, g3, g4, g5, g6, g7,
                      u1, u2, u3, u4, u5, u6, u7))
        naccepted += 1

        factor = _SAFETY * err ** -_PI_ALPHA * err_prev ** _PI_BETA if err > 0 else _MAX_FACTOR
        h *= ((factor if factor < _MAX_FACTOR else _MAX_FACTOR) if factor > _MIN_FACTOR
              else _MIN_FACTOR)
        err_prev = 1e-4 if err < 1e-4 else err

        if t7 >= t_end:
            break
        if w7 < 0.0 and (a7 <= a_floor
                         or u7 * a7 / -w7 <= collapse_tol * (t7 if t7 > 1.0 else 1.0)):
            status = "collapsed"
            break
        s, a, w, t, g1, u1 = s_new, a7, w7, t7, g7, u7

    return _solution(3, s_buf, h_buf, y_buf, k_buf, status=status, message=message, nfev=nfev,
                     naccepted=naccepted, nrejected=nrejected)


def _floor_message(err):
    """How a step that failed at the step floor failed."""
    if err is None:
        return "inadmissible stages at the step floor"
    return f"tolerance unmet at the step floor (err={err:.3g})"


def _solution(d, t_buf, h_buf, y_buf, k_buf, **fields):
    """The RkSolution of a run's buffers."""
    return RkSolution(ts=np.frombuffer(t_buf), hs=np.frombuffer(h_buf),
                      ys=np.frombuffer(y_buf).reshape(-1, d),
                      dense_q=(np.frombuffer(k_buf).reshape(-1, 7) @ _P).reshape(-1, d, 4),
                      **fields)

