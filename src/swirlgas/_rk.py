"""Adaptive Dormand-Prince 5(4) stepping with dense output and stop events.

Shared by the scale-factor integrator (d = 2) and the coupled three-axis
system (d = 6).  Features the callers rely on:

* embedded 5(4) error estimate with the classic PI controller
  (h_new = h * safety * err^-0.17 * err_prev^0.04, clipped to [0.1, 5]),
* quartic dense output per accepted step,
* an optional state-dependent step bound (used to approach a collapse
  without stepping past it),
* components that must stay positive at every stage, checked inline (a
  step whose stages leave that region, turn non-finite or raise
  ArithmeticError is rejected and retried smaller),
* a scalar stop function: integration halts at the first accepted step whose
  endpoint has stop(y) <= 0, and the crossing time is located by bisection
  on the dense output.

Steps run on plain Python floats, since on states this small a numpy call
costs more than its arithmetic: callbacks get the state as a list, stage sums
are written out from the tableau tuples, and the error norm is a sorted sum,
bitwise invariant under permutations of the components.  Accepted steps fill
flat array('d') buffers with t, h, y and the seven stage derivatives; nodes
and dense-output coefficients are built once at the end, by one matmul with
_P.  No stage sum goes through BLAS gemv, so nodes don't depend on its kernel.

There are two trial steps with one protocol, (f, pos, rtol, atol, t, y, k1,
h) -> (y_new, err, k7, record), and solve picks one by the size of the state
before its loop.  A 2-component state (the scale equation) takes _trial2,
which holds each stage in two named floats: most of the generic step's cost
is the interpreter's work on lists, zips and per-stage checks, not the
arithmetic.  Every other size takes the generic _trial, the only step of
the three-axis system (d = 6), and the reference that _trial2 is tested
against: each component is computed by the same expression in the same
order, so both steps give bitwise the same nodes, stages and error norms.
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
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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
_CHUNK = 2048      # query times per dense-output batch (bounds the temporaries)


@dataclass
class RkSolution:
    """Nodes, dense-output coefficients and the terminal condition of a run."""

    ts: np.ndarray                 # accepted node times, shape (n,)
    ys: np.ndarray                 # accepted states, shape (n, d)
    hs: np.ndarray                 # step size that produced each node (hs[0] = 0)
    dense_q: np.ndarray            # shape (n-1, d, 4): per-step quartic coefficients
    status: str                    # "reached_end" | "stopped" | "step_failure"
    stop_t: float | None = None    # bisected stop-crossing time
    stop_bracket: tuple | None = None
    message: str = ""
    nfev: int = 0
    naccepted: int = 0
    nrejected: int = 0

    def eval_dense(self, t):
        """Dense evaluation of the state at times inside the covered span.

        A scalar time gives shape (d,), an array of m times shape (m, d).
        Node times reproduce the stored node values exactly.  A scalar is
        evaluated in floats, by the same Horner sequence as an array.
        """
        t_arr = np.asarray(t, dtype=float)
        tq = t_arr.reshape(-1)
        ts, ys = self.ts, self.ys
        lo, hi = float(ts[0]), float(ts[-1])
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        t_lo, t_hi = (tq.min(), tq.max()) if tq.size > 1 else (lo, hi)
        if tq.size == 1:
            t_lo = t_hi = float(tq[0])
        if t_lo < lo - slack or t_hi > hi + slack:
            raise ValueError(f"dense evaluation outside covered span [{lo}, {hi}]")
        # Searching from the right puts a node time at theta = 0 of the step
        # it starts, so the node value comes back exactly; the last node
        # starts no step and is returned as stored.
        nseg = self.dense_q.shape[0]
        if t_arr.ndim == 0:
            if not nseg or t_lo == hi:
                return ys[-1].copy()
            seg = min(max(int(ts.searchsorted(t_lo, "right")) - 1, 0), nseg - 1)
            h = float(self.hs[seg + 1])
            theta = (t_lo - float(ts[seg])) / h
            return np.array([v + h * ((((q3 * theta + q2) * theta + q1) * theta + q0) * theta)
                             for v, (q0, q1, q2, q3)
                             in zip(ys[seg].tolist(), self.dense_q[seg].tolist())])
        out = np.empty((tq.size, ys.shape[1]))
        if not nseg:
            out[:] = ys[0]
        for k in range(0, tq.size if nseg else 0, _CHUNK):
            tc = tq[k:k + _CHUNK]
            seg = np.clip(np.searchsorted(ts, tc, "right") - 1, 0, nseg - 1)
            h = self.hs[seg + 1]
            theta = ((tc - ts[seg]) / h)[:, None]
            q = self.dense_q[seg]
            poly = (((q[..., 3] * theta + q[..., 2]) * theta + q[..., 1]) * theta
                    + q[..., 0]) * theta
            val = ys[seg] + h[:, None] * poly
            val[tc == hi] = ys[-1]
            out[k:k + _CHUNK] = val
        return out


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
    record the seven stages flat, by component (an iterator here, a tuple from
    _trial2).  Raises _StageRejected when a stage leaves the admissible region
    or turns non-finite.
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


def _trial2(f, pos, rtol, atol, t, y, k1, h):
    """_trial written out for a 2-component state.

    Each stage component is _trial's expression for it, checked in _check's
    order (finite, then pos0 / pos1: component 0 / 1 must stay > 0), so
    y_new and the stages are bitwise _trial's, and the error norm, a sum of
    two terms, equals _rms's sorted sum bitwise.
    """
    pos0, pos1 = pos
    v0, v1 = y
    a0, a1 = k1
    u0 = v0 + h * (_A21 * a0)
    u1 = v1 + h * (_A21 * a1)
    if not (isfinite(u0) and isfinite(u1)) or (pos0 and not u0 > 0.0) or (pos1 and not u1 > 0.0):
        raise _StageRejected
    b0, b1 = f(t + _C2 * h, [u0, u1])
    u0 = v0 + h * (_A31 * a0 + _A32 * b0)
    u1 = v1 + h * (_A31 * a1 + _A32 * b1)
    if not (isfinite(u0) and isfinite(u1)) or (pos0 and not u0 > 0.0) or (pos1 and not u1 > 0.0):
        raise _StageRejected
    c0, c1 = f(t + _C3 * h, [u0, u1])
    u0 = v0 + h * (_A41 * a0 + _A42 * b0 + _A43 * c0)
    u1 = v1 + h * (_A41 * a1 + _A42 * b1 + _A43 * c1)
    if not (isfinite(u0) and isfinite(u1)) or (pos0 and not u0 > 0.0) or (pos1 and not u1 > 0.0):
        raise _StageRejected
    e0, e1 = f(t + _C4 * h, [u0, u1])
    u0 = v0 + h * (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * e0)
    u1 = v1 + h * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * e1)
    if not (isfinite(u0) and isfinite(u1)) or (pos0 and not u0 > 0.0) or (pos1 and not u1 > 0.0):
        raise _StageRejected
    g0, g1 = f(t + _C5 * h, [u0, u1])
    u0 = v0 + h * (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * e0 + _A65 * g0)
    u1 = v1 + h * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * e1 + _A65 * g1)
    if not (isfinite(u0) and isfinite(u1)) or (pos0 and not u0 > 0.0) or (pos1 and not u1 > 0.0):
        raise _StageRejected
    m0, m1 = f(t + h, [u0, u1])
    w0 = v0 + h * (_A71 * a0 + _A73 * c0 + _A74 * e0 + _A75 * g0 + _A76 * m0)
    w1 = v1 + h * (_A71 * a1 + _A73 * c1 + _A74 * e1 + _A75 * g1 + _A76 * m1)
    if not (isfinite(w0) and isfinite(w1)) or (pos0 and not w0 > 0.0) or (pos1 and not w1 > 0.0):
        raise _StageRejected
    y7 = [w0, w1]
    k7 = f(t + h, y7)
    n0, n1 = k7
    if not (isfinite(n0) and isfinite(n1)):
        raise _StageRejected
    x0 = (h * (_E1 * a0 + _E3 * c0 + _E4 * e0 + _E5 * g0 + _E6 * m0 + _E7 * n0)
          / (atol + rtol * max(abs(v0), abs(w0))))
    x1 = (h * (_E1 * a1 + _E3 * c1 + _E4 * e1 + _E5 * g1 + _E6 * m1 + _E7 * n1)
          / (atol + rtol * max(abs(v1), abs(w1))))
    return (y7, math.sqrt((x0 * x0 + x1 * x1) / 2), k7,
            (a0, b0, c0, e0, g0, m0, n0, a1, b1, c1, e1, g1, m1, n1))


def _initial_step(f, t0, y0, f0, rtol, atol, max_step, positive):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    for _ in range(20):
        y1 = [v + h0 * g for v, g in zip(y0, f0)]
        if all(y1[k] > 0.0 for k in positive):
            break
        h0 *= 0.1
    else:
        return min(1e-12, max_step)
    f1 = f(t0 + h0, y1)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def solve(f, t0, y0, t_end, rtol=1e-10, atol=1e-10, max_step=math.inf,
          step_bound=None, positive=(), stop=None, near_stop=None,
          max_steps=1_000_000):
    """Integrate y' = f(t, y) from t0 to t_end.

    f(t, y)          -> derivative as a float sequence; y is a list of floats.
    step_bound(t, y) -> additional per-step upper bound on h (or None).
    positive         -> indices of components that must stay > 0 at every
                        stage (a step leaving that region is retried smaller).
    stop(y)          -> halt when <= 0 at an accepted endpoint; the crossing
                        is bisected on the dense output to ~rtol accuracy.
    near_stop(t, y)  -> when the step size is pinned at the floating-point
                        floor and the step still fails, this may return an
                        upper bound on the remaining time to the stop set;
                        the solver then reports a stop with that bound as
                        the bracket width instead of a step failure.
    """
    y = [float(v) for v in y0]
    d = len(y)
    pos = tuple(k in positive for k in range(d))
    trial = _trial2 if d == 2 else _trial

    t = float(t0)
    f_curr = f(t, y)
    h = _initial_step(f, t, y, f_curr, rtol, atol, max_step, positive)
    nfev = 2

    t_buf, h_buf, y_buf, k_buf = array("d", [t]), array("d", [0.0]), array("d", y), array("d")
    err_prev = 1e-4
    naccepted = nrejected = 0
    status, message = "reached_end", ""
    stop_t = stop_bracket = crossing = None

    floor_ulps = 16.0 * math.ulp(1.0)
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            status, message = "step_failure", f"exceeded {max_steps} steps"
            break
        steps += 1

        h_floor = floor_ulps * max(abs(t), 1.0)
        h = min(h, max_step, t_end - t)
        if step_bound is not None:
            b = step_bound(t, y)
            if b is not None:
                h = min(h, b)
        pinned = h <= h_floor
        h = max(h, h_floor)

        nfev += 6
        try:
            y_new, err, f_new, record = trial(f, pos, rtol, atol, t, y, f_curr, h)
        except (_StageRejected, ArithmeticError):   # e.g. dividing by an underflowed power
            err = None

        if err is None or err > 1.0:
            nrejected += 1
            if pinned:
                remain = near_stop(t, y) if near_stop is not None else None
                if remain is not None:
                    status, stop_t, stop_bracket = "stopped", t, (t, t + max(h, remain))
                    message = "step floor reached inside the stop neighborhood"
                elif err is None:
                    status, message = "step_failure", "inadmissible stages at the step floor"
                else:
                    status, message = "step_failure", f"tolerance unmet at the step floor (err={err:.3g})"
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

        if stop is not None and stop(y_new) <= 0.0:
            status, crossing = "stopped", (t, t_new)
            break
        t, y, f_curr = t_new, y_new, f_new

    sol = RkSolution(
        ts=np.frombuffer(t_buf), hs=np.frombuffer(h_buf), ys=np.frombuffer(y_buf).reshape(-1, d),
        dense_q=(np.frombuffer(k_buf).reshape(-1, 7) @ _P).reshape(-1, d, 4),
        status=status, stop_t=stop_t, stop_bracket=stop_bracket,
        message=message, nfev=nfev, naccepted=naccepted, nrejected=nrejected,
    )
    if crossing is not None:
        sol.stop_t, sol.stop_bracket = _bisect_stop(sol, stop, *crossing, rtol)
    return sol


def _bisect_stop(sol, stop, t_lo, t_hi, rtol):
    """Bisect the dense output for the stop crossing inside [t_lo, t_hi]."""
    g_lo = stop(sol.eval_dense(t_lo))
    if g_lo <= 0.0:  # crossing happened before this step (should not occur)
        return t_lo, (t_lo, t_hi)
    lo, hi = t_lo, t_hi
    for _ in range(200):
        if hi - lo <= rtol * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if stop(sol.eval_dense(mid)) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi)
