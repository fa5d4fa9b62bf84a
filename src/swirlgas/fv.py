"""First-order finite-volume benchmark driven by the exact fields.

A minimal solver for the 2D isentropic system in conservative form,

    U = (rho, rho u1, rho u2),
    F_x = (rho u1, rho u1^2 + p, rho u1 u2),
    F_y = (rho u2, rho u1 u2, rho u2^2 + p),      p = K rho^gamma,

on a uniform Cartesian grid: dimension-by-dimension Rusanov (local
Lax-Friedrichs) fluxes with wave speed |u| + c, c = sqrt(gamma K rho^(gamma-1)),
forward-Euler time stepping at a CFL fraction of dx / max(|u| + c), and a
one-cell ghost ring.  Ghost cells are refreshed from the exact solution each
step (time-dependent Dirichlet), so interior error isolates the scheme.

The intended use is convergence studies against the exact solutions: a
first-order scheme on a smooth exact field must show L1 errors shrinking at
order ~ 1 under mesh doubling, which ``run_and_compare`` tabulates.

State layout: a ``ConservativeField`` holds one C-ordered array ``U`` of shape
(3, nx+2, ny+2), and ``rho`` / ``m1`` / ``m2`` are views of its rows.  ``step``
works on ``U`` flattened per component, where the y neighbour of a cell is at
offset +1 and the x neighbour at +(ny+2), so every face pass is contiguous.
Its work buffers and the ghost-ring coordinates belong to the field: ``step``
makes them on first use, and ``run`` drops them before it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emden import Trajectory, _check_span
from .errors import (BoxOutsideSupport, InvalidParams, LadderTooShort, NonFiniteState,
                     NonPositiveTime)
from .fields import SolutionParams, check_support_reach, eval_flow_arrays, support_s_bound

__all__ = ["FvConfig", "ConservativeField", "ErrorReport", "init_from_exact",
           "step", "run", "run_and_compare"]


@dataclass(frozen=True)
class FvConfig:
    """Box, resolution and stepping controls for one benchmark run."""

    x_lo: float = -1.0
    x_hi: float = 1.0
    y_lo: float = -1.0
    y_hi: float = 1.0
    nx: int = 64
    ny: int = 64
    cfl: float = 0.4
    rho_floor: float = 1e-12
    t0: float = 0.0
    t_end: float = 0.2
    boundary: str = "exact"   # "exact" (Dirichlet from the exact field) | "outflow"

    def __post_init__(self):
        violations = []
        if not 0.0 < self.cfl < 1.0:
            violations.append("CflOutsideUnitInterval")
        if not (self.x_hi > self.x_lo and self.y_hi > self.y_lo):
            violations.append("EmptyBox")
        if self.nx < 16 or self.ny < 16:
            violations.append("ResolutionBelow16")
        if self.boundary not in ("exact", "outflow"):
            violations.append(f"UnknownBoundary:{self.boundary}")
        if violations:
            raise InvalidParams(violations)

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_hi - self.y_lo) / self.ny

    def centers(self):
        """Cell-center coordinate arrays including the ghost ring."""
        xs = self.x_lo + (np.arange(self.nx + 2) - 0.5) * self.dx
        ys = self.y_lo + (np.arange(self.ny + 2) - 0.5) * self.dy
        return np.meshgrid(xs, ys, indexing="ij")


class ConservativeField:
    """Cell data (rho, rho u1, rho u2) with a one-cell ghost ring, stored as U."""

    def __init__(self, cfg: FvConfig, rho, m1, m2, t: float):
        self.cfg = cfg
        expected = (cfg.nx + 2, cfg.ny + 2)
        rho = np.asarray(rho, dtype=float)
        if rho.shape != expected:
            raise ValueError(f"expected padded shape {expected}, got {rho.shape}")
        self.U = np.empty((3, *expected))
        self.U[0], self.U[1], self.U[2] = rho, m1, m2
        self.t = float(t)
        self.floor_events = 0
        # Over the steps taken (min and max of none are +inf and -inf): the
        # count, the smallest and largest dt and the peak |u| + c.
        self.stats = {"steps": 0, "dt_min": math.inf, "dt_max": -math.inf,
                      "max_wave_speed": -math.inf}
        self._work = None

    rho = property(lambda self: self.U[0])
    m1 = property(lambda self: self.U[1])
    m2 = property(lambda self: self.U[2])

    def interior(self):
        """Views of the interior cells (no ghosts)."""
        sl = (slice(1, -1), slice(1, -1))
        return self.rho[sl], self.m1[sl], self.m2[sl]


class _Work:
    """One grid's step buffers, and its ghost ring as flat indices and coordinates."""

    def __init__(self, cfg: FvConfig):
        self.W = cfg.ny + 2                  # flat offset of the x neighbour
        self.M = cfg.nx * self.W             # flat length of rows 1..nx
        n = (cfg.nx + 2) * self.W
        self.u1, self.u2, self.p, self.c, self.ay, self.amax = np.empty((6, n))
        self.flux, self.face, self.res = np.empty((3, 3, n))
        ring = np.ones((cfg.nx + 2, self.W), dtype=bool)
        ring[1:-1, 1:-1] = False
        self.ring = np.flatnonzero(ring)
        self.xr, self.yr = (g.ravel()[self.ring] for g in cfg.centers())


def _fill_ghosts(field: ConservativeField, params, traj, t: float):
    U = field.U
    if field.cfg.boundary == "outflow":
        U[:, 0, :] = U[:, 1, :]
        U[:, -1, :] = U[:, -2, :]
        U[:, :, 0] = U[:, :, 1]
        U[:, :, -1] = U[:, :, -2]
        return
    if traj is None:
        raise ValueError("exact-Dirichlet boundaries need the scale trajectory")
    w = field._work
    state = traj.state_at(t)
    rho, u1, u2, _ = eval_flow_arrays(params, state, w.xr, w.yr)
    flat = U.reshape(3, -1)
    flat[0, w.ring] = rho
    flat[1, w.ring] = rho * u1
    flat[2, w.ring] = rho * u2


def init_from_exact(params: SolutionParams, traj: Trajectory, t0: float,
                    cfg: FvConfig) -> ConservativeField:
    """Sample the exact field at cell centers (ghost ring included).

    The trajectory must cover the run window [t0, t_end] (TrajectoryTooShort
    otherwise), and the box, enlarged by the ghost ring, must stay strictly
    inside the density support, within fields.SUPPORT_MARGIN of its bound on
    s, over the whole window.
    """
    t_end = max(t0, cfg.t_end)
    _check_span(traj, t0, t_end)
    s_b = support_s_bound(params)
    if not math.isinf(s_b):
        ts = np.linspace(t0, t_end, 33)
        a_min = float(np.min(traj.sample(ts)[0]))
        r_corner = math.hypot(max(abs(cfg.x_lo - cfg.dx), abs(cfg.x_hi + cfg.dx)),
                              max(abs(cfg.y_lo - cfg.dy), abs(cfg.y_hi + cfg.dy)))
        check_support_reach(s_b, r_corner, a_min, BoxOutsideSupport,
                            "the box corner over the run window")
    xg, yg = cfg.centers()
    state = traj.state_at(t0)
    rho, u1, u2, _ = eval_flow_arrays(params, state, xg, yg)
    return ConservativeField(cfg, rho, rho * u1, rho * u2, t0)


def step(field: ConservativeField, params: SolutionParams,
         traj: Trajectory | None = None, dt_cap: float | None = None) -> float:
    """Advance one forward-Euler step with Rusanov fluxes; returns dt used.

    Ghost cells are refreshed at the current time before the fluxes are
    formed.  Densities below the floor are clamped (and counted).  NaN or
    Inf anywhere aborts via NonFiniteState with diagnostics.

    Face values are kept doubled (F_L + F_R - a (q_R - q_L)) and the 0.5 is
    folded into dt/dx and dt/dy; scaling by a power of two is exact, so the
    update is bitwise that of the halved face fluxes.
    """
    cfg = field.cfg
    if field._work is None:
        field._work = _Work(cfg)
    w = field._work
    _fill_ghosts(field, params, traj, field.t)
    U = field.U.reshape(3, -1)
    rho = U[0]
    u1, u2, p, c, ay, amax = w.u1, w.u2, w.p, w.c, w.ay, w.amax
    np.divide(U[1], rho, out=u1)
    np.divide(U[2], rho, out=u2)
    np.multiply(params.K, rho ** params.gamma, out=p)
    np.sqrt(np.multiply(params.gamma * params.K, rho ** (params.gamma - 1.0), out=c), out=c)
    np.add(np.abs(u2, out=ay), c, out=ay)
    ax = np.add(np.abs(u1, out=amax), c, out=c)  # the last use of c: ax takes its buffer
    smax = float(np.maximum(ax.max(), ay.max()))
    dt = cfg.cfl * min(cfg.dx, cfg.dy) / smax
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    W, M = w.W, w.M
    flux, res = w.flux, w.res[:, :M]
    for d, s, u, a, h in ((1, W, u1, ax, dt / cfg.dx), (2, 1, u2, ay, dt / cfg.dy)):
        flux[0] = U[d]
        np.multiply(U[1:], u, out=flux[1:])
        flux[d] += p
        np.maximum(a[:-s], a[s:], out=amax[:-s])
        face = w.face[:, :-s]
        np.multiply(np.subtract(U[:, s:], U[:, :-s], out=face), amax[:-s], out=face)
        for q in range(3):  # amax is free again: it holds each flux sum in turn
            np.subtract(np.add(flux[q, :-s], flux[q, s:], out=amax[:-s]), face[q], out=face[q])
        out = res if d == 1 else flux[:, :M]
        np.subtract(face[:, W:W + M], face[:, W - s:W - s + M], out=out)
        out *= 0.5 * h
    res += flux[:, :M]
    field.U[:, 1:-1, 1:-1] -= res.reshape(3, cfg.nx, W)[:, :, 1:-1]

    inner = field.rho[1:-1, 1:-1]
    low = inner < cfg.rho_floor
    if np.any(low):
        field.floor_events += int(np.count_nonzero(low))
        inner[low] = cfg.rho_floor
    field.t += dt
    if not np.isfinite(field.U).all():
        raise NonFiniteState(f"non-finite cell state at t = {field.t}")
    stats = field.stats
    stats["steps"] += 1
    stats["dt_min"], stats["dt_max"] = min(stats["dt_min"], dt), max(stats["dt_max"], dt)
    stats["max_wave_speed"] = max(stats["max_wave_speed"], smax)
    return dt


def run(params: SolutionParams, traj: Trajectory, cfg: FvConfig) -> ConservativeField:
    """March from t0 to t_end; the final partial step lands exactly on t_end.
    The step buffers are dropped on return, so they never outlive the run."""
    field = init_from_exact(params, traj, cfg.t0, cfg)
    try:
        while field.t < cfg.t_end - 1e-14 * max(1.0, abs(cfg.t_end)):
            step(field, params, traj, dt_cap=cfg.t_end - field.t)
    finally:
        field._work = None
    return field


@dataclass(frozen=True)
class ErrorReport:
    """Per-resolution errors against the exact field, with observed orders;
    diagnostics maps each key of ``ConservativeField.stats`` to its values."""

    resolutions: tuple
    l1_rho: tuple
    linf_rho: tuple
    l1_mom: tuple
    linf_mom: tuple
    orders_l1_rho: tuple
    floor_events: tuple
    diagnostics: dict

    def rows(self):
        hdr = ("resolution", "l1_rho", "linf_rho", "l1_mom", "linf_mom", "order_l1_rho")
        body = []
        for k, n in enumerate(self.resolutions):
            order = self.orders_l1_rho[k - 1] if k > 0 else None
            body.append((n, self.l1_rho[k], self.linf_rho[k], self.l1_mom[k],
                         self.linf_mom[k], order))
        return hdr, body

    def as_dict(self):
        return {
            "resolutions": list(self.resolutions),
            "l1_rho": list(self.l1_rho),
            "linf_rho": list(self.linf_rho),
            "l1_mom": list(self.l1_mom),
            "linf_mom": list(self.linf_mom),
            "orders_l1_rho": list(self.orders_l1_rho),
            "floor_events": list(self.floor_events),
            "diagnostics": {k: list(v) for k, v in self.diagnostics.items()},
        }


def _errors_vs_exact(field: ConservativeField, params, traj):
    cfg = field.cfg
    xg, yg = cfg.centers()
    sl = (slice(1, -1), slice(1, -1))
    state = traj.state_at(field.t)
    rho_e, u1_e, u2_e, _ = eval_flow_arrays(params, state, xg[sl], yg[sl])
    m1_e, m2_e = rho_e * u1_e, rho_e * u2_e
    cell = cfg.dx * cfg.dy
    d_rho = field.rho[sl] - rho_e
    d_m = np.hypot(field.m1[sl] - m1_e, field.m2[sl] - m2_e)
    return (float(np.sum(np.abs(d_rho)) * cell), float(np.max(np.abs(d_rho))),
            float(np.sum(d_m) * cell), float(np.max(d_m)))


def check_horizon(cfg: FvConfig):
    """NonPositiveTime unless cfg.t_end > cfg.t0: at zero horizon no order shows."""
    if not cfg.t_end > cfg.t0:
        raise NonPositiveTime(f"the horizon t_end - t0 = {cfg.t_end - cfg.t0!r} must be positive")


def run_and_compare(params: SolutionParams, traj: Trajectory, cfg: FvConfig,
                    resolutions, on_finest=None) -> ErrorReport:
    """Run every resolution and tabulate errors and observed L1 orders.

    The horizon must pass check_horizon.  on_finest, when given, is called
    with the finest run's field; the report does not keep any field.
    """
    resolutions = [int(n) for n in resolutions]
    if len(resolutions) < 2:
        raise LadderTooShort("need at least two resolutions for an order estimate")
    if any(fine <= coarse for coarse, fine in zip(resolutions, resolutions[1:])):
        raise InvalidParams(["ResolutionsNotIncreasing"])
    check_horizon(cfg)
    l1r, lir, l1m, lim, floors, stats = [], [], [], [], [], []
    for n in resolutions:
        cfg_n = replace(cfg, nx=n, ny=n)
        field = run(params, traj, cfg_n)
        e = _errors_vs_exact(field, params, traj)
        l1r.append(e[0])
        lir.append(e[1])
        l1m.append(e[2])
        lim.append(e[3])
        floors.append(field.floor_events)
        stats.append(field.stats)
        if on_finest is not None and n == resolutions[-1]:
            on_finest(field)
    orders = tuple(
        math.log2(l1r[k] / l1r[k + 1]) / math.log2(resolutions[k + 1] / resolutions[k])
        if l1r[k + 1] > 0 else math.inf
        for k in range(len(resolutions) - 1)
    )
    return ErrorReport(resolutions=tuple(resolutions), l1_rho=tuple(l1r),
                       linf_rho=tuple(lir), l1_mom=tuple(l1m), linf_mom=tuple(lim),
                       orders_l1_rho=orders, floor_events=tuple(floors),
                       diagnostics={k: tuple(st[k] for st in stats) for k in stats[0]})
