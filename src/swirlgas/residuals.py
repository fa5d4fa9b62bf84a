"""Numerical verification lab for the exact-solution claims.

Every field evaluated by this package is pushed back through the governing
equations with finite differences.  One balance routine, ``_balance``, does
it in any dimension and in a few array passes: one field evaluation on the
sample points (built once per grid geometry) and all their stencil neighbours,
each space stencil applied once across all axes, every equation summed at
once.  The public checks add only their guards, their field and their time
derivative:

* ``euler_residual_2d`` (2D family) and ``euler_residual_3d`` (three-axis
  family, whose consistency is MEASURED: with a tolerance the report
  carries a PASS/FAIL verdict with the offending equation and location):
  4th-order space stencils, time derivatives by 2nd-order central
  differences of the field at t +- h_t (scale states from dense output);
  the 2D check optionally adds the viscous term mu * Laplacian(u), one more
  column of the balance pass, whose peak it also reports on its own,
* ``mass_residual_generic_g``: the generic-swirl mass identity (for ANY
  tangential speed profile G(t, r), rho = f(r/a)/a^2 with the dilation
  velocity keeps the mass equation exact); mass equation only, else as 2D,
* ``zz_direct_residual``: the gamma = 2 fixture on its own code path;
  2nd-order space stencils, analytic rho_t = -2 rho/t and u_t = -u/t.

One normalization rule holds everywhere: an equation's residual is divided
by the largest of its terms (time derivative, one flux or convection term
per axis, pressure gradient, viscous term) and of its undifferentiated flux
payloads on the grid, so tolerances are scale-free across parameter
regimes.  For exact fields the normalized residual is pure truncation error
and shrinks at the stencil order under h-refinement; ``residual_convergence``
measures that order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from ._rk import _fpow
from .emden import (IntegrationConfig, Trajectory, _check_span, _check_start, _collapse_event,
                    _terminal)
from .errors import GridTouchesSupportBoundary, InvalidParams, LadderTooShort
from .fields import (
    SolutionParams,
    check_reach_squares,
    check_support_reach,
    eval_flow_arrays,
    profile_law,
    profile_support,
    support_s_bound,
    zhang_zheng_arrays,
)

__all__ = [
    "GridSpec",
    "Grid3Spec",
    "ResidualReport",
    "GenericRotationField",
    "ThreeAxisParams",
    "Scales3Trajectory",
    "euler_residual_2d",
    "zz_direct_residual",
    "mass_residual_generic_g",
    "integrate_scales_3d",
    "eval_flow_3d_arrays",
    "euler_residual_3d",
    "residual_convergence",
]


@functools.lru_cache(maxsize=8)
def _points(polar, axes):
    """Read-only flat meshgrid of np.linspace(*axis) per axis; (r, theta) -> (x, y) if polar."""
    grids = np.meshgrid(*(np.linspace(*axis) for axis in axes), indexing="ij")
    if polar:
        grids = [grids[0] * np.cos(grids[1]), grids[0] * np.sin(grids[1])]
    flat = tuple(g.ravel() for g in grids)
    for g in flat:
        g.flags.writeable = False
    return flat


@dataclass(frozen=True)
class GridSpec:
    """Sampling annulus and stencil steps for 2D residual evaluation.

    The annulus r in [r_lo, r_hi] holds n_r x n_theta points; kind names it
    and takes no other value.  h is the spatial stencil step, h_t the
    temporal one.
    """

    kind: str = "annulus"
    r_lo: float = 0.3
    r_hi: float = 1.5
    n_r: int = 20
    n_theta: int = 24
    h: float = 1e-3
    h_t: float = 1e-3

    def __post_init__(self):
        violations = [f"NonPositive:{name}" for name in ("h", "h_t", "n_r", "n_theta")
                      if not getattr(self, name) > 0]
        if self.kind != "annulus":
            violations.append(f"UnknownGridKind:{self.kind}")
        if not 0.0 <= self.r_lo < self.r_hi:
            violations.append("EmptyAnnulus")
        if violations:
            raise InvalidParams(violations)

    def points(self):
        """Flattened (x, y) sample arrays, read-only and shared by equal geometries."""
        return _points(True, ((self.r_lo, self.r_hi, self.n_r),
                              (0.0, 2.0 * math.pi, self.n_theta, False)))


@dataclass(frozen=True)
class ResidualReport:
    """Normalized residual statistics per governing equation."""

    equations: dict          # name -> {"max": .., "mean": .., "scale": .., "worst_point": (..)}
    h: float
    h_t: float
    n_points: int
    verdict: str | None = None       # "PASS"/"FAIL" when a tolerance was given
    tolerance: float | None = None
    worst_equation: str | None = None
    # 2D with mu != 0: max |mu Laplacian(u)| over the velocity-gradient scale / h (not in as_dict)
    viscous_term_normalized: float | None = None

    @property
    def max_normalized(self) -> float:
        return max(eq["max"] for eq in self.equations.values())

    def as_dict(self):
        out = {"h": self.h, "h_t": self.h_t, "n_points": self.n_points,
               "max_normalized": self.max_normalized, "equations": self.equations}
        if self.verdict is not None:
            out.update(verdict=self.verdict, tolerance=self.tolerance,
                       worst_equation=self.worst_equation)
        return out


def _balance(field, X, h, order, time_derivative, mu=0.0):
    """Mass and momentum residual summaries of a field at the points X, and
    the largest |mu Laplacian(u_i)| over the points and axes (None for mu = 0).

    field(X) -> (rho, U, p) evaluates the field at the current time on a
    d-tuple of coordinate arrays, with U a d-tuple of velocity components.
    A field with p = None (no pressure law) is checked against the mass
    equation only.  time_derivative(rho, U) -> (rho_t, U_t) gives the time
    derivatives at X; rho and U (a (d, n) array) are the field's values there.

    Space derivatives are central differences of the given order (4: 5-point,
    2: 3-point stencil) with step h.  With mu != 0 the momentum equations
    gain the term -mu Laplacian(u_i), by the 5-point stencil.  Each equation
    is one row of a block holding its terms (summed in the order time, axes
    0..d-1, pressure, viscous) and its undifferentiated flux payloads: rho
    and rho u_j for mass, and rho u_i, rho u_j u_i for every axis j and p for
    momentum i.  The scale is the largest magnitude in the row.  The payloads
    floor it: for uniform fields every derivative term is stencil rounding
    noise, and the normalization would otherwise divide noise by noise
    instead of reporting a machine-zero residual.
    """
    d, n = len(X), X[0].size
    offsets = (-2, -1, 1, 2) if order == 4 else (-1, 1)
    m = len(offsets)
    # Row 0 of pts[i] and of each field value is at X, row 1 + j m + k shifted offsets[k] h along j.
    pts = np.repeat(np.stack(X)[:, None], 1 + d * m, axis=1)
    for j in range(d):
        pts[j, 1 + j * m:1 + (j + 1) * m] += np.multiply(offsets, h)[:, None]
    rho_s, U_s, p_s = field(tuple(pts.reshape(d, -1)))

    def diff(s):
        if order == 4:
            return (s[..., 0, :] - 8.0 * s[..., 1, :] + 8.0 * s[..., 2, :] - s[..., 3, :]) / (12.0 * h)
        return (s[..., 1, :] - s[..., 0, :]) / (2.0 * h)

    R, V = rho_s.reshape(1 + d * m, n), np.reshape(U_s, (d, 1 + d * m, n))
    rho, U, Vs = R[0], V[:, 0], V[:, 1:].reshape(d, d, m, n)  # Vs[i, j]: u_i along axis j
    rho_t, U_t = time_derivative(rho, U)
    rhoU = rho * U
    n_eq, n_terms = (1, d + 1) if p_s is None else (d + 1, d + 2 + (mu != 0.0))
    viscous = None
    blocks = np.zeros((n_eq, n_terms + d + 2, n))  # per equation: terms, then payloads
    terms, payloads = blocks[:, :n_terms], blocks[:, n_terms:]
    terms[0, 0] = rho_t
    terms[0, 1:d + 1] = diff(R[1:].reshape(d, m, n) * Vs[range(d), range(d)])
    payloads[0, :d + 1] = (rho, *rhoU)
    if p_s is not None:
        P = p_s.reshape(1 + d * m, n)
        terms[1:, 0] = rho * U_t
        terms[1:, 1:d + 1] = rhoU * diff(Vs)
        terms[1:, d + 1] = diff(P[1:].reshape(d, m, n))
        if mu != 0.0:
            lap = sum(Vs[:, j, offsets.index(k)] for j in range(d) for k in (1, -1))
            terms[1:, d + 2] = -mu * ((lap - 2.0 * d * U) / (h * h))
            viscous = float(np.abs(terms[1:, d + 2]).max())
        payloads[1:, 0] = rhoU
        payloads[1:, 1:d + 1] = rhoU * U[:, None]
        payloads[1:, d + 1] = P[0]

    residual = sum(terms[:, k] for k in range(n_terms))
    scale = np.maximum(np.abs(blocks).max(axis=(1, 2)), 1e-300)
    normal = np.abs(residual) / scale[:, None]
    worst = normal.argmax(axis=1)
    peak, mean, where = normal[range(n_eq), worst], normal.mean(axis=1), pts[:, 0, worst]
    names = ["mass"] + [f"momentum-{'xyz'[i]}" for i in range(d)]
    return {names[e]: {"max": float(peak[e]), "mean": float(mean[e]), "scale": float(scale[e]),
                       "worst_point": tuple(float(c) for c in where[:, e])}
            for e in range(n_eq)}, viscous


def _central_in_time(before, after, X, h_t):
    """time_derivative for _balance: 2nd-order central differences of the
    fields ``before`` and ``after`` evaluated at X at t - h_t and t + h_t."""

    def time_derivative(rho, U):
        (rho_m, U_m, _), (rho_p, U_p, _) = before(X), after(X)
        return (rho_p - rho_m) / (2.0 * h_t), (np.array(U_p) - np.array(U_m)) / (2.0 * h_t)

    return time_derivative


def _check_annulus(grid: GridSpec):
    if grid.r_lo <= 2.0 * grid.h:
        raise ValueError("annulus must exclude an r = 0 neighborhood wider than 2h")


def euler_residual_2d(params: SolutionParams, traj: Trajectory, t: float,
                      grid: GridSpec, mu: float = 0.0,
                      density_factor: float = 1.0) -> ResidualReport:
    """Mass and momentum residuals of the family field at time t.

    Spatial derivatives use 4th-order 5-point stencils; the time derivative
    is a 2nd-order central difference with scale states taken from the
    trajectory's dense output at t +- h_t.  With mu != 0 the viscous term
    mu * Laplacian(u) is subtracted from the momentum residuals (the family
    velocity is affine in x, y, so this changes nothing beyond rounding), and
    viscous_term_normalized is its peak over (|adot/a| + |xi|/a^2)/h.

    density_factor multiplies the density everywhere; values != 1 provide a
    deliberately broken field as a negative control for convergence studies.
    """
    h_t = grid.h_t
    _check_span(traj, t - h_t, t + h_t)
    st_m, st_0, st_p = (traj.state_at(t - h_t), traj.state_at(t), traj.state_at(t + h_t))
    reach, a_min = grid.r_hi + 2.0 * grid.h, min(st_m.a, st_0.a, st_p.a)
    check_reach_squares(reach, a_min, "grid")
    check_support_reach(support_s_bound(params), reach, a_min, GridTouchesSupportBoundary,
                        "stencil")
    X = grid.points()

    def field_at(state):
        def field(X):
            rho, u1, u2, p = eval_flow_arrays(params, state, *X)
            if density_factor != 1.0:
                rho = rho * density_factor
                p = params.K * rho ** params.gamma
            return rho, (u1, u2), p
        return field

    eqs, viscous = _balance(field_at(st_0), X, grid.h, 4,
                            _central_in_time(field_at(st_m), field_at(st_p), X, h_t), mu=mu)
    if viscous is not None:
        grad_scale = abs(st_0.adot / st_0.a) + abs(params.xi) / st_0.a ** 2
        viscous /= max(grad_scale, 1e-300) / grid.h
    return ResidualReport(equations=eqs, h=grid.h, h_t=h_t, n_points=X[0].size,
                          viscous_term_normalized=viscous)


def zz_direct_residual(t: float, K: float, grid: GridSpec) -> ResidualReport:
    """Residuals of the gamma = 2 fixture on its own code path.

    The 1/t and 1/t^2 time factors are differentiated analytically
    (rho_t = -2 rho/t, u_t = -u/t), so only 2nd-order spatial truncation
    error remains.
    """
    _check_annulus(grid)
    X = grid.points()

    def field(X):
        rho, u1, u2, p = zhang_zheng_arrays(t, *X, K)
        return rho, (u1, u2), p

    eqs, _ = _balance(field, X, grid.h, 2, lambda rho, U: (-2.0 * rho / t, -U / t))
    return ResidualReport(equations=eqs, h=grid.h, h_t=0.0, n_points=X[0].size)


@dataclass(frozen=True)
class GenericRotationField:
    """Radial density shape with an arbitrary tangential speed profile.

    rho(t, x, y) = f(r / a(t)) / a(t)^2
    u(t, x, y)   = (adot/a) (x, y) + (G(t, r)/r) (-y, x)

    f, G, a, adot are callables (f and G vectorized over arrays).  The
    dilation factor adot(t) r / a(t) is the unique radial speed balancing
    the mass equation; G is unconstrained because the tangential term is
    divergence-free against any radial density.
    """

    f: object
    G: object
    a: object
    adot: object


def mass_residual_generic_g(fieldspec: GenericRotationField, t: float,
                            grid: GridSpec) -> float:
    """Normalized max mass residual of the generic-swirl structure.

    4th-order space stencils; rho_t is a 2nd-order central difference of the
    density at t +- h_t.
    """
    _check_annulus(grid)
    X = grid.points()

    def field_at(tau):
        a = fieldspec.a(tau)
        dil = fieldspec.adot(tau) / a

        def field(X):
            x, y = X
            rr = np.hypot(x, y)
            swirl = fieldspec.G(tau, rr) / rr
            return fieldspec.f(rr / a) / (a * a), (dil * x - swirl * y, swirl * x + dil * y), None
        return field

    eqs, _ = _balance(field_at(t), X, grid.h, 4,
                      _central_in_time(field_at(t - grid.h_t), field_at(t + grid.h_t), X, grid.h_t))
    return eqs["mass"]["max"]


# --------------------------------------------------------------------------
# Three-axis 3D family
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeAxisParams:
    """Anisotropic three-axis family with uniform per-axis drift.

    rho = f(s) / (a1 a2 a3),  u_i = (adot_i/a_i)(x_i - d_i) + ddot-free drift
    rate d1_i, with d_i(t) = d0_i + t d1_i,
    s = sum_k ((x_k - d_k)/a_k)^2 and
    f(s) = max(-xi3 (gamma-1)/(2 K gamma) s + alpha3, 0)^(1/(gamma-1)), the
    2D profile law (fields.profile_law) with (xi3, alpha3) for (lam, alpha).

    The scales satisfy the coupled system addot_i = xi3 / (a_i (a1 a2 a3)^(gamma-1)).
    xi3 plays the role the scale-equation constant lam plays in 2D; it is a
    separate knob and is named separately on purpose.
    """

    gamma: float
    K: float
    xi3: float
    alpha3: float
    a_init: tuple = (1.0, 1.0, 1.0)
    adot_init: tuple = (0.0, 0.0, 0.0)
    drift0: tuple = (0.0, 0.0, 0.0)
    drift_rate: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        violations = [f"NonFinite:{name}" for name in ("gamma", "K", "xi3", "alpha3")
                      if not math.isfinite(getattr(self, name))]
        for name in ("a_init", "adot_init", "drift0", "drift_rate"):
            values = getattr(self, name)
            if len(values) != 3:
                violations.append(f"WrongLength:{name}")
            if not all(map(math.isfinite, values)):
                violations.append(f"NonFinite:{name}")
        if not self.gamma > 1.0:
            violations.append("NonPositiveGammaMargin")
        if not self.K > 0.0:
            violations.append("NonPositiveK")
        if not self.alpha3 >= 0.0:
            violations.append("NegativeAlpha")
        if not all(a > 0.0 for a in self.a_init):
            violations.append("NonPositiveA0")
        if violations:
            raise InvalidParams(violations)

    def drift_at(self, t: float):
        return tuple(d0 + t * d1 for d0, d1 in zip(self.drift0, self.drift_rate))

    def support_s_bound(self) -> float:
        return profile_support(self.gamma, self.K, self.xi3, self.alpha3)


class Scales3Trajectory:
    """Coupled three-axis scale trajectories with a conserved-quantity record.

    The first integral monitored here,
        H = sum_i adot_i^2 / 2 + xi3 / ((gamma-1) (a1 a2 a3)^(gamma-1)),
    follows from multiplying each scale equation by adot_i and summing; it is
    validated numerically by the test suite before being trusted.  The
    solver counters and diagnostics are those of Trajectory.
    """

    def __init__(self, c3: ThreeAxisParams, sol, terminal):
        self.c3 = c3
        self._sol = sol
        self.ts = sol.ts
        self.a = sol.ys[:, :3]
        self.adot = sol.ys[:, 3:]
        self.hs = sol.hs
        self.terminal = terminal
        g = c3.gamma
        prod = np.prod(np.sort(self.a, axis=1), axis=1)
        kin_sq = np.sort(self.adot ** 2, axis=1)
        self.H = 0.5 * np.sum(kin_sq, axis=1) + c3.xi3 / ((g - 1.0) * prod ** (g - 1.0))
        self.drift = np.abs(self.H - self.H[0]) / max(1.0, abs(self.H[0]))

    t_span = Trajectory.t_span
    covers = Trajectory.covers
    nfev, naccepted, nrejected = Trajectory.nfev, Trajectory.naccepted, Trajectory.nrejected
    diagnostics = Trajectory.diagnostics

    def state_at(self, t: float):
        """(a[3], adot[3]) arrays from dense output."""
        y = self._sol.eval_dense(t)
        return y[:3], y[3:]


def _ordered_prod3(a):
    """Product of three scales in sorted order: bitwise permutation-invariant."""
    s = sorted(a)
    return s[0] * s[1] * s[2]


def _order3(q0, q1, q2):
    """Elementwise (min, median, max) by a min/max network: np.sort's rows unless -0.0 ties 0.0."""
    lo01, hi01 = np.minimum(q0, q1), np.maximum(q0, q1)
    return np.minimum(lo01, q2), np.maximum(lo01, np.minimum(hi01, q2)), np.maximum(hi01, q2)


_AXES = (0, 1, 2)


def integrate_scales_3d(c3: ThreeAxisParams, t_end: float) -> Scales3Trajectory:
    """Integrate the coupled three-axis scale system from t = 0 to t_end, with
    IntegrationConfig()'s tolerances, max_step and collapse_epsilon.

    Every scale stays positive.  With xi3 <= 0 no force slows a fall, so the
    smallest a_i/|adot_i| over the falling axes, b, bounds the time left: the
    run ends "collapsed" at the first node where b is at most
    rel_tol max(1, t) or the smallest scale at most collapse_epsilon,
    and reports the event from each falling axis's a_i/|adot_i| and
    1 - a_i addot_i/adot_i^2 (emden._collapse_event).  With xi3 > 0
    nothing collapses, and a step that fails at the step floor is a step
    failure.
    """
    cfg = IntegrationConfig()
    g, xi3, eps, tol = c3.gamma, c3.xi3, cfg.collapse_epsilon, cfg.rel_tol
    _check_start(c3.a_init, t_end, eps, cfg.max_step)

    def rhs(t, y):
        c = _fpow(_ordered_prod3(y[:3]), g - 1.0)
        return y[3], y[4], y[5], xi3 / (y[0] * c), xi3 / (y[1] * c), xi3 / (y[2] * c)

    def node_exit(t, y):
        b = min([y[k] / -y[k + 3] for k in _AXES if y[k + 3] < 0.0], default=math.inf)
        if b <= tol * max(1.0, t) or (b < math.inf and min(y[:3]) <= eps):
            return "collapsed"
        return None

    sol = _rk.solve(rhs, tuple(c3.a_init) + tuple(c3.adot_init), t_end,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
                    positive=_AXES, node_exit=node_exit if xi3 <= 0.0 else None)
    t, y = float(sol.ts[-1]), sol.ys[-1].tolist()
    end = _terminal(sol) if sol.status != "collapsed" else _collapse_event(t, tol, [
        (a / -v, 1.0 - a * f / v / v) for a, v, f in zip(y, y[3:], rhs(t, y)[3:]) if v < 0.0])
    return Scales3Trajectory(c3, sol, end)


def eval_flow_3d_arrays(c3: ThreeAxisParams, a, adot, t: float, x, y, z):
    """Vectorized 3D family evaluation; returns (rho, u1, u2, u3, p)."""
    a = np.asarray(a, dtype=float)
    adot = np.asarray(adot, dtype=float)
    d = c3.drift_at(t)
    xr, yr, zr = x - d[0], y - d[1], z - d[2]
    lo, mid, hi = _order3((xr / a[0]) ** 2, (yr / a[1]) ** 2, (zr / a[2]) ** 2)
    rho = profile_law(lo + mid + hi, c3.gamma, c3.K, c3.xi3, c3.alpha3, _ordered_prod3(a))
    u1 = (adot[0] / a[0]) * xr + c3.drift_rate[0]
    u2 = (adot[1] / a[1]) * yr + c3.drift_rate[1]
    u3 = (adot[2] / a[2]) * zr + c3.drift_rate[2]
    p = c3.K * rho ** c3.gamma
    return rho, u1, u2, u3, p


@dataclass(frozen=True)
class Grid3Spec:
    """Cube of sample points for 3D residuals, centered on the drift point."""

    half_width: float = 0.5
    n: int = 7
    h: float = 1e-3
    h_t: float = 1e-3

    def __post_init__(self):
        violations = [f"NonPositive:{name}" for name in ("half_width", "n", "h", "h_t")
                      if not getattr(self, name) > 0]
        if violations:
            raise InvalidParams(violations)

    def points(self, center):
        """Flattened (x, y, z) sample arrays, read-only and shared like GridSpec's."""
        return _points(False, tuple((c - self.half_width, c + self.half_width, self.n)
                                    for c in center))


def euler_residual_3d(c3: ThreeAxisParams, scales: Scales3Trajectory, t: float,
                      grid: Grid3Spec, tolerance: float | None = None) -> ResidualReport:
    """Mass + three momentum residuals of the 3D family at time t.

    The report never presumes the family exact: with a tolerance given, the
    verdict states PASS (consistent at that tolerance) or FAIL with the
    offending equation and sample location.  A given tolerance must be
    positive.
    """
    if tolerance is not None and not tolerance > 0.0:
        raise InvalidParams(["NonPositive:tolerance"])
    h, h_t = grid.h, grid.h_t
    _check_span(scales, t - h_t, t + h_t)
    states = {dt: scales.state_at(t + dt) for dt in (-h_t, 0.0, h_t)}
    reach = math.sqrt(3.0) * (grid.half_width + 2.0 * h) + h_t * max(map(abs, c3.drift_rate))
    check_support_reach(c3.support_s_bound(), reach, min(min(st[0]) for st in states.values()),
                        GridTouchesSupportBoundary, "stencil")
    X = grid.points(c3.drift_at(t))

    def field_at(dt):
        a, ad = states[dt]

        def field(X):
            rho, u1, u2, u3, p = eval_flow_3d_arrays(c3, a, ad, t + dt, *X)
            return rho, (u1, u2, u3), p
        return field

    eq_dict, _ = _balance(field_at(0.0), X, h, 4,
                          _central_in_time(field_at(-h_t), field_at(h_t), X, h_t))

    verdict = worst = None
    if tolerance is not None:
        worst = max(eq_dict, key=lambda k: eq_dict[k]["max"])
        verdict = "PASS" if eq_dict[worst]["max"] <= tolerance else "FAIL"
    return ResidualReport(equations=eq_dict, h=h, h_t=h_t, n_points=X[0].size,
                          verdict=verdict, tolerance=tolerance, worst_equation=worst)


def residual_convergence(run, h_ladder):
    """Observed order of a residual operation across an h-ladder.

    ``run`` maps h to a ResidualReport.
    Returns a dict with the ladder, per-h residuals, the least-squares slope
    of log(residual) vs log(h), and "not_applicable" = True when residuals
    sit at the rounding floor (machine-zero fields have no order).
    """
    ladder = [float(h) for h in h_ladder]
    if len(ladder) < 3:
        raise LadderTooShort(f"need >= 3 rungs, got {len(ladder)}")
    if any(h2 >= h1 for h1, h2 in zip(ladder, ladder[1:])):
        raise ValueError("h-ladder must be strictly decreasing")
    residuals = [run(h).max_normalized for h in ladder]
    floor = 1e-13
    if all(r <= floor for r in residuals):
        return {"h": ladder, "residuals": residuals, "order": None, "not_applicable": True}
    safe = [max(r, 1e-300) for r in residuals]
    slope = float(np.polyfit(np.log(ladder), np.log(safe), 1)[0])
    return {"h": ladder, "residuals": residuals, "order": slope, "not_applicable": False}
