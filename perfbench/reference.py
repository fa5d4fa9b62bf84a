"""Reference computations made apart from swirlgas, with numpy and the stdlib.

Nothing here imports the package.  The benchmark checks the program's
outputs against these values or against properties the method must have.
Where a formula is the same mathematics as the program's (the gamma = 2
quadratic, the closed-form fields), it is written out again here so that a
fault in the program's code cannot hide in both sides of a comparison.

A case is a plain tuple (gamma, xi, lam, a0, a1) with K = 1 and alpha = 1.
"""

from __future__ import annotations

import math

import numpy as np

K = 1.0
ALPHA = 1.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# Panels per array in _fall_time.  The references run in the worker process, so
# their arrays must stay small next to the program's, or they would set peak_rss_mb.
PANEL_CHUNK = 256


def potential(case, a):
    """F_pot(a) = xi^2/(2 a^2) + lam/((2 gamma - 2) a^(2 gamma - 2))."""
    g, xi, lam = case[0], case[1], case[2]
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = xi * xi / (2.0 * a * a) + lam / ((2.0 * g - 2.0) * a ** (2.0 * g - 2.0))
    return float(f) if f.ndim == 0 else f


def energy(case, a, adot):
    return 0.5 * adot * adot + potential(case, a)


def potential_scale(case, a):
    """Sum of the magnitudes of the potential's two terms: the rounding scale of F_pot."""
    g, xi, lam = case[0], case[1], case[2]
    return xi * xi / (2.0 * a * a) + abs(lam) / ((2.0 * g - 2.0) * a ** (2.0 * g - 2.0))


def _bisect(f, lo, hi):
    """Root of f between lo and hi (f(lo) and f(hi) of opposite sign).

    Bisects in log space while the bracket spans more than a factor 2, so
    roots near the bottom of the float range are found as well.
    """
    f_lo = f(lo)
    for _ in range(400):
        mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def barrier(case):
    """(a_M, F*) of the potential maximum for gamma > 2, lam < 0.

    Close to gamma = 2 the barrier leaves the float range: (0, inf) or (inf, 0).
    """
    g, xi, lam = case[0], case[1], case[2]
    log_a = math.log(-lam / (xi * xi)) / (2.0 * g - 4.0)
    if abs(log_a) > 700.0:
        return (0.0, math.inf) if log_a < 0.0 else (math.inf, 0.0)
    a_m = math.exp(log_a)
    return a_m, potential(case, a_m)


def kind(case):
    """Long-time behaviour from the shape of the potential.

    gamma < 2: the potential has one well, so E0 < 0 traps the orbit.
    gamma = 2: a^2 is a quadratic in t; blowup iff it has a positive root.
    gamma > 2, lam < 0: the potential has one barrier at a_M and falls to
    -inf at a = 0; the orbit blows up iff it ends on the inner side of it.
    """
    g, xi, lam, a0, a1 = case
    e0 = energy(case, a0, a1)
    if g < 2.0:
        return "time-periodic" if e0 < 0.0 else "global"
    if g == 2.0:
        return "finite-time-blowup" if gamma2_root(case) is not None else "global"
    if lam >= 0.0:
        return "global"
    a_m, f_star = barrier(case)
    if a0 >= a_m:
        falls = a1 < 0.0 and e0 > f_star
    else:
        falls = a1 <= 0.0 or e0 < f_star
    return "finite-time-blowup" if falls else "global"


def gamma2_coeffs(case):
    """(c0, c1, c2) of a^2(t) = c0 + c1 t + c2 t^2 for gamma = 2.

    (a^2)'' = 2 adot^2 + 2 a addot = 4 E is constant, so c2 = 2 E(0).
    """
    g, xi, lam, a0, a1 = case
    return a0 * a0, 2.0 * a0 * a1, 2.0 * energy(case, a0, a1)


def gamma2_root(case):
    """Smallest t > 0 with a^2(t) = 0, or None."""
    c0, c1, c2 = gamma2_coeffs(case)
    if c2 == 0.0:
        return -c0 / c1 if c1 < 0.0 else None
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    roots = [(-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)]
    # Recompute the root that suffers cancellation from the product c0/c2.
    big = max(roots, key=abs)
    roots = [big, c0 / (c2 * big)] if big != 0.0 else roots
    positive = [r for r in roots if r > 0.0]
    return min(positive) if positive else None


def gamma2_scale(case, t):
    """Closed-form (a, adot) at times t for gamma = 2."""
    c0, c1, c2 = gamma2_coeffs(case)
    a = np.sqrt(c0 + c1 * t + c2 * t * t)
    return a, (0.5 * c1 + c2 * t) / a


def inner_turning_point(case):
    """Smallest scale the orbit reaches before it turns outward.

    None when the orbit never turns inward (a1 >= 0 and not trapped, or it
    collapses); 0.0 when the turning point lies below the float range.
    """
    g, xi, lam, a0, a1 = case
    e0 = energy(case, a0, a1)
    trapped = g < 2.0 and e0 < 0.0
    if a1 >= 0.0 and not trapped:
        return None
    if g == 2.0 and xi * xi + lam <= 0.0:
        return None    # F_pot = (xi^2 + lam) / (2 a^2) has no inner wall: the orbit falls to a = 0

    def f(a):
        return potential(case, a) - e0

    if g > 2.0 and lam < 0.0:
        a_m, f_star = barrier(case)
        if a0 >= a_m and e0 <= f_star:
            return _bisect(f, a_m, a0)
        return None
    # Here F_pot -> +inf as a -> 0 and crosses E0 once below a0.
    lo = a0
    while f(lo) <= 0.0:
        if lo < 1e-300:
            return 0.0
        hi, lo = lo, 0.5 * lo
    if lo == a0:
        return a0
    return _bisect(f, lo, hi)


def outer_turning_point(case):
    """Largest scale of a trapped (gamma < 2, E0 < 0) orbit."""
    e0 = energy(case, case[3], case[4])

    def f(a):
        return potential(case, a) - e0

    hi = case[3]
    while f(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    if hi == case[3]:
        return hi
    return _bisect(f, lo, hi)


def period(case):
    """Period T = 2 int da / sqrt(2 (E0 - F_pot)) of a trapped orbit, and its error.

    With a = c - d cos(phi) the integrand becomes smooth and even in phi, so
    the midpoint rule in phi converges geometrically; the panel count doubles
    until two estimates agree to 1e-11.  (The program uses a sin^2
    substitution with Gauss-Legendre panels instead.)
    """
    a_lo, a_hi = inner_turning_point(case), outer_turning_point(case)
    e0 = energy(case, case[3], case[4])
    c, d = 0.5 * (a_hi + a_lo), 0.5 * (a_hi - a_lo)
    prev, n = None, 32
    while n <= 1 << 14:
        phi = (np.arange(n) + 0.5) * (math.pi / n)
        a = c - d * np.cos(phi)
        gap = np.maximum(e0 - potential(case, a), 1e-300)
        cur = 2.0 * (math.pi / n) * float(np.sum(d * np.sin(phi) / np.sqrt(2.0 * gap)))
        if prev is not None and abs(cur - prev) <= 1e-11 * cur:
            return cur, abs(cur - prev)
        prev, n = cur, 2 * n
    return prev, math.inf


def _gauss_legendre(f, edges):
    """Composite Gauss-Legendre sum of f over the panels between consecutive edges."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    w = (half[:, None] * _GL_WEIGHTS).ravel()
    return float(np.sum(w * f(x)))


def _fall_time(case, top_gap, a_top, a_from=None):
    """int_{a_from}^{a_top} da / sqrt(2 (E0 - F_pot)) with a = a_top sin^2(theta).

    a_top may be a turning point (inverse-square-root end), the integrand
    vanishes like a^(gamma-1) at a = 0; both ends are smooth in theta.  The
    gap E0 - F_pot(a) is summed as top_gap = E0 - F_pot(a_top) (half the
    squared speed at a_top, 0 at a turning point) plus F_pot(a_top) -
    F_pot(a), the latter from log(a / a_top) = log(sin^2 theta) with expm1.
    So the gap keeps its relative accuracy next to a turning point, and a
    turning point found to rounding accuracy still gives a smooth integrand.
    Composite Gauss-Legendre panels double until two estimates agree to 1e-11;
    they are summed PANEL_CHUNK at a time, so that the arrays stay small.
    """
    g, xi, lam = case[0], case[1], case[2]
    c_xi = xi * xi / (2.0 * a_top * a_top)
    c_lam = lam / ((2.0 * g - 2.0) * a_top ** (2.0 * g - 2.0))

    def integrand(th):
        s, co = np.sin(th), np.cos(th)
        a = a_top * s * s
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_u = np.where(co < 0.5, np.log1p(-co * co), 2.0 * np.log(s))
            drop = -c_xi * np.expm1(-2.0 * log_u) - c_lam * np.expm1((2.0 - 2.0 * g) * log_u)
            gap = np.maximum(top_gap + drop, 1e-300)
            return np.where(a > 0.0, 2.0 * a_top * s * co / np.sqrt(2.0 * gap), 0.0)

    th_lo = 0.0 if a_from is None else math.asin(math.sqrt(min(1.0, a_from / a_top)))
    prev, panels = None, 8
    while panels <= 1 << 14:
        edges = np.linspace(th_lo, 0.5 * math.pi, panels + 1)
        cur = sum(_gauss_legendre(integrand, edges[k:k + PANEL_CHUNK + 1])
                  for k in range(0, panels, PANEL_CHUNK))
        if prev is not None and abs(cur - prev) <= 1e-11 * max(cur, 1e-300):
            return cur, abs(cur - prev)
        prev, panels = cur, 2 * panels
    return prev, math.inf


def blowup_time(case):
    """Time for a to reach 0 when gamma > 2 and lam < 0, and its error.

    Inward starts fall from a0; outward starts first climb to the turning
    point below the barrier and fall from there.
    """
    g, xi, lam, a0, a1 = case
    e0 = energy(case, a0, a1)
    if a1 <= 0.0:
        return _fall_time(case, 0.5 * a1 * a1, a0)
    a_m, _ = barrier(case)
    a_turn = _bisect(lambda a: potential(case, a) - e0, a0, a_m)
    t_up, err_up = _fall_time(case, 0.0, a_turn, a_from=a0)
    t_down, err_down = _fall_time(case, 0.0, a_turn)
    return t_up + t_down, err_up + err_down


def plunge_time(case, a):
    """a / |adot| at scale a on the falling branch: the time scale left there."""
    e0 = energy(case, case[3], case[4])
    with np.errstate(over="ignore", invalid="ignore"):
        return a / math.sqrt(2.0 * (e0 - potential(case, a)))


def flow(case, a, adot, x, y):
    """Closed-form (rho, u1, u2, p) of the family member at scale (a, adot)."""
    g, xi, lam = case[0], case[1], case[2]
    s = (x * x + y * y) / (a * a)
    base = np.maximum(ALPHA - lam * (g - 1.0) / (2.0 * K * g) * s, 0.0)
    rho = base ** (1.0 / (g - 1.0)) / (a * a)
    u1 = (adot * x - xi * y / a) / a
    u2 = (adot * y + xi * x / a) / a
    return rho, u1, u2, K * rho ** g


def support_radius(case, a):
    """Radius of the density support (inf when lam <= 0)."""
    g, lam = case[0], case[2]
    if lam <= 0.0:
        return math.inf
    return a * math.sqrt(2.0 * K * g * ALPHA / (lam * (g - 1.0)))


def total_mass(case):
    """pi int_0^s_b f(s) ds, the conserved mass of a compactly supported member."""
    g, lam = case[0], case[2]
    c = lam * (g - 1.0) / (2.0 * K * g)
    return math.pi * (g - 1.0) / g * ALPHA ** (g / (g - 1.0)) / c
