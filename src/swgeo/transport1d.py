"""One-dimensional optimal transport.

Optimal maps via quantile composition, exact W_p for piecewise-affine
quantiles (closed-form per-segment integration of |a + b s|^p, one pair
per row in ``wp_rows``), adaptive Gauss-Legendre for analytic quantiles,
W_inf as the sup of quantile differences, displacement interpolation,
and the constant-speed deviation table of a curve under any distance.

W_p^p(mu, nu) = integral over [0,1] of |Q_mu - Q_nu|^p, where Q denotes
the generalized inverse CDF; this representation needs no transport map
and therefore accepts atoms in both arguments.  The map-based operations
require an atomless source.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .measure1d import (
    MASS_TOL,
    Measure1D,
    MeasureError,
    PiecewiseLinearMap,
    QuantileFn,
    pushforward_pwl,
)

__all__ = [
    "optimal_map",
    "interpolate",
    "wasserstein_p",
    "wasserstein_inf",
    "wp_rows",
    "pairwise_deviation",
    "geodesic_deviation",
]

_REL_QUAD_TOL = 1e-10


def optimal_map(mu: Measure1D, nu: Measure1D) -> PiecewiseLinearMap:
    """Monotone optimal transport map from mu to nu: Q_nu composed with F_mu.

    Requires mu atomless (the monotone map does not exist otherwise) and
    both measures free of arcsine components (the composition is then
    piecewise affine and is read exactly off the merge of the two
    quantiles that W_p uses).
    """
    if mu.atoms:
        raise MeasureError("optimal_map requires an atomless source measure")
    if mu.arcsine_parts or nu.arcsine_parts:
        raise MeasureError("optimal_map supports piecewise measures only; "
                           "use wasserstein_p / wasserstein_inf for arcsine mixtures")

    qa, qb = mu.quantile_fn(), nu.quantile_fn()
    _, mass, a0, a1, b0, b1 = _merge_rows(qa.s[None], qa.x[None], qb.s[None], qb.x[None])
    # On each interval that carries mass, T runs affinely from (Q_mu(u0+),
    # Q_nu(u0+)) to (Q_mu(u1-), Q_nu(u1-)).  One-sided values taken from
    # neighbouring segments may differ by an ulp, hence the running max.
    xs = np.maximum.accumulate(np.stack([a0, a1], axis=-1)[mass].ravel())
    ys = np.maximum.accumulate(np.stack([b0, b1], axis=-1)[mass].ravel())
    keep = np.concatenate([[True], (np.diff(xs) != 0.0) | (np.diff(ys) != 0.0)])
    return PiecewiseLinearMap(xs[keep], ys[keep], left_slope=0.0, right_slope=0.0)


def interpolate(mu: Measure1D, nu: Measure1D, lam: float) -> Measure1D:
    """Displacement interpolation ((1-lam) id + lam T)_# mu along the
    optimal map T; exact pushforward at every lam in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise MeasureError(f"interpolation parameter {lam} outside [0, 1]")
    T = optimal_map(mu, nu)
    return pushforward_pwl(mu, T.blend_with_identity(lam))


# ------------------------------------------------------------------ distances


def _segment_lp(d0: np.ndarray, d1: np.ndarray, h: np.ndarray, p: float) -> np.ndarray:
    """Integrals of |affine|^p over segments with endpoint values (d0, d1)
    and widths h, summed over the last axis.  Exact antiderivative
    sign(z)|z|^{p+1}/(p+1), with a midpoint fallback where endpoint values
    nearly coincide."""
    diff = d1 - d0
    scale = np.maximum(np.abs(d0), np.abs(d1))
    near = np.abs(diff) <= 1e-9 * np.maximum(scale, 1e-300)
    G = lambda z: np.sign(z) * np.abs(z) ** (p + 1.0)
    exact = h * (G(d1) - G(d0)) / (np.where(near, 1.0, diff) * (p + 1.0))
    midpoint = np.abs(0.5 * (d0 + d1)) ** p * h
    return np.sum(np.where(near, midpoint, exact), axis=-1)


def _merged_grid(qa, qb) -> np.ndarray:
    u = np.union1d(np.union1d(qa.s_breaks, qb.s_breaks), [0.0, 1.0])
    return u[(u >= 0.0) & (u <= 1.0)]


def _limits_rows(s: np.ndarray, x: np.ndarray, j: np.ndarray,
                 u0: np.ndarray, u1: np.ndarray):
    """One-sided values (Q(u0+), Q(u1-)) of row-wise quantile polylines
    (s, x) on intervals that lie inside segment j of their row."""
    n, m = s.shape
    j = np.clip(j, 0, m - 2) + m * np.arange(n)[:, None]
    s, x = s.ravel(), x.ravel()
    s0, s1, x0, x1 = s[j], s[j + 1], x[j], x[j + 1]
    slope = (x1 - x0) / np.where(s1 > s0, s1 - s0, 1.0)
    return x0 + (u0 - s0) * slope, x0 + (u1 - s0) * slope


def _merge_rows(sa: np.ndarray, xa: np.ndarray, sb: np.ndarray, xb: np.ndarray):
    """Merge the levels of two row-wise quantile polylines.

    Each quantile is a polyline of parallel (n, m) arrays in the
    :class:`QuantileFn` encoding: s nondecreasing from 0 to 1, a repeated
    s is a jump, a repeated x an atom.  Between consecutive merged levels
    u0 < u1 both quantiles are affine.  Returns, per merged interval, its
    width h, whether it carries mass, and the one-sided values Q_a(u0+),
    Q_a(u1-), Q_b(u0+), Q_b(u1-).
    """
    ma = sa.shape[1]
    levels = np.concatenate([sa, sb], axis=1)
    order = np.argsort(levels, axis=1, kind="stable")
    u = np.take_along_axis(levels, order, axis=1)
    u0, u1 = u[:, :-1], u[:, 1:]
    # On an interval of positive width every level <= u0 sits left of it
    # in the merge, so counting a's levels there gives a's segment exactly.
    na = np.cumsum(order < ma, axis=1)[:, :-1]
    a0, a1 = _limits_rows(sa, xa, na - 1, u0, u1)
    b0, b1 = _limits_rows(sb, xb, np.arange(1, u.shape[1]) - na - 1, u0, u1)
    h = u1 - u0
    # Intervals no wider than MASS_TOL carry no mass: equal cumulative
    # masses summed in different orders leave such slivers, where one
    # quantile has jumped and the other not yet.
    return h, h > MASS_TOL, a0, a1, b0, b1


def wp_rows(sa: np.ndarray, xa: np.ndarray, sb: np.ndarray, xb: np.ndarray,
            p: float) -> np.ndarray:
    """Exact W_p (W_inf for p = inf) between piecewise-affine quantiles,
    one pair per row (see :func:`_merge_rows` for the encoding).

    Q_a - Q_b is affine on each merged interval, so W_inf is the largest
    one-sided value and W_p^p a sum of closed-form segment integrals over
    the intervals that carry mass.
    """
    h, mass, a0, a1, b0, b1 = _merge_rows(sa, xa, sb, xb)
    d0 = np.where(mass, a0 - b0, 0.0)
    d1 = np.where(mass, a1 - b1, 0.0)
    M = np.maximum(np.abs(d0), np.abs(d1)).max(axis=1)
    if math.isinf(p):
        return M
    scale = np.where(M > 0.0, M, 1.0)[:, None]
    return M * _segment_lp(d0 / scale, d1 / scale, h, p) ** (1.0 / p)


def _wp_exact(qa: QuantileFn, qb: QuantileFn, p: float) -> float:
    return float(wp_rows(qa.s[None], qa.x[None], qb.s[None], qb.x[None], p)[0])


def _gauss_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Adaptive Gauss-Legendre on one panel: node count doubles until the
    estimate is stable to _REL_QUAD_TOL relative."""
    prev = None
    n = 16
    while True:
        t, w = np.polynomial.legendre.leggauss(n)
        x = 0.5 * (b - a) * t + 0.5 * (a + b)
        val = 0.5 * (b - a) * float(np.dot(w, f(x)))
        if prev is not None and abs(val - prev) <= _REL_QUAD_TOL * max(abs(val), 1e-30):
            return val
        if n >= 4096:
            return val
        prev = val
        n *= 2


def _refine_sign_changes(f: Callable[[np.ndarray], np.ndarray],
                         a: float, b: float) -> list[float]:
    """Locate zero crossings of f inside (a, b) by dense sampling plus
    bisection; crossings become additional panel boundaries so each panel
    integrand is smooth."""
    xs = np.linspace(a, b, 65)
    vals = np.asarray(f(xs))
    cuts = []
    for i in range(len(xs) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0 or va * vb >= 0.0:
            continue
        lo, hi = xs[i], xs[i + 1]
        flo = va
        for _ in range(60):
            midp = 0.5 * (lo + hi)
            fm = float(f(np.array([midp]))[0])
            if fm == 0.0:
                lo = hi = midp
                break
            if flo * fm < 0:
                hi = midp
            else:
                lo, flo = midp, fm
        cuts.append(0.5 * (lo + hi))
    return cuts


def _wp_numeric(qa, qb, p: float) -> float:
    u = _merged_grid(qa, qb)
    diff = lambda x: np.asarray(qa(x)) - np.asarray(qb(x))
    total = 0.0
    for a, b in zip(u[:-1], u[1:]):
        if b <= a:
            continue
        cuts = _refine_sign_changes(diff, a, b)
        edges = sorted({a, b, *cuts})
        for e0, e1 in zip(edges[:-1], edges[1:]):
            if e1 > e0:
                total += _gauss_panel(lambda x: np.abs(diff(x)) ** p, e0, e1)
    return total ** (1.0 / p)


def wasserstein_p(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """W_p distance for finite p >= 1 via the quantile representation.

    Exact per-segment closed form when both quantiles are piecewise
    affine; composite adaptive Gauss-Legendre split at all quantile
    breakpoints (and at interior zero crossings of the difference)
    otherwise.  Non-integer p is supported.
    """
    p = float(p)
    if math.isinf(p):
        raise MeasureError("use wasserstein_inf for p = infinity")
    if p < 1.0:
        raise MeasureError("wasserstein_p requires p >= 1")
    qa, qb = mu.quantile_fn(), nu.quantile_fn()
    if isinstance(qa, QuantileFn) and isinstance(qb, QuantileFn):
        return _wp_exact(qa, qb, p)
    return _wp_numeric(qa, qb, p)


def wasserstein_inf(mu: Measure1D, nu: Measure1D) -> float:
    """W_inf as the sup of |Q_mu - Q_nu| over [0, 1].

    Exact over the merged breakpoint set for piecewise-affine quantiles
    (the difference is affine in between); dense grid of 10^4 points plus
    golden-section refinement around the grid maximum otherwise.
    """
    qa, qb = mu.quantile_fn(), nu.quantile_fn()
    if isinstance(qa, QuantileFn) and isinstance(qb, QuantileFn):
        return _wp_exact(qa, qb, math.inf)

    breaks = _merged_grid(qa, qb)
    grid = np.union1d(np.linspace(0.0, 1.0, 10_001), breaks)
    vals = np.abs(np.asarray(qa(grid)) - np.asarray(qb(grid)))
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    f = lambda x: float(np.abs(np.asarray(qa(np.array([x]))) - np.asarray(qb(np.array([x]))))[0])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-10:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
    return max(float(vals[i]), f1, f2)


def pairwise_deviation(curve: Callable[[float], object],
                       dist: Callable[[object, object], float],
                       grid: Sequence[float]) -> list[tuple]:
    """Constant-speed table of a curve: one row (t, s, d, target, |d - target|)
    per grid pair t < s, with d = dist(curve(t), curve(s)) and target =
    (s - t) dist(curve(0), curve(1)).  A constant-speed geodesic has every
    deviation 0 up to roundoff."""
    grid = [float(t) for t in grid]
    if min(grid) < 0.0 or max(grid) > 1.0:
        raise MeasureError("grid values must lie in [0, 1]")
    if 0.0 not in grid or 1.0 not in grid:
        raise MeasureError("grid must contain 0 and 1")
    measures = {t: curve(t) for t in sorted(set(grid))}
    base = dist(measures[0.0], measures[1.0])
    rows = []
    ts = sorted(measures)
    for i, t in enumerate(ts):
        for s in ts[i + 1:]:
            d, target = dist(measures[t], measures[s]), (s - t) * base
            rows.append((t, s, d, target, abs(d - target)))
    return rows


def geodesic_deviation(curve: Callable[[float], Measure1D], p,
                       grid: Sequence[float]) -> float:
    """Largest :func:`pairwise_deviation` under W_p (W_inf for p = inf)."""
    dist = wasserstein_inf if math.isinf(p) else lambda a, b: wasserstein_p(a, b, p)
    return max(row[4] for row in pairwise_deviation(curve, dist, grid))
