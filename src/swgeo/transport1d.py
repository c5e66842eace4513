"""One-dimensional optimal transport.

Optimal maps via quantile composition, exact W_p for piecewise-affine
quantiles (closed-form per-segment integration of |a + b s|^p, one pair
per row in ``wp_rows``), W_inf as the sup of quantile differences,
displacement interpolation, and the constant-speed deviation table of a
curve under any distance.

With arcsine components, [0, 1] is cut into panels on which Q_mu - Q_nu
is smooth and keeps one sign (``_level_cuts``); W_p is one batched
Gauss-Legendre sum over them.  A distance that overflows float64 raises
MeasureError.

W_p^p(mu, nu) = integral over [0,1] of |Q_mu - Q_nu|^p, where Q denotes
the generalized inverse CDF; this representation needs no transport map
and therefore accepts atoms in both arguments.  The map-based operations
require an atomless source.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .measure1d import (
    MASS_TOL,
    AnalyticQuantile,
    Measure1D,
    MeasureError,
    PiecewiseLinearMap,
    QuantileFn,
    newton_roots,
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
_MAX_NODES = 4096
# samples per gap between breakpoints, and per panel in each W_inf round
_SAMPLES = 64
_ZOOM_ROUNDS = 7


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


def _level_cuts(mu: Measure1D, nu: Measure1D, qa, qb) -> np.ndarray:
    """Both quantiles' breakpoint levels, plus F_mu(x*) and F_nu(x*) at each
    root x* of F_mu - F_nu: where Q_mu - Q_nu changes sign both quantiles
    equal some x*, and there the closed-form CDFs cross.  The roots are
    samples where F_mu - F_nu is 0 and, on each sign change between
    samples, the root :func:`newton_roots` finds with the difference of
    the densities as slope; cutting at both CDF values covers a crossing
    inside an atom."""
    xb = np.union1d(mu.x_breaks, nu.x_breaks)
    t = np.arange(_SAMPLES) / _SAMPLES
    x = np.append((xb[:-1, None] + np.diff(xb)[:, None] * t).ravel(), xb[-1])
    diff = lambda y: mu.cdf(y) - nu.cdf(y)
    g = diff(x)
    i = np.flatnonzero(g[:-1] * g[1:] < 0.0)
    # a sign change already across the first ulp of a sign-change interval
    # (an atom, or the rounding of F at an arcsine end) puts the root at
    # its start, one only across the last ulp at its end
    a, b, sign = x[i], x[i + 1], -np.sign(g[i])
    ga, gb = sign * diff(np.nextafter(a, np.inf)), sign * diff(np.nextafter(b, -np.inf))
    at_a = ga >= 0.0
    at_b = ~at_a & (gb < 0.0)
    inner = ~(at_a | at_b)
    a, b, ga, gb, sign = a[inner], b[inner], ga[inner], gb[inner], sign[inner]
    roots = newton_roots(
        lambda y, k: (sign[k] * diff(y), sign[k] * (mu.density(y) - nu.density(y))),
        a, b, ga / (ga - gb), [mu, nu])
    roots = np.concatenate([x[g == 0.0], x[i][at_a], x[i + 1][at_b], roots])
    cuts = np.concatenate([qa.s_breaks, qb.s_breaks, mu.cdf(roots), nu.cdf(roots)])
    return np.unique(np.clip(cuts, 0.0, 1.0))


@functools.lru_cache(maxsize=None)
def _panel_rule(n: int):
    """n-node Gauss-Legendre rule on [0, 1] through x = s^2 (3 - 2s), which
    smooths the |x|^p of quantiles that cross at a panel end.  The weights
    are normalized to integrate constants exactly."""
    t, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (t + 1.0)
    w = w * s * (1.0 - s)
    return s * s * (3.0 - 2.0 * s), w / w.sum()


def _wp_numeric(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """The node count doubles on the panels whose value has not settled to
    _REL_QUAD_TOL relative; one still unsettled at _MAX_NODES is an error."""
    qa, qb = AnalyticQuantile(mu), AnalyticQuantile(nu)
    u = _level_cuts(mu, nu, qa, qb)
    # A panel no wider than MASS_TOL joins the next one: the nodes are
    # interior, so they never sample a jump that rounding left there.
    edges = u[np.append(True, np.diff(u) > MASS_TOL)]
    edges[-1] = 1.0
    u0, h = edges[:-1], np.diff(edges)
    # a power of two near the support size keeps |Q_mu - Q_nu|^p in range
    scale = math.ldexp(1.0, math.frexp(max(map(abs, mu.support + nu.support)))[1] - 1)
    total = np.zeros(u0.size)
    todo, prev, n = np.arange(u0.size), None, 16
    while todo.size:
        if n > _MAX_NODES:
            raise MeasureError(f"W_p quadrature did not converge with {_MAX_NODES} nodes")
        x, w = _panel_rule(n)
        u = u0[todo, None] + h[todo, None] * x
        val = h[todo] * ((np.abs(qa(u) - qb(u)) / scale) ** p @ w)
        if prev is not None:  # a non-finite value is final: _finite refuses it
            done = ~(np.abs(val - prev) > _REL_QUAD_TOL * np.maximum(np.abs(val), 1e-30))
            total[todo[done]] = val[done]
            todo, val = todo[~done], val[~done]
        prev, n = val, 2 * n
    return scale * float(total.sum()) ** (1.0 / p)


def _sup_numeric(mu: Measure1D, nu: Measure1D) -> float:
    qa, qb = AnalyticQuantile(mu), AnalyticQuantile(nu)
    u = _level_cuts(mu, nu, qa, qb)
    mass = np.diff(u) > MASS_TOL  # as in _merge_rows
    lo, hi = u[:-1][mass], u[1:][mass]
    best = np.maximum(np.abs(qa(lo) - qb(lo)),
                      np.abs(qa.left_limit(hi) - qb.left_limit(hi)))
    t, rows = np.arange(1, _SAMPLES + 1) / (_SAMPLES + 1), np.arange(lo.size)
    for _ in range(_ZOOM_ROUNDS):
        u = lo[:, None] + (hi - lo)[:, None] * t
        d = np.abs(qa(u) - qb(u))
        k = np.argmax(d, axis=1)
        best = np.maximum(best, d[rows, k])
        grid = np.concatenate([lo[:, None], u, hi[:, None]], axis=1)
        lo, hi = grid[rows, k], grid[rows, k + 2]
    return float(best.max())


def _finite(distance, *args) -> float:
    """distance(*args), refused where it overflows.  The error takes the
    place of numpy's overflow warnings on the way, which are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = distance(*args)
    if not math.isfinite(value):
        raise MeasureError(f"distance {value} is not finite: the measures overflow")
    return value


def wasserstein_p(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """W_p distance for finite p >= 1 via the quantile representation:
    exact per-segment closed form when both quantiles are piecewise affine,
    Gauss-Legendre on the panels of :func:`_level_cuts` otherwise.
    Non-integer p is supported."""
    p = float(p)
    if math.isinf(p):
        raise MeasureError("use wasserstein_inf for p = infinity")
    if p < 1.0:
        raise MeasureError("wasserstein_p requires p >= 1")
    if mu.is_discrete_mixture and nu.is_discrete_mixture:
        return _finite(_wp_exact, mu.quantile_fn(), nu.quantile_fn(), p)
    return _finite(_wp_numeric, mu, nu, p)


def wasserstein_inf(mu: Measure1D, nu: Measure1D) -> float:
    """W_inf as the sup of |Q_mu - Q_nu| over [0, 1]: exact over the merged
    breakpoints of piecewise-affine quantiles; otherwise the largest of the
    exact one-sided ends of the panels of :func:`_level_cuts` and of
    interior samples that zoom in on each panel's maximum."""
    if mu.is_discrete_mixture and nu.is_discrete_mixture:
        return _finite(_wp_exact, mu.quantile_fn(), nu.quantile_fn(), math.inf)
    return _finite(_sup_numeric, mu, nu)


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
