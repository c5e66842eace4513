"""One-dimensional optimal transport.

Optimal maps via quantile composition, exact W_p for piecewise-affine
quantiles (closed-form per-segment integration of |a + b s|^p, one pair
per row in ``wp_rows``) and for weighted atoms (``_wp_atoms``), W_inf as
the sup of quantile differences, displacement interpolation, and the
constant-speed deviation table of a curve under any distance.  Every
exact kernel reads its intervals off one level merge, ``_merge_levels``,
which gives no mass to intervals no wider than MASS_TOL.  The atom
kernel sums only over the intervals that carry mass; for two clouds of
equal weights it merges the levels once per call, keeps only those
intervals and subtracts the sorted rows directly.  It divides a row by
its largest difference only where the p-th powers would leave float64
range (``_power_scale``, as for the q-means of ``sliced``).

With arcsine components, [0, 1] is cut into panels on which Q_mu - Q_nu
is smooth and keeps one sign (``_level_cuts``); W_p is one batched
Gauss-Legendre sum over them.  W_inf is the largest |Q_mu - Q_nu| on one
grid per panel, with its exact one-sided ends, and at the stationary
points that a 2x2 Newton on the closed-form CDFs and densities finds from
every grid cell whose mean-value (Piyavskii) bound exceeds that largest
value; the bounds bracket the sup (``_sup_bracket``).
``wp_measure_rows`` takes many pairs at once, as the rows of one
:class:`~swgeo.measure1d.MeasureRows` table, and ``wasserstein_p`` is its
one-pair case.  A distance that overflows float64 raises MeasureError.

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
    _STEP_TOL,
    AnalyticQuantile,
    Measure1D,
    MeasureError,
    MeasureRows,
    PiecewiseLinearMap,
    QuantileFn,
    _phi_map,
    _row_unique,
    _x_of_phi,
    newton_roots,
    pushforward_pwl,
)

__all__ = [
    "optimal_map",
    "interpolate",
    "wasserstein_p",
    "wasserstein_inf",
    "wp_rows",
    "wp_measure_rows",
    "pairwise_deviation",
    "geodesic_deviation",
]

_REL_QUAD_TOL = 1e-10
_MAX_NODES = 4096
# samples per gap between breakpoints in _level_cuts
_SAMPLES = 64
# interior grid levels per panel, and Newton steps from a cell, of W_inf
_SUP_GRID = 32
_SUP_STEPS = 8
# the fractions of a Newton step tried in turn to stay inside its box
_HALVINGS = 0.5 ** np.arange(5)


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
    h, a0, a1, b0, b1 = _merge_rows(qa.s[None], qa.x[None], qb.s[None], qb.x[None])
    # On each interval that carries mass, T runs affinely from (Q_mu(u0+),
    # Q_nu(u0+)) to (Q_mu(u1-), Q_nu(u1-)).  One-sided values taken from
    # neighbouring segments may differ by an ulp, hence the running max.
    xs = np.maximum.accumulate(np.stack([a0, a1], axis=-1)[h > 0.0].ravel())
    ys = np.maximum.accumulate(np.stack([b0, b1], axis=-1)[h > 0.0].ravel())
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


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[..., r, idx[r]] for every row r, where idx has one row per row of
    a or one row shared by all (flat takes beat take_along_axis)."""
    if len(idx) == 1:
        return np.take(a, idx[0], axis=-1)
    *lead, rows, m = a.shape
    return np.take(a.reshape(*lead, rows * m), idx + np.arange(0, rows * m, m)[:, None], axis=-1)


def _merge_levels(la: np.ndarray, lb: np.ndarray):
    """The one merge of two runs of levels, rows or one shared row each.
    A run rises from 0 to 1, and step i of its side spans its levels i
    and i + 1: a segment of a quantile polyline, or an atom.  Returns the
    merged levels u, the mass of each interval [u_j, u_j+1] and the index
    of the step of a and of b that covers it.

    An interval no wider than MASS_TOL carries no mass: equal cumulative
    masses summed in different orders leave such slivers, where one side
    has stepped and the other not yet.
    """
    na, nb = la.shape[1], lb.shape[1]
    both = np.empty((max(len(la), len(lb)), na + nb))
    both[:, :na], both[:, na:] = la, lb
    order = np.argsort(both, axis=1, kind="stable")  # two sorted runs: a linear merge
    u = _take_rows(both, order)
    h = u[:, 1:] - u[:, :-1]
    # The stable merge keeps each side's levels in order, a's first at a
    # tie, so the interval j that starts at level i of a lies on step i of
    # a and step j - i - 1 of b, and likewise for b.  The indices are
    # clipped on intervals of width 0 (before b's first level, after a's
    # last) and in rows with a nan level, whose nan widths stay.
    order, j = order[:, :-1], np.arange(na + nb - 1)
    ia = np.where(order < na, order, j + na - 1 - order)
    return (u, np.where(h <= MASS_TOL, 0.0, h), np.minimum(np.maximum(ia, 0), na - 2),
            np.minimum(np.maximum(j - 1 - ia, 0), nb - 2))


def _limits_rows(s: np.ndarray, x: np.ndarray, j: np.ndarray,
                 u0: np.ndarray, u1: np.ndarray):
    """One-sided values (Q(u0+), Q(u1-)) of row-wise quantile polylines
    (s, x) on intervals that lie inside segment j of their row."""
    ds = s[:, 1:] - s[:, :-1]
    slope = (x[:, 1:] - x[:, :-1]) / np.where(ds > 0.0, ds, 1.0)
    s0, x0, slope = _take_rows(np.stack([s[:, :-1], x[:, :-1], slope]), j)
    return x0 + (u0 - s0) * slope, x0 + (u1 - s0) * slope


def _merge_rows(sa: np.ndarray, xa: np.ndarray, sb: np.ndarray, xb: np.ndarray):
    """Merge the levels of two row-wise quantile polylines.

    Each quantile is a polyline of parallel (n, m) arrays in the
    :class:`QuantileFn` encoding: s nondecreasing from 0 to 1, a repeated
    s is a jump, a repeated x an atom.  On each interval u0 < u1 of
    :func:`_merge_levels` both quantiles are affine.  Returns, per merged
    interval, its mass and the one-sided values Q_a(u0+), Q_a(u1-),
    Q_b(u0+), Q_b(u1-).
    """
    u, h, ja, jb = _merge_levels(sa, sb)
    u0, u1 = u[:, :-1], u[:, 1:]
    return (h, *_limits_rows(sa, xa, ja, u0, u1), *_limits_rows(sb, xb, jb, u0, u1))


def wp_rows(sa: np.ndarray, xa: np.ndarray, sb: np.ndarray, xb: np.ndarray,
            p: float) -> np.ndarray:
    """Exact W_p (W_inf for p = inf) between piecewise-affine quantiles,
    one pair per row (see :func:`_merge_rows` for the encoding).

    Q_a - Q_b is affine on each merged interval, so W_inf is the largest
    one-sided value and W_p^p a sum of closed-form segment integrals over
    the intervals that carry mass.
    """
    h, a0, a1, b0, b1 = _merge_rows(sa, xa, sb, xb)
    d0 = np.where(h > 0.0, a0 - b0, 0.0)
    d1 = np.where(h > 0.0, a1 - b1, 0.0)
    M = np.maximum(np.abs(d0), np.abs(d1)).max(axis=1)
    if math.isinf(p):
        return M
    scale = np.where(M > 0.0, M, 1.0)[:, None]
    return M * _segment_lp(d0 / scale, d1 / scale, h, p) ** (1.0 / p)


def _clip_levels(cum: np.ndarray) -> np.ndarray:
    """The levels of atoms with cumulative masses cum (positive): 0, then
    cum clipped to 1, the last one at 1."""
    levels = np.empty((len(cum), cum.shape[1] + 1))
    np.minimum(cum, 1.0, out=levels[:, 1:])
    levels[:, 0], levels[:, -1] = 0.0, 1.0
    return levels


def _equal_levels(w: np.ndarray):
    """The levels i * w of equal weights as one row, shared by every row
    of atoms since no sort reorders them; None for unequal weights."""
    if not np.all(w == w[0]):
        return None
    return _clip_levels(np.arange(1, w.size + 1)[None, :] * w[0])


def _sorted_atoms(x: np.ndarray, w: np.ndarray, shared):
    """Each row of x sorted, with its cumulative levels: the shared row
    for equal weights, else the cumsums of the reordered weights.  Tied
    points share one quantile value, so the sort need not be stable."""
    if shared is not None:
        return np.sort(x, axis=1), shared
    order = np.argsort(x, axis=1)
    return _take_rows(x, order), _clip_levels(np.cumsum(w[order], axis=1))


def _power_scale(top, p: float):
    """The divisor that keeps the p-th powers of values at most top in
    float64 range: 1 where |log2 top| * max(p, 2) is at most about 1000,
    which changes no bit, else top itself, so that the largest value
    becomes 1 and its power stays 1 for any p.  For p <= 2 the divisor
    is 1 inside about [2^-500, 2^500].  One per entry of an array top,
    or the float 1 where all of them lie inside.  A top of 0, inf or nan
    gives 1."""
    out = np.abs(np.frexp(top)[1]) * max(p, 2.0) > 1000.0
    if not out.any():
        return 1.0
    return np.where(out, top, 1.0)


def _lp_rows(d: np.ndarray, h: np.ndarray, p: float) -> np.ndarray:
    """(sum of h * d^p)^(1/p) over each row of the differences d >= 0, with
    h one row of masses shared by all rows or one row per row; a row
    whose d^p would leave float64 range is divided by the
    :func:`_power_scale` of its largest d first."""
    scale = _power_scale(d.max(axis=1), p)
    if np.ndim(scale):
        d = d / scale[:, None]
    d **= p
    if h.ndim == 1:
        return scale * (d @ h) ** (1.0 / p)
    d *= h
    return scale * d.sum(axis=1) ** (1.0 / p)


def _mass_steps(ia: np.ndarray, n: int):
    """The steps ia of one side on the intervals that carry mass, or None
    where they are 0..n-1: the sorted rows then need no gather."""
    return None if np.array_equal(ia, np.arange(n)) else ia


def _wp_atoms(batches, wa: np.ndarray, wb: np.ndarray, p: float) -> np.ndarray:
    """Exact W_p between weighted atoms on R, one value per row: batches
    yields pairs of (rows, n_a) and (rows, n_b) atom positions, with the
    weights wa and wb.  Both quantiles are step functions, so W_p^p is a
    finite sum of h * d^p over the intervals of :func:`_merge_levels`
    that carry mass (h > 0), with d the difference of the two atoms on
    each; see :func:`_lp_rows` for the scale.  Two clouds of equal
    weights merge their levels once per call and keep only the intervals
    that carry mass: a side whose atoms each cover one interval is its
    sorted row itself, and any other side is one gather.  Otherwise
    every batch merges its rows, and the differences on intervals
    without mass are set to 0, so that none of them enters the sum or
    the scale.  A nan position gives nan."""
    la, lb = _equal_levels(wa), _equal_levels(wb)
    if la is not None and lb is not None:
        _, h, ia, ib = _merge_levels(la, lb)
        mass = h[0] > 0.0
        h, ia, ib = h[0, mass], _mass_steps(ia[0, mass], wa.size), _mass_steps(ib[0, mass], wb.size)
    vals = []
    for xa, xb in batches:
        sa, la_rows = _sorted_atoms(xa, wa, la)
        sb, lb_rows = _sorted_atoms(xb, wb, lb)
        if la is None or lb is None:
            _, h, ia, ib = _merge_levels(la_rows, lb_rows)
            d = np.abs(_take_rows(sa, ia) - _take_rows(sb, ib))
            d[h == 0.0] = 0.0
        else:
            d = np.abs((sa if ia is None else np.take(sa, ia, axis=1))
                       - (sb if ib is None else np.take(sb, ib, axis=1)))
        vals.append(_lp_rows(d, h, p))
    return np.concatenate(vals)


def _wp_exact(qa: QuantileFn, qb: QuantileFn, p: float) -> float:
    return float(wp_rows(qa.s[None], qa.x[None], qb.s[None], qb.x[None], p)[0])


def _level_cuts(t: MeasureRows, q: AnalyticQuantile, n: int):
    """For the pair of rows i (mu) and i + n (nu) of t, for every i < n:
    both quantiles' breakpoint levels, plus F_mu(x*) and F_nu(x*) at each
    root x* of F_mu - F_nu.  Where Q_mu - Q_nu changes sign both quantiles
    equal some x*, and there the closed-form CDFs cross.  The roots are
    the two ends of each run of samples where F_mu - F_nu is 0 (a pair
    equal on a stretch needs no cut inside it) and, on each sign change
    between samples, the root :func:`newton_roots` finds with the
    difference of the densities as slope, one loop for all pairs; cutting
    at both CDF values covers a crossing inside an atom.  Returns the
    sorted distinct cuts of every pair as flat (u, pair)."""
    xb, pair = _row_unique(t.breaks, t.break_row % n)
    s = np.arange(_SAMPLES) / _SAMPLES
    # _SAMPLES points on each gap between a pair's breaks; its last break
    # repeats instead, which adds no sign change and no new cut
    step = np.where(pair[1:] == pair[:-1], np.diff(xb), 0.0)
    x = np.append((xb[:-1, None] + step[:, None] * s).ravel(), xb[-1])
    xp = np.append(np.repeat(pair[:-1], _SAMPLES), pair[-1])
    diff = lambda y, k: t.cdf(y, k) - t.cdf(y, k + n)
    g = diff(x, xp)
    i = np.flatnonzero((g[:-1] * g[1:] < 0.0) & (xp[:-1] == xp[1:]))
    # a sign change already across the first ulp of a sign-change interval
    # (an atom, or the rounding of F at an arcsine end) puts the root at
    # its start, one only across the last ulp at its end
    a, b, ip, sign = x[i], x[i + 1], xp[i], -np.sign(g[i])
    ga, gb = sign * diff(np.nextafter(a, np.inf), ip), sign * diff(np.nextafter(b, -np.inf), ip)
    at_a = ga >= 0.0
    at_b = ~at_a & (gb < 0.0)
    inner = ~(at_a | at_b)
    a, b, ga, gb, sign, k = (v[inner] for v in (a, b, ga, gb, sign, ip))
    tol = _STEP_TOL * np.maximum(t.extent[k], t.extent[k + n])
    (left_a, right_a), (left_b, right_b) = t.ends_at(a, b, k, tol), t.ends_at(a, b, k + n, tol)
    # two densities infinite at a shared arcsine end give a nan slope,
    # which newton_roots takes as no Newton point
    with np.errstate(invalid="ignore"):
        roots = newton_roots(
            lambda y, j: (sign[j] * diff(y, k[j]),
                          sign[j] * (t.density(y, k[j]) - t.density(y, k[j] + n))),
            a, b, ga / (ga - gb), tol, left_a | left_b, right_a | right_b)
    # of a run of zero samples of one pair, only its two ends are cuts
    zero = g == 0.0
    inside = np.zeros_like(zero)
    inside[1:-1] = zero[:-2] & zero[2:] & (xp[:-2] == xp[1:-1]) & (xp[2:] == xp[1:-1])
    zero &= ~inside
    rx = np.concatenate([x[zero], x[i][at_a], x[i + 1][at_b], roots])
    rp = np.concatenate([xp[zero], ip[at_a], ip[at_b], k])
    cuts = np.concatenate([q.s_breaks, t.cdf(rx, rp), t.cdf(rx, rp + n)])
    return _row_unique(np.clip(cuts, 0.0, 1.0), np.concatenate([q.s_row % n, rp, rp]))


def _gap(f, u: np.ndarray, pair: np.ndarray, n: int) -> np.ndarray:
    """|Q_mu - Q_nu| at the levels u of the pairs (parallel and flat), as
    one evaluation f(levels, rows) of the quantiles of both sides."""
    both = f(np.tile(u, 2), np.concatenate([pair, pair + n]))
    return np.abs(both[:u.size] - both[u.size:])


def _by_pair(pair: np.ndarray, n: int):
    """The slices of the runs of each pair 0..n-1 in a sorted pair array."""
    bounds = np.searchsorted(pair, np.arange(n + 1))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


@functools.lru_cache(maxsize=None)
def _panel_rule(n: int):
    """n-node Gauss-Legendre rule on [0, 1] through x = s^2 (3 - 2s), which
    smooths the |x|^p of quantiles that cross at a panel end.  The weights
    are normalized to integrate constants exactly."""
    t, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (t + 1.0)
    w = w * s * (1.0 - s)
    return s * s * (3.0 - 2.0 * s), w / w.sum()


def _wp_numeric(t: MeasureRows, n: int, p: float) -> np.ndarray:
    """The node count doubles on the panels whose value has not settled to
    _REL_QUAD_TOL relative; one still unsettled at _MAX_NODES is an error.
    Each pair's nodes go through the same matrix product as alone, so its
    value does not depend on the other pairs."""
    q = AnalyticQuantile(t)
    u, pair = _level_cuts(t, q, n)
    # A panel no wider than MASS_TOL joins the next one: the nodes are
    # interior, so they never sample a jump that rounding left there.
    keep = np.append(True, (np.diff(u) > MASS_TOL) | (pair[1:] != pair[:-1]))
    edges, pair = u[keep], pair[keep]
    last = np.append(pair[1:] != pair[:-1], True)
    edges[last] = 1.0
    inner = ~last[:-1]
    u0, h, pair = edges[:-1][inner], np.diff(edges)[inner], pair[:-1][inner]
    # a power of two near the support size keeps |Q_mu - Q_nu|^p in range
    scale = np.ldexp(1.0, np.frexp(np.maximum(t.extent[:n], t.extent[n:]))[1] - 1)
    total = np.zeros(u0.size)
    todo, prev, nodes = np.arange(u0.size), None, 16
    while todo.size:
        if nodes > _MAX_NODES:
            raise MeasureError(f"W_p quadrature did not converge with {_MAX_NODES} nodes")
        x, w = _panel_rule(nodes)
        at = pair[todo]
        u = (u0[todo, None] + h[todo, None] * x).ravel()
        rows = np.repeat(at, nodes)
        d = ((_gap(q._at, u, rows, n) / scale[rows]) ** p).reshape(todo.size, nodes)
        val = np.empty(todo.size)
        for run in _by_pair(at, n):
            val[run] = d[run] @ w
        val *= h[todo]
        if prev is not None:  # a non-finite value is final: the callers refuse it
            done = ~(np.abs(val - prev) > _REL_QUAD_TOL * np.maximum(np.abs(val), 1e-30))
            total[todo[done]] = val[done]
            todo, val = todo[~done], val[~done]
        prev, nodes = val, 2 * nodes
    return np.array([scale[i] * float(total[run].sum()) ** (1.0 / p)
                     for i, run in enumerate(_by_pair(pair, n))])


def _slope_bounds(t: MeasureRows, x: np.ndarray, rows: np.ndarray):
    """Bounds of dQ/du = 1/f(Q) on each grid cell of a (panels, levels)
    array x of quantile values in the rows rows: from the density's range
    on the cell's x-range, and 0 where the cell's values are equal (an
    atom, or a rise below an ulp)."""
    x0, x1 = x[:, :-1].ravel(), x[:, 1:].ravel()
    cells = np.repeat(rows, x.shape[1] - 1)
    rise = x1 > x0
    low, high = t.density_range(x0, x1, cells)
    with np.errstate(divide="ignore"):
        return (np.where(rise, 1.0 / high, 0.0).reshape(-1, x.shape[1] - 1),
                np.where(rise, 1.0 / low, 0.0).reshape(-1, x.shape[1] - 1))


def _envelope(g0, g1, h, up, down):
    """Piyavskii bound: the largest value on [0, h] of a function with end
    values g0, g1 whose slope lies in [down, up]; the point where it is
    reached as a fraction of h.  An unbounded slope gives inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((g1 - g0 - down * h) / ((up - down) * h), 0.0, 1.0)
        s = np.where(up > down, s, 0.0)
        top = np.maximum(np.maximum(g0, g1), g0 + np.maximum(up, 0.0) * s * h)
    return np.where(np.isnan(top), np.inf, top), s


def _sup_bracket(t: MeasureRows, n: int):
    """[found, bound] of the sup of |Q_mu - Q_nu| for the pairs of rows
    i and i + n of t, for every i < n.  found is the largest evaluated
    |Q_mu - Q_nu|, bound an upper bound on the sup.

    One grid of _SUP_GRID interior levels per panel of :func:`_level_cuts`
    and the exact one-sided panel ends Q(lo), Q(hi-) take one quantile
    evaluation.  On a grid cell g = Q_mu - Q_nu has the slope
    1/f_mu(Q_mu) - 1/f_nu(Q_nu), with each Q in the cell's x-range, so the
    density bounds of :meth:`MeasureRows.density_range` give a Piyavskii
    bound on |g| over the cell.  From the bound's point in every cell
    whose bound exceeds the found max, :func:`_stationary_points` solves
    F_mu(a) = F_nu(b), f_mu(a) = f_nu(b), the conditions of a stationary
    point of g, inside the x-ranges of the cell and its neighbours, and
    |g| is evaluated at the level of each root.  Each pair's values come
    from its own cells and roots only."""
    q = AnalyticQuantile(t)
    u, pair = _level_cuts(t, q, n)
    mass = (np.diff(u) > MASS_TOL) & (pair[1:] == pair[:-1])  # as in _merge_levels
    lo, hi, pair = u[:-1][mass], u[1:][mass], pair[:-1][mass]
    m = _SUP_GRID + 2
    levels = lo[:, None] + (hi - lo)[:, None] * (np.arange(m) / (m - 1))
    levels[:, -1] = hi  # Q(hi-) there, both sides in one evaluation
    rows = np.repeat(pair, m)
    left = np.tile(np.arange(m) == m - 1, 2 * lo.size)
    both = q._at(np.tile(levels.ravel(), 2), np.concatenate([rows, rows + n]), left)
    xa, xb = both[:rows.size].reshape(levels.shape), both[rows.size:].reshape(levels.shape)
    g = xa - xb
    found = np.zeros(n)
    np.maximum.at(found, pair, np.abs(g).max(axis=1))
    # slope bounds of g and the Piyavskii bound of g and of -g on each cell
    (a_low, a_high), (b_low, b_high) = _slope_bounds(t, xa, pair), _slope_bounds(t, xb, pair + n)
    h = np.diff(levels, axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf: a cell across a gap, unbounded
        up, down = a_high - b_low, a_low - b_high
    top, s_top = _envelope(g[:, :-1], g[:, 1:], h, up, down)
    bottom, s_bottom = _envelope(-g[:, :-1], -g[:, 1:], h, -down, -up)
    cell = np.maximum(top, bottom)
    bound = found.copy()
    np.maximum.at(bound, pair, cell.max(axis=1))
    # Newton from the bound's point of every cell whose bound exceeds found
    panel, j = np.nonzero(cell > found[pair][:, None])
    if panel.size:
        s = np.where(top >= bottom, s_top, s_bottom)[panel, j]
        x = np.stack([xa[panel, j] + s * (xa[panel, j + 1] - xa[panel, j]),
                      xb[panel, j] + s * (xb[panel, j + 1] - xb[panel, j])])
        near = (panel, np.maximum(j - 1, 0)), (panel, np.minimum(j + 2, m - 1))
        box = np.array([[xa[end], xb[end]] for end in near])
        k = pair[panel]
        mid = 0.5 * (levels[panel, j] + levels[panel, j + 1])
        ra, level = _stationary_points(t, q, n, k, mid, x, box)
        # inside the cells' neighbourhood, short of a jump at its top level
        level = np.clip(level, levels[near[0]][ra], np.nextafter(levels[near[1]][ra], -np.inf))
        np.maximum.at(found, k[ra], _gap(q._at, level, k[ra], n))
    return found, np.maximum(bound, found)


def _stationary_points(t: MeasureRows, q: AnalyticQuantile, n: int, k: np.ndarray,
                       mid: np.ndarray, x: np.ndarray, box: np.ndarray):
    """Newton for the stationary points of Q_mu - Q_nu in the pairs k
    (rows k and k + n): the (a, b) = (x[0], x[1]) with F_mu(a) = F_nu(b)
    and 1/f_mu(a) = 1/f_nu(b), both sides in one array pass.  Each side
    runs in the angle phi of :func:`newton_roots` on the bracket of its
    breaks that holds the level mid, where F and 1/f stay smooth at an
    arcsine end.  Each side moves by the longest of its Newton step and
    that step's halvings down to 1/16 that stays inside its box (box[0]
    and box[1] hold the low and high x of each side), and stays where it
    is if none does.  A root is kept once both steps are within
    _STEP_TOL times the support scale, or after _SUP_STEPS steps, and
    dropped on a step that is not finite.  Returns the indices of the
    roots kept and their levels, the mean of F_mu(a) and F_nu(b) at the
    last evaluated point."""
    rows = np.stack([k, k + n])
    tol = _STEP_TOL * np.maximum(t.extent[k], t.extent[k + n])
    lo, hi = (t.breaks[i].reshape(rows.shape) for i in q._bracket(np.tile(mid, 2), rows.ravel()))
    ends = t.ends_at(lo.ravel(), hi.ravel(), rows.ravel(), np.tile(tol, 2))
    phi0, phi1, h = _phi_map(lo, hi, *(e.reshape(rows.shape) for e in ends))
    with np.errstate(divide="ignore", invalid="ignore"):  # a nan start is dropped
        low, phi, high = (np.clip(np.arcsin(np.clip(np.sin(phi0) + (v - lo) / h, -1.0, 1.0)),
                                  phi0, phi1) for v in (box[0], x, box[1]))
    # one row per quantity of the open roots, compacted in one take
    state, idx = np.stack([lo, hi, phi0, phi1, h, phi, low, high]), np.arange(k.size)
    kept, levels = [], []
    for step in range(_SUP_STEPS):
        lo, hi, phi0, phi1, h, phi, low, high = state
        r = rows[:, idx].ravel()
        x = _x_of_phi(phi, lo, hi, phi0, phi1, h)
        F, f, df = (v(x.ravel(), r).reshape(x.shape)
                    for v in (t.cdf, t.density, t.density_slope))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dF = f * h * np.cos(phi)  # dF/dphi
            dinv = -df * h * np.cos(phi) / (f * f)  # d(1/f)/dphi
            G1, G2 = F[0] - F[1], 1.0 / f[0] - 1.0 / f[1]
            det = dF[1] * dinv[0] - dF[0] * dinv[1]
            dphi = np.stack([G1 * dinv[1] - dF[1] * G2, G1 * dinv[0] - dF[0] * G2]) / det
            nxt = phi + _HALVINGS[:, None, None] * dphi
            fits = (nxt >= low) & (nxt <= high)
            nxt = np.take_along_axis(nxt, np.argmax(fits, axis=0)[None], axis=0)[0]
            nxt = np.where(fits.any(axis=0), nxt, phi)
            xn = _x_of_phi(nxt, lo, hi, phi0, phi1, h)
        finite = np.isfinite(dphi).all(axis=0)
        done = finite & ((np.abs(xn - x) <= tol[idx]).all(axis=0) | (step == _SUP_STEPS - 1))
        kept.append(idx[done])
        levels.append(0.5 * (F[0] + F[1])[done])
        go = finite & ~done
        state[5] = nxt
        state, idx = state[:, :, go], idx[go]
        if not idx.size:
            break
    return np.concatenate(kept), np.concatenate(levels)


def _sup_numeric(t: MeasureRows, n: int) -> np.ndarray:
    """The found values of :func:`_sup_bracket`."""
    return _sup_bracket(t, n)[0]


def wp_measure_rows(t: MeasureRows, p: float) -> np.ndarray:
    """W_p (W_inf for p = inf) between the rows i and i + n of a table of
    2n measures, for every i < n, with arcsine parts on at least one side:
    Gauss-Legendre on the panels of :func:`_level_cuts` for finite p, and
    for p = inf the found value of :func:`_sup_bracket`: the largest
    |Q_mu - Q_nu| on a grid of each panel, with its exact one-sided ends,
    and at the stationary points found from the grid cells whose bound
    exceeds it.  Every step is one array pass over all pairs, and each
    pair's value is the one it has alone.  Overflow is left to the
    caller."""
    n = t.n // 2
    return _sup_numeric(t, n) if math.isinf(p) else _wp_numeric(t, n, p)


def _numeric(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """The one-pair case of :func:`wp_measure_rows`."""
    return float(wp_measure_rows(MeasureRows.of([mu, nu]), p)[0])


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
    return _finite(_numeric, mu, nu, p)


def wasserstein_inf(mu: Measure1D, nu: Measure1D) -> float:
    """W_inf as the sup of |Q_mu - Q_nu| over [0, 1]: exact over the merged
    breakpoints of piecewise-affine quantiles; otherwise the largest
    |Q_mu - Q_nu| on a grid of each panel of :func:`_level_cuts`, with its
    exact one-sided ends, and at the stationary points of Q_mu - Q_nu that
    a 2x2 Newton finds from every grid cell whose mean-value bound exceeds
    the grid's largest value (:func:`_sup_bracket`)."""
    if mu.is_discrete_mixture and nu.is_discrete_mixture:
        return _finite(_wp_exact, mu.quantile_fn(), nu.quantile_fn(), math.inf)
    return _finite(_numeric, mu, nu, math.inf)


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
