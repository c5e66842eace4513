"""One-dimensional optimal transport.

Optimal maps via quantile composition, exact W_p for piecewise-affine
quantiles (closed-form per-segment integration of |a + b s|^p, one pair
per row in ``wp_rows``) and for weighted atoms (``_wp_atoms``), W_inf as
the sup of quantile differences, displacement interpolation, and the
constant-speed deviation table of a curve under any distance.  Every
exact kernel reads its intervals off one level merge, ``_merge_levels``,
which gives no mass to intervals no wider than MASS_TOL and works on
fresh arrays or on the caller's workspace.  The polyline kernel computes
one-sided values and segment integrals only on the intervals that carry
mass, and sums them in their columns of a zeroed row: numpy's pairwise
summation then groups them as the full row, to the bit.  The atom kernel
takes one batch of directions at a time (``sliced._batched`` loops), and
works in place in buffers that one workspace per call holds.  It sums
only over the intervals that carry mass; for two clouds of equal weights
it merges the levels once per call, keeps only those intervals and
subtracts the sorted rows directly.  For unequal weights at p = 1 it
merges no levels: W_1 is the integral of |F_mu - F_nu|, one sort of the
joint row, and a gap where |F_mu - F_nu| <= MASS_TOL carries no mass
(``_cdf_gap_path``).  It divides a row by its largest difference only
where the p-th powers would leave float64 range (``_power_scale``, as
for the q-means of ``sliced``).

With arcsine components, [0, 1] is cut into panels on which Q_mu - Q_nu
is smooth and keeps one sign (``_level_cuts``); W_p is one batched
Gauss-Legendre sum over them, whose 16- and 32-node rules share one
quantile pass before the node count doubles (``_wp_numeric``).  W_inf is
the largest |Q_mu - Q_nu| on one grid per panel, with its exact one-sided
ends, and at the stationary points that a 2x2 Newton on the closed-form
CDFs and densities finds from every grid cell whose mean-value
(Piyavskii) bound exceeds that largest value; the bounds bracket the sup
(``_sup_bracket``).  A start whose 2x2 system is singular, where
Q_mu'' = Q_nu'' as everywhere on a translated pair, is dropped at its
first point: the Newton cannot move it.  CDF values that do not depend
on each other, such as both sides of a pair, take one evaluation.
``wp_measure_rows`` takes many pairs at once, as the rows of one
:class:`~swgeo.measure1d.MeasureRows` table.  One pair, in
``wasserstein_p`` and ``wasserstein_inf``, is a one-row call of either
kernel (``_distance``).  A distance that overflows float64 raises
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
    _STEP_TOL,
    AnalyticQuantile,
    Measure1D,
    MeasureError,
    MeasureRows,
    PiecewiseLinearMap,
    _exponent,
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
# at least 32: the first round of _wp_numeric takes 16 and 32 nodes
_MAX_NODES = 4096
# samples per gap between breakpoints in _level_cuts
_SAMPLES = 64
# interior grid levels per panel, and Newton steps from a cell, of W_inf
_SUP_GRID = 32
_SUP_STEPS = 8
# the fractions of a Newton step tried in turn to stay inside its box
_HALVINGS = 0.5 ** np.arange(5)
# a start of the W_inf Newton whose Jacobian determinant is at most this
# fraction of the sum of its two terms' moduli is singular: the starts of
# translated circle pairs leave at most 545 eps (1.2e-13), those of the
# closed-form interior maxima of the tests about 1
_SINGULAR = 1e-9


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
    *_, a0, a1, b0, b1 = _merge_rows(qa.s[None], qa.x[None], qb.s[None], qb.x[None])
    # On each interval that carries mass, T runs affinely from (Q_mu(u0+),
    # Q_nu(u0+)) to (Q_mu(u1-), Q_nu(u1-)).  One-sided values taken from
    # neighbouring segments may differ by an ulp, hence the running max.
    xs = np.maximum.accumulate(np.stack([a0, a1], axis=-1).ravel())
    ys = np.maximum.accumulate(np.stack([b0, b1], axis=-1).ravel())
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
    and widths h, one per entry.  Exact antiderivative
    sign(z)|z|^{p+1}/(p+1), with a midpoint fallback where endpoint values
    nearly coincide."""
    diff = d1 - d0
    scale = np.maximum(np.abs(d0), np.abs(d1))
    near = np.abs(diff) <= 1e-9 * np.maximum(scale, 1e-300)
    G = lambda z: np.sign(z) * np.abs(z) ** (p + 1.0)
    exact = h * (G(d1) - G(d0)) / (np.where(near, 1.0, diff) * (p + 1.0))
    midpoint = np.abs(0.5 * (d0 + d1)) ** p * h
    return np.where(near, midpoint, exact)


def _fresh(name: str, r: int, m: int, dtype=float) -> np.ndarray:
    """A new (r, m) array, for a merge outside a :class:`_Workspace`."""
    return np.empty((r, m), dtype)


def _merge_levels(la: np.ndarray, lb: np.ndarray, ws=_fresh):
    """The one merge of two runs of levels, rows or one shared row each.
    A run rises from 0 to 1, and step i of its side spans its levels i
    and i + 1: a segment of a quantile polyline, or an atom.  Returns the
    merged levels u, the mass of each interval [u_j, u_j+1] and the index
    of the step of a and of b that covers it, as arrays of the workspace
    ws (fresh ones by default).

    An interval no wider than MASS_TOL carries no mass: equal cumulative
    masses summed in different orders leave such slivers, where one side
    has stepped and the other not yet.
    """
    na, nb = la.shape[1], lb.shape[1]
    r, k = max(len(la), len(lb)), na + nb
    both = ws("levels", r, k)
    both[:, :na], both[:, na:] = la, lb
    order = np.argsort(both, axis=1, kind="stable")  # two sorted runs: a linear merge
    # The stable merge keeps each side's levels in order, a's first at a
    # tie, so the interval j that starts at level i of a lies on step i of
    # a and step j - i - 1 of b, and likewise for b.  With s the column of
    # that level in both, the step of a is the smaller of s and
    # j + na - 1 - s: s = i <= na - 1 <= j + na - 1 - s for a level of a,
    # and for a level of b, s >= na > j + na - 1 - s, one less than the
    # count of a's levels before it.  The indices are clipped on intervals
    # of width 0 (before b's first level, after a's last) and in rows with
    # a nan level, whose nan widths stay.
    step, j = order[:, :-1], np.arange(k - 1)
    ia = np.subtract(j + na - 1, step, out=ws("ia", r, k - 1, np.intp))
    np.minimum(ia, step, out=ia)
    ib = np.subtract(j - 1, ia, out=ws("ib", r, k - 1, np.intp))
    np.minimum(np.maximum(ia, 0, out=ia), na - 2, out=ia)
    np.minimum(np.maximum(ib, 0, out=ib), nb - 2, out=ib)
    order += _rows_from(r, k)
    u = np.take(both.reshape(-1), order, out=ws("u", r, k), mode="clip")
    h = np.subtract(u[:, 1:], u[:, :-1], out=ws("h", r, k - 1))
    np.copyto(h, 0.0, where=np.less_equal(h, MASS_TOL, out=ws("mask", r, k - 1, bool)))
    return u, h, ia, ib


def _merge_rows(sa: np.ndarray, xa: np.ndarray, sb: np.ndarray, xb: np.ndarray):
    """Merge the levels of two row-wise quantile polylines.

    Each quantile is a polyline of parallel (n, m) arrays in the
    :class:`QuantileFn` encoding: s nondecreasing from 0 to 1, a repeated
    s is a jump, a repeated x an atom.  On each interval u0 < u1 of
    :func:`_merge_levels` both quantiles are affine.  Returns the masses
    h of the merged intervals, the flat indices at where h != 0 (mass, or
    a nan row) and their rows, and there the one-sided values Q_a(u0+),
    Q_a(u1-), Q_b(u0+), Q_b(u1-).
    """
    u, h, ja, jb = _merge_levels(sa, sb)
    at = np.flatnonzero(h != 0.0)
    row = at // h.shape[1]
    u0, u1 = u.ravel()[at + row], u.ravel()[at + row + 1]
    out = [h, at, row]
    for s, x, j in ((sa, xa, ja), (sb, xb, jb)):
        i = j.ravel()[at] + row * s.shape[1]
        s, x = s.ravel(), x.ravel()
        s0, x0 = s[i], x[i]
        ds = s[i + 1] - s0
        slope = (x[i + 1] - x0) / np.where(ds > 0.0, ds, 1.0)
        out += [x0 + (u0 - s0) * slope, x0 + (u1 - s0) * slope]
    return out


def wp_rows(sa: np.ndarray, xa: np.ndarray, sb: np.ndarray, xb: np.ndarray,
            p: float) -> np.ndarray:
    """Exact W_p (W_inf for p = inf) between piecewise-affine quantiles,
    one pair per row (see :func:`_merge_rows` for the encoding).

    Q_a - Q_b is affine on each merged interval, so W_inf is the largest
    one-sided value and W_p^p a sum of closed-form segment integrals over
    the intervals that carry mass, the only ones computed; nan rows give nan.
    """
    h, at, row, a0, a1, b0, b1 = _merge_rows(sa, xa, sb, xb)
    w = h.ravel()[at]  # positive masses, or the nan ones of nan rows
    d0 = np.where(w > 0.0, a0 - b0, w)
    d1 = np.where(w > 0.0, a1 - b1, w)
    M = np.zeros(len(h))
    np.maximum.at(M, row, np.maximum(np.abs(d0), np.abs(d1)))
    if math.isinf(p):
        return M
    scale = np.where(M > 0.0, M, 1.0)[row]
    terms = np.zeros(h.shape)  # summed in the full rows' pairwise grouping
    terms.ravel()[at] = _segment_lp(d0 / scale, d1 / scale, w, p)
    return M * np.sum(terms, axis=-1) ** (1.0 / p)


def _clip_levels(cum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into out, one column wider than cum, the levels of atoms with
    cumulative masses cum (positive): 0, then cum clipped to 1, the last
    one at 1."""
    np.minimum(cum, 1.0, out=out[:, 1:])
    out[:, 0], out[:, -1] = 0.0, 1.0
    return out


def _equal_levels(w: np.ndarray):
    """The levels i * w of equal weights as one row, shared by every row
    of atoms since no sort reorders them; None for unequal weights."""
    if not np.all(w == w[0]):
        return None
    return _clip_levels(np.arange(1, w.size + 1)[None, :] * w[0], np.empty((1, w.size + 1)))


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
    :func:`_power_scale` of its largest d first.  d is overwritten."""
    scale = _power_scale(d.max(axis=1), p)
    if np.ndim(scale):
        d /= scale[:, None]
    if p != 1.0:
        d **= p
    if h.ndim == 1:
        return scale * (d @ h) ** (1.0 / p)
    d *= h
    return scale * d.sum(axis=1) ** (1.0 / p)


def _mass_steps(ia: np.ndarray, n: int):
    """The steps ia of one side on the intervals that carry mass, or None
    where they are 0..n-1: the sorted rows then need no gather."""
    return None if np.array_equal(ia, np.arange(n)) else ia


def _rows_from(r: int, m: int) -> np.ndarray:
    """The flat index of the first of m values in each of r rows."""
    return np.arange(0, r * m, m)[:, None]


class _Workspace:
    """Flat buffers that one call allocates once and every batch reuses.
    ws(name, r, m) is the first r rows of m values of the buffer called
    name, C-contiguous, as a fresh (r, m) array would be.  The buffer is
    allocated at its first use for the call's largest batch of rows, and
    again where a later use needs wider rows."""

    def __init__(self, rows: int):
        self.rows, self.bufs = rows, {}

    def __call__(self, name: str, r: int, m: int, dtype=float) -> np.ndarray:
        buf = self.bufs.get(name)
        if buf is None or buf.size < self.rows * m:
            buf = self.bufs[name] = np.empty(self.rows * m, dtype)
        return buf[:r * m].reshape(r, m)


def _equal_path(xa: np.ndarray, xb: np.ndarray, h: np.ndarray, ia, ib, p: float,
                batch: np.ndarray, ws: _Workspace):
    """Equal weights: project each cloud into its own buffer and sort it
    in place, then subtract the sorted rows on the intervals of masses h
    that carry mass, after the gather ia or ib of a side whose atoms
    cover more than one."""
    r = len(batch)
    sa = np.matmul(batch, xa.T, out=ws("a", r, len(xa)))
    sb = np.matmul(batch, xb.T, out=ws("b", r, len(xb)))
    sa.sort(axis=1)
    sb.sort(axis=1)
    d = ws("d", r, h.size)
    if ia is not None:
        sa = np.take(sa, ia, axis=1, out=d, mode="clip")
    if ib is not None:
        out = d if ia is None else ws("gather", r, h.size)
        sb = np.take(sb, ib, axis=1, out=out, mode="clip")
    np.abs(np.subtract(sa, sb, out=d), out=d)
    return _lp_rows(d, h, p)


def _cdf_gap_path(xa: np.ndarray, xb: np.ndarray, signed: np.ndarray,
                  batch: np.ndarray, ws: _Workspace):
    """W_1 of each row pair as the integral of |F_a - F_b|: the sum of
    |F_a - F_b| * gap over the gaps between consecutive positions of the
    joint row [xa | xb] of projections, where F_a - F_b is the running
    sum of the signed weights [wa | -wb] in the row's sorted order.  A
    gap where |F_a - F_b| <= MASS_TOL carries no mass, as in
    :func:`_merge_levels`; it is set to 0, so that it adds nothing even
    where it overflows.  Tied positions leave gaps of 0, so the sort need
    not be stable."""
    r, n = len(batch), signed.size
    x = ws("joint", r, n)
    np.matmul(batch, xa.T, out=x[:, :len(xa)])
    np.matmul(batch, xb.T, out=x[:, len(xa):])
    order = np.argsort(x, axis=1)
    f = np.take(signed, order[:, :-1], out=ws("f", r, n - 1), mode="clip")
    np.cumsum(f, axis=1, out=f)
    np.abs(f, out=f)
    order += _rows_from(r, n)
    srt = np.take(x.reshape(-1), order, out=ws("sorted", r, n), mode="clip")
    gap = np.subtract(srt[:, 1:], srt[:, :-1], out=ws("gap", r, n - 1))
    np.copyto(gap, 0.0, where=np.less_equal(f, MASS_TOL, out=ws("mask", r, n - 1, bool)))
    return _lp_rows(gap, f, 1.0)


def _merge_path(xa: np.ndarray, wa: np.ndarray, la, xb: np.ndarray, wb: np.ndarray, lb,
                p: float, batch: np.ndarray, ws: _Workspace):
    """Unequal weights at p != 1: project each cloud into its own buffer
    and sort it in place, with its levels la or lb (the shared row of
    equal weights, or None: the cumsums of the reordered weights), merge
    the levels of both sides in the workspace, and sum h * d^p over the
    intervals that carry mass; the differences on the others are set to
    0, so that none of them enters the sum or the scale."""
    r = len(batch)
    sides, levels = [], []
    for name, x, w, shared in (("a", xa, wa, la), ("b", xb, wb, lb)):
        side = np.matmul(batch, x.T, out=ws(name, r, w.size))
        sides.append(side)
        if shared is not None:
            side.sort(axis=1)
            levels.append(shared)
            continue
        # tied points share one quantile value, so the sort need not be stable
        order = np.argsort(side, axis=1)
        cum = np.take(w, order, out=ws("cum", r, w.size), mode="clip")
        levels.append(_clip_levels(np.cumsum(cum, axis=1, out=cum), ws("l" + name, r, w.size + 1)))
        order += _rows_from(r, w.size)
        np.copyto(side, np.take(side.reshape(-1), order, out=ws("sorted", r, w.size), mode="clip"))
    _, h, ia, ib = _merge_levels(*levels, ws)
    ia += _rows_from(r, wa.size)
    ib += _rows_from(r, wb.size)
    d = np.take(sides[0].reshape(-1), ia, out=ws("d", r, h.shape[1]), mode="clip")
    g = np.take(sides[1].reshape(-1), ib, out=ws("gather", r, h.shape[1]), mode="clip")
    np.abs(np.subtract(d, g, out=d), out=d)
    np.copyto(d, 0.0, where=np.equal(h, 0.0, out=ws("mask", r, h.shape[1], bool)))
    return _lp_rows(d, h, p)


def _wp_atoms(xa: np.ndarray, wa: np.ndarray, xb: np.ndarray, wb: np.ndarray,
              p: float, rows: int) -> Callable[[np.ndarray], np.ndarray]:
    """The kernel of exact W_p between the projections of two weighted
    point clouds: a function that takes a batch of at most rows directions
    and returns one value per direction.  xa (n_a, d) and xb (n_b, d) are
    the points, wa and wb their weights.  Both quantiles are step
    functions, so W_p^p is a finite sum of h * d^p over the intervals of
    :func:`_merge_levels` that carry mass (h > 0), with d the difference
    of the two atoms on each; see :func:`_lp_rows` for the scale.

    The kernel holds one :class:`_Workspace` of rows rows, which every
    batch reuses.  Each path projects a batch into buffers of it, one
    matmul per cloud as ``batch @ x.T`` takes it, and works in place.
    One matmul of both clouds stacked would move values in their last
    ulps on small clouds, since BLAS picks its kernels by the shapes.
    One of three paths, by the weights and p:

    * equal weights on both sides: the levels are merged once per call,
      and only the intervals that carry mass are kept.  A side whose
      atoms each cover one interval is its sorted row itself, and any
      other side is one gather (:func:`_equal_path`).
    * unequal weights at p = 1: W_1 is the integral of |F_a - F_b|, one
      sort of the joint row and no merge (:func:`_cdf_gap_path`).
    * unequal weights at p != 1: every batch sorts each side and merges
      its levels (:func:`_merge_path`).

    A nan position gives nan."""
    na, nb = wa.size, wb.size
    la, lb = _equal_levels(wa), _equal_levels(wb)
    if la is not None and lb is not None:
        _, h, ia, ib = _merge_levels(la, lb)
        mass = h[0] > 0.0
        path = functools.partial(_equal_path, xa, xb, h[0, mass], _mass_steps(ia[0, mass], na),
                                 _mass_steps(ib[0, mass], nb), p)
    elif p == 1.0:
        path = functools.partial(_cdf_gap_path, xa, xb, np.concatenate([wa, -wb]))
    else:
        path = functools.partial(_merge_path, xa, wa, la, xb, wb, lb, p)
    ws = _Workspace(rows)
    return lambda batch: path(batch, ws)


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
    diff = lambda y, k: np.subtract(*_sides(t.cdf, y, k, n))
    g = diff(x, xp)
    i = np.flatnonzero((g[:-1] * g[1:] < 0.0) & (xp[:-1] == xp[1:]))
    # a sign change already across the first ulp of a sign-change interval
    # (an atom, or the rounding of F at an arcsine end) puts the root at
    # its start, one only across the last ulp at its end
    a, b, ip, sign = x[i], x[i + 1], xp[i], -np.sign(g[i])
    probes = np.concatenate([np.nextafter(a, np.inf), np.nextafter(b, -np.inf)])
    ga, gb = np.split(np.tile(sign, 2) * diff(probes, np.tile(ip, 2)), 2)
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
    cuts = np.concatenate([q.s_breaks, *_sides(t.cdf, rx, rp, n)])
    return _row_unique(np.clip(cuts, 0.0, 1.0), np.concatenate([q.s_row % n, rp, rp]))


def _sides(f, x: np.ndarray, pair: np.ndarray, n: int):
    """f(x, pair) and f(x, pair + n), the mu and nu sides of the pairs at
    the points x (flat and parallel), as one evaluation f(points, rows)."""
    both = f(np.tile(x, 2), np.concatenate([pair, pair + n]))
    return both[:x.size], both[x.size:]


def _gap(f, u: np.ndarray, pair: np.ndarray, n: int) -> np.ndarray:
    """|Q_mu - Q_nu| at the levels u of the pairs (parallel and flat), as
    one evaluation f(levels, rows) of the quantiles of both sides."""
    a, b = _sides(f, u, pair, n)
    return np.abs(a - b)


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


def _panel_values(q: AnalyticQuantile, u0: np.ndarray, h: np.ndarray, at: np.ndarray,
                  n: int, scale: np.ndarray, p: float, counts) -> list:
    """The integral of (|Q_mu - Q_nu| / scale)^p over each panel [u0, u0 + h]
    of the pairs at, by the :func:`_panel_rule` of each node count in
    counts: one array per count, with the nodes of every count in one
    quantile pass.  Each pair's nodes of each count go through the same
    matrix product as alone, so its value does not depend on the other
    pairs or counts."""
    u = np.concatenate([(u0[:, None] + h[:, None] * _panel_rule(m)[0]).ravel() for m in counts])
    rows = np.concatenate([np.repeat(at, m) for m in counts])
    d = (_gap(q._at, u, rows, n) / scale[rows]) ** p
    out = []
    for block, m in zip(np.split(d, np.cumsum([at.size * m for m in counts])[:-1]), counts):
        block, w, val = block.reshape(at.size, m), _panel_rule(m)[1], np.empty(at.size)
        for run in _by_pair(at, n):
            val[run] = block[run] @ w
        out.append(val * h)
    return out


def _wp_numeric(t: MeasureRows, n: int, p: float) -> np.ndarray:
    """The first round takes the 16- and 32-node rules in one quantile
    pass; then the node count doubles on the panels whose value has not
    settled to _REL_QUAD_TOL relative between the last two rules, and one
    still unsettled at _MAX_NODES is an error."""
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
    todo, prev, counts = np.arange(u0.size), None, (16, 32)
    while todo.size:
        if counts[-1] > _MAX_NODES:
            raise MeasureError(f"W_p quadrature did not converge with {_MAX_NODES} nodes")
        *first, val = _panel_values(q, u0[todo], h[todo], pair[todo], n, scale, p, counts)
        prev = first[0] if first else prev
        # a non-finite value is final: the callers refuse it
        done = ~(np.abs(val - prev) > _REL_QUAD_TOL * np.maximum(np.abs(val), 1e-30))
        total[todo[done]] = val[done]
        todo, prev, counts = todo[~done], val[~done], (2 * counts[-1],)
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
    |g| is evaluated at the level of each root.  A start whose system is
    singular keeps no root, so no level is evaluated for it; the bound
    does not depend on the starts, and a translated pair, whose g is
    constant, gets its found value from the grid alone.  Each pair's
    values come from its own cells and roots only."""
    q = AnalyticQuantile(t)
    u, pair = _level_cuts(t, q, n)
    mass = (np.diff(u) > MASS_TOL) & (pair[1:] == pair[:-1])  # as in _merge_levels
    lo, hi, pair = u[:-1][mass], u[1:][mass], pair[:-1][mass]
    m = _SUP_GRID + 2
    levels = lo[:, None] + (hi - lo)[:, None] * (np.arange(m) / (m - 1))
    levels[:, -1] = hi  # Q(hi-) there, both sides in one evaluation
    left = np.tile(np.arange(m) == m - 1, 2 * lo.size)
    xa, xb = (v.reshape(levels.shape) for v in _sides(
        lambda u, r: q._at(u, r, left), levels.ravel(), np.repeat(pair, m), n))
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
        if ra.size:
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
    dropped on a step that is not finite.  A start is dropped at its
    first point where the Jacobian's determinant is at most _SINGULAR
    times the sum of the moduli of its two terms, a ratio equal to
    |Q_mu'' - Q_nu''| / (|Q_mu''| + |Q_nu''|): there Q_mu'' = Q_nu'' to
    working accuracy, as at every start of a translated pair.  Returns
    the indices of the roots kept and their levels, the mean of F_mu(a)
    and F_nu(b) at the last evaluated point."""
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
            terms = dF[1] * dinv[0], dF[0] * dinv[1]
            det = terms[0] - terms[1]
            # Q_mu'' = Q_nu'' to working accuracy at a start: the Newton
            # cannot move it, and a nan bound (inf * 0) drops nothing
            regular = step > 0 or ~(np.abs(det) <= _SINGULAR * (np.abs(terms[0]) + np.abs(terms[1])))
            dphi = np.stack([G1 * dinv[1] - dF[1] * G2, G1 * dinv[0] - dF[0] * G2]) / det
            nxt = phi + _HALVINGS[:, None, None] * dphi
            fits = (nxt >= low) & (nxt <= high)
            nxt = np.take_along_axis(nxt, np.argmax(fits, axis=0)[None], axis=0)[0]
            nxt = np.where(fits.any(axis=0), nxt, phi)
            xn = _x_of_phi(nxt, lo, hi, phi0, phi1, h)
        finite = np.isfinite(dphi).all(axis=0) & regular
        done = finite & ((np.abs(xn - x) <= tol[idx]).all(axis=0) | (step == _SUP_STEPS - 1))
        kept.append(idx[done])
        levels.append(0.5 * (F[0] + F[1])[done])
        go = finite & ~done
        state[5] = nxt
        state, idx = state[:, :, go], idx[go]
        if not idx.size:
            break
    return np.concatenate(kept), np.concatenate(levels)


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
    return _sup_bracket(t, n)[0] if math.isinf(p) else _wp_numeric(t, n, p)


def _finite(distance: Callable[[], float], what: str = "distance",
            inputs: str = "measures") -> float:
    """distance(), refused where it overflows with "<what> <value> is not
    finite: the <inputs> overflow".  The error takes the place of numpy's
    overflow warnings on the way, which are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = distance()
    if not math.isfinite(value):
        raise MeasureError(f"{what} {value} is not finite: the {inputs} overflow")
    return value


def _distance(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """W_p (W_inf for p = inf) of one pair, refused where it overflows: one
    row of :func:`wp_rows` if both are piecewise affine, else of
    :func:`wp_measure_rows`."""
    if mu.is_discrete_mixture and nu.is_discrete_mixture:
        qa, qb = mu.quantile_fn(), nu.quantile_fn()
        return _finite(lambda: float(wp_rows(qa.s[None], qa.x[None], qb.s[None], qb.x[None], p)[0]))
    return _finite(lambda: float(wp_measure_rows(MeasureRows.of([mu, nu]), p)[0]))


def wasserstein_p(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """W_p distance for finite p >= 1 via the quantile representation:
    exact per-segment closed form when both quantiles are piecewise affine,
    Gauss-Legendre on the panels of :func:`_level_cuts` otherwise.
    Non-integer p is supported."""
    if math.isinf(float(p)):
        raise MeasureError("use wasserstein_inf for p = infinity")
    return _distance(mu, nu, _exponent(p, "p"))


def wasserstein_inf(mu: Measure1D, nu: Measure1D) -> float:
    """W_inf as the sup of |Q_mu - Q_nu| over [0, 1]: exact over the merged
    breakpoints of piecewise-affine quantiles; otherwise the largest
    |Q_mu - Q_nu| on a grid of each panel of :func:`_level_cuts`, with its
    exact one-sided ends, and at the stationary points of Q_mu - Q_nu that
    a 2x2 Newton finds from every grid cell whose mean-value bound exceeds
    the grid's largest value (:func:`_sup_bracket`)."""
    return _distance(mu, nu, math.inf)


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
