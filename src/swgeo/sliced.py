"""Sliced Wasserstein distances for shell and circle mixtures, plus an
empirical path for weighted point clouds.

``sw_pq(a, b, p, q, dirs)`` is the q-mean over a direction set of the 1D
W_p between the projections of a and b; a value that overflows float64
raises MeasureError.  The q-mean divides the distances by the largest
where their q-th powers would leave float64 range, so that they stay in
range.  :func:`_distances` picks one of two batched kernels, and
:func:`_batched`, the one loop over direction batches, runs it; no
Measure1D is built on the way:

* shell mixtures project to unions of intervals and atoms.
  :func:`swgeo.families.radon_quantile_rows` builds the quantiles of
  both sides in one call, with s(theta) computed once, as the polyline
  rows of :func:`swgeo.measure1d.quantile_rows`, one point per endpoint,
  and :func:`swgeo.transport1d.wp_rows`, the exact kernel behind
  ``wasserstein_p``, merges the 4K levels of two rows of K components
  and integrates them.  The builder runs direction-minor (a pass over
  (n, 2K) tables pays a cost per row of 2-4 values) and hands wp_rows
  (n, 2K) rows.  Circle mixtures of points take the same kernel.
* other circle mixtures project to arcsine mixtures.
  :func:`swgeo.families.circle_rows` builds the projections onto every
  direction as rows of one table, and
  :func:`swgeo.transport1d.wp_measure_rows`, the numeric kernel behind
  ``wasserstein_p``, takes all directions and both sides in one Newton
  loop per step, in batches of rows.

Centered mixtures, whose centers are all exactly the origin, take a
shortcut: their projected quantiles scale linearly with s(theta) for
shells and do not depend on theta for circles, so W_p(proj a, proj b) =
s(theta) * V (s = 1 for circles) with V the kernel's one row at e1.  For
shells the q-mean then reduces to a moment of s(theta) over the nodes;
centered circles take V itself at every q.  A center off the origin by
any amount, a rounding error too, is off center.  The
nodes of :func:`swgeo.sphere.beta_directions` average functions of
s(theta) only, so sw_pq refuses them unless both mixtures are centered.

q = infinity: a finite node set only lower-bounds the supremum over the
sphere.  The supremum is taken over e1, the normalized shell-subspace
projections of all centers and center differences of positive finite
norm (an exact rule: a center 1e-300 off the origin counts), and the
nodes: every node for circles, and for shells at most _SUP_NODE_CAP of
them, those of largest s(theta).  Each vector is scaled by a power of
two before it is normalized, so that a subnormal one, whose norm would
round on the coarse subnormal grid, still gives a unit candidate.  The
order is e1, the centers, the center differences, then the nodes; a row
that repeats another stays, since it cannot change the max.  This is
exact for centered shells and circles, and a lower bound otherwise: on
moving translations of shell curves it fell up to 16 % below with 64
mc nodes, 10 % with 256, and 49 % with 1024, where the cap drops better
nodes.

``sw_pq_empirical`` is the same q-mean between weighted point clouds.
:func:`_batched` runs the kernel of :func:`swgeo.transport1d._wp_atoms`:
the exact 1D W_p of each direction, on the level merge that
``wasserstein_p`` uses, summed over the intervals that carry mass only.
It sorts and subtracts in place, in buffers allocated once per call: no
temporary grows with the direction count or is allocated per batch.  A
weighted cloud takes its sort order from one value sort of keys in a
buffer, with the flat position of each value in their low bits
(:func:`swgeo.transport1d._sort_rows`).  Two clouds of equal weights
merge their levels once per call, and each batch subtracts their sorted
rows directly: a cloud whose atoms each cover one interval needs no
gather (both, for clouds of one size; the larger, when one size divides
the other).  When a cloud has unequal weights and p = 1, each row merges
no levels: W_1 is the integral of |F_X - F_Y|, the sum of |F_X - F_Y|
times the gap between consecutive points of the joint sorted row, where
gaps with |F_X - F_Y| <= MASS_TOL carry no mass.  Unequal weights at
p != 1 merge the levels of every row.  Rows and q-means are scaled by
the same rule, :func:`swgeo.transport1d._power_scale`.

``w_p_radial`` is the full-dimensional W_p between a two-shell centered
mixture and the unit shell, transported by the radial map x -> x/|x|
(inner mass travels 1 - r_inner, outer mass stays): W_p^p =
inner_mass * (1 - r_inner)^p, and W_inf = 1 - r_inner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import families, measure1d, transport1d
from .families import CircleMixture, ShellMixture
from .measure1d import MeasureError
from .sphere import DirectionSet, _BetaNodes
from .transport1d import pairwise_deviation

__all__ = [
    "PointCloud",
    "sw_pq",
    "w_p_radial",
    "w_inf_circle",
    "sw_pq_empirical",
    "sample_shell",
    "sliced_geodesic_deviation",
    "empirical_w1d",
]

@dataclass(frozen=True)
class PointCloud:
    """Weighted points in R^d (weights positive, summing to 1)."""

    dim: int
    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        measure1d._weighted_rows(self, "points", "point")

    @property
    def n(self) -> int:
        return self.points.shape[0]


# ----------------------------------------------------------- validation helpers


def _is_centered(mixture) -> bool:
    """Whether every center of the mixture is exactly the origin."""
    return not any(c.any() for _, _, c in mixture.components)


_SUP_NODE_CAP = 256


def _sup_directions(a, b, dirs: DirectionSet) -> np.ndarray:
    """Candidate directions for the q = infinity supremum (family-specific:
    unit-s directions aligned with centers, plus nodes), in this order:
    e1, the centers, the center differences (pairs i < j, i-major, over
    a's centers then b's), then the nodes.  Large shell node sets are
    capped at the directions of largest shell-subspace component, where
    the families treated here attain their suprema; circles take every
    node.  Repeated rows stay: they cannot change the max."""
    d = dirs.dim
    shell = isinstance(a, ShellMixture)
    centers = np.array([c for _, _, c in a.components + b.components])
    if shell:
        centers = centers[:, :3]
    i, j = np.triu_indices(len(centers), 1)  # the pairs i < j, i-major
    with np.errstate(over="ignore"):  # a difference that overflows adds no candidate
        vecs = np.concatenate([centers, centers[i] - centers[j]])
    big = np.abs(vecs).max(axis=1)
    keep = (big > 0.0) & (big < math.inf)
    # exact: a subnormal row keeps all its bits
    vecs = np.ldexp(vecs[keep], -np.frexp(big[keep])[1][:, None])
    norms = np.array([math.hypot(*v) for v in vecs.tolist()])
    nodes = dirs.thetas
    if shell and nodes.shape[0] > _SUP_NODE_CAP:
        order = np.argsort(-np.linalg.norm(nodes[:, :3], axis=1), kind="stable")
        nodes = nodes[order[:_SUP_NODE_CAP]]
    arr = np.zeros((1 + len(vecs) + len(nodes), d))
    arr[0, 0] = 1.0
    arr[1:1 + len(vecs), :vecs.shape[1]] = vecs / norms[:, None]
    arr[1 + len(vecs):] = nodes
    return arr


# ------------------------------------------------------------------- sw_pq


def sw_pq(a, b, p: float, q: float, dirs: DirectionSet) -> float:
    """Sliced distance: q-mean over the direction set of the 1D W_p
    between the projections of a and b (sup over directions for q = inf).
    Centered circles take their one 1D distance at every q.  Beta nodes
    raise MeasureError unless both mixtures are centered.
    """
    p, q = measure1d._exponent(p, "p"), measure1d._exponent(q, "q")
    if type(a) is not type(b):
        raise MeasureError("mixtures must be of the same kind")
    if a.dim != b.dim or a.dim != dirs.dim:
        raise MeasureError(f"dimension mismatch: a={a.dim}, b={b.dim}, dirs={dirs.dim}")

    centered = _is_centered(a) and _is_centered(b)
    if isinstance(dirs, _BetaNodes) and not centered:
        raise MeasureError("beta nodes average functions of s(theta) only: "
                           "off-center mixtures need mc nodes")
    if centered:
        # projections scale with s(theta) for shells and do not depend on
        # theta for circles: one 1D distance at e1 (s = 1, the sup) suffices
        v = float(_distances(a, b, p, np.eye(a.dim)[:1])[0])
        dist = lambda: v
        if isinstance(a, ShellMixture) and not math.isinf(q):
            dist = lambda: v * float(np.dot(dirs.weights, dirs.s_values() ** q) ** (1.0 / q))
    else:
        thetas = _sup_directions(a, b, dirs) if math.isinf(q) else dirs.thetas
        vals = _distances(a, b, p, thetas)
        dist = lambda: _qmean(vals, dirs.weights, q)
    return transport1d._finite(dist, "sliced distance", "mixtures")


def _qmean(vals: np.ndarray, weights: np.ndarray, q: float) -> float:
    """The q-mean of per-direction distances, their max for q = inf.  The
    distances are divided by the :func:`~swgeo.transport1d._power_scale`
    of the largest, so that their q-th powers stay in range: the q-mean of
    finite distances is at most their max, so it is finite.  A non-finite
    distance is left for transport1d._finite to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isinf(q):
            return float(vals.max())
        scale = float(transport1d._power_scale(vals.max(), q))
        return scale * float(np.dot(weights, (vals / scale) ** q) ** (1.0 / q))


# Values per batch of the polyline kernel, at 8K per row for K components:
# its largest temporaries, the merged levels of two rows, hold 4K per row.
_BATCH_VALUES = 1 << 18

# Values per pair of projections with K components and per K^2, for
# batches of _BATCH_VALUES in the arcsine kernel: traced on mixtures of
# 1-3 circles, its live arrays peaked at 1700-5000 K^2 values per pair.
_ARCSINE_PAIR_VALUES = 2048


def _batched(kernel, thetas: np.ndarray, rows: int) -> np.ndarray:
    """kernel(batch) for every batch of at most rows rows of thetas, in
    order, into one output.  Overflow and invalid warnings are silenced:
    every caller refuses a non-finite result."""
    out = np.empty(len(thetas))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(thetas), rows):
            out[i:i + rows] = kernel(thetas[i:i + rows])
    return out


def _point_rows(mixtures, thetas: np.ndarray):
    """The quantile polylines of the projections of circle mixtures of
    points onto every row of thetas, one (s, x) per mixture as in
    :func:`swgeo.families.radon_quantile_rows`: one atom per point."""
    return [measure1d.quantile_rows(loc := families._circle_loci(cm, thetas), loc,
                                    np.array([w for w, _, _ in cm.components]))
            for cm in mixtures]


def _distances(a, b, p: float, thetas: np.ndarray) -> np.ndarray:
    """1D distance between the projections of a and b onto every row of
    thetas: the polyline kernel on shell rows or on the atoms of circle
    mixtures of points only, else the arcsine kernel on one table of both
    sides per batch."""
    k = max(len(a.components), len(b.components))
    if isinstance(a, ShellMixture):
        rows = families.radon_quantile_rows
    elif all(r <= families._RADIUS_EPS for m in (a, b) for _, r, _ in m.components):
        rows = _point_rows
    else:
        kernel = lambda batch: transport1d.wp_measure_rows(families.circle_rows((a, b), batch), p)
        return _batched(kernel, thetas, max(1, _BATCH_VALUES // (_ARCSINE_PAIR_VALUES * k * k)))
    kernel = lambda batch: transport1d.wp_rows(*sum(rows((a, b), batch), ()), p)
    return _batched(kernel, thetas, max(1, _BATCH_VALUES // (8 * k)))


# -------------------------------------------------------------- radial W_p


def _split_radial_pair(a: ShellMixture, b: ShellMixture):
    """Validate the concentric two-shell structure and return
    (inner_mass, inner_radius) of a; b must be the unit shell."""
    if a.dim != b.dim:
        raise MeasureError("dimension mismatch")
    if not (_is_centered(a) and _is_centered(b)):
        raise MeasureError("radial-map distance needs concentric mixtures "
                           "(optimality is established only there)")
    if len(b.components) != 1 or abs(b.components[0][1] - 1.0) > 1e-12:
        raise MeasureError("second argument must be the unit shell")
    outer = [(w, r) for w, r, _ in a.components if abs(r - 1.0) <= 1e-12]
    inner = [(w, r) for w, r, _ in a.components if r < 1.0 - 1e-12]
    if len(outer) + len(inner) != len(a.components) or len(inner) > 1:
        raise MeasureError("first argument must be a unit shell plus at most "
                           "one strictly inner shell")
    if not inner:
        return 0.0, 1.0
    (w_in, r_in), = inner
    return w_in, r_in


def w_p_radial(a: ShellMixture, b: ShellMixture, p: float) -> float:
    """Full-dimensional W_p between a centered two-shell mixture and the
    unit shell via the radial transport x -> x/|x|:
    W_p = (inner_mass * (1 - r_inner)^p)^{1/p}; W_inf = 1 - r_inner
    (the displacement of the inner shell)."""
    p = measure1d._exponent(p, "p")
    w_in, r_in = _split_radial_pair(a, b)
    if w_in == 0.0:
        return 0.0
    move = 1.0 - r_in
    if math.isinf(p):
        return move
    # stable form of (w_in * move^p)^(1/p); the naive power underflows at large p
    return float(move * w_in ** (1.0 / p))


def w_inf_circle(a: CircleMixture, b: CircleMixture) -> float:
    """Full-dimensional W_inf between t delta_0 + (1-t) unit-circle and the
    unit circle: as soon as the center carries mass, that mass must travel
    distance 1, so the value is 1 for every t > 0 and 0 at t = 0."""
    def split(cm: CircleMixture):
        if not _is_centered(cm):
            raise MeasureError("circle components must be centered")
        t_atom = 0.0
        for w, r, _ in cm.components:
            if r <= 1e-12:
                t_atom += w
            elif abs(r - 1.0) > 1e-12:
                raise MeasureError("circle radius must be 0 or 1")
        return t_atom

    ta, tb = split(a), split(b)
    return 0.0 if ta == tb else 1.0


# ------------------------------------------------------------ empirical path


# Values per batch of the empirical kernel, rows * (n_X + n_Y): its
# projection buffers then hold 128 KiB, the workspaces of the level merge
# of unequal weights at p != 1 rows * (n_X + n_Y + 2) values each, and
# those of the joint sort of unequal weights at p = 1 rows * (n_X + n_Y).
# The sort keys of weighted clouds carry a flat position of the batch in
# their low bits, at most 14 of them unless one row alone is wider.
# The kernel allocates them once per call.  Changing the size moves
# values in their last ulps, since BLAS results depend on the shape of a
# batch: a one-row batch projects through gemv rather than gemm, and the
# equal-weight row sums d @ h go through a gemv that takes four rows at
# a time and the rest apart.  At benchmark seed 1, 2 of the 16
# empirical-clouds values differ between 1 << 14 and 1 << 10, e.g.
# 0.31847376582981046 against ...035, both uniform-weight ops.
_EMPIRICAL_BATCH_VALUES = 1 << 14


def _empirical_rows(X: PointCloud, Y: PointCloud, p: float, thetas: np.ndarray) -> np.ndarray:
    """Exact 1D W_p between the projections of X and Y onto every row of
    thetas, through the empirical kernel in batches of rows."""
    rows = min(max(1, _EMPIRICAL_BATCH_VALUES // (X.n + Y.n)), len(thetas))
    kernel = transport1d._wp_atoms(X.points, X.weights, Y.points, Y.weights, p, rows)
    return _batched(kernel, thetas, rows)


def empirical_w1d(xa: np.ndarray, wa: np.ndarray,
                  xb: np.ndarray, wb: np.ndarray, p: float) -> float:
    """Exact W_p between two weighted atomic measures on R: the one-row
    call of the empirical kernel, with the direction [1.0].  Each side
    must be a valid one-dimensional :class:`PointCloud`, and p finite and
    >= 1, or MeasureError is raised; so is a distance that overflows."""
    if not math.isfinite(float(p)):
        raise MeasureError("empirical_w1d supports finite p only")
    p = measure1d._exponent(p, "p")
    a, b = (PointCloud(1, np.asarray(x, float)[..., None], w) for x, w in ((xa, wa), (xb, wb)))
    return transport1d._finite(lambda: float(_empirical_rows(a, b, p, np.ones((1, 1)))[0]))


def sw_pq_empirical(X: PointCloud, Y: PointCloud, p: float, q: float,
                    dirs: DirectionSet) -> float:
    """Sliced distance between weighted point clouds: exact 1D W_p between
    the projected atoms, then the q-mean over nodes.  The directions go
    through the empirical kernel in batches of rows.  A distance that
    overflows raises MeasureError.

    p = infinity is rejected: the sup of empirical quantile differences is
    dominated by sampling noise and carries no information about the
    underlying measures.
    """
    p, q = measure1d._exponent(p, "p"), measure1d._exponent(q, "q")
    if math.isinf(p):
        raise MeasureError("empirical sliced distances support finite p only")
    if X.dim != Y.dim or X.dim != dirs.dim:
        raise MeasureError("dimension mismatch between clouds and directions")
    vals = _empirical_rows(X, Y, p, dirs.thetas)
    return transport1d._finite(lambda: _qmean(vals, dirs.weights, q), "sliced distance", "clouds")


def _allocate_counts(n: int, weights: Sequence[float]) -> list[int]:
    """Deterministic largest-remainder allocation; every positive weight
    receives at least one draw."""
    w = np.asarray(weights, dtype=float)
    raw = n * w
    base = np.floor(raw).astype(int)
    rem = n - int(base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    for i in order[:rem]:
        base[i] += 1
    for i in range(base.size):  # guarantee representation
        if base[i] == 0:
            base[int(np.argmax(base))] -= 1
            base[i] += 1
    return base.tolist()


def sample_shell(sm: ShellMixture, n: int, seed: int) -> PointCloud:
    """n draws from a shell mixture, stratified by component weights.

    Counts per component use largest-remainder rounding; each draw from
    component i carries weight w_i / n_i so the cloud keeps the exact
    component masses.  Sphere points come from normalized 3D Gaussian
    draws embedded in span{e1, e2, e3}, scaled by the radius and shifted
    by the center.
    """
    n = measure1d._integer(n, "sample size")
    if n < len(sm.components):
        raise MeasureError(f"sample size {n} is smaller than the number of components")
    rng = measure1d._generator(seed)
    counts = _allocate_counts(n, [w for w, _, _ in sm.components])
    pts = np.empty((n, sm.dim))
    wts = np.empty(n)
    row = 0
    for (w, r, c), ni in zip(sm.components, counts):
        block = np.tile(c, (ni, 1))
        if r > 0.0:
            g = rng.standard_normal((ni, 3))
            block[:, :3] += r * g / np.linalg.norm(g, axis=1)[:, None]
        pts[row:row + ni] = block
        wts[row:row + ni] = w / ni
        row += ni
    return PointCloud(sm.dim, pts, wts)


# ------------------------------------------------------------ geodesic check


def sliced_geodesic_deviation(curve: Callable[[float], object], p: float,
                              q: float, dirs: DirectionSet,
                              grid: Sequence[float]) -> float:
    """Largest :func:`pairwise_deviation` of a mixture curve under sw_pq."""
    dist = lambda a, b: sw_pq(a, b, p, q, dirs)
    return max(row[4] for row in pairwise_deviation(curve, dist, grid))
