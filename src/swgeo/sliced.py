"""Sliced Wasserstein distances for shell and circle mixtures, plus an
empirical path for weighted point clouds.

``sw_pq(a, b, p, q, dirs)`` is the q-mean over a direction set of the 1D
W_p between the projections of a and b; a value that overflows float64
raises MeasureError.  The q-mean divides the distances by the largest
where their q-th powers would leave float64 range, so that they stay in
range.  Three paths compute it:

* centered shell mixtures: when every component of both mixtures is
  centered at the origin, the projected quantiles scale linearly with
  s(theta), so W_p(proj a, proj b) = s(theta) * V with V computed once at
  theta = e1.  The q-mean then reduces to a moment of s(theta) over the
  nodes.
* all other shell mixtures (the production path): one array pass over
  every direction.  :func:`swgeo.families.radon_quantile_rows` builds the
  projected quantiles as rows of a polyline array, and
  :func:`swgeo.transport1d.wp_rows`, the exact kernel behind
  ``wasserstein_p``, merges and integrates the rows; no per-direction
  Measure1D is built.
* circle mixtures project to arcsine mixtures.  Centered ones take the
  centered path with s(theta) = 1.  For off-center ones
  :func:`swgeo.families.circle_rows` builds the projections onto every
  direction as rows of one table, and
  :func:`swgeo.transport1d.wp_measure_rows`, the numeric kernel behind
  ``wasserstein_p``, takes all directions and both sides in one Newton
  loop per step, in batches of rows.  Mixtures of points only project to
  atoms and go direction by direction through the exact path.

``sw_per_direction``, the path of the centered cases, projects onto one
theta with ``radon_project`` (or ``circle_project``) and then takes
``wasserstein_p``; the tests use it as the oracle for the batched paths.

q = infinity: a finite node set only lower-bounds the supremum over the
sphere.  The supremum is taken over e1, the normalized shell-subspace
projections of all centers and center differences, and the nodes (at
most _SUP_NODE_CAP of them, those of largest s(theta)).  This is exact
for centered shells and circles, and a lower bound otherwise: on moving
translations of shell curves it fell up to 16 % below with 64 mc nodes,
10 % with 256, and 49 % with 1024, where the cap drops better nodes.

``sw_pq_empirical`` is the same q-mean between weighted point clouds.  It
projects a batch of directions as rows, ``batch @ points.T``, and
:func:`swgeo.transport1d._wp_atoms` takes the exact 1D W_p of every row
on the level merge that ``wasserstein_p`` uses, summed over the intervals
that carry mass only.  Two clouds of equal weights merge their levels
once per call, and each batch subtracts their sorted rows directly: a
cloud whose atoms each cover one interval needs no gather (both, for
clouds of one size; the larger, when one size divides the other).  Rows
and q-means are scaled by the same rule,
:func:`swgeo.transport1d._power_scale`.

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

from . import families, transport1d
from .families import CircleMixture, ShellMixture, circle_project, radon_project
from .measure1d import MASS_TOL, MeasureError
from .sphere import DirectionSet
from .transport1d import pairwise_deviation, wasserstein_inf, wasserstein_p

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

_CENTER_EPS = 1e-14


@dataclass(frozen=True)
class PointCloud:
    """Weighted points in R^d (weights positive, summing to 1)."""

    dim: int
    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise MeasureError("points must be an (n, d) array")
        if w.shape != (pts.shape[0],):
            raise MeasureError("weights must parallel the points")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise MeasureError("points and weights must be finite")
        if np.any(w <= 0.0):
            raise MeasureError("weights must be positive")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise MeasureError("weights must sum to 1 within 1e-12")

    @property
    def n(self) -> int:
        return self.points.shape[0]


# ----------------------------------------------------------- validation helpers


def _check_pq(p: float, q: float):
    p, q = float(p), float(q)
    if p < 1.0:
        raise MeasureError("p must be >= 1")
    if q < 1.0:
        raise MeasureError("q must be >= 1")
    return p, q


def _is_centered(mixture) -> bool:
    return all(math.hypot(*c) <= _CENTER_EPS for _, _, c in mixture.components)


_SUP_NODE_CAP = 256


def _sup_directions(a, b, dirs: DirectionSet) -> np.ndarray:
    """Candidate directions for the q = infinity supremum (family-specific:
    unit-s directions aligned with centers, plus nodes).  Large node sets
    are capped at the directions of largest shell-subspace component,
    where the families treated here attain their suprema."""
    d = dirs.dim
    cands: list[np.ndarray] = []
    e1 = np.zeros(d)
    e1[0] = 1.0
    cands.append(e1)
    shell = isinstance(a, ShellMixture)
    centers = [c for _, _, c in a.components] + [c for _, _, c in b.components]
    vecs = list(centers)
    with np.errstate(over="ignore"):  # a difference that overflows adds no candidate
        vecs += [c1 - c2 for i, c1 in enumerate(centers) for c2 in centers[i + 1:]]
    for v in vecs:
        u = v[:3].copy() if shell else v.copy()
        nrm = math.hypot(*u)
        if 1e-12 < nrm < math.inf:
            u = u / nrm
            full = np.zeros(d)
            full[:u.size] = u
            cands.append(full)
    nodes = dirs.thetas
    if nodes.shape[0] > _SUP_NODE_CAP:
        if shell:
            order = np.argsort(-np.linalg.norm(nodes[:, :3], axis=1),
                               kind="stable")
        else:
            order = np.arange(nodes.shape[0])
        nodes = nodes[order[:_SUP_NODE_CAP]]
    cands.extend(nodes)
    arr = np.array(cands)
    _, idx = np.unique(np.round(arr, 12), axis=0, return_index=True)
    return arr[np.sort(idx)]


# ------------------------------------------------------------------- sw_pq


def sw_pq(a, b, p: float, q: float, dirs: DirectionSet) -> float:
    """Sliced distance: q-mean over the direction set of the 1D W_p
    between the projections of a and b (sup over directions for q = inf).
    """
    p, q = _check_pq(p, q)
    if type(a) is not type(b):
        raise MeasureError("mixtures must be of the same kind")
    if a.dim != b.dim or a.dim != dirs.dim:
        raise MeasureError(f"dimension mismatch: a={a.dim}, b={b.dim}, dirs={dirs.dim}")

    shell = isinstance(a, ShellMixture)
    if _is_centered(a) and _is_centered(b):
        # projections scale with s(theta) for shells and do not depend on
        # theta for circles: one 1D distance at e1 (s = 1, the sup) suffices
        v = sw_per_direction(a, b, p, np.eye(a.dim)[0])
        s = dirs.s_values() if shell else np.ones(dirs.n)
        val = v if math.isinf(q) else v * float(np.dot(dirs.weights, s ** q) ** (1.0 / q))
    else:
        thetas = _sup_directions(a, b, dirs) if math.isinf(q) else dirs.thetas
        distances = _shell_distances if shell else _circle_distances
        vals = distances(a, b, p, thetas)
        val = _qmean(vals, dirs.weights, q)
    return _finite(val, "mixtures")


def _qmean(vals: np.ndarray, weights: np.ndarray, q: float) -> float:
    """The q-mean of per-direction distances, their max for q = inf.  The
    distances are divided by the :func:`~swgeo.transport1d._power_scale`
    of the largest, so that their q-th powers stay in range: the q-mean of
    finite distances is at most their max, so it is finite.  A non-finite
    distance is left for _finite to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isinf(q):
            return float(vals.max())
        scale = float(transport1d._power_scale(vals.max(), q))
        return scale * float(np.dot(weights, (vals / scale) ** q) ** (1.0 / q))


def _finite(val: float, what: str) -> float:
    if not math.isfinite(val):
        raise MeasureError(f"sliced distance {val} is not finite: the {what} overflow")
    return val


# Values per batch of the shell kernel: its largest temporaries hold
# rows * 2K * K values for K components.
_BATCH_VALUES = 1 << 18


def _shell_distances(a: ShellMixture, b: ShellMixture, p: float,
                     thetas: np.ndarray) -> np.ndarray:
    """1D distance between the projections of a and b onto every row of
    thetas, as array passes over batches of rows."""
    k = max(len(a.components), len(b.components))
    step = max(1, _BATCH_VALUES // (2 * k * k))
    with np.errstate(over="ignore", invalid="ignore"):  # sw_pq refuses an overflow
        return np.concatenate([
            transport1d.wp_rows(*families.radon_quantile_rows(a, batch),
                                *families.radon_quantile_rows(b, batch), p)
            for batch in np.split(thetas, range(step, len(thetas), step))])


# Values per pair of projections with K components and per K^2, for
# batches of _BATCH_VALUES in the arcsine kernel: traced on mixtures of
# 1-3 circles, its live arrays peaked at 1700-5000 K^2 values per pair.
_ARCSINE_PAIR_VALUES = 2048


def _circle_distances(a: CircleMixture, b: CircleMixture, p: float,
                      thetas: np.ndarray) -> np.ndarray:
    """1D distance between the projections of a and b onto every row of
    thetas.  Arcsine projections go through the numeric kernel as the
    rows of one table per batch of rows; two mixtures of point masses
    project to atoms only and take the exact per-direction path."""
    if all(r <= families._RADIUS_EPS for m in (a, b) for _, r, _ in m.components):
        return np.array([sw_per_direction(a, b, p, theta) for theta in thetas])
    k = max(len(a.components), len(b.components))
    step = max(1, _BATCH_VALUES // (_ARCSINE_PAIR_VALUES * k * k))
    with np.errstate(over="ignore", invalid="ignore"):  # sw_pq refuses an overflow
        return np.concatenate([
            transport1d.wp_measure_rows(families.circle_rows((a, b), batch), p)
            for batch in np.split(thetas, range(step, len(thetas), step))])


def sw_per_direction(a, b, p: float, theta) -> float:
    """W_p between the projections of a and b onto a single direction, one
    Measure1D per mixture: the centered paths of sw_pq, and the tests'
    oracle for its batched paths."""
    p = float(p)
    if p < 1.0:
        raise MeasureError("p must be >= 1")
    if isinstance(a, ShellMixture):
        ma, mb = radon_project(a, theta), radon_project(b, theta)
    elif isinstance(a, CircleMixture):
        ma, mb = circle_project(a, theta), circle_project(b, theta)
    else:
        raise MeasureError(f"unsupported mixture type {type(a).__name__}")
    if math.isinf(p):
        return wasserstein_inf(ma, mb)
    return wasserstein_p(ma, mb, p)


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
    p = float(p)
    if p < 1.0:
        raise MeasureError("p must be >= 1")
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
        t_atom = 0.0
        for w, r, c in cm.components:
            if math.hypot(*c) > 1e-12:
                raise MeasureError("circle components must be centered")
            if r <= 1e-12:
                t_atom += w
            elif abs(r - 1.0) > 1e-12:
                raise MeasureError("circle radius must be 0 or 1")
        return t_atom

    ta, tb = split(a), split(b)
    return 0.0 if ta == tb else 1.0


# ------------------------------------------------------------ empirical path


# Values per batch of the empirical kernel, rows * (n_X + n_Y): the
# projections then hold 128 KiB, and the level merge of unequal weights
# rows * (n_X + n_Y + 2) values per temporary.  On 2000-point clouds this
# ran faster than 1 << 15, and far faster than the shell kernel's
# _BATCH_VALUES.
_EMPIRICAL_BATCH_VALUES = 1 << 14


def empirical_w1d(xa: np.ndarray, wa: np.ndarray,
                  xb: np.ndarray, wb: np.ndarray, p: float) -> float:
    """Exact W_p between two weighted atomic measures on R: the one-row
    case of the empirical kernel.  A distance that overflows raises
    MeasureError."""
    batch = [(np.asarray(xa, float)[None, :], np.asarray(xb, float)[None, :])]
    return transport1d._finite(lambda: float(transport1d._wp_atoms(
        batch, np.asarray(wa, float), np.asarray(wb, float), float(p))[0]))


def sw_pq_empirical(X: PointCloud, Y: PointCloud, p: float, q: float,
                    dirs: DirectionSet) -> float:
    """Sliced distance between weighted point clouds: exact 1D W_p between
    the projected atoms, then the q-mean over nodes.  The directions go
    through the empirical kernel in batches of rows, ``batch @ points.T``.
    A distance that overflows raises MeasureError.

    p = infinity is rejected: the sup of empirical quantile differences is
    dominated by sampling noise and carries no information about the
    underlying measures.
    """
    p, q = _check_pq(p, q)
    if math.isinf(p):
        raise MeasureError("empirical sliced distances support finite p only")
    if X.dim != Y.dim or X.dim != dirs.dim:
        raise MeasureError("dimension mismatch between clouds and directions")
    thetas = dirs.thetas
    step = max(1, _EMPIRICAL_BATCH_VALUES // (X.n + Y.n))
    batches = ((batch @ X.points.T, batch @ Y.points.T)
               for batch in np.split(thetas, range(step, len(thetas), step)))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        vals = transport1d._wp_atoms(batches, X.weights, Y.weights, p)
    return _finite(_qmean(vals, dirs.weights, q), "clouds")


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
    if n < len(sm.components):
        raise MeasureError(f"sample size {n} is smaller than the number of components")
    rng = np.random.default_rng(seed)
    counts = _allocate_counts(n, [w for w, _, _ in sm.components])
    pts = np.empty((n, sm.dim))
    wts = np.empty(n)
    row = 0
    for (w, r, c), ni in zip(sm.components, counts):
        block = np.tile(c, (ni, 1))
        if r > 0.0:
            g = rng.standard_normal((ni, 3))
            norms = np.linalg.norm(g, axis=1)
            while np.any(norms < 1e-12):
                bad = norms < 1e-12
                g[bad] = rng.standard_normal((int(bad.sum()), 3))
                norms = np.linalg.norm(g, axis=1)
            block[:, :3] += r * g / norms[:, None]
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
