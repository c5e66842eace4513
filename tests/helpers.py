"""Reference code that only the tests use: the per-direction sliced path,
one Measure1D per projection, as the oracle of the batched kernels of
``sw_pq``, and small constructors and comparisons of measures."""

import math

import numpy as np

import swgeo.families
import swgeo.sliced
import swgeo.transport1d
from swgeo.families import CircleMixture, ShellMixture
from swgeo.measure1d import ArcsinePart, Measure1D, MeasureError, PiecewiseLinearMap


def sw_per_direction(a, b, p: float, theta) -> float:
    """W_p between the projections of a and b onto a single direction, by
    radon_project (or circle_project) and then wasserstein_p, looked up on
    their modules at each call."""
    p = float(p)
    if not p >= 1.0:  # nan too
        raise MeasureError("p must be >= 1")
    if isinstance(a, ShellMixture):
        project = swgeo.families.radon_project
    elif isinstance(a, CircleMixture):
        project = swgeo.families.circle_project
    else:
        raise MeasureError(f"unsupported mixture type {type(a).__name__}")
    ma, mb = project(a, theta), project(b, theta)
    if math.isinf(p):
        return swgeo.transport1d.wasserstein_inf(ma, mb)
    return swgeo.transport1d.wasserstein_p(ma, mb, p)


def oracle_directions(a, b, q, dirs):
    return swgeo.sliced._sup_directions(a, b, dirs) if math.isinf(q) else dirs.thetas


def sup_directions_oracle(a, b, dirs):
    """The q = infinity candidates of sliced._sup_directions, built one
    vector at a time, repeated rows kept: the reference its array build
    must match bit for bit."""
    d = dirs.dim
    cands = [np.eye(d)[0]]
    shell = isinstance(a, ShellMixture)
    centers = [c for _, _, c in a.components] + [c for _, _, c in b.components]
    vecs = list(centers)
    with np.errstate(over="ignore"):
        vecs += [c1 - c2 for i, c1 in enumerate(centers) for c2 in centers[i + 1:]]
    for v in vecs:
        u = v[:3] if shell else v
        big = np.abs(u).max()
        if 0.0 < big < math.inf:
            u = np.ldexp(u, -math.frexp(big)[1])
            full = np.zeros(d)
            full[:u.size] = u / math.hypot(*u)
            cands.append(full)
    nodes = dirs.thetas
    if shell and nodes.shape[0] > swgeo.sliced._SUP_NODE_CAP:
        order = np.argsort(-np.linalg.norm(nodes[:, :3], axis=1), kind="stable")
        nodes = nodes[order[:swgeo.sliced._SUP_NODE_CAP]]
    cands.extend(nodes)
    return np.array(cands)


def loop_oracle(a, b, p, q, dirs):
    """sw_pq by the per-direction path: one projection -> wasserstein_p
    chain per direction, over the same direction (or sup candidate) set,
    and the same q-mean."""
    vals = np.array([sw_per_direction(a, b, p, th)
                     for th in oracle_directions(a, b, q, dirs)])
    return swgeo.sliced._qmean(vals, dirs.weights, q)


def mix(components) -> Measure1D:
    """Convex combination sum_i w_i * m_i of (w_i, m_i) (weights must sum
    to 1)."""
    atoms, pieces, parts = [], [], []
    for w, m in components:
        atoms.extend((p, w * mass) for p, mass in m.atoms)
        pieces.extend((lo, hi, w * rho) for lo, hi, rho in m.pieces)
        parts.extend(ArcsinePart(w * a.weight, a.center, a.radius) for a in m.arcsine_parts)
    return Measure1D.from_components(atoms, pieces, parts)


def isclose(m: Measure1D, other: Measure1D, tol: float = 1e-12) -> bool:
    """Breakpoint-level comparison of canonical forms."""
    fields = lambda x: (x.atoms, x.pieces,
                        tuple((a.weight, a.center, a.radius) for a in x.arcsine_parts))
    for mine, theirs in zip(fields(m), fields(other)):
        if len(mine) != len(theirs):
            return False
        if mine and not np.all(np.abs(np.subtract(mine, theirs)) <= tol):
            return False
    return True


def from_breakpoints(pts, left_slope: float = 0.0, right_slope: float = 0.0) -> PiecewiseLinearMap:
    """The map through the (x, y) breakpoints pts."""
    xs, ys = np.array(pts, dtype=float).T
    return PiecewiseLinearMap(xs, ys, left_slope, right_slope)


def left_limit(q, u, r=0):
    """Q(u-) of an AnalyticQuantile: the start of the gap Q jumps across at
    level u, else Q(u)."""
    return q(u, r, left=True)


def quantile_rows_by_row(lo, hi, v):
    """measure1d.quantile_rows as it was built row-wise, over (n, 2K)
    tables: the reference that the direction-minor builder must match bit
    for bit, since each level is the same sums in the same order.  The
    clamp is the reversed running minimum."""
    e = np.sort(np.concatenate([lo, hi], axis=1), axis=1)
    a, b = e[:, :-1], e[:, 1:]
    first = np.ones(a.shape, dtype=bool)
    first[:, 1:] = a[:, 1:] != a[:, :-1]
    atom = lo == hi
    steps, rho = np.zeros(e.shape), np.zeros(a.shape)
    masses, densities = np.where(atom, v, 0.0), np.where(atom, 0.0, v)
    for k in np.flatnonzero(~atom.all(axis=0)):
        rho += np.where((lo[:, k, None] <= a) & (hi[:, k, None] >= b), densities[:, k, None], 0.0)
    on = rho > 0.0
    np.multiply(rho, np.subtract(b, a, where=on, out=np.zeros(a.shape)), where=on,
                out=steps[:, 1:])
    for k in np.flatnonzero(atom.any(axis=0)):
        steps[:, 1:] += np.where(first & (a == lo[:, k, None]), masses[:, k, None], 0.0)
    s = np.cumsum(steps, axis=1)
    s[(s == s[:, -1:]) & (e == e[:, -1:])] = 1.0
    return np.minimum.accumulate(s[:, ::-1], axis=1)[:, ::-1], e
