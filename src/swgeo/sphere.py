"""Directions on the unit sphere and the subspace-projection constant.

Two node families are provided.  ``mc_directions`` draws uniform
directions by normalizing standard Gaussian vectors (numpy's PCG64
generator, seeded, so node sets are reproducible).  ``beta_directions``
exploits that for a uniform direction theta in S^{d-1} the squared
length of its span{e1,e2,e3} component follows a Beta(3/2, (d-3)/2) law:
substituting s = sin(phi) turns moments of s into smooth integrals
2 sin^{2+q}(phi) cos^{d-4}(phi) on [0, pi/2], which Gauss-Legendre nodes
integrate to near machine precision.  The beta nodes are realized as
actual unit vectors s e1 + sqrt(1-s^2) e4, so they are valid whenever
the integrand depends on theta only through s(theta); their set is of a
private type, which :func:`swgeo.sliced.sw_pq` refuses off center.

``c_dq`` is the q-mean of s(theta) over the sphere; it equals 1 exactly
for d = 3 and for q = infinity, and lies in (0, 1] otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure1d import (MASS_TOL, MeasureError, _count, _exponent, _generator, _integer,
                        _weighted_rows)

__all__ = ["DirectionSet", "mc_directions", "beta_directions", "c_dq"]


@dataclass(frozen=True)
class DirectionSet:
    """Weighted nodes on S^{d-1} with recorded provenance."""

    dim: int
    thetas: np.ndarray  # (n, d), unit rows
    weights: np.ndarray  # (n,), positive, sums to 1
    provenance: str

    def __post_init__(self):
        _weighted_rows(self, "thetas", "node")
        norms = np.linalg.norm(self.thetas, axis=1)
        if np.any(np.abs(norms - 1.0) > MASS_TOL):
            raise MeasureError(f"all nodes must be unit vectors within {MASS_TOL:g}")

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    def s_values(self) -> np.ndarray:
        """s(theta) per node (norm of the first three coordinates)."""
        if self.dim < 3:
            raise MeasureError("s(theta) needs ambient dimension >= 3")
        return np.linalg.norm(self.thetas[:, :3], axis=1)


def mc_directions(d: int, n: int, seed: int) -> DirectionSet:
    """n uniform directions on S^{d-1}: normalized Gaussian draws with
    equal weights 1/n; deterministic for fixed (d, n, seed)."""
    d, n = _integer(d, "dimension"), _count(n, "node count")
    if d < 2:
        raise MeasureError("dimension must be >= 2")
    rng = _generator(seed)
    thetas = rng.standard_normal((n, d))
    thetas /= np.linalg.norm(thetas, axis=1)[:, None]
    weights = np.full(n, 1.0 / n)
    return DirectionSet(d, thetas, weights, f"monte-carlo(seed={seed}, n={n})")


class _BetaNodes(DirectionSet):
    """The nodes of :func:`beta_directions`: a DirectionSet that averages
    functions of s(theta) only."""


def beta_directions(d: int, n: int) -> DirectionSet:
    """Quadrature nodes for integrands that depend on theta only through
    s(theta).  For d = 3 the single node e1 is exact (s is identically 1);
    for d >= 4 the nodes are Gauss-Legendre in the substituted angle, each
    realized as the unit vector s e1 + sqrt(1-s^2) e4."""
    d, n = _integer(d, "dimension"), _count(n, "node count")
    if d < 3:
        raise MeasureError("beta quadrature needs ambient dimension >= 3")
    if d == 3:
        theta = np.zeros((1, 3))
        theta[0, 0] = 1.0
        return _BetaNodes(3, theta, np.array([1.0]), "beta-quadrature(n=1)")
    x, w = np.polynomial.legendre.leggauss(n)
    phi = 0.25 * math.pi * (x + 1.0)
    s = np.sin(phi)
    c = np.cos(phi)
    weights = w * s ** 2 * c ** (d - 4)
    weights = weights / weights.sum()
    thetas = np.zeros((n, d))
    thetas[:, 0] = s
    thetas[:, 3] = c
    return _BetaNodes(d, thetas, weights, f"beta-quadrature(n={n})")


def c_dq(d: int, q: float, method: str = "beta", n: int = 64,
         seed: int | None = None) -> float:
    """q-mean of s(theta) over the uniform sphere: (E s(theta)^q)^{1/q}.

    Exactly 1 for d = 3 (s is identically 1) and for q = infinity (the
    essential sup of s is 1).  Otherwise computed from a direction set:
    method "beta" (deterministic quadrature, the default) or "mc"
    (Monte Carlo with the given seed, kept as the independent check).
    The method, node count and seed are checked in every case, also
    where the value is exactly 1 and no direction is drawn.
    """
    d, n = _integer(d, "dimension"), _count(n, "node count")
    if d < 3:
        raise MeasureError("c_dq is defined for d >= 3")
    q = _exponent(q, "q")
    if method not in ("beta", "mc"):
        raise MeasureError(f"unknown method {method!r} (use 'beta' or 'mc')")
    if method == "mc":
        if seed is None:
            raise MeasureError("mc method needs a seed")
        _generator(seed)  # refuses a bad seed where no direction is drawn too
    if math.isinf(q) or d == 3:
        return 1.0
    ds = beta_directions(d, n) if method == "beta" else mc_directions(d, n, seed)
    s = ds.s_values()
    return float(np.dot(ds.weights, s ** q) ** (1.0 / q))
