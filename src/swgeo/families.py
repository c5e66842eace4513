"""Closed-form measure families and their projections.

The one-dimensional family ``mu_family(alpha, beta, t)`` interpolates
between the uniform measure on [-1, 1] and the mixture
``(1-alpha)/2 * Lebesgue[-1,1] + alpha * delta_beta`` by moving the mass
destined for the atom through a shrinking interval (the "ball") at
constant speed.  Its d-dimensional lift ``nu_family`` replaces the
interval by a spherical shell in span{e1, e2, e3}: a unit outer shell
losing mass to a shrinking inner shell that collapses onto a point.

Every projection onto a direction theta reduces the shell picture back to
the 1D family, scaled by ``s_of_theta`` (the length of theta's component
in the shell subspace); that identity is what makes these curves sliced
geodesics, and it is the backbone of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure1d import (MASS_TOL, ArcsinePart, Measure1D, MeasureError, MeasureRows,
                        _canonicalize)

__all__ = [
    "ShellMixture",
    "CircleMixture",
    "mu_family",
    "mu_curve",
    "w_p_mu01",
    "nu_family",
    "nu_curve",
    "transformed_nu_curve",
    "mixture_control_curve",
    "s_of_theta",
    "radon_project",
    "radon_quantile_rows",
    "dilate",
    "translate",
    "circle_project",
    "circle_rows",
    "circle_family",
    "shell_masses",
    "shell_to_text",
    "shell_from_text",
]

_UNIT_TOL = 1e-12
# below this projected radius a shell is numerically a point mass
_RADIUS_EPS = 1e-13


def _check_unit(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise MeasureError("direction must be a 1-D vector")
    if abs(np.linalg.norm(theta) - 1.0) > _UNIT_TOL:
        raise MeasureError("direction must be a unit vector (within 1e-12)")
    return theta


def _checked_components(components, dim: int) -> tuple:
    """Validated (weight, radius, center) triples of a shell or circle
    mixture: finite, weights positive and summing to 1, radii
    nonnegative, centers of length dim."""
    comps = []
    total = 0.0
    for w, r, c in components:
        w, r = float(w), float(r)
        c = np.asarray(c, dtype=float)
        if not (math.isfinite(w) and math.isfinite(r) and np.all(np.isfinite(c))):
            raise MeasureError("component weights, radii and centers must be finite")
        if w <= 0.0:
            raise MeasureError("component weights must be positive")
        if r < 0.0:
            raise MeasureError("component radii must be nonnegative")
        if c.shape != (dim,):
            raise MeasureError(f"center shape {c.shape} does not match d={dim}")
        comps.append((w, r, c))
        total += w
    if abs(total - 1.0) > MASS_TOL:
        raise MeasureError(f"component weights sum to {total!r}, not 1")
    return tuple(comps)


@dataclass(frozen=True)
class ShellMixture:
    """Weighted mixture of spherical-shell measures in R^d (d >= 3).

    Each component (weight, radius, center) is the normalized surface
    measure of the radius-r 2-sphere lying in span{e1, e2, e3}, shifted by
    the center; radius 0 is a point mass.  Centers may be arbitrary
    vectors in R^d (translations move them off the shell subspace), the
    spheres themselves always live in the first three coordinates.
    """

    dim: int
    components: tuple[tuple[float, float, np.ndarray], ...]

    def __post_init__(self):
        if self.dim < 3:
            raise MeasureError("shell mixtures need ambient dimension >= 3")
        object.__setattr__(self, "components",
                           _checked_components(self.components, self.dim))

    @classmethod
    def single(cls, dim: int, radius: float, center=None) -> "ShellMixture":
        c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
        return cls(dim, ((1.0, radius, c),))


@dataclass(frozen=True)
class CircleMixture:
    """Weighted mixture of circles (and points) in the plane; the unit
    circle projects to the arcsine measure in every direction."""

    components: tuple[tuple[float, float, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _checked_components(self.components, 2))

    @property
    def dim(self) -> int:
        return 2


# --------------------------------------------------------------- 1D family


def _check_mu_params(alpha: float, beta: float, t: float):
    if not 0.0 < alpha < 1.0:
        raise MeasureError(f"alpha must be in (0, 1), got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise MeasureError(f"beta must be in [-1, 1], got {beta}")
    if not 0.0 <= t <= 1.0:
        raise MeasureError(f"t must be in [0, 1], got {t}")


def mu_family(alpha: float, beta: float, t: float) -> Measure1D:
    """Constant-speed interpolant between uniform[-1,1] (t=0) and
    (1-alpha)/2 * Lebesgue[-1,1] + alpha * delta_beta (t=1).

    For t < 1 the density is (1-alpha)/(2(1-alpha(1-t))) on [-1, 1]
    outside the interval of radius alpha(1-t) centered at
    beta(1-alpha(1-t)), and 1/(2(1-t)) inside it.  The interval always
    stays inside [-1, 1]; the constructor checks this instead of
    clipping.
    """
    alpha, beta, t = float(alpha), float(beta), float(t)
    _check_mu_params(alpha, beta, t)
    if t == 1.0:
        return Measure1D.from_components(
            atoms=[(beta, alpha)],
            pieces=[(-1.0, 1.0, (1.0 - alpha) / 2.0)])
    r = alpha * (1.0 - t)
    m = beta * (1.0 - alpha * (1.0 - t))
    if abs(m) + r > 1.0 + 1e-12:
        raise MeasureError("interior interval escapes [-1, 1]")
    rho_out = (1.0 - alpha) / (2.0 * (1.0 - alpha * (1.0 - t)))
    rho_in = 1.0 / (2.0 * (1.0 - t))
    pieces = []
    if m - r > -1.0:
        pieces.append((-1.0, m - r, rho_out))
    pieces.append((m - r, m + r, rho_in))
    if m + r < 1.0:
        pieces.append((m + r, 1.0, rho_out))
    return Measure1D.from_components(pieces=pieces)


def mu_curve(alpha: float, beta: float) -> Callable[[float], Measure1D]:
    """The family as a closure t -> measure, for geodesic checks."""
    _check_mu_params(alpha, beta, 0.0)
    return lambda t: mu_family(alpha, beta, t)


def w_p_mu01(alpha: float, beta: float, p: float) -> float:
    """W_p between the t=0 and t=1 endpoints of ``mu_family``, in closed
    form.

    Integrating |T(s) - s|^p against uniform[-1,1] over the three branches
    of the optimal map gives

        W_p^p = [ (alpha/(1-alpha))^p ( ((1+beta)(1-alpha))^{p+1}
                                      + ((1-beta)(1-alpha))^{p+1} )
                  + (alpha(1+beta))^{p+1} + (alpha(1-beta))^{p+1} ] / (2(p+1))

    which collapses to alpha^p ((1+beta)^{p+1} + (1-beta)^{p+1}) / (2(p+1));
    for beta = 0 that is alpha^p/(p+1), i.e. W_p = alpha/(p+1)^{1/p}.
    Cross-validated against the quantile integration in the test suite.
    """
    alpha, beta, p = float(alpha), float(beta), float(p)
    _check_mu_params(alpha, beta, 0.0)
    if math.isinf(p):
        raise MeasureError("p must be finite here; W_inf of the endpoints "
                           "is alpha(1+|beta|) (alpha when beta = 0)")
    if p < 1.0:
        raise MeasureError("p must be >= 1")
    ratio = alpha / (1.0 - alpha)
    bracket1 = ratio ** p * (((1.0 + beta) * (1.0 - alpha)) ** (p + 1.0)
                             + ((1.0 - beta) * (1.0 - alpha)) ** (p + 1.0))
    bracket2 = (alpha * (1.0 + beta)) ** (p + 1.0) + (alpha * (1.0 - beta)) ** (p + 1.0)
    wpp = (bracket1 + bracket2) / (2.0 * (p + 1.0))
    return wpp ** (1.0 / p)


# ------------------------------------------------------------- shell family


def shell_masses(alpha: float, t: float) -> tuple[float, float]:
    """Mass split (outer unit shell, inner shrinking shell) along the
    shell curve: ((1-alpha)/(1-alpha+alpha t), alpha t/(1-alpha+alpha t)).

    The outer mass decreases and the inner mass grows with t while the
    two supports stay disjoint, so mass transfers between the components
    discontinuously ("hops") rather than flowing through the gap.
    """
    alpha, t = float(alpha), float(t)
    _check_mu_params(alpha, 0.0, t)
    denom = 1.0 - alpha * (1.0 - t)
    return (1.0 - alpha) / denom, alpha * t / denom


def nu_family(alpha: float, x, t: float, d: int) -> ShellMixture:
    """Shell-mixture curve: unit shell at the origin plus an inner shell
    of radius alpha(1-t) centered at x(1-alpha(1-t)).

    x must lie in the closed unit ball of span{e1, e2, e3} (given either
    as 3 or as d coordinates).  Weights are forced by normalization and
    by the requirement that every 1D projection reproduce ``mu_family``
    scaled by s(theta).
    """
    alpha, t = float(alpha), float(t)
    _check_mu_params(alpha, 0.0, t)
    d = int(d)
    if d < 3:
        raise MeasureError("nu_family needs ambient dimension >= 3")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = np.array([float(x), 0.0, 0.0])
    if x.shape == (3,):
        x = np.concatenate([x, np.zeros(d - 3)])
    if x.shape != (d,):
        raise MeasureError(f"x must have 3 or {d} coordinates")
    if np.any(np.abs(x[3:]) > _UNIT_TOL):
        raise MeasureError("x must lie in span{e1, e2, e3}")
    if np.linalg.norm(x) > 1.0 + _UNIT_TOL:
        raise MeasureError("x must lie in the closed unit ball")
    c_outer, c_inner = shell_masses(alpha, t)
    comps: list[tuple[float, float, np.ndarray]] = [(c_outer, 1.0, np.zeros(d))]
    if c_inner > 0.0:
        comps.append((c_inner, alpha * (1.0 - t), x * (1.0 - alpha * (1.0 - t))))
    return ShellMixture(d, tuple(comps))


def nu_curve(alpha: float, x, d: int) -> Callable[[float], ShellMixture]:
    return lambda t: nu_family(alpha, x, t, d)


def transformed_nu_curve(alpha: float, x, d: int, a: float, y, z
                         ) -> Callable[[float], ShellMixture]:
    """Curve t -> dilate(translate(nu(t), t*y + z), a): dilations and
    moving translations preserve the constant-speed property, giving a
    five-parameter family of geodesic curves."""
    a = float(a)
    y = np.zeros(d) if y is None else np.asarray(y, dtype=float)
    z = np.zeros(d) if z is None else np.asarray(z, dtype=float)
    if y.shape != (d,) or z.shape != (d,):
        raise MeasureError("y and z must be d-vectors")

    def curve(t: float) -> ShellMixture:
        return dilate(translate(nu_family(alpha, x, t, d), t * y + z), a)

    return curve


def mixture_control_curve() -> Callable[[float], Measure1D]:
    """Linear mixture t -> (1-t) uniform[-1,1] + t delta_0.

    Mixing weights linearly is not displacement interpolation; this curve
    fails constant-speed checks and serves as the negative control.
    """
    def curve(t: float) -> Measure1D:
        t = float(t)
        if t == 0.0:
            return Measure1D.uniform(-1.0, 1.0)
        if t == 1.0:
            return Measure1D.dirac(0.0)
        return Measure1D.from_components(
            atoms=[(0.0, t)], pieces=[(-1.0, 1.0, (1.0 - t) / 2.0)])

    return curve


# ---------------------------------------------------------------- transforms


def dilate(sm: ShellMixture, a: float) -> ShellMixture:
    """Pushforward under x -> a x: radii scale by |a|, centers by a."""
    a = float(a)
    return ShellMixture(sm.dim, tuple((w, abs(a) * r, a * c)
                                      for w, r, c in sm.components))


def translate(sm: ShellMixture, v) -> ShellMixture:
    """Pushforward under x -> x + v: centers shift, radii are unchanged."""
    v = np.asarray(v, dtype=float)
    if v.shape != (sm.dim,):
        raise MeasureError("translation vector must match the ambient dimension")
    return ShellMixture(sm.dim, tuple((w, r, c + v) for w, r, c in sm.components))


# --------------------------------------------------------------- projections


def s_of_theta(theta) -> float:
    """Length of the component of the unit vector theta in
    span{e1, e2, e3}; identically 1 when d = 3."""
    theta = _check_unit(theta)
    if theta.size < 3:
        raise MeasureError("s_of_theta needs ambient dimension >= 3")
    return float(np.linalg.norm(theta[:3]))


def _projected_intervals(sm: ShellMixture, thetas: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Projections of the components of sm onto every row of thetas: the
    intervals [theta.c - r s(theta), theta.c + r s(theta)] as (lo, hi) of
    shape (n, K).  lo == hi marks a point mass: a projected radius of at
    most _RADIUS_EPS, or one lost to rounding beside theta.c."""
    r = np.array([r for _, r, _ in sm.components])
    centers = np.array([c for _, _, c in sm.components])
    loc = thetas @ centers.T
    rs = np.linalg.norm(thetas[:, :3], axis=1)[:, None] * r
    lo, hi = loc - rs, loc + rs
    atom = (rs <= _RADIUS_EPS) | (hi <= lo)
    return np.where(atom, loc, lo), np.where(atom, loc, hi)


def radon_project(sm: ShellMixture, theta) -> Measure1D:
    """1D pushforward of a shell mixture under x -> x . theta.

    A shell of radius r centered at c projects to the uniform measure on
    [theta.c - r s(theta), theta.c + r s(theta)] (a point mass when the
    projected radius vanishes): slicing a sphere by parallel hyperplanes
    sweeps out equal areas, so the projection of its surface measure is
    flat.  Verified against Monte-Carlo projection of sphere samples in
    the tests.  It shares its intervals with :func:`radon_quantile_rows`.
    """
    theta = _check_unit(theta)
    if theta.shape != (sm.dim,):
        raise MeasureError("direction dimension does not match the mixture")
    lo, hi = (v[0].tolist() for v in _projected_intervals(sm, theta[None, :]))
    comps = [(w, a, b) for (w, _, _), a, b in zip(sm.components, lo, hi)]
    return Measure1D.from_components([(a, w) for w, a, b in comps if a == b],
                                     [(a, b, w / (b - a)) for w, a, b in comps if a < b])


def radon_quantile_rows(sm: ShellMixture, thetas: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Quantile functions of the projections of sm onto every row of the
    unit-row matrix thetas, as polylines (s, x) of shape (n, 4K) for K
    components, in the :class:`QuantileFn` encoding (a repeated s is a
    support gap, a repeated x an atom).

    The projections are those of :func:`radon_project`, for all rows at
    once.  The CDF is affine between consecutive interval endpoints, so
    the quantile joins the points (F(e-), e) and (F(e+), e) over the
    sorted endpoints e, each CDF value summed over the components
    directly rather than accumulated along the line.
    """
    w = np.array([w for w, _, _ in sm.components])
    lo, hi = _projected_intervals(sm, thetas)  # (n, K)
    atom = lo == hi
    ends = np.sort(np.concatenate([lo, hi], axis=1), axis=1)  # (n, 2K)
    e = ends[:, :, None]
    spread = np.clip((e - lo[:, None]) / np.where(atom, 1.0, hi - lo)[:, None], 0.0, 1.0)
    below = np.where(atom[:, None], e > lo[:, None], spread) @ w
    upto = np.where(atom[:, None], e >= lo[:, None], spread) @ w
    s = np.stack([below, upto], axis=2).reshape(ends.shape[0], -1)
    s[:, -1] = 1.0
    s = np.minimum.accumulate(s[:, ::-1], axis=1)[:, ::-1]  # clamp mass roundoff
    return s, np.repeat(ends, 2, axis=1)


def _circle_parts(cm: CircleMixture, thetas: np.ndarray):
    """The projections of cm onto every row of thetas, one list each of
    atoms (position, mass) and arcsine parts (weight, center, radius) per
    row.  Each theta.c is one dot product as np.dot takes it (a stacked
    1 x 2 @ 2 x 1 matmul calls it), whatever the number of rows."""
    w, r, c = (np.array(v) for v in zip(*cm.components))
    loc = (thetas[:, None, None, :] @ c[None, :, :, None])[:, :, 0, 0].tolist()
    comps = list(zip(w.tolist(), r.tolist()))
    return ([[(x, wi) for x, (wi, ri) in zip(row, comps) if ri <= _RADIUS_EPS] for row in loc],
            [[(wi, x, ri) for x, (wi, ri) in zip(row, comps) if ri > _RADIUS_EPS] for row in loc])


def circle_project(cm: CircleMixture, theta) -> Measure1D:
    """1D pushforward of a circle mixture: a radius-r circle centered at c
    projects to the arcsine measure on (theta.c - r, theta.c + r),
    independently of theta; radius 0 projects to a point mass."""
    theta = _check_unit(theta)
    if theta.shape != (2,):
        raise MeasureError("circle mixtures live in R^2")
    (atoms,), (parts,) = _circle_parts(cm, theta[None, :])
    return Measure1D.from_components(atoms=atoms,
                                     arcsine_parts=[ArcsinePart(*part) for part in parts])


def circle_rows(mixtures, thetas: np.ndarray) -> MeasureRows:
    """The projections of :func:`circle_project` of each circle mixture
    onto every row of the unit-row matrix thetas, as the rows of one
    table: mixture by mixture, and direction by direction within each.
    No Measure1D is built; the atoms are canonicalized as it would."""
    atoms, parts = [], []
    for cm in mixtures:
        row_atoms, row_parts = _circle_parts(cm, thetas)
        atoms += [_canonicalize(row, ())[0] if row else () for row in row_atoms]
        parts += row_parts
    return MeasureRows(atoms, [()] * len(atoms), parts)


def circle_family(t: float) -> CircleMixture:
    """Curve t -> t delta_0 + (1-t) (unit circle), the planar example
    whose full-dimensional W_inf stays 1 while every projection moves
    only O(t)."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise MeasureError("t must be in [0, 1]")
    comps: list[tuple[float, float, np.ndarray]] = []
    if t > 0.0:
        comps.append((t, 0.0, np.zeros(2)))
    if t < 1.0:
        comps.append((1.0 - t, 1.0, np.zeros(2)))
    return CircleMixture(tuple(comps))


# -------------------------------------------------------------------- text IO


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def shell_to_text(sm: ShellMixture) -> str:
    """Line format: ``shell <weight> <radius> <c1> ... <cd>``."""
    lines = []
    for w, r, c in sm.components:
        coords = " ".join(_fmt(v) for v in c)
        lines.append(f"shell {_fmt(w)} {_fmt(r)} {coords}")
    return "\n".join(lines) + "\n"


def shell_from_text(text: str) -> ShellMixture:
    comps: list[tuple[float, float, np.ndarray]] = []
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "shell" or len(fields) < 6:
            raise MeasureError(f"line {lineno}: expected "
                               f"'shell <weight> <radius> <c1> ... <cd>' with d >= 3")
        try:
            vals = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise MeasureError(f"line {lineno}: cannot parse {raw!r}: {exc}") from exc
        w, r, c = vals[0], vals[1], np.array(vals[2:])
        if dim is None:
            dim = c.size
        elif c.size != dim:
            raise MeasureError(f"line {lineno}: inconsistent ambient dimension")
        comps.append((w, r, c))
    if not comps:
        raise MeasureError("no shell records found")
    return ShellMixture(int(dim), tuple(comps))
