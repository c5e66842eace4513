"""One-dimensional probability measures with atoms, piecewise-constant
densities, and arcsine components.

CDF convention: ``F(x)`` is the mass of the open half-line ``(-inf, x)``,
so F is left-continuous and an atom sitting exactly at x is excluded from
F(x).  The generalized inverse is ``Q(s) = sup{x : F(x) <= s}``; where Q
jumps, the upper value is returned.  L^p distances between quantile
functions do not depend on this choice (the two conventions agree off a
countable set), so every transport quantity computed downstream is
convention-free.

The analytic catalog is closed: ``uniform(a, b)`` (which canonicalizes to
a single density piece and therefore stays on the exact piecewise path)
and ``arcsine`` (density ``1/(pi sqrt(1-x^2))`` on (-1, 1), quantile
``s -> sin(pi (s - 1/2))``), optionally scaled and shifted.  Measures
containing arcsine components are the "analytic" variant and use numeric
quantile inversion; everything else is the "discrete-mixture" variant
with exact piecewise-affine quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

MASS_TOL = 1e-12

__all__ = [
    "MASS_TOL",
    "MeasureError",
    "ArcsinePart",
    "Measure1D",
    "QuantileFn",
    "AnalyticQuantile",
    "PiecewiseLinearMap",
    "cdf_eval",
    "quantile",
    "pushforward_pwl",
    "sample",
    "measure_to_text",
    "measure_from_text",
]


class MeasureError(ValueError):
    """Invalid measure construction or operation on a measure."""


def _as_float(x) -> float:
    v = float(x)
    if not math.isfinite(v):
        raise MeasureError(f"non-finite value {x!r}")
    return v


@dataclass(frozen=True)
class ArcsinePart:
    """Weighted arcsine component: density ``w / (pi sqrt(r^2 - (x-c)^2))``
    on the open interval ``(c - r, c + r)``."""

    weight: float
    center: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if not (self.weight > 0.0):
            raise MeasureError("arcsine weight must be positive")
        if not (self.radius > 0.0):
            raise MeasureError("arcsine radius must be positive")

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.radius
        return 0.5 + np.arcsin(np.clip(z, -1.0, 1.0)) / np.pi

    def quantile(self, s):
        s = np.asarray(s, dtype=float)
        return self.center + self.radius * np.sin(np.pi * (s - 0.5))


def _canonicalize(atoms, pieces):
    """Sort, resolve overlaps, split at atom positions, and merge.

    Returns (atoms, pieces) with strictly increasing atom positions,
    pairwise-disjoint sorted pieces, pieces split at atom positions, and
    adjacent pieces of identical density merged.
    """
    atoms = [(_as_float(p), _as_float(m)) for (p, m) in atoms if m != 0.0]
    pieces = [(_as_float(lo), _as_float(hi), _as_float(rho)) for (lo, hi, rho) in pieces]
    for _, m in atoms:
        if m < 0.0:
            raise MeasureError("atom mass must be positive")
    for lo, hi, rho in pieces:
        if hi < lo:
            raise MeasureError(f"piece has hi < lo: ({lo}, {hi})")
        if rho < 0.0:
            raise MeasureError("piece density must be nonnegative")
    pieces = [p for p in pieces if p[1] > p[0] and p[2] > 0.0]

    # merge coincident atoms
    atoms.sort()
    merged_atoms: list[tuple[float, float]] = []
    for pos, m in atoms:
        if merged_atoms and pos - merged_atoms[-1][0] <= 1e-14 * max(1.0, abs(pos)):
            merged_atoms[-1] = (merged_atoms[-1][0], merged_atoms[-1][1] + m)
        else:
            merged_atoms.append((pos, m))

    if pieces:
        # sweep over elementary intervals; sum densities of covering pieces
        bounds = sorted({b for lo, hi, _ in pieces for b in (lo, hi)}
                        | {pos for pos, _ in merged_atoms
                           if any(lo < pos < hi for lo, hi, _ in pieces)})
        out_pieces: list[tuple[float, float, float]] = []
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            rho = sum(r for lo, hi, r in pieces if lo <= b0 and hi >= b1)
            if rho > 0.0:
                if out_pieces and out_pieces[-1][1] == b0 and out_pieces[-1][2] == rho \
                        and not any(pos == b0 for pos, _ in merged_atoms):
                    out_pieces[-1] = (out_pieces[-1][0], b1, rho)
                else:
                    out_pieces.append((b0, b1, rho))
        pieces = out_pieces

    return tuple(merged_atoms), tuple(pieces)


@dataclass(frozen=True)
class Measure1D:
    """Probability measure on R: atoms + piecewise-constant density +
    optional arcsine components.  Immutable; all operations are pure."""

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[tuple[float, float, float], ...] = ()
    arcsine_parts: tuple[ArcsinePart, ...] = ()

    # ------------------------------------------------------------ factories

    @classmethod
    def from_components(cls, atoms=(), pieces=(), arcsine_parts=()) -> "Measure1D":
        """Canonicalize and validate.  Total mass must be 1 within 1e-12;
        out-of-tolerance mass is rejected, never silently renormalized."""
        atoms, pieces = _canonicalize(atoms, pieces)
        parts = tuple(arcsine_parts)
        total = (sum(m for _, m in atoms)
                 + sum((hi - lo) * rho for lo, hi, rho in pieces)
                 + sum(p.weight for p in parts))
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(f"total mass {total!r} is not 1 within {MASS_TOL}")
        return cls(atoms=atoms, pieces=pieces, arcsine_parts=parts)

    @classmethod
    def uniform(cls, a: float, b: float) -> "Measure1D":
        """Uniform measure on [a, b] (catalog entry; exact piecewise form)."""
        a, b = _as_float(a), _as_float(b)
        if not b > a:
            raise MeasureError("uniform requires a < b")
        return cls.from_components(pieces=[(a, b, 1.0 / (b - a))])

    @classmethod
    def dirac(cls, x: float) -> "Measure1D":
        return cls.from_components(atoms=[(x, 1.0)])

    @classmethod
    def arcsine(cls, center: float = 0.0, radius: float = 1.0) -> "Measure1D":
        """Arcsine catalog measure on (center - radius, center + radius)."""
        return cls.from_components(arcsine_parts=[ArcsinePart(1.0, center, radius)])

    @classmethod
    def mix(cls, components: Iterable[tuple[float, "Measure1D"]]) -> "Measure1D":
        """Convex combination sum_i w_i * m_i (weights must sum to 1)."""
        atoms: list[tuple[float, float]] = []
        pieces: list[tuple[float, float, float]] = []
        parts: list[ArcsinePart] = []
        for w, m in components:
            w = _as_float(w)
            if w == 0.0:
                continue
            if w < 0.0:
                raise MeasureError("mixture weights must be nonnegative")
            atoms.extend((p, w * mass) for p, mass in m.atoms)
            pieces.extend((lo, hi, w * rho) for lo, hi, rho in m.pieces)
            parts.extend(ArcsinePart(w * a.weight, a.center, a.radius)
                         for a in m.arcsine_parts)
        return cls.from_components(atoms, pieces, parts)

    # ----------------------------------------------------------- properties

    @property
    def is_discrete_mixture(self) -> bool:
        return not self.arcsine_parts

    @cached_property
    def support(self) -> tuple[float, float]:
        los = [p for p, _ in self.atoms] + [lo for lo, _, _ in self.pieces] \
            + [a.center - a.radius for a in self.arcsine_parts]
        his = [p for p, _ in self.atoms] + [hi for _, hi, _ in self.pieces] \
            + [a.center + a.radius for a in self.arcsine_parts]
        if not los:
            raise MeasureError("empty measure")
        return (min(los), max(his))

    @cached_property
    def _atom_pos(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms], dtype=float)

    @cached_property
    def _atom_mass(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms], dtype=float)

    @cached_property
    def _atom_cum(self) -> np.ndarray:
        # cumulative atom mass strictly below each atom (for fast cdf)
        return np.concatenate([[0.0], np.cumsum(self._atom_mass)])

    # ----------------------------------------------------------- evaluation

    def cdf(self, x):
        """F(x) = mass of (-inf, x); left-continuous at atoms."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        if self.atoms:
            idx = np.searchsorted(self._atom_pos, x, side="left")
            out += self._atom_cum[idx]
        for lo, hi, rho in self.pieces:
            out += rho * np.clip(x - lo, 0.0, hi - lo)
        for part in self.arcsine_parts:
            out += part.weight * part.cdf(x)
        return out if out.ndim else float(out)

    def quantile_fn(self):
        """Generalized-inverse CDF: exact :class:`QuantileFn` for discrete
        mixtures, an :class:`AnalyticQuantile` evaluator otherwise."""
        if self.is_discrete_mixture:
            return _build_quantile(self)
        return AnalyticQuantile(self)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse-CDF sampling (numpy PCG64 generator)."""
        if n < 1:
            raise MeasureError("sample size must be >= 1")
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        return np.asarray(self.quantile_fn()(u), dtype=float)

    # -------------------------------------------------------------- algebra

    def scaled(self, a: float) -> "Measure1D":
        """Pushforward under x -> a*x (a != 0), computed exactly."""
        a = _as_float(a)
        if a == 0.0:
            raise MeasureError("scale factor must be nonzero")
        atoms = [(a * p, m) for p, m in self.atoms]
        if a > 0:
            pieces = [(a * lo, a * hi, rho / a) for lo, hi, rho in self.pieces]
        else:
            pieces = [(a * hi, a * lo, rho / -a) for lo, hi, rho in self.pieces]
        parts = [ArcsinePart(pt.weight, a * pt.center, abs(a) * pt.radius)
                 for pt in self.arcsine_parts]
        return Measure1D.from_components(atoms, pieces, parts)

    def shifted(self, c: float) -> "Measure1D":
        """Pushforward under x -> x + c."""
        c = _as_float(c)
        return Measure1D.from_components(
            [(p + c, m) for p, m in self.atoms],
            [(lo + c, hi + c, rho) for lo, hi, rho in self.pieces],
            [ArcsinePart(pt.weight, pt.center + c, pt.radius)
             for pt in self.arcsine_parts])

    # ------------------------------------------------------------- equality

    def isclose(self, other: "Measure1D", tol: float = 1e-12) -> bool:
        """Breakpoint-level comparison of canonical forms."""
        if len(self.atoms) != len(other.atoms) or len(self.pieces) != len(other.pieces) \
                or len(self.arcsine_parts) != len(other.arcsine_parts):
            return False
        for (p1, m1), (p2, m2) in zip(self.atoms, other.atoms):
            if abs(p1 - p2) > tol or abs(m1 - m2) > tol:
                return False
        for (lo1, hi1, r1), (lo2, hi2, r2) in zip(self.pieces, other.pieces):
            if abs(lo1 - lo2) > tol or abs(hi1 - hi2) > tol or abs(r1 - r2) > tol:
                return False
        for a1, a2 in zip(self.arcsine_parts, other.arcsine_parts):
            if abs(a1.weight - a2.weight) > tol or abs(a1.center - a2.center) > tol \
                    or abs(a1.radius - a2.radius) > tol:
                return False
        return True


# ------------------------------------------------------------------ quantiles


@dataclass(frozen=True)
class QuantileFn:
    """Piecewise-affine generalized inverse CDF on [0, 1].

    Breakpoints are given by parallel arrays ``s`` (nondecreasing, first 0,
    last 1) and ``x`` (nondecreasing).  Repeated s-values encode jumps
    (support gaps of the measure); repeated x-values over an s-interval
    encode atoms.  Evaluation follows the sup convention: at a jump the
    upper x is returned.
    """

    s: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        s, x = np.asarray(self.s, float), np.asarray(self.x, float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "x", x)
        if s.ndim != 1 or s.shape != x.shape or s.size < 2:
            raise MeasureError("quantile breakpoints must be parallel 1-D arrays")
        if np.any(np.diff(s) < 0) or np.any(np.diff(x) < 0):
            raise MeasureError("quantile breakpoints must be nondecreasing")
        if s[0] != 0.0 or s[-1] != 1.0:
            raise MeasureError("quantile s-range must be exactly [0, 1]")

    @property
    def s_breaks(self) -> np.ndarray:
        return np.unique(self.s)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        j = np.searchsorted(self.s, u, side="right") - 1
        j = np.clip(j, 0, self.s.size - 2)
        s0, s1 = self.s[j], self.s[j + 1]
        x0, x1 = self.x[j], self.x[j + 1]
        width = s1 - s0
        frac = np.where(width > 0, (u - s0) / np.where(width > 0, width, 1.0), 1.0)
        out = x0 + np.clip(frac, 0.0, 1.0) * (x1 - x0)
        return out if out.ndim else float(out)


class AnalyticQuantile:
    """Quantile evaluator for measures with arcsine components.

    A pure arcsine catalog measure uses its closed-form quantile; general
    mixtures invert the CDF by vectorized bisection (the CDF is monotone,
    and the sup convention resolves flat spots to the right endpoint).
    """

    def __init__(self, measure: Measure1D):
        self.measure = measure
        self._pure = (len(measure.arcsine_parts) == 1
                      and not measure.atoms and not measure.pieces
                      and abs(measure.arcsine_parts[0].weight - 1.0) <= MASS_TOL)
        lo, hi = measure.support
        span = hi - lo
        self._lo, self._hi = lo - 1e-9 * max(1.0, span), hi + 1e-9 * max(1.0, span)
        self.s_breaks = self._collect_breaks()

    def _collect_breaks(self) -> np.ndarray:
        m = self.measure
        xs: list[float] = []
        xs.extend(p for p, _ in m.atoms)
        xs.extend(b for lo, hi, _ in m.pieces for b in (lo, hi))
        xs.extend(b for a in m.arcsine_parts
                  for b in (a.center - a.radius, a.center + a.radius))
        breaks = {0.0, 1.0}
        for x in xs:
            breaks.add(float(np.clip(m.cdf(x), 0.0, 1.0)))
        for p, mass in m.atoms:
            breaks.add(float(np.clip(m.cdf(p) + mass, 0.0, 1.0)))
        return np.array(sorted(breaks))

    def __call__(self, u):
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self._pure:
            out = self.measure.arcsine_parts[0].quantile(u)
        else:
            lo = np.full(u.shape, self._lo)
            hi = np.full(u.shape, self._hi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                go_right = self.measure.cdf(mid) <= u
                lo = np.where(go_right, mid, lo)
                hi = np.where(go_right, hi, mid)
            out = 0.5 * (lo + hi)
            slo, shi = self.measure.support
            out = np.clip(out, slo, shi)
        return float(out[0]) if scalar else out


def _build_quantile(m: Measure1D) -> QuantileFn:
    """Exact piecewise-affine quantile of a discrete mixture.  Canonical
    atoms (lo = hi) and pieces are disjoint, so over them in sorted order
    the quantile joins (cum_k, lo_k) to (cum_k+1, hi_k) for the cumulative
    masses cum; a point repeating the one before it is dropped."""
    points: list[tuple[float, float]] = []
    cum = 0.0
    for lo, hi, mass in sorted([(pos, pos, mass) for pos, mass in m.atoms]
                               + [(lo, hi, rho * (hi - lo)) for lo, hi, rho in m.pieces]):
        for point in ((cum, lo), (cum + mass, hi)):
            if not points or point != points[-1]:
                points.append(point)
        cum += mass
    s, x = map(np.array, zip(*points))
    s[-1] = 1.0
    s = np.minimum.accumulate(s[::-1])[::-1]  # clamp tiny cumsum overshoots
    return QuantileFn(s, x)


# --------------------------------------------------------- piecewise-linear map


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Monotone nondecreasing piecewise-affine map of R.

    Affine interpolation between breakpoints; affine extension with
    ``left_slope`` / ``right_slope`` beyond them.  Repeated x-values encode
    jumps (evaluation returns the upper value).  Segments that are exactly
    the identity are evaluated as x itself so identity maps round-trip
    bit-for-bit.
    """

    xs: np.ndarray
    ys: np.ndarray
    left_slope: float = 0.0
    right_slope: float = 0.0

    def __post_init__(self):
        xs, ys = np.asarray(self.xs, float), np.asarray(self.ys, float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 1:
            raise MeasureError("map breakpoints must be parallel 1-D arrays")
        if np.any(np.diff(xs) < 0):
            raise MeasureError("map x-breakpoints must be nondecreasing")
        if np.any(np.diff(ys) < 0) or self.left_slope < 0 or self.right_slope < 0:
            raise MeasureError("map must be monotone nondecreasing")

    @classmethod
    def from_breakpoints(cls, pts: Sequence[tuple[float, float]],
                         left_slope: float = 0.0,
                         right_slope: float = 0.0) -> "PiecewiseLinearMap":
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.array([p[1] for p in pts], dtype=float)
        return cls(xs, ys, left_slope, right_slope)

    @classmethod
    def identity(cls, lo: float = -1.0, hi: float = 1.0) -> "PiecewiseLinearMap":
        return cls(np.array([lo, hi]), np.array([lo, hi]), 1.0, 1.0)

    def _segment(self, j):
        x0, x1 = self.xs[j], self.xs[j + 1]
        y0, y1 = self.ys[j], self.ys[j + 1]
        width = np.where(x1 > x0, x1 - x0, 1.0)
        return x0, y0, (y1 - y0) / width

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        below = x < self.xs[0]
        above = x >= self.xs[-1]
        out[below] = self.ys[0] + (x[below] - self.xs[0]) * self.left_slope
        out[above] = self.ys[-1] + (x[above] - self.xs[-1]) * self.right_slope
        mid = ~(below | above)
        if np.any(mid):
            j = np.clip(np.searchsorted(self.xs, x[mid], side="right") - 1,
                        0, self.xs.size - 2)
            x0, y0, slope = self._segment(j)
            val = y0 + (x[mid] - x0) * slope
            ident = (slope == 1.0) & (y0 == x0)
            out[mid] = np.where(ident, x[mid], val)
        return float(out[0]) if scalar else out

    def blend_with_identity(self, lam: float) -> "PiecewiseLinearMap":
        """Map x -> (1-lam) x + lam T(x), again piecewise affine."""
        lam = _as_float(lam)
        ys = (1.0 - lam) * self.xs + lam * self.ys
        return PiecewiseLinearMap(self.xs.copy(), ys,
                                  (1.0 - lam) + lam * self.left_slope,
                                  (1.0 - lam) + lam * self.right_slope)


# ----------------------------------------------------- module-level operations


def cdf_eval(m: Measure1D, x) -> float:
    """Mass of the open half-line (-inf, x)."""
    return m.cdf(x)


def quantile(m: Measure1D):
    """Generalized inverse of the CDF (sup convention)."""
    return m.quantile_fn()


def pushforward_pwl(m: Measure1D, T: PiecewiseLinearMap) -> Measure1D:
    """Exact pushforward of a discrete mixture under a monotone map.

    Density pieces map to density pieces scaled by the reciprocal slope;
    constant stretches collapse covered mass into atoms; atoms map to
    atoms, with coincident images merged.
    """
    if not m.is_discrete_mixture:
        raise MeasureError("pushforward is exact only for discrete mixtures")
    atoms = [(T(pos), mass) for pos, mass in m.atoms]
    pieces: list[tuple[float, float, float]] = []
    cuts = T.xs
    for lo, hi, rho in m.pieces:
        inner = cuts[(cuts > lo) & (cuts < hi)]
        edges = np.concatenate([[lo], np.unique(inner), [hi]])
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            # affine expression governing (a, b), plus exact breakpoint
            # values to snap to when a or b is itself a breakpoint
            snaps: dict[float, float] = {}
            if mid < T.xs[0]:
                x0, y0, slope = float(T.xs[0]), float(T.ys[0]), float(T.left_slope)
                snaps[x0] = y0
            elif mid >= T.xs[-1]:
                x0, y0, slope = float(T.xs[-1]), float(T.ys[-1]), float(T.right_slope)
                snaps[x0] = y0
            else:
                j = int(np.clip(np.searchsorted(T.xs, mid, side="right") - 1,
                                0, T.xs.size - 2))
                x0, y0, slope = (float(v) for v in T._segment(j))
                snaps[float(T.xs[j])] = float(T.ys[j])
                snaps[float(T.xs[j + 1])] = float(T.ys[j + 1])
            if slope == 0.0:
                atoms.append((y0, rho * (b - a)))
                continue

            def val(x: float) -> float:
                if x in snaps:
                    return snaps[x]
                if slope == 1.0 and y0 == x0:
                    return x
                return y0 + (x - x0) * slope

            pieces.append((val(float(a)), val(float(b)), rho / slope))
    return Measure1D.from_components(atoms, pieces)


def sample(m: Measure1D, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws via inverse-CDF sampling; deterministic per seed."""
    return m.sample(n, seed)


# ---------------------------------------------------------------- serialization


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def measure_to_text(m: Measure1D) -> str:
    """Line-oriented text form: ``atom <pos> <mass>`` / ``piece <lo> <hi> <density>``."""
    if m.arcsine_parts:
        raise MeasureError("analytic components have no line-oriented text form")
    lines = [f"atom {_fmt(p)} {_fmt(mass)}" for p, mass in m.atoms]
    lines += [f"piece {_fmt(lo)} {_fmt(hi)} {_fmt(rho)}" for lo, hi, rho in m.pieces]
    return "\n".join(lines) + "\n"


def measure_from_text(text: str) -> Measure1D:
    atoms: list[tuple[float, float]] = []
    pieces: list[tuple[float, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "atom" and len(fields) == 3:
                atoms.append((float(fields[1]), float(fields[2])))
            elif fields[0] == "piece" and len(fields) == 4:
                pieces.append((float(fields[1]), float(fields[2]), float(fields[3])))
            else:
                raise ValueError("unrecognized record")
        except ValueError as exc:
            raise MeasureError(f"line {lineno}: cannot parse {raw!r}: {exc}") from exc
    return Measure1D.from_components(atoms, pieces)
