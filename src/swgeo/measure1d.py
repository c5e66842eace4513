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
with exact piecewise-affine quantiles.  The CDF, density and numeric
quantile work on rows of measures (``MeasureRows``, ``AnalyticQuantile``),
each row with the arithmetic it has alone; a Measure1D is one row.

Each input rule of the library is defined once, below, and every module
checks its input through it: finite reals, integers and counts, seeds,
exponents p, q >= 1, weighted point and node rows, and the lines of the
text formats and config files; ``_fmt`` writes every real of the text.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

MASS_TOL = 1e-12

__all__ = [
    "MASS_TOL",
    "MeasureError",
    "ArcsinePart",
    "Measure1D",
    "QuantileFn",
    "MeasureRows",
    "AnalyticQuantile",
    "newton_roots",
    "quantile_rows",
    "PiecewiseLinearMap",
    "pushforward_pwl",
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


def _integer(value, what: str) -> int:
    """value as an int: a Python or numpy integer.  Anything else, such as
    2.5, raises MeasureError instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise MeasureError(f"{what} must be an integer, got {value!r}") from None


def _count(value, what: str) -> int:
    """value as an integer >= 1, as :func:`_integer` takes it."""
    n = _integer(value, what)
    if n < 1:
        raise MeasureError(f"{what} must be >= 1")
    return n


def _exponent(value, name: str) -> float:
    """value as a float >= 1, inf included; nan and anything below 1
    raise MeasureError."""
    v = float(value)
    if not v >= 1.0:  # nan too
        raise MeasureError(f"{name} must be >= 1")
    return v


def _finite_values(*arrays) -> None:
    """Refuse the first nan or inf of the arrays as :func:`_as_float` does."""
    for a in arrays:
        bad = a[~np.isfinite(a)]
        if bad.size:
            _as_float(float(bad[0]))


def _weighted_rows(obj, rows: str, item: str) -> None:
    """Check and convert, in place on the frozen dataclass obj, weighted
    rows: an integer ``dim``, float (n, dim) rows in the field rows and
    (n,) ``weights``, all finite, the weights positive and summing to 1
    within MASS_TOL.  item names one row in the messages."""
    dim = _integer(obj.dim, "dimension")
    x = np.asarray(getattr(obj, rows), dtype=float)
    w = np.asarray(obj.weights, dtype=float)
    for field, value in (("dim", dim), (rows, x), ("weights", w)):
        object.__setattr__(obj, field, value)
    if x.ndim != 2 or x.shape[1] != dim:
        raise MeasureError(f"{rows} must be an (n, d) array")
    if w.shape != (x.shape[0],):
        raise MeasureError(f"weights must parallel the {item} list")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise MeasureError(f"{item}s and weights must be finite")
    if np.any(w <= 0.0):
        raise MeasureError(f"{item} weights must be positive")
    if abs(float(w.sum()) - 1.0) > MASS_TOL:
        raise MeasureError(f"{item} weights must sum to 1 within {MASS_TOL}")


def _records(text: str):
    """(line number, raw line, stripped line) of each line of text that
    holds more than a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


def _fmt(x: float) -> str:
    """x to 17 significant digits, the text form of every real."""
    return format(float(x), ".17g")


def _generator(seed) -> np.random.Generator:
    """numpy's PCG64 generator for seed, a Python or numpy integer >= 0.
    Any other seed, None and 2.5 included, raises MeasureError."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise MeasureError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ArcsinePart:
    """Weighted arcsine component: density ``w / (pi sqrt(r^2 - (x-c)^2))``
    on the open interval ``(c - r, c + r)``."""

    weight: float
    center: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        for v in (self.weight, self.center, self.radius):
            _as_float(v)
        if not (self.weight > 0.0):
            raise MeasureError("arcsine weight must be positive")
        if not (self.radius > 0.0):
            raise MeasureError("arcsine radius must be positive")


def _canonicalize(atoms, pieces):
    """Sort, resolve overlaps, split at atom positions, and merge.

    Returns (atoms, pieces) with strictly increasing atom positions,
    pairwise-disjoint sorted pieces, pieces split at atom positions, and
    adjacent pieces of identical density merged.  Atoms merge only where
    their positions are equal: two atoms an ulp apart stay two atoms.
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

    # merge atoms at equal positions
    atoms.sort()
    merged_atoms: list[tuple[float, float]] = []
    for pos, m in atoms:
        if merged_atoms and pos == merged_atoms[-1][0]:
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

    # ----------------------------------------------------------- properties

    @property
    def is_discrete_mixture(self) -> bool:
        return not self.arcsine_parts

    @cached_property
    def _rows(self) -> "MeasureRows":
        return MeasureRows.of([self])

    @cached_property
    def support(self) -> tuple[float, float]:
        breaks = self._rows.breaks
        return (float(breaks[0]), float(breaks[-1]))

    # ----------------------------------------------------------- evaluation

    def cdf(self, x):
        """F(x) = mass of (-inf, x); left-continuous at atoms."""
        x = np.asarray(x, dtype=float)
        out = self._rows.cdf(x.ravel(), np.zeros(x.size, dtype=int)).reshape(x.shape)
        return out if out.ndim else float(out)

    def density(self, x):
        """Density of the continuous part at x: pieces and arcsine parts,
        atoms left out."""
        x = np.asarray(x, dtype=float)
        out = self._rows.density(x.ravel(), np.zeros(x.size, dtype=int)).reshape(x.shape)
        return out if out.ndim else float(out)

    def quantile_fn(self):
        """Generalized-inverse CDF: exact :class:`QuantileFn` for discrete
        mixtures, the one-row case of :func:`quantile_rows` without its
        repeated points; an :class:`AnalyticQuantile` evaluator otherwise."""
        if not self.is_discrete_mixture:
            return AnalyticQuantile(self)
        comps = [(pos, pos, mass) for pos, mass in self.atoms] + list(self.pieces)
        (s,), (x,) = quantile_rows(*np.array(comps).T[:, None])
        keep = np.append(True, (s[1:] != s[:-1]) | (x[1:] != x[:-1]))
        return QuantileFn(s[keep], x[keep])

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse-CDF sampling (numpy PCG64 generator)."""
        u = _generator(seed).random(_count(n, "sample size"))
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
        """Pushforward under x -> x + c.  A piece whose width rounds to a new
        value gets the density that keeps its mass."""
        c = _as_float(c)
        pieces = []
        for lo, hi, rho in self.pieces:
            a, b = lo + c, hi + c
            pieces.append((a, b, rho if b - a == hi - lo else rho * (hi - lo) / (b - a)))
        return Measure1D.from_components(
            [(p + c, m) for p, m in self.atoms], pieces,
            [ArcsinePart(pt.weight, pt.center + c, pt.radius)
             for pt in self.arcsine_parts])


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
        _finite_values(s, x)
        if np.any(s[1:] < s[:-1]) or np.any(x[1:] < x[:-1]):  # no overflowing diff
            raise MeasureError("quantile breakpoints must be nondecreasing")
        if s[0] != 0.0 or s[-1] != 1.0:
            raise MeasureError("quantile s-range must be exactly [0, 1]")

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


def _padded(rows, fill) -> np.ndarray:
    """Rows of equal-length tuples, each padded with fill to the longest
    row: shape (len(fill), longest, rows), so that a take of rows from
    a[:, j] gathers entry j as one contiguous array per field."""
    out = np.empty((len(fill), max(map(len, rows), default=0), len(rows)))
    out[...] = np.reshape(fill, (-1, 1, 1))
    for i, row in enumerate(rows):
        if len(row):
            out[:, :len(row), i] = np.transpose(row)
    return out


def _row_unique(values: np.ndarray, rows: np.ndarray):
    """np.unique row by row: each row's distinct values, sorted, as flat
    (values, rows) in row order."""
    order = np.lexsort((values, rows))
    v, r = values[order], rows[order]
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = (v[1:] != v[:-1]) | (r[1:] != r[:-1])
    return v[keep], r[keep]


def _spread(values: np.ndarray, rows: np.ndarray, n: int, fill: float) -> np.ndarray:
    """Flat values in row order as an (n, longest row) array padded with fill."""
    col = np.arange(values.size) - np.searchsorted(rows, rows)
    out = np.full((n, np.max(col, initial=-1) + 1), fill)
    out[rows, col] = values
    return out


class MeasureRows:
    """Measures as the rows of one table, so that the CDF and density of
    every row take one array pass.  Atoms, density pieces and arcsine
    parts are each padded to the longest row with entries that add
    exactly 0, and each row sums its terms in the order of a single
    Measure1D: atoms, then pieces, then parts, each in its own order.
    ``breaks`` holds each row's sorted breakpoints, where its CDF is not
    smooth (atoms, piece ends and arcsine ends), flat, with the row of
    each in ``break_row``; ``extent`` is each row's largest |x| on its
    support.
    """

    def __init__(self, atoms, pieces, parts):
        """One sequence per row of each: canonical (position, mass) atoms
        and (lo, hi, density) pieces, as in Measure1D, and (weight, center,
        radius) arcsine parts."""
        self.n = n = len(atoms)
        self._pos, self._mass = _padded(atoms, (np.inf, 0.0))
        # row by row: 0, then the cumulative masses (one flat take reads them)
        self._cum = np.concatenate([np.zeros((n, 1)), np.cumsum(self._mass.T, axis=1)], axis=1)
        self._pieces = _padded(pieces, (0.0, 0.0, 0.0))
        w, c, r = _padded(parts, (0.0, 0.0, 1.0))
        # a padded part has no ends: nan matches no point, and its density is 0
        real = w > 0.0
        self._arcs = np.stack([w, c, r])
        self._arc_ends = np.stack([w, np.where(real, c - r, np.nan), np.where(real, c + r, np.nan)])
        lo, hi, rho = self._pieces
        atom = self._mass > 0.0
        ends = [(self._pos, atom), (lo, rho > 0.0), (hi, rho > 0.0),
                (self._arc_ends[1], real), (self._arc_ends[2], real)]
        self.breaks, self.break_row = _row_unique(
            np.concatenate([v[keep] for v, keep in ends]),
            np.concatenate([np.broadcast_to(np.arange(n), v.shape)[keep] for v, keep in ends]))
        self._start = np.searchsorted(self.break_row, np.arange(n))
        self._count = np.bincount(self.break_row, minlength=n)
        self.extent = np.maximum(np.abs(self.breaks[self._start]),
                                 np.abs(self.breaks[self._start + self._count - 1]))
        self._pure = ((real.sum(axis=0) == 1) & (np.abs(w[:1] - 1.0) <= MASS_TOL).all(axis=0)
                      & ~atom.any(axis=0) & ~(rho > 0.0).any(axis=0))

    @classmethod
    def of(cls, measures: Sequence[Measure1D]) -> "MeasureRows":
        return cls([m.atoms for m in measures], [m.pieces for m in measures],
                   [[(p.weight, p.center, p.radius) for p in m.arcsine_parts]
                    for m in measures])

    def cdf(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """F at the points x of the rows r (flat and parallel)."""
        if not len(self._pos):
            out = np.zeros(x.shape)
        else:  # the atoms below x, as searchsorted counts them: all below a nan
            below = (~(self._pos.take(r, axis=1) >= x)).sum(axis=0)
            out = self._cum.take(r * self._cum.shape[1] + below)
        for j in range(self._pieces.shape[1]):
            lo, hi, rho = self._pieces[:, j].take(r, axis=1)
            out = out + rho * np.minimum(np.maximum(x - lo, 0.0), hi - lo)
        for j in range(self._arcs.shape[1]):
            w, c, rad = self._arcs[:, j].take(r, axis=1)
            out = out + w * (0.5 + np.arcsin(np.minimum(np.maximum((x - c) / rad, -1.0), 1.0)) / np.pi)
        return out

    def density(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Density of the continuous part at the points x of the rows r:
        infinite at an arcsine end, atoms left out."""
        out = np.zeros(x.shape)
        for j in range(self._pieces.shape[1]):
            lo, hi, rho = self._pieces[:, j].take(r, axis=1)
            out = out + np.where((x >= lo) & (x < hi), rho, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(self._arc_ends.shape[1]):
                w, lo, hi = self._arc_ends[:, j].take(r, axis=1)
                d = (x - lo) * (hi - x)
                out = out + np.where(d >= 0.0, (w / np.pi) / np.sqrt(d), 0.0)
        return out

    def density_slope(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """d/dx of :meth:`density` at the points x of the rows r: each
        arcsine part on (lo, hi) adds w (2x - lo - hi) / (2 pi ((x - lo)
        (hi - x))^(3/2)) inside, and pieces add 0."""
        out = np.zeros(x.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(self._arc_ends.shape[1]):
                w, lo, hi = self._arc_ends[:, j].take(r, axis=1)
                d = (x - lo) * (hi - x)
                slope = (w / (2.0 * np.pi)) * (2.0 * x - lo - hi) / (d * np.sqrt(d))
                out = out + np.where(d >= 0.0, slope, 0.0)
        return out

    def density_range(self, x0: np.ndarray, x1: np.ndarray, r: np.ndarray):
        """Lower and upper bounds of :meth:`density` on each [x0, x1] of
        the rows r that lies between two breaks of its row (x0 < x1): a
        piece is constant there, and an arcsine part is smallest at the
        point nearest its center and largest at the end farther from it
        (infinite at its own end)."""
        low, high = np.zeros(x0.shape), np.zeros(x0.shape)
        for j in range(self._pieces.shape[1]):
            lo, hi, rho = self._pieces[:, j].take(r, axis=1)
            on = np.where((x1 > lo) & (x0 < hi), rho, 0.0)
            low, high = low + on, high + on
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(self._arc_ends.shape[1]):
                w, lo, hi = self._arc_ends[:, j].take(r, axis=1)
                on = (x1 > lo) & (x0 < hi)  # false on padding, whose ends are nan
                c = 0.5 * (lo + hi)
                at = lambda x: np.where(
                    on, (w / np.pi) / np.sqrt(np.maximum((x - lo) * (hi - x), 0.0)), 0.0)
                low = low + at(np.minimum(np.maximum(c, x0), x1))
                high = high + at(np.where(c - x0 > x1 - c, x0, x1))
        return low, high

    def ends_at(self, a: np.ndarray, b: np.ndarray, r, tol: np.ndarray):
        """Whether each a is the left end, and each b the right end, of an
        arcsine part of its row r, to within tol: a part that ends that
        close outside a bracket is as singular at its end as one that
        ends there."""
        lo, hi = self._arc_ends[1:].take(r, axis=2)
        return (np.abs(lo - a) <= tol).any(axis=0), (np.abs(hi - b) <= tol).any(axis=0)


class AnalyticQuantile:
    """Quantile evaluator for the rows of a :class:`MeasureRows` table (a
    Measure1D is one row): for measures with arcsine components, and for
    any measure in a transport distance with one.  A pure arcsine catalog
    row uses its closed-form quantile.  Otherwise a table over the
    brackets between each row's breaks resolves every level: a level
    inside an atom gives that atom exactly, a massless gap its upper end
    (the sup convention), and a level inside a smooth bracket is the root
    of ``F - u`` that :func:`newton_roots` finds, one loop for the levels
    of every row.  ``s_breaks`` are the levels where a quantile is not
    smooth, row by row as ``s_row`` says: the CDF at the breaks and the
    top of every atom."""

    def __init__(self, measures):
        self.table = t = measures._rows if isinstance(measures, Measure1D) else measures
        xb, r = t.breaks, t.break_row
        atom = t._mass > 0.0
        arow = np.broadcast_to(np.arange(t.n), atom.shape)[atom]
        # F at the breaks, one ulp right of each and one ulp left of the
        # next, and at the atoms, in one evaluation
        levels, tops, ends, at_atoms = np.split(t.cdf(
            np.concatenate([xb, np.nextafter(xb, np.inf),
                            np.nextafter(np.append(xb[1:], 0.0), -np.inf), t._pos[atom]]),
            np.concatenate([r, r, r, arow])), np.cumsum([xb.size] * 3))
        # Bracket k is (xb[k], xb[k+1]) in one row.  Q is xb[k] below
        # _tops[k], F one ulp right of xb[k] (above an atom there), xb[k+1]
        # from _ends[k], F one ulp left of xb[k+1], and the root of F - u
        # in between.  The ulps also take up the rounding of F at an
        # arcsine end.  Past a row's last break every level gives it.
        last = np.append(r[1:] != r[:-1], True)
        self._tops = np.where(last, np.inf, tops)
        self._ends = np.where(last, np.inf, ends)
        self._levels = _spread(levels, r, t.n, np.inf)
        # Q jumps across each massless gap at the level of its upper end,
        # unless that level lies more than MASS_TOL above the gap's lower
        # end: the rounding of an arcsine CDF at the upper end put a step
        # there, and Q(u-) at the step's top is the upper end
        up = np.append(levels[1:], 0.0)
        gap = ~last & (self._tops >= self._ends) & (up - self._tops <= MASS_TOL)
        self._gap_level = _spread(up[gap], r[gap], t.n, np.nan)
        self._gap_lo = _spread(xb[gap], r[gap], t.n, np.nan)
        ids = np.arange(t.n)
        self.s_breaks, self.s_row = _row_unique(
            np.clip(np.concatenate([np.zeros(t.n), np.ones(t.n), levels, at_atoms + t._mass[atom]]),
                    0.0, 1.0),
            np.concatenate([ids, ids, r, arow]))

    def __call__(self, u, r=0, left=False):
        """Q of the rows r (parallel to u, or one) at the levels u; Q(u-)
        with left."""
        scalar = np.ndim(u) == 0
        u = np.asarray(u, dtype=float)
        out = self._at(u.ravel(), np.broadcast_to(r, u.shape).ravel(), left).reshape(u.shape)
        return float(out) if scalar else out

    def _bracket(self, u: np.ndarray, r: np.ndarray):
        """The flat indices of the breaks of the bracket that holds the
        level u in row r (flat and parallel): the left one, and the right
        one or, past a row's last break, that break again."""
        n = self.table._count[r]
        # searchsorted(levels, u, "right") - 1 in row r; a nan u is past the end
        j = np.minimum(np.maximum((~(self._levels.take(r, axis=0) > u[:, None])).sum(axis=1) - 1, 0),
                       n - 1)
        k = self.table._start[r] + j
        return k, k + (j < n - 1)

    def _at(self, u: np.ndarray, r: np.ndarray, left=False) -> np.ndarray:
        """Q at the levels u of the rows r (flat and parallel), and Q(u-)
        where left is set (flat too, or one): the start of the gap Q jumps
        across at u.  At the top of an atom with a gap after it, that is
        the atom, even where the gap's level rounds up to MASS_TOL
        higher."""
        t, xb = self.table, self.table.breaks
        k, k1 = self._bracket(u, r)
        top, end = self._tops[k], self._ends[k]
        # Q(top-) is xb[k] too where a gap follows, even one whose upper
        # end's level is not top to the ulp
        held = (u < top) | ((u == top) & (u >= end) & left)
        out = np.where(held, xb[k], xb[k1])
        pure = t._pure[r]
        solve = ~held & (u < end) & ~pure
        if solve.any():
            k, v, rs, top, end = k[solve], u[solve], r[solve], top[solve], end[solve]
            a, b, tol = xb[k], xb[k + 1], _STEP_TOL * t.extent[rs]
            out[solve] = newton_roots(
                lambda x, i: (t.cdf(x, rs[i]) - v[i], t.density(x, rs[i])),
                a, b, (v - top) / (end - top), tol, *t.ends_at(a, b, rs, tol))
        if pure.any():
            _, c, rad = t._arcs[:, 0].take(r[pure], axis=1)
            out[pure] = c + rad * np.sin(np.pi * (u[pure] - 0.5))
        if self._gap_level.size and np.any(left):
            hit = (self._gap_level.take(r, axis=0) == u[:, None]) & np.reshape(left, (-1, 1))
            gap_lo = self._gap_lo.take(r, axis=0)[np.arange(u.size), np.argmax(hit, axis=1)]
            out = np.where(hit.any(axis=1), gap_lo, out)
        return out


# Newton steps before a root counts as not converged
_NEWTON_STEPS = 100
# F sums O(1) terms, so it rounds to about eps absolute: a residual this
# small is as good as it gets, whatever the level
_RESIDUAL_TOL = 4.5e-16
_STEP_TOL = 1e-15


def newton_roots(fun, a, b, t, tol, left, right) -> np.ndarray:
    """Vectorized safeguarded Newton: for each bracket (a, b) of a function
    G with G <= 0 just right of a and G(b) > 0, the root sup{x : G(x) <= 0}.

    ``fun(x, k)`` returns G and dG/dx at the points x of the brackets k.
    Newton runs in phi on [phi0, phi1] through

        x = a + (b - a) (sin phi - sin phi0) / (sin phi1 - sin phi0),

    starting at the fraction t of [phi0, phi1].  phi0 is -pi/2 where
    ``left`` flags a as the left end of an arcsine part (to within tol, in
    the callers): the square-root singularity of the density there
    cancels against dx/dphi.  Elsewhere
    it is -pi/4, since -pi/2 would make dx/dphi vanish at a regular end;
    phi1 is pi/2 or pi/4 the same way at b, as ``right`` flags it.  The
    bracket [lo, hi] shrinks by the rule of bisection (G <= 0 moves lo),
    and a Newton point not strictly inside it falls back to the midpoint.
    A root is done when |G| <= 4.5e-16, when the step is at most its
    ``tol``, or when the next point rounds to an end of the bracket in x.
    If that last step was a midpoint while the Newton point fell past an
    end that no point has moved, the root is that end: it lies within the
    rounding of G there, and the midpoints only halved toward it.
    The callers take tol as 1e-15 times the largest |x| on the supports
    rather than relative to the bracket, because G rounds like its parts:
    near an arcsine end F is flat on the scale of ulps of that part,
    however small the bracket.  Every argument but fun has one entry per
    root, so the roots of many measures share one loop; with no brackets
    fun is not called.  A root still open after ``_NEWTON_STEPS`` steps
    raises MeasureError.
    """
    out = np.empty(np.shape(a))
    if not out.size:
        return out
    k = np.arange(out.size)
    phi0, phi1, h = _phi_map(a, b, left, right)
    phi = phi0 + np.clip(t, 0.0, 1.0) * (phi1 - phi0)
    # one row per quantity of the open roots, compacted in one take
    state = np.stack([a, b, tol, phi0, phi1, h, phi0, phi1, a, b, phi,
                      _x_of_phi(phi, a, b, phi0, phi1, h)])
    for _ in range(_NEWTON_STEPS):
        a, b, tol, phi0, phi1, h, lo, hi, xlo, xhi, phi, x = state
        g, dg = fun(x, k)
        # a point that rounds to an end of its bracket moves nothing: its G
        # is that end's, not the one at phi
        up, down = (g <= 0.0) & (x != a), (g > 0.0) & (x != b)
        np.copyto(lo, phi, where=up)
        np.copyto(xlo, x, where=up)
        np.copyto(hi, phi, where=down)
        np.copyto(xhi, x, where=down)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = phi - g / (dg * h * np.cos(phi))
        # nan fails, and so does the zero step of an infinite slope
        newton = (raw > lo) & (raw < hi) & (raw != phi)
        nxt = np.where(newton, raw, 0.5 * (lo + hi))
        xn = _x_of_phi(nxt, a, b, phi0, phi1, h)
        hit = np.abs(g) <= _RESIDUAL_TOL
        done = hit | (np.abs(xn - x) <= tol) | (xn == xlo) | (xn == xhi)
        # a Newton point refines a hit; a midpoint would not
        end = np.where((raw <= lo) & (xlo == a), a, np.where((raw >= hi) & (xhi == b), b, xn))
        out[k[done]] = np.where(hit & ~newton, x, np.where(newton, xn, end))[done]
        if done.all():
            return out
        state[10], state[11] = nxt, xn
        keep = ~done
        state, k = state[:, keep], k[keep]
    raise MeasureError(f"root finder did not converge in {_NEWTON_STEPS} steps")


def _phi_map(a, b, left, right):
    """phi0, phi1 and h of the map x(phi) of :func:`newton_roots` on the
    brackets (a, b), with an arcsine end flagged by left or right."""
    phi0 = np.where(left, -0.5 * np.pi, -0.25 * np.pi)
    phi1 = np.where(right, 0.5 * np.pi, 0.25 * np.pi)
    return phi0, phi1, (b - a) / (np.sin(phi1) - np.sin(phi0))


def _x_of_phi(phi, a, b, phi0, phi1, h):
    """x(phi) of :func:`newton_roots` from the nearer end (e, pe), in the
    sum-to-product form e + 2 h cos((phi + pe) / 2) sin((phi - pe) / 2):
    both ends come out exact and resolved to their own ulp."""
    near_a = phi - phi0 <= phi1 - phi
    e, pe = np.where(near_a, a, b), np.where(near_a, phi0, phi1)
    return e + 2.0 * h * np.cos(0.5 * (phi + pe)) * np.sin(0.5 * (phi - pe))


def quantile_rows(lo: np.ndarray, hi: np.ndarray, v) -> tuple[np.ndarray, np.ndarray]:
    """Quantile polylines (s, x) of measures given as rows of K components,
    of shape (n, 2K), in the :class:`QuantileFn` encoding.  Component k of
    a row is an atom of mass v where lo == hi, and the density v on
    [lo, hi] otherwise; v has the shape of lo, or one row for all.

    x is each row's sorted endpoints e, once each, and s sums masses along
    the row: column j + 1 adds the atoms at e_j (over the components first)
    where e_j is its value's first copy, so an atom's copies carry F(e-)
    and F(e+), and the density of the intervals that cover [e_j, e_j+1]
    times its width, taken only where that density is positive, so a gap
    whose width overflows adds nothing.  Every point equal to a row's last
    one gets level 1, and the levels are clamped to at most 1.

    The build runs direction-minor, on (K, n) and (2K, n) tables: a pass
    over (n, 2K) tables takes 2K values per row and pays a cost per row.
    Only the sort stays row-wise, where numpy is faster.  Each level is a
    row-wise build's bit for bit: the same sums, in the same order.
    """
    # C order, whatever the layout of lo and hi (radon_quantile_rows passes transposes)
    e = np.concatenate([lo, hi], axis=1, out=np.empty((lo.shape[0], 2 * lo.shape[1])))
    e.sort(axis=1)
    lo, hi, v, x = lo.T, hi.T, np.broadcast_to(v, lo.shape).T, e.T.copy()
    a, b = x[:-1], x[1:]
    first = np.ones(a.shape, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    atom = lo == hi
    steps, rho = np.zeros(x.shape), np.zeros(a.shape)
    masses, densities = np.where(atom, v, 0.0), np.where(atom, 0.0, v)
    for k in np.flatnonzero(~atom.all(axis=1)):  # an interval in some row
        np.add(rho, densities[k], out=rho, where=(lo[k] <= a) & (hi[k] >= b))
    on = rho > 0.0
    np.multiply(rho, np.subtract(b, a, where=on, out=np.zeros(a.shape)), where=on,
                out=steps[1:])
    for k in np.flatnonzero(atom.any(axis=1)):  # an atom in some row
        np.add(steps[1:], masses[k], out=steps[1:], where=first & (a == lo[k]))
    s = np.cumsum(steps, axis=0)
    np.copyto(s, 1.0, where=(s == s[-1]) & (x == x[-1]))
    return np.minimum(s, 1.0, out=s).T.copy(), e


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
        _finite_values(xs, ys, np.array([self.left_slope, self.right_slope], float))
        if np.any(np.diff(xs) < 0):
            raise MeasureError("map x-breakpoints must be nondecreasing")
        if np.any(np.diff(ys) < 0) or self.left_slope < 0 or self.right_slope < 0:
            raise MeasureError("map must be monotone nondecreasing")

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


# ---------------------------------------------------------------- serialization


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
    for lineno, raw, line in _records(text):
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
