import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import from_breakpoints, isclose, left_limit, mix, quantile_rows_by_row
from swgeo.measure1d import (
    AnalyticQuantile,
    MeasureRows,
    ArcsinePart,
    Measure1D,
    MeasureError,
    PiecewiseLinearMap,
    measure_from_text,
    measure_to_text,
    QuantileFn,
    newton_roots,
    pushforward_pwl,
    quantile_rows,
)


def mixed_atom_measure():
    # 0.5 * uniform(-1,1) + 0.5 * delta_{0.2}
    return Measure1D.from_components(atoms=[(0.2, 0.5)], pieces=[(-1.0, 1.0, 0.25)])


# ---------------------------------------------------------------- construction


class TestConstruction:
    def test_rejects_bad_total_mass(self):
        with pytest.raises(MeasureError):
            Measure1D.from_components(pieces=[(-1.0, 1.0, 0.4)])
        with pytest.raises(MeasureError):
            Measure1D.from_components(atoms=[(0.0, 1.0 + 1e-9)])

    def test_does_not_renormalize_within_tolerance(self):
        m = Measure1D.from_components(atoms=[(0.0, 1.0 - 5e-13)])
        assert m.atoms[0][1] == 1.0 - 5e-13

    def test_rejects_negative_mass_and_density(self):
        with pytest.raises(MeasureError):
            Measure1D.from_components(atoms=[(0.0, -0.5), (1.0, 1.5)])
        with pytest.raises(MeasureError):
            Measure1D.from_components(pieces=[(0.0, 1.0, -1.0), (1.0, 2.0, 2.0)])

    def test_overlapping_pieces_are_summed(self):
        m = Measure1D.from_components(pieces=[(-1.0, 1.0, 0.25), (-0.5, 0.5, 0.5)])
        assert m.pieces == ((-1.0, -0.5, 0.25), (-0.5, 0.5, 0.75), (0.5, 1.0, 0.25))

    def test_coincident_atoms_merge(self):
        m = Measure1D.from_components(atoms=[(0.5, 0.25), (0.5, 0.75)])
        assert m.atoms == ((0.5, 1.0),)
        # only equal positions merge: atoms an ulp apart stay two atoms
        up = math.nextafter(0.5, math.inf)
        m = Measure1D.from_components(atoms=[(up, 0.75), (0.5, 0.25)])
        assert m.atoms == ((0.5, 0.25), (up, 0.75))

    def test_piece_split_at_interior_atom(self):
        m = mixed_atom_measure()
        assert m.pieces == ((-1.0, 0.2, 0.25), (0.2, 1.0, 0.25))

    def test_adjacent_equal_density_pieces_merge(self):
        m = Measure1D.from_components(pieces=[(-1.0, 0.0, 0.5), (0.0, 1.0, 0.5)])
        assert m.pieces == ((-1.0, 1.0, 0.5),)

    def test_mix(self):
        m = mix([(0.5, Measure1D.uniform(-1, 1)),
                           (0.5, Measure1D.dirac(0.2))])
        assert isclose(m, mixed_atom_measure())

    @pytest.mark.parametrize("fields", [(1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                                        (1.0, 0.0, math.inf), (math.inf, 0.0, 1.0)])
    def test_arcsine_part_rejects_non_finite_fields(self, fields):
        with pytest.raises(MeasureError, match="non-finite value"):
            ArcsinePart(*fields)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@given(st.data(), NON_FINITE)
def test_constructors_reject_non_finite_values(data, bad):
    """One non-finite field anywhere in an atom, a piece or an arcsine part
    is refused as such, by ArcsinePart or by Measure1D.from_components."""
    fields = [[0.2, 0.25], [-1.0, 0.0, 0.25], [0.25, 0.5, 0.5]]  # atom, piece, part
    kind = data.draw(st.integers(0, 2))
    fields[kind][data.draw(st.integers(0, len(fields[kind]) - 1))] = bad
    with pytest.raises(MeasureError, match="non-finite value"):
        Measure1D.from_components([tuple(fields[0])], [tuple(fields[1])],
                                  [ArcsinePart(*fields[2])])


@pytest.mark.parametrize("make", [
    lambda: QuantileFn([0.0, math.nan, 1.0], [0.0, 1.0, 2.0]),
    lambda: QuantileFn([0.0, 0.5, 1.0], [0.0, math.inf, math.inf]),
    lambda: QuantileFn([0.0, 0.5, 1.0], [-math.inf, 0.0, 1.0]),
    lambda: PiecewiseLinearMap([0.0, 1.0], [0.0, 1.0], left_slope=math.nan),
    lambda: PiecewiseLinearMap([0.0, 1.0], [0.0, 1.0], right_slope=math.inf),
    lambda: PiecewiseLinearMap([0.0, math.nan], [0.0, 1.0]),
    lambda: PiecewiseLinearMap([0.0, 1.0], [-math.inf, 1.0]),
], ids=["quantile-nan-level", "quantile-inf-x", "quantile-minus-inf-x", "map-nan-left-slope",
        "map-inf-right-slope", "map-nan-x", "map-minus-inf-y"])
def test_breakpoint_classes_reject_non_finite_values(make):
    # the < monotonicity checks let nan through: the nan level made
    # Q(0.25) read 1.0, and the nan slope made T(-1) nan
    with pytest.raises(MeasureError, match="non-finite value"):
        make()

# ------------------------------------------------------------------------ cdf


class TestCdf:
    def test_uniform_midpoint(self):
        assert Measure1D.uniform(-1, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_atom_excluded_at_its_position(self):
        # open half-line convention: F(0.2) counts only the density below
        assert mixed_atom_measure().cdf(0.2) == pytest.approx(0.3, abs=1e-15)
        assert mixed_atom_measure().cdf(0.2 + 1e-9) == pytest.approx(
            0.8, abs=1e-8)

    def test_arcsine_symmetry(self):
        assert Measure1D.arcsine().cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_density_of_pieces_and_arcsine_parts(self):
        # 0.3 on [-1, 0), the atom at 0.25 left out, and the arcsine part
        # 0.5 / (pi sqrt(0.25 - (x - 1)^2)) on (0.5, 1.5), infinite at its ends
        m = Measure1D.from_components([(0.25, 0.2)], [(-1.0, 0.0, 0.3)],
                                      [ArcsinePart(0.5, 1.0, 0.5)])
        arc = lambda x: 0.5 / (math.pi * math.sqrt(0.25 - (x - 1.0) ** 2))
        xs = np.array([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0])
        want = [0.0, 0.3, 0.3, 0.0, 0.0, math.inf, arc(0.75), arc(1.0), arc(1.25), math.inf, 0.0]
        got = m.density(xs)
        assert got.shape == xs.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert m.density(xs.reshape(1, -1)).shape == (1, xs.size)
        assert type(m.density(1.0)) is float and m.density(1.0) == pytest.approx(1.0 / math.pi,
                                                                                  rel=1e-15)

    def test_vectorized(self):
        m = mixed_atom_measure()
        xs = np.array([-2.0, -1.0, 0.0, 0.2, 0.5, 2.0])
        np.testing.assert_allclose(m.cdf(xs), [0.0, 0.0, 0.25, 0.3, 0.875, 1.0],
                                   atol=1e-15)


# ------------------------------------------------------------------- quantile


class TestQuantile:
    def test_uniform_is_affine(self):
        q = Measure1D.uniform(-1, 1).quantile_fn()
        s = np.linspace(0, 1, 101)
        np.testing.assert_allclose(q(s), 2 * s - 1, atol=1e-15)

    def test_atom_mixture_matches_piecewise_formula(self):
        # alpha = 0.5, beta = 0.2: affine up to 0.3, flat at 0.2 until 0.8
        q = mix([(0.5, Measure1D.uniform(-1, 1)),
                 (0.5, Measure1D.dirac(0.2))]).quantile_fn()
        s = np.linspace(0, 1, 2001)
        ref = np.where(s < 0.3, -1 + 4 * s,
                       np.where(s <= 0.8, 0.2, -1 + 4 * (s - 0.5)))
        np.testing.assert_allclose(q(s), ref, atol=1e-12)

    def test_arcsine_value(self):
        q = Measure1D.arcsine().quantile_fn()
        assert q(0.75) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    def test_support_gap_gives_upper_value(self):
        m = Measure1D.from_components(pieces=[(-2.0, -1.0, 0.5), (1.0, 2.0, 0.5)])
        q = m.quantile_fn()
        assert q(0.5) == pytest.approx(1.0)  # sup convention picks the gap's top
        assert q(0.5 - 1e-12) == pytest.approx(-1.0, abs=1e-9)

    def test_round_trip_inequalities(self):
        m = Measure1D.from_components(atoms=[(0.0, 0.2), (0.7, 0.1)],
                                      pieces=[(-1.0, 0.5, 0.4), (0.6, 0.8, 0.5)])
        q = m.quantile_fn()
        eps = 1e-9
        for s in np.linspace(1e-4, 1 - 1e-4, 1000):
            x = q(s)
            assert m.cdf(x) <= s + 1e-12
            assert m.cdf(x + eps) > s - 1e-12 or x >= m.support[1]

    def test_analytic_mixture_quantile_matches_closed_form(self):
        t = 0.5
        m = Measure1D.from_components(
            atoms=[(0.0, t)],
            arcsine_parts=[type(Measure1D.arcsine().arcsine_parts[0])(1 - t)])
        q = m.quantile_fn()
        u = np.linspace(1e-6, 1 - 1e-6, 512)
        lo, hi = (1 - t) / 2, (1 + t) / 2
        ref = np.where(u < lo, np.sin(np.pi * (u / (1 - t) - 0.5)),
                       np.where(u <= hi, 0.0,
                                np.sin(np.pi * ((u - t) / (1 - t) - 0.5))))
        np.testing.assert_allclose(np.asarray(q(u)), ref, atol=1e-10)


@st.composite
def discrete_mixtures(draw):
    """Atoms and pieces at free positions, pieces that touch the previous
    one, and atoms on piece ends."""
    n_atoms = draw(st.integers(0, 3))
    n_pieces = draw(st.integers(0 if n_atoms else 1, 3))
    raw_masses = [draw(st.floats(0.05, 1.0)) for _ in range(n_atoms + n_pieces)]
    total = sum(raw_masses)
    pieces = []
    for k in range(n_pieces):
        touch = bool(pieces) and draw(st.booleans())
        lo = pieces[-1][1] if touch else draw(st.floats(-10, 9))
        width = draw(st.floats(0.1, 3.0))
        mass = raw_masses[n_atoms + k] / total
        pieces.append((lo, lo + width, mass / width))
    ends = [e for lo, hi, _ in pieces for e in (lo, hi)]
    position = st.floats(-10, 10) | st.sampled_from(ends) if ends else st.floats(-10, 10)
    atoms = [(draw(position), m / total) for m in raw_masses[:n_atoms]]
    return Measure1D.from_components(atoms, pieces)


@settings(max_examples=60, deadline=None)
@given(discrete_mixtures())
def test_quantile_nondecreasing(m):
    q = m.quantile_fn()
    vals = np.asarray(q(np.linspace(0, 1, 777)))
    assert np.all(np.diff(vals) >= -1e-12)
    # no breakpoint repeats the one before it, where components touch too
    assert not np.any((np.diff(q.s) == 0.0) & (np.diff(q.x) == 0.0))


@settings(max_examples=40, deadline=None)
@given(discrete_mixtures(), st.floats(-3, 3), st.floats(0.1, 2.5))
def test_pushforward_preserves_mass(m, shift, scale):
    T = from_breakpoints(
        [(-12.0, shift - 12 * scale), (12.0, shift + 12 * scale)],
        left_slope=scale, right_slope=scale)
    image = pushforward_pwl(m, T)
    total = (sum(mass for _, mass in image.atoms)
             + sum((hi - lo) * rho for lo, hi, rho in image.pieces))
    assert abs(total - 1.0) <= 1e-12


# ------------------------------------------------------------ analytic quantiles


EPS = np.finfo(float).eps


def bisection_quantile(m: Measure1D, u: np.ndarray) -> np.ndarray:
    """Oracle: the 80-step bisection that inverted the CDF before the Newton
    root finder.  F(mid) <= u moves lo (the sup convention); the midpoint
    of the last bracket, clipped to the support, is the quantile."""
    lo, hi = m.support
    pad = 1e-9 * max(1.0, hi - lo)
    lo, hi = np.full(u.shape, lo - pad), np.full(u.shape, hi + pad)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        go_right = m.cdf(mid) <= u
        lo, hi = np.where(go_right, mid, lo), np.where(go_right, hi, mid)
    return np.clip(0.5 * (lo + hi), *m.support)


@st.composite
def analytic_mixtures(draw):
    """Arcsine parts, atoms and pieces: free or on a grid of quarters (so
    that parts overlap and ends touch), with weights down to 1e-9 of the
    total."""
    grid = st.sampled_from(np.arange(-8, 9) / 4.0)
    place = grid | st.floats(-2, 2)
    n_parts = draw(st.integers(1, 3))
    n_atoms = draw(st.integers(0, 2))
    n_pieces = draw(st.integers(0, 2))
    raw = [draw(st.floats(1e-9, 1.0) | st.just(1.0)) for _ in range(n_parts + n_atoms + n_pieces)]
    total = sum(raw)
    parts = [ArcsinePart(w / total, draw(place),
                         draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 2)))
             for w in raw[:n_parts]]
    ends = [e for pt in parts for e in (pt.center - pt.radius, pt.center + pt.radius)]
    atoms = [(draw(place | st.sampled_from(ends)), w / total)
             for w in raw[n_parts:n_parts + n_atoms]]
    pieces = []
    for w in raw[n_parts + n_atoms:]:
        lo = draw(place | st.sampled_from(ends))
        width = draw(st.sampled_from([0.25, 1.0]) | st.floats(1e-3, 2))
        pieces.append((lo, lo + width, w / total / width))
    return Measure1D.from_components(atoms, pieces, parts)


# a break just right of a part's left end 0, where the part's square-root
# singularity sits outside the bracket (found by this test)
BESIDE_A_PART_END = [
    Measure1D(pieces=((-2.0, -1.75, 0.9552238805970149),
                      (1.8283372943877548e-100, 0.625, 0.07164179104477611)),
              arcsine_parts=(ArcsinePart(0.23880597014925373, 0.0, 0.75),
                             ArcsinePart(0.23880597014925373, 0.5, 0.5),
                             ArcsinePart(0.23880597014925373, -2.0, 1.75))),
    Measure1D(atoms=((-1.75, 0.2), (1.0505151733917296e-149, 0.2)),
              arcsine_parts=(ArcsinePart(0.2, -0.5, 1.375), ArcsinePart(0.2, 0.5, 0.5),
                             ArcsinePart(0.2, 0.0, 0.001))),
    Measure1D(atoms=((-1.75, 0.2), (1.0505151733917296e-149, 0.2)),
              arcsine_parts=(ArcsinePart(0.2, -0.5, 1.375), ArcsinePart(0.2, 0.5, 0.5),
                             ArcsinePart(0.2, -1.75, 0.125))),
]
# the top of the atom at 0 lies within the rounding of F - u of the bracket
# end 0: every Newton point lands left of it (found by this test)
ROOT_AT_A_BRACKET_END = Measure1D(
    atoms=((0.0, 0.493248884818479),),
    pieces=((-0.001, 0.0, 0.9377465067519425), (0.0, 0.249, 0.9377465067519425)),
    arcsine_parts=(ArcsinePart(0.2723144884935353, 0.0, 0.001),))


@settings(max_examples=300, deadline=None)
@given(analytic_mixtures(), st.lists(st.floats(0, 1), max_size=20))
@example(BESIDE_A_PART_END[0], [])
@example(BESIDE_A_PART_END[1], [])
@example(BESIDE_A_PART_END[2], [])
@example(ROOT_AT_A_BRACKET_END, [])
def test_newton_quantile_against_bisection(m, drawn):
    q = AnalyticQuantile(m)
    levels = q.s_breaks
    u = np.unique(np.concatenate([
        np.linspace(0, 1, 257), drawn, levels,
        np.clip(levels[:, None] + [-1e-9, -1e-15, 1e-15, 1e-9], 0.0, 1.0).ravel()]))
    got = q(u)
    # F rounds to about eps absolute, so a root is known to a few ulps of
    # the support, or to where the mass strictly between two answers is a
    # few eps (a few eps over the density)
    ulp = np.spacing(max(map(abs, m.support)))

    def close(x, y):
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        between = m.cdf(hi) - m.cdf(np.nextafter(lo, np.inf))
        return (hi - lo <= 8 * ulp) | (between <= 16 * EPS)

    # nondecreasing: two roots may swap only within that
    assert np.all((np.diff(got) >= 0.0) | close(got[:-1], got[1:]))
    # exact inside every atom
    for pos, mass in m.atoms:
        inside = m.cdf(pos) + mass * np.array([0.0, 0.25, 0.5, 0.75])
        assert np.all(q(inside) == pos)
    ref = bisection_quantile(m, u)
    agree = close(got, ref)
    assert np.all(agree), (u[~agree], got[~agree], ref[~agree])


def test_newton_roots_without_brackets_evaluates_nothing():
    def fun(x, k):
        raise AssertionError("evaluated with no brackets")

    none = np.empty(0)
    roots = newton_roots(fun, none, none, none, none, none.astype(bool), none.astype(bool))
    assert roots.shape == (0,)


@settings(max_examples=100, deadline=None)
@given(st.lists(analytic_mixtures(), min_size=1, max_size=3),
       st.lists(st.floats(-3, 3), max_size=10))
def test_rows_sum_each_measure_term_by_term(measures, drawn):
    """MeasureRows pads the rows of shorter measures with terms that add
    nothing, and adds each row's terms in the order of the measure alone:
    atoms (as searchsorted counts them), then pieces, then parts."""
    table = MeasureRows.of(measures)
    ends = np.array([e for m in measures for e in m.support] + drawn)
    x = np.concatenate([ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf)])
    for i, m in enumerate(measures):
        cdf, density = np.zeros(x.size), np.zeros(x.size)
        if m.atoms:
            cum = np.concatenate([[0.0], np.cumsum([mass for _, mass in m.atoms])])
            cdf = cdf + cum[np.searchsorted([pos for pos, _ in m.atoms], x)]
        for lo, hi, rho in m.pieces:
            cdf = cdf + rho * np.minimum(np.maximum(x - lo, 0.0), hi - lo)
            density = density + np.where((x >= lo) & (x < hi), rho, 0.0)
        for pt in m.arcsine_parts:
            z = np.minimum(np.maximum((x - pt.center) / pt.radius, -1.0), 1.0)
            cdf = cdf + pt.weight * (0.5 + np.arcsin(z) / np.pi)
            d = (x - (pt.center - pt.radius)) * ((pt.center + pt.radius) - x)
            with np.errstate(divide="ignore", invalid="ignore"):
                density = density + np.where(d >= 0.0, (pt.weight / np.pi) / np.sqrt(d), 0.0)
        rows = np.full(x.size, i)
        np.testing.assert_array_equal(table.cdf(x, rows), cdf)
        np.testing.assert_array_equal(table.density(x, rows), density)


def test_density_slope_against_mpmath():
    """d/dx of the density of three arcsine parts and a piece, against an
    mpmath derivative of the closed form w / (pi sqrt((x - lo)(hi - x)))
    with the parts' ends as stored, at generic points and at points from
    1e-12 to 1e-3 radii inside each end."""
    import mpmath as mp
    parts = [(0.4, 0.25, 0.75), (0.3, -0.125, 0.5), (0.2, 1.5, 0.25)]
    m = Measure1D.from_components(pieces=[(-1.0, 0.0, 0.1)],
                                  arcsine_parts=[ArcsinePart(*p) for p in parts])
    ends = [(w, c - r, c + r, r) for w, c, r in parts]
    x = [-0.55, -0.3, 0.1, 0.6, 0.9, 1.3, 1.6] + [
        e + sign * d * r for _, lo, hi, r in ends for e, sign in ((lo, 1), (hi, -1))
        for d in (1e-12, 1e-9, 1e-6, 1e-3)]
    x = np.array(x)
    got = m._rows.density_slope(x, np.zeros(x.size, dtype=int))
    mp.mp.dps = 50
    for xi, gi in zip(x, got):
        terms = [mp.diff(lambda y: w / (mp.pi * mp.sqrt((y - lo) * (hi - y))), mp.mpf(xi))
                 for w, lo, hi, _ in ends if lo < xi < hi]
        ref = mp.fsum(terms)
        assert abs(gi - ref) <= 1e-14 * mp.fsum(map(abs, terms)), (xi, gi, ref)


class TestAnalyticQuantile:
    def test_atom_levels_are_exact(self):
        # the bisection returned its last bracket's midpoint, an ulp above
        # the atom: 0.30000000000000004 and -0.44999999999999996
        for pos in (0.3, -0.45):
            m = mix([(0.5, Measure1D.dirac(pos)), (0.5, Measure1D.arcsine())])
            assert AnalyticQuantile(m)(0.6) == pos

    def test_gap_resolves_to_its_upper_end(self):
        m = Measure1D.from_components(arcsine_parts=[ArcsinePart(0.5, -1.5, 0.5),
                                                     ArcsinePart(0.5, 1.5, 0.5)])
        q = AnalyticQuantile(m)
        assert q(0.5) == 1.0
        assert left_limit(q, np.array([0.5]))[0] == -1.0
        assert q(np.nextafter(0.5, 0.0)) == pytest.approx(-1.0, abs=1e-15)


# ---------------------------------------------------------------- pushforward


class TestPushforward:
    def test_dilation(self):
        T = from_breakpoints([(-1.0, -2.0), (1.0, 2.0)])
        out = pushforward_pwl(Measure1D.uniform(-1, 1), T)
        assert isclose(out, Measure1D.uniform(-2, 2))

    def test_flat_stretch_collapses_to_atom(self):
        # map with a constant 0 stretch over [-0.5, 0.5]
        T = from_breakpoints(
            [(-1.0, -1.0), (-0.5, 0.0), (0.5, 0.0), (1.0, 1.0)])
        out = pushforward_pwl(Measure1D.uniform(-1, 1), T)
        expect = Measure1D.from_components(atoms=[(0.0, 0.5)],
                                           pieces=[(-1.0, 1.0, 0.25)])
        assert isclose(out, expect)

    def test_identity_is_exact(self):
        m = Measure1D.from_components(atoms=[(0.3, 0.25)],
                                      pieces=[(-1.0, 0.5, 0.5)])
        out = pushforward_pwl(m, PiecewiseLinearMap.identity(-5.0, 5.0))
        assert out == m  # bit-for-bit, not just within tolerance

    def test_rejects_non_monotone(self):
        with pytest.raises(MeasureError):
            from_breakpoints([(0.0, 1.0), (1.0, 0.0)])

    def test_rejects_analytic(self):
        with pytest.raises(MeasureError):
            pushforward_pwl(Measure1D.arcsine(), PiecewiseLinearMap.identity())

    def test_left_extension_takes_the_left_slope(self):
        # the half of uniform(-1, 1) left of the map's first breakpoint
        # stretches by the left slope 2 onto [-2, 0]
        T = PiecewiseLinearMap([0.0, 1.0], [0.0, 1.0], left_slope=2.0, right_slope=1.0)
        out = pushforward_pwl(Measure1D.uniform(-1, 1), T)
        assert out.pieces == ((-2.0, 0.0, 0.25), (0.0, 1.0, 0.5))
        assert out.atoms == ()


@pytest.mark.parametrize("make,message", [
    (lambda: ArcsinePart(0.0), "arcsine weight must be positive"),
    (lambda: ArcsinePart(1.0, 0.0, 0.0), "arcsine radius must be positive"),
    (lambda: Measure1D.from_components(pieces=[(1.0, 0.0, 1.0)]), "piece has hi < lo: (1.0, 0.0)"),
    (lambda: Measure1D.uniform(1.0, 1.0), "uniform requires a < b"),
    (lambda: Measure1D.uniform(-1.0, 1.0).scaled(0.0), "scale factor must be nonzero"),
    (lambda: QuantileFn([0.0, 1.0], [0.0, 1.0, 2.0]),
     "quantile breakpoints must be parallel 1-D arrays"),
    (lambda: QuantileFn([0.0, 0.6, 0.5, 1.0], [0.0, 1.0, 2.0, 3.0]),
     "quantile breakpoints must be nondecreasing"),
    (lambda: QuantileFn([0.1, 1.0], [0.0, 1.0]), "quantile s-range must be exactly [0, 1]"),
    (lambda: PiecewiseLinearMap([0.0, 1.0], [0.0]), "map breakpoints must be parallel 1-D arrays"),
    (lambda: PiecewiseLinearMap([1.0, 0.0], [0.0, 1.0]), "map x-breakpoints must be nondecreasing"),
], ids=["arcsine-weight", "arcsine-radius", "piece-order", "uniform-order", "scale-zero",
        "quantile-shape", "quantile-order", "quantile-range", "map-shape", "map-order"])
def test_constructors_refuse_malformed_input(make, message):
    with pytest.raises(MeasureError) as info:
        make()
    assert str(info.value) == message


@st.composite
def component_rows(draw):
    """1-3 rows of K components (lo, hi, mass), lo == hi an atom: free
    atoms and intervals, atoms at +-1e308, atoms at an end of an earlier
    component (on an earlier atom, they coincide), and intervals nested
    in, touching or equal to an earlier one, so that a row's top point
    often repeats.  Each row's masses sum to 1."""
    k = draw(st.integers(1, 4))
    kinds = ["atom", "interval", "far atom", "end atom", "nested", "touching", "equal"]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        comps = []
        for _ in range(k):
            kind = draw(st.sampled_from(kinds if comps else kinds[:3]))
            if comps:
                plo, phi, _ = comps[draw(st.integers(0, len(comps) - 1))]
            if kind == "atom":
                lo = hi = draw(st.floats(-10, 10))
            elif kind == "interval":
                lo = draw(st.floats(-10, 10))
                hi = lo + draw(st.floats(1e-3, 5))
            elif kind == "far atom":
                lo = hi = draw(st.sampled_from([-1e308, 1e308]))
            elif kind == "end atom":
                lo = hi = draw(st.sampled_from([plo, phi]))
            elif kind == "nested":
                lo = plo + (phi - plo) * draw(st.floats(0, 0.5))
                hi = phi - (phi - plo) * draw(st.floats(0, 0.5))
            elif kind == "touching":
                lo, hi = phi, phi + draw(st.floats(1e-3, 5))
            else:
                lo, hi = plo, phi
            comps.append((lo, hi, draw(st.floats(0.05, 1.0))))
        total = sum(m for _, _, m in comps)
        rows.append([(lo, hi, m / total) for lo, hi, m in comps])
    return np.array(rows)


def _order_key(x):
    """Floats as int64 keys in the same order, adjacent floats adjacent."""
    i = x.view(np.int64)
    return np.where(i < 0, -(i & 0x7FFFFFFFFFFFFFFF), i)


def _from_key(k):
    return np.where(k < 0, (-k) | np.int64(-2 ** 63), k).view(float)


@settings(max_examples=100, deadline=None)
@given(component_rows())
@example(np.array([[(-1e308, -1e308, 0.25), (0.0, 1.0, 0.5), (1e308, 1e308, 0.25)],
                   [(-1e308, -1e308, 0.5), (1e308, 1e308, 0.25), (1e308, 1e308, 0.25)]]))
@example(np.array([[(0.0, 1.0, 0.5), (0.5, 1.0, 0.25), (1.0, 1.0, 0.25)]]))
def test_quantile_rows_against_bisection(rows):
    lo, hi, m = rows.transpose(2, 0, 1)
    atom = lo == hi
    s, x = quantile_rows(lo, hi, np.where(atom, m, m / np.where(atom, 1.0, hi - lo)))

    def cdf(y, r, closed=False):
        # F(y), the mass of (-inf, y) in the rows r (of (-inf, y] if
        # closed): the atoms below y (or at it) plus
        # sum_k m_k clip((y - lo_k) / (hi_k - lo_k), 0, 1) over the intervals
        a, b, w = lo[r], hi[r], m[r]
        with np.errstate(over="ignore", invalid="ignore"):
            part = np.clip((y[:, None] - a) / np.where(atom[r], 1.0, b - a), 0.0, 1.0)
        below = a <= y[:, None] if closed else a < y[:, None]
        return (np.where(atom[r], below, part) * w).sum(axis=1)

    r = np.repeat(np.arange(len(s)), s.shape[1])
    # every point is at an endpoint e, each endpoint once, in order, and
    # its level lies between F(e-) and F(e+)
    np.testing.assert_array_equal(x, np.sort(np.concatenate([lo, hi], axis=1)))
    assert np.all(np.diff(s, axis=1) >= 0.0) and np.all(s[:, 0] == 0.0)
    assert np.all(cdf(x.ravel(), r) <= s.ravel() + 1e-12)
    assert np.all(s.ravel() <= cdf(np.nextafter(x.ravel(), np.inf), r) + 1e-12)
    # at an atom's position the levels reach both F(e-) and F(e+)
    for i, k in zip(*np.nonzero(atom)):
        levels, e = s[i, x[i] == lo[i, k]], lo[i, k, None]
        for want in (cdf(e, [i]), cdf(e, [i], closed=True)):
            assert np.min(np.abs(levels - want)) <= 1e-12
    # a top point that repeats is at level 1 each time
    assert np.all(s[x == x[:, -1:]] != np.nextafter(1.0, 0.0)) and np.all(s[:, -1] == 1.0)
    # Q(u) = sup{x : F(x) <= u} by bisection over the floats, at levels
    # inside each segment, against the polylines
    u, ur = [], []
    for i, (si, xi) in enumerate(zip(s, x)):
        q = QuantileFn(si, xi)
        j = np.flatnonzero(np.diff(si) > 1e-9)
        levels = (si[j, None] + np.diff(si)[j, None] * np.array([0.25, 0.5, 0.75])).ravel()
        u.append(levels)
        ur.append(np.full(levels.size, i))
        got = q(levels) if i == 0 else np.append(got, q(levels))
    u, ur = np.concatenate(u), np.concatenate(ur)
    below = _order_key(x[ur, 0])
    above = _order_key(np.nextafter(x[ur, -1], np.inf))
    for _ in range(70):
        mid = below // 2 + above // 2 + ((below & 1) + (above & 1)) // 2
        ok = cdf(_from_key(mid), ur) <= u
        below, above = np.where(ok, mid, below), np.where(ok, above, mid)
    want = _from_key(below)
    assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))


@settings(max_examples=100, deadline=None)
@given(component_rows(), st.booleans())
@example(np.array([[(-1e308, -1e308, 0.25), (0.0, 1.0, 0.5), (1e308, 1e308, 0.25)],
                   [(-1e308, -1e308, 0.5), (1e308, 1e308, 0.25), (1e308, 1e308, 0.25)]]), True)
def test_quantile_rows_match_one_row_calls(rows, shared):
    # the builder runs direction-minor over all rows at once: each row of
    # an n-row call is its one-row call, bit for bit, and so is the whole
    # table the row-wise builder's, with a v per row or one v row for all
    lo, hi, m = rows.transpose(2, 0, 1)
    atom = lo == hi
    v = np.where(atom, m, m / np.where(atom, 1.0, hi - lo))
    if shared:
        v = v[0]
    s, x = quantile_rows(lo, hi, v)
    assert s.shape == x.shape == (len(rows), 2 * rows.shape[1])
    assert s.flags.c_contiguous and x.flags.c_contiguous
    want_s, want_x = quantile_rows_by_row(lo, hi, v)
    assert s.tobytes() == want_s.tobytes() and x.tobytes() == want_x.tobytes()
    for r in range(len(rows)):
        one_s, one_x = quantile_rows(lo[r:r + 1], hi[r:r + 1], v if shared else v[r:r + 1])
        assert one_s.tobytes() == s[r].tobytes() and one_x.tobytes() == x[r].tobytes()


# ------------------------------------------------------------------- sampling


class TestSampling:
    def test_uniform_law_of_large_numbers(self):
        xs = Measure1D.uniform(-1, 1).sample(100_000, seed=42)
        sigma = math.sqrt(1.0 / 3.0)
        assert abs(xs.mean()) < 4 * sigma / math.sqrt(100_000)

    def test_dirac(self):
        xs = Measure1D.dirac(0.2).sample(50, seed=0)
        assert np.all(xs == 0.2)

    def test_arcsine_empirical_cdf(self):
        xs = Measure1D.arcsine().sample(100_000, seed=7)
        assert abs(np.mean(xs < 0.0) - 0.5) < 0.01  # 4x binomial SE is 0.0063

    def test_deterministic_per_seed(self):
        a = mixed_atom_measure().sample(100, seed=5)
        b = mixed_atom_measure().sample(100, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(MeasureError, match="seed must be >= 0, got -1"):
            mixed_atom_measure().sample(10, seed=-1)
        with pytest.raises(MeasureError, match="seed must be an integer, got 1.5"):
            mixed_atom_measure().sample(3, 1.5)

    def test_rejects_non_integral_size(self):
        with pytest.raises(MeasureError, match="sample size must be an integer, got 2.5"):
            mixed_atom_measure().sample(2.5, seed=0)


# -------------------------------------------------------------- serialization


class TestTextFormat:
    def test_round_trip(self):
        m = mixed_atom_measure()
        again = measure_from_text(measure_to_text(m))
        assert again == m

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(MeasureError, match="line 2"):
            measure_from_text("atom 0 1\npiece oops\n")

    def test_analytic_not_serializable(self):
        with pytest.raises(MeasureError):
            measure_to_text(Measure1D.arcsine())


class TestTransforms:
    def test_scaled(self):
        m = mixed_atom_measure().scaled(2.0)
        assert isclose(m, Measure1D.from_components(
            atoms=[(0.4, 0.5)], pieces=[(-2.0, 2.0, 0.125)]))

    def test_scaled_negative_reflects(self):
        m = Measure1D.from_components(pieces=[(0.0, 1.0, 1.0)]).scaled(-1.0)
        assert isclose(m, Measure1D.uniform(-1.0, 0.0))

    def test_shifted(self):
        m = Measure1D.uniform(-1, 1).shifted(3.0)
        assert isclose(m, Measure1D.uniform(2.0, 4.0))

    @pytest.mark.parametrize("c", [1.7601568569932668, -1.76, 2500.0])
    def test_shifted_keeps_a_narrow_dense_piece_mass(self, c):
        # lo + c and hi + c round, so the width moves by up to an ulp of the
        # new ends: keeping the density of 315 moved the mass by 630 ulps
        m = Measure1D.from_components([(-0.5, 1.0 - 315.0 * (0.101 - 0.1))],
                                      [(0.1, 0.101, 315.0)])
        (lo, hi, rho), = m.pieces
        (lo2, hi2, rho2), = m.shifted(c).pieces
        assert hi2 - lo2 != hi - lo
        assert abs(rho2 * (hi2 - lo2) - rho * (hi - lo)) <= 2 * math.ulp(rho * (hi - lo))
