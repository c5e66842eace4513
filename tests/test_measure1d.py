import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swgeo.measure1d import (
    Measure1D,
    MeasureError,
    PiecewiseLinearMap,
    cdf_eval,
    measure_from_text,
    measure_to_text,
    pushforward_pwl,
    quantile,
    sample,
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

    def test_piece_split_at_interior_atom(self):
        m = mixed_atom_measure()
        assert m.pieces == ((-1.0, 0.2, 0.25), (0.2, 1.0, 0.25))

    def test_adjacent_equal_density_pieces_merge(self):
        m = Measure1D.from_components(pieces=[(-1.0, 0.0, 0.5), (0.0, 1.0, 0.5)])
        assert m.pieces == ((-1.0, 1.0, 0.5),)

    def test_mix(self):
        m = Measure1D.mix([(0.5, Measure1D.uniform(-1, 1)),
                           (0.5, Measure1D.dirac(0.2))])
        assert m.isclose(mixed_atom_measure())


# ------------------------------------------------------------------------ cdf


class TestCdf:
    def test_uniform_midpoint(self):
        assert cdf_eval(Measure1D.uniform(-1, 1), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_atom_excluded_at_its_position(self):
        # open half-line convention: F(0.2) counts only the density below
        assert cdf_eval(mixed_atom_measure(), 0.2) == pytest.approx(0.3, abs=1e-15)
        assert cdf_eval(mixed_atom_measure(), 0.2 + 1e-9) == pytest.approx(
            0.8, abs=1e-8)

    def test_arcsine_symmetry(self):
        assert cdf_eval(Measure1D.arcsine(), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized(self):
        m = mixed_atom_measure()
        xs = np.array([-2.0, -1.0, 0.0, 0.2, 0.5, 2.0])
        np.testing.assert_allclose(m.cdf(xs), [0.0, 0.0, 0.25, 0.3, 0.875, 1.0],
                                   atol=1e-15)


# ------------------------------------------------------------------- quantile


class TestQuantile:
    def test_uniform_is_affine(self):
        q = quantile(Measure1D.uniform(-1, 1))
        s = np.linspace(0, 1, 101)
        np.testing.assert_allclose(q(s), 2 * s - 1, atol=1e-15)

    def test_atom_mixture_matches_piecewise_formula(self):
        # alpha = 0.5, beta = 0.2: affine up to 0.3, flat at 0.2 until 0.8
        q = quantile(Measure1D.mix([(0.5, Measure1D.uniform(-1, 1)),
                                    (0.5, Measure1D.dirac(0.2))]))
        s = np.linspace(0, 1, 2001)
        ref = np.where(s < 0.3, -1 + 4 * s,
                       np.where(s <= 0.8, 0.2, -1 + 4 * (s - 0.5)))
        np.testing.assert_allclose(q(s), ref, atol=1e-12)

    def test_arcsine_value(self):
        q = quantile(Measure1D.arcsine())
        assert q(0.75) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    def test_support_gap_gives_upper_value(self):
        m = Measure1D.from_components(pieces=[(-2.0, -1.0, 0.5), (1.0, 2.0, 0.5)])
        q = quantile(m)
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
    T = PiecewiseLinearMap.from_breakpoints(
        [(-12.0, shift - 12 * scale), (12.0, shift + 12 * scale)],
        left_slope=scale, right_slope=scale)
    image = pushforward_pwl(m, T)
    total = (sum(mass for _, mass in image.atoms)
             + sum((hi - lo) * rho for lo, hi, rho in image.pieces))
    assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------------- pushforward


class TestPushforward:
    def test_dilation(self):
        T = PiecewiseLinearMap.from_breakpoints([(-1.0, -2.0), (1.0, 2.0)])
        out = pushforward_pwl(Measure1D.uniform(-1, 1), T)
        assert out.isclose(Measure1D.uniform(-2, 2))

    def test_flat_stretch_collapses_to_atom(self):
        # map with a constant 0 stretch over [-0.5, 0.5]
        T = PiecewiseLinearMap.from_breakpoints(
            [(-1.0, -1.0), (-0.5, 0.0), (0.5, 0.0), (1.0, 1.0)])
        out = pushforward_pwl(Measure1D.uniform(-1, 1), T)
        expect = Measure1D.from_components(atoms=[(0.0, 0.5)],
                                           pieces=[(-1.0, 1.0, 0.25)])
        assert out.isclose(expect)

    def test_identity_is_exact(self):
        m = Measure1D.from_components(atoms=[(0.3, 0.25)],
                                      pieces=[(-1.0, 0.5, 0.5)])
        out = pushforward_pwl(m, PiecewiseLinearMap.identity(-5.0, 5.0))
        assert out == m  # bit-for-bit, not just within tolerance

    def test_rejects_non_monotone(self):
        with pytest.raises(MeasureError):
            PiecewiseLinearMap.from_breakpoints([(0.0, 1.0), (1.0, 0.0)])

    def test_rejects_analytic(self):
        with pytest.raises(MeasureError):
            pushforward_pwl(Measure1D.arcsine(), PiecewiseLinearMap.identity())


# ------------------------------------------------------------------- sampling


class TestSampling:
    def test_uniform_law_of_large_numbers(self):
        xs = sample(Measure1D.uniform(-1, 1), 100_000, seed=42)
        sigma = math.sqrt(1.0 / 3.0)
        assert abs(xs.mean()) < 4 * sigma / math.sqrt(100_000)

    def test_dirac(self):
        xs = sample(Measure1D.dirac(0.2), 50, seed=0)
        assert np.all(xs == 0.2)

    def test_arcsine_empirical_cdf(self):
        xs = sample(Measure1D.arcsine(), 100_000, seed=7)
        assert abs(np.mean(xs < 0.0) - 0.5) < 0.01  # 4x binomial SE is 0.0063

    def test_deterministic_per_seed(self):
        a = sample(mixed_atom_measure(), 100, seed=5)
        b = sample(mixed_atom_measure(), 100, seed=5)
        np.testing.assert_array_equal(a, b)


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
        assert m.isclose(Measure1D.from_components(
            atoms=[(0.4, 0.5)], pieces=[(-2.0, 2.0, 0.125)]))

    def test_scaled_negative_reflects(self):
        m = Measure1D.from_components(pieces=[(0.0, 1.0, 1.0)]).scaled(-1.0)
        assert m.isclose(Measure1D.uniform(-1.0, 0.0))

    def test_shifted(self):
        m = Measure1D.uniform(-1, 1).shifted(3.0)
        assert m.isclose(Measure1D.uniform(2.0, 4.0))
