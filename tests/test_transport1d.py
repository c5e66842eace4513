import math

import numpy as np
import pytest

from swgeo.families import mu_curve, mu_family, w_p_mu01
from swgeo.measure1d import Measure1D, MeasureError, pushforward_pwl
from swgeo.transport1d import (
    geodesic_deviation,
    interpolate,
    optimal_map,
    pairwise_deviation,
    wasserstein_inf,
    wasserstein_p,
)


def atom_mixture(alpha, beta):
    return Measure1D.mix([(1 - alpha, Measure1D.uniform(-1, 1)),
                          (alpha, Measure1D.dirac(beta))])


# ---------------------------------------------------------------- optimal map


class TestOptimalMap:
    def test_matches_piecewise_formula(self):
        alpha, beta = 0.5, 0.0
        T = optimal_map(Measure1D.uniform(-1, 1), atom_mixture(alpha, beta))
        s = np.linspace(-1, 1, 10_001)
        a1 = beta - alpha * (1 + beta)
        a2 = beta + alpha * (1 - beta)
        ref = np.where(s < a1, -1 + (s + 1) / (1 - alpha),
                       np.where(s < a2, beta, -1 + (s + 1 - 2 * alpha) / (1 - alpha)))
        assert np.max(np.abs(T(s) - ref)) < 1e-12
        assert T(-0.75) == pytest.approx(-0.5, abs=1e-15)

    def test_identity_when_measures_equal(self):
        u = Measure1D.uniform(-1, 1)
        T = optimal_map(u, u)
        s = np.linspace(-1, 1, 101)
        np.testing.assert_allclose(T(s), s, atol=1e-15)

    def test_affine_between_uniforms(self):
        T = optimal_map(Measure1D.uniform(-1, 1), Measure1D.uniform(0, 1))
        s = np.linspace(-1, 1, 101)
        np.testing.assert_allclose(T(s), (s + 1) / 2, atol=1e-15)

    def test_rejects_atomful_source(self):
        with pytest.raises(MeasureError):
            optimal_map(atom_mixture(0.5, 0.0), Measure1D.uniform(-1, 1))

    def test_rejects_arcsine(self):
        with pytest.raises(MeasureError):
            optimal_map(Measure1D.uniform(-1, 1), Measure1D.arcsine())

    def test_pushforward_hits_target(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            alpha = rng.uniform(0.05, 0.95)
            beta = rng.uniform(-1.0, 1.0)
            mu = Measure1D.uniform(-1, 1)
            nu = atom_mixture(alpha, beta)
            image = pushforward_pwl(mu, optimal_map(mu, nu))
            assert image.isclose(nu, tol=1e-12)

    def test_target_with_support_gap(self):
        nu = Measure1D.from_components(pieces=[(-2.0, -1.0, 0.25),
                                               (1.0, 2.0, 0.75)])
        mu = Measure1D.uniform(0, 1)
        image = pushforward_pwl(mu, optimal_map(mu, nu))
        assert image.isclose(nu, tol=1e-12)


    def test_pushforward_cdf_on_gapped_sources_and_atomic_targets(self):
        # sources: 1-4 pieces, each touching its left neighbour or after a
        # gap; targets: such pieces plus up to 3 atoms, half of them at
        # piece ends.  Breakpoint lists may differ by rounding-size pieces
        # and atom splits, so the CDFs are compared, not the canonical forms.
        rng = np.random.default_rng(2026)

        def draw(n_atoms):
            ends = [rng.uniform(-2.0, 0.0)]
            for _ in range(rng.integers(1, 5)):
                lo = ends[-1] + (0.0 if rng.random() < 0.5 else rng.uniform(0.01, 1.0))
                ends += [lo, lo + rng.uniform(0.05, 1.0)]
            bounds = list(zip(ends[1::2], ends[2::2]))
            atoms = [rng.choice(ends[1:]) if rng.random() < 0.5
                     else rng.uniform(ends[0] - 0.5, ends[-1] + 0.5)
                     for _ in range(n_atoms)]
            w = rng.dirichlet(np.ones(len(bounds) + n_atoms))
            return Measure1D.from_components(
                list(zip(atoms, w[len(bounds):])),
                [(lo, hi, wi / (hi - lo)) for (lo, hi), wi in zip(bounds, w)])

        for _ in range(300):
            mu, nu = draw(0), draw(int(rng.integers(0, 4)))
            image = pushforward_pwl(mu, optimal_map(mu, nu))
            lo, hi = nu.support
            grid = np.concatenate([np.linspace(lo - 0.1, hi + 0.1, 2001),
                                   [x for x, _ in nu.atoms],
                                   [x for piece in nu.pieces for x in piece[:2]]])
            assert np.max(np.abs(image.cdf(grid) - nu.cdf(grid))) <= 1e-12


# -------------------------------------------------------------- interpolation


class TestInterpolate:
    def test_endpoints(self):
        mu = Measure1D.uniform(-1, 1)
        nu = atom_mixture(0.5, 0.2)
        assert interpolate(mu, nu, 0.0) == mu
        assert interpolate(mu, nu, 1.0).isclose(nu, tol=1e-12)

    def test_closed_form_densities(self):
        # lam = 0.1, alpha = 0.5, beta = 0.2: interval of radius 0.45 at 0.11,
        # inside density 1/1.8, outside 0.5/1.1
        out = interpolate(Measure1D.uniform(-1, 1), atom_mixture(0.5, 0.2), 0.1)
        expect = Measure1D.from_components(pieces=[
            (-1.0, -0.34, 0.5 / 1.1),
            (-0.34, 0.56, 1.0 / 1.8),
            (0.56, 1.0, 0.5 / 1.1)])
        assert out.isclose(expect, tol=1e-12)

    def test_matches_family_at_random_parameters(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(-1, 1, 1001)
        for _ in range(20):
            alpha = rng.uniform(0.05, 0.95)
            beta = rng.uniform(-1.0, 1.0)
            t = rng.uniform(0.0, 1.0)
            via_map = interpolate(Measure1D.uniform(-1, 1),
                                  atom_mixture(alpha, beta), t)
            closed = mu_family(alpha, beta, t)
            assert np.max(np.abs(via_map.cdf(grid) - closed.cdf(grid))) < 1e-12

    def test_rejects_lambda_outside_unit_interval(self):
        mu, nu = Measure1D.uniform(-1, 1), atom_mixture(0.5, 0.0)
        with pytest.raises(MeasureError):
            interpolate(mu, nu, -0.1)
        with pytest.raises(MeasureError):
            interpolate(mu, nu, 1.1)


# ------------------------------------------------------------------ distances


class TestWassersteinP:
    def test_simplified_endpoint_formula(self):
        for alpha in (0.3, 0.5, 0.8):
            for p in (1.0, 1.5, 2.0, 3.0):
                got = wasserstein_p(mu_family(alpha, 0, 0), mu_family(alpha, 0, 1), p)
                assert got == pytest.approx(alpha / (p + 1) ** (1 / p), abs=1e-12)

    def test_identical_measures(self):
        m = atom_mixture(0.4, 0.3)
        assert wasserstein_p(m, m, 2.0) == 0.0

    def test_dirac_pair(self):
        for p in (1.0, 2.0, 3.7):
            got = wasserstein_p(Measure1D.dirac(0.0), Measure1D.dirac(-0.7), p)
            assert got == pytest.approx(0.7, abs=1e-14)

    def test_non_integer_exponent_vs_quadrature(self):
        from scipy.integrate import quad
        mu, nu = Measure1D.uniform(-1, 1), atom_mixture(0.5, 0.2)
        qa, qb = mu.quantile_fn(), nu.quantile_fn()
        p = 2.6
        ref = quad(lambda u: abs(qa(u) - qb(u)) ** p, 0, 1,
                   points=[0.3, 0.8], limit=200)[0] ** (1 / p)
        assert wasserstein_p(mu, nu, p) == pytest.approx(ref, rel=1e-9)

    def test_rejects_bad_p(self):
        u = Measure1D.uniform(-1, 1)
        with pytest.raises(MeasureError):
            wasserstein_p(u, u, 0.5)
        with pytest.raises(MeasureError):
            wasserstein_p(u, u, math.inf)

    def test_analytic_path_against_quadrature(self):
        from scipy.integrate import quad
        mu = Measure1D.arcsine()
        nu = Measure1D.uniform(-1, 1)
        for p in (1.5, 2.0, 3.0):
            ref = quad(lambda u: abs(math.sin(math.pi * (u - 0.5)) - (2 * u - 1)) ** p,
                       0, 1, limit=200)[0] ** (1 / p)
            assert wasserstein_p(mu, nu, p) == pytest.approx(ref, rel=1e-8)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(11)
        catalog = [Measure1D.uniform(-1, 1), atom_mixture(0.3, -0.4),
                   atom_mixture(0.6, 0.5), mu_family(0.5, 0.2, 0.3),
                   Measure1D.dirac(0.1)]
        for _ in range(30):
            a, b, c = rng.choice(len(catalog), size=3)
            p = rng.choice([1.0, 1.5, 2.0, 4.0])
            ma, mb, mc = catalog[a], catalog[b], catalog[c]
            dab = wasserstein_p(ma, mb, p)
            assert dab == pytest.approx(wasserstein_p(mb, ma, p), abs=1e-10)
            assert dab <= wasserstein_p(ma, mc, p) + wasserstein_p(mc, mb, p) + 1e-10

    def test_large_p_approaches_sup_distance(self):
        mu, nu = mu_family(0.5, 0, 0), mu_family(0.5, 0, 1)
        w_inf = wasserstein_inf(mu, nu)
        w_big = wasserstein_p(mu, nu, 2.0 ** 10)
        assert abs(w_big - w_inf) / w_inf < 0.02

    def test_closed_form_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        u = rng.random(1_000_000)
        for _ in range(5):
            alpha = rng.uniform(0.1, 0.9)
            beta = rng.uniform(-0.9, 0.9)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            mu, nu = Measure1D.uniform(-1, 1), atom_mixture(alpha, beta)
            qa, qb = mu.quantile_fn(), nu.quantile_fn()
            mc = np.mean(np.abs(qa(u) - qb(u)) ** p) ** (1 / p)
            assert wasserstein_p(mu, nu, p) == pytest.approx(mc, abs=1e-3)


class TestWassersteinInf:
    def test_family_distance_is_linear_in_time(self):
        alpha = 0.5
        for t, s in [(0.0, 1.0), (0.2, 0.7), (0.5, 0.5)]:
            got = wasserstein_inf(mu_family(alpha, 0, t), mu_family(alpha, 0, s))
            assert got == pytest.approx(alpha * abs(t - s), abs=1e-12)

    def test_identical_measures(self):
        m = atom_mixture(0.25, 0.6)
        assert wasserstein_inf(m, m) == 0.0

    def test_arcsine_with_atom_against_brute_force(self):
        # independent oracle: monotone matching of 1e5 quantile levels,
        # using the closed-form quantile of t delta_0 + (1-t) arcsine
        t = 0.5
        eta = Measure1D.from_components(
            atoms=[(0.0, t)],
            arcsine_parts=[Measure1D.arcsine().arcsine_parts[0].__class__(1 - t)])
        xi = Measure1D.arcsine()
        u = (np.arange(100_000) + 0.5) / 100_000
        lo, hi = (1 - t) / 2, (1 + t) / 2
        q_eta = np.where(u < lo, np.sin(np.pi * (u / (1 - t) - 0.5)),
                         np.where(u <= hi, 0.0,
                                  np.sin(np.pi * ((u - t) / (1 - t) - 0.5))))
        brute = np.max(np.abs(q_eta - np.sin(np.pi * (u - 0.5))))
        got = wasserstein_inf(eta, xi)
        assert got == pytest.approx(brute, abs=1e-3)
        assert got == pytest.approx(math.sin(math.pi * 0.25), abs=1e-8)


class TestGeodesicDeviation:
    GRID = [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_family_is_constant_speed(self):
        assert geodesic_deviation(mu_curve(0.5, 0.2), 2.0, self.GRID) < 1e-8

    def test_constant_curve(self):
        m = Measure1D.uniform(-1, 1)
        assert geodesic_deviation(lambda t: m, 2.0, self.GRID) == 0.0

    def test_translation_family(self):
        curve = lambda t: Measure1D.dirac(t)
        assert geodesic_deviation(curve, 2.0, self.GRID) < 1e-14

    def test_requires_endpoints_in_grid(self):
        with pytest.raises(MeasureError):
            geodesic_deviation(mu_curve(0.5, 0.0), 2.0, [0.0, 0.5])

    def test_pairwise_rows(self):
        # one row (t, s, d, target, |d - target|) per pair t < s of the
        # deduplicated grid; t -> t is not constant speed in |t - s|^2
        dist = lambda a, b: abs(a - b) ** 2
        rows = pairwise_deviation(lambda t: t, dist, [1.0, 0.5, 0.0, 0.5])
        assert rows == [(0.0, 0.5, 0.25, 0.5, 0.25), (0.0, 1.0, 1.0, 1.0, 0.0),
                        (0.5, 1.0, 0.25, 0.5, 0.25)]
        with pytest.raises(MeasureError):
            pairwise_deviation(lambda t: t, dist, [0.0, 1.0, 1.5])


class TestEndpointClosedForm:
    def test_cross_validation_against_quantile_distance(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            alpha = rng.uniform(0.05, 0.95)
            beta = rng.uniform(-1.0, 1.0)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.5]))
            via_quantiles = wasserstein_p(mu_family(alpha, beta, 0),
                                          mu_family(alpha, beta, 1), p)
            assert w_p_mu01(alpha, beta, p) == pytest.approx(
                via_quantiles, rel=1e-12, abs=1e-14)
