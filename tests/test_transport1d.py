import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import swgeo.measure1d
import swgeo.transport1d
from helpers import isclose, mix
from swgeo.families import (
    CircleMixture,
    circle_family,
    circle_project,
    mu_curve,
    mu_family,
    radon_quantile_rows,
    transformed_nu_curve,
    w_p_mu01,
)
from swgeo.measure1d import (
    MASS_TOL,
    AnalyticQuantile,
    ArcsinePart,
    Measure1D,
    MeasureError,
    MeasureRows,
    pushforward_pwl,
)
from swgeo.sphere import mc_directions
from swgeo.transport1d import (
    geodesic_deviation,
    interpolate,
    optimal_map,
    pairwise_deviation,
    wasserstein_inf,
    wasserstein_p,
    wp_measure_rows,
)
from test_measure1d import EPS, analytic_mixtures


def atom_mixture(alpha, beta):
    return mix([(1 - alpha, Measure1D.uniform(-1, 1)),
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
            assert isclose(image, nu, tol=1e-12)

    def test_target_with_support_gap(self):
        nu = Measure1D.from_components(pieces=[(-2.0, -1.0, 0.25),
                                               (1.0, 2.0, 0.75)])
        mu = Measure1D.uniform(0, 1)
        image = pushforward_pwl(mu, optimal_map(mu, nu))
        assert isclose(image, nu, tol=1e-12)


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
        assert isclose(interpolate(mu, nu, 1.0), nu, tol=1e-12)

    def test_closed_form_densities(self):
        # lam = 0.1, alpha = 0.5, beta = 0.2: interval of radius 0.45 at 0.11,
        # inside density 1/1.8, outside 0.5/1.1
        out = interpolate(Measure1D.uniform(-1, 1), atom_mixture(0.5, 0.2), 0.1)
        expect = Measure1D.from_components(pieces=[
            (-1.0, -0.34, 0.5 / 1.1),
            (-0.34, 0.56, 1.0 / 1.8),
            (0.56, 1.0, 0.5 / 1.1)])
        assert isclose(out, expect, tol=1e-12)

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
        for p in (0.5, math.nan):
            with pytest.raises(MeasureError, match="p must be >= 1"):
                wasserstein_p(u, u, p)
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


# ------------------------------------------------------------ arcsine mixtures


def arcsine_mixture(*parts):
    return Measure1D.from_components(arcsine_parts=[ArcsinePart(*p) for p in parts])


# two overlapping two-part arcsine mixtures whose quantiles cross once
OVERLAP_MU = ((0.6, 0.0, 1.0), (0.4, 0.3, 0.5))
OVERLAP_NU = ((0.5, 0.1, 0.8), (0.5, -0.2, 0.6))


class MpArcsine:
    """30-digit oracle for a mixture of arcsine parts (w, c, r): the closed
    form CDF and density, and the quantile by a float bisection to a
    bracket, then Newton steps that fall back to bisection when they leave
    the bracket."""

    def __init__(self, parts):
        import mpmath
        mpmath.mp.dps = 30
        self.mp = mpmath
        self.fparts = parts
        self.parts = [tuple(mpmath.mpf(v) for v in part) for part in parts]
        self.ends = sorted(e for _, c, r in self.parts for e in (c - r, c + r))
        self._quantiles = {}

    def cdf(self, x):
        mp = self.mp
        return mp.fsum(w * (0.5 + mp.asin(min(1, max(-1, (x - c) / r))) / mp.pi)
                       for w, c, r in self.parts)

    def pdf(self, x):
        mp = self.mp
        return mp.fsum(w / (mp.pi * mp.sqrt(r * r - (x - c) ** 2))
                       for w, c, r in self.parts if abs(x - c) < r)

    def fcdf(self, x: float) -> float:
        return sum(w * (0.5 + math.asin(min(1.0, max(-1.0, (x - c) / r))) / math.pi)
                   for w, c, r in self.fparts)

    def quantile(self, u):
        if u not in self._quantiles:
            lo, hi, uf = float(self.ends[0]), float(self.ends[-1]), float(u)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if self.fcdf(mid) <= uf else (lo, mid)
            lo, hi = self.mp.mpf(lo) - 1e-12, self.mp.mpf(hi) + 1e-12
            x = (lo + hi) / 2
            for _ in range(200):
                g = self.cdf(x) - u
                lo, hi = (x, hi) if g <= 0 else (lo, x)
                f = self.pdf(x)
                nxt = x - g / f if f > 0 else lo
                nxt = nxt if lo <= nxt <= hi else (lo + hi) / 2
                if abs(nxt - x) <= 1e-28:
                    break
                x = nxt
            self._quantiles[u] = x
        return self._quantiles[u]


def mp_panels(a: MpArcsine, b: MpArcsine):
    """Levels of both quantiles' breakpoints and of the crossings of the
    CDFs (found on a 4001-point scan), so that Q_a - Q_b is analytic and of
    one sign between consecutive levels."""
    mp = a.mp
    levels = {mp.mpf(0), mp.mpf(1)} | {m.cdf(e) for m in (a, b) for e in m.ends}
    xs = np.linspace(float(min(a.ends[0], b.ends[0])), float(max(a.ends[-1], b.ends[-1])), 4001)
    g = [a.fcdf(x) - b.fcdf(x) for x in xs]
    for i in range(len(xs) - 1):
        if g[i] * g[i + 1] < 0.0:
            x = mp.findroot(lambda x: a.cdf(x) - b.cdf(x), (xs[i], xs[i + 1]),
                            solver="illinois")
            levels.add(a.cdf(x))
    levels = sorted(levels)
    return list(zip(levels[:-1], levels[1:]))


def mp_wp(a: MpArcsine, b: MpArcsine, p: float):
    mp = a.mp
    f = lambda u: abs(a.quantile(u) - b.quantile(u)) ** p
    return mp.fsum(mp.quad(f, [u0, u1]) for u0, u1 in mp_panels(a, b)) ** (1 / mp.mpf(p))


def mp_winf(a: MpArcsine, b: MpArcsine):
    """Largest |Q_a - Q_b| of continuous quantiles: the panel ends, and a
    32-point scan of each panel refined by golden-section search."""
    mp = a.mp
    f = lambda u: abs(a.quantile(u) - b.quantile(u))
    best = mp.mpf(0)
    for u0, u1 in mp_panels(a, b):
        us = [u0 + (u1 - u0) * k / 33 for k in range(34)]
        k = max(range(34), key=lambda i: f(us[i]))
        lo, hi = us[max(k - 1, 0)], us[min(k + 1, 33)]
        invphi = (mp.sqrt(5) - 1) / 2
        for _ in range(50):
            x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
            lo, hi = (x1, hi) if f(x1) < f(x2) else (lo, x2)
        best = max(best, f(u0), f(u1), f(lo), f(hi))
    return best


class TestArcsineMixtures:
    def test_overlapping_pair_against_mpmath(self):
        mu, nu = arcsine_mixture(*OVERLAP_MU), arcsine_mixture(*OVERLAP_NU)
        a, b = MpArcsine(OVERLAP_MU), MpArcsine(OVERLAP_NU)
        for p in (1.0, 1.5, 3.0):
            ref = mp_wp(a, b, p)
            assert abs(wasserstein_p(mu, nu, p) - ref) <= 1e-13 * ref
        ref = mp_winf(a, b)
        assert abs(wasserstein_inf(mu, nu) - ref) <= 1e-13 * ref

    def test_arcsine_against_uniform(self):
        import mpmath as mp
        mp.mp.dps = 30
        # the quantiles sin(pi (u - 1/2)) and 2u - 1 cross at u = 1/2 only
        f = lambda u: abs(mp.sin(mp.pi * (u - 0.5)) - (2 * u - 1))
        for p in (1.0, 1.5, 2.0, 3.0):
            ref = mp.quad(lambda u: f(u) ** p, [0, 0.5, 1]) ** (1 / mp.mpf(p))
            got = wasserstein_p(Measure1D.arcsine(), Measure1D.uniform(-1, 1), p)
            assert abs(got - ref) <= 1e-13 * ref

    def test_circle_projection_sup_is_sin(self):
        # t delta_0 + (1 - t) arcsine against the arcsine: the quantiles
        # cross inside the atom, at level 1/2, and W_inf = sin(pi t / 2)
        import mpmath as mp
        mp.mp.dps = 30
        e1, xi = np.array([1.0, 0.0]), Measure1D.arcsine()
        for t in (0.1, 0.25, 0.5, 0.75):
            ref = mp.sin(mp.pi * t / 2)
            got = wasserstein_inf(circle_project(circle_family(t), e1), xi)
            assert abs(got - ref) <= 1e-15 * ref

    def test_sup_at_left_limit_across_a_gap(self):
        # mu has a gap (-1, 1): Q_mu jumps at 1/2 from -1 to 1, and
        # Q_nu(1/2) = 0.3, so the sup is |Q_mu(1/2-) - 0.3| = 1.3 exactly
        import mpmath as mp
        mu = arcsine_mixture((0.5, -1.5, 0.5), (0.5, 1.5, 0.5))
        nu = arcsine_mixture((1.0, 0.3, 2.0))
        ref = 1 + mp.mpf(0.3)
        assert abs(wasserstein_inf(mu, nu) - ref) <= 1e-15 * ref
        assert abs(wasserstein_inf(nu, mu) - ref) <= 1e-15 * ref

    @staticmethod
    def spy_stationary(monkeypatch):
        """(starts, roots kept) of every _stationary_points call."""
        calls, search = [], swgeo.transport1d._stationary_points

        def spy(*args):
            kept, levels = search(*args)
            calls.append((args[3].size, kept.size))
            return kept, levels

        monkeypatch.setattr(swgeo.transport1d, "_stationary_points", spy)
        return calls

    @pytest.mark.parametrize("c, r, h", [(0.0, 1.0, 0.5), (0.1, 2.0, 0.7), (0.3, 0.5, 0.1),
                                         (0.05, 1.5, 0.3)])
    def test_interior_sup_against_closed_form(self, c, r, h, monkeypatch):
        # Q_mu - Q_nu = c - r cos(pi u) + h - 2 h u is stationary where
        # sin(pi u) = k = 2h / (pi r); for c >= 0 and h < r its largest
        # modulus is interior, c + r sqrt(1 - k^2) - (2h/pi) acos(k).  A
        # grid of the panel alone misses it by 7e-5 to 3.6e-4 relative.
        # Q_nu'' = 0 and Q_mu'' != 0 there, so no start is singular and
        # the stationary search keeps the root that reaches it.
        import mpmath as mp
        mp.mp.dps = 30
        calls = self.spy_stationary(monkeypatch)
        k = 2 * mp.mpf(h) / (mp.pi * r)
        ref = c + r * mp.sqrt(1 - k * k) - (2 * mp.mpf(h) / mp.pi) * mp.acos(k)
        got = wasserstein_inf(Measure1D.arcsine(c, r), Measure1D.uniform(-h, h))
        assert abs(got - ref) <= 1e-15 * ref
        assert sum(kept for _, kept in calls) >= 1

    def test_translated_circle_projections_keep_no_root(self, monkeypatch):
        # three circles and their translate by v, as in the mixture pairs
        # of the circle benchmark: Q_mu - Q_nu = theta.v at every level,
        # so Q_mu'' = Q_nu'' at every start of the stationary search, which
        # keeps no root and evaluates no quantile at a root's level
        calls = self.spy_stationary(monkeypatch)
        gap = swgeo.transport1d._gap
        passes = []
        monkeypatch.setattr(swgeo.transport1d, "_gap", lambda *a: passes.append(1) or gap(*a))
        comps = ((0.5, 0.8, np.array([0.1, -0.2])), (0.3, 0.6, np.array([-0.3, 0.25])),
                 (0.2, 0.9, np.array([0.05, 0.4])))
        v, theta = np.array([0.35, -0.6]), np.array([math.cos(0.7), math.sin(0.7)])
        mu = circle_project(CircleMixture(comps), theta)
        nu = circle_project(CircleMixture(tuple((w, r, c + v) for w, r, c in comps)), theta)
        got = wasserstein_inf(mu, nu)
        scale = max(abs(e) for m in (mu, nu) for e in m.support)
        assert abs(got - abs(theta @ v)) <= 4 * EPS * scale
        assert calls and all(starts > 0 and kept == 0 for starts, kept in calls)
        assert not passes

    @settings(max_examples=150, deadline=None)
    @given(analytic_mixtures(), st.sampled_from([k / 4 for k in range(-8, 9) if k]))
    def test_translated_pair_is_its_shift(self, mu, v):
        """W_inf(mu, mu + v) = |v|, within 4 ulps of the support scale and
        16 eps over the smallest density of each measure, as in
        test_sup_bracket_holds_the_scanned_sup; found <= bound.  The
        translate must be exact in floats: every position, and each arcsine
        part's ends as c - r and c + r, moves by v without rounding.  An
        inexact translate is no translate to working accuracy: rounding
        the parts' ends moves their CDF levels by the arcsine staircase,
        up to 1e-8, and across a gap of one side that moves W_inf by the
        gap's width.  The stationary search may keep a root here, where
        Q'' is no more than rounding on both sides (an arcsine center, a
        point within rounding of an arcsine end, a part too light for its
        quantile to resolve the shift); the circle pairs above keep none."""
        ends = [(pt.center + v) + s * pt.radius == (pt.center + s * pt.radius) + v
                for pt in mu.arcsine_parts for s in (-1.0, 1.0)]
        points = ([x for x, _ in mu.atoms] + [e for lo, hi, _ in mu.pieces for e in (lo, hi)]
                  + [pt.center for pt in mu.arcsine_parts])
        assume(all(ends) and all((x + v) - v == x for x in points))
        nu = mu.shifted(v)
        found, bound = swgeo.transport1d._sup_bracket(MeasureRows.of([mu, nu]), 1)
        assert found[0] <= bound[0]
        known = 4 * EPS * max(abs(e) for m in (mu, nu) for e in m.support)
        for m in (mu, nu):
            least = min([rho for _, _, rho in m.pieces]
                        + [pt.weight / (math.pi * pt.radius) for pt in m.arcsine_parts])
            known += 16 * EPS / least
        assert abs(found[0] - abs(v)) <= known

    def test_left_limit_at_a_step_of_the_arcsine_staircase(self):
        # nu's arcsine CDF at its left end 0.009000000000000001 rounds to
        # 5.3e-9 above the atom's mass, so Q_nu jumps across the gap after
        # the atom at the atom's top level and steps at that end 5.3e-9
        # higher; Q_nu(u-) at the step's top is that end, not the atom
        mu = Measure1D.from_components(atoms=[(-1.75, 0.6012787440086247)],
                                       arcsine_parts=[ArcsinePart(0.30063937200431234, 0.0, 0.001),
                                                      ArcsinePart(0.09808188398706287, 0.0, 0.001)])
        nu = mu.shifted(0.01)
        assert abs(wasserstein_inf(mu, nu) - 0.01) <= 4 * EPS * 1.75
        assert abs(wasserstein_inf(nu, mu) - 0.01) <= 4 * EPS * 1.75

    @pytest.mark.parametrize("atom", [-2.0, -1.0])
    def test_equal_stretch_takes_no_inner_cuts(self, atom):
        # F_mu - F_nu is 0 at every sample of the arcsine part, which both
        # measures share: only the ends of that run of zeros are cuts, so
        # the panels are [0, 1/2] and [1/2, 1]
        mu = Measure1D.from_components(atoms=[(-2.0, 0.5)],
                                       arcsine_parts=[ArcsinePart(0.5, 2.0, 0.83)])
        nu = Measure1D.from_components(atoms=[(atom, 0.5)],
                                       arcsine_parts=[ArcsinePart(0.5, 2.0, 0.83)])
        t = MeasureRows.of([mu, nu])
        u, _ = swgeo.transport1d._level_cuts(t, AnalyticQuantile(t), 1)
        assert u.size <= 3
        move = abs(atom + 2.0)
        assert wasserstein_p(mu, nu, 1.0) == 0.5 * move
        assert wasserstein_p(mu, nu, 2.0) == math.sqrt(0.5) * move
        assert wasserstein_inf(mu, nu) == move

    @settings(max_examples=150, deadline=None)
    @given(analytic_mixtures(), analytic_mixtures())
    # found by this test: Q_nu(u-) at the top of the atom, where the gap
    # after it starts an ulp higher in level; and two maxima near an
    # arcsine end of nu, where a Newton step of one side left its box
    @example(arcsine_mixture((1.0, -1.75, 0.25)),
             Measure1D.from_components(
                 atoms=[(-2.0, 0.9999999989999999)],
                 arcsine_parts=[ArcsinePart(9.99999999e-10, -1.75, 0.001)]))
    @example(Measure1D.from_components(
                 pieces=[(-2.0, -1.5, 1.7777777777777777)],
                 arcsine_parts=[ArcsinePart(0.1111111111111111, -1.75, 0.125)]),
             Measure1D.from_components(
                 pieces=[(-4.0, -3.0, 0.23529411764705882), (-2.0, -1.75, 0.9411764705882353)],
                 arcsine_parts=[ArcsinePart(0.23529411764705882, -2.0, 0.25),
                                ArcsinePart(0.23529411764705882, -2.0, 0.25),
                                ArcsinePart(0.058823529411764705, -2.0, 2.0)]))
    @example(arcsine_mixture((1.0, -2.0, 0.25)),
             Measure1D.from_components(atoms=[(-4.0, 0.32)], pieces=[(-4.0, -3.0, 0.32)],
                                       arcsine_parts=[ArcsinePart(0.04, -2.0, 2.0),
                                                      ArcsinePart(0.32, -2.0, 0.25)]))
    def test_sup_bracket_holds_the_scanned_sup(self, mu, nu):
        """found <= bound, and found is at least the largest |Q_mu - Q_nu|
        of a 4097-level scan, less what the quantiles are known to: 1e-15
        of the support scale, and 16 eps over the smallest density of each
        measure, since F rounds to about eps absolute (as in
        test_newton_quantile_against_bisection).  The scan and found both
        carry that error: on a translated pair the scan's excess is its
        largest error, and where a density of 1e-9 follows an atom the
        quantile at the atom's top level is a root in that density.  Scan
        levels within MASS_TOL of a break level of either quantile are
        left out: a sliver that narrow between the two quantiles' jumps
        carries no mass."""
        found, bound = swgeo.transport1d._sup_bracket(MeasureRows.of([mu, nu]), 1)
        assert found[0] <= bound[0]
        u = np.linspace(0.0, 1.0, 4097)
        qs = [AnalyticQuantile(m) for m in (mu, nu)]
        breaks = np.concatenate([q.s_breaks for q in qs])
        u = u[np.abs(u[:, None] - breaks).min(axis=1) > MASS_TOL]
        scan = np.abs(qs[0](u) - qs[1](u)).max(initial=0.0)
        known = 1e-15 * max(abs(e) for m in (mu, nu) for e in m.support)
        for m in (mu, nu):
            least = min([rho for _, _, rho in m.pieces]
                        + [pt.weight / (math.pi * pt.radius) for pt in m.arcsine_parts])
            known += 16 * EPS / least
        assert found[0] >= scan - known

    @pytest.mark.xfail(strict=True, reason="arcsine CDF staircase, ROADMAP item 5")
    def test_sup_at_a_gap_level_moved_by_the_staircase(self):
        # found by test_sup_bracket_holds_the_scanned_sup: nu's CDF at the
        # end of its first part rounds to 0.4999999976, not 0.5, so no cut
        # sits at the level where Q_nu jumps; the grid misses it by half a
        # cell of 1.4e-10 and the cell across the gap has an infinite bound
        r = 0.11246444245686595
        mu = arcsine_mixture((1.0, -2.0, 0.25))
        nu = arcsine_mixture((0.5, -2.0, r), (0.5, -1.5, r))
        assert wasserstein_inf(mu, nu) == pytest.approx(0.5 - r, rel=1e-15)

    @pytest.mark.xfail(strict=True, reason="arcsine CDF staircase, ROADMAP item 5")
    def test_sup_at_the_end_of_a_small_arcsine_part(self):
        # |Q_mu - Q_nu| peaks at u = 0.75, where nu's small arcsine part
        # ends, at 0.249 + sqrt(2)/8 (a 40-digit mpmath bisection agrees);
        # found and bound both read 0.42577667455509727, 2.1e-8 below it
        true = 0.4257766952966369
        mu = arcsine_mixture((1.0, -1.75, 0.25))
        nu = Measure1D.from_components(atoms=[(-2.0, 0.5)], pieces=[(-1.999, -1.749, 1.0)],
                                       arcsine_parts=[ArcsinePart(0.25, -2.0, 0.001)])
        _, bound = swgeo.transport1d._sup_bracket(MeasureRows.of([mu, nu]), 1)
        assert wasserstein_inf(mu, nu) == pytest.approx(true, rel=1e-15)
        assert bound[0] >= true

    @pytest.mark.xfail(strict=True, reason="arcsine CDF staircase, ROADMAP item 5")
    def test_sup_where_an_atom_ends_two_arcsine_parts(self):
        # found by test_sup_bracket_holds_the_scanned_sup under hypothesis
        # seed 51: nu's atom at -1.75 sits at the right end of its two
        # parts at -2, so its quantile has one gap level u* = F_nu(-1.75),
        # where Q_nu(u*-) = -1.75 and Q_mu is on its part at 2, at local
        # level 4 (u* - 0.75).  The sup is there, 3.5092665711855706 (a
        # 50-digit mpmath value agrees); found reads 3.50871670756698 and
        # the bound is inf
        mu = Measure1D.from_components(atoms=[(-2.0, 0.5)],
                                       arcsine_parts=[ArcsinePart(0.25, -2.0, 0.25),
                                                      ArcsinePart(0.25, 2.0, 0.25)])
        nu = Measure1D.from_components(atoms=[(-1.75, 0.456531431119037)],
                                       arcsine_parts=[ArcsinePart(0.08693713776192599, -2.0, 0.25),
                                                      ArcsinePart(0.2282657155595185, 1.25, 0.001),
                                                      ArcsinePart(0.2282657155595185, -2.0, 0.25)])
        u = 0.456531431119037 + 0.08693713776192599 + 0.2282657155595185
        true = 3.75 + 0.25 * math.sin(math.pi * (4.0 * (u - 0.75) - 0.5))
        _, bound = swgeo.transport1d._sup_bracket(MeasureRows.of([mu, nu]), 1)
        assert wasserstein_inf(mu, nu) == pytest.approx(true, rel=1e-15)
        assert bound[0] >= true

    def test_unconverged_root_raises(self, monkeypatch):
        monkeypatch.setattr(swgeo.measure1d, "_NEWTON_STEPS", 2)
        mu, nu = arcsine_mixture(*OVERLAP_MU), arcsine_mixture(*OVERLAP_NU)
        for dist in (lambda: wasserstein_p(mu, nu, 1.5), lambda: wasserstein_inf(mu, nu)):
            with pytest.raises(MeasureError, match="root finder did not converge"):
                dist()

    def test_unconverged_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(swgeo.transport1d, "_REL_QUAD_TOL", 0.0)
        monkeypatch.setattr(swgeo.transport1d, "_MAX_NODES", 64)
        with pytest.raises(MeasureError, match="did not converge"):
            wasserstein_p(Measure1D.arcsine(), Measure1D.uniform(-1, 1), 1.5)

    @staticmethod
    def spy_quadrature(monkeypatch):
        """The node counts that _wp_numeric asks of _panel_rule, in order,
        and for each of its quantile passes those asked up to it."""
        passes, counts = [], []
        gap, rule = swgeo.transport1d._gap, swgeo.transport1d._panel_rule

        def panel_rule(m):
            if m not in counts:
                counts.append(m)
            return rule(m)

        monkeypatch.setattr(swgeo.transport1d, "_gap",
                            lambda *a: passes.append(list(counts)) or gap(*a))
        monkeypatch.setattr(swgeo.transport1d, "_panel_rule", panel_rule)
        return passes, counts

    def test_first_two_rules_share_one_quantile_pass(self, monkeypatch):
        # every panel of this pair settles at 32 nodes; the value is the
        # one of a 16-node pass followed by a 32-node pass
        passes, counts = self.spy_quadrature(monkeypatch)
        mu, nu = arcsine_mixture(*OVERLAP_MU), arcsine_mixture(*OVERLAP_NU)
        assert repr(wasserstein_p(mu, nu, 1.5)) == "0.22724074932458108"
        assert passes == [[16, 32]] and counts == [16, 32]

    def test_unsettled_panels_double_from_64_nodes(self, monkeypatch):
        monkeypatch.setattr(swgeo.transport1d, "_REL_QUAD_TOL", 0.0)
        monkeypatch.setattr(swgeo.transport1d, "_MAX_NODES", 128)
        passes, counts = self.spy_quadrature(monkeypatch)
        with pytest.raises(MeasureError, match="did not converge with 128 nodes"):
            wasserstein_p(Measure1D.arcsine(), Measure1D.uniform(-1, 1), 1.5)
        assert passes == [[16, 32], [16, 32, 64], [16, 32, 64, 128]]

    def test_rules_of_one_pass_match_separate_passes(self):
        mu, nu = arcsine_mixture(*OVERLAP_MU), arcsine_mixture(*OVERLAP_NU)
        t = MeasureRows.of([mu, mu, nu, Measure1D.uniform(-1, 1)])
        q = AnalyticQuantile(t)
        u0, h = np.array([0.0, 0.25, 0.0]), np.array([0.25, 0.75, 1.0])
        args = (q, u0, h, np.array([0, 0, 1]), 2, np.ones(2), 1.5)
        both = swgeo.transport1d._panel_values(*args, (16, 32))
        alone = [swgeo.transport1d._panel_values(*args, (m,))[0] for m in (16, 32)]
        assert [list(map(repr, v)) for v in both] == [list(map(repr, v)) for v in alone]


class TestMeasureRows:
    """wasserstein_p and wasserstein_inf on arcsine mixtures are the
    one-pair case of wp_measure_rows, the kernel over rows of pairs."""

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(analytic_mixtures(), analytic_mixtures()),
                          min_size=1, max_size=3),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_rows_match_single_pairs(self, pairs, p):
        table = MeasureRows.of([mu for mu, _ in pairs] + [nu for _, nu in pairs])
        dist = wasserstein_inf if math.isinf(p) else lambda mu, nu: wasserstein_p(mu, nu, p)
        try:
            want = [repr(dist(mu, nu)) for mu, nu in pairs]
        except MeasureError as exc:  # then the rows fail alike
            with pytest.raises(MeasureError, match=str(exc)):
                wp_measure_rows(table, p)
            return
        assert [repr(float(v)) for v in wp_measure_rows(table, p)] == want

    def test_unconverged_root_in_one_row_raises(self, monkeypatch):
        # a pure arcsine against an atom needs no root: its crossing lies
        # in the atom, and both quantiles are closed-form or exact
        easy = [Measure1D.arcsine(), Measure1D.dirac(0.3)]
        mu, nu = arcsine_mixture(*OVERLAP_MU), arcsine_mixture(*OVERLAP_NU)
        monkeypatch.setattr(swgeo.measure1d, "_NEWTON_STEPS", 2)
        for p in (1.5, math.inf):
            assert wp_measure_rows(MeasureRows.of(easy), p)[0] > 0.0
            with pytest.raises(MeasureError, match="root finder did not converge"):
                wp_measure_rows(MeasureRows.of([easy[0], mu, easy[1], nu]), p)

    def test_unconverged_quadrature_in_one_row_raises(self, monkeypatch):
        # every node of a pair of equal measures gives 0, which settles at once
        monkeypatch.setattr(swgeo.transport1d, "_REL_QUAD_TOL", 0.0)
        monkeypatch.setattr(swgeo.transport1d, "_MAX_NODES", 64)
        arc, uni = Measure1D.arcsine(), Measure1D.uniform(-1, 1)
        assert wasserstein_p(arc, arc, 1.5) == 0.0
        with pytest.raises(MeasureError, match="did not converge"):
            wp_measure_rows(MeasureRows.of([arc, arc, arc, uni]), 1.5)


# ---------------------------------------------------------------- level merge


@st.composite
def level_runs(draw, rows, n, base=None):
    """(rows, n + 1) runs of levels from 0 to 1: on a grid of eighths
    (ties and repeated levels), or the levels of base moved by amounts on
    either side of MASS_TOL (slivers), or cumsums of random masses."""
    kind = draw(st.sampled_from(["grid", "cumsum", "near"]))
    if kind == "near" and base is not None and base.shape[1] == n + 1:
        shift = st.sampled_from([0.0, 1e-16, -1e-16, 5e-13, -5e-13, 2e-12, -2e-12])
        inner = base[0, 1:-1] + np.array(draw(st.lists(shift, min_size=n - 1, max_size=n - 1)))
    elif kind == "cumsum":
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=rows * n, max_size=rows * n)))
        w = w.reshape(rows, n)
        inner = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)[:, :-1]
    else:
        eighths = st.lists(st.integers(0, 8), min_size=n - 1, max_size=n - 1)
        inner = np.array([draw(eighths) for _ in range(rows)]) / 8.0
    inner = np.clip(np.sort(np.broadcast_to(inner, (rows, n - 1)), axis=1), 0.0, 1.0)
    return np.concatenate([np.zeros((rows, 1)), inner, np.ones((rows, 1))], axis=1)


class TestMergeLevels:
    """transport1d._merge_levels, the merge behind every exact 1D distance,
    against a brute-force oracle."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), na=st.integers(1, 6), nb=st.integers(1, 6),
           shared=st.sampled_from(["a", "b", "both", None]))
    def test_matches_midpoint_oracle(self, data, rows, shared, na, nb):
        la = data.draw(level_runs(1 if shared in ("a", "both") else rows, na))
        lb = data.draw(level_runs(1 if shared in ("b", "both") else rows, nb, la))
        u, mass, ia, ib = swgeo.transport1d._merge_levels(la, lb)
        assert np.all((0 <= ia) & (ia < na) & (0 <= ib) & (ib < nb))
        for r in range(len(u)):
            ra, rb = la[min(r, len(la) - 1)], lb[min(r, len(lb) - 1)]
            np.testing.assert_array_equal(u[r], np.sort(np.concatenate([ra, rb])))
            h = np.diff(u[r])
            np.testing.assert_array_equal(mass[r], np.where(h > MASS_TOL, h, 0.0))
            assert abs(mass[r].sum() - 1.0) <= (na + nb) * MASS_TOL
            wide = h > MASS_TOL
            mid = 0.5 * (u[r, :-1] + u[r, 1:])[wide]
            # step i of a side ends at its level i + 1
            np.testing.assert_array_equal(ia[r, wide], np.searchsorted(ra[1:], mid))
            np.testing.assert_array_equal(ib[r, wide], np.searchsorted(rb[1:], mid))

    def test_shell_rows_merge_each_endpoint_once(self):
        # a K = 2 shell row holds its 4 endpoints once each, so two rows
        # merge 8 levels into 7 intervals
        curve = transformed_nu_curve(0.5, [0.3, 0.2, 0.1], 4, 1.3, [0.1, 0.0, 0.2, 0.0], None)
        thetas = mc_directions(4, 16, seed=3).thetas
        (sa, xa), (sb, xb) = radon_quantile_rows([curve(t) for t in (0.25, 0.75)], thetas)
        assert sa.shape == xa.shape == sb.shape == xb.shape == (16, 4)
        u, mass, ia, ib = swgeo.transport1d._merge_levels(sa, sb)
        assert u.shape == (16, 8) and mass.shape == ia.shape == ib.shape == (16, 7)


# ------------------------------------------------------- exact polyline kernel


@st.composite
def polyline_side(draw, rows):
    """The quantile_rows polylines of rows rows of 1-3 components on a grid
    of sixteenths: atoms, intervals, atoms at an end of an earlier
    component, and intervals nested in, touching or equal to an earlier
    one.  The masses are eighths, so that the levels of both sides repeat
    and most merged intervals carry no mass, or random floats.  On the
    grid two affine pieces of Q_a - Q_b are parallel or differ in slope by
    far more than the rounding of their ends: the cancellation of
    transport1d._segment_lp on nearly parallel pieces stays below the
    bound."""
    k = draw(st.integers(1, 3))
    kinds = ["atom", "interval", "end atom", "nested", "touching", "equal"]
    position = st.integers(-48, 48).map(lambda i: i / 16)
    comps = np.empty((rows, k, 3))
    for r in range(rows):
        for c in range(k):
            kind = draw(st.sampled_from(kinds if c else kinds[:2]))
            if c:
                plo, phi, _ = comps[r, draw(st.integers(0, c - 1))]
            if kind == "atom":
                lo = hi = draw(position)
            elif kind == "interval":
                lo = draw(position)
                hi = lo + draw(st.integers(1, 32)) / 16
            elif kind == "end atom":
                lo = hi = draw(st.sampled_from([plo, phi]))
            elif kind == "nested":
                lo = plo + draw(st.integers(0, 8)) / 16
                hi = max(lo, phi - draw(st.integers(0, 8)) / 16)
            elif kind == "touching":
                lo, hi = phi, phi + draw(st.integers(1, 32)) / 16
            else:
                lo, hi = plo, phi
            comps[r, c, :2] = lo, hi
        if draw(st.booleans()):
            cuts = sorted(draw(st.lists(st.integers(1, 7), min_size=k - 1, max_size=k - 1,
                                        unique=True)))
            comps[r, :, 2] = np.diff([0, *cuts, 8]) / 8
        else:
            m = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
            comps[r, :, 2] = m / m.sum()
    lo, hi, m = comps.transpose(2, 0, 1)
    atom = lo == hi
    return swgeo.measure1d.quantile_rows(lo, hi, np.where(atom, m, m / np.where(atom, 1.0, hi - lo)))


def mp_wp_rows(sa, xa, sb, xb, p):
    """W_p (W_inf for p = inf) of each row pair of polylines in 50 digits:
    over the pieces between consecutive distinct levels of both rows, each
    quantile is read off the segment of its row that holds the piece,
    found by a linear search, and |Q_a - Q_b|^p is integrated by mpmath,
    split at a sign change.  A piece no wider than MASS_TOL carries no
    mass, as in transport1d._merge_levels."""
    import mpmath as mp

    def affine(s, x, u0, u1):
        mid = 0.5 * (u0 + u1)
        i = next(j for j in range(len(s) - 1) if s[j] <= mid < s[j + 1])
        s0, s1, x0, x1 = (mp.mpf(float(v)) for v in (s[i], s[i + 1], x[i], x[i + 1]))
        return [x0 + (mp.mpf(float(u)) - s0) * (x1 - x0) / (s1 - s0) for u in (u0, u1)]

    out = []
    with mp.workdps(50):
        for row in zip(sa, xa, sb, xb):
            levels = np.unique(np.concatenate([row[0], row[2]]))
            total, top = mp.mpf(0), mp.mpf(0)
            for u0, u1 in zip(levels[:-1], levels[1:]):
                if u1 - u0 <= MASS_TOL:
                    continue
                (a0, a1), (b0, b1) = affine(*row[:2], u0, u1), affine(*row[2:], u0, u1)
                d0, d1 = a0 - b0, a1 - b1
                top = max(top, abs(d0), abs(d1))
                if math.isinf(p):
                    continue
                ends = [mp.mpf(float(u0)), mp.mpf(float(u1))]
                if d0 * d1 < 0:
                    ends.insert(1, ends[0] + (ends[1] - ends[0]) * d0 / (d0 - d1))
                f = lambda u: abs(d0 + (d1 - d0) * (u - ends[0]) / (ends[-1] - ends[0])) ** p
                total += mp.quad(f, ends)
            out.append(top if math.isinf(p) else total ** (1 / mp.mpf(p)))
    return out


class TestWpRows:
    """transport1d.wp_rows, the exact kernel of every piecewise-affine
    W_p, against an independent 50-digit oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_matches_mpmath_oracle(self, data, rows, p):
        (sa, xa), (sb, xb) = data.draw(polyline_side(rows)), data.draw(polyline_side(rows))
        got = swgeo.transport1d.wp_rows(sa, xa, sb, xb, p)
        for r, want in enumerate(mp_wp_rows(sa, xa, sb, xb, p)):
            radius = max(np.abs(xa[r]).max(), np.abs(xb[r]).max())
            assert abs(got[r] - want) <= 1e-12 * max(want, radius, 1.0)
            one = swgeo.transport1d.wp_rows(sa[r:r + 1], xa[r:r + 1], sb[r:r + 1], xb[r:r + 1], p)
            assert repr(float(one[0])) == repr(float(got[r]))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_identical_rows_give_zero(self, p):
        lo = np.array([[-1.0, 0.5, 0.5], [0.0, 0.0, 2.0]])
        hi = np.array([[1.0, 0.5, 3.0], [1.0, 0.0, 2.5]])
        s, x = swgeo.measure1d.quantile_rows(lo, hi, np.full(lo.shape, 0.25))
        assert np.all(swgeo.transport1d.wp_rows(s, x, s, x, p) == 0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_nan_level_gives_nan_in_its_row_only(self, p):
        curve = transformed_nu_curve(0.5, [0.2, 0.1, 0.0], 4, 1.5, [0.0, 0.3, 0.0, 0.2], None)
        thetas = mc_directions(4, 3, seed=2).thetas
        (sa, xa), (sb, xb) = radon_quantile_rows([curve(t) for t in (0.25, 1.0)], thetas)
        sa = sa.copy()
        sa[1, 3] = math.nan
        with np.errstate(invalid="ignore"):  # as in every caller
            got = swgeo.transport1d.wp_rows(sa, xa, sb, xb, p)
        assert math.isnan(got[1])
        for r in (0, 2):
            one = swgeo.transport1d.wp_rows(sa[r:r + 1], xa[r:r + 1], sb[r:r + 1], xb[r:r + 1], p)
            assert repr(float(one[0])) == repr(float(got[r])) and math.isfinite(got[r])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_nan_endpoint_gives_nan_in_its_row_only(self, p):
        # a nan endpoint sorts last and is no point's equal, so its row
        # never reaches level 1 and its last segment ends at nan
        lo = np.array([[-1.0, 0.0], [math.nan, 0.0], [0.5, 0.5]])
        hi = np.array([[1.0, 2.0], [1.0, 3.0], [0.5, 1.5]])
        atom = lo == hi
        with np.errstate(invalid="ignore"):  # as in every caller
            sa, xa = swgeo.measure1d.quantile_rows(lo, hi, 0.5 / np.where(atom, 1.0, hi - lo))
            sb, xb = swgeo.measure1d.quantile_rows(np.zeros((3, 1)), np.ones((3, 1)), 1.0)
            got = swgeo.transport1d.wp_rows(sa, xa, sb, xb, p)
        assert math.isnan(got[1])
        for r in (0, 2):
            one = swgeo.transport1d.wp_rows(sa[r:r + 1], xa[r:r + 1], sb[r:r + 1], xb[r:r + 1], p)
            assert repr(float(one[0])) == repr(float(got[r])) and math.isfinite(got[r])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_rows_equal_one_row_calls(self, p):
        curve = transformed_nu_curve(0.4, [0.3, 0.0, 0.2], 5, 1.2,
                                     [0.1, 0.2, 0.0, 0.3, 0.1], [0.2, 0.0, 0.1, 0.0, 0.0])
        thetas = mc_directions(5, 64, seed=9).thetas
        (sa, xa), (sb, xb) = radon_quantile_rows([curve(t) for t in (0.0, 0.75)], thetas)
        got = swgeo.transport1d.wp_rows(sa, xa, sb, xb, p)
        one = [swgeo.transport1d.wp_rows(sa[r:r + 1], xa[r:r + 1], sb[r:r + 1], xb[r:r + 1], p)[0]
               for r in range(len(thetas))]
        assert list(map(repr, map(float, got))) == list(map(repr, map(float, one)))


class TestNonFiniteDistances:
    def test_overflowing_diracs_are_refused(self):
        a, b = Measure1D.dirac(1e308), Measure1D.dirac(-1e308)
        with pytest.raises(MeasureError, match="not finite"):
            wasserstein_p(a, b, 2.0)
        with pytest.raises(MeasureError, match="not finite"):
            wasserstein_inf(a, b)

    def test_wide_arcsine_is_scaled_not_overflowed(self):
        # W_2(arcsine(0, r), delta_0) = r / sqrt(2), though r^2 overflows
        got = wasserstein_p(Measure1D.arcsine(0.0, 1e300), Measure1D.dirac(0.0), 2.0)
        assert got == pytest.approx(1e300 / math.sqrt(2), rel=1e-14)

    def test_overflowing_arcsine_is_refused(self):
        a, b = Measure1D.arcsine(0.0, 1e308), Measure1D.dirac(-1.5e308)
        with pytest.raises(MeasureError, match="not finite"):
            wasserstein_p(a, b, 2.0)
        with pytest.raises(MeasureError, match="not finite"):
            wasserstein_inf(a, b)
