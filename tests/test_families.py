import math

import numpy as np
import pytest

import swgeo.families
from helpers import isclose, mix, sw_per_direction
from swgeo.families import (
    CircleMixture,
    ShellMixture,
    circle_family,
    circle_project,
    dilate,
    mu_family,
    nu_curve,
    nu_family,
    radon_project,
    radon_quantile_rows,
    s_of_theta,
    shell_from_text,
    shell_masses,
    shell_to_text,
    transformed_nu_curve,
    translate,
    w_p_mu01,
)
from swgeo.measure1d import Measure1D, MeasureError
from swgeo.sliced import _distances
from swgeo.sphere import mc_directions
from swgeo.transport1d import wasserstein_p


def unit_vec(d, i=0):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def random_unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------ mu family


class TestMuFamily:
    def test_t0_is_uniform(self):
        assert mu_family(0.5, 0.2, 0.0) == Measure1D.uniform(-1, 1)

    def test_t1_structure(self):
        m = mu_family(0.5, 0.2, 1.0)
        assert m.atoms == ((0.2, 0.5),)
        assert m.pieces == ((-1.0, 0.2, 0.25), (0.2, 1.0, 0.25))

    def test_intermediate_panel_values(self):
        # t = 0.1: interval of radius 0.45 centered at 0.11
        m = mu_family(0.5, 0.2, 0.1)
        expect = Measure1D.from_components(pieces=[
            (-1.0, -0.34, 0.5 / 1.1),
            (-0.34, 0.56, 1.0 / 1.8),
            (0.56, 1.0, 0.5 / 1.1)])
        assert isclose(m, expect, tol=1e-12)

    def test_total_mass_and_monotone_cdf(self):
        m = mu_family(0.7, -0.6, 0.35)
        grid = np.linspace(-1, 1, 2001)
        cdf = m.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_edge_beta(self):
        # |beta| = 1 pushes the interval flush against the endpoint
        m = mu_family(0.5, 1.0, 0.5)
        assert m.support == (-1.0, 1.0)

    @pytest.mark.parametrize("alpha,beta,t", [(0.0, 0.0, 0.5), (1.0, 0.0, 0.5),
                                              (0.5, 1.5, 0.5), (0.5, 0.0, -0.1),
                                              (0.5, 0.0, 1.2)])
    def test_rejects_out_of_range(self, alpha, beta, t):
        with pytest.raises(MeasureError):
            mu_family(alpha, beta, t)

    def test_interval_guard_is_a_raised_check(self, monkeypatch):
        # not an assert, which python -O would strip
        monkeypatch.setattr(swgeo.families, "_check_mu_params", lambda *args: None)
        with pytest.raises(MeasureError, match="escapes"):
            mu_family(0.5, 2.0, 0.5)


class TestEndpointDistance:
    def test_beta_zero_simplification(self):
        assert w_p_mu01(0.5, 0.0, 2.0) == pytest.approx(0.5 / math.sqrt(3.0),
                                                        abs=1e-12)
        # p = 1 gives alpha/2 (the quantile oracle confirms; see note below)
        assert w_p_mu01(0.3, 0.0, 1.0) == pytest.approx(0.15, abs=1e-14)

    def test_against_quantile_oracle_value(self):
        # frozen from wasserstein_p(mu_family(.5,.2,0), mu_family(.5,.2,1), 2)
        assert w_p_mu01(0.5, 0.2, 2.0) == pytest.approx(0.30550504633038933,
                                                        abs=1e-14)

    def test_rejects_infinite_p(self):
        with pytest.raises(MeasureError):
            w_p_mu01(0.5, 0.0, math.inf)

    def test_rejects_nan_p(self):
        with pytest.raises(MeasureError, match="p must be >= 1"):
            w_p_mu01(0.5, 0.0, math.nan)

    def test_collapsed_form(self):
        # the two-bracket expression equals
        # alpha^p ((1+b)^{p+1} + (1-b)^{p+1}) / (2(p+1))
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(-1, 1)
            p = rng.uniform(1, 6)
            collapsed = (a ** p * ((1 + b) ** (p + 1) + (1 - b) ** (p + 1))
                         / (2 * (p + 1))) ** (1 / p)
            assert w_p_mu01(a, b, p) == pytest.approx(collapsed, rel=1e-12)


# ------------------------------------------------------------------ nu family


class TestNuFamily:
    def test_t0_is_single_unit_shell(self):
        nu = nu_family(0.5, 0.0, 0.0, 3)
        assert len(nu.components) == 1
        w, r, c = nu.components[0]
        assert (w, r) == (1.0, 1.0)
        assert not c.any()

    def test_t1_weights_and_radii(self):
        x = np.array([0.5, 0.0, 0.0])
        nu = nu_family(0.3, x, 1.0, 4)
        (w0, r0, c0), (w1, r1, c1) = nu.components
        assert (w0, r0) == (pytest.approx(0.7), 1.0)
        assert (w1, r1) == (pytest.approx(0.3), 0.0)
        np.testing.assert_allclose(c1[:3], x)

    def test_midpoint_weights(self):
        nu = nu_family(0.5, 0.0, 0.5, 3)
        (w0, r0, _), (w1, r1, _) = nu.components
        assert w0 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert w1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert (r0, r1) == (1.0, 0.25)

    def test_rejects_x_outside_ball_or_subspace(self):
        with pytest.raises(MeasureError):
            nu_family(0.5, np.array([1.2, 0.0, 0.0]), 0.5, 3)
        with pytest.raises(MeasureError):
            nu_family(0.5, np.array([0.0, 0.0, 0.0, 0.5]), 0.5, 4)

    @pytest.mark.parametrize("x", [[math.nan, 0.0, 0.0], [0.0, 0.0, 0.0, math.nan]])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_rejects_nan_x_at_every_t(self, x, t):
        # at t = 0 the inner shell has no mass, so x reaches no component
        # check: nu_family(0.5, [nan, 0, 0], 0, 4) returned the unit shell
        with pytest.raises(MeasureError, match="x must lie in the closed unit ball"):
            nu_family(0.5, x, t, 4)
        with pytest.raises(MeasureError, match="x must lie in the closed unit ball"):
            nu_curve(0.5, x, 4)(t)

    def test_rejects_low_dimension(self):
        with pytest.raises(MeasureError):
            nu_family(0.5, 0.0, 0.5, 2)

    def test_rejects_non_integral_dimension(self):
        # int() truncated this: d = 4.5 built a mixture in d = 4
        with pytest.raises(MeasureError, match="dimension must be an integer, got 4.5"):
            nu_family(0.5, 0.0, 0.5, 4.5)
        assert nu_family(0.5, 0.0, 0.5, np.int64(4)).dim == 4

    def test_curve_rejects_non_integral_dimension(self):
        with pytest.raises(MeasureError, match="dimension must be an integer, got 4.5"):
            nu_curve(0.5, 0.0, 4.5)
        assert nu_curve(0.5, 0.0, np.int32(4))(0.5).dim == 4

    def test_transformed_curve_rejects_non_integral_dimension(self):
        # np.zeros(4.0) raised a bare TypeError here
        with pytest.raises(MeasureError, match="dimension must be an integer, got 4.0"):
            transformed_nu_curve(0.5, 0.0, 4.0, 1.0, None, None)
        assert transformed_nu_curve(0.5, 0.0, np.int64(4), 1.0, None, None)(0.5).dim == 4


NAN, INF = float("nan"), float("inf")
NON_FINITE = [(NAN, 1.0, 0.0), (1.0, NAN, 0.0), (1.0, INF, 0.0), (1.0, 1.0, NAN),
              (1.0, 1.0, -INF)]
NON_FINITE_IDS = ["nan-weight", "nan-radius", "inf-radius", "nan-center", "inf-center"]


class TestNonFiniteComponents:
    @pytest.mark.parametrize("w,r,c0", NON_FINITE, ids=NON_FINITE_IDS)
    def test_shell_mixture_rejects(self, w, r, c0):
        with pytest.raises(MeasureError, match="finite"):
            ShellMixture(4, ((w, r, np.array([c0, 0.0, 0.0, 0.0])),))

    @pytest.mark.parametrize("w,r,c0", NON_FINITE, ids=NON_FINITE_IDS)
    def test_circle_mixture_rejects(self, w, r, c0):
        with pytest.raises(MeasureError, match="finite"):
            CircleMixture(((w, r, np.array([c0, 0.0])),))

    def test_nan_weight_next_to_valid_component(self):
        with pytest.raises(MeasureError, match="finite"):
            ShellMixture(3, ((1.0, 1.0, np.zeros(3)), (NAN, 0.5, np.zeros(3))))


class TestShellMasses:
    def test_endpoints(self):
        assert shell_masses(0.4, 0.0) == (1.0, 0.0)
        outer, inner = shell_masses(0.4, 1.0)
        assert outer == pytest.approx(0.6, abs=1e-15)
        assert inner == pytest.approx(0.4, abs=1e-15)

    def test_midpoint(self):
        outer, inner = shell_masses(0.5, 0.5)
        assert outer == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert inner == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_sum_and_monotonicity(self):
        ts = np.linspace(0, 1, 41)
        outers, inners = zip(*(shell_masses(0.35, t) for t in ts))
        np.testing.assert_allclose(np.array(outers) + np.array(inners), 1.0,
                                   atol=1e-15)
        assert np.all(np.diff(outers) < 0)
        assert np.all(np.diff(inners) > 0)


# ----------------------------------------------------------------- directions


class TestSOfTheta:
    def test_orthogonal_direction(self):
        assert s_of_theta(unit_vec(4, 3)) == 0.0

    def test_in_subspace(self):
        assert s_of_theta(unit_vec(5, 0)) == 1.0

    def test_diagonal(self):
        theta = (unit_vec(4, 0) + unit_vec(4, 3)) / math.sqrt(2.0)
        assert s_of_theta(theta) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(MeasureError):
            s_of_theta(np.array([1.0, 1.0, 0.0]))

    def test_rejects_nan_direction(self):
        # |nan - 1| > tol is false: the check must not let a nan norm through
        theta = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(MeasureError, match="unit vector"):
            s_of_theta(theta)
        with pytest.raises(MeasureError, match="unit vector"):
            radon_project(ShellMixture.single(3, 1.0), theta)

    def test_identically_one_in_dimension_three(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            assert s_of_theta(random_unit(rng, 3)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- projections


class TestRadonProject:
    def test_unit_shell_projects_to_uniform(self):
        sm = ShellMixture.single(3, 1.0)
        m = radon_project(sm, unit_vec(3))
        assert isclose(m, Measure1D.uniform(-1, 1))

    def test_point_mass_projects_to_atom(self):
        x = np.array([0.2, -0.3, 0.1])
        sm = ShellMixture.single(3, 0.0, x)
        theta = random_unit(np.random.default_rng(1), 3)
        m = radon_project(sm, theta)
        assert m.atoms == ((pytest.approx(float(theta @ x)), 1.0),)

    def test_family_projection_structure(self):
        nu = nu_family(0.5, 0.0, 0.5, 3)
        m = radon_project(nu, unit_vec(3))
        expect = mix([(2.0 / 3.0, Measure1D.uniform(-1, 1)),
                                (1.0 / 3.0, Measure1D.uniform(-0.25, 0.25))])
        assert isclose(m, expect, tol=1e-12)
        scaled_family = mu_family(0.5, 0.0, 0.5)  # s(theta) = 1 here
        grid = np.linspace(-1, 1, 1001)
        assert np.max(np.abs(m.cdf(grid) - scaled_family.cdf(grid))) < 1e-12

    def test_projection_identity_random(self):
        # proj_theta nu_t equals mu_t^{alpha, theta.x/s} scaled by s(theta)
        rng = np.random.default_rng(42)
        grid = np.linspace(-1.3, 1.3, 1001)
        for _ in range(100):
            alpha = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.0, 1.0)
            d = int(rng.choice([3, 4, 6]))
            x = rng.normal(size=3)
            x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
            theta = random_unit(rng, d)
            s = s_of_theta(theta)
            if s < 1e-6:
                continue
            proj = radon_project(nu_family(alpha, x, t, d), theta)
            beta = float(theta[:3] @ x) / s
            ref = mu_family(alpha, beta, t).scaled(s)
            assert np.max(np.abs(proj.cdf(grid) - ref.cdf(grid))) < 1e-12

    def test_monte_carlo_projection_oracle(self):
        # empirical CDF of 1e6 projected sphere samples vs the analytic CDF
        rng = np.random.default_rng(3)
        nu = nu_family(0.5, 0.0, 0.5, 3)
        theta = random_unit(rng, 3)
        pts = []
        for w, r, c in nu.components:
            n = int(round(1e6 * w))
            g = rng.normal(size=(n, 3))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            pts.append((c + r * g) @ theta)
        samples = np.concatenate(pts)
        analytic = radon_project(nu, theta)
        grid = np.linspace(-1.1, 1.1, 221)
        emp = np.searchsorted(np.sort(samples), grid, side="left") / samples.size
        assert np.max(np.abs(emp - analytic.cdf(grid))) < 0.005

    def test_dimension_mismatch(self):
        with pytest.raises(MeasureError):
            radon_project(ShellMixture.single(4, 1.0), unit_vec(3))

    def test_two_sided_rows_equal_one_sided_calls(self):
        # one call projects both sides, with s(theta) computed once; each
        # side's polylines are its own call's bit for bit, as the
        # C-contiguous (n, 2K) tables that wp_rows reads: here a K = 1
        # side against a K = 2 one
        curve = transformed_nu_curve(0.5, [0.3, 0.2, 0.1], 4, 1.3, [0.1, 0.0, 0.2, 0.0],
                                     [0.0, 0.1, 0.0, 0.0])
        a, b = curve(0.0), curve(0.25)
        assert (len(a.components), len(b.components)) == (1, 2)
        thetas = mc_directions(4, 64, seed=3).thetas
        for sm, (s, x) in zip((a, b), radon_quantile_rows((a, b), thetas)):
            (one_s, one_x), = radon_quantile_rows((sm,), thetas)
            assert s.shape == x.shape == (64, 2 * len(sm.components))
            assert s.flags.c_contiguous and x.flags.c_contiguous
            assert s.tobytes() == one_s.tobytes() and x.tobytes() == one_x.tobytes()

    def test_narrow_shell_far_from_origin(self):
        # the projected radius 1e-10 s(theta) is above the atom threshold
        # but tiny beside theta.c, so hi - lo keeps only about 8 digits of
        # 2 r s; the density must follow hi - lo for the mass to stay 1
        narrow = ShellMixture(4, ((0.5, 1e-10, np.array([2.0, 0.0, 0.0, 0.5])),
                                  (0.5, 1.0, np.zeros(4))))
        unit = ShellMixture.single(4, 1.0)
        thetas = mc_directions(4, 200, 0).thetas
        for theta in thetas:
            m = radon_project(narrow, theta)
            mass = (sum(w for _, w in m.atoms)
                    + sum((hi - lo) * rho for lo, hi, rho in m.pieces))
            assert abs(mass - 1.0) <= 1e-15
        for p in (1.0, 2.0, 3.0, math.inf):
            batched = _distances(narrow, unit, p, thetas)
            oracle = np.array([sw_per_direction(narrow, unit, p, th) for th in thetas])
            np.testing.assert_allclose(oracle, batched, rtol=1e-12, atol=0.0)


class TestTransforms:
    def test_dilate_component_data(self):
        sm = dilate(ShellMixture.single(3, 1.0), 2.0)
        w, r, c = sm.components[0]
        assert (w, r) == (1.0, 2.0)

    def test_dilate_negative_preserves_radius_negates_center(self):
        nu1 = nu_family(0.5, np.array([0.5, 0, 0]), 1.0, 3)
        flipped = dilate(nu1, -1.0)
        (w0, r0, c0), (w1, r1, c1) = flipped.components
        assert r0 == 1.0 and r1 == 0.0
        np.testing.assert_allclose(c1, [-0.5, 0.0, 0.0])

    def test_translate_orthogonal_leaves_subspace_projections_alone(self):
        sm = ShellMixture.single(4, 1.0)
        moved = translate(sm, unit_vec(4, 3))
        theta = np.zeros(4)
        theta[:3] = random_unit(np.random.default_rng(9), 3)
        assert isclose(radon_project(moved, theta), radon_project(sm, theta))

    def test_dilation_covariance(self):
        rng = np.random.default_rng(17)
        nu = nu_family(0.4, np.array([0.2, 0.1, 0.0]), 0.6, 4)
        for a in (2.0, -1.5, 0.5):
            theta = random_unit(rng, 4)
            lhs = radon_project(dilate(nu, a), theta)
            rhs = radon_project(nu, theta).scaled(a)
            assert isclose(lhs, rhs, tol=1e-12)

    def test_translation_covariance(self):
        rng = np.random.default_rng(18)
        nu = nu_family(0.4, 0.0, 0.6, 4)
        v = rng.normal(size=4)
        theta = random_unit(rng, 4)
        lhs = radon_project(translate(nu, v), theta)
        rhs = radon_project(nu, theta).shifted(float(theta @ v))
        assert isclose(lhs, rhs, tol=1e-12)


class TestCircleProject:
    def test_unit_circle_gives_arcsine(self):
        cm = CircleMixture(((1.0, 1.0, np.zeros(2)),))
        m = circle_project(cm, unit_vec(2))
        assert isclose(m, Measure1D.arcsine())

    def test_family_projection(self):
        m = circle_project(circle_family(0.3), unit_vec(2, 1))
        assert m.atoms == ((0.0, pytest.approx(0.3)),)
        assert len(m.arcsine_parts) == 1
        assert m.arcsine_parts[0].weight == pytest.approx(0.7)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        cm = circle_family(0.25)
        t1 = random_unit(rng, 2)
        t2 = random_unit(rng, 2)
        assert circle_project(cm, t1) == circle_project(cm, t2)


class TestShellText:
    def test_round_trip(self):
        nu = nu_family(0.5, np.array([0.1, 0.2, 0.0]), 0.7, 4)
        again = shell_from_text(shell_to_text(nu))
        assert again.dim == nu.dim
        for (w1, r1, c1), (w2, r2, c2) in zip(again.components, nu.components):
            assert (w1, r1) == (w2, r2)
            np.testing.assert_array_equal(c1, c2)

    def test_rejects_garbage(self):
        with pytest.raises(MeasureError):
            shell_from_text("shell 1.0 1.0\n")

    def test_rejects_non_numeric_field(self):
        with pytest.raises(MeasureError, match="line 2: cannot parse"):
            shell_from_text("shell 0.5 1 0 0 0\nshell 0.5 1 0 0 x\n")


@pytest.mark.parametrize("make,message", [
    (lambda: s_of_theta(np.eye(3)), "direction must be a 1-D vector"),
    (lambda: ShellMixture(3, ((1.0, 1.0, np.zeros(4)),)), "center shape (4,) does not match d=3"),
    (lambda: ShellMixture(2, ((1.0, 1.0, np.zeros(2)),)),
     "shell mixtures need ambient dimension >= 3"),
    (lambda: nu_family(0.5, [0.1, 0.2], 0.5, 4), "x must have 3 or 4 coordinates"),
    (lambda: transformed_nu_curve(0.5, 0.0, 4, 1.0, np.zeros(3), None),
     "y and z must be d-vectors"),
    (lambda: translate(ShellMixture.single(4, 1.0), np.zeros(3)),
     "translation vector must match the ambient dimension"),
    (lambda: s_of_theta(np.array([0.6, 0.8])), "s_of_theta needs ambient dimension >= 3"),
    (lambda: circle_project(circle_family(0.5), unit_vec(3)), "circle mixtures live in R^2"),
    (lambda: circle_family(1.5), "t must be in [0, 1]"),
    (lambda: shell_from_text("# no records\n\n"), "no shell records found"),
], ids=["theta-2d", "center-shape", "shell-dim", "nu-x", "curve-yz", "translate-shape",
        "s-dim", "circle-theta", "circle-t", "no-records"])
def test_refuses_malformed_input(make, message):
    with pytest.raises(MeasureError) as info:
        make()
    assert str(info.value) == message
