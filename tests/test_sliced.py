import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import swgeo.families
import swgeo.sliced
import swgeo.transport1d
from helpers import loop_oracle, oracle_directions, sw_per_direction
from swgeo.families import (
    _RADIUS_EPS,
    CircleMixture,
    ShellMixture,
    circle_family,
    nu_curve,
    nu_family,
    radon_project,
    transformed_nu_curve,
)
from swgeo.measure1d import Measure1D, MeasureError
from swgeo.sliced import (
    PointCloud,
    empirical_w1d,
    sample_shell,
    sliced_geodesic_deviation,
    sw_pq,
    sw_pq_empirical,
    w_inf_circle,
    w_p_radial,
)
from swgeo.sphere import DirectionSet, beta_directions, mc_directions
from swgeo.transport1d import wasserstein_inf, wasserstein_p


def random_unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def refuse_per_direction_path(monkeypatch):
    """Make every step of the per-direction chain, radon_project or
    circle_project -> Measure1D -> wasserstein_p or wasserstein_inf, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-direction path taken")

    for module, name in ((swgeo.families, "radon_project"), (swgeo.families, "circle_project"),
                         (swgeo.transport1d, "wasserstein_p"),
                         (swgeo.transport1d, "wasserstein_inf")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Measure1D, "from_components", classmethod(refuse))


class TestSwPq:
    def test_zero_on_equal_mixtures(self):
        nu = nu_family(0.5, 0.0, 0.5, 3)
        assert sw_pq(nu, nu, 2.0, 2.0, beta_directions(3, 8)) == 0.0

    def test_shell_value_d3(self):
        got = sw_pq(nu_family(0.5, 0.0, 0.5, 3), nu_family(0.5, 0.0, 0.0, 3),
                    2.0, 2.0, beta_directions(3, 16))
        assert got == pytest.approx(0.25 / math.sqrt(3.0), rel=1e-12)

    def test_fast_path_matches_generic_loop(self):
        # the centered shortcut must agree with per-node evaluation
        ds = mc_directions(4, 32, seed=8)
        a = nu_family(0.4, 0.0, 0.7, 4)
        b = nu_family(0.4, 0.0, 0.2, 4)
        for p, q in [(1.5, 1.0), (2.0, 2.0), (3.0, 1.0)]:
            fast = sw_pq(a, b, p, q, ds)
            vals = np.array([sw_per_direction(a, b, p, th) for th in ds.thetas])
            generic = float(np.dot(ds.weights, vals ** q) ** (1 / q))
            assert fast == pytest.approx(generic, rel=1e-12)

    def test_per_direction_factorization(self):
        # W_p(proj nu_t, proj nu_0) = s(theta) t alpha / (p+1)^{1/p}
        rng = np.random.default_rng(12)
        alpha, t, p = 0.5, 0.5, 2.0
        a = nu_family(alpha, 0.0, t, 5)
        b = nu_family(alpha, 0.0, 0.0, 5)
        for _ in range(20):
            theta = random_unit(rng, 5)
            s = np.linalg.norm(theta[:3])
            got = sw_per_direction(a, b, p, theta)
            assert got == pytest.approx(s * t * alpha / (p + 1) ** (1 / p),
                                        abs=1e-10)

    def test_q_infinity_uses_unit_s_supremum(self):
        # beta nodes have s < 1 strictly, yet the sup must sit at s = 1
        a = nu_family(0.5, 0.0, 0.5, 4)
        b = nu_family(0.5, 0.0, 0.0, 4)
        got = sw_pq(a, b, 2.0, math.inf, beta_directions(4, 32))
        assert got == pytest.approx(0.25 / math.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("offset", [0.5, 1e-300])
    def test_beta_nodes_refused_off_center(self, offset):
        # beta nodes average functions of s(theta) only.  The unit shell
        # against its 0.5 e1 translate has SW_{2,2} = 0.25, since each W_2
        # is the shift 0.5 |theta_1|, where the beta nodes would give
        # sqrt(3) / 4; a center off the origin by any amount is off center
        unit = ShellMixture.single(4, 1.0)
        moved = ShellMixture(4, ((1.0, 1.0, np.array([offset, 0.0, 0.0, 0.0])),))
        with pytest.raises(MeasureError, match=r"beta nodes average functions of s\(theta\) only"):
            sw_pq(moved, unit, 2.0, 2.0, beta_directions(4, 64))
        assert sw_pq(unit, unit, 2.0, 2.0, beta_directions(4, 64)) == 0.0

    def test_sliced_never_exceeds_full_distance(self):
        ds = beta_directions(4, 32)
        for t in (0.25, 0.5, 1.0):
            a = nu_family(0.5, 0.0, t, 4)
            b = nu_family(0.5, 0.0, 0.0, 4)
            for p in (1.5, 2.0, 3.0):
                assert sw_pq(a, b, p, 2.0, ds) <= w_p_radial(a, b, p) + 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MeasureError):
            sw_pq(nu_family(0.5, 0.0, 0.5, 3), nu_family(0.5, 0.0, 0.0, 4),
                  2.0, 2.0, beta_directions(3, 8))
        with pytest.raises(MeasureError):
            sw_pq(nu_family(0.5, 0.0, 0.5, 3), nu_family(0.5, 0.0, 0.0, 3),
                  2.0, 2.0, beta_directions(4, 8))

    def test_invalid_exponents_rejected(self):
        nu = nu_family(0.5, 0.0, 0.5, 3)
        ds = beta_directions(3, 8)
        with pytest.raises(MeasureError):
            sw_pq(nu, nu, 0.5, 2.0, ds)
        with pytest.raises(MeasureError):
            sw_pq(nu, nu, 2.0, 0.0, ds)

    @pytest.mark.parametrize("p,q,match", [(math.nan, 2.0, "p must be >= 1"),
                                           (2.0, math.nan, "q must be >= 1")])
    def test_nan_exponents_rejected(self, p, q, match):
        # refused up front, not as a distance that overflows
        nu = nu_family(0.5, 0.0, 0.5, 3)
        with pytest.raises(MeasureError, match=match):
            sw_pq(nu, nu, p, q, mc_directions(3, 4, 0))

    def test_nan_p_rejected_by_single_distances(self):
        a, b = nu_family(0.5, 0.0, 0.5, 3), nu_family(0.5, 0.0, 0.0, 3)
        for distance in (lambda: w_p_radial(a, b, math.nan),
                         lambda: sw_per_direction(a, b, math.nan, np.array([1.0, 0.0, 0.0]))):
            with pytest.raises(MeasureError, match="p must be >= 1"):
                distance()


def support_radius(*mixtures):
    return max(float(np.linalg.norm(c)) + r for m in mixtures for _, r, c in m.components)


@st.composite
def shell_mixture(draw, d):
    """1-4 components: free centers, or a center placed so that the shell
    is concentric with, or touches from outside or inside, the previous
    one.  Radii are 0, below the atom threshold, or at least 1e-3: in
    between, both paths lose digits to the cancellation in
    transport1d._segment_lp on narrow projected shells, and they can differ
    by more than the 1e-12 bound.  Center coordinates are any floats in
    [-2, 2], zero and tiny ones among them."""
    coord = st.floats(-2.0, 2.0)
    comps = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.floats(0.05, 1.0))
        r = draw(st.one_of(st.sampled_from([0.0, 1e-14]), st.floats(1e-3, 2.0)))
        layout = draw(st.sampled_from(["free", "concentric", "outside", "inside"])
                      if comps else st.just("free"))
        if layout == "free":
            c = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
        else:
            _, r0, c0 = comps[-1]
            u = np.zeros(d)
            u[draw(st.integers(0, 2))] = 1.0
            gap = {"concentric": 0.0, "outside": r0 + r, "inside": r0 - r}[layout]
            c = c0 + gap * u
        comps.append((w, r, c))
    total = sum(w for w, _, _ in comps)
    return ShellMixture(d, tuple((w / total, r, c) for w, r, c in comps))


@st.composite
def shell_pair(draw):
    d = draw(st.sampled_from([3, 4, 5]))
    if draw(st.booleans()):
        return draw(shell_mixture(d)), draw(shell_mixture(d))
    # two points of a transformed shell curve; t = 1 carries the inner atom
    x = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(3)])
    curve = transformed_nu_curve(draw(st.floats(0.1, 0.9)), x, d,
                                 draw(st.floats(0.5, 2.0)),
                                 np.array([draw(st.floats(-1, 1)) for _ in range(d)]),
                                 np.array([draw(st.floats(-1, 1)) for _ in range(d)]))
    # t stays off (0.99, 1), where the inner radius alpha(1-t) is small
    # enough for _segment_lp's cancellation to show (see shell_mixture)
    ts = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.99))
    return curve(draw(ts)), curve(draw(ts))


def directions_with_tiny_s(d, seed):
    """mc directions plus, for d >= 4, directions almost orthogonal to the
    shell subspace, so that r * s(theta) falls below the atom threshold."""
    thetas = mc_directions(d, 12, seed).thetas
    if d > 3:
        tiny = np.zeros((3, d))
        tiny[:, 3] = 1.0
        tiny[1, :3] = [1e-15, -2e-15, 0.0]
        tiny[2, :3] = [0.0, 3e-15, 4e-15]
        tiny /= np.linalg.norm(tiny, axis=1)[:, None]
        assert np.all(2.0 * np.linalg.norm(tiny[:, :3], axis=1) < _RADIUS_EPS)
        thetas = np.vstack([thetas, tiny])
    n = thetas.shape[0]
    return DirectionSet(d, thetas, np.full(n, 1.0 / n), f"mc+tiny-s(seed={seed})")


class TestBatchedShellKernel:
    @settings(max_examples=150, deadline=None)
    @given(pair=shell_pair(), seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([1, 2, 7]),
           extra=st.sampled_from([-1, 0, 1, None]),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
           q=st.sampled_from([1.0, 2.0, math.inf]))
    def test_matches_per_direction_oracle(self, pair, seed, rows, extra, p, q):
        # batches of `rows` directions over all 12-15 of them, or one batch
        # +- 1 of the last ones, the tiny-s directions among them
        a, b = pair
        dirs = directions_with_tiny_s(a.dim, seed)
        if extra is not None:
            n = max(1, rows + extra)
            dirs = DirectionSet(a.dim, dirs.thetas[-n:], np.full(n, 1.0 / n), dirs.provenance)
        want = loop_oracle(a, b, p, q, dirs)
        k = max(len(a.components), len(b.components))
        with mock.patch.object(swgeo.sliced, "_BATCH_VALUES", rows * 8 * k):
            got = sw_pq(a, b, p, q, dirs)
        assert abs(got - want) <= 1e-12 * max(want, support_radius(a, b))

    def test_off_center_path_skips_per_direction_projection(self, monkeypatch):
        curve = transformed_nu_curve(0.5, [0.2, 0.1, 0.0], 4, 1.5,
                                     [0.0, 0.3, 0.0, 0.2], [0.1, 0.0, 0.0, 0.0])
        a, b = curve(0.25), curve(1.0)
        dirs = mc_directions(4, 32, seed=5)
        want = {q: loop_oracle(a, b, 2.0, q, dirs) for q in (2.0, math.inf)}

        refuse_per_direction_path(monkeypatch)
        for q, value in want.items():
            assert sw_pq(a, b, 2.0, q, dirs) == pytest.approx(value, rel=1e-12)
        with pytest.raises(AssertionError, match="per-direction path taken"):
            sw_per_direction(a, b, 2.0, dirs.thetas[0])

    def test_narrow_inner_shell_before_t1(self):
        # just before t = 1 the inner shell's projected radius is tiny yet
        # above the atom threshold; constant speed still fixes the distance
        curve = transformed_nu_curve(0.5, [0.0, 0.0, 1.0], 4, 1.0,
                                     [0.3, 0.0, 0.0, 0.2], None)
        dirs = mc_directions(4, 16, seed=1)
        for p, q in [(1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (math.inf, 1.0)]:
            full = sw_pq(curve(0.0), curve(1.0), p, q, dirs)
            for eps in (1e-5, 1e-8):
                assert sw_pq(curve(1.0 - eps), curve(1.0), p, q, dirs) == \
                    pytest.approx(eps * full, rel=1e-6)

    def test_w_inf_ignores_rounding_level_slivers(self):
        # a's and b's CDF levels 1/3 and 2/3 are the same thirds summed in
        # different orders, so they agree only up to rounding.  Mapping b's
        # shell onto its center gives a, and the shell rim farthest from 0
        # cannot do better: W_inf = 0.5 s(theta) on every direction.
        d = 5
        e5 = np.eye(d)[4]
        a = ShellMixture(d, ((1 / 3, 0.0, np.zeros(d)), (2 / 3, 0.0, e5)))
        b = ShellMixture(d, ((1 / 3, 0.0, np.zeros(d)), (1 / 3, 0.0, e5),
                             (1 / 3, 0.5, e5)))
        thetas = mc_directions(d, 2000, 1).thetas
        want = 0.5 * np.linalg.norm(thetas[:, :3], axis=1)
        got = np.array([sw_per_direction(a, b, math.inf, th) for th in thetas])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        th = thetas[int(np.argmax(np.abs(got - want)))]
        assert wasserstein_inf(radon_project(a, th), radon_project(b, th)) == \
            pytest.approx(0.5 * np.linalg.norm(th[:3]), abs=1e-12)


    def test_finite_p_ignores_rounding_level_slivers(self):
        # b lists a's components in another order, so the projected CDF
        # levels agree only up to rounding and leave slivers where one
        # quantile has jumped and the other not yet; the distance is 0
        comps = ((0.02, 0.3, [0.2, 0, 0]), (0.71, 0.4, [-0.1, 0, 0]),
                 (0.15, 0.8, [0.6, 0, 0]), (0.12, 0.6, [3.6, 0, 0]))
        a = ShellMixture(3, comps)
        b = ShellMixture(3, tuple(comps[i] for i in (0, 2, 1, 3)))
        e1 = np.eye(3)[0]
        pa, pb = radon_project(a, e1), radon_project(b, e1)
        dirs = mc_directions(3, 64, 0)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            one_d = wasserstein_inf(pa, pb) if math.isinf(p) else wasserstein_p(pa, pb, p)
            assert one_d <= 1e-14
            assert sw_per_direction(a, b, p, e1) <= 1e-14
            assert sw_pq(a, b, p, 2.0, dirs) <= 1e-14


@st.composite
def circle_mixture(draw):
    """1-3 components of radius 0 (a point) or at least 1e-3: free, or
    concentric with the previous one, or touching it from outside or
    inside along an axis.  Along that axis their projections touch; with
    equal radii, concentric circles coincide in every projection."""
    coord = st.one_of(st.just(0.0), st.floats(-1.5, 1.5))
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.floats(0.05, 1.0))
        r = draw(st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 2.0)))
        layout = draw(st.sampled_from(["free", "concentric", "outside", "inside"])
                      if comps else st.just("free"))
        if layout == "free":
            c = np.array([draw(coord), draw(coord)])
        else:
            _, r0, c0 = comps[-1]
            gap = {"concentric": 0.0, "outside": r0 + r, "inside": r0 - r}[layout]
            c = c0 + gap * np.eye(2)[draw(st.integers(0, 1))]
        comps.append((w, r, c))
    total = sum(w for w, _, _ in comps)
    return CircleMixture(tuple((w / total, r, c) for w, r, c in comps))


@st.composite
def circle_pair(draw):
    """Two unrelated mixtures, or a mixture and a translated copy; not both
    centered, since sw_pq takes one direction for those."""
    a = draw(circle_mixture())
    if draw(st.booleans()):
        b = draw(circle_mixture())
    else:
        v = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
        b = CircleMixture(tuple((w, r, c + v) for w, r, c in a.components))
    assume(not (swgeo.sliced._is_centered(a) and swgeo.sliced._is_centered(b)))
    return a, b


def circle_directions(data, a, n):
    """n directions in the plane: mc nodes, with the axes (where touching
    parts meet in projection) and the normal of a's first center
    difference (where those parts coincide in projection) in front."""
    thetas = mc_directions(2, n, data.draw(st.integers(0, 2**32 - 1))).thetas
    special = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
    if len(a.components) > 1:
        dx, dy = a.components[1][2] - a.components[0][2]
        if math.hypot(dx, dy) > 1e-3:
            special.insert(0, np.array([-dy, dx]) / math.hypot(dx, dy))
    k = data.draw(st.integers(0, min(n, len(special))))
    thetas = np.vstack(special[:k] + [thetas[k:]])
    return DirectionSet(2, thetas, np.full(n, 1.0 / n), "mc+special")


class TestCircle:
    def test_w_inf_is_one(self):
        for t in (0.1, 0.5, 1.0):
            assert w_inf_circle(circle_family(t), circle_family(0.0)) == 1.0
        assert w_inf_circle(circle_family(0.0), circle_family(0.0)) == 0.0

    def test_sliced_sup_distance_is_q_independent(self):
        ds = mc_directions(2, 8, seed=2)
        c0 = circle_family(0.0)
        for t in (0.1, 0.5):
            vals = [sw_pq(circle_family(t), c0, math.inf, q, ds)
                    for q in (1.0, 2.0, math.inf)]
            assert max(vals) - min(vals) < 1e-10
            assert vals[0] == pytest.approx(math.sin(math.pi * t / 2), abs=1e-6)

    def test_centered_circles_take_one_direction(self, monkeypatch):
        # a centered circle mixture projects to the same measure on every theta
        rows = []
        distances = swgeo.sliced._distances
        monkeypatch.setattr(swgeo.sliced, "_distances",
                            lambda a, b, p, thetas: rows.append(len(thetas))
                            or distances(a, b, p, thetas))
        c0, ct = circle_family(0.0), circle_family(0.3)
        for q in (1.0, 2.0, math.inf):
            got = sw_pq(ct, c0, math.inf, q, mc_directions(2, 16, seed=4))
            assert got == pytest.approx(math.sin(0.15 * math.pi), rel=1e-15)
        assert rows == [1, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pair=circle_pair(), rows=st.sampled_from([1, 2, 7]),
           extra=st.sampled_from([-1, 0, 1, None]),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
           q=st.sampled_from([1.0, 2.0, math.inf]))
    def test_matches_per_direction_oracle(self, data, pair, rows, extra, p, q):
        # 1-9 directions, or one batch of `rows` pairs +- 1
        a, b = pair
        n = data.draw(st.integers(1, 9)) if extra is None else max(1, rows + extra)
        dirs = circle_directions(data, a, n)
        k = max(len(a.components), len(b.components))
        try:
            want = repr(loop_oracle(a, b, p, q, dirs))
        except MeasureError as exc:  # the per-direction path refuses it too
            want = str(exc)
        with mock.patch.object(swgeo.sliced, "_BATCH_VALUES",
                               rows * swgeo.sliced._ARCSINE_PAIR_VALUES * k * k):
            try:
                got = repr(sw_pq(a, b, p, q, dirs))
            except MeasureError as exc:
                got = str(exc)
        assert got == want

    def test_off_center_path_skips_per_direction_projection(self, monkeypatch):
        a = CircleMixture(((0.3, 0.0, np.array([0.2, 0.1])), (0.7, 1.0, np.zeros(2))))
        b = CircleMixture(((0.5, 0.5, np.array([-0.3, 0.0])), (0.5, 0.8, np.array([0.1, 0.4]))))
        dirs = mc_directions(2, 6, seed=3)
        want = {(p, q): loop_oracle(a, b, p, q, dirs) for p in (1.5, math.inf) for q in (2.0, math.inf)}

        refuse_per_direction_path(monkeypatch)
        for (p, q), value in want.items():
            assert sw_pq(a, b, p, q, dirs) == value

    def test_q_inf_takes_every_node(self):
        # 300 nodes rolled so that the best one, node 71, comes last: a
        # 256-node cap read 0.3980603256205878 without it
        a = CircleMixture(((0.5, 0.8, np.array([0.3, 0.0])), (0.5, 0.6, np.array([-0.2, 0.4]))))
        b = CircleMixture(((0.7, 0.5, np.array([0.0, -0.3])), (0.3, 0.9, np.array([0.1, 0.2]))))
        ds = mc_directions(2, 300, 7)
        dirs = DirectionSet(2, np.roll(ds.thetas, -72, axis=0), ds.weights, ds.provenance)
        best = max(sw_per_direction(a, b, 2.0, theta) for theta in dirs.thetas)
        assert best == pytest.approx(0.3980729613309378, rel=1e-15)
        assert sw_pq(a, b, 2.0, math.inf, dirs) == pytest.approx(best, rel=1e-12)


def point_circles(*points):
    """A circle mixture of (weight, x, y) points."""
    return CircleMixture(tuple((w, 0.0, np.array([x, y])) for w, x, y in points))


class TestExactIdentity:
    """Atoms are one atom only at equal positions, and a mixture is
    centered only with every center exactly at the origin: the kernel and
    the per-direction oracle agree on pairs an ulp or 1e-15 from either."""

    @staticmethod
    def one_direction(*theta):
        theta = np.array(theta) / np.linalg.norm(theta)
        return DirectionSet(theta.size, theta[None, :], np.ones(1), "one")

    def test_atoms_an_ulp_apart_stay_two(self):
        # a's points both project to 0 on the normal of their difference;
        # b's project to two atoms one ulp apart, each of mass 1/2, so
        # W_1 is their mean
        a = point_circles((0.5, 0.5, 1.0), (0.5, 0.0, 0.0))
        b = point_circles((0.5, 1.5, 1.0), (0.5, 1.0, 0.0))
        dirs = self.one_direction(1.0, -0.5)
        y0, y1 = (float(np.dot(dirs.thetas[0], c)) for _, _, c in b.components)
        assert y0 == math.nextafter(y1, math.inf)
        want = 0.5 * y0 + 0.5 * y1
        assert repr(want) == "0.894427190999916"
        assert repr(sw_pq(a, b, 1.0, 1.0, dirs)) == repr(loop_oracle(a, b, 1.0, 1.0, dirs)) \
            == repr(want)

    def test_point_off_center_by_1e_15(self):
        # one point against one point: W_2 on (0, 1) is the offset
        a, b = point_circles((1.0, 0.0, 1e-15)), point_circles((1.0, 0.0, 0.0))
        dirs = self.one_direction(0.0, 1.0)
        assert sw_pq(a, b, 2.0, 2.0, dirs) == loop_oracle(a, b, 2.0, 2.0, dirs) == 1e-15

    def test_shell_translated_by_1e_15(self):
        # a translate by v moves every projection by theta.v, here 1e-15;
        # the float endpoints +-1 + 1e-15 hold that shift only to within
        # the ulp of the support, 2.2e-16
        e3 = np.eye(3)[2]
        a = ShellMixture(3, ((1.0, 1.0, 1e-15 * e3),))
        b = ShellMixture.single(3, 1.0)
        dirs = self.one_direction(0.0, 0.0, 1.0)
        got = sw_pq(a, b, 2.0, 2.0, dirs)
        assert repr(got) == repr(loop_oracle(a, b, 2.0, 2.0, dirs)) == "9.442336410664813e-16"
        assert abs(got - 1e-15) <= math.ulp(1.0)

    @pytest.mark.parametrize("p, want", [(1.0, 1.1e-309), (2.0, 1.5556349186104e-309)])
    def test_subnormal_atom_stays_apart(self, p, want):
        # half the mass moves 2.2e-309: W_p = 2.2e-309 / 2^(1/p)
        a = point_circles((0.5, 0.0, 0.0), (0.5, 0.0, 2.2e-309))
        b = point_circles((1.0, 0.0, 0.0))
        dirs = self.one_direction(0.0, 1.0)
        assert want == 2.2e-309 * 0.5 ** (1.0 / p)
        assert sw_pq(a, b, p, p, dirs) == loop_oracle(a, b, p, p, dirs) == want

    @pytest.mark.parametrize("y", [1e-12, 1e-15, 1e-300])
    def test_sup_candidate_of_a_tiny_center(self, y):
        # a center or difference of positive finite norm gives its
        # direction, on which the sup is attained: exactly y, and
        # sqrt(2) y for the (y, y) center, to within the rounding of its
        # norm and projection
        b = point_circles((1.0, 0.0, 0.0))
        dirs = mc_directions(2, 4, 1)
        assert sw_pq(point_circles((1.0, 0.0, y)), b, 2.0, math.inf, dirs) == y
        diag = sw_pq(point_circles((1.0, y, y)), b, 2.0, math.inf, dirs)
        assert abs(diag - math.sqrt(2.0) * y) <= math.ulp(math.sqrt(2.0) * y)

    @pytest.mark.parametrize("offset", [(5e-324, 5e-324), (1e-320, 3e-321), (1e-300, 0.0)])
    def test_sup_candidate_of_a_subnormal_offset_is_unit(self, offset):
        # a unit shell beside a radius-2 one at the origin: the offset
        # moves each projection by theta.c, at most 1e-300, so the sup is
        # the centered pair's.  A candidate normalized by a norm rounded
        # on the subnormal grid would be longer than 1, and read up to
        # sqrt(2) times it
        c = np.array([*offset, 0.0, 0.0])
        dirs = mc_directions(4, 8, 2)
        want = sw_pq(ShellMixture.single(4, 1.0), ShellMixture.single(4, 2.0), 2.0, math.inf, dirs)
        got = sw_pq(ShellMixture.single(4, 1.0, c), ShellMixture.single(4, 2.0), 2.0, math.inf, dirs)
        assert abs(got - want) <= math.ulp(want)
        cands = swgeo.sliced._sup_directions(ShellMixture.single(4, 1.0, c),
                                             ShellMixture.single(4, 2.0), dirs)
        assert np.all(np.abs(np.linalg.norm(cands, axis=1) - 1.0) <= 4 * math.ulp(1.0))

    def test_sup_node_cap_keeps_the_nodes_of_largest_s(self):
        # 1024 nodes on an off-center pair: the candidates are e1, the
        # shell-subspace directions of the nonzero centers and of the
        # center differences, then the 256 nodes of largest s(theta)
        a = ShellMixture(4, ((0.5, 1.0, np.zeros(4)), (0.5, 0.4, np.array([0.0, 0.3, 0.4, 0.0]))))
        b = ShellMixture.single(4, 0.7, np.array([0.1, 0.2, 0.0, 0.5]))
        dirs = mc_directions(4, 1024, 5)
        nodes = dirs.thetas
        capped = nodes[np.argsort(-np.linalg.norm(nodes[:, :3], axis=1), kind="stable")[:256]]
        want = np.vstack([
            [[1.0, 0.0, 0.0, 0.0],                          # e1
             [0.0, 0.6, 0.8, 0.0],                          # a's inner center
             np.array([1.0, 2.0, 0.0, 0.0]) / 5 ** 0.5,     # b's center
             [0.0, -0.6, -0.8, 0.0],                        # a's centers
             np.array([-1.0, -2.0, 0.0, 0.0]) / 5 ** 0.5,   # a's outer and b's
             np.array([-1.0, 1.0, 4.0, 0.0]) / 18 ** 0.5],  # a's inner and b's
            capped])
        got = swgeo.sliced._sup_directions(a, b, dirs)
        assert got.shape == (262, 4)
        np.testing.assert_allclose(got[:6], want[:6], rtol=0.0, atol=2 * math.ulp(1.0))
        np.testing.assert_array_equal(got[6:], capped)
        oracle = max(sw_per_direction(a, b, 2.0, theta) for theta in got)
        assert abs(sw_pq(a, b, 2.0, math.inf, dirs) - oracle) <= 1e-12 * oracle


def centered_shell_value(a, b, p, q, dirs):
    # nu(0.5) against nu(0), alpha = 0.4, by the closed form t alpha / (p + 1)^(1/p),
    # times the q-mean of s(theta) over dirs
    v = 0.5 * 0.4 / (p + 1.0) ** (1.0 / p)
    return v if math.isinf(q) else v * float(np.dot(dirs.weights, dirs.s_values() ** q)) ** (1.0 / q)


def point_circle_value(a, b, p, q, dirs):
    # two points against one point: W_p^p on theta is the weighted sum of
    # the p-th powers of the projected offsets
    d = np.abs(oracle_directions(a, b, q, dirs) @ np.array([[0.5, 0.25], [-1.0, 0.5]]).T)
    vals = d.max(axis=1) if math.isinf(p) else (d ** p @ [0.25, 0.75]) ** (1.0 / p)
    return swgeo.sliced._qmean(vals, dirs.weights, q)


# centered pairs and point-only circle pairs, each with its value in
# closed form as a function of (a, b, p, q, dirs)
CLOSED_FORM_CASES = {
    "centered shells": (lambda: (nu_family(0.4, 0.0, 0.5, 4), nu_family(0.4, 0.0, 0.0, 4)),
                        centered_shell_value),
    "centered circles": (lambda: (circle_family(0.3), circle_family(0.0)),
                         lambda a, b, p, q, dirs: math.sin(0.15 * math.pi)),
    "point circles": (lambda: (point_circles((0.25, 0.5, 0.25), (0.75, -1.0, 0.5)),
                               point_circles((1.0, 0.0, 0.0))), point_circle_value),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_sw_pq_takes_no_per_direction_path(case, monkeypatch):
    pair, value = CLOSED_FORM_CASES[case]
    a, b = pair()
    dirs = mc_directions(a.dim, 24, seed=6)
    # the closed form of the centered circles is W_inf's
    ps = (math.inf,) if case == "centered circles" else (1.5, math.inf)
    want = {(p, q): value(a, b, p, q, dirs) for p in ps for q in (2.0, math.inf)}
    refuse_per_direction_path(monkeypatch)
    for (p, q), v in want.items():
        assert sw_pq(a, b, p, q, dirs) == pytest.approx(v, rel=1e-12)


class TestWpRadial:
    def test_formula(self):
        a = nu_family(0.5, 0.0, 0.5, 3)
        b = nu_family(0.5, 0.0, 0.0, 3)
        assert w_p_radial(a, b, 2.0) == pytest.approx(math.sqrt(0.25 * 0.75),
                                                      abs=1e-15)

    def test_t_zero_gives_zero(self):
        b = nu_family(0.5, 0.0, 0.0, 3)
        assert w_p_radial(b, b, 2.0) == 0.0

    def test_sup_exponent(self):
        a = nu_family(0.5, 0.0, 0.5, 3)
        b = nu_family(0.5, 0.0, 0.0, 3)
        assert w_p_radial(a, b, math.inf) == pytest.approx(0.75, abs=1e-15)

    def test_limit_of_finite_p(self):
        a = nu_family(0.5, 0.0, 0.5, 3)
        b = nu_family(0.5, 0.0, 0.0, 3)
        assert w_p_radial(a, b, 2.0 ** 12) == pytest.approx(
            w_p_radial(a, b, math.inf), rel=2e-3)

    def test_rejects_non_concentric(self):
        moved = ShellMixture(3, ((1.0, 1.0, np.array([0.1, 0.0, 0.0])),))
        base = nu_family(0.5, 0.0, 0.0, 3)
        with pytest.raises(MeasureError):
            w_p_radial(moved, base, 2.0)

    def test_rejects_wrong_structure(self):
        three = ShellMixture(3, ((0.5, 1.0, np.zeros(3)),
                                 (0.3, 0.5, np.zeros(3)),
                                 (0.2, 0.25, np.zeros(3))))
        with pytest.raises(MeasureError):
            w_p_radial(three, nu_family(0.5, 0.0, 0.0, 3), 2.0)


@st.composite
def point_cloud(draw, d, equal):
    """1-12 points on a coarse grid (so duplicates are common) or free,
    with equal or unequal weights."""
    n = draw(st.integers(1, 12))
    coord = st.integers(-2, 2).map(float) | st.floats(-10.0, 10.0)
    points = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    if equal:
        return PointCloud(d, points, np.full(n, 1.0 / n))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return PointCloud(d, points, w / w.sum())


@st.composite
def sortable_rows(draw):
    """1-3 rows of n values, n at or next to a power of two, from 1-6 base
    values: exact ties, values 1 to 2^b + 1 ulps from a base, b the bits
    of the flat positions in the keys of _sort_rows, and +-0.0, +-inf and
    nan."""
    r = draw(st.integers(1, 3))
    n = max(1, 2 ** draw(st.integers(0, 8)) + draw(st.sampled_from([-1, 0, 1])))
    b = (r * n - 1).bit_length()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.standard_normal(draw(st.integers(1, 6))) * 10.0 ** rng.integers(-3, 4)
    x = rng.choice(bases, (r, n))
    near = rng.random((r, n)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    ulps = rng.integers(1, 2**b + 2, (r, n)) * rng.choice([-1, 1], (r, n))
    x.view(np.int64)[near] += ulps[near]  # the bits of a nonzero base, away from 0 or towards it
    special = rng.random((r, n)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    x[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], np.count_nonzero(special))
    return x


def atoms_oracle(X, Y, p, q, dirs):
    """The q-mean of the exact wasserstein_p between the projected atoms,
    one Measure1D per cloud and direction.  It takes sw_pq's q-mean, as
    loop_oracle does: a plain one squares a distance of 1e-209 to 0."""
    vals = np.array([
        wasserstein_p(Measure1D.from_components(atoms=zip(X.points @ theta, X.weights)),
                      Measure1D.from_components(atoms=zip(Y.points @ theta, Y.weights)), p)
        for theta in dirs.thetas])
    return swgeo.sliced._qmean(vals, dirs.weights, q)


class TestEmpirical:
    def test_zero_on_identical_clouds(self):
        X = PointCloud(3, np.eye(3), np.full(3, 1 / 3))
        assert sw_pq_empirical(X, X, 2.0, 2.0, mc_directions(3, 16, 0)) == 0.0

    def test_two_point_clouds_match_moment_oracle(self):
        # single points at 0 and v: per-theta distance is |theta.v|, and
        # E (theta.u)^2 = 1/d for unit u
        rng = np.random.default_rng(6)
        v = rng.normal(size=3)
        X = PointCloud(3, np.zeros((1, 3)), np.array([1.0]))
        Y = PointCloud(3, v[None, :], np.array([1.0]))
        n = 20_000
        ds = mc_directions(3, n, seed=9)
        got = sw_pq_empirical(X, Y, 2.0, 2.0, ds)
        proj2 = (ds.thetas @ v) ** 2
        se = proj2.std(ddof=1) / math.sqrt(n)
        target = np.linalg.norm(v) / math.sqrt(3.0)
        assert abs(got ** 2 - target ** 2) < 4 * se

    def test_matches_exact_distance_on_small_atomics(self):
        xa = np.array([0.0, 1.0, 3.0])
        wa = np.array([0.25, 0.5, 0.25])
        xb = np.array([-1.0, 2.0])
        wb = np.array([0.5, 0.5])
        for p in (1.0, 2.0, 3.5):
            got = empirical_w1d(xa, wa, xb, wb, p)
            ref = wasserstein_p(Measure1D.from_components(atoms=zip(xa, wa)),
                                Measure1D.from_components(atoms=zip(xb, wb)), p)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_convergence_in_sample_size(self):
        target = 0.25 / math.sqrt(3.0)
        ds = mc_directions(3, 64, seed=123)
        errs = {}
        for n in (100, 1000, 10_000):
            per_seed = []
            for seed in range(10):
                X = sample_shell(nu_family(0.5, 0.0, 0.5, 3), n, seed=seed)
                Y = sample_shell(nu_family(0.5, 0.0, 0.0, 3), n, seed=1000 + seed)
                per_seed.append(abs(sw_pq_empirical(X, Y, 2.0, 2.0, ds) - target))
            errs[n] = float(np.median(per_seed))
        assert errs[1000] < errs[100]
        assert errs[10_000] < errs[1000]

    def test_rejects_p_infinity(self):
        X = PointCloud(3, np.zeros((1, 3)), np.array([1.0]))
        with pytest.raises(MeasureError):
            sw_pq_empirical(X, X, math.inf, 2.0, mc_directions(3, 4, 0))

    @pytest.mark.parametrize("p,q,match", [(math.nan, 2.0, "p must be >= 1"),
                                           (2.0, math.nan, "q must be >= 1")])
    def test_nan_exponents_rejected(self, p, q, match):
        X = PointCloud(3, np.zeros((1, 3)), np.array([1.0]))
        with pytest.raises(MeasureError, match=match):
            sw_pq_empirical(X, X, p, q, mc_directions(3, 4, 0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(2, 4), equal=st.tuples(st.booleans(), st.booleans()),
           rows=st.sampled_from([1, 2, 7]), extra=st.sampled_from([-1, 0, 1, None]),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), q=st.sampled_from([1.0, 2.0, math.inf]))
    def test_matches_per_direction_oracle(self, data, d, equal, rows, extra, p, q):
        X = data.draw(point_cloud(d, equal[0]))
        Y = data.draw(point_cloud(d, equal[1]))
        # batches of `rows` directions; one direction, or one batch +- 1
        dirs = mc_directions(d, 1 if extra is None else max(1, rows + extra),
                             data.draw(st.integers(0, 2**32 - 1)))
        with mock.patch.object(swgeo.sliced, "_EMPIRICAL_BATCH_VALUES", rows * (X.n + Y.n)):
            got = sw_pq_empirical(X, Y, p, q, dirs)
        want = atoms_oracle(X, Y, p, q, dirs)
        assert abs(got - want) <= 1e-12 * want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("path,ps", [("equal", [1.0, 1.5, 2.0]), ("cdf-gap", [1.0]),
                                         ("merge", [1.5, 2.0])])
    def test_w1d_is_the_one_row_call(self, data, path, ps):
        # empirical_w1d is sw_pq_empirical on 1-D clouds with the one
        # direction [1.0], at q = 1, bit for bit, on each of the paths
        X = data.draw(point_cloud(1, path == "equal"))
        Y = data.draw(point_cloud(1, path == "equal" or data.draw(st.booleans())))
        p = data.draw(st.sampled_from(ps))
        one = DirectionSet(1, np.ones((1, 1)), np.ones(1), "e1")
        got = empirical_w1d(X.points[:, 0], X.weights, Y.points[:, 0], Y.weights, p)
        assert repr(got) == repr(sw_pq_empirical(X, Y, p, 1.0, one))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(2, 3), shared=st.booleans(),
           rows=st.sampled_from([1, 2, 7]), p=st.sampled_from([1.0, 1.5, 2.0]),
           q=st.sampled_from([1.0, 2.0]))
    def test_duplicated_points_match_per_direction_oracle(self, data, d, shared, rows, p, q):
        # weighted clouds that repeat some of their points exactly and, if
        # shared, hold some points of the other cloud: the tied projections
        # enter the running sums in the tie order of _sort_rows
        def weights(n):
            w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
            return w / w.sum()

        def pick(points):
            return points[data.draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=6))]

        A, B = data.draw(point_cloud(d, False)), data.draw(point_cloud(d, data.draw(st.booleans())))
        xa = np.concatenate([A.points, pick(A.points)])
        xb = np.concatenate([B.points, pick(B.points)] + ([pick(xa)] if shared else []))
        X, Y = PointCloud(d, xa, weights(len(xa))), PointCloud(d, xb, weights(len(xb)))
        dirs = mc_directions(d, 2 * rows + 1, data.draw(st.integers(0, 2**32 - 1)))
        with mock.patch.object(swgeo.sliced, "_EMPIRICAL_BATCH_VALUES", rows * (X.n + Y.n)):
            got = sw_pq_empirical(X, Y, p, q, dirs)
        want = atoms_oracle(X, Y, p, q, dirs)
        assert abs(got - want) <= 1e-12 * want
        one = DirectionSet(1, np.ones((1, 1)), np.ones(1), "e1")
        X1, Y1 = (PointCloud(1, c.points[:, :1], c.weights) for c in (X, Y))
        assert repr(empirical_w1d(X1.points[:, 0], X1.weights, Y1.points[:, 0], Y1.weights, p)) \
            == repr(sw_pq_empirical(X1, Y1, p, 1.0, one))

    @settings(max_examples=300, deadline=None)
    @given(x=sortable_rows())
    def test_sort_rows_is_a_sort(self, x):
        # the gathered rows are np.sort's, bit for bit but for the order of
        # -0.0 and 0.0, and the columns a permutation of each row's own
        r, n = x.shape
        cols, srt = swgeo.transport1d._sort_rows(x, swgeo.transport1d._Workspace(r), "sorted")
        assert np.array_equal(np.sort(cols, axis=1), np.broadcast_to(np.arange(n), (r, n)))
        assert np.array_equal(srt.view(np.int64),
                              np.take_along_axis(x, cols, axis=1).view(np.int64))
        want = np.sort(x, axis=1)
        zero = (srt == 0.0) & (want == 0.0)
        assert np.array_equal(np.where(zero, 0, srt.view(np.int64)),
                              np.where(zero, 0, want.view(np.int64)))
        for i in range(r):
            if np.unique(x[i]).size == n:
                assert np.array_equal(cols[i], np.argsort(x[i], kind="stable"))
            if np.isfinite(x[i]).all():
                # equal values: -0.0 before 0.0, by column where positive,
                # in reverse where negative
                negative = np.signbit(srt[i][srt[i] == 0.0])
                assert np.all(negative[:-1] >= negative[1:])
                for v in np.unique(x[i][x[i] != 0.0]):
                    at = cols[i][srt[i] == v]
                    assert np.array_equal(at, np.sort(at)[::-1] if v < 0.0 else np.sort(at))

    @pytest.mark.parametrize("x,want", [([1.0 + 2**-52, 1.0], [1, 0]), ([1.0, math.inf], [0, 1])],
                             ids=["near-tie", "inf"])
    def test_sort_rows_repairs_a_row(self, x, want):
        # 1 + eps at column 0 and 1 at column 1: both keys clear the last
        # bit, so they sort by column and the gathered row descends.  The
        # key of the inf at column 1 is a nan, whose low bits the sort drops.
        # Either row takes one stable argsort.
        x = np.array([x])
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            order, srt = swgeo.transport1d._sort_rows(x, swgeo.transport1d._Workspace(1), "sorted")
        assert argsort.call_count == 1
        assert order.tolist() == [want]
        assert srt.tolist() == [sorted(x[0].tolist())]

    @pytest.mark.parametrize("weighted,p", [(False, 2.0), (True, 1.0), (True, 2.0)],
                             ids=["equal", "cdf-gap", "merge"])
    def test_peak_memory_does_not_grow_with_directions(self, weighted, p):
        # the kernel allocates its workspaces once per call and reuses them
        # for every batch of directions: from 256 to 4096 directions, the
        # peak of one call on 2000-point clouds may grow by the output, 8
        # bytes per direction, and 16 KiB of slack.  A list of per-batch
        # results and their concatenation grew it by about 72 bytes per
        # direction (277 KB).  The collector is off while measuring, so
        # that garbage freed on the way does not move the peak.
        rng = np.random.default_rng(8)
        w = rng.uniform(0.5, 1.5, 2000) if weighted else np.ones(2000)
        X = PointCloud(5, rng.standard_normal((2000, 5)), w / w.sum())
        Y = PointCloud(5, rng.standard_normal((2000, 5)), np.full(2000, 1 / 2000))
        peaks = []
        for m in (256, 4096):
            dirs = mc_directions(5, m, 1)
            sw_pq_empirical(X, Y, p, 2.0, dirs)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sw_pq_empirical(X, Y, p, 2.0, dirs)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
                gc.enable()
        assert peaks[1] - peaks[0] <= 8 * (4096 - 256) + 16384

    def test_equal_weight_clouds_match_sorted_matching(self):
        # 500 and 2000 equal-weight points: per direction, W_p pairs the
        # sorted projections once each of the 500 is repeated four times
        rng = np.random.default_rng(12)
        X = PointCloud(5, rng.standard_normal((500, 5)), np.full(500, 1 / 500))
        Y = PointCloud(5, rng.standard_normal((2000, 5)) + 0.3, np.full(2000, 1 / 2000))
        rows = swgeo.sliced._EMPIRICAL_BATCH_VALUES // (X.n + Y.n)
        dirs = mc_directions(5, 2 * rows + 1, seed=4)
        px = np.sort(np.repeat(X.points @ dirs.thetas.T, 4, axis=0), axis=0)
        py = np.sort(Y.points @ dirs.thetas.T, axis=0)
        for p in (1.0, 2.0, 3.0):
            vals = np.mean(np.abs(px - py) ** p, axis=0) ** (1 / p)
            for q in (1.0, 2.0, math.inf):
                want = vals.max() if math.isinf(q) else np.dot(dirs.weights, vals ** q) ** (1 / q)
                assert sw_pq_empirical(X, Y, p, q, dirs) == pytest.approx(want, rel=1e-14)

    def test_rounding_level_slivers_carry_no_mass(self):
        # weights 1/7 computed two ways: the cumulative levels differ by
        # up to 4e-16, and those slivers, where only one quantile has
        # stepped to the next point, must not count
        rng = np.random.default_rng(0)
        points = rng.standard_normal((7, 3))
        X = PointCloud(3, points, np.full(7, 0.05) / 0.35)
        Y = PointCloud(3, points, np.full(7, 1 / 7))
        assert not np.array_equal(X.weights, Y.weights)
        for p in (1.0, 2.0):
            assert sw_pq_empirical(X, Y, p, 2.0, mc_directions(3, 16, 0)) == 0.0
        # unequal weights normalized two ways: five of them differ by an
        # ulp, and at p = 1 so does F_a - F_b between the points
        w = np.random.default_rng(1).uniform(0.1, 1.0, 7)
        X = PointCloud(3, points, w / w.sum())
        Y = PointCloud(3, points, (w / 0.35) / (w / 0.35).sum())
        assert np.count_nonzero(X.weights != Y.weights) == 5
        for p in (1.0, 2.0):
            assert sw_pq_empirical(X, Y, p, 2.0, mc_directions(3, 16, 0)) == 0.0

    AXES = DirectionSet(3, np.eye(3), np.full(3, 1 / 3), "axes")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big,p,q", [(1e308, 2.0, 2.0), (1e308, 1.0, 1.0),
                                         (1e308, 1.5, math.inf)])
    def test_overflowing_clouds_are_refused(self, big, p, q):
        # single points at +-big e1: the coupled difference overflows
        X = PointCloud(3, np.array([[big, 0.0, 0.0]]), np.ones(1))
        Y = PointCloud(3, -X.points, X.weights)
        with pytest.raises(MeasureError, match="not finite"):
            sw_pq_empirical(X, Y, p, q, self.AXES)
        with pytest.raises(MeasureError, match="not finite"):
            empirical_w1d(X.points[:, 0], X.weights, Y.points[:, 0], Y.weights, p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [1.0, 2.0], ids=["cdf-gap", "merge"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+inf", "-inf"])
    def test_overflowing_weighted_clouds_are_refused(self, sign, p):
        # unequal weights: on the diagonal of e1 and e2, the second point
        # of X projects to sign * inf, whose key in _sort_rows is a nan
        big = sign * 1.5e308
        X = PointCloud(3, np.array([[0.0, 0.0, 0.0], [big, big, 0.0]]), np.array([0.25, 0.75]))
        Y = PointCloud(3, np.eye(3)[:2], np.array([0.4, 0.6]))
        s = math.sqrt(0.5)
        diagonal = DirectionSet(3, np.array([[s, s, 0.0]]), np.ones(1), "diagonal")
        with pytest.raises(MeasureError, match="not finite"):
            sw_pq_empirical(X, Y, p, 2.0, diagonal)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,q,want", [(2.0, 2.0, 8.16496580927726e307),
                                          (1.0, 1.0, 6.666666666666666e307),
                                          (1.5, math.inf, 1e308)])
    def test_differences_without_mass_may_overflow(self, p, q, want):
        # on e1 and e2 the coupling pairs 1e308 with 0 twice; the cross
        # difference 1e308 - (-1e308) overflows, but lies on an interval
        # without mass, so the distances are finite
        X = PointCloud(3, np.array([[1e308, 0.0, 0.0], [0.0, -1e308, 0.0]]), np.full(2, 0.5))
        Y = PointCloud(3, -X.points, X.weights)
        assert sw_pq_empirical(X, Y, p, q, self.AXES) == want
        assert empirical_w1d(X.points[:, 0], X.weights, Y.points[:, 0], Y.weights, p) == 1e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_unequal_weights_ignore_differences_without_mass(self, p):
        # every coupled difference is 1e308; 1e308 - (-1e308) at level 1/2
        # lies on an interval of width 0
        assert empirical_w1d(np.array([0.0, 0.0, 1e308]), np.array([0.25, 0.25, 0.5]),
                             np.array([-1e308, 0.0, 0.0]), np.array([0.5, 0.25, 0.25]),
                             p) == 1e308
        # a cloud against itself: at p = 1 the joint gap from -1e308 to
        # 1e308 overflows where F_a - F_b is 0
        x, w = np.array([-1e308, 1e308]), np.array([0.4, 0.6])
        assert empirical_w1d(x, w, x, w, p) == 0.0
        X = PointCloud(3, np.outer(x, [1.0, 0.0, 0.0]), w)
        for q in (1.0, 2.0):
            assert sw_pq_empirical(X, X, p, q, self.AXES) == 0.0

    @pytest.mark.parametrize("xa,wa,p,match", [
        ([0.0, 1.0], [1.5, -0.5], 1.0, "positive"),
        ([0.0], [0.5], 1.0, "sum to 1"),
        ([], [], 1.0, "sum to 1"),
        ([np.nan], [1.0], 1.0, "points and weights must be finite"),
        ([0.0, 1.0], [1.0], 1.0, "parallel"),
        ([0.0], [1.0], 0.5, "p must be >= 1"),
        ([0.0], [1.0], math.inf, "finite p"),
        ([0.0], [1.0], math.nan, "finite p"),
    ], ids=["negative-weight", "half-mass", "empty", "nan-point", "length-mismatch",
            "p-below-one", "p-infinity", "p-nan"])
    def test_w1d_rejects_invalid_input(self, xa, wa, p, match):
        # each side is checked as a one-dimensional PointCloud
        with pytest.raises(MeasureError, match=match):
            empirical_w1d(np.array(xa), np.array(wa), np.ones(1), np.ones(1), p)
        with pytest.raises(MeasureError, match=match):
            empirical_w1d(np.ones(1), np.ones(1), np.array(xa), np.array(wa), p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("equal", [True, False])
    @pytest.mark.parametrize("e,q", [(-1000, 2.0), (-300, 3.5), (300, 3.5)])
    def test_scaled_clouds_scale_their_distances(self, equal, e, q):
        # clouds scaled by 2^e: d^3.5 and, for q = 3.5, the q-mean leave
        # float64 range unless scaled, also for 2^+-300, where the rule
        # depends on the exponent; the values scale with the clouds
        rng = np.random.default_rng(3)
        clouds = []
        for n in (5, 7):
            w = np.full(n, 1.0 / n) if equal else rng.uniform(0.1, 1.0, n)
            clouds.append(PointCloud(3, rng.standard_normal((n, 3)), w / w.sum()))
        scaled = [PointCloud(3, np.ldexp(c.points, e), c.weights) for c in clouds]
        dirs = mc_directions(3, 16, 0)
        (xa, wa), (xb, wb) = ((c.points[:, 0], c.weights) for c in clouds)
        for p in (1.0, 2.0, 3.5):
            # pytest.approx would also pass anything within 1e-12 absolute
            want = math.ldexp(sw_pq_empirical(*clouds, p, q, dirs), e)
            assert abs(sw_pq_empirical(*scaled, p, q, dirs) - want) <= 1e-14 * want
            want = math.ldexp(empirical_w1d(xa, wa, xb, wb, p), e)
            got = empirical_w1d(np.ldexp(xa, e), wa, np.ldexp(xb, e), wb, p)
            assert abs(got - want) <= 1e-14 * want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d,p", [(0.01, 200.0), (1e4, 100.0), (1e-97, 3.5), (1e90, 3.5),
                                     (1.5, 2000.0)])
    def test_high_powers_are_scaled(self, d, p):
        # d^p underflows or overflows float64 although d lies well inside
        # [2^-500, 2^500]: the scale depends on p
        assert empirical_w1d(np.zeros(1), np.ones(1), np.array([d]), np.ones(1), p) == d

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
    def test_large_q_means_are_scaled(self, q):
        # distances of 1e200 on two axes, whose squares overflow: the
        # q-mean is the one of the clouds scaled by 2^-600, scaled back
        X = PointCloud(3, np.array([[1e200, 0.0, 0.0], [0.0, -1e200, 0.0]]), np.full(2, 0.5))
        Y = PointCloud(3, -X.points, X.weights)
        small = [PointCloud(3, np.ldexp(c.points, -600), c.weights) for c in (X, Y)]
        got = sw_pq_empirical(X, Y, 2.0, q, self.AXES)
        assert 6e199 < got <= 1e200
        assert got == math.ldexp(sw_pq_empirical(*small, 2.0, q, self.AXES), 600)

    def test_large_distances_do_not_overflow_their_powers(self):
        X = PointCloud(3, np.array([[1e200, 0.0, 0.0]]), np.array([1.0]))
        Y = PointCloud(3, np.zeros((1, 3)), np.array([1.0]))
        assert sw_pq_empirical(X, Y, 3.0, 1.0, self.AXES) == pytest.approx(1e200 / 3, rel=1e-15)
        assert empirical_w1d(np.array([1e200]), np.ones(1), np.zeros(1), np.ones(1), 3.0) == 1e200


class TestPointCloudValidation:
    @pytest.mark.parametrize("points,weights", [
        ([[0.0, 0.0, np.nan], [1.0, 0.0, 0.0]], [0.5, 0.5]),
        ([[0.0, 0.0, np.inf], [1.0, 0.0, 0.0]], [0.5, 0.5]),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [np.nan, 1.0]),
    ], ids=["nan-point", "inf-point", "nan-weight"])
    def test_rejects_non_finite(self, points, weights):
        with pytest.raises(MeasureError, match="finite"):
            PointCloud(3, np.array(points), np.array(weights))


@pytest.mark.parametrize("make", [
    lambda dim: ShellMixture(dim, ((1.0, 1.0, np.zeros(4)),)),
    lambda dim: ShellMixture.single(dim, 1.0),
    lambda dim: PointCloud(dim, np.zeros((1, 4)), np.ones(1)),
    lambda dim: DirectionSet(dim, np.eye(4)[:1], np.ones(1), "e1"),
], ids=["ShellMixture", "ShellMixture.single", "PointCloud", "DirectionSet"])
def test_dimension_is_an_integer(make):
    # a float dimension was kept, and sw_pq, its q = inf candidates and
    # sample_shell then failed with a bare TypeError
    for dim in (4.0, np.float64(4.0), 3.5):
        with pytest.raises(MeasureError, match="dimension must be an integer"):
            make(dim)
    made = make(np.int64(4))
    assert made.dim == 4 and type(made.dim) is int

class TestSampleShell:
    def test_rejects_negative_seed(self):
        with pytest.raises(MeasureError, match="seed must be >= 0, got -1"):
            sample_shell(ShellMixture.single(3, 1.0), 10, seed=-1)
        with pytest.raises(MeasureError, match="seed must be an integer, got 1.5"):
            sample_shell(ShellMixture.single(4, 1.0), 4, 1.5)

    def test_rejects_non_integral_count(self):
        with pytest.raises(MeasureError, match="sample size must be an integer, got 2.5"):
            sample_shell(ShellMixture.single(3, 1.0), 2.5, 0)
        assert sample_shell(ShellMixture.single(3, 1.0), np.int64(3), 0).n == 3

    def test_point_component_yields_copies(self):
        x = np.array([0.2, 0.1, -0.3])
        cloud = sample_shell(ShellMixture.single(3, 0.0, x), 25, seed=0)
        np.testing.assert_array_equal(cloud.points, np.tile(x, (25, 1)))

    def test_unit_norms(self):
        cloud = sample_shell(ShellMixture.single(3, 1.0), 1000, seed=1)
        np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0,
                                   atol=1e-12)

    def test_coordinate_mean_concentration(self):
        n = 100_000
        cloud = sample_shell(ShellMixture.single(3, 1.0), n, seed=2)
        # coordinate variance on the unit 2-sphere is 1/3
        assert abs(cloud.points[:, 0].mean()) < 4.0 / math.sqrt(n) / math.sqrt(3.0)

    def test_stratification_preserves_component_masses(self):
        nu = nu_family(0.5, 0.0, 0.5, 3)
        cloud = sample_shell(nu, 1000, seed=3)
        inner = np.linalg.norm(cloud.points, axis=1) < 0.5
        assert cloud.weights[inner].sum() == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_fewer_draws_than_components(self):
        nu = nu_family(0.5, 0.3, 0.5, 3)
        with pytest.raises(MeasureError, match="number of components"):
            sample_shell(nu, 1, 0)
        assert sample_shell(nu, 2, 0).n == 2

    def test_every_component_gets_a_draw(self):
        # largest remainders give all 3 draws to the first component; each
        # other one then takes a draw from the largest count
        centers = [np.zeros(3), np.array([3.0, 0.0, 0.0]), np.array([0.0, -2.0, 1.0])]
        sm = ShellMixture(3, ((0.98, 1.0, centers[0]), (0.01, 0.5, centers[1]),
                              (0.01, 0.0, centers[2])))
        cloud = sample_shell(sm, 3, seed=8)
        np.testing.assert_array_equal(cloud.weights, [0.98, 0.01, 0.01])
        np.testing.assert_allclose(np.linalg.norm(cloud.points - centers, axis=1),
                                   [1.0, 0.5, 0.0], atol=1e-15)

    def test_embedded_in_shell_subspace(self):
        cloud = sample_shell(ShellMixture.single(5, 1.0), 100, seed=4)
        assert np.all(cloud.points[:, 3:] == 0.0)


class TestSlicedGeodesics:
    GRID = [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_shell_curve_constant_speed(self):
        dev = sliced_geodesic_deviation(nu_curve(0.5, 0.0, 3), 2.0, 2.0,
                                        beta_directions(3, 16), self.GRID)
        assert dev < 1e-12

    def test_transformed_curves_constant_speed(self):
        # mc nodes: beta nodes are refused off center, and constant speed
        # holds direction by direction
        rng = np.random.default_rng(77)
        for seed in range(5):
            d = int(rng.choice([3, 4]))
            alpha = rng.uniform(0.1, 0.9)
            x = rng.normal(size=3)
            x *= rng.uniform(0, 1) / np.linalg.norm(x)
            curve = transformed_nu_curve(alpha, x, d, rng.uniform(-2, 2) or 1.0,
                                         rng.normal(size=d), rng.normal(size=d))
            dev = sliced_geodesic_deviation(curve, 2.0, 2.0,
                                            mc_directions(d, 24, seed), self.GRID)
            assert dev < 1e-6


class TestNonFiniteDistances:
    DIRS = mc_directions(4, 8, 0)
    UNIT = ShellMixture.single(4, 1.0)

    def test_overflowing_projection_is_refused(self):
        big = ShellMixture(4, ((1.0, 1e308, np.array([0.5, 0.0, 0.0, 0.0])),))
        for p, q in ((2.0, 2.0), (1.0, 1.0), (math.inf, math.inf)):
            with pytest.raises(MeasureError, match="not finite"):
                sw_pq(big, self.UNIT, p, q, self.DIRS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_centers_do_not_overflow_the_centering_check(self):
        far = ShellMixture(4, ((1.0, 0.0, np.array([0.0, 0.0, 0.0, 1e160])),))
        origin = ShellMixture(4, ((1.0, 0.0, np.zeros(4)),))
        want = 1e160 * np.abs(self.DIRS.thetas[:, 3]).max()
        assert sw_pq(far, origin, math.inf, math.inf, self.DIRS) == pytest.approx(want, rel=1e-15)
        # centers at +-1e308 differ by more than the largest float; their
        # own direction e1 still gives the sup
        wide = ShellMixture(4, ((0.5, 0.0, np.array([1e308, 0.0, 0.0, 0.0])),
                                (0.5, 0.0, np.array([-1e308, 0.0, 0.0, 0.0]))))
        assert sw_pq(wide, origin, math.inf, math.inf, self.DIRS) == 1e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_q_mean_is_scaled(self):
        # per-direction distances near 1e200, whose squares overflow
        wide = ShellMixture(4, ((0.5, 1e200, np.array([0.5, 0.0, 0.0, 0.0])),
                                (0.5, 1.0, np.zeros(4))))
        vals = np.array([sw_per_direction(wide, self.UNIT, 2.0, th) for th in self.DIRS.thetas])
        want = 1e200 * math.sqrt(np.dot(self.DIRS.weights, (vals / 1e200) ** 2))
        assert sw_pq(wide, self.UNIT, 2.0, 2.0, self.DIRS) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("make,message", [
    (lambda: sw_pq(ShellMixture.single(3, 1.0), circle_family(0.5), 2.0, 2.0,
                   mc_directions(3, 4, 0)), "mixtures must be of the same kind"),
    (lambda: w_p_radial(nu_family(0.5, 0.0, 0.5, 3), ShellMixture.single(4, 1.0), 2.0),
     "dimension mismatch"),
    (lambda: w_p_radial(nu_family(0.5, 0.0, 0.5, 3), ShellMixture.single(3, 0.5), 2.0),
     "second argument must be the unit shell"),
    (lambda: w_inf_circle(CircleMixture(((1.0, 1.0, np.array([0.1, 0.0])),)), circle_family(0.0)),
     "circle components must be centered"),
    (lambda: w_inf_circle(CircleMixture(((1.0, 0.5, np.zeros(2)),)), circle_family(0.0)),
     "circle radius must be 0 or 1"),
    (lambda: sw_pq_empirical(*[PointCloud(3, np.zeros((1, 3)), np.ones(1))] * 2, 2.0, 2.0,
                             mc_directions(4, 4, 0)),
     "dimension mismatch between clouds and directions"),
], ids=["kinds", "radial-dim", "radial-unit", "circle-center", "circle-radius", "cloud-dim"])
def test_refuses_malformed_input(make, message):
    with pytest.raises(MeasureError) as info:
        make()
    assert str(info.value) == message
