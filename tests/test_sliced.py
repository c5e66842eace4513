import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import swgeo.sliced
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
    _sup_directions,
    empirical_w1d,
    sample_shell,
    sliced_geodesic_deviation,
    sw_per_direction,
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


def oracle_directions(a, b, q, dirs):
    return _sup_directions(a, b, dirs) if math.isinf(q) else dirs.thetas


def loop_oracle(a, b, p, q, dirs):
    """sw_pq by the per-direction path: one projection -> wasserstein_p
    chain per direction, over the same direction (or sup candidate) set,
    and the same q-mean."""
    vals = np.array([sw_per_direction(a, b, p, th)
                     for th in oracle_directions(a, b, q, dirs)])
    return swgeo.sliced._qmean(vals, dirs.weights, q)


def support_radius(*mixtures):
    return max(float(np.linalg.norm(c)) + r for m in mixtures for _, r, c in m.components)


@st.composite
def shell_mixture(draw, d):
    """1-4 components: free centers, or a center placed so that the shell
    is concentric with, or touches from outside or inside, the previous
    one.  Radii are 0, below the atom threshold, or at least 1e-3: in
    between, both paths lose digits to the cancellation in
    transport1d._segment_lp on narrow projected shells, and they can differ
    by more than the 1e-12 bound.  Center coordinates are 0 or at least
    1e-3 in size, since sw_pq takes centers within 1e-14 of the origin as
    centered."""
    coord = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
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
    @given(pair=shell_pair(), seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
           q=st.sampled_from([1.0, 2.0, math.inf]))
    def test_matches_per_direction_oracle(self, pair, seed, p, q):
        a, b = pair
        dirs = directions_with_tiny_s(a.dim, seed)
        want = loop_oracle(a, b, p, q, dirs)
        got = sw_pq(a, b, p, q, dirs)
        # the oracle merges atoms closer than 1e-14 max(1, |x|), hence the
        # floor of 1 on the scale
        assert abs(got - want) <= 1e-12 * max(want, support_radius(a, b), 1.0)

    def test_off_center_path_skips_per_direction_projection(self, monkeypatch):
        curve = transformed_nu_curve(0.5, [0.2, 0.1, 0.0], 4, 1.5,
                                     [0.0, 0.3, 0.0, 0.2], [0.1, 0.0, 0.0, 0.0])
        a, b = curve(0.25), curve(1.0)
        dirs = mc_directions(4, 32, seed=5)
        want = {q: loop_oracle(a, b, 2.0, q, dirs) for q in (2.0, math.inf)}

        def refuse(*args):
            raise AssertionError("radon_project called")

        monkeypatch.setattr(swgeo.sliced, "radon_project", refuse)
        for q, value in want.items():
            assert sw_pq(a, b, 2.0, q, dirs) == pytest.approx(value, rel=1e-12)
        with pytest.raises(AssertionError, match="radon_project called"):
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
        calls = []
        one = swgeo.sliced.sw_per_direction
        monkeypatch.setattr(swgeo.sliced, "sw_per_direction",
                            lambda *args: calls.append(args) or one(*args))
        c0, ct = circle_family(0.0), circle_family(0.3)
        for q in (1.0, 2.0, math.inf):
            got = sw_pq(ct, c0, math.inf, q, mc_directions(2, 16, seed=4))
            assert got == pytest.approx(math.sin(0.15 * math.pi), rel=1e-15)
        assert len(calls) == 3

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

        def refuse(*args):
            raise AssertionError("per-direction path taken")

        for name in ("circle_project", "wasserstein_p", "wasserstein_inf"):
            monkeypatch.setattr(swgeo.sliced, name, refuse)
        for (p, q), value in want.items():
            assert sw_pq(a, b, p, q, dirs) == value


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


def atoms_oracle(X, Y, p, q, dirs):
    """The q-mean of the exact wasserstein_p between the projected atoms,
    one Measure1D per cloud and direction."""
    vals = np.array([
        wasserstein_p(Measure1D.from_components(atoms=zip(X.points @ theta, X.weights)),
                      Measure1D.from_components(atoms=zip(Y.points @ theta, Y.weights)), p)
        for theta in dirs.thetas])
    return float(vals.max() if math.isinf(q) else np.dot(dirs.weights, vals ** q) ** (1 / q))


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
        # the oracle merges atoms closer than 1e-14 max(1, |x|)
        scale = max(1.0, np.abs(X.points).max(), np.abs(Y.points).max()) * math.sqrt(d)
        assert abs(got - want) <= 1e-12 * want + 1e-14 * scale

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


class TestSampleShell:
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
        rng = np.random.default_rng(77)
        for _ in range(5):
            d = int(rng.choice([3, 4]))
            alpha = rng.uniform(0.1, 0.9)
            x = rng.normal(size=3)
            x *= rng.uniform(0, 1) / np.linalg.norm(x)
            curve = transformed_nu_curve(alpha, x, d, rng.uniform(-2, 2) or 1.0,
                                         rng.normal(size=d), rng.normal(size=d))
            dev = sliced_geodesic_deviation(curve, 2.0, 2.0,
                                            beta_directions(d, 24), self.GRID)
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
