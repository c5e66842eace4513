import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

import swgeo.sphere
from swgeo.measure1d import MeasureError
from swgeo.sphere import DirectionSet, beta_directions, c_dq, mc_directions


def c_exact(d: int, q: float) -> float:
    """Independent oracle: moments of s follow from the Beta(3/2,(d-3)/2)
    law of s^2, so E s^q = B((3+q)/2,(d-3)/2) / B(3/2,(d-3)/2)."""
    if d == 3 or math.isinf(q):
        return 1.0
    return float((beta_fn((3 + q) / 2, (d - 3) / 2)
                  / beta_fn(1.5, (d - 3) / 2)) ** (1 / q))


class TestMcDirections:
    def test_unit_norms(self):
        ds = mc_directions(2, 10, seed=1)
        np.testing.assert_allclose(np.linalg.norm(ds.thetas, axis=1), 1.0,
                                   atol=1e-12)

    def test_d3_projection_is_trivial(self):
        ds = mc_directions(3, 1000, seed=2)
        np.testing.assert_allclose(ds.s_values(), 1.0, atol=1e-12)

    def test_d4_second_moment(self):
        n = 100_000
        ds = mc_directions(4, n, seed=3)
        s2 = ds.s_values() ** 2
        # s^2 ~ Beta(3/2, 1/2): mean 3/4, var 3/64
        se = math.sqrt(3.0 / 64.0 / n)
        assert abs(s2.mean() - 0.75) < 4 * se

    def test_deterministic(self):
        a = mc_directions(5, 64, seed=11)
        b = mc_directions(5, 64, seed=11)
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_weights_sum_to_one(self):
        ds = mc_directions(4, 12345, seed=0)
        assert abs(ds.weights.sum() - 1.0) <= 1e-12

    def test_rejects_negative_seed(self):
        with pytest.raises(MeasureError, match="seed must be >= 0, got -3"):
            mc_directions(3, 8, seed=np.int64(-3))
        # numpy raised a bare TypeError for 2.5 and 2.0; None drew an
        # unreproducible set labelled seed=None
        for seed in (2.5, 2.0, None):
            with pytest.raises(MeasureError, match=f"seed must be an integer, got {seed}"):
                mc_directions(3, 4, seed)

    def test_rejects_non_integral_count_and_dimension(self):
        # int() truncated these: 2.5 directions gave 2
        with pytest.raises(MeasureError, match="node count must be an integer, got 2.5"):
            mc_directions(3, 2.5, 0)
        with pytest.raises(MeasureError, match="dimension must be an integer, got 3.5"):
            mc_directions(3.5, 2, 0)
        assert mc_directions(np.int64(3), np.int32(2), 0).thetas.shape == (2, 3)


class TestDirectionSetValidation:
    def test_rejects_nan_node(self):
        thetas = np.eye(4)[:2].copy()
        thetas[1, 0] = np.nan
        with pytest.raises(MeasureError, match="finite"):
            DirectionSet(4, thetas, np.array([0.5, 0.5]))

    def test_rejects_nan_weight(self):
        with pytest.raises(MeasureError, match="finite"):
            DirectionSet(4, np.eye(4)[:2], np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("thetas,weights,match", [
        (np.eye(4)[0], [1.0], r"thetas must be an \(n, d\) array"),
        (np.eye(3)[:2], [0.5, 0.5], r"thetas must be an \(n, d\) array"),
        (np.eye(4)[:2], [0.5, 0.25, 0.25], "weights must parallel the node list"),
        (np.eye(4)[:2], [1.5, -0.5], "node weights must be positive"),
        (np.eye(4)[:2], [0.5, 0.5 + 1e-9], "node weights must sum to 1 within 1e-12"),
        (np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8 + 1e-9, 0.0, 0.0]]), [0.5, 0.5],
         "all nodes must be unit vectors within 1e-12"),
    ], ids=["thetas-1d", "thetas-wrong-dim", "weights-shape", "weight-non-positive",
            "weight-sum", "non-unit-node"])
    def test_rejects_malformed_set(self, thetas, weights, match):
        with pytest.raises(MeasureError, match=match):
            DirectionSet(4, thetas, np.array(weights))


class TestBetaDirections:
    def test_d3_degenerates_to_single_node(self):
        ds = beta_directions(3, 64)
        assert ds.n == 1
        np.testing.assert_array_equal(ds.thetas, [[1.0, 0.0, 0.0]])

    def test_nodes_are_unit(self):
        ds = beta_directions(6, 48)
        np.testing.assert_allclose(np.linalg.norm(ds.thetas, axis=1), 1.0,
                                   atol=1e-12)
        assert abs(ds.weights.sum() - 1.0) <= 1e-12

    def test_rejects_low_dimension(self):
        with pytest.raises(MeasureError):
            beta_directions(2, 16)

    def test_rejects_non_integral_count_and_dimension(self):
        with pytest.raises(MeasureError, match="node count must be an integer, got 2.5"):
            beta_directions(4, 2.5)
        with pytest.raises(MeasureError, match="dimension must be an integer, got 4.0"):
            beta_directions(4.0, 2)
        with pytest.raises(MeasureError, match="dimension must be an integer, got 4.5"):
            c_dq(4.5, 2.0)
        assert beta_directions(np.int64(4), np.int64(2)).thetas.shape == (2, 4)


class TestCdq:
    def test_d3_exactly_one(self):
        for q in (1.0, 2.0, 7.5):
            assert c_dq(3, q) == 1.0

    def test_q_infinity_exactly_one(self):
        for d in (3, 4, 9):
            assert c_dq(d, math.inf) == 1.0

    def test_d4_q2_value(self):
        got = c_dq(4, 2.0, method="beta", n=64)
        assert got == pytest.approx(math.sqrt(0.75), abs=1e-9)
        assert got == pytest.approx(c_exact(4, 2.0), abs=1e-9)

    @pytest.mark.parametrize("d,q", [(4, 1.0), (5, 2.0), (7, 3.5), (9, 1.0)])
    def test_beta_matches_moment_identity(self, d, q):
        assert c_dq(d, q, method="beta", n=96) == pytest.approx(
            c_exact(d, q), rel=1e-9)

    def test_bounds(self):
        for d in (4, 5, 8):
            for q in (1.0, 2.0, 4.0):
                val = c_dq(d, q)
                assert 0.0 < val <= 1.0

    def test_nondecreasing_in_q(self):
        for d in (4, 6):
            vals = [c_dq(d, q) for q in (1.0, 2.0, 4.0)] + [c_dq(d, math.inf)]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_mc_agrees_within_four_standard_errors(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            d = int(rng.choice([4, 5, 7]))
            q = float(rng.choice([1.0, 2.0, 3.0]))
            n = 50_000
            ds = mc_directions(d, n, seed=int(rng.integers(1 << 30)))
            sq = ds.s_values() ** q
            se = sq.std(ddof=1) / math.sqrt(n)
            mean = sq.mean()
            # delta method for the q-th root
            se_root = se * mean ** (1 / q - 1) / q
            assert abs(mean ** (1 / q) - c_exact(d, q)) < 4 * se_root + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(MeasureError):
            c_dq(2, 2.0)
        with pytest.raises(MeasureError):
            c_dq(4, 0.5)
        with pytest.raises(MeasureError, match="q must be >= 1"):
            c_dq(4, math.nan)
        with pytest.raises(MeasureError, match="mc method needs a seed"):
            c_dq(4, 2.0, method="mc")
        with pytest.raises(MeasureError, match="seed must be an integer, got 1.5"):
            c_dq(4, 2, method="mc", seed=1.5)

    @pytest.mark.parametrize("d,q", [(3, 2.0), (4, math.inf), (3, math.inf)])
    def test_exact_cases_check_their_arguments(self, d, q, monkeypatch):
        # the value is exactly 1 here, but the arguments are refused as for
        # d = 4, q = 2, and no direction is drawn
        def refuse(*args):
            raise AssertionError("directions drawn")

        monkeypatch.setattr(swgeo.sphere, "mc_directions", refuse)
        monkeypatch.setattr(swgeo.sphere, "beta_directions", refuse)
        with pytest.raises(MeasureError, match="unknown method 'bogus'"):
            c_dq(d, q, method="bogus")
        with pytest.raises(MeasureError, match="mc method needs a seed"):
            c_dq(d, q, method="mc")
        with pytest.raises(MeasureError, match="seed must be an integer, got 1.5"):
            c_dq(d, q, method="mc", seed=1.5)
        with pytest.raises(MeasureError, match="seed must be >= 0, got -1"):
            c_dq(d, q, method="mc", seed=-1)
        for method in ("beta", "mc"):
            with pytest.raises(MeasureError, match="node count must be >= 1"):
                c_dq(d, q, method=method, n=0, seed=1)
            with pytest.raises(MeasureError, match="node count must be an integer, got 2.5"):
                c_dq(d, q, method=method, n=2.5, seed=1)
            assert c_dq(d, q, method=method, n=1, seed=1) == 1.0


@pytest.mark.parametrize("make,message", [
    (lambda: mc_directions(2, 4, 0).s_values(), "s(theta) needs ambient dimension >= 3"),
    (lambda: mc_directions(1, 4, 0), "dimension must be >= 2"),
], ids=["s-dim", "mc-dim"])
def test_refuses_malformed_input(make, message):
    with pytest.raises(MeasureError) as info:
        make()
    assert str(info.value) == message
