"""Distribution, sampling, moment, and enumeration-oracle tests.

Expected values tagged with hand-derivable formulas are frozen as literals;
statistical checks use seeded draws with explicit confidence bands.
"""

from dataclasses import fields

import numpy as np
import pytest

from redge.categorical import (
    FactorizedCategorical,
    enumerate_onehots,
    exact_gradient,
    inverse_cdf,
    joint_probability,
    onehot_from_indices,
    onehot_rows,
    sample,
    sample_onehot_rows,
)
from redge.estimators import EstimatorConfig, covariance_apply, estimate_for_sample

REINFORCE = EstimatorConfig(kind="reinforce")


def linear_f(c):
    c = np.asarray(c, dtype=np.float64)
    return lambda x: x.dot(c)


class TestProbs:
    def test_uniform(self):
        dist = FactorizedCategorical([[0.0, 0.0]])
        np.testing.assert_allclose(dist.probs, [[0.5, 0.5]])

    def test_log_two(self):
        dist = FactorizedCategorical([[np.log(2.0), 0.0]])
        np.testing.assert_allclose(dist.probs, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_factorize(self):
        rows = np.array([[0.3, -1.2, 0.8], [2.0, 0.0, -0.5]])
        dist = FactorizedCategorical(rows)
        for i in range(2):
            single = FactorizedCategorical(rows[i: i + 1])
            np.testing.assert_array_equal(dist.probs[i], single.probs[0])


class TestSampling:
    def test_near_degenerate_row(self):
        dist = FactorizedCategorical([[40.0, 0.0]])
        rng = np.random.default_rng(0)
        hits = sum(sample(dist, rng).indices[0] == 0 for _ in range(10_000))
        assert hits / 10_000 >= 0.999

    def test_uniform_frequency(self):
        dist = FactorizedCategorical([[0.0, 0.0]])
        rng = np.random.default_rng(1)
        draws = sample(FactorizedCategorical(np.tile(dist.logits, (100_000, 1))), rng).indices
        freq = (draws == 0).mean()
        assert 0.48 <= freq <= 0.52

    def test_deterministic_given_seed(self):
        dist = FactorizedCategorical(np.random.default_rng(3).normal(size=(4, 3)))
        a = [sample(dist, np.random.default_rng(42)).indices.tolist() for _ in range(5)]
        b = [sample(dist, np.random.default_rng(42)).indices.tolist() for _ in range(5)]
        assert a == b

    def test_stacked_inverse_cdf_is_the_tiled_draw(self):
        # Uniforms for `draws` stacked copies are the stream of one draw from
        # the tiled probabilities, so the indices agree exactly.
        p = FactorizedCategorical(np.random.default_rng(4).normal(size=(5, 3))).probs
        tiled = sample_onehot_rows(np.tile(p, (7, 1)), np.random.default_rng(8)).indices
        stacked = inverse_cdf(p, np.random.default_rng(8), (7,))
        assert stacked.shape == (7, 5)
        np.testing.assert_array_equal(stacked.ravel(), tiled)

    def test_zero_probability_category_is_never_drawn(self):
        rows = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        indices = inverse_cdf(rows, np.random.default_rng(2), (20_000,))
        assert set(indices[:, 0]) == {0, 2}
        assert np.all(indices[:, 1] == 1)
        binary = inverse_cdf(np.array([[0.0, 1.0], [1.0, 0.0]]), np.random.default_rng(3),
                             (20_000,))
        assert np.all(binary == [1, 0])

    def test_index_stays_below_k_where_a_row_sums_below_one(self):
        # A softmax row whose running sum rounds to 1 - 2^-53, drawn with
        # the largest uniform: all K sums are <= u, yet only K-1 are
        # compared, so the draw is the last category, not K.
        class LargestUniform:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        row = np.array([[0.35465483324983066, 0.18690033847697232, 0.4584448282731969]])
        assert row[0, 0] + row[0, 1] + row[0, 2] == np.nextafter(1.0, 0.0)
        assert sample_onehot_rows(row, LargestUniform()).indices.tolist() == [2]
        assert inverse_cdf(np.full((2, 3), 0.3), LargestUniform(), (4,)).max() == 2

    def test_single_category(self):
        hard = sample_onehot_rows(np.ones((4, 1)), np.random.default_rng(7))
        np.testing.assert_array_equal(hard.indices, np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(hard.onehot, np.ones((4, 1)))

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, -np.inf])
    def test_rejects_negative_or_non_finite_entries(self, bad):
        # log-weights passed by mistake fail instead of drawing from the wrong law
        rows = np.array([[0.5, 0.5], [0.2, 0.8]])
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample_onehot_rows(rows, np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample_onehot_rows(np.log([[0.5, 0.5]]), np.random.default_rng(0))

    def test_empirical_tv_bound(self):
        # TV(empirical, probs) <= 3 sqrt(K/N) per row at N = 1e5
        rng = np.random.default_rng(9)
        dist = FactorizedCategorical(rng.normal(size=(2, 4)))
        n = 100_000
        # one call on n stacked copies consumes the stream as n single calls
        tiled = FactorizedCategorical(np.tile(dist.logits, (n, 1)))
        indices = sample(tiled, np.random.default_rng(10)).indices.reshape(n, 2)
        counts = np.stack([np.bincount(indices[:, i], minlength=4) for i in range(2)])
        tv = 0.5 * np.abs(counts / n - dist.probs).sum(axis=1)
        assert np.all(tv <= 3.0 * np.sqrt(4 / n))


def row_covariance(p):
    """Cov(p) = diag(p) - p p^T of one categorical row, as the matrix whose
    columns ``covariance_apply`` gives for the unit vectors."""
    p = np.asarray(p, dtype=np.float64)[None, :]
    return covariance_apply(p, np.eye(p.shape[1])[:, None, :])[:, 0, :]


class TestRowCovariance:
    def test_half_half(self):
        np.testing.assert_allclose(
            row_covariance([0.5, 0.5]), [[0.25, -0.25], [-0.25, 0.25]])

    def test_degenerate(self):
        np.testing.assert_allclose(row_covariance([1.0, 0.0]), np.zeros((2, 2)), atol=1e-15)

    def test_two_thirds(self):
        np.testing.assert_allclose(
            row_covariance([2 / 3, 1 / 3]),
            [[2 / 9, -2 / 9], [-2 / 9, 2 / 9]], atol=1e-15)

    def test_rows_sum_zero_and_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            cov = row_covariance(p)
            np.testing.assert_allclose(cov @ np.ones(5), 0.0, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() >= -1e-12


class TestExactGradient:
    def test_two_outcome_example(self):
        dist = FactorizedCategorical([[0.0, 0.0]])
        grad = exact_gradient(dist, linear_f([[0.0, 1.0]]))
        np.testing.assert_allclose(grad, [[-0.25, 0.25]], atol=1e-15)

    def test_constant_function_zero(self):
        dist = FactorizedCategorical(np.random.default_rng(2).normal(size=(2, 3)))
        grad = exact_gradient(dist, lambda x: x.tape.constant([[4.2]]))
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_separable_rows_concatenate(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2))
        full = exact_gradient(FactorizedCategorical(logits), linear_f(c))
        for i in range(2):
            row = exact_gradient(FactorizedCategorical(logits[i: i + 1]),
                                 linear_f(c[i: i + 1]))
            np.testing.assert_allclose(full[i: i + 1], row, atol=1e-12)

    def test_cap_enforced(self):
        dist = FactorizedCategorical(np.zeros((8, 4)))
        with pytest.raises(ValueError):
            exact_gradient(dist, linear_f(np.zeros((8, 4))), cap=1000)


class TestScoreIdentity:
    def test_reinforce_mean_matches_exact(self):
        # For all small instances, the enumerated mean of the score-function
        # estimate equals the enumeration gradient.
        rng = np.random.default_rng(6)
        for _ in range(50):
            length = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            dist = FactorizedCategorical(rng.normal(size=(length, k)))
            f = linear_f(rng.normal(size=(length, k)))
            exact = exact_gradient(dist, f)
            mean_grad = np.zeros_like(exact)
            for s in enumerate_onehots(length, k):
                est = estimate_for_sample(dist, f, REINFORCE, s)
                mean_grad += joint_probability(dist, s) * est.grad
            np.testing.assert_allclose(mean_grad, exact, atol=1e-10)

    def test_constant_f_zero_mean(self):
        dist = FactorizedCategorical([[0.4, -0.2, 0.1]])
        f = lambda x: x.tape.constant([[2.0]])
        mean_grad = np.zeros((1, 3))
        for s in enumerate_onehots(1, 3):
            mean_grad += joint_probability(dist, s) * estimate_for_sample(dist, f, REINFORCE, s).grad
        np.testing.assert_allclose(mean_grad, 0.0, atol=1e-14)

    def test_baseline_leaves_mean_unchanged(self):
        rng = np.random.default_rng(7)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = linear_f(rng.normal(size=(2, 3)))
        with_b = np.zeros((2, 3))
        without_b = np.zeros((2, 3))
        for s in enumerate_onehots(2, 3):
            w = joint_probability(dist, s)
            without_b += w * estimate_for_sample(dist, f, REINFORCE, s).grad
            with_b += w * estimate_for_sample(dist, f, EstimatorConfig(kind="reinforce", baseline=1.7), s).grad
        np.testing.assert_allclose(with_b, without_b, atol=1e-12)


def test_onehot_invariants():
    s = onehot_from_indices([2, 0], 3)
    assert s.onehot.shape == (2, 3)
    np.testing.assert_array_equal(s.onehot.sum(axis=1), [1.0, 1.0])
    np.testing.assert_array_equal(s.onehot[0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        onehot_from_indices([3], 3)
    with pytest.raises(ValueError):
        onehot_from_indices([0, -1], 3)


class TestOneHotSample:
    def test_holds_indices_and_categories_only(self):
        s = onehot_from_indices([4, 0, 2, 2], 5)
        assert {f.name for f in fields(s)} == {"indices", "categories"}
        assert s.categories == 5 and s.indices.dtype == np.int64

    def test_onehot_is_identity_rows_and_read_only(self):
        indices = np.random.default_rng(3).integers(0, 7, size=50)
        onehot = onehot_from_indices(indices, 7).onehot
        assert onehot.dtype == np.float64
        np.testing.assert_array_equal(onehot, np.eye(7)[indices])
        assert not onehot.flags.writeable
        with pytest.raises(ValueError):
            onehot[0, 0] = 2.0

    def test_onehot_rows_keeps_leading_axes(self):
        indices = np.array([[0, 2], [1, 1], [2, 0]])
        np.testing.assert_array_equal(onehot_rows(indices, 3), np.eye(3)[indices])

    def test_enumeration_yields_samples_in_row_major_order(self):
        got = [s.indices.tolist() for s in enumerate_onehots(2, 2)]
        assert got == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert all(s.categories == 2 for s in enumerate_onehots(2, 2))


class TestReadOnlyDistribution:
    def test_logits_and_probs_reject_writes(self):
        dist = FactorizedCategorical(np.zeros((2, 3)))
        for arr in (dist.logits, dist.probs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_read_only_owned_logits_are_shared_writable_ones_copied(self):
        logits = np.arange(6.0).reshape(2, 3)
        dist = FactorizedCategorical(logits)
        assert not np.shares_memory(dist.logits, logits)
        logits[0, 0] = 9.0   # the caller's array stays its own
        assert dist.logits[0, 0] == 0.0
        frozen = np.arange(6.0).reshape(2, 3).copy()   # owned, not a view
        frozen.flags.writeable = False
        assert FactorizedCategorical(frozen).logits is frozen
