"""Distribution, sampling, moment, and enumeration-oracle tests.

Expected values tagged with hand-derivable formulas are frozen as literals;
statistical checks use seeded draws with explicit confidence bands.
"""

import numpy as np
import pytest

from redge.categorical import (
    FactorizedCategorical,
    enumerate_onehots,
    exact_gradient,
    joint_probability,
    mean,
    mixture_covariance_halfhalf,
    onehot_from_indices,
    row_covariance,
    sample,
)
from redge.estimators import EstimatorConfig, estimate_for_sample

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

    def test_mean_is_probs(self):
        dist = FactorizedCategorical([[1.0, -2.0, 0.3]])
        np.testing.assert_array_equal(mean(dist), dist.probs)


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

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            row_covariance([0.5, 0.6])

    def test_rows_sum_zero_and_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            cov = row_covariance(p)
            np.testing.assert_allclose(cov @ np.ones(5), 0.0, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() >= -1e-12


class TestMixtureCovariance:
    def test_frozen_example(self):
        got = mixture_covariance_halfhalf([0.5, 0.5], [1.0, 0.0])
        np.testing.assert_allclose(
            got, [[0.1875, -0.1875], [-0.1875, 0.1875]], atol=1e-15)

    def test_degenerate_atom(self):
        got = mixture_covariance_halfhalf([1.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(got, np.zeros((2, 2)), atol=1e-15)

    def test_matches_direct_enumeration(self):
        # Brute-force covariance of the explicit even mixture over K outcomes.
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            x = np.zeros(k)
            x[rng.integers(k)] = 1.0
            q = 0.5 * (p + x)
            direct = np.diag(q) - np.outer(q, q)
            np.testing.assert_allclose(
                mixture_covariance_halfhalf(p, x), direct, atol=1e-12)


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
