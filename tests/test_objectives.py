"""Benchmark objectives against brute-force oracles: the GMM negative ELBO by
enumerating every assignment, the polynomial-programming loss at vertices;
each benchmark's two forms (the tape objective an estimator differentiates,
the array form the traces score) agreeing at hard samples; and every gradient
an estimator or the runner takes from an objective against central
differences at interior soft points."""

from itertools import product

import numpy as np
import pytest

from redge.benchmarks import gmm
from redge.benchmarks.polyprog import PolyProgProblem, exact_polyprog_loss, polyprog_loss
from redge.benchmarks.sudoku import SudokuBatch, generate_puzzles, penalty_batch
from redge.categorical import FactorizedCategorical, sample
from redge.estimators import eval_objective
from redge.tensor import Tape, finite_diff_gradient, stable_softmax


def normal_logpdf(x, mean, sd):
    """Elementwise log-density of N(mean, sd^2)."""
    return -0.5 * np.log(2.0 * np.pi * sd**2) - (x - mean) ** 2 / (2.0 * sd**2)


def test_gmm_objective_matches_assignment_enumeration():
    # E_q[log q(z) - log p(y | m, z) - log p(z)] - log p(m), summed over all
    # K^N assignments z of a tiny mixture, each weighted by q(z).
    problem = gmm.gmm_generate(5, size=3, components=3)
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((3, 3))
    mhat = problem.true_means + rng.standard_normal((3, 2))
    y, k = problem.data, problem.components
    q = stable_softmax(logits)
    # -log p(y_i | m_j) for every observation i and component j
    cost = -normal_logpdf(y[:, None, :], mhat[None, :, :], problem.sigma_y).sum(axis=-1)
    want = 0.0
    for z in product(range(k), repeat=problem.size):
        rows = np.arange(problem.size)
        weight = np.prod(q[rows, z])
        want += weight * (np.log(q[rows, z]) + np.log(k) + cost[rows, z]).sum()
    want -= normal_logpdf(mhat, 0.0, problem.sigma0).sum()

    got = gmm.exact_objective_value(logits, mhat, problem)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("problem", [PolyProgProblem(length=6),
                                     PolyProgProblem(length=6, target=0.3, exponent=3.0),
                                     PolyProgProblem(length=6, relaxation="linear")])
def test_exact_polyprog_loss_at_vertices(problem):
    c, p = problem.target, problem.exponent
    first = np.tile([1.0, 0.0], (problem.length, 1))
    second = first[:, ::-1]
    mixed = np.where(np.arange(problem.length)[:, None] % 2 == 0, first, second)
    assert exact_polyprog_loss(first, problem) == pytest.approx(c**p, rel=1e-15)
    assert exact_polyprog_loss(second, problem) == pytest.approx((1.0 - c) ** p, rel=1e-15)
    assert exact_polyprog_loss(mixed, problem) == pytest.approx(
        0.5 * (c**p + (1.0 - c) ** p), rel=1e-15)


def hard_sample(length, categories, seed):
    rng = np.random.default_rng(seed)
    return sample(FactorizedCategorical(rng.standard_normal((length, categories))), rng)


@pytest.mark.parametrize("relaxation", ["power", "linear"])
def test_polyprog_forms_agree_at_hard_samples(relaxation):
    problem = PolyProgProblem(length=12, target=0.3, exponent=3.0, relaxation=relaxation)
    for seed in range(5):
        x = hard_sample(problem.length, 2, seed).onehot
        # both scale the row sum by 1/L, so they agree to the last bit
        assert polyprog_loss(Tape().constant(x), problem).value[0, 0] == \
            exact_polyprog_loss(x, problem)


def test_sudoku_forms_agree_at_hard_samples():
    batch = SudokuBatch(generate_puzzles(3, 5))
    for seed in range(3):
        x = hard_sample(batch.total_free, 9, seed).onehot
        assert batch.objective(Tape().constant(x)).value[0, 0] == \
            penalty_batch(batch.grids_from_free(x)).sum()


def test_gmm_likelihood_term_picks_likelihood_cost_entries():
    problem = gmm.gmm_generate(2, size=60, components=7)
    rng = np.random.default_rng(3)
    mhat = problem.true_means + rng.standard_normal(problem.true_means.shape)
    cost = gmm.likelihood_cost(mhat, problem)
    for seed in range(3):
        hard = hard_sample(problem.size, problem.components, seed)
        got = gmm.likelihood_term(Tape().constant(hard.onehot), mhat, problem).value[0, 0]
        want = cost[np.arange(problem.size), hard.indices].sum()
        assert got == pytest.approx(want, rel=1e-12)


def soft_point(length, categories, seed):
    """A point inside the simplex in every row."""
    return stable_softmax(np.random.default_rng(seed).standard_normal((length, categories)))


def tape_value(f, x):
    return f(Tape().constant(x)).value[0, 0]


def test_sudoku_node_gradient_matches_central_differences():
    batch = SudokuBatch(generate_puzzles(2, 5))
    x = soft_point(batch.total_free, 9, 1)
    value, grad, _ = eval_objective(batch.objective, x)
    assert value == pytest.approx(penalty_batch(batch.grids_from_free(x)).sum(), rel=1e-12)
    want = finite_diff_gradient(lambda z: tape_value(batch.objective, z), x)
    np.testing.assert_allclose(grad, want, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("relaxation", ["power", "linear"])
def test_polyprog_gradient_matches_central_differences(relaxation):
    problem = PolyProgProblem(length=5, target=0.3, exponent=3.0, relaxation=relaxation)
    # x2 in [0.4, 0.9], away from the kink of |x2 - c| at the target c = 0.3
    x2 = np.random.default_rng(4).uniform(0.4, 0.9, problem.length)
    x = np.stack([1.0 - x2, x2], axis=1)
    _, grad, _ = eval_objective(lambda z: polyprog_loss(z, problem), x)
    want = finite_diff_gradient(lambda z: tape_value(lambda n: polyprog_loss(n, problem), z), x)
    np.testing.assert_allclose(grad, want, rtol=1e-7, atol=1e-10)


def test_gmm_likelihood_gradients_match_central_differences():
    problem = gmm.gmm_generate(7, size=6, components=3)
    x = soft_point(problem.size, problem.components, 2)
    mhat = problem.true_means + np.random.default_rng(8).standard_normal((3, 2))
    _, grad_x, aux = eval_objective(lambda z: gmm.likelihood_term(z, mhat, problem), x)
    want_x = finite_diff_gradient(
        lambda z: tape_value(lambda n: gmm.likelihood_term(n, mhat, problem), z), x)
    np.testing.assert_allclose(grad_x, want_x, rtol=1e-7, atol=1e-7)
    want_m = finite_diff_gradient(
        lambda m: tape_value(lambda n: gmm.likelihood_term(n, m, problem), x), mhat)
    np.testing.assert_allclose(aux["mhat"], want_m, rtol=1e-7, atol=1e-7)


def test_gmm_entropy_prior_gradient_matches_central_differences():
    problem = gmm.gmm_generate(7, size=5, components=4)
    logits = np.random.default_rng(9).standard_normal((5, 4))
    want = finite_diff_gradient(
        lambda z: tape_value(lambda n: gmm.entropy_prior_term(n, problem), z), logits)
    np.testing.assert_allclose(gmm.entropy_prior_gradient(logits, problem), want,
                               rtol=1e-7, atol=1e-9)


def test_polyprog_rejects_an_empty_problem():
    with pytest.raises(ValueError, match="length must be at least 1, got 0"):
        PolyProgProblem(length=0)
