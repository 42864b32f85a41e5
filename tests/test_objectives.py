"""Benchmark objectives against brute-force oracles: the GMM negative ELBO by
enumerating every assignment, the polynomial-programming loss at vertices;
each benchmark's two forms (the tape objective an estimator differentiates,
the array form the traces score) agreeing at hard samples; and every gradient
an estimator or the runner takes from an objective against central
differences at interior soft points; the closed-form polyprog and Sudoku nodes
against the forms they replaced (the tape composition, the assembled grids);
and the GMM clustering accuracy against the maximum over every label
permutation."""

from itertools import permutations, product

import numpy as np
import pytest

from redge.benchmarks import gmm
from redge.benchmarks.polyprog import PolyProgProblem, exact_polyprog_loss, polyprog_loss
from redge.benchmarks.sudoku import (
    DIGITS,
    GRID_CELLS,
    SudokuBatch,
    generate_puzzles,
    group_sums,
    penalty_batch,
)
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

    got = gmm.exact_objective_value(FactorizedCategorical(logits), mhat, problem)
    assert got == pytest.approx(want, rel=1e-12)


def test_gmm_objective_rejects_an_underflowed_probability():
    # Two tied maxima halve the smallest subnormal exp(-745) to exactly 0.
    problem = gmm.gmm_generate(5, size=3, components=3)
    logits = np.array([[0.0, 0.0, -1000.0], [0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="underflowed to 0"):
        gmm.exact_objective_value(FactorizedCategorical(logits), problem.true_means, problem)


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


def polyprog_tape_loss(x, problem):
    """The polyprog objective composed from tape operations, the form the
    closed-form node replaced."""
    if problem.relaxation == "power":
        per_row = (x @ np.array([[0.0], [1.0]]) - problem.target).abs().pow(problem.exponent)
    else:
        per_row = x @ np.array([problem.vertex_values()]).T
    return per_row.sum() * (1.0 / x.shape[0])


@pytest.mark.parametrize("problem", [PolyProgProblem(length=12, target=0.3, exponent=3.0),
                                     PolyProgProblem(length=9, target=0.45, exponent=1.5),
                                     PolyProgProblem(length=12, target=0.3, exponent=3.0,
                                                     relaxation="linear")])
def test_polyprog_node_matches_its_tape_composition(problem):
    def both(x):
        return (eval_objective(lambda z: polyprog_loss(z, problem), x)[:2],
                eval_objective(lambda z: polyprog_tape_loss(z, problem), x)[:2])

    for seed in range(5):
        (value, grad), (want_value, want_grad) = both(hard_sample(problem.length, 2, seed).onehot)
        assert value == want_value
        np.testing.assert_array_equal(grad, want_grad)
        (value, grad), (want_value, want_grad) = both(soft_point(problem.length, 2, seed))
        assert value == pytest.approx(want_value, rel=1e-14)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("relaxation", ["power", "linear"])
def test_polyprog_loss_rejects_rows_of_another_width(relaxation):
    problem = PolyProgProblem(length=4, relaxation=relaxation)
    with pytest.raises(ValueError, match="L x 2 rows"):
        eval_objective(lambda z: polyprog_loss(z, problem), np.full((4, 3), 1.0 / 3.0))


def grid_adjoint(g):
    """Adjoint of ``group_sums`` for (P, 27, 9) cotangents, written on the
    grid's (row, column) axes: every cell gets its row, column and block
    entries, added in that order."""
    lead = g.shape[0]
    out = np.zeros((lead, 9, 9, DIGITS))
    out += g[:, 0:9, None, :]
    out += g[:, None, 9:18, :]
    blocks = out.reshape(lead, 3, 3, 3, 3, DIGITS)      # (block row, r, block column, c)
    blocks += g[:, 18:27].reshape(lead, 3, 1, 3, 1, DIGITS)
    return out.reshape(lead, GRID_CELLS, DIGITS)


def sudoku_grid_form(batch, x):
    """Penalty and gradient of the free rows x from the assembled grids."""
    grids = batch.grids_from_free(x)
    grad = grid_adjoint(2.0 * (group_sums(grids) - 1.0)).reshape(-1, DIGITS)
    return penalty_batch(grids).sum(), grad[batch.scatter_index]


def test_sudoku_forms_agree_at_hard_samples():
    # Every count is an exact integer at a hard sample, so the closed-form
    # node reproduces the grid form's value and gradient to the last bit.
    for puzzle_seed in (5, 6, 7):
        batch = SudokuBatch(generate_puzzles(3, puzzle_seed))
        for seed in range(3):
            x = hard_sample(batch.total_free, 9, seed).onehot
            value, grad, _ = eval_objective(batch.objective, x)
            want_value, want_grad = sudoku_grid_form(batch, x)
            assert value == want_value
            np.testing.assert_array_equal(grad, want_grad)


def test_sudoku_forms_agree_at_soft_points():
    for puzzle_seed in (5, 6, 7):
        batch = SudokuBatch(generate_puzzles(3, puzzle_seed))
        for seed in range(3):
            x = soft_point(batch.total_free, 9, seed)
            value, grad, _ = eval_objective(batch.objective, x)
            want_value, want_grad = sudoku_grid_form(batch, x)
            assert value == pytest.approx(want_value, rel=1e-12)
            # relative to the gradient's norm: an excess near 0 cancels in
            # both forms, so single entries may differ by more
            assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)


@pytest.mark.parametrize("extra_rows, columns", [(-1, DIGITS), (1, DIGITS), (0, 3)])
def test_sudoku_objective_rejects_rows_of_another_shape(extra_rows, columns):
    batch = SudokuBatch(generate_puzzles(2, 5))
    shape = (batch.total_free + extra_rows, columns)
    with pytest.raises(ValueError, match="free-cell rows"):
        eval_objective(batch.objective, np.zeros(shape))


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
    np.testing.assert_allclose(
        gmm.entropy_prior_gradient(FactorizedCategorical(logits), problem), want,
        rtol=1e-7, atol=1e-9)


def test_gmm_entropy_prior_gradient_is_one_node_matching_its_tape_composition(monkeypatch):
    # The old tape composition of entropy_prior_term, kept as the oracle.
    rng = np.random.default_rng(41)
    for size, components, scale in ((5, 4, 1.0), (50, 20, 3.0), (7, 3, 30.0)):
        problem = gmm.gmm_generate(7, size=size, components=components)
        logits = scale * rng.standard_normal((size, components))
        tape = Tape()
        leaf = tape.lift(logits, requires_grad=True)
        tape.backward(gmm.entropy_prior_term(leaf, problem))
        got = gmm.entropy_prior_gradient(FactorizedCategorical(logits), problem)
        assert got.tobytes() == leaf.grad.tobytes()
    nodes = []
    real_backward = Tape.backward

    def counting(tape, output, seed=None):
        nodes.append(len(tape.nodes))
        return real_backward(tape, output, seed)

    monkeypatch.setattr(Tape, "backward", counting)
    gmm.entropy_prior_gradient(FactorizedCategorical(logits), problem)
    assert nodes == [2]   # the lifted logits and the one closed-form node


def test_gmm_entropy_prior_gradient_rejects_an_underflowed_probability():
    # Two tied maxima halve the smallest subnormal exp(-745) to exactly 0.
    problem = gmm.gmm_generate(7, size=2, components=3)
    dist = FactorizedCategorical(np.array([[0.0, -800.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="underflowed to 0"):
        gmm.entropy_prior_gradient(dist, problem)


def test_polyprog_rejects_an_empty_problem():
    with pytest.raises(ValueError, match="length must be at least 1, got 0"):
        PolyProgProblem(length=0)


def permutation_array(k):
    """(k!, k) array of every permutation of range(k)."""
    return np.array(list(permutations(range(k))), dtype=np.int64).reshape(-1, k)


def brute_force_accuracy(pred, true_z, k):
    """Best fraction of matches over all k! relabellings of the predictions."""
    return float((permutation_array(k)[:, pred] == true_z).mean(axis=1).max())


def test_clustering_accuracy_is_one_for_every_relabelling():
    true_z = np.array([0, 1, 2, 3, 3, 2, 1, 0, 2])
    for perm in permutations(range(4)):
        logits = 5.0 * np.eye(4)[np.asarray(perm)[true_z]]
        assert gmm.clustering_accuracy(logits, true_z) == 1.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_clustering_accuracy_matches_brute_force_over_permutations(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(10):
        size = int(rng.integers(1, 30))
        logits = rng.standard_normal((size, k))
        true_z = rng.integers(0, k, size=size)
        want = brute_force_accuracy(np.argmax(logits, axis=1), true_z, k)
        assert gmm.clustering_accuracy(logits, true_z) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_assignment_matches_brute_force_on_tie_heavy_weights(k):
    # Small-integer weights tie often; every optimum has the same total,
    # which must equal the maximum over all k! column orders.
    rng = np.random.default_rng(70 + k)
    perms, cols = permutation_array(k), np.arange(k)
    for top in (0, 1, 1, 2, 3, 9):
        weights = rng.integers(0, top + 1, size=(k, k)).astype(np.float64)
        rows = gmm._max_weight_assignment(weights)
        assert sorted(rows) == list(range(k))
        assert weights[rows, cols].sum() == weights[perms, cols].sum(axis=1).max()


def test_assignment_recovers_a_permuted_confusion_matrix():
    # Predicted cluster perm[c] holds 10 rows of true cluster c and c % 7 < 10
    # rows of cluster c - 1.  No assignment beats the sum of row maxima, 200,
    # and only perm reaches it.
    k = 20
    perm = np.random.default_rng(20).permutation(k)
    true_z = np.concatenate([np.full(10, c) for c in range(k)]
                            + [np.full(c % 7, (c - 1) % k) for c in range(k)])
    pred = np.concatenate([np.full(10, perm[c]) for c in range(k)]
                          + [np.full(c % 7, perm[c]) for c in range(k)])
    confusion = np.zeros((k, k))
    np.add.at(confusion, (pred, true_z), 1.0)
    np.testing.assert_array_equal(gmm._max_weight_assignment(confusion), perm)
    assert gmm.clustering_accuracy(np.eye(k)[pred], true_z) == 200 / true_z.size


def test_clustering_accuracy_partial_case():
    # Predictions 0 0 1 1 2 2 against truth 1 1 0 2 2 2: the best relabelling
    # 0->1, 1->0, 2->2 matches rows 0, 1, 2, 4 and 5.
    logits = np.eye(3)[[0, 0, 1, 1, 2, 2]]
    assert gmm.clustering_accuracy(logits, [1, 1, 0, 2, 2, 2]) == 5 / 6


@pytest.mark.parametrize("logits, true_z, message", [
    (5.0 * np.eye(3), [0, 1, -1], r"labels must lie in \[0, 3\)"),
    (5.0 * np.eye(3), [0, 1, 3], r"labels must lie in \[0, 3\)"),
    (5.0 * np.eye(3), [0, 1], "2 labels for 3 logit rows"),
    (np.zeros((0, 3)), [], "empty input"),
    (5.0 * np.eye(3), [0, 1, 2.7], "labels must be integers, got 2.7"),
    (5.0 * np.eye(3), [0, 1.5, 2], "labels must be integers, got 1.5"),
    (5.0 * np.eye(3), [0, np.nan, 2], "labels must be integers, got nan"),
    (5.0 * np.eye(3), [np.inf, 1, 2], "labels must be integers, got inf"),
    ([[1.0, np.nan], [0.0, 1.0]], [0, 1], "logits must be finite"),
    ([[1.0, 0.0], [-np.inf, 1.0]], [0, 1], "logits must be finite"),
], ids=["negative-label", "label-past-k", "length-mismatch", "empty", "fractional-label",
        "half-label", "nan-label", "inf-label", "nan-logit", "inf-logit"])
def test_clustering_accuracy_rejects_bad_labels(logits, true_z, message):
    with pytest.raises(ValueError, match=message):
        gmm.clustering_accuracy(logits, true_z)
