"""Benchmark objectives against brute-force oracles: the GMM negative ELBO by
enumerating every assignment, the polynomial-programming loss at vertices."""

from itertools import product

import numpy as np
import pytest

from redge.benchmarks import gmm
from redge.benchmarks.polyprog import PolyProgProblem, exact_polyprog_loss
from redge.tensor import Tape, stable_softmax


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

    tape = Tape()
    got = gmm.gmm_objective(tape.constant(logits), tape.constant(mhat), problem).value[0, 0]
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
