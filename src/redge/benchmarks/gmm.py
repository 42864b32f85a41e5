"""Mean-field variational inference for a 2-D Gaussian mixture.

Generative model: uniform cluster assignments z_i over K components, cluster
means drawn N(0, sigma0^2 I), observations y_i ~ N(m_{z_i}, sigma_y^2 I).
The variational family is a factorized categorical over assignments combined
with point estimates of the means, optimized by minimizing

    sum_i E_q[ log q_i(z_i) - log p(y_i | m, z_i) - log p(z_i) ]
    - sum_k log p(m_k).

The assignment entropy and the uniform prior are separable and evaluated
analytically; only the likelihood term, which is linear in the one-hot
sample, goes through a stochastic gradient estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..tensor import Node, Tape, _row_total, as_matrix, grad_or_zero, softmax_rows, stable_softmax

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GmmProblem:
    data: np.ndarray          # (N, d) observations
    true_means: np.ndarray    # (K, d), held out for accuracy only
    true_z: np.ndarray        # (N,), held out for accuracy only
    components: int
    sigma0: float
    sigma_y: float
    seed: int

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def gmm_generate(seed: int, size: int = 500, components: int = 20, dim: int = 2,
                 sigma0: float = 15.0, sigma_y: float = 2.0) -> GmmProblem:
    """Draw a mixture instance reproducibly from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x6D6D)))
    z = rng.integers(0, components, size=size)
    means = sigma0 * rng.standard_normal((components, dim))
    data = means[z] + sigma_y * rng.standard_normal((size, dim))
    return GmmProblem(data=data, true_means=means, true_z=z,
                      components=components, sigma0=sigma0, sigma_y=sigma_y, seed=seed)


def likelihood_cost(mhat: np.ndarray, problem: GmmProblem) -> np.ndarray:
    """(N, K) matrix of -log N(y_i; m_k, sigma_y^2 I)."""
    y, var = problem.data, problem.sigma_y**2
    y_sq = (y**2).sum(axis=1, keepdims=True)  # (N, 1)
    m_sq = _row_total(np.power(mhat, 2.0)).T  # (1, K)
    const = 0.5 * problem.dim * (_LOG_2PI + np.log(var))
    return (y_sq - (y @ mhat.T) * 2.0 + m_sq) * (1.0 / (2.0 * var)) + const


def likelihood_term(x: Node, mhat_value: np.ndarray, problem: GmmProblem,
                    name: str = "mhat") -> Node:
    """sum_i -log N(y_i; x_i^T m, sigma_y^2 I) with m a named auxiliary leaf.

    The sample selects each row's mean as x_i^T m, so the term is the
    density's own quadratic function of the (soft or hard) sample; it agrees
    with the discrete objective at every one-hot and its expectation under
    the assignment law equals the exact per-row enumeration (one-hot cross
    terms vanish).
    """
    tape = x.tape
    mhat = tape.lift(mhat_value, requires_grad=True, name=name)
    resid = tape.constant(problem.data) - x @ mhat
    const = 0.5 * problem.size * problem.dim * (_LOG_2PI + np.log(problem.sigma_y**2))
    return resid.pow(2.0).sum() * (1.0 / (2.0 * problem.sigma_y**2)) + const


def entropy_prior_term(logits: Node, problem: GmmProblem) -> Node:
    """sum_i E[log q_i - log p_z] = sum_i sum_k p_ik (log p_ik + log K)."""
    p = softmax_rows(logits)
    return p.dot(p.log()) + problem.size * np.log(problem.components)


def exact_objective_value(logits: np.ndarray, mhat: np.ndarray, problem: GmmProblem) -> float:
    """The exact negative ELBO: entropy and assignment prior, the expected
    likelihood cost (the dot against the probability matrix, since the
    likelihood term is linear in the one-hot) and the N(0, sigma0^2 I) prior
    on the means."""
    entropy = entropy_prior_term(Tape().constant(logits), problem).value[0, 0]
    cost = float((stable_softmax(logits) * likelihood_cost(mhat, problem)).sum())
    var0 = problem.sigma0**2
    prior = (np.power(mhat, 2.0).sum() * (1.0 / (2.0 * var0))
             + 0.5 * problem.dim * problem.components * (_LOG_2PI + np.log(var0)))
    return float(entropy + cost + prior)


def entropy_prior_gradient(logits: np.ndarray, problem: GmmProblem) -> np.ndarray:
    """Exact logits gradient of the analytic entropy + prior terms."""
    tape = Tape()
    leaf = tape.lift(logits, requires_grad=True)
    tape.backward(entropy_prior_term(leaf, problem))
    return grad_or_zero(leaf)


def map_gradient(mhat: np.ndarray, problem: GmmProblem) -> np.ndarray:
    return np.asarray(mhat, dtype=np.float64) / problem.sigma0**2


def clustering_accuracy(logits, true_z) -> float:
    """Fraction of rows assigned to the right cluster under the best label
    permutation (optimal assignment on the confusion matrix)."""
    logits = as_matrix(logits)
    true_z = np.asarray(true_z, dtype=np.int64).ravel()
    pred = np.argmax(logits, axis=1)
    k = logits.shape[1]
    confusion = np.zeros((k, k))
    np.add.at(confusion, (pred, true_z), 1.0)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return float(confusion[rows, cols].sum() / true_z.size)
