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

from ..categorical import FactorizedCategorical
from ..tensor import Node, Tape, as_matrix, covariance_apply, grad_or_zero, softmax_rows

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
    m_sq = np.power(mhat, 2.0).sum(axis=1)  # (K,)
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


def _entropy_prior(dist: FactorizedCategorical, problem: GmmProblem):
    """(p, log p, value) of :func:`entropy_prior_term` on the distribution's
    cached probabilities, without a tape.  A probability that underflowed to
    zero has no finite log and raises ``ValueError``."""
    p = dist.probs
    if not np.all(p > 0.0):
        raise ValueError("an assignment probability underflowed to 0")
    log_p = np.log(p)
    return p, log_p, float((p * log_p).sum()) + problem.size * np.log(problem.components)


def exact_objective_value(dist: FactorizedCategorical, mhat: np.ndarray,
                          problem: GmmProblem) -> float:
    """The exact negative ELBO of the assignment law ``dist``: entropy and
    assignment prior (:func:`entropy_prior_term`'s value), the expected
    likelihood cost (the dot against the probability matrix, since the
    likelihood term is linear in the one-hot) and the N(0, sigma0^2 I) prior
    on the means.  A probability that underflowed to zero raises
    ``ValueError``."""
    p, _, entropy = _entropy_prior(dist, problem)
    cost = float((p * likelihood_cost(mhat, problem)).sum())
    var0 = problem.sigma0**2
    prior = (np.power(mhat, 2.0).sum() * (1.0 / (2.0 * var0))
             + 0.5 * problem.dim * problem.components * (_LOG_2PI + np.log(var0)))
    return float(entropy + cost + prior)


def entropy_prior_gradient(dist: FactorizedCategorical, problem: GmmProblem) -> np.ndarray:
    """Exact logits gradient of the analytic entropy + prior terms of ``dist``.

    One closed-form node on a tape whose leaf is the distribution's
    read-only logits (shared, not copied), with :func:`entropy_prior_term`'s
    value and the VJP Cov(p) (g log p + (g p) / p), the term's tape
    composition in that tape's operation order, so the gradient is bit for
    bit the tape's.  A probability that underflowed to zero raises
    ``ValueError``.
    """
    p, log_p, value = _entropy_prior(dist, problem)
    tape = Tape()
    leaf = tape.lift(dist.logits, requires_grad=True)

    def vjp(g):
        g = g[0, 0]
        return covariance_apply(p, g * log_p + (g * p) / p)

    tape.backward(leaf.apply(np.array([[value]]), vjp))
    tape.release()
    return grad_or_zero(leaf)


def map_gradient(mhat: np.ndarray, problem: GmmProblem) -> np.ndarray:
    return np.asarray(mhat, dtype=np.float64) / problem.sigma0**2


def _max_weight_assignment(weights: np.ndarray) -> np.ndarray:
    """Row matched to each column of a square matrix so that the matched
    weights sum to their maximum.

    The Hungarian method with row and column potentials and shortest
    augmenting paths (Kuhn 1955; Munkres 1957), O(k^3), run on the costs
    ``max(weights) - weights``.  Rows and columns are 1-based inside: column 0
    is a virtual column holding the row being inserted, and row 0 of the
    padded costs is never read.  On integer weights every potential and
    reduced cost stays an integer, so float64 arithmetic is exact.
    """
    k = weights.shape[0]
    cost = np.zeros((k + 1, k + 1))
    cost[1:, 1:] = weights.max() - weights
    u, v = np.zeros(k + 1), np.zeros(k + 1)      # row and column potentials
    row_of = np.zeros(k + 1, dtype=np.int64)     # 0 marks a free column
    for row in range(1, k + 1):
        row_of[0], col = row, 0
        slack = np.full(k + 1, np.inf)           # shortest path cost to each column
        prev = np.zeros(k + 1, dtype=np.int64)   # column before each on that path
        done = np.zeros(k + 1, dtype=bool)
        while row_of[col]:
            done[col] = True
            r = row_of[col]
            reduced = cost[r] - u[r] - v
            closer = ~done & (reduced < slack)
            slack[closer] = reduced[closer]
            prev[closer] = col
            col = int(np.argmin(np.where(done, np.inf, slack)))
            delta = slack[col]
            u[row_of[done]] += delta
            v[done] -= delta
            slack[~done] -= delta
        while col:                               # augment along the path
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    return row_of[1:] - 1


def clustering_accuracy(logits, true_z) -> float:
    """Fraction of rows assigned to the right cluster under the best label
    permutation (optimal assignment on the confusion matrix).

    ``true_z`` holds one integer label in [0, K) per row of the (N, K)
    ``logits``; an empty input, a length mismatch, a non-finite logit, a
    non-integer or non-finite label or a label out of range raises
    ``ValueError``.
    """
    logits = as_matrix(logits)
    labels = np.asarray(true_z, dtype=np.float64).ravel()
    if logits.size == 0 or labels.size == 0:
        raise ValueError("clustering_accuracy: empty input")
    if labels.size != logits.shape[0]:
        raise ValueError(f"clustering_accuracy: {labels.size} labels for "
                         f"{logits.shape[0]} logit rows")
    if not np.isfinite(logits).all():
        raise ValueError("clustering_accuracy: logits must be finite")
    bad = labels[~(np.isfinite(labels) & (labels == np.trunc(labels)))]
    if bad.size:
        raise ValueError(f"clustering_accuracy: labels must be integers, got {bad[0]}")
    k = logits.shape[1]
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"clustering_accuracy: labels must lie in [0, {k})")
    pred = np.argmax(logits, axis=1)
    confusion = np.zeros((k, k))
    np.add.at(confusion, (pred, labels.astype(np.int64)), 1.0)
    rows = _max_weight_assignment(confusion)
    return float(confusion[rows, np.arange(k)].sum() / labels.size)
