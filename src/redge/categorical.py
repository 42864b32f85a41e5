"""Factorized categorical distributions over one-hot matrices.

A distribution over L independent K-way choices is parameterized by an LxK
logit matrix; row i of the probability matrix is the softmax of logit row i.
Samples are LxK one-hot matrices drawn per row by inverse CDF, one uniform
per row; Gumbel noise serves only the Gumbel-softmax estimator.

The arrays handed out here are read-only: a distribution's ``logits`` and
``probs``, and the one-hot matrix that :class:`OneHotSample` builds on
demand from its indices.  ``Tape.lift`` shares such arrays rather than
copying them (see ``tensor.frozen_matrix``).

Includes the exact enumeration gradient oracle (sums over all K^L one-hot
configurations, capped) against which the stochastic estimators are tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .tensor import Tape, as_matrix, frozen_matrix, stable_softmax

ENUMERATION_CAP = 1 << 20

# Uniform draws are clipped away from {0, 1} so the Gumbel transform
# -log(-log(u)) stays finite.
_UNIFORM_CLIP = 1e-12


def onehot_rows(indices, categories: int) -> np.ndarray:
    """The read-only one-hot array of shape ``indices.shape + (K,)``: rows of
    the K x K identity, picked by in-range integer ``indices``."""
    onehot = np.take(np.eye(categories), indices, axis=0)
    onehot.flags.writeable = False
    return onehot


@dataclass(frozen=True)
class OneHotSample:
    """A hard sample: per-row category ids and the number of categories.

    :attr:`onehot` builds the (L, K) matrix anew on each read, so a sample
    kept alive costs L indices, not L x K floats; read it once per use.
    """

    indices: np.ndarray  # (L,) int64
    categories: int

    @property
    def onehot(self) -> np.ndarray:
        """The (L, K) float64 one-hot matrix, read-only."""
        return onehot_rows(self.indices, self.categories)


def onehot_from_indices(indices, categories: int) -> OneHotSample:
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if indices.min(initial=0) < 0 or indices.max(initial=0) >= categories:
        raise ValueError("category index out of range")
    return OneHotSample(indices=indices, categories=categories)


class FactorizedCategorical:
    """Product of L independent K-way categoricals with cached probabilities.

    ``logits`` is :func:`tensor.frozen_matrix` of the argument: an owned,
    read-only float64 matrix is kept as is, anything else is copied once.
    ``logits`` and ``probs`` are read-only, so a tape lifts them without a
    copy and a caller cannot change the distribution behind its cache.
    """

    def __init__(self, logits):
        self.logits = frozen_matrix(logits, "logits")

    @cached_property
    def probs(self) -> np.ndarray:
        """Row softmax of the logits, read-only and computed on first read
        (the diffusion estimators never read it)."""
        probs = stable_softmax(self.logits)
        probs.flags.writeable = False
        return probs

    @property
    def length(self) -> int:
        return self.logits.shape[0]

    @property
    def categories(self) -> int:
        return self.logits.shape[1]

    def __repr__(self):
        return f"FactorizedCategorical(L={self.length}, K={self.categories})"


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """-log(-log(u)) of clipped uniforms, computed in the one array they fill."""
    g = rng.random(shape)
    np.clip(g, _UNIFORM_CLIP, 1.0 - _UNIFORM_CLIP, out=g)
    np.log(g, out=g)
    np.negative(g, out=g)
    np.log(g, out=g)
    return np.negative(g, out=g)


def sample_onehot_rows(probs: np.ndarray, rng: np.random.Generator) -> OneHotSample:
    """Per-row categorical draw from row probabilities by :func:`inverse_cdf`;
    equal probabilities and stream give equal indices."""
    probs = as_matrix(probs)
    return onehot_from_indices(inverse_cdf(probs, rng), probs.shape[1])


def inverse_cdf(probs: np.ndarray, rng: np.random.Generator, draws=()) -> np.ndarray:
    """Indices of shape ``draws + (L,)`` drawn from the (L, K) row
    probabilities: the stream and indices of one draw from ``probs`` stacked
    ``draws`` times.  Each takes one uniform u and counts the k < K-1 whose
    running sum p_0 + ... + p_k is <= u, so it stays below K where the sum
    rounds below 1 and never lands on a zero-probability category.  A
    negative or non-finite entry (a log-weight, say) raises ``ValueError``.

    The running sum starts at the column p_0 itself (0 + p_0 = p_0, so the
    indices are those of a sum from zero) and is copied at p_0 + p_1, so at
    K = 2 no running-sum array is allocated.
    """
    if not (probs.min(initial=0.0) >= 0.0 and probs.max(initial=0.0) < np.inf):   # nan fails too
        raise ValueError("probabilities must be finite and non-negative")
    u = rng.random(tuple(draws) + probs.shape[:1])
    indices = np.zeros(u.shape, dtype=np.int64)
    for k, p_k in enumerate(probs.T[:-1]):   # category-major running sums
        if k == 0:
            cdf = p_k
        elif k == 1:
            cdf = cdf + p_k
        else:
            cdf += p_k
        indices += cdf <= u
    return indices


def sample(dist: FactorizedCategorical, rng: np.random.Generator) -> OneHotSample:
    """One-hot sample from the distribution (inverse CDF on the probabilities)."""
    return sample_onehot_rows(dist.probs, rng)


def enumerate_onehots(length: int, categories: int):
    """Yield a :class:`OneHotSample` for every one-hot configuration, in
    row-major order."""
    for combo in product(range(categories), repeat=length):
        yield OneHotSample(np.array(combo, dtype=np.int64), categories)


def joint_probability(dist: FactorizedCategorical, sample_: OneHotSample) -> float:
    return float(np.prod(dist.probs[np.arange(dist.length), sample_.indices]))


def eval_scalar(f, x_value: np.ndarray) -> float:
    """Evaluate a tape-valued objective at a plain matrix."""
    tape = Tape()
    out = f(tape.constant(x_value))
    tape.release()
    if out.value.shape != (1, 1):
        raise ValueError("objective must return a scalar (1x1) node")
    return float(out.value[0, 0])


def exact_gradient(dist: FactorizedCategorical, f, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Exact gradient of E[f(X)] with respect to the logits, by enumeration.

    Uses the score identity per row: the gradient equals
    sum_x pi(x) f(x) (x - p).  Errors out above the configuration cap rather
    than silently approximating.
    """
    total = dist.categories ** dist.length
    if total > cap:
        raise ValueError(f"enumeration cap exceeded: {total} > {cap} configurations")
    grad = np.zeros_like(dist.logits)
    for s in enumerate_onehots(dist.length, dist.categories):
        w, x = joint_probability(dist, s), s.onehot
        grad += w * eval_scalar(f, x) * (x - dist.probs)
    return grad
