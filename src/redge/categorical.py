"""Factorized categorical distributions over one-hot matrices.

A distribution over L independent K-way choices is parameterized by an LxK
logit matrix; row i of the probability matrix is the softmax of logit row i.
Samples are LxK one-hot matrices drawn per row with the Gumbel-max trick.

Includes the exact enumeration gradient oracle (sums over all K^L one-hot
configurations, capped) against which the stochastic estimators are tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .tensor import Tape, as_matrix, stable_softmax

ENUMERATION_CAP = 1 << 20

# Uniform draws are clipped away from {0, 1} so the Gumbel transform
# -log(-log(u)) stays finite.
_UNIFORM_CLIP = 1e-12


@dataclass(frozen=True)
class OneHotSample:
    """A hard sample: per-row category ids and the matching one-hot matrix."""

    indices: np.ndarray  # (L,) int64
    onehot: np.ndarray   # (L, K) float64


def onehot_from_indices(indices, categories: int) -> OneHotSample:
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if indices.min(initial=0) < 0 or indices.max(initial=0) >= categories:
        raise ValueError("category index out of range")
    onehot = np.zeros((indices.size, categories))
    onehot[np.arange(indices.size), indices] = 1.0
    return OneHotSample(indices=indices, onehot=onehot)


class FactorizedCategorical:
    """Product of L independent K-way categoricals with cached probabilities."""

    def __init__(self, logits):
        logits = as_matrix(logits)
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        self.logits = logits.copy()

    @cached_property
    def probs(self) -> np.ndarray:
        """Row softmax of the logits, computed on first read (the diffusion
        estimators never read it)."""
        return stable_softmax(self.logits)

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


def sample_onehot_rows(log_weights: np.ndarray, rng: np.random.Generator) -> OneHotSample:
    """Per-row categorical draw via argmax of log-weights plus Gumbel noise.

    Rows with the same log-weights up to a per-row constant produce the same
    indices for the same noise, which is what lets single-step diffusion
    draws coincide with plain categorical draws under a shared stream.
    """
    log_weights = as_matrix(log_weights)
    return onehot_from_indices(gumbel_max(log_weights, rng), log_weights.shape[1])


def gumbel_max(log_weights: np.ndarray, rng: np.random.Generator, draws=()) -> np.ndarray:
    """Indices argmax(log_weights + Gumbel noise) along the last axis, for
    noise of shape ``draws + log_weights.shape``: the stream and the indices of
    one draw from ``log_weights`` stacked ``draws`` times, without the stack."""
    g = gumbel_noise(tuple(draws) + log_weights.shape, rng)
    g += log_weights
    return np.argmax(g, axis=-1)


def sample(dist: FactorizedCategorical, rng: np.random.Generator) -> OneHotSample:
    """One-hot sample from the distribution (Gumbel-max on the logits)."""
    return sample_onehot_rows(dist.logits, rng)


def enumerate_onehots(length: int, categories: int):
    """Yield (indices, onehot) for every one-hot configuration, row-major order."""
    for combo in product(range(categories), repeat=length):
        yield onehot_from_indices(np.array(combo), categories)


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
        w = joint_probability(dist, s)
        grad += w * eval_scalar(f, s.onehot) * (s.onehot - dist.probs)
    return grad
