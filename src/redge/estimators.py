"""Gradient estimators for objectives E[f(X)] over factorized categoricals.

Every estimator returns the LxK gradient with respect to the logits (the
identity parameterization; composing with a further parameter map is the
caller's job).  Objectives are callables ``f(x: Node) -> Node`` producing a
scalar node; they may lift named auxiliary leaves onto the node's tape, whose
gradients are reported in ``GradientEstimate.aux_grads``.  An objective with
a closed-form gradient may return ``x.apply(value, vjp)``, one node whose
``vjp`` runs only when the gradient is wanted (``analysis.PolyObjective``,
``benchmarks.polyprog.polyprog_loss``, the Sudoku objective
``benchmarks.sudoku.SudokuBatch.objective``).

All kinds run one pipeline, :func:`estimate`:

1. **Draw** one sample: the path-noise stream of :func:`split_rng` drives
   the diffusion chain, its categorical stream the hard draw.
2. **Evaluate** f once, with :func:`eval_objective`, giving f and grad f.
3. **Transport** grad f back to the logits.

========== ================================ ============ ================================
kind       draw                             f evaluated  transport
========== ================================ ============ ================================
st         inverse CDF on p                 hard sample  Cov(p) g
reinmax    inverse CDF on p                 hard sample  :func:`reinmax_apply`
gs-st      argmax of logits + Gumbel noise  hard sample  Cov(s) g / tau, s the tempered
                                                         softmax of the same perturbation
reinforce  inverse CDF on p                 hard sample  :func:`reinforce_apply`
redge      chain, then inverse CDF on its   hard sample  the chain node's closed-form
           soft sample, the last denoiser                VJP, seeded with g: a reverse
                                                         sweep, or at K = 2 the kept
                                                         forward-mode derivative
redge-cov  as redge, from N(p, v), the      hard sample  the tape sweep of the composite
           moment-matched reference                      chain, seeded with g; through p
                                                         and v too with ``base_backprop``
redge-max  as redge                         hard sample  as redge, then the last-step
                                                         block becomes ReinMax
redge-soft the chain's soft sample          soft sample  as redge
========== ================================ ============ ================================

Here g = grad f and p the probabilities.  The classical transports act on a
given sample through :func:`estimate_for_sample` (the enumeration oracles
call it); the formulas are plain array maps that accept leading
(replication) axes, so ``analysis.bias_variance`` batches them too.

Since the two streams are separate and the single-step chain's last denoiser
is p bit for bit, a shared integer seed makes that chain reproduce exactly:

    n=2 redge-soft  ==  straight-through on the mean,
    n=2 redge       ==  hard straight-through,
    n=2 redge-max   ==  ReinMax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .categorical import (
    FactorizedCategorical,
    OneHotSample,
    gumbel_noise,
    onehot_from_indices,
    sample,
    sample_onehot_rows,
)
from .diffusion import Schedule, draw_noise, linear_schedule, sample_trajectory
from .tensor import Tape, covariance_apply, grad_or_zero, stable_softmax

ESTIMATOR_KINDS = ("st", "reinmax", "gs-st", "reinforce",
                   "redge", "redge-soft", "redge-max", "redge-cov")
_DIFFUSION_KINDS = frozenset({"redge", "redge-soft", "redge-max", "redge-cov"})


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator choice plus its hyperparameters.

    ``steps``, ``t1`` and ``eta`` only matter for the diffusion kinds, whose
    schedule is built once at construction (hence frozen); ``tau`` (finite,
    positive) for the Gumbel-softmax kind, ``base_backprop`` for the
    covariance-corrected kind, ``baseline`` (None or finite) for REINFORCE.
    """

    kind: str = "st"
    steps: int = 2
    t1: Optional[float] = None
    tau: float = 1.0
    eta: str = "zero"
    base_backprop: bool = True
    baseline: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "gs-st" and not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"temperature must be finite and positive, got {self.tau}")
        if self.baseline is not None and not math.isfinite(self.baseline):
            raise ValueError(f"baseline must be None or finite, got {self.baseline}")
        if self.t1 is not None and not 0.0 < self.t1 <= 1.0:
            raise ValueError("t1 must lie in (0, 1]")
        # Built here so that a bad steps/t1/eta combination fails at
        # construction; a plain attribute, not a field, so asdict() omits it.
        object.__setattr__(self, "_schedule", linear_schedule(self.steps, self.t1, self.eta)
                           if self.kind in _DIFFUSION_KINDS else None)

    def schedule(self) -> Schedule:
        """The diffusion kinds' schedule; None for the other kinds."""
        return self._schedule


@dataclass
class GradientEstimate:
    """An LxK gradient with respect to the logits, plus call metadata.

    The ``soft_sample`` of a category-major diffusion chain (K >= 3) is a
    view of that chain's workspace, which it keeps alive (see
    ``diffusion._category_chain``); that of ST and ReinMax is the
    distribution's read-only ``probs`` itself.  ``hard_sample`` holds the
    drawn indices only, and builds its one-hot matrix when read.
    """

    grad: np.ndarray
    kind: str
    objective_value: float
    hard_sample: Optional[OneHotSample] = None
    soft_sample: Optional[np.ndarray] = None
    aux_grads: dict = field(default_factory=dict)


def split_rng(rng):
    """Derive independent (path-noise, categorical) streams.

    Integer seeds give reproducible pairs: two estimators called with the
    same integer share both streams, which is what the single-step reduction
    identities rely on.  Generator instances spawn fresh children per call.
    """
    if isinstance(rng, np.random.Generator):
        return tuple(rng.spawn(2))
    seq = np.random.SeedSequence(rng)
    noise_ss, cat_ss = seq.spawn(2)
    return np.random.default_rng(noise_ss), np.random.default_rng(cat_ss)


def eval_objective(f, x_value: np.ndarray):
    """Evaluate f at a fixed matrix; return (value, grad wrt x, aux grads).

    The tape lifts ``x_value`` by ``tensor.frozen_matrix``: a one-hot from
    ``OneHotSample.onehot`` is shared, a writable matrix is copied once.
    """
    tape = Tape()
    x = tape.lift(x_value, requires_grad=True)
    out = f(x)
    if out.value.shape != (1, 1):
        raise ValueError("objective must return a scalar (1x1) node")
    tape.backward(out)
    value, gx, aux = float(out.value[0, 0]), grad_or_zero(x), tape.named_grads()
    tape.release()
    return value, gx, aux


def reinmax_apply(p: np.ndarray, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise ReinMax transport 1/2 {Cov(p) + (x - p)(x - p)^T} g.

    ``x`` and ``g`` may carry leading axes over the (L, K) of ``p``.
    """
    d = x - p
    return 0.5 * (covariance_apply(p, g) + d * (d * g).sum(axis=-1, keepdims=True))


def reinforce_apply(p: np.ndarray, x: np.ndarray, values,
                    baseline: Optional[float] = None) -> np.ndarray:
    """Score-function term (f(x) - b)(x - p); ``values`` has x's leading axes."""
    b = 0.0 if baseline is None else float(baseline)
    return (np.asarray(values) - b)[..., None, None] * (x - p)


def estimate_for_sample(dist: FactorizedCategorical, f, config: EstimatorConfig,
                        hard: OneHotSample, soft: Optional[np.ndarray] = None) -> GradientEstimate:
    """Evaluate f at a given hard sample and apply a classical transport.

    ``soft`` is the tempered softmax of the perturbed logits that drew
    ``hard``, required for "gs-st" and ignored by the other kinds.
    """
    kind, p = config.kind, dist.probs
    if kind in _DIFFUSION_KINDS:
        raise ValueError(f"kind {kind!r} transports along its chain; call estimate")
    if kind == "gs-st" and soft is None:
        raise ValueError("gs-st needs the tempered softmax of its perturbed logits")
    onehot = hard.onehot
    value, gx, aux = eval_objective(f, onehot)
    if kind == "st":
        grad, soft = covariance_apply(p, gx), p
    elif kind == "reinmax":
        grad, soft = reinmax_apply(p, onehot, gx), p
    elif kind == "gs-st":
        grad = covariance_apply(soft, gx) * (1.0 / config.tau)
    else:
        grad, soft = reinforce_apply(p, onehot, value, config.baseline), None
    return GradientEstimate(grad, kind, value, hard, soft, aux)


def estimate(dist: FactorizedCategorical, f, config: EstimatorConfig,
             rng) -> GradientEstimate:
    """Draw, evaluate f once, transport; ``rng`` is a seed or a Generator."""
    kind = config.kind
    noise_rng, cat_rng = split_rng(rng)
    if kind == "gs-st":
        # The hard sample comes from the same Gumbel draw that drives the soft map.
        g = gumbel_noise(dist.logits.shape, cat_rng)
        hard = onehot_from_indices(np.argmax(dist.logits + g, axis=1), dist.categories)
        soft = stable_softmax((dist.logits + g) * (1.0 / config.tau))
        return estimate_for_sample(dist, f, config, hard, soft)
    if kind not in _DIFFUSION_KINDS:
        return estimate_for_sample(dist, f, config, sample(dist, cat_rng))

    # The chain's tape sweep carries grad f back: one node with a closed-form
    # sweep under the standard reference, the composite chain under redge-cov's.
    schedule = config.schedule()
    tape = Tape()
    logits = tape.lift(dist.logits, requires_grad=True)
    noise = draw_noise(schedule, dist.length, dist.categories, noise_rng)
    reference = None
    if kind == "redge-cov":
        reference = logits if config.base_backprop else logits.detach()
    x0 = sample_trajectory(logits, schedule, noise, reference)
    del noise   # the chain has read its draws
    soft = x0.value   # the denoiser output at t1: the hard draw's law too
    hard = None if kind == "redge-soft" else sample_onehot_rows(soft, cat_rng)
    onehot = None if hard is None else hard.onehot
    value, gx, aux = eval_objective(f, soft if onehot is None else onehot)
    if kind != "redge-max":
        onehot = None   # only redge-max's trapezoid reads it after f
    tape.backward(x0, seed=gx)
    grad = grad_or_zero(logits)
    tape.release()   # the chain's arrays are freed on return, not by the cyclic collector
    if kind == "redge-max":
        # The sweep's gradient splits at the final transition into a direct
        # logits term, Cov(d) g with d the last denoiser output, plus the term
        # transported through the earlier states.  The direct term becomes the
        # trapezoidal block 1/2 {Cov(d) + (X0-d)(X0-d)^T} g; the transported
        # term is kept as is.  In place, since temporaries above the live
        # chain workspace made glibc trim the heap on every GMM step; for the
        # same reason the one-hot is built once, before the sweep, not here.
        delta = onehot - soft
        delta *= (delta * gx).sum(axis=1, keepdims=True)
        delta -= covariance_apply(soft, gx)
        delta *= 0.5
        grad = grad + delta
    return GradientEstimate(grad, kind, value, hard, soft, aux)
