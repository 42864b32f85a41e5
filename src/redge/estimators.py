"""Gradient estimators for objectives E[f(X)] over factorized categoricals.

Every estimator returns the LxK gradient with respect to the logits (the
identity parameterization; composing with a further parameter map is the
caller's job).  Objectives are callables ``f(x: Node) -> Node`` producing a
scalar node; they may lift named auxiliary leaves onto the node's tape, whose
gradients are reported in ``GradientEstimate.aux_grads``.

All kinds run one pipeline, :func:`estimate`:

1. **Draw** one sample: the path-noise stream of :func:`split_rng` drives
   the diffusion chain, its categorical stream the hard draw.
2. **Evaluate** f once, with :func:`eval_objective`, giving f and grad f.
3. **Transport** grad f back to the logits.

========== ================================ ============ ================================
kind       draw                             f evaluated  transport
========== ================================ ============ ================================
st         Gumbel-max on the logits         hard sample  Cov(p) g
reinmax    Gumbel-max on the logits         hard sample  :func:`reinmax_apply`
gs-st      argmax of logits + Gumbel noise  hard sample  Cov(s) g / tau, s the tempered
                                                         softmax of the same perturbation
reinforce  Gumbel-max on the logits         hard sample  :func:`reinforce_apply`
redge      chain, then Gumbel-max on the    hard sample  one backward sweep along the
           last denoiser output                          chain, seeded with g
redge-cov  as redge, from the moment-       hard sample  as redge
           matched Gaussian reference
redge-max  as redge                         hard sample  as redge, then the last-step
                                                         block becomes ReinMax
redge-soft the chain's soft sample          soft sample  as redge
========== ================================ ============ ================================

Here g = grad f and p the probabilities.  The classical transports act on a
given sample through :func:`estimate_for_sample` (the enumeration oracles
call it); the formulas are plain array maps that accept leading
(replication) axes, so ``analysis.bias_variance`` batches them too.

Since the two streams are separate, under a shared integer seed the
single-step chain reproduces the classical kinds exactly:

    n=2 redge-soft  ==  straight-through on the mean,
    n=2 redge       ==  hard straight-through,
    n=2 redge-max   ==  ReinMax.
"""

from __future__ import annotations

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
    schedule is built once at construction (hence frozen); ``tau`` for the
    Gumbel-softmax kind, ``base_backprop`` for the covariance-corrected kind.
    """

    kind: str = "st"
    steps: int = 2
    t1: Optional[float] = None
    tau: float = 1.0
    eta: str = "zero"
    base_backprop: bool = True
    seed: int = 0
    baseline: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "gs-st" and self.tau <= 0.0:
            raise ValueError("temperature must be positive")
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
    """An LxK gradient with respect to the logits, plus call metadata."""

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
    """Evaluate f at a fixed matrix; return (value, grad wrt x, aux grads)."""
    tape = Tape()
    x = tape.lift(x_value, requires_grad=True)
    out = f(x)
    if out.value.shape != (1, 1):
        raise ValueError("objective must return a scalar (1x1) node")
    tape.backward(out)
    return float(out.value[0, 0]), grad_or_zero(x), tape.named_grads()


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
    value, gx, aux = eval_objective(f, hard.onehot)
    if kind == "st":
        grad, soft = covariance_apply(p, gx), p.copy()
    elif kind == "reinmax":
        grad, soft = reinmax_apply(p, hard.onehot, gx), p.copy()
    elif kind == "gs-st":
        grad = covariance_apply(soft, gx) * (1.0 / config.tau)
    else:
        grad, soft = reinforce_apply(p, hard.onehot, value, config.baseline), None
    return GradientEstimate(grad, kind, value, hard, soft, aux)


def estimate(dist: FactorizedCategorical, f, config: EstimatorConfig,
             rng=None) -> GradientEstimate:
    """Draw, evaluate f once, transport; ``rng`` defaults to ``config.seed``."""
    kind = config.kind
    noise_rng, cat_rng = split_rng(config.seed if rng is None else rng)
    if kind == "gs-st":
        # The hard sample comes from the same Gumbel draw that drives the soft map.
        g = gumbel_noise(dist.logits.shape, cat_rng)
        hard = onehot_from_indices(np.argmax(dist.logits + g, axis=1), dist.categories)
        soft = stable_softmax((dist.logits + g) * (1.0 / config.tau))
        return estimate_for_sample(dist, f, config, hard, soft)
    if kind not in _DIFFUSION_KINDS:
        return estimate_for_sample(dist, f, config, sample(dist, cat_rng))

    # The chain runs on a tape so that its sweep can carry grad f back.
    schedule = config.schedule()
    tape = Tape()
    logits = tape.lift(dist.logits, requires_grad=True)
    noise = draw_noise(schedule, dist.length, dist.categories, noise_rng)
    traj = sample_trajectory(logits, schedule, noise,
                             base="mle" if kind == "redge-cov" else None,
                             base_backprop=config.base_backprop)
    soft, d_last = traj.soft_sample.value, traj.final_denoiser.value
    hard = None
    if kind != "redge-soft":
        # One hard draw, from the denoiser at the earliest positive timestep.
        with np.errstate(divide="ignore"):
            hard = sample_onehot_rows(np.log(d_last), cat_rng)
    value, gx, aux = eval_objective(f, soft if hard is None else hard.onehot)
    tape.backward(traj.soft_sample, seed=gx)
    grad = grad_or_zero(logits)
    if kind == "redge-max":
        # The sweep's gradient splits at the final transition into a direct
        # logits term, Cov(d) g with d the last denoiser output, plus the term
        # transported through the earlier states.  The direct term becomes the
        # trapezoidal block 1/2 {Cov(d) + (X0-d)(X0-d)^T} g; the transported
        # term is kept as is.
        delta = hard.onehot - d_last
        grad = grad + 0.5 * (delta * (delta * gx).sum(axis=1, keepdims=True)
                             - covariance_apply(d_last, gx))
    return GradientEstimate(grad, kind, value, hard, soft, aux)
