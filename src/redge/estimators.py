"""Gradient estimators for objectives E[f(X)] over factorized categoricals.

Every estimator returns the LxK gradient with respect to the logits (the
identity parameterization; composing with a further parameter map is the
caller's job).  Objectives are callables ``f(x: Node) -> Node`` producing a
scalar node; they may lift named auxiliary leaves onto the node's tape, whose
gradients are reported in ``GradientEstimate.aux_grads``.

Randomness is split into two independent streams per call, one for Gaussian
path noise and one for categorical draws, so that single-step diffusion
estimators reproduce their classical counterparts exactly under a shared
integer seed:

    n=2 soft path   ==  straight-through on the mean,
    n=2 hard path   ==  hard straight-through,
    n=2 hard + trapezoidal correction  ==  ReinMax.

The classical formulas are written once, as plain array maps that accept
leading (replication) axes: :func:`covariance_apply` (Cov(p) g, the
straight-through and Gumbel-softmax transport), :func:`reinmax_apply` and
:func:`reinforce_apply`.  The single-sample estimators here and the batched
replications of ``analysis.bias_variance`` both call them.  :func:`estimate`
dispatches through a table keyed by kind, from which ``ESTIMATOR_KINDS`` is
derived; ``"redge-cov"`` shares ``redge_hard_grad`` with ``"redge"`` (the
config's kind selects the moment-matched reference inside the trajectory).
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
from .tensor import Tape, covariance_apply, grad_or_zero, softmax_rows, stable_softmax

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
    steps: Optional[int] = None


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


# ---------------------------------------------------------------------------
# Classical estimators
# ---------------------------------------------------------------------------


def soft_st_grad(dist: FactorizedCategorical, f) -> GradientEstimate:
    """Straight-through on the mean: differentiate f(probs) exactly."""
    tape = Tape()
    logits = tape.lift(dist.logits, requires_grad=True)
    probs = softmax_rows(logits)
    out = f(probs)
    tape.backward(out)
    return GradientEstimate(
        grad=grad_or_zero(logits),
        kind="soft-st",
        objective_value=float(out.value[0, 0]),
        soft_sample=probs.value,
        aux_grads=tape.named_grads(),
    )


def st_estimate_for_sample(dist: FactorizedCategorical, f, hard: OneHotSample) -> GradientEstimate:
    """Hard straight-through for a given sample: Cov(p) applied to grad f(X)."""
    value, gx, aux = eval_objective(f, hard.onehot)
    return GradientEstimate(
        grad=covariance_apply(dist.probs, gx),
        kind="st",
        objective_value=value,
        hard_sample=hard,
        soft_sample=dist.probs.copy(),
        aux_grads=aux,
    )


def st_grad(dist: FactorizedCategorical, f, rng) -> GradientEstimate:
    _, cat_rng = split_rng(rng)
    return st_estimate_for_sample(dist, f, sample(dist, cat_rng))


def reinmax_estimate_for_sample(dist: FactorizedCategorical, f,
                                hard: OneHotSample) -> GradientEstimate:
    """Trapezoidal-corrected hard ST for a given sample.

    Per row the transported cotangent is
        1/2 * { Cov(p) + (x - p)(x - p)^T } grad f(x).
    """
    value, gx, aux = eval_objective(f, hard.onehot)
    return GradientEstimate(
        grad=reinmax_apply(dist.probs, hard.onehot, gx),
        kind="reinmax",
        objective_value=value,
        hard_sample=hard,
        soft_sample=dist.probs.copy(),
        aux_grads=aux,
    )


def reinmax_estimate_standard_form(dist: FactorizedCategorical, f,
                                   hard: OneHotSample) -> GradientEstimate:
    """Equivalent ReinMax form: 2 Cov((p+x)/2) - Cov(p)/2 applied to grad f(x).

    The half-and-half mixture of Cat(p) and the point mass at x is itself a
    categorical with probability vector (p + x)/2, which makes the two forms
    agree sample by sample.
    """
    value, gx, aux = eval_objective(f, hard.onehot)
    p = dist.probs
    q = 0.5 * (p + hard.onehot)
    grad = 2.0 * covariance_apply(q, gx) - 0.5 * covariance_apply(p, gx)
    return GradientEstimate(
        grad=grad,
        kind="reinmax",
        objective_value=value,
        hard_sample=hard,
        soft_sample=p.copy(),
        aux_grads=aux,
    )


def reinmax_grad(dist: FactorizedCategorical, f, rng) -> GradientEstimate:
    _, cat_rng = split_rng(rng)
    return reinmax_estimate_for_sample(dist, f, sample(dist, cat_rng))


def gumbel_softmax_st_grad(dist: FactorizedCategorical, f, tau: float, rng) -> GradientEstimate:
    """Gumbel-softmax with a straight-through forward.

    The hard sample is the argmax of logits + Gumbel noise (so it follows the
    categorical law exactly); the gradient is the tempered softmax Jacobian
    of the same perturbed logits, Cov(s) grad f(X) / tau.
    """
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    _, cat_rng = split_rng(rng)
    g = gumbel_noise(dist.logits.shape, cat_rng)
    # The hard sample comes from the same Gumbel draw that drives the soft map.
    hard = onehot_from_indices(np.argmax(dist.logits + g, axis=1), dist.categories)
    value, gx, aux = eval_objective(f, hard.onehot)
    inv_tau = 1.0 / tau
    soft = stable_softmax((dist.logits + g) * inv_tau)
    return GradientEstimate(
        grad=covariance_apply(soft, gx) * inv_tau,
        kind="gs-st",
        objective_value=value,
        hard_sample=hard,
        soft_sample=soft,
        aux_grads=aux,
    )


def reinforce_estimate_for_sample(dist: FactorizedCategorical, f, hard: OneHotSample,
                                  baseline: Optional[float] = None) -> GradientEstimate:
    """Score-function estimate (f(X) - b) * (X - p) for a given sample."""
    value, _, aux = eval_objective(f, hard.onehot)
    return GradientEstimate(
        grad=reinforce_apply(dist.probs, hard.onehot, value, baseline),
        kind="reinforce",
        objective_value=value,
        hard_sample=hard,
        aux_grads=aux,
    )


def reinforce_grad(dist: FactorizedCategorical, f, rng,
                   baseline: Optional[float] = None) -> GradientEstimate:
    _, cat_rng = split_rng(rng)
    return reinforce_estimate_for_sample(dist, f, sample(dist, cat_rng), baseline)


# ---------------------------------------------------------------------------
# Diffusion-based estimators
# ---------------------------------------------------------------------------


def _trajectory_for(dist: FactorizedCategorical, config: EstimatorConfig, rng):
    noise_rng, cat_rng = split_rng(rng)
    schedule = config.schedule()
    tape = Tape()
    logits = tape.lift(dist.logits, requires_grad=True)
    noise = draw_noise(schedule, dist.length, dist.categories, noise_rng)
    base = "mle" if config.kind == "redge-cov" else None
    traj = sample_trajectory(logits, schedule, noise, base=base,
                             base_backprop=config.base_backprop)
    return tape, logits, traj, schedule, cat_rng


def redge_soft_grad(dist: FactorizedCategorical, f, config: EstimatorConfig,
                    rng) -> GradientEstimate:
    """Pathwise gradient through the full relaxed trajectory."""
    tape, logits, traj, _, _ = _trajectory_for(dist, config, rng)
    out = f(traj.soft_sample)
    tape.backward(out)
    return GradientEstimate(
        grad=grad_or_zero(logits),
        kind=config.kind,
        objective_value=float(out.value[0, 0]),
        soft_sample=traj.soft_sample.value,
        aux_grads=tape.named_grads(),
        steps=config.steps,
    )


def _hard_diffusion_estimate(dist: FactorizedCategorical, f, config: EstimatorConfig, rng):
    """Shared machinery for the hard diffusion estimators.

    The hard sample is drawn once, from the denoiser probabilities at the
    earliest positive timestep; the gradient is the transported cotangent
    of f at that sample, realized as a backward pass along the soft
    path seeded with stop_grad(grad f(X0)).
    """
    tape, logits, traj, schedule, cat_rng = _trajectory_for(dist, config, rng)
    probs_last = traj.final_denoiser.value
    with np.errstate(divide="ignore"):
        log_last = np.log(probs_last)
    hard = sample_onehot_rows(log_last, cat_rng)
    value, gx, aux = eval_objective(f, hard.onehot)
    tape.backward(traj.soft_sample, seed=gx)
    grad = grad_or_zero(logits)
    return grad, value, hard, probs_last, gx, aux, traj


def redge_hard_grad(dist: FactorizedCategorical, f, config: EstimatorConfig,
                    rng) -> GradientEstimate:
    grad, value, hard, probs_last, _, aux, traj = _hard_diffusion_estimate(dist, f, config, rng)
    return GradientEstimate(
        grad=grad,
        kind=config.kind,
        objective_value=value,
        hard_sample=hard,
        soft_sample=traj.soft_sample.value,
        aux_grads=aux,
        steps=config.steps,
    )


def redge_max_grad(dist: FactorizedCategorical, f, config: EstimatorConfig,
                   rng) -> GradientEstimate:
    """Hard diffusion gradient with the last-step block upgraded to ReinMax.

    The hard-path gradient splits at the final transition into a direct
    logits term, Cov(d) grad f(X0) with d the last denoiser output, plus the
    term transported through the earlier states.  The direct term is replaced
    by the trapezoidal block 1/2 {Cov(d) + (X0-d)(X0-d)^T} grad f(X0); the
    transported term is kept as is.
    """
    grad, value, hard, d_last, gx, aux, traj = _hard_diffusion_estimate(dist, f, config, rng)
    delta = hard.onehot - d_last
    correction = 0.5 * (delta * (delta * gx).sum(axis=1, keepdims=True)
                        - covariance_apply(d_last, gx))
    return GradientEstimate(
        grad=grad + correction,
        kind=config.kind,
        objective_value=value,
        hard_sample=hard,
        soft_sample=traj.soft_sample.value,
        aux_grads=aux,
        steps=config.steps,
    )


# kind -> estimator(dist, f, config, rng); "redge-cov" is the hard path, whose
# trajectory starts from the moment-matched reference for that kind.
_ESTIMATORS = {
    "st": lambda dist, f, config, rng: st_grad(dist, f, rng),
    "reinmax": lambda dist, f, config, rng: reinmax_grad(dist, f, rng),
    "gs-st": lambda dist, f, config, rng: gumbel_softmax_st_grad(dist, f, config.tau, rng),
    "reinforce": lambda dist, f, config, rng: reinforce_grad(dist, f, rng, config.baseline),
    "redge": redge_hard_grad,
    "redge-soft": redge_soft_grad,
    "redge-max": redge_max_grad,
    "redge-cov": redge_hard_grad,
}

ESTIMATOR_KINDS = tuple(_ESTIMATORS)


def estimate(dist: FactorizedCategorical, f, config: EstimatorConfig,
             rng=None) -> GradientEstimate:
    """Dispatch on ``config.kind``; ``rng`` defaults to ``config.seed``."""
    if config.kind not in _ESTIMATORS:
        raise ValueError(f"unknown estimator kind {config.kind!r}")
    return _ESTIMATORS[config.kind](dist, f, config, config.seed if rng is None else rng)
