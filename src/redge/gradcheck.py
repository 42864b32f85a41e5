"""Oracle suite: every differentiation path checked against an independent
route.

Checks pair tape autodiff with central finite differences, closed-form
Jacobians with autodiff Jacobians, stochastic estimator means with the exact
enumeration gradient, and the single-step diffusion estimators with their
classical counterparts.  Each check reports the worst (got, want) pair so a
failure names the offending quantity directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffusion
from .analysis import random_cubic, random_linear, random_quadratic
from .categorical import (
    FactorizedCategorical,
    enumerate_onehots,
    exact_gradient,
    gumbel_noise,
    joint_probability,
    mixture_covariance_halfhalf,
    row_covariance,
)
from .estimators import (
    EstimatorConfig,
    covariance_apply,
    estimate,
    estimate_for_sample,
    eval_objective,
    split_rng,
)
from .tensor import Tape, finite_diff_gradient, grad_or_zero, jacobian, softmax_rows, stable_softmax


@dataclass
class CheckResult:
    name: str
    passed: bool
    error: float
    tolerance: float
    got: float
    want: float

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (f"[{status}] {self.name}: err={self.error:.3e} tol={self.tolerance:.1e}"
                f" (got={self.got:.9g}, want={self.want:.9g})")


def _compare(name, got, want, tol, relative=True) -> CheckResult:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    diff = np.abs(got - want)
    idx = np.unravel_index(np.argmax(diff), diff.shape) if diff.size else (0,)
    err = np.linalg.norm(got - want)
    if relative:
        err /= max(np.linalg.norm(want), 1e-12)
    return CheckResult(
        name=name,
        passed=bool(err <= tol),
        error=float(err),
        tolerance=tol,
        got=float(got[idx]) if diff.size else 0.0,
        want=float(want[idx]) if diff.size else 0.0,
    )


_ST, _REINMAX, _REINFORCE = (EstimatorConfig(kind=k) for k in ("st", "reinmax", "reinforce"))


def _random_dist(rng, length=2, categories=3, scale=1.5) -> FactorizedCategorical:
    return FactorizedCategorical(scale * rng.standard_normal((length, categories)))


# ---------------------------------------------------------------------------
# Reference forms
# ---------------------------------------------------------------------------


def soft_st_gradient(dist: FactorizedCategorical, f) -> np.ndarray:
    """Straight-through on the mean: the exact gradient of f(probs)."""
    tape = Tape()
    logits = tape.lift(dist.logits, requires_grad=True)
    tape.backward(f(softmax_rows(logits)))
    return grad_or_zero(logits)


def reinmax_standard_form(dist: FactorizedCategorical, f, hard) -> np.ndarray:
    """ReinMax as 2 Cov((p+x)/2) - Cov(p)/2 applied to grad f(x).

    The half-and-half mixture of Cat(p) and the point mass at x is itself a
    categorical with probability vector (p + x)/2, which makes this form agree
    sample by sample with the trapezoidal one of ``estimators.reinmax_apply``.
    """
    gx = eval_objective(f, hard.onehot)[1]
    p = dist.probs
    return 2.0 * covariance_apply(0.5 * (p + hard.onehot), gx) - 0.5 * covariance_apply(p, gx)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_tensor_ops(seed: int) -> CheckResult:
    """Composite tape graph against central finite differences."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.2, 2.0, (2, 3))

    def build(leaf):
        soft = leaf.softmax_rows()
        return (soft * leaf.exp()).row_sum().pow(2.0).sum() + (leaf.log() @ leaf.T).sum()

    tape = Tape()
    leaf = tape.lift(x0, requires_grad=True)
    tape.backward(build(leaf))
    got = leaf.grad

    def value(arr):
        t = Tape()
        return float(build(t.constant(arr)).value[0, 0])

    want = finite_diff_gradient(value, x0)
    return _compare(f"tensor_ops[seed={seed}]", got, want, 1e-5)


def check_softmax_jacobian(seed: int) -> CheckResult:
    """Autodiff softmax Jacobian against diag(p) - p p^T."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, (1, 4))
    tape = Tape()
    leaf = tape.lift(x, requires_grad=True)
    jac = jacobian(leaf.softmax_rows(), leaf)
    p = stable_softmax(x)[0]
    return _compare(f"softmax_jacobian[seed={seed}]", jac, np.diag(p) - np.outer(p, p), 1e-10)


def check_denoiser_jacobian(seed: int) -> CheckResult:
    """Closed-form denoiser Jacobians vs autodiff, logits and input routes."""
    rng = np.random.default_rng(seed)
    sched = diffusion.linear_schedule(2)
    k = int(rng.choice([2, 3, 8]))
    logits = rng.standard_normal((1, k))
    x = rng.standard_normal((1, k))
    t = float(rng.uniform(0.1, 1.0))
    sig_theta, sig_x = diffusion.denoiser_jacobians(logits, x, t, sched)
    tape = Tape()
    leaf = tape.lift(logits, requires_grad=True)
    xleaf = tape.lift(x, requires_grad=True)
    out = diffusion.denoiser(leaf, xleaf, t, sched)
    got = np.concatenate([jacobian(out, leaf), jacobian(out, xleaf)])
    want = np.concatenate([sig_theta[0], sig_x[0]])
    return _compare(f"denoiser_jacobian[seed={seed}]", got, want, 1e-8, relative=False)


def check_denoiser_cov_reduction(seed: int) -> CheckResult:
    """With mu=0, v=1 the precision-weighted denoiser equals the plain one."""
    rng = np.random.default_rng(seed)
    sched = diffusion.linear_schedule(2)
    logits = rng.standard_normal((2, 3))
    x = rng.standard_normal((2, 3))
    t = float(rng.uniform(0.2, 1.0))
    tape = Tape()
    leaf = tape.lift(logits)
    got = diffusion.denoiser_cov(leaf, x, t, sched, np.zeros((2, 3)), np.ones((2, 3))).value
    want = diffusion.denoiser(leaf, x, t, sched).value
    return _compare(f"denoiser_cov_reduction[seed={seed}]", got, want, 1e-12, relative=False)


def check_reduction_soft(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng)
    f = random_cubic(rng, 2, 3)
    cfg = EstimatorConfig(kind="redge-soft", steps=2)
    got = estimate(dist, f, cfg, seed).grad
    want = soft_st_gradient(dist, f)
    return _compare(f"reduction_soft_st[seed={seed}]", got, want, 1e-12)


def check_reduction_hard(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng)
    f = random_cubic(rng, 2, 3)
    cfg = EstimatorConfig(kind="redge", steps=2)
    got = estimate(dist, f, cfg, seed).grad
    want = estimate(dist, f, _ST, seed).grad
    return _compare(f"reduction_hard_st[seed={seed}]", got, want, 1e-12)


def check_reduction_reinmax(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng)
    f = random_cubic(rng, 2, 3)
    cfg = EstimatorConfig(kind="redge-max", steps=2)
    got = estimate(dist, f, cfg, seed).grad
    want = estimate(dist, f, _REINMAX, seed).grad
    return _compare(f"reduction_reinmax[seed={seed}]", got, want, 1e-12)


def check_reinmax_dual_form(seed: int, samples: int = 200) -> CheckResult:
    """Both algebraic ReinMax forms agree sample by sample."""
    from .categorical import sample

    rng = np.random.default_rng(seed)
    worst_got, worst_want, worst = 0.0, 0.0, 0.0
    for _ in range(samples):
        dist = _random_dist(rng, length=int(rng.integers(1, 3)), categories=int(rng.integers(2, 5)))
        f = random_cubic(rng, dist.length, dist.categories)
        hard = sample(dist, rng)
        a = estimate_for_sample(dist, f, _REINMAX, hard).grad
        b = reinmax_standard_form(dist, f, hard)
        err = np.abs(a - b).max()
        if err >= worst:
            worst = err
            idx = np.unravel_index(np.argmax(np.abs(a - b)), a.shape)
            worst_got, worst_want = float(a[idx]), float(b[idx])
    return CheckResult(
        name=f"reinmax_dual_form[seed={seed}]",
        passed=bool(worst <= 1e-12),
        error=float(worst),
        tolerance=1e-12,
        got=worst_got,
        want=worst_want,
    )


def _enumerated_mean(dist, f, config):
    mean_grad = np.zeros_like(dist.logits)
    for s in enumerate_onehots(dist.length, dist.categories):
        mean_grad += joint_probability(dist, s) * estimate_for_sample(dist, f, config, s).grad
    return mean_grad


def check_unbiased_st_linear(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng, length=2, categories=3)
    f = random_linear(rng, 2, 3)
    got = _enumerated_mean(dist, f, _ST)
    want = exact_gradient(dist, f)
    return _compare(f"unbiased_st_linear[seed={seed}]", got, want, 1e-10, relative=False)


def check_unbiased_reinmax_quadratic(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng, length=2, categories=3)
    f = random_quadratic(rng, 2, 3)
    got = _enumerated_mean(dist, f, _REINMAX)
    want = exact_gradient(dist, f)
    return _compare(f"unbiased_reinmax_quadratic[seed={seed}]", got, want, 1e-9, relative=False)


def check_unbiased_reinforce_cubic(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng, length=2, categories=3)
    f = random_cubic(rng, 2, 3)
    got = _enumerated_mean(dist, f, _REINFORCE)
    want = exact_gradient(dist, f)
    return _compare(f"unbiased_reinforce_cubic[seed={seed}]", got, want, 1e-9, relative=False)


def check_mixture_covariance(seed: int) -> CheckResult:
    """Half/half mixture covariance formula vs direct enumeration."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    p = rng.dirichlet(np.ones(k))
    x = np.zeros(k)
    x[rng.integers(k)] = 1.0
    q = 0.5 * (p + x)
    want = np.diag(q) - np.outer(q, q)
    got = mixture_covariance_halfhalf(p, x)
    return _compare(f"mixture_covariance[seed={seed}]", got, want, 1e-12, relative=False)


def check_mle_base_moments(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng, length=3, categories=4)
    base = diffusion.mle_base(dist)
    p = dist.probs
    got = np.concatenate([base.mu, base.v])
    want = np.concatenate([p, p * (1 - p) ** 2 + (1 - p) * p**2])
    return _compare(f"mle_base_moments[seed={seed}]", got, want, 1e-12, relative=False)


# ---------------------------------------------------------------------------
# Frozen-noise finite-difference oracles for pathwise estimators
# ---------------------------------------------------------------------------


def pathwise_fd_pair(dist: FactorizedCategorical, f, config: EstimatorConfig,
                     seed: int, h: float = 1e-5):
    """Estimator gradient and its frozen-noise finite-difference oracle.

    Hard-forward estimators are linear in the transported cotangent, so their
    oracle differentiates theta -> <grad f(X0), soft_path(theta)> with both
    the noise and the hard sample frozen; the soft estimator differentiates
    the full objective along the frozen path.
    """
    kind, length, categories = config.kind, dist.length, dist.categories
    est = estimate(dist, f, config, seed)
    if kind == "st":
        gx = eval_objective(f, est.hard_sample.onehot)[1]
        frozen = lambda la: float((stable_softmax(la) * gx).sum())
    elif kind == "gs-st":
        g = gumbel_noise(dist.logits.shape, split_rng(seed)[1])
        gx = eval_objective(f, est.hard_sample.onehot)[1]
        frozen = lambda la: float((stable_softmax((la + g) / config.tau) * gx).sum())
    elif kind == "redge-soft":
        schedule = config.schedule()
        noise = diffusion.draw_noise(schedule, length, categories, split_rng(seed)[0])

        def frozen(la):
            tape = Tape()
            traj = diffusion.sample_trajectory(tape.constant(la), schedule, noise)
            return float(f(traj.soft_sample).value[0, 0])
    elif kind in ("redge", "redge-cov"):
        schedule = config.schedule()
        noise = diffusion.draw_noise(schedule, length, categories, split_rng(seed)[0])
        gx = eval_objective(f, est.hard_sample.onehot)[1]
        if kind == "redge":
            base, backprop = None, True
        elif config.base_backprop:
            base, backprop = "mle", True
        else:
            # moments frozen at theta0, with the same floor the path applies
            p = dist.probs
            base = diffusion.GaussianBase.from_moments(
                p, p * (1.0 - p), floor=diffusion.path_variance_floor(dist.categories))
            backprop = True

        def frozen(la):
            tape = Tape()
            traj = diffusion.sample_trajectory(tape.constant(la), schedule, noise,
                                               base=base, base_backprop=backprop)
            return float((traj.soft_sample.value * gx).sum())
    else:
        raise ValueError(f"no finite-difference oracle for kind {kind!r}")
    return est.grad, finite_diff_gradient(frozen, dist.logits, h)


_PATHWISE_CASES = (
    ("st", {}),
    ("gs-st", {"tau": 0.7}),
    ("redge-soft", {"steps": 4}),
    ("redge", {"steps": 4}),
    ("redge", {"steps": 5, "t1": 0.4}),
    ("redge-cov", {"steps": 3}),
    ("redge-cov", {"steps": 3, "base_backprop": False}),
)


def check_pathwise_fd(seed: int) -> list:
    rng = np.random.default_rng(seed)
    results = []
    for kind, overrides in _PATHWISE_CASES:
        dist = _random_dist(rng, length=2, categories=3)
        f = random_cubic(rng, 2, 3)
        config = EstimatorConfig(kind=kind, **overrides)
        got, want = pathwise_fd_pair(dist, f, config, seed)
        tag = "".join(f",{k}={v}" for k, v in overrides.items())
        results.append(_compare(f"pathwise_fd_{kind}{tag}[seed={seed}]", got, want, 1e-5))
    return results


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_SINGLE_CHECKS = (
    check_tensor_ops,
    check_softmax_jacobian,
    check_denoiser_jacobian,
    check_denoiser_cov_reduction,
    check_reduction_soft,
    check_reduction_hard,
    check_reduction_reinmax,
    check_reinmax_dual_form,
    check_unbiased_st_linear,
    check_unbiased_reinmax_quadratic,
    check_unbiased_reinforce_cubic,
    check_mixture_covariance,
    check_mle_base_moments,
)


def run_gradcheck(seeds=(0, 1, 2, 3, 4), name_filter: Optional[str] = None) -> list:
    """Run the oracle suite over the given seeds; returns all CheckResults."""
    results = []
    for seed in seeds:
        for check in _SINGLE_CHECKS:
            if name_filter and name_filter not in check.__name__:
                continue
            results.append(check(seed))
        if not name_filter or name_filter in "check_pathwise_fd":
            results.extend(check_pathwise_fd(seed))
    return results
