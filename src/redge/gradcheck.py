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
    sample,
)
from .estimators import (
    EstimatorConfig,
    covariance_apply,
    estimate,
    estimate_for_sample,
    eval_objective,
    split_rng,
)
from .tensor import (_COLUMNWISE_K, Tape, finite_diff_gradient, grad_or_zero, jacobian,
                     softmax_rows, stable_softmax)


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


def _compare(name, got, want, tol, relative=True, norm=None) -> CheckResult:
    """The error norm of ``got`` against ``want``: relative to ``norm`` when
    one is given, else to the norm of ``want`` or absolute."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    diff = np.abs(got - want)
    idx = np.unravel_index(np.argmax(diff), diff.shape) if diff.size else (0,)
    err = np.linalg.norm(got - want)
    if norm is not None:
        err /= norm
    elif relative:
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
    """Both algebraic ReinMax forms agree sample by sample.

    Their difference is 2 {Cov((p+x)/2) - Cov(p)/2 - (x-p)(x-p)^T/4} applied
    to grad f, so this also checks the covariance of the half-and-half mixture
    of Cat(p) and the point mass at x.
    """
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


def check_reference_moments(seed: int) -> CheckResult:
    """The chain under the moment-matched reference starts at p + sqrt(v) x1,
    with the variance v = p(1-p) of the one-hot law (two-point enumeration)
    floored at ``path_variance_floor``."""
    rng = np.random.default_rng(seed)
    dist = _random_dist(rng, length=3, categories=4)
    schedule = diffusion.linear_schedule(3)
    noise = diffusion.draw_noise(schedule, 3, 4, rng)
    tape = Tape()
    logits = tape.constant(dist.logits)
    got = diffusion.composite_trajectory(logits, schedule, noise, logits)[0][1].value
    p = dist.probs
    v = np.maximum(p * (1 - p) ** 2 + (1 - p) * p**2, diffusion.path_variance_floor(4))
    want = p + np.sqrt(v) * noise.x1
    return _compare(f"reference_moments[seed={seed}]", got, want, 1e-12, relative=False)


def _chain_outputs(chain, theta, schedule, noise, cotangent):
    """Soft sample, last denoiser and logits gradient under ``cotangent``
    and the standard reference; ``chain`` is a one-node chain of
    ``diffusion`` (its soft sample is its last denoiser) or its
    ``composite_trajectory`` (the denoiser of its state at t1)."""
    tape = Tape()
    logits = tape.lift(theta, requires_grad=True)
    if chain is diffusion.composite_trajectory:
        *_, (_, x), (_, soft) = chain(logits, schedule, noise)
        d_last = diffusion.denoiser(logits, x, schedule.t1, schedule).value
    else:
        soft = chain(logits, schedule, noise)
        d_last = soft.value
    tape.backward(soft, seed=cotangent)
    return soft.value, d_last, grad_or_zero(logits)


def check_fused_chain(seed: int) -> list:
    """``sample_trajectory``'s category-major chain against its composite
    oracle under the standard reference, per noise level and side of the
    column rule (``tensor._COLUMNWISE_K``), over K in {3, 16} and {17, 20},
    n in {2, 4, 16}, and two rows (one row on odd seeds): bit for bit for
    the deterministic chain, else to 1e-12 relative (the worst quantity is
    reported).  K = 2 runs the gap chain (see :func:`check_gap_chain`).
    Under a reference node ``sample_trajectory`` runs the composite chain
    itself, so there is no fused form to check."""
    rng = np.random.default_rng(seed)
    length = 1 if seed % 2 else 2
    results = []
    for eta in ("zero", "half", "full"):
        tol = 0.0 if eta == "zero" else 1e-12
        for ks in ((3, _COLUMNWISE_K), (_COLUMNWISE_K + 1, 20)):
            worst = None
            for k in ks:
                for n in (2, 4, 16):
                    theta = 1.5 * rng.standard_normal((length, k))
                    schedule = diffusion.linear_schedule(n, eta=eta)
                    noise = diffusion.draw_noise(schedule, length, k, rng)
                    cotangent = rng.standard_normal((length, k))
                    got, want = (_chain_outputs(chain, theta, schedule, noise, cotangent)
                                 for chain in (diffusion.sample_trajectory,
                                               diffusion.composite_trajectory))
                    for what, a, b in zip(("soft", "denoiser", "grad"), got, want):
                        r = _compare(f"fused_chain_{what}[eta={eta},L={length},"
                                     f"K={k},n={n},seed={seed}]", a, b, tol)
                        if worst is None or not r.error <= worst.error:
                            worst = r
            results.append(worst)
    return results


def check_gap_chain(seed: int) -> list:
    """``sample_trajectory`` at K = 2 under the standard reference (the gap
    chain) against its composite oracle, per noise level and quantity, over
    n in {2, 4, 16} and one and two rows; the worst case of each is
    reported.  At eta zero and full, rows with logit gaps of +-800 (n in
    {4, 16}) pass the chain's exp clip at 709; the chains run under
    ``np.errstate(over="raise", invalid="raise")``, so an overflow raises.

    The soft sample and the last denoiser must agree to 1e-12 relative.
    The gradient must agree to 1e-11 times the cotangent's norm, not
    relative to itself: where the gradient is small against the cotangent,
    the oracle's own d_0 (g_0 - d_0 g_0 - d_1 g_1) cancels, and a bound
    relative to the gradient would measure the oracle's rounding."""
    rng = np.random.default_rng(seed)
    results = []
    for eta in ("zero", "half", "full"):
        worst = {}
        cases = [(n, length, 0.0) for n in (2, 4, 16) for length in (1, 2)]
        if eta != "half":
            cases += [(n, 2, 800.0) for n in (4, 16)]
        for n, length, gap in cases:
            theta = 1.5 * rng.standard_normal((length, 2))
            theta[:, 0] += gap * (-1.0) ** np.arange(length)   # gaps +gap, -gap
            schedule = diffusion.linear_schedule(n, eta=eta)
            noise = diffusion.draw_noise(schedule, length, 2, rng)
            cotangent = rng.standard_normal((length, 2))
            with np.errstate(over="raise", invalid="raise"):
                got, want = (_chain_outputs(chain, theta, schedule, noise, cotangent)
                             for chain in (diffusion.sample_trajectory,
                                           diffusion.composite_trajectory))
            tag = f",gaps=+-{gap:g}" if gap else ""
            for what, a, b in zip(("soft", "denoiser", "grad"), got, want):
                name = f"gap_chain_{what}[eta={eta},L={length},n={n}{tag},seed={seed}]"
                if what == "grad":
                    r = _compare(name, a, b, 1e-11, norm=np.linalg.norm(cotangent))
                else:
                    r = _compare(name, a, b, 1e-12)
                if what not in worst or not r.error <= worst[what].error:
                    worst[what] = r
        results.extend(worst.values())
    return results


def check_final_draw(seed: int) -> list:
    """The final draw in expectation: with the path noise frozen from
    ``split_rng(seed)[0]`` and grad f affine, the chain's VJP seeded with
    grad f(X), summed over every one-hot X weighted by its probability under
    the soft sample s, is the ``redge-soft`` gradient, the VJP seeded with
    grad f(s) = sum_X P_s(X) grad f(X).  So ``redge`` adds only the draw's
    variance to ``redge-soft``.  Random quadratics over shapes with
    L K <= 8 (both chains: the gap chain at K = 2), n in {3, 4, 8}, eta
    zero and half; the worst shape per (eta, n) is reported.  The error is
    taken relative to the largest seed grad f(X), as :func:`check_gap_chain`
    bounds by the cotangent, since at n = 8 the chain's gradient can nearly
    vanish."""
    rng = np.random.default_rng(seed)
    results = []
    for eta in ("zero", "half"):
        for n in (3, 4, 8):
            config = EstimatorConfig(kind="redge-soft", steps=n, eta=eta)
            schedule = config.schedule()
            worst = None
            for length, k in ((1, 2), (4, 2), (1, 3), (2, 3), (2, 4), (1, 8)):
                dist = _random_dist(rng, length, k)
                f = random_quadratic(rng, length, k)
                want = estimate(dist, f, config, seed).grad
                noise = diffusion.draw_noise(schedule, length, k, split_rng(seed)[0])
                tape = Tape()
                logits = tape.lift(dist.logits, requires_grad=True)
                soft = diffusion.sample_trajectory(logits, schedule, noise)
                got, scale = np.zeros_like(want), 0.0
                for x in enumerate_onehots(length, k):
                    gx = eval_objective(f, x.onehot)[1]
                    tape.backward(soft, seed=gx)
                    weight = np.prod(soft.value[np.arange(length), x.indices])
                    got += weight * grad_or_zero(logits)
                    scale = max(scale, float(np.linalg.norm(gx)))
                tape.release()
                r = _compare(f"final_draw[eta={eta},L={length},K={k},n={n},seed={seed}]",
                             got, want, 1e-12, norm=scale)
                if worst is None or not r.error <= worst.error:
                    worst = r
            results.append(worst)
    return results


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
            return float(f(diffusion.sample_trajectory(tape.constant(la), schedule,
                                                       noise)).value[0, 0])
    elif kind in ("redge", "redge-cov"):
        schedule = config.schedule()
        noise = diffusion.draw_noise(schedule, length, categories, split_rng(seed)[0])
        gx = eval_objective(f, est.hard_sample.onehot)[1]

        def frozen(la):
            tape = Tape()
            logits, reference = tape.constant(la), None
            if kind == "redge-cov":
                # without base_backprop the moments stay frozen at theta0
                reference = logits if config.base_backprop else tape.constant(dist.logits)
            soft = diffusion.sample_trajectory(logits, schedule, noise, reference)
            return float((soft.value * gx).sum())
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
    check_reference_moments,
)


def run_gradcheck(seeds=(0, 1, 2, 3, 4), name_filter: Optional[str] = None) -> list:
    """Run the oracle suite over the given seeds; returns all CheckResults."""
    results = []
    for seed in seeds:
        for check in _SINGLE_CHECKS:
            if name_filter and name_filter not in check.__name__:
                continue
            results.append(check(seed))
        for check in (check_fused_chain, check_gap_chain, check_final_draw, check_pathwise_fd):
            if not name_filter or name_filter in check.__name__:
                results.extend(check(seed))
    return results
