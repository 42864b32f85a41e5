"""Vanishing-gradient analysis and bias/variance measurement.

The decay study tracks, along a sweep of the earliest positive timestep t1,
the operator norm of the full parameter Jacobian of the relaxed sampling map
together with the margin (largest minus second-largest coordinate) of the
state entering the final transition.  Off the decision boundary the norm is
bounded by

    2K(K-1) * (1 + c_{t1} * M) * exp(-margin * c_{t1} / 2),

where c_t = alpha_t / sigma_t^2 and M bounds the Jacobian of the chain up to
t1 (estimated here as the max observed over the sweep).  The log-norm slope
against c_{t1} is therefore eventually at most -margin/2.

Bias/variance reports compare estimator replications against the exact
enumeration gradient; the decomposition MSE = |bias|^2 + trace(cov) holds
exactly as computed because the same replications feed both terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .categorical import FactorizedCategorical, exact_gradient, inverse_cdf, onehot_rows
from .diffusion import (Schedule, TrajectoryNoise, composite_trajectory, linear_schedule,
                        sample_trajectory, uniform_grid)
from .estimators import (
    EstimatorConfig,
    covariance_apply,
    estimate,
    reinforce_apply,
    reinmax_apply,
)
from .tensor import Node, Tape, as_matrix, jacobian

_TIE_TOL = 1e-12

# Decay-sweep tuning: the target Jacobian norm, the smallest c, the points, the
# factor past the threshold, the re-sizing rounds and the default noise seed.
TARGET_NORM = 1e-6
SWEEP_C_MIN = 1.0
SWEEP_POINTS = 12
SWEEP_SAFETY = 1.6
SWEEP_ROUNDS = 4
NOISE_SEED = 0


@dataclass(frozen=True)
class MarginReport:
    """Argmax index, gap to the runner-up, and whether the point is on a tie."""

    argmax_index: int
    margin: float
    on_boundary: bool


def margin(x, tol: float = _TIE_TOL) -> MarginReport:
    """Gap between the largest and second-largest coordinates of a row."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("margin needs at least two coordinates")
    order = np.argsort(x)
    top, second = x[order[-1]], x[order[-2]]
    m = float(top - second)
    return MarginReport(argmax_index=int(order[-1]), margin=m, on_boundary=m <= tol)


def operator_norm(mat) -> float:
    """Spectral norm (largest singular value); 0 for an empty matrix."""
    a = np.asarray(mat, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _schedule_moving_t1(n: int, t1: float) -> Schedule:
    """Linear schedule on the uniform n-step grid with only t1 moved.

    t1 must stay below the next timestep t2 of the uniform grid so the grid
    remains strictly decreasing; with n = 2 the only positive step is t = 1,
    which cannot move.
    """
    if n < 3:
        raise ValueError(f"moving t1 needs n >= 3 timesteps, got n={n}")
    grid = uniform_grid(n)
    t2 = grid[-3]
    if not 0.0 < t1 < t2:
        raise ValueError(f"t1 must lie in (0, {t2})")
    grid[-2] = t1
    return linear_schedule(grid=grid)


@dataclass(frozen=True)
class DecayPoint:
    t1: float
    c: float
    jac_norm: float
    margin: float
    bound: float
    on_boundary: bool


@dataclass
class DecayStudy:
    """Sweep results plus the fitted asymptotic slope of log |J| vs c_{t1}."""

    points: list
    chain_bound: float       # max over the sweep of |d/dtheta (state at t1)|
    slope: Optional[float]   # least squares on the last third, prefactor removed
    limit_margin: float      # margin at the smallest t1 in the sweep

    def csv_rows(self):
        header = ["t1", "c_t1", "jac_norm", "margin", "bound_value"]
        rows = [
            [p.t1, p.c, p.jac_norm, p.margin, p.bound]
            for p in self.points
        ]
        return header, rows


def jacobian_decay_study(logits, t1_list: Sequence[float], n: int = 4,
                         x1=None) -> DecayStudy:
    """Measure Jacobian-norm decay as the earliest timestep shrinks.

    The timesteps above t1 stay fixed (the base uniform grid); only the
    earliest positive step moves.  Noise is frozen across the sweep.  Points
    whose pre-final state lands on the decision boundary are flagged and
    excluded from the slope fit.
    """
    logits = as_matrix(logits)
    if logits.shape[0] != 1:
        raise ValueError("the decay study analyzes a single categorical row")
    categories = logits.shape[1]
    t1_list = [float(t) for t in t1_list]
    schedules = [_schedule_moving_t1(n, t1) for t1 in t1_list]
    if x1 is None:
        x1 = np.random.default_rng(NOISE_SEED).standard_normal((1, categories))
    x1 = as_matrix(x1)

    raw = []
    chain_bound = 0.0
    for t1, schedule in zip(t1_list, schedules):
        tape = Tape()
        leaf = tape.lift(logits, requires_grad=True)
        states = composite_trajectory(leaf, schedule, TrajectoryNoise(x1=x1))
        jac_full = jacobian(states[-1][1], leaf)
        pre = states[-2][1]
        jac_pre = jacobian(pre, leaf)
        rep = margin(pre.value[0])
        tape.release()
        raw.append((t1, schedule.coef_ratio(t1), operator_norm(jac_full), rep))
        chain_bound = max(chain_bound, operator_norm(jac_pre))

    mk = 2.0 * categories * (categories - 1)
    points = [
        DecayPoint(
            t1=t1,
            c=c,
            jac_norm=norm,
            margin=rep.margin,
            bound=mk * (1.0 + c * chain_bound) * np.exp(-rep.margin * c / 2.0),
            on_boundary=rep.on_boundary,
        )
        for t1, c, norm, rep in raw
    ]
    slope = fit_decay_slope(points, chain_bound)
    by_t1 = min(points, key=lambda p: p.t1)
    return DecayStudy(points=points, chain_bound=chain_bound, slope=slope,
                      limit_margin=by_t1.margin)


def fit_decay_slope(points, chain_bound: float) -> Optional[float]:
    """Least-squares slope of log(|J| / (1 + c M)) vs c over the last third.

    Uses only points off the boundary with a nonzero norm; returns None when
    fewer than two remain.
    """
    usable = sorted(
        (p for p in points if not p.on_boundary and p.jac_norm > 0.0),
        key=lambda p: p.c,
    )
    if len(usable) < 2:
        return None
    tail = usable[max(len(usable) - max(2, len(usable) // 3), 0):]
    cs = np.array([p.c for p in tail])
    ys = np.array([np.log(p.jac_norm / (1.0 + p.c * chain_bound)) for p in tail])
    slope, _ = np.polyfit(cs, ys, 1)
    return float(slope)


def decay_sweep_coefs(limit_margin: float, categories: int) -> np.ndarray:
    """Log-spaced c values covering the knee and the bound-implied threshold.

    The threshold is where 2K(K-1) exp(-m c / 2) crosses ``TARGET_NORM``; the
    safety factor absorbs the drift of the margin as t1 shrinks (the probe
    margin is measured at a moderate t1, the limit margin is smaller).
    """
    c_star = bound_threshold(limit_margin, categories)
    return np.geomspace(SWEEP_C_MIN, SWEEP_SAFETY * c_star, SWEEP_POINTS)


def default_decay_study(logits, x1, n: int = 4) -> DecayStudy:
    """Probe the margin at a moderate t1, then sweep past the bound threshold.

    The margin of the pre-final state drifts downward as t1 shrinks, so the
    sweep is re-sized from the measured limit margin until it actually covers
    the bound-implied threshold (or the rounds run out, for trajectories that
    approach the decision boundary).
    """
    logits = as_matrix(logits)
    categories = logits.shape[1]
    probe = jacobian_decay_study(logits, [Schedule.t_for_coef(60.0)], n=n, x1=x1)
    if probe.points[0].on_boundary or probe.limit_margin <= 0.0:
        raise ValueError("probe trajectory lands on the decision boundary")
    margin_guess = probe.limit_margin
    for _ in range(SWEEP_ROUNDS):
        cs = decay_sweep_coefs(margin_guess, categories)
        study = jacobian_decay_study(logits, [Schedule.t_for_coef(c) for c in cs], n=n, x1=x1)
        c_star = bound_threshold(study.limit_margin, categories)
        if any(p.c >= c_star for p in study.points):
            break
        margin_guess = study.limit_margin
    return study


def bound_threshold(limit_margin: float, categories: int,
                    target_norm: float = TARGET_NORM) -> float:
    """The c at which 2K(K-1) exp(-margin c / 2) falls to ``target_norm``;
    the margin must be finite and positive (a tie has no threshold) and K at
    least 2 (one category has no bound)."""
    if not (np.isfinite(limit_margin) and limit_margin > 0.0):
        raise ValueError(f"margin must be finite and positive, got {limit_margin}")
    if categories < 2:
        raise ValueError(f"the bound needs at least two categories, got {categories}")
    mk = 2.0 * categories * (categories - 1)
    return 2.0 * np.log(mk / target_norm) / limit_margin


# ---------------------------------------------------------------------------
# Polynomial test objectives
# ---------------------------------------------------------------------------


class PolyObjective:
    """Polynomial objective, written once for (R, L, K) stacks.

    f(x) = <lin, x> + vec(x)^T quad vec(x) + <cubic, x**3> + const, with any
    of the coefficient blocks optional.  :meth:`value_batch` and
    :meth:`grad_batch` evaluate a whole stack, which keeps large-replication
    bias/variance measurements cheap for the single-shot estimators;
    :meth:`value` and :meth:`grad` evaluate one LxK point as a stack of one.
    On a tape, ``f(x)`` is one node made by ``x.apply``: its value is
    :meth:`value` and its VJP scales :meth:`grad`, which only a backward pass
    computes.
    """

    def __init__(self, shape, lin=None, quad=None, cubic=None, const: float = 0.0):
        self.shape = tuple(shape)
        size = self.shape[0] * self.shape[1]
        self.lin = None if lin is None else as_matrix(lin)
        self.quad = None if quad is None else np.asarray(quad, dtype=np.float64)
        if self.quad is not None and self.quad.shape != (size, size):
            raise ValueError("quadratic block must be (L*K, L*K)")
        self.cubic = None if cubic is None else as_matrix(cubic)
        self.const = float(const)

    def __call__(self, x: Node) -> Node:
        point = x.value
        return x.apply(np.array([[self.value(point)]]), lambda g: g[0, 0] * self.grad(point))

    def value(self, x) -> float:
        return float(self.value_batch(as_matrix(x)[None])[0])

    def grad(self, x) -> np.ndarray:
        return self.grad_batch(as_matrix(x)[None])[0]

    def value_batch(self, stack: np.ndarray) -> np.ndarray:
        out = np.full(stack.shape[0], self.const)
        if self.lin is not None:
            out += np.einsum("rlk,lk->r", stack, self.lin)
        if self.quad is not None:
            flat = stack.reshape(stack.shape[0], -1)
            out += np.einsum("ri,ij,rj->r", flat, self.quad, flat)
        if self.cubic is not None:
            out += np.einsum("rlk,lk->r", stack**3, self.cubic)
        return out

    def grad_batch(self, stack: np.ndarray) -> np.ndarray:
        g = np.zeros_like(stack)
        if self.lin is not None:
            g += self.lin
        if self.quad is not None:
            flat = stack.reshape(stack.shape[0], -1)
            g += (flat @ (self.quad + self.quad.T)).reshape(stack.shape)
        if self.cubic is not None:
            g += 3.0 * self.cubic * stack**2
        return g


def random_linear(rng: np.random.Generator, length: int, categories: int) -> PolyObjective:
    return PolyObjective((length, categories), lin=rng.uniform(-1, 1, (length, categories)))


def random_quadratic(rng: np.random.Generator, length: int, categories: int) -> PolyObjective:
    size = length * categories
    a = rng.uniform(-1, 1, (size, size))
    return PolyObjective(
        (length, categories),
        lin=rng.uniform(-1, 1, (length, categories)),
        quad=0.5 * (a + a.T),
    )


def random_cubic(rng: np.random.Generator, length: int, categories: int) -> PolyObjective:
    size = length * categories
    a = rng.uniform(-1, 1, (size, size))
    return PolyObjective(
        (length, categories),
        lin=rng.uniform(-1, 1, (length, categories)),
        quad=0.5 * (a + a.T),
        cubic=rng.uniform(-1, 1, (length, categories)),
    )


# ---------------------------------------------------------------------------
# Bias / variance against the enumeration oracle
# ---------------------------------------------------------------------------


@dataclass
class BiasVarianceReport:
    kind: str
    replications: int
    mean_grad: np.ndarray
    exact_grad: np.ndarray
    bias_norm: float
    trace_cov: float
    mse: float


_BATCHABLE_KINDS = frozenset({"st", "reinmax", "reinforce"})


def bias_variance(config: EstimatorConfig, dist: FactorizedCategorical, f,
                  replications: int, rng) -> BiasVarianceReport:
    """Replicate an estimator and compare its mean against the exact gradient.

    Covariance is normalized by R so that MSE = |bias|^2 + trace(cov) holds
    exactly for the same replications.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    exact = exact_gradient(dist, f)
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if config.kind in _BATCHABLE_KINDS and hasattr(f, "grad_batch"):
        grads = _batched_single_shot(config, dist, f, replications, rng)
    else:
        grads = np.empty((replications,) + dist.logits.shape)
        for r in range(replications):
            grads[r] = estimate(dist, f, config, rng).grad
    mean_grad = grads.mean(axis=0)
    bias = mean_grad - exact
    trace_cov = float(((grads - mean_grad) ** 2).sum() / replications)
    mse = float(((grads - exact) ** 2).sum() / replications)
    return BiasVarianceReport(
        kind=config.kind,
        replications=replications,
        mean_grad=mean_grad,
        exact_grad=exact,
        bias_norm=float(np.linalg.norm(bias)),
        trace_cov=trace_cov,
        mse=mse,
    )


def _batched_single_shot(config, dist, f, replications, rng):
    """Vectorized replications for the single-draw estimators: an (R, L, K)
    stack of inverse-CDF draws pushed through the estimators' own formulas."""
    p = dist.probs
    onehots = onehot_rows(inverse_cdf(p, rng, (replications,)), dist.categories)
    if config.kind == "reinforce":
        return reinforce_apply(p, onehots, f.value_batch(onehots), config.baseline)
    gx = f.grad_batch(onehots)
    if config.kind == "st":
        return covariance_apply(p, gx)
    return reinmax_apply(p, onehots, gx)


# ---------------------------------------------------------------------------
# Transport-map slices (binary case)
# ---------------------------------------------------------------------------


def transport_slice(theta_values: Sequence[float], quantiles: Sequence[float],
                    t1_list: Sequence[float], n: int = 4):
    """First coordinate of the relaxed sample as a function of the target weight.

    For K=2 the trajectory depends on the terminal noise only through the
    coordinate gap, an N(0, 2) draw, so a scalar quantile q pins the slice
    at the gap sqrt(2) * Phi^-1(q), passed as the (L,) gaps of
    ``TrajectoryNoise``.  Returns rows
    (t1, q, theta, output) showing the map sharpen as t1 shrinks.  Every
    quantile and every theta must lie in (0, 1), else ``ValueError``.
    """
    # Imported here: statistics brings decimal and fractions, 0.4 MB of RSS
    # that no other function of the package needs.
    from statistics import NormalDist

    for name, values in (("quantile", quantiles), ("theta", theta_values)):
        for value in values:
            if not 0.0 < value < 1.0:
                raise ValueError(f"transport_slice: {name} must lie in (0, 1), got {value}")
    # One chain per (t1, q), a row per theta; rows never mix.
    thetas = np.array(theta_values, dtype=np.float64).reshape(-1, 1)
    logits = np.log(np.hstack([thetas, 1.0 - thetas]))
    rows = []
    for t1 in t1_list:
        schedule = _schedule_moving_t1(n, t1)
        for q in quantiles:
            x1 = np.full(len(thetas), math.sqrt(2.0) * NormalDist().inv_cdf(q))
            tape = Tape()
            soft = sample_trajectory(tape.lift(logits), schedule, TrajectoryNoise(x1=x1))
            rows += [(t1, q, theta, float(p)) for theta, p in zip(theta_values, soft.value[:, 0])]
            tape.release()
    return rows
