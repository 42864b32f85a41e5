"""The linear interpolation schedule, closed-form denoisers, and DDIM transitions.

The forward path interpolates x_t = (1 - t) * x0 + t * x1 between a factorized
categorical target at t=0 and a Gaussian reference at t=1, so alpha_t = 1 - t
and sigma_t = t.  For one-hot targets the posterior-mean denoiser has a
closed form,

    denoise(x, t) = softmax(logits + c_t * x),    c_t = alpha_t / sigma_t^2 = (1 - t) / t^2,

so reverse transitions need no learned model.  Every reverse transition from
t down to s is one DDIM update (Song et al. 2021, arXiv 2010.02502),

    x_s = a * denoise(x_t, t) + b * x_t + eta_s * z,
    r = sqrt(sigma_s^2 - eta_s^2),  b = r / sigma_t,  a = alpha_s - alpha_t * r / sigma_t,

with eta_s in {0, sigma_s / 2, sigma_s}; eta = 0 is the deterministic
sampler.  For the covariance-corrected estimator the reference at t=1 is the
moment-matched diagonal Gaussian of a categorical: with p the row softmax of
a reference logits node, N(p, diag(v)) with v = max(p(1-p),
path_variance_floor(K)).  Its denoiser gains a per-coordinate precision
weighting 1/v, and its noisy steps draw their fresh noise from N(p, diag(v)).

:func:`sample_trajectory` picks one of three implementations from its input:

- K = 2 under the standard reference runs on the per-row gap
  delta = x_0 - x_1.  The denoiser softmax(theta + c_t x) of a binary row
  depends on x only through z = theta_0 - theta_1 + c_t delta, so the chain
  works on (L,) arrays with one exp per row and step, and the whole chain
  depends on the logits only through the gap g = theta_0 - theta_1: one
  input direction per row.  It therefore runs in forward mode, carrying
  the scalar tangent d delta / d g beside delta (the K = 2 row of the
  recurrence J_s = a S (I + c J_t) + b J_t), and keeps only the soft
  sample's derivative in g; it stores no step and its VJP has no sweep
  loop.  At K >= 3 a row's chain depends on K - 1 logit directions, so
  forward mode would carry K - 1 tangents per row where the reverse sweep
  carries one cotangent.
- Any other K under the standard reference runs category-major, on (K, L)
  transposes, in one workspace per call: the n-1 denoiser outputs, the
  state, the sweep's cotangent and scratch, and the soft sample it returns
  are all slots of a single allocation.  The chain node keeps the workspace
  alive, and so does a kept soft sample, since it is a view of it.
- A reference node runs :func:`composite_trajectory` on the caller's tape,
  so gradients reach the reference moments exactly as far as they flow into
  the reference node (the logits themselves, their ``detach()`` or a
  constant).

Every grid ends with a = 1, b = 0 and eta = 0, so each chain ends at its last
denoiser output, the relaxed sample.  The first two run on arrays, keep no
intermediate state, compute that output once and enter the tape as one node
whose VJP is closed-form.  Each makes one workspace allocation per call, the
step's largest short-lived block: once the first one is freed, glibc sets
its dynamic trim threshold to twice its size, and while that stays above the
heap extent of a step, the heap stays mapped between estimates instead of
being trimmed and faulted back in.  The gap chain needs only six (L,) rows,
as many as the estimate holds beside them (the logits, the noise gaps, the
soft sample and the kept derivative), so its workspace has eight: with a
five-row workspace, every ``poly-redge16`` step re-faulted about 700 pages
and took about 1 ms longer.  The denoisers and :func:`ddim_step` are also
built from tape nodes; composed by :func:`composite_trajectory`, which keeps
every state, they are the oracle for both one-node chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor import (_EXP_FLOOR, Node, Tape, as_matrix, covariance_apply_by_category,
                     softmax_by_category, softmax_rows, stable_softmax)

# Lower clamp of :func:`path_variance_floor`; it binds only above about
# 900,000 categories.
VAR_FLOOR = 1e-6


def path_variance_floor(categories: int) -> float:
    """Floor on the per-coordinate variances of the moment-matched reference.

    Sharpening rows send per-coordinate variances p(1-p) toward zero and the
    precision weights 1/v without bound, which saturates every softmax
    along the path and collapses its gradients (a runaway feedback: sharper
    probabilities -> larger weights -> sharper states).  Flooring just below
    the uniform-distribution coordinate variance caps the weights near the
    category count while leaving the informative (high-probability)
    coordinates untouched; the factor keeps exactly-uniform rows strictly off
    the clamp so the path stays smooth there.
    """
    uniform_var = (1.0 / categories) * (1.0 - 1.0 / categories)
    return max(VAR_FLOOR, 0.9 * uniform_var)

_BOUNDARY_TOL = 1e-12
# Rows of the gap chain's workspace, of which it uses six.  While it is live
# an estimate also holds the logits (2 rows), the noise gaps (1), the soft
# sample (2) and the kept derivative (1), so a step's heap extent is the
# block plus about six rows.  glibc trims the heap once its free top reaches
# twice the largest block it has unmapped; eight rows keep the extent below
# that with over a row to spare (see the module docstring).
_GAP_WORKSPACE_ROWS = 8
_BELOW_ONE = math.nextafter(1.0, 0.0)
_FLOAT_MAX = float(np.finfo(np.float64).max)


# eta_t / sigma_t for each named noise level of the reverse chain.
_ETA_SCALES = {"zero": 0.0, "half": 0.5, "full": 1.0}


@dataclass(frozen=True)
class Schedule:
    """The linear schedule alpha_t = 1 - t, sigma_t = t on a timestep grid.

    The grid is a strictly decreasing array of timesteps from 1.0 down to 0.0;
    end points within 1e-12 of those are stored as exactly 1.0 and 0.0, so
    the last transition is always x_0 = denoise(x_t1, t1).  ``eta_name`` sets
    the per-step noise: "zero" (eta_t = 0, deterministic), "half"
    (eta_t = sigma_t / 2) or "full" (eta_t = sigma_t).  The monotonicity of
    alpha and sigma and 0 <= eta <= sigma hold by construction, so only the
    grid and the name are checked.

    ``transitions`` holds one (t, s, c_t, a, b, eta_s) per reverse step
    t -> s, in chain order (see :func:`ddim_step` for a, b and eta_s).
    """

    grid: np.ndarray
    eta_name: str = "zero"
    transitions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.array(self.grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-D array with at least two timesteps")
        if not (abs(grid[0] - 1.0) <= _BOUNDARY_TOL and abs(grid[-1]) <= _BOUNDARY_TOL):
            raise ValueError("grid must run from 1.0 down to 0.0")
        grid[0], grid[-1] = 1.0, 0.0
        if not np.all(np.diff(grid) < 0.0):
            raise ValueError("grid must be strictly decreasing")
        if self.eta_name not in _ETA_SCALES:
            raise ValueError(f"unknown eta schedule {self.eta_name!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "transitions", tuple(
            (t, s, self.coef_ratio(t)) + _transition(s, t, self)
            for t, s in zip(grid[:-1].tolist(), grid[1:].tolist())))

    @staticmethod
    def alpha(t: float) -> float:
        return 1.0 - t

    @staticmethod
    def sigma(t: float) -> float:
        return float(t)

    def eta(self, t: float) -> float:
        return _ETA_SCALES[self.eta_name] * float(t)

    @staticmethod
    def coef_ratio(t: float) -> float:
        """c_t = alpha_t / sigma_t^2 = (1 - t) / t^2; undefined at t=0, and
        rejected below t of about 7.46e-155, where it overflows."""
        if t <= 0.0:
            raise ValueError(f"c_t undefined at t={t}: sigma is zero")
        c = (1.0 - t) / (t * t) if t * t > 0.0 else math.inf
        if not math.isfinite(c):
            raise ValueError(f"c_t = (1 - t) / t^2 is not finite at t={t}")
        return c

    @staticmethod
    def t_for_coef(c: float) -> float:
        """Inverse of :meth:`coef_ratio`: the t in (0, 1) with (1-t)/t^2 = c.

        t = 2 / (1 + sqrt(1 + 4c)), with the root taken as hypot(1, 2 sqrt(c))
        so that no step overflows up to the largest float.  Below c of about
        1e-16 the exact t rounds to 1; it is kept just under 1 instead.
        """
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"c must be finite and positive, got {c}")
        return min(2.0 / (1.0 + math.hypot(1.0, 2.0 * math.sqrt(c))), _BELOW_ONE)

    @property
    def t1(self) -> float:
        """Earliest positive timestep (the one that controls gradient decay)."""
        return float(self.grid[-2])


def uniform_grid(n: int, t1: Optional[float] = None) -> np.ndarray:
    """Decreasing grid of n timesteps, t_k = k/(n-1).

    With a ``t1`` override the earliest positive step is pinned to ``t1`` and
    the remaining positive steps are spread uniformly between t1 and 1.
    """
    if n < 2:
        raise ValueError("need at least two timesteps")
    if t1 is None:
        return np.linspace(1.0, 0.0, n)
    if not 0.0 < t1 <= 1.0:
        raise ValueError("t1 must lie in (0, 1]")
    if n == 2:
        if abs(t1 - 1.0) > _BOUNDARY_TOL:
            raise ValueError("with n=2 the only positive timestep is 1.0")
        return np.array([1.0, 0.0])
    return np.concatenate([np.linspace(1.0, t1, n - 1), [0.0]])


def linear_schedule(n: int = 2, t1: Optional[float] = None, eta: str = "zero",
                    grid: Optional[np.ndarray] = None) -> Schedule:
    """Linear schedule on ``grid``, by default :func:`uniform_grid` (n, t1).

    ``eta`` names the per-step noise: "zero", "half" or "full" (see
    :class:`Schedule`).
    """
    if grid is None:
        grid = uniform_grid(n, t1)
    return Schedule(grid=grid, eta_name=eta)


def _as_node(tape: Tape, x) -> Node:
    return x if isinstance(x, Node) else tape.constant(x)


def denoiser(logits: Node, x, t: float, schedule: Schedule) -> Node:
    """Posterior-mean denoiser softmax(logits + c_t * x); row-stochastic."""
    c = schedule.coef_ratio(t)
    x = _as_node(logits.tape, x)
    return softmax_rows(logits + x * c)


def denoiser_cov(logits: Node, x, t: float, schedule: Schedule, mu, v) -> Node:
    """Denoiser under the diagonal Gaussian reference N(mu, diag(v)).

    softmax(logits + (alpha_t/sigma_t^2) * lam * (x - sigma_t*mu - alpha_t/2)),
    with lam = 1/v elementwise.  For row-constant lam the alpha_t/2 shift is a
    per-row constant and cancels inside the softmax.
    """
    tape = logits.tape
    c = schedule.coef_ratio(t)
    a_t, s_t = schedule.alpha(t), schedule.sigma(t)
    x = _as_node(tape, x)
    mu = _as_node(tape, mu)
    v = _as_node(tape, v)
    lam = v.pow(-1.0)
    shift = x - mu * s_t - (a_t / 2.0)
    return softmax_rows(logits + lam * shift * c)


def denoiser_jacobians(logits, x, t: float, schedule: Schedule):
    """Closed-form per-row Jacobians of the denoiser.

    Returns (S, c_t * S) where S[i] = diag(d_i) - d_i d_i^T with d the
    denoiser output: the Jacobian blocks with respect to the logits and to x.
    """
    c = schedule.coef_ratio(t)
    logits = as_matrix(logits)
    x = as_matrix(x)
    d = stable_softmax(logits + c * x)
    sig = -d[:, :, None] * d[:, None, :]
    rows, cols = np.arange(d.shape[1]), np.arange(d.shape[1])
    sig[:, rows, cols] += d
    return sig, c * sig


def _transition(s: float, t: float, schedule: Schedule):
    """Coefficients (a, b, eta_s) of the reverse step t -> s; see :func:`ddim_step`."""
    if not 0.0 <= s < t <= 1.0:
        raise ValueError(f"need 0 <= s < t <= 1, got s={s}, t={t}")
    sig_s, sig_t, eta_s = schedule.sigma(s), schedule.sigma(t), schedule.eta(s)
    r = math.sqrt(sig_s * sig_s - eta_s * eta_s)
    a = schedule.alpha(s) - schedule.alpha(t) * r / sig_t
    b = r / sig_t
    return a, b, eta_s


def _missing_z(eta_s: float) -> ValueError:
    return ValueError(f"a step with eta_s = {eta_s} > 0 needs its noise z")


def ddim_step(s: float, t: float, x_t: Node, d: Node, schedule: Schedule,
              z: Optional[np.ndarray] = None) -> Node:
    """Reverse transition from time t down to s: x_s = a*d + b*x_t + eta_s*z.

    With r = sqrt(sigma_s^2 - eta_s^2), b = r / sigma_t and
    a = alpha_s - alpha_t * r / sigma_t.  ``z`` is the standard-normal draw
    for the step; it is required when eta_s > 0 and unused when eta_s = 0.
    """
    a, b, eta_s = _transition(s, t, schedule)
    if eta_s > 0.0 and z is None:
        raise _missing_z(eta_s)
    x_s = d * a + x_t * b
    if eta_s > 0.0:
        x_s = x_s + x_t.tape.constant(eta_s * as_matrix(z))
    return x_s


@dataclass(frozen=True)
class TrajectoryNoise:
    """Frozen noise draws for one trajectory: the terminal draw plus per-step z.

    ``x1`` is the standard-normal draw; under a moment-matched reference it is
    transformed to mu + sqrt(v) * x1 inside the trajectory, and each step's z
    is scaled by sqrt(v) (see :func:`composite_trajectory`).  ``step_z`` holds
    one entry per transition, None where the step is deterministic; left
    empty, every step is deterministic.  Draws have the logits' (L, K) shape,
    except that a K = 2 draw may also be given as its (L,) per-row gaps
    w_0 - w_1, the form :func:`draw_noise` stores (see there).
    """

    x1: np.ndarray
    step_z: tuple = field(default_factory=tuple)


def draw_noise(schedule: Schedule, length: int, categories: int,
               rng: np.random.Generator) -> TrajectoryNoise:
    """Draw all randomness a trajectory needs, in a fixed order: x1, then one
    z per step with eta_s > 0.  Every K = 2 chain reads a draw only through its
    gap (the moment-matched one as v_0 = v_1), so at K = 2 a draw is one
    N(0, 2) value per row, the gap of two standard normals, stored as an
    (L,) array; :func:`composite_trajectory` reads it as the rows (gap, 0)."""
    shape = (length, categories) if categories != 2 else length

    def draw():
        z = rng.standard_normal(shape)
        if categories == 2:
            z *= math.sqrt(2.0)
        return z

    x1 = draw()
    step_z = tuple([draw() if step[5] > 0.0 else None for step in schedule.transitions])
    return TrajectoryNoise(x1, step_z)


def _checked_noise(schedule: Schedule, noise: TrajectoryNoise, shape: tuple) -> tuple:
    """The draws (x1, step_z) with one z entry per transition (all None if
    ``step_z`` is empty) and a draw for every step with eta_s > 0.  Each
    draw is an (L, K) matrix of ``shape``, or at K = 2 the (L,) gaps."""
    transitions = schedule.transitions
    step_z = noise.step_z or (None,) * len(transitions)
    if len(step_z) != len(transitions):
        raise ValueError(f"step_z has {len(step_z)} entries for {len(transitions)} transitions")
    for step, z in zip(transitions, step_z):
        if z is None and step[5] > 0.0:
            raise _missing_z(step[5])

    def checked(draw):
        if draw is None:
            return None
        given = np.asarray(draw, dtype=np.float64)
        if shape[1] == 2 and given.shape == shape[:1]:
            return given
        draw = as_matrix(given)
        if draw.shape != shape:
            raise ValueError(f"noise of shape {given.shape} for logits of shape {shape}")
        return draw

    return checked(noise.x1), tuple([checked(z) for z in step_z])


def _gaps(draw: np.ndarray) -> np.ndarray:
    """The (L,) gaps w_0 - w_1 of a checked K = 2 draw."""
    return draw if draw.ndim == 1 else draw[:, 0] - draw[:, 1]


def _rows(draw: np.ndarray) -> np.ndarray:
    """A checked draw as (L, K) rows; K = 2 gaps become the rows (gap, 0)."""
    if draw.ndim == 2:
        return draw
    rows = np.zeros((draw.shape[0], 2))
    rows[:, 0] = draw
    return rows


def sample_trajectory(logits: Node, schedule: Schedule, noise: TrajectoryNoise,
                      reference: Optional[Node] = None) -> Node:
    """Run the reverse chain down the grid; return the soft sample, the
    relaxed sample on the simplex, as one node of the tape of ``logits``.

    ``reference`` selects the Gaussian at t=1: None for the standard normal,
    or a logits node whose row softmax p gives the moment-matched
    N(p, diag(max(p(1-p), path_variance_floor(K)))), so the chain starts at
    p + sqrt(v) * x1.  The moments carry gradients exactly as that node does:
    pass ``logits`` to differentiate through them, ``logits.detach()`` or a
    constant to freeze them; any other node that requires grad is rejected.
    The soft sample, the denoiser output at t1, and the logits' gradient
    come back as C-ordered (L, K) arrays.

    The implementation is chosen from the input, K and ``reference``:

    - K = 2 with the standard reference: the gap chain (:func:`_gap_chain`),
      in forward mode.  At n = 2 its soft sample is ``stable_softmax`` of
      the logits bit for bit, as the composite oracle's is; otherwise it
      agrees with :func:`composite_trajectory` to about 1e-15 relative.
      Its gradient for a cotangent G, ((G_0 - G_1) D) (1, -1) with D the
      soft sample's derivative in the logit gap, agrees to about 1e-12
      times the cotangent's norm (``gradcheck.check_gap_chain``).
    - Any other K with the standard reference: the category-major chain
      (:func:`_category_chain`).  It runs on arrays and enters the tape as
      one node of ``logits`` whose VJP is the closed-form reverse sweep over
      the stored denoiser outputs d_k: for a cotangent g on the state after
      step k, u = Cov(d_k)(a_k g) is the logits' share and b_k g + c_k u the
      cotangent on the state before.  It equals the tape gradient of
      :func:`composite_trajectory` bit for bit at eta zero and to 1e-12
      relative otherwise (``gradcheck.check_fused_chain``).
    - Any reference node: :func:`composite_trajectory` itself, on the
      caller's tape, so gradients reach the moments through its nodes.
    """
    if reference is None:
        if logits.shape[1] == 2:
            return _gap_chain(logits, schedule, noise)
        return _category_chain(logits, schedule, noise)
    if reference is not logits and reference.requires_grad:
        raise ValueError("reference must be the logits node itself or carry no gradient")
    return composite_trajectory(logits, schedule, noise, reference)[-1][1]


def _gap_chain(logits: Node, schedule: Schedule, noise: TrajectoryNoise) -> Node:
    """The K = 2 standard-reference chain on the per-row gap delta = x_0 - x_1,
    in forward mode.

    The denoiser pair of z = g + c delta, with g = theta_0 - theta_1, is
    d_0 = 1/(1+e) and d_1 = e d_0 with e = exp(min(-z, 709)) (finite).  Each
    of the n-2 intermediate transitions sets
    delta <- b delta + 2a d_0 - a + eta_s gap(z_s) for its noise z_s.  The
    last has a = 1, b = 0 and eta = 0 on every grid, so the soft sample is
    its denoiser, ``stable_softmax`` of the rows (z, 0), computed here one
    column at a time in that function's operation order; at n = 2 (c = 0) it
    is ``stable_softmax`` of the logits bit for bit.  z is first clamped at
    the largest float, which changes no finite z: a logit gap that overflows
    to +inf then saturates its row as a finite one does, where the row max
    would give inf - inf.

    The chain depends on the logits only through g, so beside delta it
    carries the tangent J = d delta / d g, zero at x1: with q = 2a d_0 d_1
    each intermediate step sets J <- (b + c q) J + q.  After the last
    denoiser, D = s_0 s_1 (1 + c J) is d soft_0 / d g per row, computed as
    p + (p c) J with p = s_0 s_1, so that a huge c at a tiny t1 meets the
    tiny p of a saturated row before it meets J.  The node's VJP maps a
    cotangent G to ((G_0 - G_1) D) (1, -1): no step is stored and there is
    no sweep loop.

    A call allocates a workspace whose first six rows hold g, delta, e,
    d_0, a work row and the bound of the current clamp (its size keeps the
    heap mapped, see ``_GAP_WORKSPACE_ROWS``), the (L, 2) soft sample and
    the (L,) row that carries J and then D; only the last two outlive the
    call, and the chain node's VJP holds D.  The VJP allocates only the gradient it returns, so
    a second backward pass is bit-identical.  Against the composite
    oracle's reverse sweep, the soft sample is bit-identical and the
    gradient differs in its last bits.
    """
    x1, step_z = _checked_noise(schedule, noise, logits.shape)
    transitions = schedule.transitions
    theta = logits.value
    length = theta.shape[0]
    gap_theta, delta, e, d0, work, bound = np.empty((_GAP_WORKSPACE_ROWS, length))[:6]
    tangent = np.zeros(length)
    np.subtract(theta[:, 0], theta[:, 1], out=gap_theta)
    np.copyto(delta, _gaps(x1))
    bound.fill(709.0)   # numpy's minimum and maximum are slower with a scalar operand
    for (t, s, c, a, b, eta_s), step in zip(transitions[:-1], step_z):
        np.multiply(delta, -c, out=e)
        np.subtract(e, gap_theta, out=e)   # -z
        np.minimum(e, bound, out=e)
        np.exp(e, out=e)
        np.add(e, 1.0, out=d0)
        np.divide(1.0, d0, out=d0)
        np.multiply(d0, 2.0 * a, out=work)
        np.multiply(e, d0, out=e)   # d_1
        np.multiply(e, work, out=e)   # q
        np.multiply(e, c, out=d0)
        np.add(d0, b, out=d0)
        np.multiply(tangent, d0, out=tangent)
        np.add(tangent, e, out=tangent)
        np.subtract(work, a, out=work)
        np.multiply(delta, b, out=delta)
        np.add(delta, work, out=delta)
        if eta_s > 0.0:
            np.multiply(_gaps(step), eta_s, out=work)
            np.add(delta, work, out=delta)
    # stable_softmax of the rows (z, 0): z in delta, the row max in work and
    # the second column's exponent in d0
    c = transitions[-1][2]
    np.multiply(delta, c, out=delta)
    np.add(gap_theta, delta, out=delta)
    bound.fill(_FLOAT_MAX)
    np.minimum(delta, bound, out=delta)   # an overflowed gap: inf - inf below
    bound.fill(0.0)
    np.maximum(delta, bound, out=work)
    np.subtract(delta, work, out=delta)
    np.subtract(0.0, work, out=d0)
    soft = np.empty(theta.shape)
    bound.fill(_EXP_FLOOR)
    for z in (delta, d0):
        np.maximum(z, bound, out=z)
        np.exp(z, out=z)
    np.add(delta, d0, out=work)
    np.divide(delta, work, out=soft[:, 0])
    np.divide(d0, work, out=soft[:, 1])
    np.multiply(soft[:, 0], soft[:, 1], out=work)   # p
    np.multiply(work, c, out=e)
    np.multiply(tangent, e, out=tangent)
    derivative = np.add(tangent, work, out=tangent)

    def vjp(g):
        grad = np.empty(g.shape)
        np.subtract(g[:, 0], g[:, 1], out=grad[:, 0])
        np.multiply(grad[:, 0], derivative, out=grad[:, 0])
        np.negative(grad[:, 0], out=grad[:, 1])
        return grad

    return logits.apply(soft, vjp)


def _category_chain(logits: Node, schedule: Schedule, noise: TrajectoryNoise) -> Node:
    """:func:`sample_trajectory` under the standard reference, category-major.

    The chain and its sweep work on (K, L) transposes, so each row's max,
    total and broadcast is one contiguous op over L
    (``tensor.softmax_by_category``, ``tensor.covariance_apply_by_category``).
    The row-major (L, K) formulas reduce over categories on the same (K, L)
    blocks (``tensor.row_reduce``), so the results are bit-identical to them.

    A call makes one allocation, an (n-1 + 6, K, L) workspace, and carves
    it by plain indexing into slots of K L floats:

    - the n-1 denoiser outputs d_k, category-major;
    - theta, the state and a work array, which the sweep takes over as u,
      the cotangent and tmp once the forward pass has spent them;
    - the sweep's gradient, and a slot whose first row is the (L,) column
      scratch of the ``tensor`` kernels;
    - the soft sample, C-ordered (L, K).

    The forward pass stops at the last denoiser, whose transpose is the soft
    sample.  The sweep writes only its own slots, never the soft sample or
    the d_k, so a second backward pass over the node gives the same gradient
    bit for bit; the gradient it returns is the one array it allocates.  The
    chain node's VJP holds the workspace, and so does a kept soft sample, a
    view of it.  Each call has a workspace of its own.  Allocating it at once
    also keeps the heap mapped: its size sets glibc's dynamic trim threshold
    above what the rest of a step frees, where a dozen smaller arrays let
    glibc return the heap top after every estimate and fault it back in on
    the next one.
    """
    x1, step_z = _checked_noise(schedule, noise, logits.shape)
    transitions = schedule.transitions
    length, categories = logits.shape
    steps = len(step_z)
    workspace = np.empty((steps + 6, categories, length))
    block, (theta, x, work, grad, spare) = workspace[:steps], workspace[steps:steps + 5]
    soft = workspace[steps + 5].reshape(length, categories)
    col = spare[0]
    np.copyto(theta, logits.value.T)
    np.copyto(x, x1.T)
    for (t, s, c, a, b, eta_s), z, d in zip(transitions, step_z, block):
        np.multiply(x, c, out=d)
        np.add(theta, d, out=d)
        softmax_by_category(d, col)
        if not s:
            break   # the last transition's state is this denoiser
        np.multiply(x, b, out=x)
        np.multiply(d, a, out=work)
        np.add(work, x, out=x)
        if eta_s > 0.0:
            np.copyto(work, z.T)   # a ufunc would buffer the transpose
            np.multiply(work, eta_s, out=work)
            np.add(x, work, out=x)
    np.copyto(soft, block[-1].T)
    u, cot, tmp = theta, x, work   # spent by the forward pass

    def vjp(g):
        last = steps - 1
        np.copyto(cot, g.T)   # the cotangent on the current state
        for k in range(last, -1, -1):
            c, a, b = transitions[k][2:5]
            np.multiply(cot, a, out=tmp)
            out = grad if k == last else u   # the last step's u starts the gradient
            covariance_apply_by_category(block[k], tmp, out, col)
            if out is u:
                np.add(grad, u, out=grad)
            if not k:
                break   # the first state carries no gradient
            np.multiply(cot, b, out=cot)
            np.multiply(out, c, out=tmp)
            np.add(cot, tmp, out=cot)
        return grad.T.copy()

    return logits.apply(soft, vjp)


def composite_trajectory(logits: Node, schedule: Schedule, noise: TrajectoryNoise,
                         reference: Optional[Node] = None):
    """The chain composed on the tape from :func:`denoiser` (or
    :func:`denoiser_cov`) and :func:`ddim_step`: the oracle of the standard
    reference's one-node chains, and :func:`sample_trajectory` itself under
    a reference node.

    Under the reference N(mu, V) a step with eta_s > 0 adds
    (sigma_s - r) mu + eta_s sqrt(v) z, with r = b sigma_t, in place of
    eta_s z: the fresh noise is drawn from the reference, not N(0, I), so
    x_s keeps the law of alpha_s x0 + sigma_s x1.

    Returns the states [(t, Node)]; the last is the last denoiser output
    node itself.  Gradients flow into ``reference`` as its node allows.
    """
    x1, step_z = _checked_noise(schedule, noise, logits.shape)
    tape = logits.tape
    x1 = _rows(x1)
    if reference is None:
        x = tape.constant(x1)
    else:
        mu = softmax_rows(reference)
        v = (mu * (1.0 - mu)).clamp_min(path_variance_floor(mu.shape[1]))
        root = v.sqrt()
        x = mu + root * tape.constant(x1)
    states = [(1.0, x)]
    for (t, s, c, a, b, eta_s), z in zip(schedule.transitions, step_z):
        if reference is None:
            d = denoiser(logits, x, t, schedule)
        else:
            d = denoiser_cov(logits, x, t, schedule, mu, v)
        if not s:
            x = d   # a = 1, b = 0 and eta_s = 0: the last state is this denoiser
        elif reference is None:
            x = ddim_step(s, t, x, d, schedule, None if z is None else _rows(z))
        else:
            x = d * a + x * b
            if eta_s > 0.0:
                r = b * schedule.sigma(t)
                x = x + mu * (schedule.sigma(s) - r) + root * tape.constant(eta_s * _rows(z))
        states.append((s, x))
    return states
