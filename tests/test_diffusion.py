"""Schedule, denoiser, DDIM-transition, and trajectory tests.

Closed-form Jacobians are checked against tape autodiff; the single-step
reduction is checked bitwise; sampler fidelity is checked against exact
categorical probabilities at desk scale.
"""

import tracemalloc

import numpy as np
import pytest

from redge.analysis import random_linear
from redge.categorical import FactorizedCategorical, sample_onehot_rows
from redge.diffusion import (
    TrajectoryNoise,
    composite_trajectory,
    ddim_step,
    denoiser,
    denoiser_cov,
    denoiser_jacobians,
    draw_noise,
    linear_schedule,
    path_variance_floor,
    sample_trajectory,
    uniform_grid,
)
from redge.estimators import EstimatorConfig, estimate
from redge.tensor import Tape, jacobian, stable_softmax


class TestSchedule:
    def test_linear_boundaries(self):
        sched = linear_schedule(2)
        assert (sched.alpha(0.0), sched.sigma(0.0)) == (1.0, 0.0)
        assert (sched.alpha(1.0), sched.sigma(1.0)) == (0.0, 1.0)
        assert (sched.alpha(0.25), sched.sigma(0.25)) == (0.75, 0.25)

    def test_uniform_grids(self):
        np.testing.assert_array_equal(uniform_grid(2), [1.0, 0.0])
        np.testing.assert_array_equal(uniform_grid(5), [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_t1_override(self):
        np.testing.assert_allclose(uniform_grid(3, t1=0.5), [1.0, 0.5, 0.0])
        grid = uniform_grid(10, t1=0.5)
        assert grid[-2] == 0.5 and grid[0] == 1.0 and grid[-1] == 0.0
        # spacing above t1 stays uniform
        np.testing.assert_allclose(np.diff(grid[:-1]), np.diff(grid[:-1])[0])

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            uniform_grid(1)
        with pytest.raises(ValueError):
            uniform_grid(4, t1=0.0)
        with pytest.raises(ValueError):
            linear_schedule(grid=np.array([1.0, 0.5, 0.6, 0.0]))
        for grid in ([np.nan, 0.5, 0.0], [1.0, np.nan, 0.0], [1.0, 0.5, np.nan]):
            with pytest.raises(ValueError):
                linear_schedule(grid=np.array(grid))

    def test_transitions_end_exactly_at_the_denoiser(self):
        # End points within the tolerance are stored exactly, so the last
        # step is x_0 = denoise(x_t1, t1) for every eta; the caller's grid
        # is left as it was.
        grid = np.array([1.0 - 1e-13, 0.5, 1e-13])
        for eta in ("zero", "half", "full"):
            sched = linear_schedule(grid=grid, eta=eta)
            assert sched.grid.tolist() == [1.0, 0.5, 0.0]
            assert sched.transitions[0][:3] == (1.0, 0.5, 0.0)
            assert sched.transitions[-1][3:] == (1.0, 0.0, 0.0)
        assert grid[0] == 1.0 - 1e-13 and grid[-1] == 1e-13

    def test_coef_ratio(self):
        sched = linear_schedule(2)
        assert sched.coef_ratio(0.5) == 2.0
        with pytest.raises(ValueError):
            sched.coef_ratio(0.0)
        # (1 - t) / t^2 is inf below t of about 7.46e-155, and t^2 is 0 below
        # about 2e-162; both name t instead of giving inf or ZeroDivisionError.
        for t in (1e-155, 1e-170):
            with pytest.raises(ValueError, match=f"not finite at t={t}"):
                sched.coef_ratio(t)


class TestDenoiser:
    def test_terminal_time_gives_mean(self):
        sched = linear_schedule(2)
        logits = np.array([[0.7, -0.4, 0.2]])
        tape = Tape()
        leaf = tape.lift(logits)
        out = denoiser(leaf, np.random.default_rng(0).normal(size=(1, 3)), 1.0, sched)
        np.testing.assert_array_equal(out.value, stable_softmax(logits))

    def test_uniform_logits(self):
        sched = linear_schedule(2)
        x = np.array([[0.3, -0.3]])
        tape = Tape()
        out = denoiser(tape.lift(np.zeros((1, 2))), x, 0.5, sched)
        np.testing.assert_allclose(out.value, stable_softmax(2.0 * x))

    def test_frozen_binary_value(self):
        # c_{0.5} = 0.5 / 0.25 = 2, so the output is softmax([2, 0]).
        sched = linear_schedule(2)
        tape = Tape()
        out = denoiser(tape.lift(np.zeros((1, 2))), np.array([[1.0, 0.0]]), 0.5, sched)
        expected = np.exp(2.0) / (1.0 + np.exp(2.0))
        np.testing.assert_allclose(out.value, [[expected, 1.0 - expected]], atol=1e-15)
        np.testing.assert_allclose(out.value, [[0.8808, 0.1192]], atol=1e-4)

    def test_rejects_time_zero(self):
        sched = linear_schedule(2)
        tape = Tape()
        with pytest.raises(ValueError):
            denoiser(tape.lift(np.zeros((1, 2))), np.zeros((1, 2)), 0.0, sched)


class TestDenoiserCov:
    def test_standard_base_reduces_to_plain_denoiser(self):
        # mu = 0, v = 1: the precision weights are row-constant, so the
        # alpha/2 shift cancels inside the softmax.
        sched = linear_schedule(2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            logits = rng.normal(size=(2, 3))
            x = rng.normal(size=(2, 3))
            t = rng.uniform(0.2, 1.0)
            tape = Tape()
            leaf = tape.lift(logits)
            plain = denoiser(leaf, x, t, sched)
            cov = denoiser_cov(leaf, x, t, sched, np.zeros((2, 3)), np.ones((2, 3)))
            np.testing.assert_allclose(cov.value, plain.value, atol=1e-12)

    def test_centered_input_gives_prior(self):
        sched = linear_schedule(2)
        rng = np.random.default_rng(2)
        mu = rng.normal(size=(1, 4))
        v = rng.uniform(0.5, 2.0, size=(1, 4))
        t = 0.6
        x = sched.sigma(t) * mu + sched.alpha(t) / 2.0
        logits = np.zeros((1, 4))
        tape = Tape()
        out = denoiser_cov(tape.lift(logits), x, t, sched, mu, v)
        np.testing.assert_allclose(out.value, stable_softmax(logits), atol=1e-12)

    def test_terminal_time_kills_correction(self):
        sched = linear_schedule(2)
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 3))
        tape = Tape()
        out = denoiser_cov(tape.lift(logits), rng.normal(size=(2, 3)), 1.0, sched,
                           rng.normal(size=(2, 3)), rng.uniform(0.5, 1.5, (2, 3)))
        np.testing.assert_allclose(out.value, stable_softmax(logits), atol=1e-12)


def reference_moments(logits):
    """Mean and variance of the chain's moment-matched reference, read off its
    first state p + sqrt(v) * x1 at x1 = 0 and x1 = 1."""
    logits = np.asarray(logits, dtype=float)
    tape = Tape()
    node = tape.constant(logits)

    def first_state(x1):
        noise = TrajectoryNoise(x1=np.full(logits.shape, x1), step_z=(None,))
        return composite_trajectory(node, linear_schedule(2), noise, node)[0][1].value

    mu = first_state(0.0)
    return mu, (first_state(1.0) - mu) ** 2


class TestMleBase:
    def test_half_half(self):
        mu, v = reference_moments([[0.0, 0.0]])
        np.testing.assert_allclose(mu, [[0.5, 0.5]])
        np.testing.assert_allclose(v, [[0.25, 0.25]])

    def test_degenerate_row_floored(self):
        mu, v = reference_moments([[60.0, 0.0]])
        np.testing.assert_allclose(mu, [[1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(v, [[path_variance_floor(2)] * 2], rtol=1e-14)

    def test_matches_enumerated_moments(self):
        # Per-coordinate mean / variance of the one-hot law by 2-point enumeration.
        rng = np.random.default_rng(4)
        dist = FactorizedCategorical(rng.normal(size=(3, 4)))
        mu, v = reference_moments(dist.logits)
        p = dist.probs
        np.testing.assert_allclose(mu, p, atol=1e-12)
        # two-point enumeration: E[(X_k - p_k)^2] = p_k (1-p_k)^2 + (1-p_k) p_k^2
        var = p * (1 - p) ** 2 + (1 - p) * p**2
        np.testing.assert_allclose(v, np.maximum(var, path_variance_floor(4)), atol=1e-12)
        # the floor binds only where p(1-p) falls below it
        assert np.any(var < path_variance_floor(4)) and np.any(var > path_variance_floor(4))


class TestDdimStep:
    def test_final_step_returns_denoiser(self):
        sched = linear_schedule(2)
        rng = np.random.default_rng(5)
        tape = Tape()
        d = tape.constant(rng.dirichlet(np.ones(3), size=2))
        x = tape.constant(rng.normal(size=(2, 3)))
        out = ddim_step(0.0, 0.7, x, d, sched)
        np.testing.assert_array_equal(out.value, d.value)

    def test_halfway_coefficients(self):
        sched = linear_schedule(2)
        rng = np.random.default_rng(6)
        tape = Tape()
        d = tape.constant(rng.normal(size=(1, 2)))
        x = tape.constant(rng.normal(size=(1, 2)))
        out = ddim_step(0.5, 1.0, x, d, sched)
        np.testing.assert_allclose(out.value, 0.5 * d.value + 0.5 * x.value)

    def test_interpolant_fixed_point(self):
        # If x_t = alpha_t x* + sigma_t x1* and the denoiser returns x*,
        # the step lands exactly on alpha_s x* + sigma_s x1*.
        sched = linear_schedule(2)
        rng = np.random.default_rng(7)
        x_star = rng.dirichlet(np.ones(3), size=1)
        x1_star = rng.normal(size=(1, 3))
        s, t = 0.3, 0.8
        tape = Tape()
        x_t = tape.constant(sched.alpha(t) * x_star + sched.sigma(t) * x1_star)
        out = ddim_step(s, t, x_t, tape.constant(x_star), sched)
        np.testing.assert_allclose(
            out.value, sched.alpha(s) * x_star + sched.sigma(s) * x1_star, atol=1e-12)

    def test_invalid_times(self):
        sched = linear_schedule(2)
        tape = Tape()
        d = tape.constant(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            ddim_step(0.7, 0.5, d, d, sched)


class TestStochasticStep:
    def test_zero_eta_equals_deterministic(self):
        sched = linear_schedule(4, eta="zero")
        rng = np.random.default_rng(8)
        tape = Tape()
        d = tape.constant(rng.dirichlet(np.ones(3), size=2))
        x = tape.constant(rng.normal(size=(2, 3)))
        a = ddim_step(1 / 3, 2 / 3, x, d, sched)
        b = ddim_step(1 / 3, 2 / 3, x, d, sched, rng.normal(size=(2, 3)))
        np.testing.assert_array_equal(a.value, b.value)

    def test_full_eta_renoises_completely(self):
        sched = linear_schedule(4, eta="full")
        rng = np.random.default_rng(9)
        tape = Tape()
        d = tape.constant(rng.dirichlet(np.ones(3), size=1))
        x = tape.constant(rng.normal(size=(1, 3)))
        z = rng.normal(size=(1, 3))
        s, t = 1 / 3, 2 / 3
        out = ddim_step(s, t, x, d, sched, z)
        np.testing.assert_allclose(
            out.value, sched.alpha(s) * d.value + sched.sigma(s) * z, atol=1e-12)

    def test_unknown_eta_rejected(self):
        with pytest.raises(ValueError, match="unknown eta"):
            linear_schedule(4, eta="bogus")

    def test_noisy_step_needs_z(self):
        sched = linear_schedule(4, eta="half")
        tape = Tape()
        d = tape.constant(np.full((1, 2), 0.5))
        with pytest.raises(ValueError, match="needs its noise"):
            ddim_step(1 / 3, 2 / 3, d, d, sched)

    @staticmethod
    def _hard_law_tv(moment_matched: bool, eta: str = "half") -> float:
        """TV between the target and the law of hard draws from the last
        denoiser of the 32-step chain, at 2e4 draws of one binary row."""
        draws = 20_000
        rng = np.random.default_rng(10)
        logit_row = np.array([[1.2, 0.0]])
        sched = linear_schedule(32, eta=eta)
        tape = Tape()
        leaf = tape.lift(np.tile(logit_row, (draws, 1)))
        noise = draw_noise(sched, draws, 2, rng)
        soft = sample_trajectory(leaf, sched, noise, leaf if moment_matched else None)
        hard = sample_onehot_rows(soft.value, rng)
        emp = np.bincount(hard.indices, minlength=2) / draws
        target = FactorizedCategorical(logit_row).probs[0]
        return 0.5 * np.abs(emp - target).sum()

    def test_marginal_fidelity_desk_scale(self):
        # Hard-sample law at the end of the half-noise chain stays within
        # TV 0.05 of the target (MC band at 2e4 draws ~ 0.01).
        assert self._hard_law_tv(moment_matched=False) <= 0.05

    def test_marginal_fidelity_desk_scale_moment_matched(self):
        # The same bound for the deterministic redge-cov chain at K = 2,
        # which reads the (gap, 0) noise of draw_noise through its
        # moment-matched reference.
        assert self._hard_law_tv(moment_matched=True, eta="zero") <= 0.05

    def test_marginal_fidelity_desk_scale_moment_matched_half_noise(self):
        # Noisy steps draw their fresh noise from the reference N(mu, V).
        assert self._hard_law_tv(moment_matched=True) <= 0.05


class TestTrajectory:
    def test_single_step_reduction_is_bitwise(self):
        # K = 2 runs on the logit gap, every other K category-major.  The
        # binary rows include exact ties and gaps of +-800, where one
        # probability sits at exp's floor.
        rng = np.random.default_rng(11)
        sched = linear_schedule(2)
        for categories in (4, 2):
            for trial in range(10):
                logits = rng.normal(size=(3, categories))
                if categories == 2 and trial % 2:
                    logits[0, 0] = logits[0, 1]
                    logits[1:, 0] = logits[1:, 1] + np.array([800.0, -800.0])
                tape = Tape()
                leaf = tape.lift(logits, requires_grad=True)
                soft = sample_trajectory(leaf, sched, draw_noise(sched, 3, categories, rng))
                assert soft.value.tobytes() == stable_softmax(logits).tobytes()

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(12)
        sched = linear_schedule(5)
        logits = rng.normal(size=(2, 3))
        noise = draw_noise(sched, 2, 3, rng)
        tape = Tape()
        leaf = tape.lift(logits, requires_grad=True)
        soft = sample_trajectory(leaf, sched, noise)

        tape2 = Tape()
        leaf2 = tape2.lift(logits, requires_grad=True)
        x = tape2.constant(noise.x1)
        for t, s in zip(sched.grid[:-1], sched.grid[1:]):
            d = denoiser(leaf2, x, float(t), sched)
            x = ddim_step(float(s), float(t), x, d, sched)
        np.testing.assert_array_equal(soft.value, x.value)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        sched = linear_schedule(6)
        logits = rng.normal(size=(1, 4))
        noise = draw_noise(sched, 1, 4, rng)
        perm = np.array([2, 0, 3, 1])

        noise_p = TrajectoryNoise(x1=noise.x1[:, perm], step_z=noise.step_z)
        soft, soft_p = (sample_trajectory(Tape().lift(theta), sched, z)
                        for theta, z in ((logits, noise), (logits[:, perm], noise_p)))
        pairs = [(soft.value, soft_p.value)]
        # the fused chain keeps no state; every state comes from the oracle
        states, states_p = (composite_trajectory(Tape().lift(theta), sched, z)
                            for theta, z in ((logits, noise), (logits[:, perm], noise_p)))
        assert len(states) == 6
        pairs += [(a.value, b.value) for (_, a), (_, b) in zip(states, states_p)]
        for a, b in pairs:
            np.testing.assert_allclose(a[:, perm], b, atol=1e-14)

    def test_small_t1_concentrates_on_vertices(self):
        draws = 1000
        rng = np.random.default_rng(14)
        logits = np.tile(np.array([[0.3, -0.4, 0.1]]), (draws, 1))
        sched = linear_schedule(16)
        assert abs(sched.t1 - 1 / 15) < 1e-12
        tape = Tape()
        soft = sample_trajectory(tape.lift(logits), sched, draw_noise(sched, draws, 3, rng)).value
        dist_to_vertex = np.min(
            np.linalg.norm(soft[:, None, :] - np.eye(3)[None], axis=2), axis=1)
        assert (dist_to_vertex <= 0.05).mean() >= 0.95

    def test_base_draw_uses_moments(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(2, 3))
        p = stable_softmax(logits)
        v = np.maximum(p * (1.0 - p), path_variance_floor(3))
        sched = linear_schedule(3)
        noise = draw_noise(sched, 2, 3, rng)
        tape = Tape()
        node = tape.lift(logits)
        x1 = composite_trajectory(node, sched, noise, node)[0][1].value
        np.testing.assert_allclose(x1, p + np.sqrt(v) * noise.x1, atol=1e-14)


class TestClosedFormJacobians:
    def test_matches_autodiff(self):
        rng = np.random.default_rng(16)
        sched = linear_schedule(2)
        for _ in range(50):
            k = int(rng.choice([2, 3, 8]))
            length = int(rng.integers(1, 3))
            logits = rng.normal(size=(length, k))
            x = rng.normal(size=(length, k))
            t = float(rng.uniform(0.05, 1.0))
            sig_theta, sig_x = denoiser_jacobians(logits, x, t, sched)

            tape = Tape()
            leaf = tape.lift(logits, requires_grad=True)
            xleaf = tape.lift(x, requires_grad=True)
            out = denoiser(leaf, xleaf, t, sched)
            jac_theta = jacobian(out, leaf)
            jac_x = jacobian(out, xleaf)
            for i in range(length):
                blk = slice(i * k, (i + 1) * k)
                np.testing.assert_allclose(jac_theta[blk, blk], sig_theta[i], atol=1e-8)
                np.testing.assert_allclose(jac_x[blk, blk], sig_x[i], atol=1e-8)
            # off-diagonal blocks vanish: rows are independent
            mask = np.ones_like(jac_theta, dtype=bool)
            for i in range(length):
                blk = slice(i * k, (i + 1) * k)
                mask[blk, blk] = False
            assert np.abs(jac_theta[mask]).max(initial=0.0) <= 1e-12

    def test_degenerate_rows_give_zero(self):
        sched = linear_schedule(2)
        logits = np.array([[80.0, 0.0]])
        sig_theta, sig_x = denoiser_jacobians(logits, np.zeros((1, 2)), 0.9, sched)
        np.testing.assert_allclose(sig_theta, 0.0, atol=1e-12)
        np.testing.assert_allclose(sig_x, 0.0, atol=1e-12)


@pytest.mark.parametrize("eta", ["zero", "half", "full"])
def test_saturated_binary_rows_keep_finite_gradients(eta):
    # Logit gaps of +-800 saturate every denoiser of the gap chain.
    rng = np.random.default_rng(14)
    theta = np.array([[800.0, 0.0], [0.0, 800.0], [-400.0, 400.0]])
    sched = linear_schedule(16, t1=0.02, eta=eta)
    tape = Tape()
    leaf = tape.lift(theta, requires_grad=True)
    soft = sample_trajectory(leaf, sched, draw_noise(sched, 3, 2, rng))
    tape.backward(soft, seed=rng.standard_normal((3, 2)))
    assert np.all(np.isfinite(leaf.grad))
    assert np.all(soft.value > 0.0)


def test_draw_noise_deterministic():
    sched = linear_schedule(4, eta="half")
    a = draw_noise(sched, 2, 3, np.random.default_rng(21))
    b = draw_noise(sched, 2, 3, np.random.default_rng(21))
    np.testing.assert_array_equal(a.x1, b.x1)
    assert len(a.step_z) == 3
    for za, zb in zip(a.step_z, b.step_z):
        if za is None:
            assert zb is None
        else:
            np.testing.assert_array_equal(za, zb)


def test_binary_draws_are_gaps():
    # At K = 2 each draw is one (L,) row of N(0, 2) gaps, sqrt(2) times the
    # standard normals the stream gives in order.
    sched = linear_schedule(4, eta="full")
    noise = draw_noise(sched, 20_000, 2, np.random.default_rng(22))
    normals = np.random.default_rng(22).standard_normal((3, 20_000))
    for w, z in zip((noise.x1, *noise.step_z[:-1]), normals):   # the last step is noise-free
        assert w.shape == (20_000,)
        np.testing.assert_array_equal(w, z * np.sqrt(2.0))
        assert abs(w.var() - 2.0) < 0.1


@pytest.mark.parametrize("eta", ["zero", "half", "full"])
@pytest.mark.parametrize("reference", ["standard", "detach", "logits"])
def test_binary_chains_read_noise_only_through_its_gap(reference, eta):
    # Noise pairs (w_0, w_1), their rows (w_0 - w_1, 0) and their (L,) gaps
    # w_0 - w_1 drive every K = 2 chain the same way, which is what lets
    # draw_noise store only the gap; the last two bit for bit.
    rng = np.random.default_rng(23)
    sched = linear_schedule(8, eta=eta)
    theta = 1.5 * rng.standard_normal((5, 2))
    cotangent = rng.standard_normal((5, 2))
    pairs = [rng.standard_normal((5, 2)) for _ in range(len(sched.transitions) + 1)]
    gaps = [w[:, 0] - w[:, 1] for w in pairs]

    def rows(gap):
        out = np.zeros((len(gap), 2))
        out[:, 0] = gap
        return out

    def run(draws):
        x1, *zs = draws
        step_z = tuple(z if eta_s > 0.0 else None
                       for z, (*_, eta_s) in zip(zs, sched.transitions))
        tape = Tape()
        leaf = tape.lift(theta, requires_grad=True)
        ref = {"standard": None, "detach": leaf.detach(), "logits": leaf}[reference]
        soft = sample_trajectory(leaf, sched, TrajectoryNoise(x1=x1, step_z=step_z), ref)
        tape.backward(soft, seed=cotangent)
        return soft.value, leaf.grad

    soft_pair, grad_pair = run(pairs)
    soft_gap, grad_gap = run(gaps)
    soft_rows, grad_rows = run([rows(g) for g in gaps])
    assert soft_rows.tobytes() == soft_gap.tobytes()
    assert grad_rows.tobytes() == grad_gap.tobytes()
    np.testing.assert_allclose(soft_gap, soft_pair, rtol=0.0, atol=1e-12)
    assert np.linalg.norm(grad_gap - grad_pair) <= 1e-12 * np.linalg.norm(cotangent)


@pytest.mark.parametrize("t1", [None, 1e-150, 1e-153, 8e-155])
@pytest.mark.parametrize("steps", [3, 16])
def test_saturated_gap_chain_matches_the_composite_jacobian(steps, t1):
    # Logit gaps of +-800 saturate every denoiser of the gap chain, and at
    # t1 = 1e-150, 1e-153 and 8e-155 (just above where Schedule rejects c)
    # the last coefficient c is about 1e300, 1e306 and 1.6e308.  The third
    # row starts next to the decision boundary, so at n = 16 its tangent J
    # grows to about 5e3 before its last denoiser saturates, and c J
    # overflows unless the tiny s_0 s_1 meets c first.  The gradient stays
    # finite, with overflow and invalid operations raising, and agrees with
    # the composite oracle's full Jacobian within check_gap_chain's bound.
    # A reverse sweep that formed 2c overflowed at 8e-155.
    rng = np.random.default_rng(41)
    theta = 1.5 * rng.standard_normal((3, 2))
    theta[:2, 0] += [800.0, -800.0]
    theta[2] = [1e-10, 0.0]
    sched = linear_schedule(steps, t1=t1)
    noise = draw_noise(sched, 3, 2, rng)
    noise.x1[2] = 0.0
    cotangent = rng.standard_normal((3, 2))
    with np.errstate(over="raise", invalid="raise"):
        tape = Tape()
        leaf = tape.lift(theta, requires_grad=True)
        tape.backward(sample_trajectory(leaf, sched, noise), seed=cotangent)
        oracle = Tape().lift(theta, requires_grad=True)
        jac = jacobian(composite_trajectory(oracle, sched, noise)[-1][1], oracle)
    want = (cotangent.ravel() @ jac).reshape(theta.shape)
    assert np.isfinite(leaf.grad).all()
    assert np.linalg.norm(leaf.grad - want) <= 1e-11 * np.linalg.norm(cotangent)


@pytest.mark.parametrize("eta", ["zero", "half", "full"])
@pytest.mark.parametrize("steps", [2, 4, 16])
def test_an_overflowing_logit_gap_saturates_its_row(steps, eta):
    # The rows (1.7e308, -1.7e308) and (-1.7e308, 1.7e308) have logit gaps
    # that overflow to +inf and -inf.  The gap chain clamps its last z at
    # the largest float, so the +inf row saturates as a finite gap does
    # instead of meeting inf - inf in the last softmax (invalid operations
    # raise here).  Both rows agree with the composite oracle within
    # check_gap_chain's bounds, and every diffusion kind's estimate, whose
    # hard draw reads the soft sample, is finite.
    rng = np.random.default_rng(44)
    theta = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
    sched = linear_schedule(steps, eta=eta)
    noise = draw_noise(sched, 2, 2, rng)
    cotangent = rng.standard_normal((2, 2))
    f = random_linear(rng, 2, 2)
    outputs = []
    with np.errstate(over="ignore", invalid="raise"):
        for chain in (sample_trajectory, lambda *a: composite_trajectory(*a)[-1][1]):
            tape = Tape()
            leaf = tape.lift(theta, requires_grad=True)
            soft = chain(leaf, sched, noise)
            tape.backward(soft, seed=cotangent)
            outputs.append((soft.value, leaf.grad))
        estimates = [estimate(FactorizedCategorical(theta), f,
                              EstimatorConfig(kind=kind, steps=steps, eta=eta), 5)
                     for kind in ("redge", "redge-soft", "redge-max", "redge-cov")]
    (soft, grad), (soft_want, grad_want) = outputs
    assert np.linalg.norm(soft - soft_want) <= 1e-12 * np.linalg.norm(soft_want)
    assert np.isfinite(grad).all()
    assert np.linalg.norm(grad - grad_want) <= 1e-11 * np.linalg.norm(cotangent)
    for est in estimates:
        assert np.isfinite(est.grad).all(), est.kind


@pytest.mark.parametrize("eta", ["zero", "half"])
@pytest.mark.parametrize("steps", [2, 4, 16])
def test_gap_chain_derivative_is_a_finite_difference_of_its_soft_sample(steps, eta):
    # Under the cotangent (1, 0) per row, the VJP returns the kept
    # D = d soft_0 / d (theta_0 - theta_1) in its first column; it matches a
    # central difference of soft_0 in the logit gap, with the noise frozen.
    rng = np.random.default_rng(42)
    sched = linear_schedule(steps, eta=eta)
    theta = rng.standard_normal((6, 2))
    noise = draw_noise(sched, 6, 2, rng)
    tape = Tape()
    leaf = tape.lift(theta, requires_grad=True)
    tape.backward(sample_trajectory(leaf, sched, noise), seed=np.tile([1.0, 0.0], (6, 1)))
    kept = leaf.grad[:, 0]
    np.testing.assert_array_equal(leaf.grad[:, 1], -kept)

    h = 1e-6
    shift = np.array([h / 2.0, -h / 2.0])   # moves theta_0 - theta_1 by h
    up, down = (sample_trajectory(Tape().lift(theta + sign * shift), sched, noise).value[:, 0]
                for sign in (1.0, -1.0))
    np.testing.assert_allclose(kept, (up - down) / (2.0 * h), rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("categories", [2, 3, 17])
def test_standard_chain_is_one_tape_node(categories):
    # K = 2 runs the gap chain, K = 3 and 17 the category-major chain.
    sched = linear_schedule(4, eta="half")
    tape = Tape()
    leaf = tape.lift(np.zeros((2, categories)), requires_grad=True)
    before = len(tape.nodes)
    sample_trajectory(leaf, sched, draw_noise(sched, 2, categories, np.random.default_rng(3)))
    assert len(tape.nodes) - before == 1


@pytest.mark.parametrize("eta", ["zero", "half", "full"])
@pytest.mark.parametrize("moment_matched", [False, True])
def test_composite_chain_ends_at_its_last_denoiser(moment_matched, eta):
    # The last transition has a = 1, b = 0 and eta = 0, so the last state is
    # the denoiser at t1 of the state before it, bit for bit.
    rng = np.random.default_rng(6)
    sched = linear_schedule(5, eta=eta)
    for categories in (2, 3, 20):
        tape = Tape()
        leaf = tape.lift(1.5 * rng.standard_normal((3, categories)))
        noise = draw_noise(sched, 3, categories, rng)
        states = composite_trajectory(leaf, sched, noise, leaf if moment_matched else None)
        x = states[-2][1]
        if moment_matched:
            mu = leaf.softmax_rows()
            v = (mu * (1.0 - mu)).clamp_min(path_variance_floor(categories))
            d = denoiser_cov(leaf, x, sched.t1, sched, mu, v)
        else:
            d = denoiser(leaf, x, sched.t1, sched)
        assert states[-1][1].value.tobytes() == d.value.tobytes()


@pytest.mark.parametrize("moment_matched, steps, nodes",
                         [(False, 2, 4), (False, 4, 16), (True, 2, 18), (True, 4, 42)])
def test_composite_chain_composes_no_last_transition(moment_matched, steps, nodes):
    # The last state is the last denoiser node itself; composing d * 1 + x * 0
    # recorded three nodes more at 3 x 3 (45 instead of 42 for redge-cov at
    # n = 4).
    rng = np.random.default_rng(8)
    tape = Tape()
    leaf = tape.lift(rng.standard_normal((3, 3)), requires_grad=True)
    sched = linear_schedule(steps)
    noise = draw_noise(sched, 3, 3, rng)
    before = len(tape.nodes)
    states = composite_trajectory(leaf, sched, noise, leaf if moment_matched else None)
    assert len(tape.nodes) - before == nodes
    assert states[-1][1] is tape.nodes[-1]


@pytest.mark.parametrize("reference", ["logits", "detach", "constant"])
def test_reference_chain_is_the_composite_chain(reference):
    rng = np.random.default_rng(4)
    sched = linear_schedule(4, eta="half")
    for categories in (2, 3):
        theta = 1.5 * rng.standard_normal((2, categories))
        noise = draw_noise(sched, 2, categories, rng)
        cotangent = rng.standard_normal((2, categories))
        outputs = []
        for chain in (sample_trajectory, composite_trajectory):
            tape = Tape()
            leaf = tape.lift(theta, requires_grad=True)
            ref = {"logits": leaf, "detach": leaf.detach(),
                   "constant": tape.constant(theta)}[reference]
            soft = chain(leaf, sched, noise, ref)
            if chain is composite_trajectory:
                soft = soft[-1][1]
            tape.backward(soft, seed=cotangent)
            outputs.append((soft.value, leaf.grad))
        for got, want in zip(*outputs):
            assert got.tobytes() == want.tobytes()


def test_empty_step_z_means_deterministic_steps():
    sched = linear_schedule(4)
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal((2, 3))
    leaf = Tape().constant(rng.standard_normal((2, 3)))
    bare = sample_trajectory(leaf, sched, TrajectoryNoise(x1=x1))
    explicit = sample_trajectory(leaf, sched, TrajectoryNoise(x1=x1, step_z=(None,) * 3))
    np.testing.assert_array_equal(bare.value, explicit.value)


def test_step_z_needs_one_entry_per_transition():
    leaf = Tape().constant(np.zeros((1, 2)))
    short = TrajectoryNoise(x1=np.zeros((1, 2)), step_z=(None, None))
    with pytest.raises(ValueError, match="2 entries for 3 transitions"):
        sample_trajectory(leaf, linear_schedule(4), short)
    # a noisy step still needs its draw when step_z is left empty
    with pytest.raises(ValueError, match="needs its noise"):
        sample_trajectory(leaf, linear_schedule(4, eta="half"), TrajectoryNoise(x1=np.zeros((1, 2))))


@pytest.mark.parametrize("chain", [sample_trajectory, composite_trajectory])
def test_noise_must_have_the_logits_shape(chain):
    # A single noise row must not be broadcast over every row of the logits.
    leaf = Tape().constant(np.zeros((3, 4)))
    sched = linear_schedule(3, eta="half")
    good = draw_noise(sched, 3, 4, np.random.default_rng(0))
    row = np.zeros((1, 4))
    bad_z = (good.step_z[0], row)
    for noise in (TrajectoryNoise(x1=row, step_z=good.step_z),
                  TrajectoryNoise(x1=good.x1, step_z=bad_z)):
        with pytest.raises(ValueError, match=r"noise of shape \(1, 4\) for logits of shape \(3, 4\)"):
            chain(leaf, sched, noise)


def test_reference_must_be_the_logits_or_frozen():
    tape = Tape()
    logits = tape.lift(np.zeros((1, 3)), requires_grad=True)
    other = tape.lift(np.ones((1, 3)), requires_grad=True)
    sched = linear_schedule(3)
    noise = draw_noise(sched, 1, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="reference must be the logits node"):
        sample_trajectory(logits, sched, noise, other)
    with pytest.raises(ValueError, match="reference must be the logits node"):
        sample_trajectory(logits, sched, noise, other * 2.0)
    for frozen in (other.detach(), tape.constant(np.ones((1, 3))), logits):
        assert np.isfinite(sample_trajectory(logits, sched, noise, frozen).value).all()


def _chain_case(categories, length, seed=30):
    rng = np.random.default_rng(seed)
    sched = linear_schedule(4, eta="half")
    noise = draw_noise(sched, length, categories, rng)
    tape = Tape()
    leaf = tape.lift(1.5 * rng.standard_normal((length, categories)), requires_grad=True)
    return tape, leaf, sched, noise, rng.standard_normal((length, categories))


def _traced_chain(tape, leaf, sched, noise, cotangent):
    """Run the chain and its sweep under tracemalloc: the soft-sample node,
    the numpy blocks the forward pass left allocated, and the forward and
    sweep peaks above their starts."""
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(numpy_only)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        soft = sample_trajectory(leaf, sched, noise)
        forward_peak = tracemalloc.get_traced_memory()[1] - start
        after = tracemalloc.take_snapshot().filter_traces(numpy_only)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(soft, seed=cotangent)
        sweep_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    grown = [s for s in after.compare_to(before, "traceback") if s.size_diff > 0]
    return soft, sorted((s.count_diff, s.size_diff) for s in grown), forward_peak, sweep_peak


@pytest.mark.parametrize("categories", [3, 20])
def test_category_chain_makes_one_allocation(categories):
    # The forward pass allocates one workspace and nothing of (K, L) size
    # beside it; the sweep allocates nothing of (K, L) size but the gradient
    # it returns.  Both sides of the K <= 16 reduction rule are covered.
    # numpy's ufunc loops take a buffer of up to getbufsize() elements for a
    # broadcast operand; with K L above that, a (K, L) array stands out.
    tape, leaf, sched, noise, cotangent = _chain_case(categories, length=4000)
    size = cotangent.nbytes
    assert cotangent.size > np.getbufsize()
    soft, grown, forward_peak, sweep_peak = _traced_chain(tape, leaf, sched, noise, cotangent)
    workspace = soft.value.base
    assert workspace.shape == (len(sched.transitions) + 7, categories, 4000)
    assert grown == [(1, workspace.nbytes)]
    assert workspace.nbytes <= forward_peak < workspace.nbytes + size
    assert leaf.grad.nbytes == size
    assert size <= sweep_peak < 2 * size


def test_gap_chain_makes_one_allocation():
    # K = 2 in forward mode stores no step: the forward pass leaves exactly
    # the (L, 2) soft sample and the (L,) derivative row, and its peak, a
    # fixed workspace beside those two, grows by less than a row from n = 6
    # to n = 16.
    # The sweep allocates nothing of (L,) size but the (L, 2) gradient it
    # returns.  With L above getbufsize(), an (L,) array stands out from
    # numpy's ufunc buffers.
    length = 10000
    rng = np.random.default_rng(31)
    assert length > np.getbufsize()
    peaks = []
    for steps in (6, 16):
        sched = linear_schedule(steps, eta="half")
        noise = draw_noise(sched, length, 2, rng)
        tape = Tape()
        leaf = tape.lift(1.5 * rng.standard_normal((length, 2)), requires_grad=True)
        cotangent = rng.standard_normal((length, 2))
        row = cotangent.nbytes // 2
        soft, grown, forward_peak, sweep_peak = _traced_chain(tape, leaf, sched, noise, cotangent)
        assert grown == sorted([(1, row), (1, soft.value.nbytes)])
        assert forward_peak < 12 * row
        peaks.append(forward_peak)
        assert leaf.grad.nbytes == cotangent.nbytes
        assert cotangent.nbytes <= sweep_peak < cotangent.nbytes + row
    assert peaks[1] < peaks[0] + row


@pytest.mark.parametrize("categories", [3, 20])
def test_category_chain_outputs_are_views_of_its_workspace(categories):
    tape, leaf, sched, noise, _ = _chain_case(categories, length=7)
    soft = sample_trajectory(leaf, sched, noise).value
    assert soft.shape == (7, categories) and soft.flags.c_contiguous
    assert soft.base.shape == (len(sched.transitions) + 7, categories, 7)
    # the soft sample is the workspace's last slot, beside the transpose scratch
    assert np.shares_memory(soft, soft.base[-1])


@pytest.mark.parametrize("categories", [2, 3, 20])
def test_second_backward_pass_repeats_the_first(categories):
    # K = 2 runs the gap chain, K = 3 and 20 the category-major chain; the
    # sweep may not touch the outputs or the stored denoiser outputs.
    tape, leaf, sched, noise, cotangent = _chain_case(categories, length=5)
    soft = sample_trajectory(leaf, sched, noise)
    output = soft.value.tobytes()
    grads = []
    for _ in range(2):
        tape.backward(soft, seed=cotangent)
        grads.append(leaf.grad.tobytes())
    assert grads[0] == grads[1]
    assert soft.value.tobytes() == output
    want = jacobian(soft, leaf).T @ cotangent.ravel()
    np.testing.assert_allclose(np.frombuffer(grads[0]), want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("categories", [2, 3, 20])
def test_a_second_trajectory_leaves_the_first_alone(categories):
    # Each call has a workspace of its own: running and differentiating a
    # second chain changes nothing the first one returned.
    tape, leaf, sched, noise, cotangent = _chain_case(categories, length=5, seed=31)
    first = sample_trajectory(leaf, sched, noise)
    tape.backward(first, seed=cotangent)
    kept = first.value, leaf.grad
    before = [a.tobytes() for a in kept]
    tape2, leaf2, _, noise2, cotangent2 = _chain_case(categories, length=5, seed=32)
    second = sample_trajectory(leaf2, sched, noise2)
    tape2.backward(second, seed=cotangent2)
    assert [a.tobytes() for a in kept] == before
    tape.backward(first, seed=cotangent)
    assert leaf.grad.tobytes() == before[1]
