"""Estimator tests: frozen examples, reduction identities, unbiasedness by
enumeration, finite-difference oracles, and permutation equivariance."""

import gc
import tracemalloc

import numpy as np
import pytest

from redge.analysis import (
    PolyObjective,
    bias_variance,
    jacobian_decay_study,
    random_cubic,
    random_linear,
    random_quadratic,
    transport_slice,
)
from redge.benchmarks import gmm, runner
from redge.benchmarks.polyprog import PolyProgProblem, polyprog_loss
from redge.categorical import (
    FactorizedCategorical,
    enumerate_onehots,
    exact_gradient,
    joint_probability,
    onehot_from_indices,
    sample,
)
from redge.diffusion import draw_noise, sample_trajectory
from redge.estimators import (
    ESTIMATOR_KINDS,
    EstimatorConfig,
    covariance_apply,
    estimate,
    estimate_for_sample,
)
from redge.gradcheck import pathwise_fd_pair, reinmax_standard_form, soft_st_gradient
from redge.tensor import Tape


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


ST, REINMAX, REINFORCE = (EstimatorConfig(kind=k) for k in ("st", "reinmax", "reinforce"))


def enumerated_mean(dist, f, config):
    out = np.zeros_like(dist.logits)
    for s in enumerate_onehots(dist.length, dist.categories):
        out += joint_probability(dist, s) * estimate_for_sample(dist, f, config, s).grad
    return out


def sum_of_squares(x):
    return x.pow(2.0).sum()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(kind="nope")
        with pytest.raises(ValueError):
            EstimatorConfig(kind="redge", steps=1)
        with pytest.raises(ValueError):
            EstimatorConfig(kind="gs-st", tau=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(kind="redge", t1=1.5)
        with pytest.raises(ValueError):
            EstimatorConfig(kind="st", t1=1.5)
        with pytest.raises(ValueError, match="unknown eta"):
            EstimatorConfig(kind="redge", eta="bogus")
        with pytest.raises(ValueError, match="strictly decreasing"):
            EstimatorConfig(kind="redge", steps=3, t1=1.0)
        for tau in (np.nan, np.inf):
            with pytest.raises(ValueError, match="temperature"):
                EstimatorConfig(kind="gs-st", tau=tau)
        for baseline in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="baseline"):
                EstimatorConfig(kind="reinforce", baseline=baseline)

    def test_schedule_uses_t1(self):
        cfg = EstimatorConfig(kind="redge", steps=10, t1=0.5)
        assert cfg.schedule().t1 == 0.5

    @pytest.mark.parametrize("kind", ["redge", "redge-soft", "redge-max", "redge-cov"])
    def test_a_t1_whose_coefficient_overflows_fails_at_construction(self, kind):
        # c_t1 = (1 - t1) / t1^2 overflows below t1 of about 7.46e-155; such
        # a chain returned all-nan gradients at K = 2 and failed in the hard
        # draw at K = 3.
        for t1 in (1e-155, 1e-170):
            with pytest.raises(ValueError, match=f"not finite at t={t1}"):
                EstimatorConfig(kind=kind, steps=4, t1=t1)

    @pytest.mark.parametrize("kind", ["redge", "redge-soft", "redge-max", "redge-cov"])
    @pytest.mark.parametrize("categories", [2, 3])
    def test_a_tiny_finite_t1_gives_finite_gradients(self, kind, categories):
        rng = np.random.default_rng(15)
        dist = FactorizedCategorical(rng.normal(size=(2, categories)))
        f = random_cubic(rng, 2, categories)
        cfg = EstimatorConfig(kind=kind, steps=4, t1=1e-150)
        for seed in range(3):
            assert np.all(np.isfinite(estimate(dist, f, cfg, seed).grad))


class TestStraightThrough:
    def test_frozen_binary_example(self):
        # p = (1/2, 1/2), f = sum of squares, hard sample e1:
        # grad f = (2, 0); Cov(p) grad = (0.5, -0.5).
        dist = FactorizedCategorical([[0.0, 0.0]])
        est = estimate_for_sample(dist, sum_of_squares, ST, onehot_from_indices([0], 2))
        np.testing.assert_allclose(est.grad, [[0.5, -0.5]], atol=1e-14)
        assert est.objective_value == 1.0

    def test_unbiased_for_linear_f(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            dist = FactorizedCategorical(rng.normal(size=(2, 3)))
            f = random_linear(rng, 2, 3)
            got = enumerated_mean(dist, f, ST)
            np.testing.assert_allclose(got, exact_gradient(dist, f), atol=1e-10)

    def test_degenerate_distribution_zero_grad(self):
        dist = FactorizedCategorical([[200.0, 0.0], [0.0, 200.0]])
        est = estimate(dist, sum_of_squares, ST, 0)
        np.testing.assert_allclose(est.grad, 0.0, atol=1e-12)

    def test_soft_st_matches_covariance_formula(self):
        rng = np.random.default_rng(1)
        dist = FactorizedCategorical(rng.normal(size=(3, 4)))
        f = random_cubic(rng, 3, 4)
        got = soft_st_gradient(dist, f)
        want = covariance_apply(dist.probs, f.grad(dist.probs))
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestReinMax:
    def test_dual_forms_agree_per_sample(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            dist = FactorizedCategorical(rng.normal(size=(2, 3)))
            f = random_cubic(rng, 2, 3)
            hard = sample(dist, rng)
            a = estimate_for_sample(dist, f, REINMAX, hard).grad
            b = reinmax_standard_form(dist, f, hard)
            assert np.abs(a - b).max() <= 1e-12

    def test_exact_for_quadratics(self):
        rng = np.random.default_rng(3)
        for length in (1, 2):
            for categories in (2, 3, 4):
                dist = FactorizedCategorical(rng.normal(size=(length, categories)))
                f = random_quadratic(rng, length, categories)
                got = enumerated_mean(dist, f, REINMAX)
                np.testing.assert_allclose(got, exact_gradient(dist, f), atol=1e-9)

    def test_degenerate_distribution_zero_grad(self):
        dist = FactorizedCategorical([[200.0, 0.0]])
        est = estimate_for_sample(dist, sum_of_squares, REINMAX, onehot_from_indices([0], 2))
        np.testing.assert_allclose(est.grad, 0.0, atol=1e-12)


class TestGumbelSoftmaxST:
    def test_hard_sample_law_matches_target(self):
        # Gumbel-max gives exact categorical draws: empirical TV small.
        draws = 100_000
        logits = np.array([[0.5, -0.3, 0.9]])
        dist = FactorizedCategorical(np.tile(logits, (draws, 1)))
        est = estimate(dist, lambda x: x.sum(), EstimatorConfig(kind="gs-st", tau=1.0), 7)
        counts = np.bincount(est.hard_sample.indices, minlength=3) / draws
        target = FactorizedCategorical(logits).probs[0]
        assert 0.5 * np.abs(counts - target).sum() <= 0.02

    def test_large_temperature_kills_gradient(self):
        rng = np.random.default_rng(4)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        small = estimate(dist, f, EstimatorConfig(kind="gs-st", tau=1.0), 11).grad
        large = estimate(dist, f, EstimatorConfig(kind="gs-st", tau=1e6), 11).grad
        assert np.linalg.norm(large) <= 1e-4 * max(np.linalg.norm(small), 1e-8)

    def test_fixed_noise_finite_differences(self):
        rng = np.random.default_rng(5)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        got, want = pathwise_fd_pair(dist, f, EstimatorConfig(kind="gs-st", tau=0.6), 13)
        assert rel_err(got, want) <= 1e-5


class TestReinforce:
    def test_mean_matches_exact_any_f(self):
        rng = np.random.default_rng(6)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        got = enumerated_mean(dist, f, REINFORCE)
        np.testing.assert_allclose(got, exact_gradient(dist, f), atol=1e-9)

    def test_baseline_field_respected(self):
        dist = FactorizedCategorical([[0.2, -0.2]])
        cfg = EstimatorConfig(kind="reinforce", baseline=3.0)
        est = estimate(dist, sum_of_squares, cfg, 3)
        # value of sum-of-squares at any one-hot is 1.0
        np.testing.assert_allclose(est.grad, (1.0 - 3.0) * (est.hard_sample.onehot - dist.probs))


class TestReductionIdentities:
    """Single diffusion step, shared integer seed: classical estimators exactly."""

    categories = 4

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.dist = FactorizedCategorical(rng.normal(size=(3, self.categories)))
        self.f = random_cubic(rng, 3, self.categories)

    def test_soft_reduces_to_soft_st(self):
        cfg = EstimatorConfig(kind="redge-soft", steps=2)
        a = estimate(self.dist, self.f, cfg, 21).grad
        b = soft_st_gradient(self.dist, self.f)
        assert np.abs(a - b).max() <= 1e-12

    def test_hard_reduces_to_hard_st(self):
        cfg = EstimatorConfig(kind="redge", steps=2)
        a = estimate(self.dist, self.f, cfg, 22)
        b = estimate(self.dist, self.f, ST, 22)
        np.testing.assert_array_equal(a.hard_sample.indices, b.hard_sample.indices)
        assert np.abs(a.grad - b.grad).max() <= 1e-12

    def test_max_reduces_to_reinmax(self):
        cfg = EstimatorConfig(kind="redge-max", steps=2)
        a = estimate(self.dist, self.f, cfg, 23)
        b = estimate(self.dist, self.f, REINMAX, 23)
        np.testing.assert_array_equal(a.hard_sample.indices, b.hard_sample.indices)
        assert np.abs(a.grad - b.grad).max() <= 1e-12

    def test_cov_single_step_soft_sample_is_mean(self):
        cfg = EstimatorConfig(kind="redge-cov", steps=2)
        est = estimate(self.dist, self.f, cfg, 24)
        np.testing.assert_allclose(est.soft_sample, self.dist.probs, atol=1e-12)


class TestReductionIdentitiesBinary(TestReductionIdentities):
    """The same identities at K = 2, where the chain runs on the logit gap."""

    categories = 2


class TestRedgeEstimators:
    def test_soft_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        got, want = pathwise_fd_pair(dist, f, EstimatorConfig(kind="redge-soft", steps=4), 31)
        assert rel_err(got, want) <= 1e-5

    def test_soft_constant_objective_zero_grad(self):
        dist = FactorizedCategorical([[0.1, -0.4, 0.2]])
        cfg = EstimatorConfig(kind="redge-soft", steps=4)
        est = estimate(dist, lambda x: x.tape.constant([[5.0]]), cfg, 1)
        np.testing.assert_allclose(est.grad, 0.0, atol=1e-14)

    def test_hard_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        got, want = pathwise_fd_pair(dist, f, EstimatorConfig(kind="redge", steps=5), 32)
        assert rel_err(got, want) <= 1e-5

    def test_hard_equals_soft_for_linear_f(self):
        # With a linear objective the cotangent is constant, so the hard
        # sample only routes the same vector: gradients coincide exactly.
        rng = np.random.default_rng(11)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_linear(rng, 2, 3)
        cfg_soft = EstimatorConfig(kind="redge-soft", steps=4)
        cfg_hard = EstimatorConfig(kind="redge", steps=4)
        a = estimate(dist, f, cfg_soft, 33).grad
        b = estimate(dist, f, cfg_hard, 33).grad
        np.testing.assert_array_equal(a, b)

    def test_hard_degenerate_distribution_zero(self):
        dist = FactorizedCategorical([[300.0, 0.0]])
        cfg = EstimatorConfig(kind="redge", steps=4)
        est = estimate(dist, sum_of_squares, cfg, 34)
        np.testing.assert_allclose(est.grad, 0.0, atol=1e-10)

    def test_max_exact_for_quadratic_single_step(self):
        # At a single step the estimate is a deterministic function of the
        # drawn sample, equal to the trapezoidal block; its mean over the
        # sample law (enumerated) is then the exact gradient for quadratics.
        rng = np.random.default_rng(12)
        cfg = EstimatorConfig(kind="redge-max", steps=2)
        for _ in range(3):
            dist = FactorizedCategorical(rng.normal(size=(2, 3)))
            f = random_quadratic(rng, 2, 3)
            for seed in range(10):
                est = estimate(dist, f, cfg, seed)
                ref = estimate_for_sample(dist, f, REINMAX, est.hard_sample)
                assert np.abs(est.grad - ref.grad).max() <= 1e-12
            got = enumerated_mean(dist, f, REINMAX)
            np.testing.assert_allclose(got, exact_gradient(dist, f), atol=1e-9)

    def test_cov_matches_finite_differences_both_modes(self):
        rng = np.random.default_rng(13)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        on = EstimatorConfig(kind="redge-cov", steps=3, base_backprop=True)
        off = EstimatorConfig(kind="redge-cov", steps=3, base_backprop=False)
        got_on, want_on = pathwise_fd_pair(dist, f, on, 35)
        got_off, want_off = pathwise_fd_pair(dist, f, off, 35)
        assert rel_err(got_on, want_on) <= 1e-5
        assert rel_err(got_off, want_off) <= 1e-5
        # the two modes genuinely differ on a non-uniform distribution
        assert np.abs(got_on - got_off).max() > 1e-6

    def test_cov_uniform_rows_match_finite_differences(self):
        dist = FactorizedCategorical(np.zeros((2, 3)))
        f = random_cubic(np.random.default_rng(14), 2, 3)
        got, want = pathwise_fd_pair(dist, f, EstimatorConfig(kind="redge-cov", steps=4), 36)
        assert rel_err(got, want) <= 1e-5


class TestAuxGradients:
    def test_named_leaf_gradient_reported(self):
        # Thread an auxiliary parameter through the objective and check its
        # gradient against finite differences of the frozen map.
        rng = np.random.default_rng(15)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        aux0 = rng.normal(size=(2, 3))

        def f(x):
            aux = x.tape.lift(aux0, requires_grad=True, name="aux")
            return x.dot(aux) + aux.pow(2.0).sum()

        est = estimate(dist, f, EstimatorConfig(kind="redge", steps=3), 41)
        want = est.hard_sample.onehot + 2.0 * aux0
        np.testing.assert_allclose(est.aux_grads["aux"], want, atol=1e-12)

    def test_soft_estimator_reports_aux(self):
        rng = np.random.default_rng(16)
        dist = FactorizedCategorical(rng.normal(size=(1, 3)))
        aux0 = rng.normal(size=(1, 3))

        def f(x):
            aux = x.tape.lift(aux0, requires_grad=True, name="aux")
            return x.dot(aux)

        est = estimate(dist, f, EstimatorConfig(kind="redge-soft", steps=3), 42)
        np.testing.assert_allclose(est.aux_grads["aux"], est.soft_sample, atol=1e-12)


class TestPermutationEquivariance:
    def test_closed_form_estimators(self):
        rng = np.random.default_rng(17)
        perm = np.array([2, 0, 1])
        logits = rng.normal(size=(2, 3))
        coeff = rng.normal(size=(2, 3))
        hard = onehot_from_indices([1, 2], 3)
        hard_p = onehot_from_indices([perm.tolist().index(1), perm.tolist().index(2)], 3)
        dist, dist_p = FactorizedCategorical(logits), FactorizedCategorical(logits[:, perm])
        f = PolyObjective((2, 3), lin=coeff)
        f_p = PolyObjective((2, 3), lin=coeff[:, perm])
        for config in (ST, REINMAX):
            a = estimate_for_sample(dist, f, config, hard).grad
            b = estimate_for_sample(dist_p, f_p, config, hard_p).grad
            np.testing.assert_allclose(a[:, perm], b, atol=1e-12)

    def test_diffusion_path_gradient(self):
        # Permuted logits, noise, and cotangent give the permuted gradient.
        rng = np.random.default_rng(18)
        perm = np.array([1, 2, 0])
        logits = rng.normal(size=(1, 3))
        coeff = rng.normal(size=(1, 3))
        cfg = EstimatorConfig(kind="redge", steps=4)
        schedule = cfg.schedule()
        noise = draw_noise(schedule, 1, 3, np.random.default_rng(5))

        def path_grad(la, x1, gx):
            tape = Tape()
            leaf = tape.lift(la, requires_grad=True)
            from redge.diffusion import TrajectoryNoise
            soft = sample_trajectory(leaf, schedule, TrajectoryNoise(x1=x1, step_z=noise.step_z))
            tape.backward(soft.dot(tape.constant(gx)))
            return leaf.grad

        a = path_grad(logits, noise.x1, coeff)
        b = path_grad(logits[:, perm], noise.x1[:, perm], coeff[:, perm])
        np.testing.assert_allclose(a[:, perm], b, atol=1e-12)


class TestDispatch:
    def test_all_kinds_run(self):
        rng = np.random.default_rng(19)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        for kind in ("st", "reinmax", "gs-st", "reinforce", "redge",
                     "redge-soft", "redge-max", "redge-cov"):
            cfg = EstimatorConfig(kind=kind, steps=3, tau=0.8)
            est = estimate(dist, f, cfg, 5)
            assert est.grad.shape == (2, 3)
            assert np.all(np.isfinite(est.grad))
            assert est.kind in (kind, "st", "reinmax")

    def test_for_sample_rejects_chain_kinds_and_bare_gs_st(self):
        dist = FactorizedCategorical([[0.1, -0.2]])
        hard = onehot_from_indices([0], 2)
        for cfg in (EstimatorConfig(kind="redge", steps=3), EstimatorConfig(kind="gs-st")):
            with pytest.raises(ValueError):
                estimate_for_sample(dist, sum_of_squares, cfg, hard)

    def test_same_seed_same_estimate(self):
        rng = np.random.default_rng(20)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        cfg = EstimatorConfig(kind="redge-max", steps=4)
        a = estimate(dist, f, cfg, 9)
        b = estimate(dist, f, cfg, 9)
        np.testing.assert_array_equal(a.grad, b.grad)


def tapes_left_by(fn) -> int:
    """Tapes that outlive ``fn()`` with the cyclic collector off.

    A tape is a reference cycle until it is released, so any tape ``fn``
    did not release stays in gc.get_objects().
    """

    def tapes():
        return sum(isinstance(o, Tape) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = tapes()
        fn()
        return tapes() - before
    finally:
        gc.enable()


def cubic_2x3(seed):
    rng = np.random.default_rng(seed)
    return FactorizedCategorical(rng.normal(size=(2, 3))), random_cubic(rng, 2, 3)


# Callers that build tapes outside estimate: a GMM run two per step (the exact
# NELBO and the entropy gradient), bias_variance one per enumerated
# configuration (eval_scalar), transport_slice one per row and the decay study
# one per t1.
TAPE_BUILDERS = {
    "gmm-run": lambda: runner.run_benchmark(
        gmm.gmm_generate(3, size=500), EstimatorConfig(kind="redge-max"), 5, 0),
    "bias-variance": lambda: bias_variance(
        EstimatorConfig(kind="redge", steps=4), *cubic_2x3(23), 3, 0),
    "transport-slice": lambda: transport_slice([0.3, 0.6], [0.2, 0.7], [0.1]),
    "decay-study": lambda: jacobian_decay_study([[0.5, -0.2, 0.1]], [0.1, 0.05]),
}


class TestMemoryAndLayout:
    def test_estimate_leaves_no_tape_behind(self):
        dist, f = cubic_2x3(21)

        def every_kind():
            for kind in ESTIMATOR_KINDS:
                estimate(dist, f, EstimatorConfig(kind=kind, steps=3), 5)

        assert tapes_left_by(every_kind) == 0

    @pytest.mark.parametrize("name", sorted(TAPE_BUILDERS))
    def test_tape_building_callers_leave_no_tape_behind(self, name):
        assert tapes_left_by(TAPE_BUILDERS[name]) == 0

    def test_a_binary_redge_estimate_stays_within_its_memory(self):
        # The poly-redge16 step's estimate: 32768 x 2 rows, n = 16.  The gap
        # chain runs in forward mode on a fixed eight-row workspace (2 MiB)
        # and keeps one derivative row, the polyprog node one (L, 2) array,
        # and the tape shares the read-only logits and one-hot instead of
        # copying them, so the traced peak stays below 4 MiB above entry
        # (about 3.0 MiB).  Storing one exp(-z) row per step for a reverse
        # sweep took it to 6.3 MiB; also copying both inputs and keeping the
        # one-hot through the sweep, to 7.3; storing each step's (d_0, d_1)
        # pair, to 11.5.
        problem = PolyProgProblem(length=32768)
        dist = FactorizedCategorical(0.1 * np.random.default_rng(23).standard_normal((32768, 2)))
        cfg = EstimatorConfig(kind="redge", steps=16)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            est = estimate(dist, lambda x: polyprog_loss(x, problem), cfg, 24)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.isfinite(est.grad).all()
        assert peak <= 4.0 * 2**20

    @pytest.mark.parametrize("kind", [k for k in ESTIMATOR_KINDS if k != "redge-soft"])
    def test_an_estimate_keeps_no_onehot_matrix(self, kind):
        # A hard sample holds its (L,) indices; the (L, K) one-hot is rebuilt
        # on each read, so an estimate kept alive holds none.
        dist, f = cubic_2x3(25)
        hard = estimate(dist, f, EstimatorConfig(kind=kind, steps=3), 6).hard_sample
        assert all(np.ndim(v) <= 1 for v in vars(hard).values())
        np.testing.assert_array_equal(hard.onehot, np.eye(3)[hard.indices])

    @pytest.mark.parametrize("config", [ST, REINMAX])
    def test_st_and_reinmax_hand_back_the_probabilities_uncopied(self, config):
        dist, f = cubic_2x3(26)
        assert estimate(dist, f, config, 7).soft_sample is dist.probs

    @pytest.mark.parametrize("categories", [3, 17])
    def test_logits_layout_does_not_change_the_estimate(self, categories):
        # C-ordered, Fortran-ordered and strided-view logits give the same
        # arrays, and the chain hands back C-ordered (L, K) results.
        rng = np.random.default_rng(22)
        logits = rng.normal(size=(4, categories))
        wide = np.zeros((4, 2 * categories))
        wide[:, ::2] = logits
        layouts = (logits, np.asfortranarray(logits), wide[:, ::2])
        f = random_cubic(rng, 4, categories)
        for kind in ESTIMATOR_KINDS:
            cfg = EstimatorConfig(kind=kind, steps=4)
            first, *rest = (estimate(FactorizedCategorical(x), f, cfg, 3) for x in layouts)
            assert first.grad.flags.c_contiguous
            for est in rest:
                assert est.objective_value == first.objective_value
                np.testing.assert_array_equal(est.grad, first.grad)
                if first.soft_sample is not None:
                    assert est.soft_sample.flags.c_contiguous
                    np.testing.assert_array_equal(est.soft_sample, first.soft_sample)
                if first.hard_sample is not None:
                    np.testing.assert_array_equal(est.hard_sample.onehot,
                                                  first.hard_sample.onehot)
