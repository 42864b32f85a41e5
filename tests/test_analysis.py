"""Margin, operator norm, decay study, bias/variance, and transport-slice tests."""

import numpy as np
import pytest

from redge.analysis import (
    PolyObjective,
    _batched_single_shot,
    bias_variance,
    bound_threshold,
    decay_sweep_coefs,
    default_decay_study,
    jacobian_decay_study,
    margin,
    operator_norm,
    random_cubic,
    random_linear,
    transport_slice,
)
from redge.categorical import (
    FactorizedCategorical,
    exact_gradient,
    gumbel_noise,
    onehot_from_indices,
)
from redge.diffusion import Schedule, denoiser_jacobians, linear_schedule
from redge.estimators import EstimatorConfig, estimate_for_sample


class TestMargin:
    def test_basic(self):
        rep = margin([3.0, 1.0, 0.0])
        assert rep.margin == 2.0 and rep.argmax_index == 0 and not rep.on_boundary

    def test_tie_is_boundary(self):
        rep = margin([2.0, 2.0, 0.0])
        assert rep.margin == 0.0 and rep.on_boundary

    def test_all_equal_degenerate(self):
        rep = margin([0.0, 0.0])
        assert rep.margin == 0.0 and rep.on_boundary

    def test_single_coordinate_rejected(self):
        with pytest.raises(ValueError):
            margin([5.0])

    def test_permutation_and_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=6)
            perm = rng.permutation(6)
            shift = float(rng.normal())
            assert margin(x).margin == pytest.approx(margin(x[perm]).margin, abs=1e-15)
            assert margin(x).margin == pytest.approx(margin(x + shift).margin, abs=1e-12)


class TestOperatorNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 8))))
            assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_small_scales(self):
        # relative accuracy must not depend on the scale of the matrix
        rng = np.random.default_rng(2)
        for scale in (1e-6, 1e-9):
            for _ in range(50):
                b = rng.normal(size=(3, 3))
                a = scale * (b + b.T)
                assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_covariance_like_matrix(self):
        # all-ones lies in the kernel; the ramp start vector must not stall
        p = np.array([0.2, 0.3, 0.5])
        sigma = np.diag(p) - np.outer(p, p)
        assert operator_norm(sigma) == pytest.approx(np.linalg.norm(sigma, 2), rel=1e-8)


class TestCoefMaps:
    def test_roundtrip(self):
        for c in (0.5, 1.0, 2.0, 37.5, 400.0):
            assert Schedule.coef_ratio(Schedule.t_for_coef(c)) == pytest.approx(c, rel=1e-12)

    def test_known_value(self):
        assert Schedule.coef_ratio(0.5) == 2.0
        assert Schedule.t_for_coef(2.0) == pytest.approx(0.5)


class TestDecayStudy:
    def test_single_step_closed_form_decay(self):
        # Single reverse step at theta = 0: the parameter Jacobian is exactly
        # the covariance of softmax(c x); its log-norm decays in c with slope
        # at most -margin/2 + 0.1.
        sched = linear_schedule(2)
        x = np.array([[0.8, 0.0]])
        m = margin(x[0]).margin
        cs = np.linspace(5.0, 40.0, 12)
        norms = []
        for c in cs:
            t = Schedule.t_for_coef(c)
            sig_theta, _ = denoiser_jacobians(np.zeros((1, 2)), x, t, sched)
            norms.append(operator_norm(sig_theta[0]))
        norms = np.array(norms)
        assert np.all(np.diff(np.log(norms)) < 0.0)
        tail = slice(len(cs) - len(cs) // 3, None)
        slope = np.polyfit(cs[tail], np.log(norms)[tail], 1)[0]
        assert slope <= -m / 2 + 0.1

    def test_study_slope_and_threshold(self):
        rng = np.random.default_rng(2)
        for categories in (2, 3):
            theta = 0.3 * rng.standard_normal((1, categories))
            x1 = rng.standard_normal((1, categories))
            study = default_decay_study(theta, x1)
            m = study.limit_margin
            assert study.slope is not None and study.slope <= -m / 2 + 0.1
            c_star = bound_threshold(m, categories)
            beyond = [p for p in study.points if p.c >= c_star]
            assert beyond and all(p.jac_norm <= 1e-6 for p in beyond)

    def test_bound_envelope(self):
        # Prop-style envelope: |J| exp(+m c/2) / (1 + c M) <= 2K(K-1), valid
        # once c m/2 dominates the logit spread (theta = 0 here, so always).
        study = default_decay_study(np.zeros((1, 3)), np.array([[0.9, 0.1, -0.4]]))
        mk = 2.0 * 3 * 2
        for p in study.points:
            ratio = p.jac_norm * np.exp(p.margin * p.c / 2.0) / (1.0 + p.c * study.chain_bound)
            assert ratio <= mk + 1e-9

    def test_symmetric_noise_flagged_as_boundary(self):
        # Terminal noise on the symmetry axis with symmetric logits keeps the
        # trajectory on the tie set; the point is flagged and left out of fits.
        study = jacobian_decay_study(np.zeros((1, 2)), [0.2, 0.1], n=4,
                                     x1=np.array([[0.3, 0.3]]))
        assert all(p.on_boundary for p in study.points)
        assert study.slope is None

    def test_rejects_multirow(self):
        with pytest.raises(ValueError):
            jacobian_decay_study(np.zeros((2, 2)), [0.2], n=4)

    def test_csv_rows(self):
        study = default_decay_study(np.zeros((1, 2)), np.array([[0.7, -0.2]]))
        header, rows = study.csv_rows()
        assert header == ["t1", "c_t1", "jac_norm", "margin", "bound_value"]
        assert len(rows) == len(study.points) and len(rows[0]) == 5


class TestBiasVariance:
    def test_reinforce_linear_unbiased_within_ci(self):
        rng = np.random.default_rng(3)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_linear(rng, 2, 3)
        rep = bias_variance(EstimatorConfig(kind="reinforce"), dist, f, 100_000, 5)
        assert rep.bias_norm <= 3.0 * np.sqrt(rep.trace_cov / rep.replications)

    def test_st_linear_unbiased_cubic_biased(self):
        rng = np.random.default_rng(4)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        lin = random_linear(rng, 2, 3)
        rep_lin = bias_variance(EstimatorConfig(kind="st"), dist, lin, 50_000, 6)
        # linear f makes the transported cotangent constant, so the variance
        # collapses; keep a float-noise floor on the band
        band = 3.0 * np.sqrt(rep_lin.trace_cov / rep_lin.replications) + 1e-10
        assert rep_lin.bias_norm <= band
        cub = random_cubic(rng, 2, 3)
        rep_cub = bias_variance(EstimatorConfig(kind="st"), dist, cub, 50_000, 7)
        assert rep_cub.bias_norm > 5.0 * np.sqrt(rep_cub.trace_cov / rep_cub.replications)

    def test_degenerate_distribution_bias_is_exact_norm(self):
        dist = FactorizedCategorical([[300.0, 0.0]])
        f = random_cubic(np.random.default_rng(5), 1, 2)
        rep = bias_variance(EstimatorConfig(kind="st"), dist, f, 200, 8)
        assert rep.trace_cov <= 1e-20
        assert rep.bias_norm == pytest.approx(np.linalg.norm(rep.exact_grad), rel=1e-9)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(6)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        for kind in ("st", "reinmax", "reinforce"):
            rep = bias_variance(EstimatorConfig(kind=kind), dist, f, 5_000, 9)
            assert rep.mse == pytest.approx(rep.bias_norm**2 + rep.trace_cov, abs=1e-9)
        rep = bias_variance(EstimatorConfig(kind="redge", steps=3), dist, f, 300, 10)
        assert rep.mse == pytest.approx(rep.bias_norm**2 + rep.trace_cov, abs=1e-9)

    def test_batched_path_matches_enumeration(self):
        # Statistical check of the vectorized fast path: the replicated ST
        # mean must sit inside the CLT band of its enumerated expectation.
        rng = np.random.default_rng(7)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        from redge.categorical import enumerate_onehots, joint_probability
        want = np.zeros_like(dist.logits)
        second = 0.0
        for s in enumerate_onehots(2, 3):
            g = estimate_for_sample(dist, f, EstimatorConfig(kind="st"), s).grad
            w = joint_probability(dist, s)
            want += w * g
            second += w * float((g**2).sum())
        rep = bias_variance(EstimatorConfig(kind="st"), dist, f, 40_000, 11)
        band = 4.0 * np.sqrt(max(second - (want**2).sum(), 0.0) / rep.replications)
        assert np.linalg.norm(rep.mean_grad - want) <= band
        assert rep.trace_cov == pytest.approx(second - (want**2).sum(), rel=0.1)


    @pytest.mark.parametrize("kind", ["st", "redge"])
    def test_rejects_fewer_than_one_replication(self, kind):
        # st takes the batched path, redge the per-replication loop
        dist = FactorizedCategorical(np.zeros((2, 3)))
        f = random_cubic(np.random.default_rng(12), 2, 3)
        for replications in (0, -1):
            with pytest.raises(ValueError, match="replications"):
                bias_variance(EstimatorConfig(kind=kind, steps=3), dist, f, replications, 0)

    def test_batched_replications_match_single_sample_estimators(self):
        rng = np.random.default_rng(13)
        dist = FactorizedCategorical(rng.normal(size=(2, 3)))
        f = random_cubic(rng, 2, 3)
        noise = gumbel_noise((20, 2, 3), np.random.default_rng(14))
        for kind in ("st", "reinmax", "reinforce"):
            config = EstimatorConfig(kind=kind)
            grads = _batched_single_shot(config, dist, f, 20, np.random.default_rng(14))
            for r in range(20):
                hard = onehot_from_indices(np.argmax(dist.logits + noise[r], axis=1), 3)
                np.testing.assert_allclose(grads[r], estimate_for_sample(dist, f, config, hard).grad,
                                           rtol=1e-12, atol=1e-14)


class TestTransportSlice:
    def test_sharpens_as_t1_shrinks(self):
        thetas = np.linspace(0.05, 0.95, 31)
        rows = transport_slice(thetas, quantiles=[0.5], t1_list=[0.5, 0.05], n=4)
        by_t1 = {}
        for t1, _, theta, out in rows:
            by_t1.setdefault(t1, []).append(out)
        slopes = {t1: np.abs(np.diff(v)).max() for t1, v in by_t1.items()}
        assert slopes[0.05] > slopes[0.5]
        for vals in by_t1.values():
            assert all(-0.05 <= v <= 1.05 for v in vals)

    def test_row_format(self):
        rows = transport_slice([0.3], [0.25, 0.75], [0.2], n=4)
        assert len(rows) == 2
        t1, q, theta, out = rows[0]
        assert (t1, q, theta) == (0.2, 0.25, 0.3)
        assert np.isfinite(out)
