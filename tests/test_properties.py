"""Property tests through the single ``estimate`` entry point.

Every kind gives a finite gradient or raises ``ValueError`` on extreme inputs
(saturated logits, K=2 and K=20, t1 near zero, noisy chains), with numpy
warnings raised as errors; and the single-step chain reproduces the classical
estimators on random instances.  Examples are derandomized so that Tier-1
runs are reproducible.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redge.analysis import random_cubic
from redge.categorical import FactorizedCategorical
from redge.estimators import ESTIMATOR_KINDS, EstimatorConfig, estimate
from redge.gradcheck import soft_st_gradient

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_gap):
    """(distribution, random cubic objective, seed) with one row entry raised
    by a logit gap of up to ``max_gap`` over the others."""
    length = draw(st.integers(1, 4))
    categories = draw(st.sampled_from((2, 20)))
    seed = draw(st.integers(0, 2**32 - 1))
    gap = draw(st.floats(0.0, max_gap))
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((length, categories))
    logits[:, 0] += gap
    return FactorizedCategorical(logits), random_cubic(rng, length, categories), seed


@st.composite
def schedules(draw):
    """(steps, t1): t1 left at its default for n=2, where it must be 1."""
    steps = draw(st.integers(2, 6))
    if steps == 2:
        return steps, None
    return steps, draw(st.one_of(st.none(), st.floats(1e-8, 1.0)))


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@PROPERTY
@given(case=instances(1e4), schedule=schedules(), eta=st.sampled_from(("zero", "half", "full")),
       base_backprop=st.booleans())
def test_gradient_finite_or_value_error(kind, case, schedule, eta, base_backprop):
    dist, f, seed = case
    steps, t1 = schedule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = EstimatorConfig(kind=kind, steps=steps, t1=t1, eta=eta,
                                     base_backprop=base_backprop)
            est = estimate(dist, f, config, seed)
        except ValueError:
            return
    assert est.grad.shape == dist.logits.shape
    assert np.all(np.isfinite(est.grad))


@PROPERTY
@given(case=instances(10.0))
def test_single_step_reductions(case):
    dist, f, seed = case
    soft = estimate(dist, f, EstimatorConfig(kind="redge-soft", steps=2), seed)
    assert np.abs(soft.grad - soft_st_gradient(dist, f)).max() <= 1e-12
    for diffusion_kind, classical_kind in (("redge", "st"), ("redge-max", "reinmax")):
        a = estimate(dist, f, EstimatorConfig(kind=diffusion_kind, steps=2), seed)
        b = estimate(dist, f, EstimatorConfig(kind=classical_kind), seed)
        np.testing.assert_array_equal(a.hard_sample.indices, b.hard_sample.indices)
        assert np.abs(a.grad - b.grad).max() <= 1e-12
