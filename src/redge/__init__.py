"""Diffusion-based soft reparameterization of factorized categorical
distributions, classical discrete gradient estimators, exact enumeration and
closed-form Jacobian oracles, a vanishing-gradient analyzer, and three
reproducible optimization benchmarks."""

from .tensor import Tape, Node, finite_diff_gradient, jacobian, softmax_rows, stable_softmax
from .categorical import (
    FactorizedCategorical,
    OneHotSample,
    exact_gradient,
    sample,
)
from .diffusion import (
    Schedule,
    TrajectoryNoise,
    ddim_step,
    denoiser,
    denoiser_cov,
    denoiser_jacobians,
    draw_noise,
    linear_schedule,
    sample_trajectory,
    uniform_grid,
)
from .estimators import (
    ESTIMATOR_KINDS,
    EstimatorConfig,
    GradientEstimate,
    estimate,
    estimate_for_sample,
)
from .analysis import (
    BiasVarianceReport,
    DecayStudy,
    MarginReport,
    bias_variance,
    jacobian_decay_study,
    margin,
    operator_norm,
)

__version__ = "0.1.0"
