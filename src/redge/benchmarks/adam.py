"""Adam optimizer, written out so update arithmetic is fully deterministic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    """First/second moment buffers shaped like the parameters, plus step count."""

    lr: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameters.

    The moment buffers ``state.m`` and ``state.v`` are updated in place.

    Aborts on non-finite gradients so a diverging run fails loudly instead of
    poisoning the moment buffers.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient passed to Adam")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step_count += 1
    m, v = state.m, state.v   # updated in place
    np.multiply(m, state.beta1, out=m)
    m += (1.0 - state.beta1) * grad
    np.multiply(v, state.beta2, out=v)
    v += grad**2 * (1.0 - state.beta2)
    m_hat = m / (1.0 - state.beta1**state.step_count)
    v_hat = v / (1.0 - state.beta2**state.step_count)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
