"""Run-harness tests: bit-identical reruns, the diverged path, and dispatch."""

import math

import numpy as np
import pytest

from redge.benchmarks import gmm, runner, sudoku
from redge.benchmarks.polyprog import PolyProgProblem, exact_polyprog_loss
from redge.categorical import FactorizedCategorical
from redge.estimators import EstimatorConfig

# (problem, estimator config, run_benchmark keyword arguments), all tiny
CASES = {
    "poly": (PolyProgProblem(length=8), EstimatorConfig(kind="redge", steps=3), {"batch": 2}),
    "gmm": (gmm.gmm_generate(3, size=40, components=5),
            EstimatorConfig(kind="redge-max", steps=3), {"tail": 3}),
    "sudoku": (sudoku.generate_puzzles(2, 4), EstimatorConfig(kind="reinmax"), {}),
}


def _without_wall_clock(summary):
    return {k: v for k, v in summary.items() if k != "wall_seconds"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rerun_is_bit_identical(name):
    problem, cfg, kwargs = CASES[name]
    first = runner.run_benchmark(problem, cfg, 5, 11, **kwargs)
    second = runner.run_benchmark(problem, cfg, 5, 11, **kwargs)
    assert len(first.trace) == 5 and not first.diverged
    assert np.array(first.trace).tobytes() == np.array(second.trace).tobytes()
    assert _without_wall_clock(first.summary) == _without_wall_clock(second.summary)
    assert first.summary["config"]["problem"] == name
    assert first.summary["wall_seconds"] >= 0.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_gradient_stops_the_run_before_adam(name, monkeypatch):
    problem, cfg, kwargs = CASES[name]
    bad_step = 2
    real_estimate, real_adam = runner.estimate, runner.adam_step
    estimates, adam_grads = [], []

    def poisoned_estimate(*args, **kw):
        est = real_estimate(*args, **kw)
        if len(estimates) == bad_step:
            est.grad[0, 0] = np.nan
        estimates.append(est)
        return est

    def recording_adam(state, params, grad):
        adam_grads.append(np.array(grad, copy=True))
        return real_adam(state, params, grad)

    monkeypatch.setattr(runner, "estimate", poisoned_estimate)
    monkeypatch.setattr(runner, "adam_step", recording_adam)
    result = runner.run_benchmark(problem, cfg, 6, 11, **kwargs)

    assert len(estimates) == bad_step + 1
    assert [row[0] for row in result.trace] == list(range(bad_step + 1))
    assert math.isnan(result.trace[-1][2])
    assert result.diverged and result.summary["diverged"] is True
    params_per_step = 2 if name == "gmm" else 1
    assert len(adam_grads) == bad_step * params_per_step
    assert all(np.all(np.isfinite(g)) for g in adam_grads)


@pytest.mark.parametrize("problem", [object(), "poly", {"length": 8}])
def test_unknown_problem_type_rejected(problem):
    with pytest.raises(TypeError, match="unknown problem type"):
        runner.run_benchmark(problem, EstimatorConfig(), 1, 0)


def test_stream_layout_of_the_initial_parameters():
    problem, cfg, kwargs = CASES["poly"]
    logits = runner.INIT_LOGIT_STD * runner._stream(11, 1).standard_normal((8, 2))
    result = runner.run_benchmark(problem, cfg, 0, 11, **kwargs)
    assert result.trace == []
    want = exact_polyprog_loss(FactorizedCategorical(logits).probs, problem)
    assert result.summary["final_loss"] == want


def test_short_sudoku_runs_share_no_stream(monkeypatch):
    # The Monte-Carlo, summary and init streams all differ, also when steps <= 3.
    states = []
    real = runner._mc_hard_loss

    def recording(batch, logits, draws, rng):
        states.append(rng.bit_generator.state)
        return real(batch, logits, draws, rng)

    monkeypatch.setattr(runner, "_mc_hard_loss", recording)
    runner.run_benchmark(sudoku.generate_puzzles(1, 4), EstimatorConfig(kind="st"), 2, 11,
                         mc_draws=2)
    assert len(states) == 3
    init = [runner._stream(11, tag).bit_generator.state for tag in (1, 2, 3)]
    assert all(a != b for i, a in enumerate(states) for b in states[i + 1:] + init)
