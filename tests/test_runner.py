"""Run-harness tests: bit-identical reruns and trace files, the diverged
path, dispatch, the checks on the task options, and the Sudoku Monte-Carlo
trace loss."""

import math

import numpy as np
import pytest

from redge.benchmarks import gmm, runner, sudoku
from redge.benchmarks.polyprog import PolyProgProblem, exact_polyprog_loss
from redge.categorical import FactorizedCategorical
from redge.estimators import EstimatorConfig
from redge.tensor import stable_softmax

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
def test_trace_csv_of_a_rerun_is_byte_identical(name, tmp_path):
    # The trace file holds step, loss and grad_norm, each float in its
    # round-trip form; the wall clock goes only to the summary's
    # wall_seconds, which no rerun reproduces.
    problem, cfg, kwargs = CASES[name]
    runs = [runner.run_benchmark(problem, cfg, 3, 11, **kwargs) for _ in range(2)]
    paths = [tmp_path / f"trace{i}.csv" for i in range(2)]
    for path, run in zip(paths, runs):
        runner.write_trace_csv(path, run.trace)
    first, second = (path.read_bytes() for path in paths)
    assert first == second
    header, *rows = first.decode("utf-8").split("\n")[:-1]
    assert header == "step,loss,grad_norm"
    assert [tuple(map(float, row.split(","))) for row in rows] == runs[0].trace


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

    def recording(batch, probs, draws, rng):
        states.append(rng.bit_generator.state)
        return real(batch, probs, draws, rng)

    monkeypatch.setattr(runner, "_mc_hard_loss", recording)
    runner.run_benchmark(sudoku.generate_puzzles(1, 4), EstimatorConfig(kind="st"), 2, 11,
                         mc_draws=2)
    assert len(states) == 3
    init = [runner._stream(11, tag).bit_generator.state for tag in (1, 2, 3)]
    assert all(a != b for i, a in enumerate(states) for b in states[i + 1:] + init)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("lr", [-0.1, 0.0, float("nan"), float("inf")])
def test_learning_rate_must_be_finite_and_positive(name, lr):
    problem, cfg, kwargs = CASES[name]
    with pytest.raises(ValueError, match="lr must be finite and > 0"):
        runner.run_benchmark(problem, cfg, 1, 11, lr=lr, **kwargs)


@pytest.mark.parametrize("name, option",
                         [("gmm", "tail"), ("poly", "batch"), ("sudoku", "mc_draws")])
@pytest.mark.parametrize("value", [0, -1, 2.0, 2.5, True])
def test_counts_must_be_integers_of_at_least_one(name, option, value):
    problem, cfg, kwargs = CASES[name]
    with pytest.raises(ValueError, match=f"{option} must be an integer >= 1, got {value!r}"):
        runner.run_benchmark(problem, cfg, 1, 11, **{**kwargs, option: value})


def test_an_empty_puzzle_list_is_rejected():
    with pytest.raises(ValueError, match="empty puzzle list"):
        sudoku.SudokuBatch([])
    with pytest.raises(ValueError, match="empty puzzle list"):
        runner.run_benchmark([], EstimatorConfig(kind="reinmax"), 1, 11)


@pytest.mark.parametrize("steps", [-3, -1, 2.0, True, None])
def test_steps_must_be_an_integer_of_at_least_zero(steps):
    problem, cfg, kwargs = CASES["poly"]
    with pytest.raises(ValueError, match=f"steps must be an integer >= 0, got {steps!r}"):
        runner.run_benchmark(problem, cfg, steps, 11, **kwargs)


def _exact_expected_penalty(batch, probs):
    """Per puzzle, sum over groups and digits of Var + (E - 1)^2 of the count,
    Var = sum p(1 - p) over the group's independent cells (clues add none)."""
    grids = batch.grids_from_free(probs)
    return (sudoku.group_sums(grids * (1.0 - grids)).sum(axis=(-2, -1))
            + np.square(sudoku.group_sums(grids) - 1.0).sum(axis=(-2, -1)))


def test_mc_hard_loss_is_unbiased_for_the_expected_penalty():
    batch = sudoku.SudokuBatch(sudoku.generate_puzzles(2, 4))
    probs = stable_softmax(1.5 * np.random.default_rng(3).standard_normal(
        (batch.total_free, sudoku.DIGITS)))
    losses = np.array([runner._mc_hard_loss(batch, probs, 16, np.random.default_rng(n))
                       for n in range(400)])                      # (streams, P)
    stderr = losses.std(axis=0, ddof=1) / np.sqrt(len(losses))
    gap = np.abs(losses.mean(axis=0) - _exact_expected_penalty(batch, probs))
    assert np.all(gap < 4.0 * stderr), (gap, stderr)


def test_mc_hard_loss_matches_the_per_category_loop():
    # The loop the Monte-Carlo loss ran before it shared categorical.inverse_cdf.
    batch = sudoku.SudokuBatch(sudoku.generate_puzzles(2, 4))
    probs = stable_softmax(1.5 * np.random.default_rng(4).standard_normal(
        (batch.total_free, sudoku.DIGITS)))
    rng = np.random.default_rng(8)
    u = rng.random((16, probs.shape[0]))
    cdf = np.zeros(probs.shape[0])
    digits = np.zeros(u.shape, dtype=np.int64)
    for p_k in probs.T[:-1]:
        cdf += p_k
        digits += cdf <= u
    want = batch.hard_penalties(digits).mean(axis=0)
    got = runner._mc_hard_loss(batch, probs, 16, np.random.default_rng(8))
    assert got.tobytes() == want.tobytes()


class _DigitRecorder:
    """Stands in for a SudokuBatch and keeps the digits it is scored on."""

    def hard_penalties(self, digits):
        self.digits = digits
        return np.zeros((digits.shape[0], 1))


def test_mc_hard_loss_draws_from_saturated_rows():
    k = sudoku.DIGITS
    logits = np.array([np.where(np.arange(k) % 2, -800.0, 0.0),   # odd digits underflow
                       np.eye(k)[4] * 60.0,                       # near one-hot on 4
                       np.eye(k)[k - 1] * 60.0,                   # near one-hot on the last
                       np.r_[np.zeros(k - 1), -800.0],            # last digit underflows
                       np.zeros(k)])
    probs = FactorizedCategorical(logits).probs
    assert np.all(probs[0, 1::2] == 0.0) and probs[3, -1] == 0.0
    batch = _DigitRecorder()
    runner._mc_hard_loss(batch, probs, 4000, np.random.default_rng(5))
    digits = batch.digits
    assert digits.shape == (4000, 5)
    assert digits.min() >= 0 and digits.max() < k
    assert np.all(digits[:, 0] % 2 == 0)
    assert np.all(digits[:, 1] == 4) and np.all(digits[:, 2] == k - 1)
    assert digits[:, 3].max() < k - 1
    assert set(digits[:, 4]) == set(range(k))


@pytest.mark.parametrize("kind", ["reinmax", "redge"])
def test_the_trace_loss_does_not_steer_optimisation(kind, monkeypatch):
    problems, cfg = sudoku.generate_puzzles(2, 4), EstimatorConfig(kind=kind, steps=3)
    grids = []
    real_argmax = sudoku.SudokuBatch.argmax_grids

    def recording_argmax(self, free_logits):
        grids.append(real_argmax(self, free_logits))
        return grids[-1]

    monkeypatch.setattr(sudoku.SudokuBatch, "argmax_grids", recording_argmax)
    real = runner.run_benchmark(problems, cfg, 6, 11)
    monkeypatch.setattr(runner, "_mc_hard_loss",
                        lambda batch, probs, draws, rng: np.zeros(batch.count))
    zeroed = runner.run_benchmark(problems, cfg, 6, 11)
    assert [row[1] for row in zeroed.trace] == [0.0] * 6
    assert [row[2] for row in zeroed.trace] == [row[2] for row in real.trace]
    assert np.array_equal(grids[0], grids[1])


def test_adam_updates_its_moments_in_place_bit_for_bit():
    # The old out-of-place expressions, kept as the oracle.
    from redge.benchmarks.adam import AdamState, adam_step

    rng = np.random.default_rng(40)
    params = want = rng.standard_normal((6, 3))
    state, m, v = AdamState(lr=0.03), np.zeros((6, 3)), np.zeros((6, 3))
    for step in range(1, 6):
        grad = rng.standard_normal((6, 3)) * 10.0 ** (step - 3)
        params = adam_step(state, params, grad)
        if step == 1:
            buffers = state.m, state.v
        m = state.beta1 * m + (1.0 - state.beta1) * grad
        v = state.beta2 * v + (1.0 - state.beta2) * grad**2
        m_hat = m / (1.0 - state.beta1**step)
        v_hat = v / (1.0 - state.beta2**step)
        want = want - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        assert params.tobytes() == want.tobytes()
        assert (state.m.tobytes(), state.v.tobytes()) == (m.tobytes(), v.tobytes())
    assert state.m is buffers[0] and state.v is buffers[1]
