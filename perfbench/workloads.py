"""The benchmark workloads: seeded inputs, one timed call, and its checks.

A workload builds its inputs from the workload seed, then runs *calls*: one
``run_benchmark`` per call on the runner workloads, one ``bias_variance`` per
call on ``biasvar-redge``.  Calls cycle through ``cycle`` sub-seeds.
``result_loss`` is the mean over one full cycle, so it is deterministic for a
seed; every later call repeats an earlier one and must reproduce it bit for
bit.  Averaging over a cycle is what keeps ``result_loss`` steady across
seeds on ``gmm-redgemax`` (the NELBO scale depends on the drawn mixture) and
``biasvar-redge`` (the MSE scale depends on the drawn cubic).
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from redge import analysis
from redge.benchmarks import gmm, runner, sudoku
from redge.benchmarks.polyprog import PolyProgProblem
from redge.categorical import FactorizedCategorical
from redge.estimators import EstimatorConfig

from tracer import ProbeError, StepClock, patched


def sub_seed(seed: int, j: int) -> int:
    """Integer seed of call ``j`` of a cycle, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, j)).generate_state(1)[0])


@dataclass
class CallResult:
    loss: float              # this call's result_loss term
    steps: int               # steps attempted
    failed: int              # steps that raised, diverged, went non-finite or failed a check
    rows: int                # categorical rows pushed through the estimator
    step_s: list             # wall time of each timed step, seconds
    fingerprint: str         # digest of the call's numbers, for rerun checks
    errors: list = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


def _failed_call(steps: int, message: str) -> CallResult:
    traceback.print_exc(file=sys.stderr)
    return CallResult(math.nan, steps, steps, 0, [], "", [message])


class RunnerWorkload:
    """One ``run_benchmark`` call per benchmark call; a step is one optimizer step.

    Step boundaries come from a timestamp-only probe on the ``estimate`` name
    the runner calls once per step, so a call of S steps gives S - 1 step
    times; the last step also holds the run's summary and is not timed.
    """

    step_span = "estimators.estimate"
    step_is_span = False
    loss_key = ""
    cycle = 1

    def __init__(self, steps: int):
        self.steps = steps

    def problem(self, j):
        raise NotImplementedError

    def rows_per_step(self, j) -> int:
        raise NotImplementedError

    def run(self, j, steps):
        return runner.run_benchmark(self.problem(j), self.config, steps,
                                    sub_seed(self.seed, j), **self.kwargs)

    def cold_step(self):
        self.run(0, 1)

    def probes(self):
        """Extra probes active during a call; returns (replacements, check)."""
        return {}, lambda summary: []

    def call(self, j) -> CallResult:
        clock = StepClock()
        extra, check = self.probes()
        replacements = {(runner, "estimate"): clock.wrap(runner.estimate), **extra}
        try:
            with patched(replacements):
                result = self.run(j, self.steps)
        except ProbeError:
            raise
        except Exception as exc:            # the program failed: count, keep going
            return _failed_call(self.steps, f"run_benchmark raised {exc!r}")
        trace = result.trace
        if len(clock.stamps) != len(trace):
            raise ProbeError(f"estimate probe fired {len(clock.stamps)} times "
                             f"for {len(trace)} steps")
        bad = sum(1 for _, loss, g in trace if not (math.isfinite(loss) and math.isfinite(g)))
        bad += self.steps - len(trace)
        if result.diverged:
            bad = max(bad, 1)
        errors = check(result.summary)
        loss = float(result.summary[self.loss_key])
        if not math.isfinite(loss):
            errors.append(f"{self.loss_key} is {loss}")
        if errors:
            bad = self.steps
        summary = {k: v for k, v in result.summary.items() if k != "wall_seconds"}
        fingerprint = _digest(np.array(trace, dtype=np.float64).ravel(),
                              [v for v in summary.values() if isinstance(v, float)])
        return CallResult(loss, self.steps, bad, self.rows_per_step(j) * len(trace),
                          list(np.diff(clock.stamps)), fingerprint, errors)


class PolyWorkload(RunnerWorkload):
    """``run_polyprog``, length 128 power relaxation, batch 256, ``redge`` n=16."""

    loss_key = "gap_to_optimum"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(steps=5 if tiny else 100)
        self.seed = seed
        self.poly = PolyProgProblem(length=8 if tiny else 128)
        self.config = EstimatorConfig(kind="redge", steps=4 if tiny else 16)
        self.kwargs = {"batch": 4 if tiny else 256}

    def problem(self, j):
        return self.poly

    def rows_per_step(self, j) -> int:
        return self.poly.length * self.kwargs["batch"]

    def probes(self):
        lo, hi = self.poly.optimum, max(self.poly.vertex_values())

        def check(summary):
            final = summary["final_loss"]
            return [] if lo <= final <= hi else [f"final_loss {final} outside [{lo}, {hi}]"]

        return {}, check


def _is_solution(indices) -> bool:
    """Independent Sudoku check: rows, columns and blocks are permutations of 0..8."""
    grid = np.asarray(indices).reshape(9, 9)
    blocks = grid.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    return all(np.array_equal(np.sort(line), np.arange(9))
               for part in (grid, grid.T, blocks) for line in part)


class SudokuWorkload(RunnerWorkload):
    """``run_sudoku`` on ``generate_puzzles(32, seed)`` with ``reinmax``."""

    loss_key = "mean_loss"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(steps=5 if tiny else 100)
        self.seed = seed
        self.puzzles = sudoku.generate_puzzles(2 if tiny else 32, seed)
        self.config = EstimatorConfig(kind="reinmax")
        self.kwargs = {}
        self.free_rows = sum(p.free_count for p in self.puzzles)

    def problem(self, j):
        return self.puzzles

    def rows_per_step(self, j) -> int:
        return self.free_rows

    def probes(self):
        """Record every grid the runner validates, to re-check the solved ones."""
        seen = []
        original = runner.is_valid_grid

        def recording(indices):
            ok = original(indices)
            seen.append((np.array(indices, copy=True), ok))
            return ok

        def check(summary):
            errors = []
            if len(seen) != len(self.puzzles):
                raise ProbeError(f"is_valid_grid fired {len(seen)} times "
                                 f"for {len(self.puzzles)} puzzles")
            solved = [grid for grid, ok in seen if ok]
            if len(solved) != summary["solved_count"]:
                errors.append("solved_count disagrees with the validated grids")
            if not all(_is_solution(grid) for grid in solved):
                errors.append("a grid counted as solved is not a valid Sudoku")
            return errors

        return {(runner, "is_valid_grid"): recording}, check


class GmmWorkload(RunnerWorkload):
    """``run_gmm`` with ``redge-max`` n=4, one 500x20 mixture per cycle call."""

    loss_key = "tail_nelbo_mean"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(steps=5 if tiny else 150)
        self.seed = seed
        self.cycle = 2 if tiny else 16
        size = 40 if tiny else 500
        self.mixtures = [gmm.gmm_generate(sub_seed(seed, j), size=size)
                         for j in range(self.cycle)]
        self.config = EstimatorConfig(kind="redge-max", steps=4)
        self.kwargs = {"tail": 5 if tiny else 100}

    def problem(self, j):
        return self.mixtures[j]

    def rows_per_step(self, j) -> int:
        return self.mixtures[j].size


class BiasVarWorkload:
    """``bias_variance`` with ``redge`` n=4 on L x K = 2 x 3 random cubics, R=200.

    A step is one ``bias_variance`` call; call j uses cubic j of the cycle.
    """

    step_span = "analysis.bias_variance"
    step_is_span = True

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.cycle = 2 if tiny else 100
        self.replications = 10 if tiny else 200
        self.config = EstimatorConfig(kind="redge", steps=4)
        self.problems = []
        for j in range(self.cycle):
            rng = np.random.default_rng(np.random.SeedSequence((seed, j)))
            f = analysis.random_cubic(rng, 2, 3)
            self.problems.append((FactorizedCategorical(rng.standard_normal((2, 3))), f))

    def run(self, j):
        dist, f = self.problems[j]
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, j, 1)))
        return analysis.bias_variance(self.config, dist, f, self.replications, rng)

    def cold_step(self):
        self.run(0)

    def call(self, j) -> CallResult:
        start = time.perf_counter()
        try:
            rep = self.run(j)
        except Exception as exc:            # the program failed: count, keep going
            return _failed_call(1, f"bias_variance raised {exc!r}")
        elapsed = time.perf_counter() - start
        errors = []
        if not (np.all(np.isfinite(rep.mean_grad)) and math.isfinite(rep.mse)):
            errors.append("non-finite gradient or mse")
        identity = rep.bias_norm**2 + rep.trace_cov
        if not abs(rep.mse - identity) <= 1e-9 * abs(rep.mse):
            errors.append(f"mse {rep.mse!r} != bias_norm^2 + trace_cov {identity!r}")
        rows = rep.mean_grad.shape[0] * self.replications
        fingerprint = _digest(rep.mean_grad, [rep.mse, rep.bias_norm, rep.trace_cov])
        return CallResult(rep.mse, 1, 1 if errors else 0, rows, [elapsed],
                          fingerprint, errors)


WORKLOADS = {
    "poly-redge16": PolyWorkload,
    "sudoku-reinmax": SudokuWorkload,
    "gmm-redgemax": GmmWorkload,
    "biasvar-redge": BiasVarWorkload,
}


def expected_calls(name: str, workload) -> dict:
    """Calls per step of each traced span, as the code at hand makes them.

    A refactor that moves a call site changes these counts and makes the
    traced run fail instead of reporting 0 ms for the layer it no longer sees.
    """
    if name == "biasvar-redge":
        r = workload.replications
        return {"analysis.bias_variance": 1, "analysis.exact_gradient": 1,
                "estimators.estimate": r, "diffusion.draw_noise": r,
                "diffusion.sample_trajectory": r, "categorical.hard_draw": r,
                "estimators.eval_objective": r, "tensor.backward": 2 * r}
    calls = {"estimators.estimate": 1, "categorical.hard_draw": 1,
             "estimators.eval_objective": 1, "benchmarks.runner.trace_loss": 1,
             "benchmarks.adam.adam_step": 1}
    if name == "poly-redge16":
        calls.update({"diffusion.draw_noise": 1, "diffusion.sample_trajectory": 1,
                      "tensor.backward": 2, "benchmarks.polyprog.objective": 1})
    elif name == "sudoku-reinmax":
        calls.update({"tensor.backward": 1, "benchmarks.sudoku.objective": 1})
    elif name == "gmm-redgemax":
        calls.update({"diffusion.draw_noise": 1, "diffusion.sample_trajectory": 1,
                      "tensor.backward": 3, "benchmarks.gmm.objective": 1,
                      "benchmarks.gmm.entropy_prior_gradient": 1,
                      "benchmarks.adam.adam_step": 2})
    return calls


def expected_setup_calls(name: str, workload) -> dict:
    if name == "sudoku-reinmax":
        return {"benchmarks.sudoku.generate_puzzles": 1}
    if name == "gmm-redgemax":
        return {"benchmarks.gmm.gmm_generate": workload.cycle}
    return {}
