"""Run harness: optimize each benchmark with a chosen estimator and record
reproducible traces.

:func:`run_benchmark` is the only loop; it owns the trace rows (step, loss,
grad_norm), the divergence check, one Adam state per parameter, the config
echo and ``wall_seconds``.  A small task object, chosen by the problem's
type, supplies the rest: ``init(rng)`` gives the parameter list (logits
first), ``step(params, k)`` one step's (gradients, trace loss), and
``summary(params, trace)`` the problem's summary fields.

Batched replications are realized by row-stacking: the factorized rows of
independent replications (or puzzles) are concatenated into one logit matrix,
one estimator call serves the whole batch, and the gradient is folded back by
summing replication tiles.

Every random stream is ``SeedSequence(entropy=(seed, n))``: initial
parameters use n = ``init_tag`` (1 poly, 2 GMM logits then means, 3 Sudoku),
and the estimator at step k spawns its two streams from n = k (spawned
children never coincide with the stream n itself).  The Sudoku Monte-Carlo
loss draws each free cell's digit by inverse CDF, one uniform per (draw,
cell), from n = m + k at step k and n = m + steps + 1 for the summary, with
m = max(steps, 4): above both the estimator tags and the init tags, and
m = steps whenever steps >= 4.  A rerun with the same configuration is
therefore bit-identical; traces deliberately contain no wall-clock columns.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..categorical import FactorizedCategorical, inverse_cdf
from ..estimators import EstimatorConfig, estimate
from .adam import AdamState, adam_step
from . import gmm as gmm_mod
from .polyprog import PolyProgProblem, exact_polyprog_loss, polyprog_loss
from .sudoku import DIGITS, SudokuBatch, is_valid_grid

INIT_LOGIT_STD = 0.1


@dataclass
class RunResult:
    trace: list                      # rows (step, loss, grad_norm)
    summary: dict
    diverged: bool = False


def _stream(seed: int, n: int) -> np.random.Generator:
    """The random stream ``SeedSequence(entropy=(seed, n))``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, n)))


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; '.' separator, platform independent."""
    return repr(float(x))


def write_trace_csv(path, trace) -> None:
    lines = ["step,loss,grad_norm"]
    for step, loss, grad_norm in trace:
        lines.append(f"{step},{format_float(loss)},{format_float(grad_norm)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_jsonify)
        fh.write("\n")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Tasks: what each benchmark adds to the loop
# ---------------------------------------------------------------------------


def _check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class _Task:
    def __init__(self, est_cfg: EstimatorConfig, steps: int, seed: int, lr: float,
                 echo: dict):
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {lr!r}")
        self.est_cfg, self.steps, self.seed, self.lr = est_cfg, steps, seed, lr
        self.echo = {"lr": lr, **echo}

    def gradients(self, dist: FactorizedCategorical, f, step: int):
        """The logits and auxiliary gradients of one ``estimate`` call.

        Only these outlive the call: a K >= 3 diffusion estimate's soft
        sample is a view of its chain's workspace, and dropping it here frees
        that workspace before the rest of the step allocates, which keeps the
        step's heap below glibc's trim threshold.
        """
        est = estimate(dist, f, self.est_cfg, _stream(self.seed, step))
        return est.grad, est.aux_grads


class _PolyTask(_Task):
    name, init_tag = "poly", 1

    def __init__(self, problem: PolyProgProblem, est_cfg, steps, seed,
                 batch: int = 256, lr: float = 0.05):
        _check_count("batch", batch)
        super().__init__(est_cfg, steps, seed, lr, {"batch": batch, **asdict(problem)})
        self.problem, self.batch = problem, batch
        self.stacked = replace(problem, length=batch * problem.length)

    def init(self, rng):
        return [INIT_LOGIT_STD * rng.standard_normal((self.problem.length, 2))]

    def step(self, params, step):
        (logits,) = params
        tile = np.empty((self.batch * self.problem.length, 2))
        tile.reshape(self.batch, -1, 2)[:] = logits   # np.tile's rows, in an array it owns
        tile.flags.writeable = False   # handed over: the distribution shares it, not copies it
        dist = FactorizedCategorical(tile)
        grad, _ = self.gradients(dist, lambda x: polyprog_loss(x, self.stacked), step)
        grad = grad.reshape(self.batch, self.problem.length, 2).sum(axis=0)
        return [grad], exact_polyprog_loss(FactorizedCategorical(logits).probs, self.problem)

    def summary(self, params, trace):
        final_loss = exact_polyprog_loss(FactorizedCategorical(params[0]).probs, self.problem)
        return {"final_loss": final_loss, "optimum": self.problem.optimum,
                "gap_to_optimum": final_loss - self.problem.optimum}


class _GmmTask(_Task):
    name, init_tag = "gmm", 2

    def __init__(self, problem: gmm_mod.GmmProblem, est_cfg, steps, seed,
                 lr: float = 0.01, tail: int = 100):
        super().__init__(est_cfg, steps, seed, lr,
                         {"size": problem.size, "components": problem.components,
                          "sigma0": problem.sigma0, "sigma_y": problem.sigma_y})
        _check_count("tail", tail)
        self.problem, self.tail = problem, tail

    def init(self, rng):
        p = self.problem
        return [INIT_LOGIT_STD * rng.standard_normal((p.size, p.components)),
                p.sigma0 * rng.standard_normal((p.components, p.dim))]

    def step(self, params, step):
        logits, mhat = params
        p, dist = self.problem, FactorizedCategorical(logits)
        grad, aux = self.gradients(dist, lambda x: gmm_mod.likelihood_term(x, mhat, p), step)
        g_logits = grad + gmm_mod.entropy_prior_gradient(dist, p)
        g_mhat = aux["mhat"] + gmm_mod.map_gradient(mhat, p)
        return [g_logits, g_mhat], gmm_mod.exact_objective_value(dist, mhat, p)

    def summary(self, params, trace):
        tail_vals = [row[1] for row in trace[-self.tail:]]
        nan = float("nan")
        return {"final_nelbo": trace[-1][1] if trace else nan,
                "tail_nelbo_mean": float(np.mean(tail_vals)) if tail_vals else nan,
                "tail_nelbo_std": float(np.std(tail_vals)) if tail_vals else nan,
                "clustering_accuracy": gmm_mod.clustering_accuracy(params[0],
                                                                   self.problem.true_z)}


class _SudokuTask(_Task):
    name, init_tag = "sudoku", 3

    def __init__(self, problems, est_cfg, steps, seed, lr: float = 0.05,
                 mc_draws: int = 16):
        _check_count("mc_draws", mc_draws)
        self.batch = SudokuBatch(problems)
        super().__init__(est_cfg, steps, seed, lr,
                         {"puzzles": self.batch.count, "mc_draws": mc_draws})
        self.mc_draws = mc_draws
        self.mc_tag = max(steps, 4)

    def init(self, rng):
        return [INIT_LOGIT_STD * rng.standard_normal((self.batch.total_free, DIGITS))]

    def step(self, params, step):
        dist = FactorizedCategorical(params[0])
        grad, _ = self.gradients(dist, self.batch.objective, step)
        loss = _mc_hard_loss(self.batch, dist.probs, self.mc_draws,
                             _stream(self.seed, self.mc_tag + step)).mean()
        return [grad], float(loss)

    def summary(self, params, trace):
        logits, batch = params[0], self.batch
        per_puzzle_loss = _mc_hard_loss(batch, FactorizedCategorical(logits).probs,
                                        self.mc_draws,
                                        _stream(self.seed, self.mc_tag + self.steps + 1))
        solved = np.array([is_valid_grid(grid) for grid in batch.argmax_grids(logits)])
        return {"mean_loss": float(per_puzzle_loss.mean()),
                "std_loss": float(per_puzzle_loss.std()),
                "solved_percent": float(100.0 * solved.mean()),
                "solved_count": int(solved.sum())}


def _mc_hard_loss(batch: SudokuBatch, probs: np.ndarray, draws: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo penalty over hard samples: per-puzzle average of `draws`,
    each free cell's digit drawn by ``inverse_cdf``."""
    digits = inverse_cdf(probs, rng, (draws,))            # (draws, F)
    return batch.hard_penalties(digits).mean(axis=0)     # (P,)


_TASKS = ((PolyProgProblem, _PolyTask), (gmm_mod.GmmProblem, _GmmTask),
          ((list, tuple), _SudokuTask))


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def run_benchmark(problem, est_cfg: EstimatorConfig, steps: int, seed: int,
                  **kwargs) -> RunResult:
    """Optimize one benchmark with Adam; ``problem`` selects the task by type.

    ``kwargs`` go to the task: ``batch``, ``lr`` for a PolyProgProblem; ``lr``,
    ``tail`` for a GmmProblem; ``lr``, ``mc_draws`` for a list of puzzles.  A
    step with non-finite gradients is traced, not applied, and ends the run.
    ``steps`` is an integer >= 0; with 0 the summary describes the start.
    """
    _check_count("steps", steps, least=0)
    cls = next((c for kind, c in _TASKS if isinstance(problem, kind)), None)
    if cls is None:
        raise TypeError(f"unknown problem type {type(problem)!r}")
    task = cls(problem, est_cfg, steps, seed, **kwargs)
    params = task.init(_stream(seed, task.init_tag))
    adams = [AdamState(lr=task.lr) for _ in params]
    trace = []
    diverged = False
    start = time.perf_counter()
    for step in range(steps):
        grads, loss = task.step(params, step)
        trace.append((step, loss, float(np.linalg.norm(grads[0]))))
        if not all(np.all(np.isfinite(g)) for g in grads):
            diverged = True
            break
        params = [adam_step(adam, p, g) for adam, p, g in zip(adams, params, grads)]
    summary = {
        "config": {"problem": task.name, "steps": steps, "seed": seed,
                   "estimator": asdict(est_cfg), **task.echo},
        **task.summary(params, trace),
        "diverged": diverged,
        "wall_seconds": time.perf_counter() - start,
    }
    return RunResult(trace=trace, summary=summary, diverged=diverged)
