"""Spans around the calls into each redge module, recorded from outside.

A :class:`Tracer` replaces each function in :data:`TARGETS` with a wrapper at
the name its caller looks up, so ``src/redge`` stays untouched.  A wrapper
appends one span (name, start, end, parent span, step id) to an in-memory
list; after each benchmark call the spans are folded into per-step rows, the
tree is checked, the call counts are compared with what the workload expects,
and the list is cleared.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

MB = float(1 << 20)

# (module or class where the caller looks the name up, attribute, span name)
TARGETS = (
    ("redge.benchmarks.runner", "estimate", "estimators.estimate"),
    ("redge.analysis", "estimate", "estimators.estimate"),
    ("redge.estimators", "draw_noise", "diffusion.draw_noise"),
    ("redge.estimators", "sample_trajectory", "diffusion.sample_trajectory"),
    ("redge.estimators", "sample", "categorical.hard_draw"),
    ("redge.estimators", "sample_onehot_rows", "categorical.hard_draw"),
    ("redge.estimators", "gumbel_noise", "categorical.hard_draw"),
    ("redge.estimators", "eval_objective", "estimators.eval_objective"),
    ("redge.tensor:Tape", "backward", "tensor.backward"),
    ("redge.benchmarks.runner", "polyprog_loss", "benchmarks.polyprog.objective"),
    ("redge.benchmarks.sudoku:SudokuBatch", "objective", "benchmarks.sudoku.objective"),
    ("redge.benchmarks.gmm", "likelihood_term", "benchmarks.gmm.objective"),
    ("redge.benchmarks.runner", "exact_polyprog_loss", "benchmarks.runner.trace_loss"),
    ("redge.benchmarks.runner", "_mc_hard_loss", "benchmarks.runner.trace_loss"),
    ("redge.benchmarks.gmm", "exact_objective_value", "benchmarks.runner.trace_loss"),
    ("redge.benchmarks.gmm", "entropy_prior_gradient", "benchmarks.gmm.entropy_prior_gradient"),
    ("redge.benchmarks.runner", "adam_step", "benchmarks.adam.adam_step"),
    ("redge.analysis", "bias_variance", "analysis.bias_variance"),
    ("redge.analysis", "exact_gradient", "analysis.exact_gradient"),
    ("redge.benchmarks.sudoku", "generate_puzzles", "benchmarks.sudoku.generate_puzzles"),
    ("redge.benchmarks.gmm", "gmm_generate", "benchmarks.gmm.gmm_generate"),
)

SETUP_SPANS = ("benchmarks.sudoku.generate_puzzles", "benchmarks.gmm.gmm_generate")
STEP_SPANS = tuple(dict.fromkeys(n for _, _, n in TARGETS if n not in SETUP_SPANS))
# Every per-step number a row can hold; absent from a row means zero.
STEP_METRICS = tuple(f"{n}.{m}" for n in STEP_SPANS for m in ("ms", "self_ms", "calls")) + (
    "tensor.backward.sweep_self_ms", "tensor.backward.objective_self_ms",
    "tensor.tape_nodes", "tensor.tape_mb", "tensor.const_mb",
    "diffusion.chain_nodes", "analysis.estimate.calls",
    "benchmarks.runner.self_ms", "analysis.self_ms", "step_ms")

# A backward pass directly under an estimator is its sweep over the sampling
# path; any other backward pass differentiates an objective.
_SWEEP_PARENT = "estimators.estimate"

# Tolerance on span arithmetic: sums of perf_counter differences.
_TIME_TOL = 1e-9


class ProbeError(RuntimeError):
    """A probe fired an unexpected number of times or was left installed."""


def resolve(where: str):
    """Object named by ``"module"`` or ``"module:Class"``."""
    module, _, cls = where.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(replacements):
    """Install ``{(owner, attribute): new}``; restore and verify on exit."""
    originals = {}
    try:
        for (owner, attr), new in replacements.items():
            originals[(owner, attr)] = owner.__dict__[attr]
            setattr(owner, attr, new)
        yield originals
    finally:
        for (owner, attr), old in originals.items():
            setattr(owner, attr, old)
        for (owner, attr), old in originals.items():
            if owner.__dict__[attr] is not old:
                raise ProbeError(f"{owner.__name__}.{attr} was not restored")


class StepClock:
    """Timestamp-only probe on the function a runner calls once per step."""

    def __init__(self):
        self.stamps = []

    def wrap(self, fn):
        stamps, clock = self.stamps, time.perf_counter

        def probe(*args, **kwargs):
            stamps.append(clock())
            return fn(*args, **kwargs)

        return probe


class Tracer:
    """Records spans from wrappers and folds them into per-step rows.

    ``step_span`` names the top-level span that opens a step.  With
    ``step_is_span`` the step is that span; otherwise a step runs from one
    opening to the next, and the last step of each call (which also holds
    the run's summary) is dropped.
    """

    def __init__(self, step_span: str, step_is_span: bool):
        self.step_span = step_span
        self.step_is_span = step_is_span
        self.spans = []          # [name, start, end, parent index, step id, extra]
        self.stack = []
        self.step = -1
        self.const_bytes = defaultdict(int)   # step id -> bytes copied by Tape.lift
        self.rows = []           # per-step dicts of completed steps
        self.setup = defaultdict(float)       # setup span name -> seconds
        self.setup_calls = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        opens_step = name == self.step_span

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_step and parent < 0:
                self.step += 1
            rec = [name, 0.0, 0.0, parent, self.step, None]
            stack.append(len(spans))
            spans.append(rec)
            before = extra.before(args) if extra else None
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if extra:
                    rec[5] = extra.after(args, before)

        return traced

    def _wrap_lift(self, fn):
        counts = self.const_bytes

        def lift(tape, value, requires_grad=False, name=None):
            node = fn(tape, value, requires_grad, name)
            if not requires_grad:
                counts[self.step] += node.value.nbytes
            return node

        return lift

    def replacements(self):
        table = {}
        for where, attr, name in TARGETS:
            owner = resolve(where)
            extra = _EXTRAS.get(name)
            table[(owner, attr)] = self._wrap(name, owner.__dict__[attr], extra)
        tape = resolve("redge.tensor:Tape")
        table[(tape, "lift")] = self._wrap_lift(tape.__dict__["lift"])
        return table

    @contextmanager
    def installed(self):
        with patched(self.replacements()):
            yield self
        if self.stack:
            raise ProbeError("spans left open after the traced call")

    # -- folding -----------------------------------------------------------

    def end_setup(self):
        """Move setup spans (recorded before any step) out of the span list."""
        for name, start, end, *_ in self.spans:
            self.setup[name] += end - start
            self.setup_calls[name] += 1
        self.spans.clear()
        self.const_bytes.clear()

    def end_call(self, expected_calls):
        """Fold one call's spans into per-step rows; return the spans."""
        spans = self.spans
        check_tree(spans)
        openers = [r for r in spans if r[3] < 0 and r[0] == self.step_span]
        if self.step_is_span:
            intervals = [(r[4], r[1], r[2]) for r in openers]
        else:
            intervals = [(a[4], a[1], b[1]) for a, b in zip(openers, openers[1:])]
        rows = step_rows(spans, intervals, self.const_bytes)
        check_calls(rows, expected_calls)
        self.rows.extend(rows)
        done = list(spans)
        spans.clear()
        self.const_bytes.clear()
        return done


class _TapeStats:
    """Nodes and computed bytes (values + grads) of a tape at backward."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(args, _):
        nodes = args[0].nodes
        total = 0
        for node in nodes:
            total += node.value.nbytes
            if node.grad is not None:
                total += node.grad.nbytes
        return len(nodes), total


class _ChainNodes:
    """Tape nodes a trajectory adds; its first argument is the logits node."""

    @staticmethod
    def before(args):
        return len(args[0].tape.nodes)

    @staticmethod
    def after(args, before):
        return len(args[0].tape.nodes) - before


_EXTRAS = {"tensor.backward": _TapeStats, "diffusion.sample_trajectory": _ChainNodes}


def check_tree(spans) -> None:
    """Children lie inside their parents and share their step; no span is open."""
    for i, (name, start, end, parent, step, _) in enumerate(spans):
        if not end >= start:
            raise ProbeError(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if parent >= i or start < p[1] or end > p[2] or step != p[4]:
                raise ProbeError(f"span {i} ({name}) escapes its parent {parent} ({p[0]})")


def step_rows(spans, intervals, const_bytes):
    """Per-step sums of duration, self time and calls, keyed by metric name.

    Each row also holds ``step_ms`` and ``benchmarks.runner.self_ms``, the
    part of the step no top-level span covers, so that all ``*.self_ms`` of a
    row add up to its ``step_ms``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_step = defaultdict(list)
    for i, rec in enumerate(spans):
        by_step[rec[4]].append(i)
    rows = []
    for step, t0, t1 in intervals:
        row = defaultdict(float)
        row["step_ms"] = (t1 - t0) * 1e3
        top = 0.0
        for i in by_step[step]:
            name, start, end, parent, _, extra = spans[i]
            dur = end - start
            own = (dur - child[i]) * 1e3
            if parent < 0:
                if start < t0 or end > t1:
                    raise ProbeError(f"span {i} ({name}) lies outside step {step}")
                top += dur
            row[name + ".ms"] += dur * 1e3
            row[name + ".self_ms"] += own
            row[name + ".calls"] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "tensor.backward":
                kind = "sweep" if parent_name == _SWEEP_PARENT else "objective"
                row[f"tensor.backward.{kind}_self_ms"] += own
                row["tensor.tape_nodes"] += extra[0]
                row["tensor.tape_mb"] += extra[1] / MB
            elif name == "diffusion.sample_trajectory":
                row["diffusion.chain_nodes"] += extra
            elif name == "estimators.estimate" and parent_name == "analysis.bias_variance":
                row["analysis.estimate.calls"] += 1
        row["tensor.const_mb"] = const_bytes.get(step, 0) / MB
        row["benchmarks.runner.self_ms"] = (t1 - t0 - top) * 1e3
        row["analysis.self_ms"] = row["analysis.bias_variance.self_ms"]
        rows.append(row)
    return rows


def self_sum(row) -> float:
    """Sum of every self time in a row, the runner's remainder included."""
    names = [n + ".self_ms" for n in STEP_SPANS] + ["benchmarks.runner.self_ms"]
    return sum(row.get(n, 0.0) for n in names)


def check_calls(rows, expected) -> None:
    """Every traced function fired exactly as often per step as expected."""
    for k, row in enumerate(rows):
        for name in STEP_SPANS:
            want, got = expected.get(name, 0), row.get(name + ".calls", 0)
            if got != want:
                raise ProbeError(f"step {k}: {name} fired {got:g} times, expected {want}")
        total = row["step_ms"]
        if abs(self_sum(row) - total) > _TIME_TOL * 1e3 * max(1.0, total):
            raise ProbeError(f"step {k}: self times do not add up to the step time")


def write_spans(path, spans) -> None:
    """Dump spans as JSON lines: name, start/end (s), parent index, step."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, step, _ in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "step": step}) + "\n")
