"""Run one workload of the redge benchmark and print its metrics.

    python3 perfbench/run.py --workload poly-redge16 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in fresh child processes (``perfbench/child.py``), one at
a time.  With ``--trace 0``, SETUP_RUNS set-up-only children and one
measuring child give the end-to-end metrics; ``setup_s`` is the median over
all of them.  With ``--trace 1``, one child alternates untraced and traced
calls and reports the per-layer metrics; its spans go to ``.perfbench_out/``.

Metric names and units come from ``BENCHMARK.json``.  Every metric is printed
as ``name value unit``, then the environment, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Failures of the program count in ``failed``; a broken probe, a missing
metric or a child that crashes exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPAN_DIR = ".perfbench_out"

DEFAULT_SEED = 1
# Kept out of tuning: re-check a claimed change on this seed.
HELD_OUT_SEED = 20260117
SETUP_RUNS = 4
# The whole run, children included, ends within this many seconds.
DEADLINE_S = 170.0
# One BLAS thread: closed loop, one caller, never more threads than nproc.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(args, mode: str, deadline: float, extra=()) -> dict:
    """Run one child to completion and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a child")
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds), *extra]
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child printed no report")
    return json.loads(lines[-1])


def pick(spec_metrics, values: dict) -> dict:
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


def run(args) -> dict:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        spans = os.path.join(SPAN_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl")
        report = spawn(args, "trace", deadline, ["--spans", spans] + args.child_args)
        metrics = pick(spec["per_layer"], report["layers"])
    else:
        setups = [spawn(args, "setup", deadline, args.child_args)["setup_s"]
                  for _ in range(SETUP_RUNS)]
        report = spawn(args, "measure", deadline, args.child_args)
        setups.append(report["setup_s"])
        report["setup_s"] = statistics.median(setups)
        metrics = pick(spec["end_to_end"], report)
    report["env"]["steps_per_run"] = report["steps"]
    return {"report": report, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for re-checking claims")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    args.child_args = ["--tiny"] if args.tiny else []
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report, metrics = result["report"], result["metrics"]
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"failed_frac {failed / attempted!r} fraction ({failed} of {attempted} steps)")
    for error in report["errors"]:
        print(f"check failed: {error}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
