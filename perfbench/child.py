"""One benchmark process: set a workload up, then measure or trace it.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE
                               --seconds S --spawned-at T [--tiny] [--spans FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` counts interpreter start, imports, building the
inputs from the seed and the first, cold step.  Modes:

* ``setup``: stop once set up;
* ``measure``: run untraced calls for at least ``--seconds`` seconds, one
  full cycle and ``MIN_STEPS`` timed steps;
* ``trace``: alternate untraced and traced calls of the same sub-seed, which
  must agree bit for bit, and fold the traced spans into per-layer numbers.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import redge  # noqa: E402
import workloads  # noqa: E402
from tracer import SETUP_SPANS, STEP_METRICS, Tracer, write_spans  # noqa: E402

if not os.path.abspath(redge.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"redge imported from {redge.__file__}, not from {SRC}")

# >= 10 samples beyond the 90th percentile.
MIN_STEPS = 100


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def blas_info() -> dict:
    """BLAS library, version and the thread count it reports, where it can."""
    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["blas_threads"] = fn()
    if info["blas_threads"] is None:
        info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu_model(), **blas_info(), "workload": args.workload,
            "seed": args.seed}


class Loop:
    """Accumulates calls until time, cycle and step-count targets are met.

    Each call starts like a fresh run: garbage the previous call left (tapes
    are reference cycles, freed only by the cyclic collector) is collected
    first, outside the timed steps, so peak memory does not depend on how
    many calls fit in the run.
    """

    def __init__(self, workload, seconds: float, min_steps: int):
        self.workload = workload
        self.seconds = seconds
        self.min_steps = min_steps
        self.calls = []
        self.busy_s = 0.0            # wall time spent inside calls
        self.fingerprints = {}
        self.errors = []
        self.start = time.perf_counter()

    def done(self) -> bool:
        steps = sum(len(c.step_s) for c in self.calls)
        return (len(self.calls) >= self.workload.cycle and steps >= self.min_steps
                and time.perf_counter() - self.start >= self.seconds)

    def call(self, j: int):
        gc.collect()
        start = time.perf_counter()
        result = self.workload.call(j)
        self.busy_s += time.perf_counter() - start
        return result

    def add(self, j: int, result, reference=None):
        """Record one call; it must match any earlier call of the same sub-seed."""
        known = self.fingerprints.setdefault(j, result.fingerprint)
        if reference is not None and result.fingerprint != reference:
            result.errors.append(f"traced call {j} differs from the untraced one")
        elif result.fingerprint != known:
            result.errors.append(f"rerun of call {j} differs from its first run")
        if result.errors:
            result.failed = result.steps
            self.errors.extend(result.errors)
        self.calls.append(result)

    def totals(self) -> dict:
        cycle = self.calls[:self.workload.cycle]
        return {"attempted": sum(c.steps for c in self.calls),
                "failed": sum(c.failed for c in self.calls),
                "result_loss": float(np.mean([c.loss for c in cycle])),
                "errors": self.errors[:20]}


def measure(args, workload) -> dict:
    loop = Loop(workload, args.seconds, args.min_steps)
    i = 0
    while not loop.done():
        j = i % workload.cycle
        loop.add(j, loop.call(j))
        i += 1
    step_ms = [1e3 * s for c in loop.calls for s in c.step_s]
    return {**loop.totals(), "calls": len(loop.calls), "steps": len(step_ms),
            "step_ms_p50": percentile(step_ms, 50), "step_ms_p90": percentile(step_ms, 90),
            "rows_per_s": sum(c.rows for c in loop.calls) / loop.busy_s}


def trace(args, workload, tracer) -> dict:
    plain = Loop(workload, args.seconds, args.min_steps)
    traced = Loop(workload, args.seconds, args.min_steps)
    expected = workloads.expected_calls(args.workload, workload)
    first_spans = None
    i = 0
    while not traced.done():
        j = i % workload.cycle
        reference = plain.call(j)
        plain.add(j, reference)
        with tracer.installed():
            result = traced.call(j)
        spans = tracer.end_call(expected)
        first_spans = first_spans or spans
        traced.add(j, result, reference.fingerprint)
        i += 1
    if args.spans:
        os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
        write_spans(args.spans, first_spans)
    plain_ms = [1e3 * s for c in plain.calls for s in c.step_s]
    traced_ms = [1e3 * s for c in traced.calls for s in c.step_s]
    plain_total, traced_total = plain.totals(), traced.totals()
    out = {"attempted": plain_total["attempted"] + traced_total["attempted"],
           "failed": plain_total["failed"] + traced_total["failed"],
           "errors": (plain.errors + traced.errors)[:20]}
    if plain_total["result_loss"] != traced_total["result_loss"]:
        out["failed"] += traced_total["attempted"]
        out["errors"].append("traced result_loss differs from the untraced one")
    layers = {name: float(np.median([row.get(name, 0.0) for row in tracer.rows]))
              for name in STEP_METRICS}
    for name in SETUP_SPANS:
        layers[name + ".s"] = tracer.setup.get(name, 0.0)
    traced_p50 = percentile(traced_ms, 50)
    layers["trace.step_ms_p50"] = traced_p50
    layers["trace.steps"] = len(traced_ms)
    layers["trace.overhead_pct"] = 100.0 * (traced_p50 / percentile(plain_ms, 50) - 1.0)
    out["layers"] = layers
    out["steps"] = len(traced_ms)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--spans", default="", help="JSON-lines file for the first traced call")
    args = parser.parse_args(argv)
    args.min_steps = 4 if args.tiny else MIN_STEPS

    build = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        tracer = Tracer(build.step_span, build.step_is_span)
        with tracer.installed():
            workload = build(args.seed, args.tiny)
        tracer.end_setup()
        want = workloads.expected_setup_calls(args.workload, workload)
        if dict(tracer.setup_calls) != want:
            raise SystemExit(f"setup spans {dict(tracer.setup_calls)}, expected {want}")
    else:
        workload = build(args.seed, args.tiny)
    workload.cold_step()
    setup_s = time.monotonic() - args.spawned_at

    out = {"setup_s": setup_s}
    if args.mode == "measure":
        out.update(measure(args, workload))
    elif args.mode == "trace":
        out.update(trace(args, workload, tracer))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
