"""Compare a parent commit with the working tree on the redge benchmark, in
alternating pairs, and write everything measured to one JSON file.

    python3 pairs_pr28.py --parent 7fa10e5 --workdir /tmp/pairs --out BENCH_pr28.json

Both sides run from clean copies under ``--workdir``: the parent from
``git archive``, the change from the working tree's tracked files (``git
ls-files``, new files staged first), so neither copy holds bytecode caches;
the benchmark's children run with PYTHONDONTWRITEBYTECODE=1.  The phases,
each saved to ``--out`` as soon as it has a result:

* ``pairs``: ``perfbench/run.py --trace 0`` on every workload and seed, one
  run at a time, alternating which side runs first (pair 0 parent first);
* ``traced``: ``perfbench/run.py --trace 1`` on seed 1, one run per side;
* ``fingerprints``: every call of one cycle of each workload, in process, on
  both seeds: its ``CallResult`` fingerprint and loss;
* ``faults``: minor page faults per ``gmm-redgemax`` step (``redge-max``,
  n = 4, K = 20) at several mixture sizes, from ``getrusage`` around each
  ``estimate`` call, over 60 steps after 3 warm-up steps.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np

WORKLOADS = ("poly-redge16", "sudoku-reinmax", "gmm-redgemax", "biasvar-redge")
SEEDS = (1, 20260117)
SIDES = ("parent", "change")

FINGERPRINTS = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import numpy as np
import workloads
out = {}
for name, build in workloads.WORKLOADS.items():
    work = build(int(sys.argv[1]), False)
    calls = [work.call(j) for j in range(work.cycle)]
    out[name] = {"fingerprints": [c.fingerprint for c in calls],
                 "losses": [c.loss for c in calls],
                 "result_loss": float(np.mean([c.loss for c in calls])),
                 "failed": sum(c.failed for c in calls)}
print(json.dumps(out))
"""

FAULTS = """
import json, resource, sys
sys.path.insert(0, "src")
from redge.benchmarks import gmm, runner
from redge.estimators import EstimatorConfig
faults = []
real = runner.estimate
def counted(*args, **kwargs):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return real(*args, **kwargs)
runner.estimate = counted
problem = gmm.gmm_generate(int(sys.argv[2]), size=int(sys.argv[1]))
runner.run_benchmark(problem, EstimatorConfig(kind="redge-max", steps=4), 64, 1)
print(json.dumps((faults[63] - faults[3]) / 60))
"""


def make_copies(parent: str, workdir: str) -> dict:
    """Clean copies of the parent commit and of the working tree's tracked files."""
    dirs = {side: os.path.join(workdir, side) for side in SIDES}
    for path in dirs.values():
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    archive = subprocess.run(["git", "archive", parent], check=True, stdout=subprocess.PIPE)
    subprocess.run(["tar", "x", "-C", dirs["parent"]], input=archive.stdout, check=True)
    files = subprocess.run(["git", "ls-files", "-z"], check=True, stdout=subprocess.PIPE,
                           text=True).stdout.split("\0")
    for name in filter(None, files):
        if os.path.isfile(name):
            os.makedirs(os.path.join(dirs["change"], os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dirs["change"], name))
    return dirs


def python(cwd: str, args, timeout: float = 900.0):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return proc.returncode, None
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


def bench(cwd: str, workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    code, result = python(cwd, cmd)
    return {"command": "python3 " + " ".join(cmd), "returncode": code, "result": result}


def summarize(runs: list, spec: dict) -> list:
    """Per workload and seed: each side's quartiles, the median change and the
    pairs the change wins (ties count for neither side)."""
    rows = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            mine = [r for r in runs if r["workload"] == workload and r["seed"] == seed
                    and r["result"]]
            if not mine:
                continue
            pairs = sorted({r["pair"] for r in mine})
            metrics = {}
            for metric in spec["end_to_end"]:
                name, lower = metric["name"], metric["better"] == "lower"
                value = {(r["pair"], r["side"]): r["result"]["metrics"][name]["value"]
                         for r in mine}
                sides = {s: [value[p, s] for p in pairs if (p, s) in value] for s in SIDES}
                if not all(sides.values()):
                    continue
                q = {s: [float(np.percentile(sides[s], k)) for k in (25, 50, 75)]
                     for s in SIDES}
                wins = sum(1 for p in pairs if (p, "parent") in value and (p, "change") in value
                           and (value[p, "change"] < value[p, "parent"]) == lower
                           and value[p, "change"] != value[p, "parent"])
                change_pct = 100.0 * (q["change"][1] / q["parent"][1] - 1.0)
                metrics[name] = {
                    "better": metric["better"],
                    "parent_q25_median_q75": q["parent"],
                    "change_q25_median_q75": q["change"],
                    "median_change_pct": round(change_pct, 2),
                    "change_wins": f"{wins} of {len(pairs)} pairs",
                    "bound_pct": 100.0 * metric["bound"],
                    "median_within_bound": (change_pct if lower else -change_pct)
                                           <= 100.0 * metric["bound"],
                }
            rows.append({"workload": workload, "seed": seed, "runs_per_side": len(pairs),
                         "metrics": metrics})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--workdir", required=True, help="directory for the two copies")
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", type=int, default=6, help="pairs per workload and seed")
    parser.add_argument("--biasvar-pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 500, 750])
    parser.add_argument("--phases", nargs="+", default=["pairs", "traced", "fingerprints",
                                                        "faults"])
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    dirs = make_copies(args.parent, args.workdir)
    report = {"parent": args.parent, "method": __doc__.strip(), "runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = {**json.load(fh), "parent": args.parent}

    def save():
        report["summary"] = summarize(report["runs"], spec)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)

    if "pairs" in args.phases:
        report["runs"] = []
        for seed in SEEDS:
            for workload in WORKLOADS:
                count = args.biasvar_pairs if workload == "biasvar-redge" else args.pairs
                for pair in range(count):
                    for side in SIDES[::-1] if pair % 2 else SIDES:
                        run = bench(dirs[side], workload, seed, 0, args.seconds)
                        report["runs"].append({"workload": workload, "seed": seed,
                                               "pair": pair, "side": side, **run})
                        save()
    if "traced" in args.phases:
        report["traced"] = []
        for workload in WORKLOADS:
            for side in SIDES:
                run = bench(dirs[side], workload, 1, 1, args.seconds)
                report["traced"].append({"workload": workload, "side": side, **run})
                save()
        calls = {}
        for run in report["traced"]:
            metrics = (run["result"] or {}).get("metrics", {})
            calls.setdefault(run["workload"], []).append(
                {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
        report["traced_calls_equal_on_both_sides"] = {
            w: len(c) == 2 and c[0] == c[1] for w, c in calls.items()}
    if "fingerprints" in args.phases:
        report["fingerprints"] = {}
        for seed in SEEDS:
            for side in SIDES:
                code, out = python(dirs[side], ["-c", FINGERPRINTS, str(seed)])
                report["fingerprints"][f"{side} seed {seed}"] = out if code == 0 else code
                save()
    if "faults" in args.phases:
        report["faults_per_step"] = {side: {} for side in SIDES}
        for size in args.sizes:
            for rep in range(3):
                for side in SIDES[::-1] if rep % 2 else SIDES:
                    code, out = python(dirs[side], ["-c", FAULTS, str(size), str(rep)])
                    report["faults_per_step"][side].setdefault(str(size), []).append(out)
                    save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
