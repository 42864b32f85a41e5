"""Re-measure the indicative baseline table in ROADMAP.md.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/roadmap_table.py

Uses the table's own configurations, which differ from the benchmark's
workloads, and its method: the mean of 5 calls after one warm-up call.
Prints one ``row | ms`` line per table row.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from redge import analysis  # noqa: E402
from redge.benchmarks import gmm, runner, sudoku  # noqa: E402
from redge.benchmarks.polyprog import PolyProgProblem, polyprog_loss  # noqa: E402
from redge.categorical import FactorizedCategorical  # noqa: E402
from redge.estimators import EstimatorConfig, estimate  # noqa: E402

CALLS = 5


def mean_ms(fn, calls=CALLS) -> float:
    fn()
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return 1e3 * (time.perf_counter() - start) / calls


def estimate_ms(length: int, kind: str, n: int = 2) -> float:
    problem = PolyProgProblem(length=length)
    dist = FactorizedCategorical(0.1 * np.random.default_rng(0).standard_normal((length, 2)))
    cfg = EstimatorConfig(kind=kind, steps=n)
    return mean_ms(lambda: estimate(dist, lambda x: polyprog_loss(x, problem), cfg, 0))


def runner_ms(problem, kind: str, n: int = 2, steps: int = 20, **kwargs) -> float:
    cfg = EstimatorConfig(kind=kind, steps=n)
    return mean_ms(lambda: runner.run_benchmark(problem, cfg, steps, 0, **kwargs)) / steps


def bias_variance_ms(kind: str, n: int = 2) -> float:
    rng = np.random.default_rng(0)
    f = analysis.random_cubic(rng, 2, 3)
    dist = FactorizedCategorical(rng.standard_normal((2, 3)))
    cfg = EstimatorConfig(kind=kind, steps=n)
    return mean_ms(lambda: analysis.bias_variance(cfg, dist, f, 2000, 0), calls=3)


def main() -> None:
    poly = PolyProgProblem(length=128)
    mixture = gmm.gmm_generate(0)
    puzzles = sudoku.generate_puzzles(8, 0)
    rows = [
        ("estimate, L=32768: st", estimate_ms(32768, "st")),
        *((f"estimate, L=32768: redge n={n}", estimate_ms(32768, "redge", n)) for n in (2, 8, 32)),
        *((f"estimate, L=32768: redge-cov n={n}", estimate_ms(32768, "redge-cov", n))
          for n in (2, 8, 32)),
        ("estimate, L=1024: st", estimate_ms(1024, "st")),
        ("estimate, L=1024: redge n=32", estimate_ms(1024, "redge", 32)),
        ("runner ms/step, poly 64x128: st", runner_ms(poly, "st", batch=64)),
        ("runner ms/step, poly 64x128: redge n=4", runner_ms(poly, "redge", 4, batch=64)),
        ("runner ms/step, poly 64x128: redge-cov n=4", runner_ms(poly, "redge-cov", 4, batch=64)),
        ("runner ms/step, GMM 500x20: st", runner_ms(mixture, "st")),
        ("runner ms/step, GMM 500x20: redge n=4", runner_ms(mixture, "redge", 4)),
        ("runner ms/step, Sudoku x8: st", runner_ms(puzzles, "st")),
        ("runner ms/step, Sudoku x8: redge n=4", runner_ms(puzzles, "redge", 4)),
        ("bias_variance R=2000, 2x3: st", bias_variance_ms("st")),
        ("bias_variance R=2000, 2x3: redge n=4", bias_variance_ms("redge", 4)),
    ]
    for label, ms in rows:
        print(f"{label} | {ms:.3g}")


if __name__ == "__main__":
    main()
