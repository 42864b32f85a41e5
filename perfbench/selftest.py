"""Tests of the benchmark itself, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

Tiny-size smoke runs of every workload through ``run.py``, the span tree and
call-count guards of the tracer, and the restore of every patched name.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    proc = run_bench("--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} " in proc.stdout          # human-readable line
    assert any(line.startswith("env {") for line in lines)


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _originals():
    out = {}
    for where, attr, _ in tracer.TARGETS + (("redge.tensor:Tape", "lift", ""),):
        owner = tracer.resolve(where)
        out[(owner, attr)] = owner.__dict__[attr]
    return out


def _traced_calls(name):
    build = workloads.WORKLOADS[name]
    tr = tracer.Tracer(build.step_span, build.step_is_span)
    with tr.installed():
        workload = build(7, True)
    tr.end_setup()
    assert dict(tr.setup_calls) == workloads.expected_setup_calls(name, workload)
    with tr.installed():
        result = workload.call(0)
    spans = tr.end_call(workloads.expected_calls(name, workload))
    return tr, spans, result


@pytest.mark.parametrize("name", NAMES)
def test_span_tree_well_formed_and_wrappers_removed(name):
    before = _originals()
    tr, spans, result = _traced_calls(name)
    assert _originals() == before
    assert result.failed == 0 and spans and tr.rows
    child = [0.0] * len(spans)
    for i, (_, start, end, parent, step, _) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert parent < i and p[1] <= start and end <= p[2] and step == p[4]
            child[parent] += end - start
    for i, (_, start, end, *_) in enumerate(spans):
        assert end - start - child[i] >= -1e-9
    for row in tr.rows:
        assert abs(tracer.self_sum(row) - row["step_ms"]) <= 1e-6 * max(1.0, row["step_ms"])
        assert row["benchmarks.runner.self_ms"] >= -1e-6


def test_wrong_call_count_fails_loudly():
    name = NAMES[0]
    build = workloads.WORKLOADS[name]
    workload = build(7, True)
    tr = tracer.Tracer(build.step_span, build.step_is_span)
    with tr.installed():
        workload.call(0)
    expected = dict(workloads.expected_calls(name, workload))
    expected["estimators.estimate"] += 1
    with pytest.raises(tracer.ProbeError):
        tr.end_call(expected)


def test_malformed_tree_rejected():
    spans = [["a", 0.0, 1.0, -1, 0, None], ["b", 0.5, 1.5, 0, 0, None]]
    with pytest.raises(tracer.ProbeError):
        tracer.check_tree(spans)
    spans = [["a", 0.0, 1.0, -1, 0, None], ["b", 0.2, 0.4, 0, 1, None]]
    with pytest.raises(tracer.ProbeError):
        tracer.check_tree(spans)


def test_restore_after_exception():
    before = _originals()
    tr = tracer.Tracer("estimators.estimate", False)
    with pytest.raises(ZeroDivisionError):
        with tr.installed():
            1 / 0
    assert _originals() == before
