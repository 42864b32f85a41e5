"""The benchmark's probe contract, checked in process at tiny sizes.

``perfbench`` wraps the names in ``tracer.TARGETS`` and expects each to fire
exactly ``workloads.expected_calls`` times per step.  Each test does what a
traced benchmark run does for one call: build the workload under the tracer,
check its setup calls, run the cold step, make one traced call and fold its
spans.  A renamed, re-signed or re-counted target then fails here with the
tracer's own call-count, span-tree or restore error.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_fires_expected_probes(name):
    build = workloads.WORKLOADS[name]
    tracer = Tracer(build.step_span, build.step_is_span)
    with tracer.installed():
        workload = build(1, True)
    tracer.end_setup()
    assert dict(tracer.setup_calls) == workloads.expected_setup_calls(name, workload)
    workload.cold_step()
    with tracer.installed():
        result = workload.call(0)
    tracer.end_call(workloads.expected_calls(name, workload))
    assert tracer.rows, "no step was folded"
    assert result.failed == 0, result.errors
