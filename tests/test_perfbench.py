"""The benchmark in perfbench/ still runs against this checkout.

Each workload runs once at the quick sizes with tracing on, so a renamed or
deleted function that the tracer patches fails here, and so does a traced
layer that stops being reached.  Each also runs once untraced, the path that
measures BENCHMARK.json's end-to-end metrics.  No timing is checked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# Per workload: whether it runs the shared-draw efficiency pass, whether it
# runs per-context tasks, and how many grid points reopen the same streams.
# A sweep draws each stream once for all of its grid points, so that is 1
# everywhere.
SIGNATURES = {
    "run_indep": (True, True, 1),
    "run_shared": (True, False, 1),
    "sweep_kw": (False, True, 1),
}


def quick_run(workload: str, trace: int) -> dict:
    """The last stdout line of one quick perfbench run, after checking that
    it exited 0 and that every invocation was correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--quick",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", list(SIGNATURES))
def test_quick_untraced_run(workload):
    result = quick_run(workload, trace=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]


@pytest.mark.parametrize("workload", list(SIGNATURES))
def test_quick_traced_run(workload):
    result = quick_run(workload, trace=1)

    shared_pass, context_tasks, grid_points = SIGNATURES[workload]
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert (value["stats.efficiency_update.calls"] > 0) == shared_pass
    assert (value["harness.counterfactual_chunks.self_ms_per_chunk"] > 0) == shared_pass
    assert (value["harness.run_context.self_ms_per_chunk"] > 0) == context_tasks
    streams = value["harness.streams_distinct"] / value["harness.streams_opened"]
    assert streams == pytest.approx(1 / grid_points)
