"""The benchmark in perfbench/ still runs against this checkout.

Each workload runs once at the quick sizes with tracing on, so a renamed or
deleted function that the tracer patches fails here.  No timing is checked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["run_indep", "run_shared", "sweep_kw"])
def test_quick_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--quick",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
