#!/usr/bin/env python3
"""Self-test of the benchmark at quick sizes.  It gates on no timing.

    python3 perfbench/selftest.py

Checks that, for every workload, ``--trace 0`` and ``--trace 1`` exit 0 and
end with one JSON line holding exactly the keys correct, attempted, failed
and metrics, with every metric BENCHMARK.json names, each with its unit; that
the count signatures of the stream layout hold; that a wrong recorded digest
counts as a failed op; and that in a directory holding only BENCHMARK.json
and the benchmark's files the benchmark exits non-zero and prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import QUICK

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = BENCH_DIR / ".out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(root: Path, *args: str) -> tuple[int, dict | None, str]:
    """Run the benchmark from ``root``; return (exit code, result line or None, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick", "--seed", "0", "--seconds", "1", *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result if isinstance(result, dict) else None, p.stderr


def schema_problems(result: dict | None, spec_metrics: list[dict]) -> list[str]:
    if result is None:
        return ["no JSON result on the last line"]
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    for key in ("attempted", "failed"):
        if type(result[key]) is not int:
            problems.append(f"{key} is not a whole number")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if m.get("unit") != want.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {want.get(name)!r}")
    return problems


def signature_problems(workload: str, metrics: dict) -> list[str]:
    """Counts predicted from the stream layout: every run_* stream is opened
    once; a sweep reopens the same streams at every grid point and runs no
    efficiency pass."""
    value = {name: m["value"] for name, m in metrics.items()}
    ratio = value["harness.streams_distinct"] / value["harness.streams_opened"]
    grid_points = len(QUICK[workload].grid)
    problems = []
    if not math.isclose(ratio, 1 / grid_points):
        problems.append(f"streams_distinct / streams_opened = {ratio}, expected 1/{grid_points}")
    if workload == "sweep_kw" and value["stats.efficiency_update.calls"] != 0:
        problems.append("sweep ran the efficiency pass")
    return problems


def main() -> int:
    failures = []

    def report(what: str, problems: list[str]) -> None:
        print(f"{'PASS' if not problems else 'FAIL'} {what}")
        for p in problems:
            print(f"    {p}")
        failures.extend(problems)

    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for trace, spec_key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, _ = run_bench(ROOT, "--workload", workload, "--trace", trace)
            problems = schema_problems(result, SPEC[spec_key])
            if code != 0:
                problems.append(f"exit code {code}")
            if result is not None and not (result.get("correct") and result.get("failed") == 0):
                problems.append("correctness gate failed")
            if trace == "1" and not problems:
                problems += signature_problems(workload, result["metrics"])
            report(f"{workload} --trace {trace}", problems)

    SCRATCH.mkdir(parents=True, exist_ok=True)
    wrong = SCRATCH / "wrong_digests.json"
    bad = "0" * 64
    wrong.write_text(
        json.dumps({"quick": {"run_indep": {"0": {"counts.csv": bad, "summary.json": bad}}}})
    )
    code, result, stderr = run_bench(
        ROOT, "--workload", "run_indep", "--trace", "0", "--digests", str(wrong)
    )
    problems = []
    if code != 0 or result is None:
        problems.append(f"exit code {code}, result {result!r}")
    elif result["correct"] or result["failed"] < 1 or "recorded digest" not in stderr:
        problems.append(f"wrong digest not counted as failed: {result}")
    report("wrong recorded digest counts as a failed op", problems)

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, _ = run_bench(bare, "--workload", "run_indep", "--trace", "0")
    shutil.rmtree(bare)
    report(
        "fails without the program's sources",
        [] if code != 0 and result is None else [f"exit code {code}, result {result!r}"],
    )

    print("selftest:", "FAILED" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
