"""Correctness gate applied to every workload invocation.

An invocation passes when it exits 0, its outputs satisfy the physics and
bookkeeping invariants, and their SHA-256 digests match the ones recorded
for (profile, workload, seed) in digests.json.  For a seed with no recorded
digests the first passing invocation becomes the reference and every later
one must agree with it byte for byte; a run must then see at least two
agreeing invocations to count as correct.  A failed check is counted, never
raised, so one bad invocation does not abort the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

from lgwave.harness import MODE_SHARED, STANDARD_CONTEXT_TABLE
from lgwave.optics import OpticalParams
from lgwave.oracle import type_weight_sums

from workloads import CONTEXTS, Workload

COUNTS_HEADER = "rep,context_bits,n_total,n_herald,n_plus,n_minus,n_double"
SWEEP_HEADER = "r,gamma,K_mean,K_std,W_mean,W_std,lgi_bound,qm_bound"
# Same slack as the program's own marginal-bound check.
BOUND_TOL = 1e-12


def digest_files(out_dir: Path, names) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names
    }


def oracle_problems() -> list[str]:
    sums = type_weight_sums(OpticalParams())
    return [
        f"oracle type_weight_sums[{k}] = {v!r}, expected 1"
        for k, v in sums.items()
        if abs(v - 1.0) > BOUND_TOL
    ]


def run_problems(wl: Workload, seed: int, out_dir: Path) -> list[str]:
    problems = []
    lines = (out_dir / "counts.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != COUNTS_HEADER:
        problems.append(f"counts.csv header is {lines[0]!r}")
    rows = [list(map(int, line.split(","))) for line in lines[1:]]
    if len(rows) != wl.reps * CONTEXTS:
        problems.append(f"counts.csv has {len(rows)} rows, expected {wl.reps * CONTEXTS}")
    bits = ["".join(map(str, b)) for b, _, _ in STANDARD_CONTEXT_TABLE]
    heralds: dict[int, set[int]] = {}
    for i, (rep, ctx, n_total, n_herald, n_plus, n_minus, n_double) in enumerate(rows):
        if rep != i // CONTEXTS or f"{ctx:04d}" != bits[i % CONTEXTS]:
            problems.append(f"counts.csv row {i} is rep {rep}, context {ctx:04d}")
        if n_total != wl.samples:
            problems.append(f"counts.csv row {i}: n_total {n_total} != {wl.samples}")
        if not n_plus + n_minus + n_double <= n_herald <= n_total:
            problems.append(f"counts.csv row {i}: count ordering violated")
        heralds.setdefault(rep, set()).add(n_herald)
    if wl.mode == MODE_SHARED and any(len(h) != 1 for h in heralds.values()):
        problems.append("shared draws but contexts disagree on n_herald")

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["config"]["seed"] != seed or summary["config"]["samples"] != wl.samples:
        problems.append("summary.json config does not match the invocation")
    if len(summary["per_rep"]) != wl.reps:
        problems.append(f"summary.json has {len(summary['per_rep'])} reps")
    for rep in summary["per_rep"]:
        if not rep["K_marginal"] <= 1.0 + BOUND_TOL:
            problems.append(f"rep {rep['rep']}: K_marginal = {rep['K_marginal']!r} > 1")
        if not rep["W_marginal"] <= BOUND_TOL:
            problems.append(f"rep {rep['rep']}: W_marginal = {rep['W_marginal']!r} > 0")
    return problems


def sweep_problems(wl: Workload, out_dir: Path) -> list[str]:
    problems = []
    lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != SWEEP_HEADER:
        problems.append(f"sweep.csv header is {lines[0]!r}")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    if [(row[0], row[1]) for row in rows] != wl.grid:
        problems.append("sweep.csv grid points differ from the requested grid")
    for row in rows:
        r, gamma, k_mean, k_std, w_mean, w_std, lgi, qm = row
        if not all(math.isfinite(x) for x in row):
            problems.append(f"sweep.csv ({r}, {gamma}): non-finite value")
        if k_std < 0 or w_std < 0 or (lgi, qm) != (1.0, 1.5):
            problems.append(f"sweep.csv ({r}, {gamma}): bad std or bound column")
    return problems


class Gate:
    """Counts attempted and failed ops (invocations and set-up probes) of one
    (workload, seed)."""

    def __init__(self, wl: Workload, seed: int, expected: dict[str, str] | None):
        self.wl = wl
        self.seed = seed
        self.expected = expected
        self.reference = expected
        self.agreements = 0
        self.attempted = 0
        self.failed = 0

    def check(self, exit_code: int | None, out_dir: Path) -> bool:
        """Gate one invocation's exit code and outputs."""
        return self.record(self._problems(exit_code, out_dir))

    def record(self, problems: list[str]) -> bool:
        """Count one operation, failed if it has any problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAILED {self.wl.name} seed {self.seed}: {p}", file=sys.stderr)
        return not problems

    def _problems(self, exit_code: int | None, out_dir: Path) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            digests = digest_files(out_dir, self.wl.outputs)
            if self.wl.command == "sweep":
                problems = sweep_problems(self.wl, out_dir)
            else:
                problems = run_problems(self.wl, self.seed, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return [f"unreadable output: {e!r}"]
        problems += oracle_problems()
        if self.reference is None:
            if not problems:
                self.reference = digests
            return problems
        for name, sha in digests.items():
            if sha != self.reference.get(name):
                what = "recorded digest" if self.expected else "first invocation"
                problems.append(f"{name} sha256 {sha[:12]} differs from the {what}")
        if not problems:
            self.agreements += 1
        return problems

    @property
    def correct(self) -> bool:
        """No failures, and either recorded digests or two agreeing runs."""
        agreed = self.expected is not None or self.agreements >= 1
        return self.attempted > 0 and self.failed == 0 and agreed
