"""The benchmark's workloads: three batch invocations of the lgwave CLI.

Each workload stresses a different layer; BENCHMARK.json says which.  Sizes
are chosen so one invocation takes about two seconds on two cores; the
``quick`` profile keeps every code path but shrinks the sizes for the
self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Nine standard measurement contexts per realization (harness.STANDARD_CONTEXT_TABLE).
CONTEXTS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # lgwave subcommand: "run" or "sweep"
    samples: int
    reps: int
    mode: str = "independent-draws"
    r: float = 0.3
    gamma: float = 2.0
    sweep_r: tuple[float, ...] = ()
    sweep_gamma: tuple[float, ...] = ()

    @property
    def grid(self) -> list[tuple[float, float]]:
        """(r, gamma) points in the order ``lgwave sweep`` writes them."""
        if self.command != "sweep":
            return [(self.r, self.gamma)]
        return [(r, g) for g in self.sweep_gamma for r in self.sweep_r]

    @property
    def outputs(self) -> tuple[str, ...]:
        return ("sweep.csv",) if self.command == "sweep" else ("counts.csv", "summary.json")

    def realizations(self) -> int:
        """Logical context-realizations: samples x contexts x reps x grid points.

        Fixed by the workload, not by how many normals the program draws, so
        it compares fairly across implementations."""
        return self.samples * CONTEXTS * self.reps * len(self.grid)

    def argv(self, seed: int, out: str) -> list[str]:
        args = [
            self.command,
            "--r", repr(self.r),
            "--gamma", repr(self.gamma),
            "--samples", str(self.samples),
            "--reps", str(self.reps),
            "--seed", str(seed),
            "--mode", self.mode,
            "--out", out,
        ]
        if self.command == "sweep":
            args += [
                "--sweep-r", ",".join(map(repr, self.sweep_r)),
                "--sweep-gamma", ",".join(map(repr, self.sweep_gamma)),
            ]
        return args


FULL = {
    w.name: w
    for w in (
        # Why each workload was chosen is recorded in BENCHMARK.json.
        Workload(
            name="run_indep",
            command="run",
            samples=1 << 18,
            reps=1,
        ),
        Workload(
            name="run_shared",
            command="run",
            samples=1 << 18,
            reps=4,
            mode="shared-draws",
        ),
        Workload(
            name="sweep_kw",
            command="sweep",
            samples=1 << 16,
            reps=1,
            sweep_r=(0.3, 0.6, 0.9),
            sweep_gamma=(1.5, 2.0),
        ),
    )
}

QUICK = {
    "run_indep": replace(FULL["run_indep"], samples=8192),
    "run_shared": replace(FULL["run_shared"], samples=8192, reps=2),
    "sweep_kw": replace(FULL["sweep_kw"], samples=16384, reps=1),
}

PROFILES = {"full": FULL, "quick": QUICK}
