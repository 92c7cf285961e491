#!/usr/bin/env python3
"""lgwave benchmark: batch workloads through the public CLI entry point.

    python3 perfbench/run.py --workload run_indep --seed 0 --seconds 30 --trace 0

Workloads are defined in workloads.py.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation: the peak memory of one
single-worker invocation and the set-up time, both in fresh processes, then
repeated in-process ``lgwave.cli.main`` invocations for ``--seconds``
seconds, reporting medians.  ``--trace 1`` measures the per-layer metrics
from one traced invocation (see layers.py), next to untraced and
single-worker invocations of the same workload.  Every invocation passes the
correctness gate of check.py.  ``--quick`` shrinks the workloads for the
self-test (selftest.py).

The workload seed is the benchmark's argument; the program only sees it as
``--seed``.  Worker threads are pinned to the CPUs this process may use.
Provenance goes to stdout and perfbench/.out/provenance.json, never into the
program's own outputs.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import PROFILES, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Relative to ROOT: summary.json records the --out string, so it must not
# depend on where the checkout lives for the recorded digests to hold.
OUT = Path("perfbench") / ".out"
DIGESTS = BENCH_DIR / "digests.json"
PROBE = BENCH_DIR / "setup_probe.py"

MIN_TIMED = 3  # timed invocations per run, however short --seconds is
PHILOX_CHUNKS = 9

END_TO_END_UNITS = {
    "wall_s": "s",
    "throughput_mcr_s": "Mcr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_lgwave() -> None:
    """Import lgwave from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import lgwave
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import lgwave from {SRC}: {e}")
    if Path(lgwave.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: lgwave imported from {lgwave.__file__}, not {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workers: int) -> dict:
    import numpy as np

    from lgwave.harness import CHUNK, SHARED_STREAM_KEY
    from lgwave.optics import NORMALS_PER_REALIZATION

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "lgwave_workers": workers,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: f"{v.get('name')} {v.get('version')}" for k, v in deps.items()},
        "lgwave_commit": git_commit(),
        "stream_layout": {
            "CHUNK": CHUNK,
            "NORMALS_PER_REALIZATION": NORMALS_PER_REALIZATION,
            "SHARED_STREAM_KEY": SHARED_STREAM_KEY,
        },
    }


def clear_outputs(wl: Workload, out_dir: Path) -> None:
    """Remove the previous invocation's outputs, so stale files cannot pass the gate."""
    for name in wl.outputs:
        (out_dir / name).unlink(missing_ok=True)


def invoke(cli, wl: Workload, argv: list[str], out_dir: Path) -> tuple[int | None, float]:
    """One in-process CLI invocation: (exit code or None on a crash, wall seconds)."""
    clear_outputs(wl, out_dir)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        code = e.code
    except Exception:
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - t0


def setup_seconds(argv: list[str], gate) -> float:
    """Fresh-process time to a validated plan; the probe is a gated op."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
    ok = p.returncode == 0 and line.startswith("ready")
    gate.record([] if ok else [f"set-up probe exited {p.returncode} with {line!r}"])
    return elapsed


def peak_rss_mb(wl: Workload, argv: list[str], gate, out_dir: Path) -> float:
    """Peak resident memory of one single-worker invocation in a fresh
    process; its outputs pass the gate like any other invocation.

    Two things make this peak repeat to a fraction of a percent.  One worker
    allocates in a fixed order; with two, the peak moves by up to one chunk
    of normals (14.7 MB) with how the workers' buffers happen to overlap.
    And glibc's mmap threshold is fixed at 128 KiB for that process only, so
    every large array is mapped and unmapped on its own and the peak tracks
    the memory the program holds.  Under the default dynamic threshold,
    freed chunk buffers may stay in the heap: the same single-worker sweep
    peaked at 66 MB or 108 MB depending only on the probe's import statements.
    """
    clear_outputs(wl, out_dir)
    env = dict(os.environ, LGWAVE_WORKERS="1", MALLOC_MMAP_THRESHOLD_="131072")
    p = subprocess.run([sys.executable, str(PROBE), "--run", *argv], cwd=ROOT, env=env,
                       stdout=subprocess.PIPE, text=True, timeout=170)
    gate.check(p.returncode, out_dir)
    for line in p.stdout.splitlines():
        if line.startswith("peak_rss_mb "):
            return float(line.split()[1])
    return 0.0


def timed_loop(run_once, seconds: float, minimum: int) -> list[float]:
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < minimum or time.perf_counter() < deadline:
        walls.append(run_once())
    return walls


def output_bytes(wl: Workload, out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in wl.outputs if (out_dir / name).exists())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES["full"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--digests", type=Path, default=DIGESTS, help="recorded output digests")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    import_lgwave()
    from lgwave import cli

    import layers
    from check import Gate
    from tracer import Tracer

    workers = len(os.sched_getaffinity(0))
    os.environ["LGWAVE_WORKERS"] = str(workers)
    prov = provenance(workers)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "provenance.json").write_text(json.dumps(prov, indent=2, sort_keys=True) + "\n")
    print("provenance", json.dumps(prov, sort_keys=True))

    profile = "quick" if args.quick else "full"
    wl = PROFILES[profile][args.workload]
    out_dir = OUT / wl.name
    wl_argv = wl.argv(args.seed, str(out_dir))
    try:
        table = json.loads(args.digests.read_text(encoding="utf-8"))
    except FileNotFoundError:
        table = {}
    gate = Gate(wl, args.seed, table.get(profile, {}).get(wl.name, {}).get(str(args.seed)))

    def run_once() -> float:
        code, wall = invoke(cli, wl, wl_argv, out_dir)
        gate.check(code, out_dir)
        return wall

    if args.trace == 0:
        peak = peak_rss_mb(wl, wl_argv, gate, out_dir)  # also warms the bytecode cache
        run_once()  # warm-up: thread pool, lazy imports, page cache
        setup = []

        def run_and_probe() -> float:
            # Set-up probes are spread over the run, one after each
            # invocation, so their median does not hang on a few seconds of
            # machine state.
            wall = run_once()
            setup.append(setup_seconds(wl_argv, gate))
            return wall

        walls = timed_loop(run_and_probe, args.seconds, MIN_TIMED)
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "throughput_mcr_s": wl.realizations() / wall / 1e6,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak,
        }
        units = END_TO_END_UNITS
        notes = {
            "wall_s": f"median of {len(walls)} invocations",
            "setup_s": f"median of {len(setup)} fresh processes",
            "peak_rss_mb": "one single-worker invocation, fresh process, fixed mmap threshold",
        }
    else:
        run_once()
        walls = timed_loop(run_once, args.seconds, MIN_TIMED)
        os.environ["LGWAVE_WORKERS"] = "1"
        try:
            serial = run_once()
        finally:
            os.environ["LGWAVE_WORKERS"] = str(workers)
        tracer = Tracer(run_id=f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
        layers.install(tracer)
        try:
            code, traced = invoke(cli, wl, wl_argv, out_dir)
        finally:
            tracer.restore()
        gate.check(code, out_dir)
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
        untraced = statistics.median(walls)
        metrics = layers.layer_metrics(tracer, workers)
        metrics.update(
            {
                "optics.philox_floor.ms_per_chunk": layers.philox_floor_ms(
                    args.seed, 3 if args.quick else PHILOX_CHUNKS
                ),
                "optics.philox_floor.mb_per_chunk_computed": layers.PHILOX_MB_PER_CHUNK,
                "experiment.scaling_eff": serial / (workers * untraced),
                "cli.output_bytes": output_bytes(wl, out_dir),
                "trace.overhead_frac": traced / untraced - 1.0,
            }
        )
        units = layers.UNITS
        notes = {"trace.overhead_frac": f"untraced median of {len(walls)} invocations"}

    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'ops_failed_frac':48s} {gate.failed / gate.attempted:14.6g} ratio  "
          f"{gate.failed} of {gate.attempted} ops failed")
    print(
        json.dumps(
            {
                "correct": gate.correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
