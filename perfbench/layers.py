"""Wiring of the tracer onto lgwave's layers, and the per-layer metrics.

Layers are the package's modules: optics (sampling, source, stages,
detect), harness (stream layout, evaluate_context, per-context tallies,
shared-draw records), stats (efficiency accumulation, PMFs, K/W),
experiment (thread pool over tasks, reduction) and cli (config, serialization).
The oracle is closed-form and sits on no timed path; it is only used by the
correctness gate.

Which end-to-end numbers each layer metric should move:

- optics.* and harness.evaluate_context.*: wall_s and throughput_mcr_s on
  run_indep and sweep_kw, barely on run_shared.
- harness.counterfactual_chunks.self_ms_per_chunk and
  stats.efficiency_update.*: run_shared, and the shared-pass share of
  run_indep; never sweep_kw, where stats.efficiency_update.calls reads 0.
- harness.streams_distinct / streams_opened and optics.normals_drawn:
  sweep_kw only.  The ratio is 1 on both run_* workloads and 1/grid-points
  on sweep_kw, because streams depend on neither r nor gamma.
- experiment.worker_busy_frac: wall_s on all three, most where there are
  few tasks per worker (the slowest task sets the end).
- Memory or caching changes move peak_rss_mb; import or compile changes
  move setup_s.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from lgwave import cli, experiment, harness, stats
from lgwave.harness import CHUNK, SHARED_STREAM_KEY, ExperimentPlan
from lgwave.optics import NORMALS_PER_REALIZATION, SourceParams

from tracer import Tracer

STATS_REDUCERS = (
    "pmf2_from_counts",
    "pmf3_from_counts",
    "marginal_lg",
    "k_statistic",
    "w_statistic",
    "w_decomposition",
)


def install(tracer: Tracer) -> None:
    """Patch every traced name where its caller looks it up."""

    def on_sample(args, kwargs):
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        tracer.count("optics.realizations_drawn", 1 if n is None else n)

    def on_evaluate(args, kwargs):
        z1 = (args[0] if args else kwargs["h"]).z1
        tracer.count("harness.realizations_evaluated", z1.shape[0] if z1.ndim > 1 else 1)

    tracer.wrap(harness, "sample_hidden", "optics.sample_hidden", on_sample)
    tracer.wrap(harness, "evaluate_context", "harness.evaluate_context", on_evaluate)
    tracer.wrap(experiment, "run_context", "harness.run_context")
    tracer.wrap_generator(experiment, "counterfactual_chunks", "harness.counterfactual_chunks")

    chunk_rng = ExperimentPlan.chunk_rng

    def traced_chunk_rng(plan, stream_key, rep_index, chunk_index):
        tracer.count("harness.streams", key=(stream_key, rep_index, chunk_index))
        return chunk_rng(plan, stream_key, rep_index, chunk_index)

    tracer.patch(ExperimentPlan, "chunk_rng", traced_chunk_rng)

    tracer.wrap(stats.EfficiencyAccumulator, "update", "stats.efficiency_update")
    tracer.wrap(stats.EfficiencyAccumulator, "report", "stats.reduce")
    for name in STATS_REDUCERS:
        tracer.wrap(experiment, name, "stats.reduce")

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(
                tracer.call, "experiment.task", fn, *args, _parent=tracer.current(), **kwargs
            )

    tracer.patch(experiment, "ThreadPoolExecutor", TracedPool)
    tracer.wrap(cli, "run_experiment", "experiment.run")
    tracer.wrap(cli, "run_kw_only", "experiment.run")
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "write_run_outputs", "cli.write_outputs")
    tracer.wrap(cli, "write_sweep_csv", "cli.write_outputs")


def philox_floor_ms(seed: int, chunks: int) -> float:
    """Median time to open one stream and draw one chunk of normals: the
    floor every other layer is measured against."""
    plan = ExperimentPlan(source=SourceParams(r=0.3), seed=seed)
    times = []
    for c in range(chunks):
        t0 = time.perf_counter()
        plan.chunk_rng(SHARED_STREAM_KEY, 0, c).standard_normal((CHUNK, 7, 2, 2))
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (units in UNITS)."""

    def ms_per_call(name: str) -> float:
        n = len(tracer.by_name(name))
        return 1000.0 * tracer.total_seconds(name) / n if n else 0.0

    def self_ms_per_chunk(name: str) -> float:
        # Every chunk a span handles draws once, so sample_hidden children count chunks.
        ids = {s.id for s in tracer.by_name(name)}
        chunks = sum(1 for s in tracer.by_name("optics.sample_hidden") if s.parent in ids)
        return 1000.0 * tracer.self_seconds(name) / chunks if chunks else 0.0

    drawn = tracer.counts["optics.realizations_drawn"]
    evaluated = tracer.counts["harness.realizations_evaluated"]
    run_s = tracer.total_seconds("experiment.run")
    return {
        "optics.sample_hidden.ms_per_chunk": ms_per_call("optics.sample_hidden"),
        "optics.sample_hidden.calls": len(tracer.by_name("optics.sample_hidden")),
        "optics.normals_drawn": drawn * NORMALS_PER_REALIZATION,
        "harness.evaluate_context.ms_per_chunk": ms_per_call("harness.evaluate_context"),
        "harness.evaluate_context.calls": len(tracer.by_name("harness.evaluate_context")),
        "harness.run_context.self_ms_per_chunk": self_ms_per_chunk("harness.run_context"),
        "harness.counterfactual_chunks.self_ms_per_chunk": self_ms_per_chunk(
            "harness.counterfactual_chunks"
        ),
        "harness.streams_opened": tracer.counts["harness.streams"],
        "harness.streams_distinct": len(tracer.distinct["harness.streams"]),
        "harness.draw_reuse": evaluated / drawn if drawn else 0.0,
        "stats.efficiency_update.ms_per_chunk": ms_per_call("stats.efficiency_update"),
        "stats.efficiency_update.calls": len(tracer.by_name("stats.efficiency_update")),
        "stats.reduce_ms": 1000.0 * tracer.total_seconds("stats.reduce"),
        "experiment.tasks": len(tracer.by_name("experiment.task")),
        "experiment.worker_busy_frac": (
            tracer.total_seconds("experiment.task") / (workers * run_s) if run_s else 0.0
        ),
        "cli.load_config_ms": 1000.0 * tracer.total_seconds("cli.load_config"),
        "cli.write_outputs_ms": 1000.0 * tracer.total_seconds("cli.write_outputs"),
    }


# Size of one chunk of float64 normals, computed from the array shape.
PHILOX_MB_PER_CHUNK = CHUNK * NORMALS_PER_REALIZATION * 8 / 1e6

UNITS = {
    "optics.sample_hidden.ms_per_chunk": "ms",
    "optics.sample_hidden.calls": "count",
    "optics.normals_drawn": "count",
    "optics.philox_floor.ms_per_chunk": "ms",
    "optics.philox_floor.mb_per_chunk_computed": "MB",
    "harness.evaluate_context.ms_per_chunk": "ms",
    "harness.evaluate_context.calls": "count",
    "harness.run_context.self_ms_per_chunk": "ms",
    "harness.counterfactual_chunks.self_ms_per_chunk": "ms",
    "harness.streams_opened": "count",
    "harness.streams_distinct": "count",
    "harness.draw_reuse": "ratio",
    "stats.efficiency_update.ms_per_chunk": "ms",
    "stats.efficiency_update.calls": "count",
    "stats.reduce_ms": "ms",
    "experiment.tasks": "count",
    "experiment.worker_busy_frac": "ratio",
    "experiment.scaling_eff": "ratio",
    "cli.load_config_ms": "ms",
    "cli.write_outputs_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}
