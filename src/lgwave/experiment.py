"""Full nine-context experiment: repetitions, parallel execution, summaries.

Work is split into small tasks (one context-repetition, or one shared-draw
chunk) whose integer tallies are reduced in a fixed order, so the result is
bit-identical for any worker count.  A sweep's tasks evaluate every grid
point on their one draw of each chunk.  Worker count defaults to the
LGWAVE_WORKERS environment variable, falling back to the number of CPUs
this process may run on.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .harness import (
    MODE_INDEPENDENT,
    MODE_SHARED,
    SHARED_STREAM_KEY,
    STANDARD_CONTEXT_TABLE,
    T1T2T3_MM,
    T1T2T3_MP,
    T1T2T3_PM,
    T1T2T3_PP,
    T1T3_MINUS,
    T1T3_PLUS,
    T2T3_MINUS,
    T2T3_PLUS,
    ContextCounts,
    ExperimentPlan,
    counterfactual_chunks,
    grid_counts,
    run_context,
)
from .stats import (
    MINUS,
    PLUS,
    EfficiencyAccumulator,
    correlation,
    marginal_12,
    marginal_lg,
    pmf2_from_counts,
    pmf3_from_counts,
    k_statistic,
    w_statistic,
    w_decomposition,
)


class InvariantViolation(RuntimeError):
    """An internal consistency check failed on simulated data."""


def default_workers() -> int:
    env = os.environ.get("LGWAVE_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0  # rejected below, with the same message
        if workers < 1:
            raise ValueError(f"LGWAVE_WORKERS must be a positive integer, got {env!r}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class RepResult:
    """One repetition: its nine context counts and its statistics, keyed as
    in a summary.json per-rep entry."""

    counts: list[ContextCounts]
    stats: dict


@dataclass
class ExperimentResult:
    reps: list[RepResult]
    summary: dict[str, dict[str, float]]


# Per-rep statistics summarized as (mean, std); the delta_* entries follow.
SUMMARY_STATS = (
    "K", "W", "C12", "C23", "C13", "K_marginal", "W_marginal",
    "eta_t3", "eta_t1t3", "eta_t2t3", "eta_t1t2t3",
)


def _mean_std(values: list[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def _summarize(reps: list[RepResult]) -> dict[str, dict[str, float]]:
    summary = {name: _mean_std([r.stats[name] for r in reps]) for name in SUMMARY_STATS}
    for bits in reps[0].stats["delta"]:
        summary["delta_" + bits] = _mean_std([r.stats["delta"][bits] for r in reps])
    return summary


def _check_counts(c: ContextCounts) -> None:
    if not (c.n_plus + c.n_minus + c.n_double <= c.n_herald <= c.n_total):
        raise InvariantViolation(f"count ordering violated: {c}")


def _lg_stats(counts: list[ContextCounts]) -> dict[str, float]:
    """Check one repetition's nine context counts and reduce them to K, W,
    the pair correlations and the marginal-form K and W."""
    for c in counts:
        _check_counts(c)
    p13 = pmf2_from_counts(counts[T1T3_PLUS], counts[T1T3_MINUS])
    p23 = pmf2_from_counts(counts[T2T3_PLUS], counts[T2T3_MINUS])
    p3 = pmf3_from_counts(
        {
            (PLUS, PLUS): counts[T1T2T3_PP],
            (PLUS, MINUS): counts[T1T2T3_PM],
            (MINUS, PLUS): counts[T1T2T3_MP],
            (MINUS, MINUS): counts[T1T2T3_MM],
        }
    )
    p12 = marginal_12(p3)
    k_marg, w_marg = marginal_lg(p3)
    if k_marg > 1.0 + 1e-12 or w_marg > 1e-12:
        raise InvariantViolation(
            f"marginal-form bounds broken: K_marginal={k_marg}, W_marginal={w_marg}"
        )
    return {
        "K": k_statistic(p12, p23, p13),
        "W": w_statistic(p13, p23, p12),
        "C12": correlation(p12),
        "C23": correlation(p23),
        "C13": correlation(p13),
        "K_marginal": k_marg,
        "W_marginal": w_marg,
    }


def _shared_chunk_task(plan: ExperimentPlan, rep: int, chunk: int) -> EfficiencyAccumulator:
    acc = EfficiencyAccumulator()
    for d in counterfactual_chunks(plan, rep, range(chunk, chunk + 1)):
        acc.update(*d)
    return acc


def _context_tasks(plans: list[ExperimentPlan]) -> dict:
    """One run_context task per (rep, context index), keyed by that pair;
    each evaluates every grid point in `plans` on its context's draws."""
    plan = plans[0]
    return {
        (rep, j): (run_context, plans, ctx, rep)
        for rep in range(plan.reps)
        for j, ctx in enumerate(plan.contexts)
    }


def _run_tasks(tasks: dict, workers: int | None) -> dict:
    """Run every task (fn, *args) on the thread pool; results keep the keys."""
    if workers is None:
        workers = default_workers()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = {key: pool.submit(*task) for key, task in tasks.items()}
        return {key: fut.result() for key, fut in futs.items()}


def _rep_counts(results: dict, rep: int, point: int) -> list[ContextCounts]:
    return [results[(rep, j)][point] for j in range(len(STANDARD_CONTEXT_TABLE))]


def run_experiment(plan: ExperimentPlan, workers: int | None = None) -> ExperimentResult:
    """Run all repetitions of the nine-context experiment.

    In independent-draws mode the PMF statistics come from per-context
    streams and a shared-draw pass supplies the counterfactual efficiency
    report; in shared-draws mode the shared pass supplies both.
    """
    independent = plan.mode == MODE_INDEPENDENT
    tasks = _context_tasks([plan]) if independent else {}
    for rep in range(plan.reps):
        for c in range(plan.n_chunks()):
            tasks[("shared", rep, c)] = (_shared_chunk_task, plan, rep, c)
    results = _run_tasks(tasks, workers)

    reps: list[RepResult] = []
    for rep in range(plan.reps):
        acc = EfficiencyAccumulator()
        for c in range(plan.n_chunks()):
            acc.merge(results[("shared", rep, c)])
        counts = _rep_counts(results, rep, 0) if independent else acc.counts
        eff = acc.report()
        stats = {
            "rep": rep,
            **_lg_stats(counts),
            **eff,
            "w_decomposition": w_decomposition(acc.counts, eff),
        }
        reps.append(RepResult(counts, stats))
    return ExperimentResult(reps=reps, summary=_summarize(reps))


def _sweep_counts(plans: list[ExperimentPlan], workers: int | None) -> list:
    """counts[i][rep]: the nine context counts of grid point i in repetition
    rep, every point evaluated on the same draws."""
    plan = plans[0]
    points, reps = range(len(plans)), range(plan.reps)
    if plan.mode == MODE_INDEPENDENT:
        results = _run_tasks(_context_tasks(plans), workers)
        return [[_rep_counts(results, rep, i) for rep in reps] for i in points]
    tasks = {
        (rep, c): (grid_counts, plans, SHARED_STREAM_KEY, rep, plan.contexts, range(c, c + 1))
        for rep in reps
        for c in range(plan.n_chunks())
    }
    results = _run_tasks(tasks, workers)
    counts = [[[ContextCounts() for _ in STANDARD_CONTEXT_TABLE] for _ in reps] for _ in points]
    for (rep, _), per_point in results.items():
        for i, part in enumerate(per_point):
            for total, c in zip(counts[i][rep], part):
                total.add(c)
    return counts


def run_kw_only(plans: list[ExperimentPlan], workers: int | None = None):
    """Per-rep K and W only, summarized as (mean, std) each, at every grid
    point in `plans`; one (K, W) pair per plan, in order.

    The plans may differ only in source and gamma (ValueError otherwise):
    each chunk of each stream is drawn once and serves every point.  No
    efficiency pass runs; in shared-draws mode the shared stream supplies the
    nine context counts, so K and W equal run_experiment's.
    """
    if not plans:
        raise ValueError("a grid needs at least one plan")
    for p in plans:
        if replace(p, source=plans[0].source, gamma=plans[0].gamma) != plans[0]:
            raise ValueError("grid plans may differ only in source and gamma")
    kw = []
    for point in _sweep_counts(plans, workers):
        stats = [_lg_stats(counts) for counts in point]
        kw.append((_mean_std([s["K"] for s in stats]), _mean_std([s["W"] for s in stats])))
    return kw
