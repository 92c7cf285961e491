"""Full nine-context experiment: repetitions, parallel execution, summaries.

Work is split into small tasks (one context-repetition, or one shared-draw
chunk) whose integer tallies are reduced in a fixed order, so the result is
bit-identical for any worker count.  Worker count defaults to the
LGWAVE_WORKERS environment variable, falling back to the CPU count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .harness import (
    MODE_INDEPENDENT,
    MODE_SHARED,
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
    run_context,
)
from .stats import (
    MINUS,
    PLUS,
    EfficiencyAccumulator,
    EfficiencyReport,
    Pmf2,
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
    return os.cpu_count() or 1


@dataclass
class RepResult:
    """Statistics of one repetition of the full experiment."""

    rep: int
    counts: list[ContextCounts]
    K: float
    W: float
    C12: float
    C23: float
    C13: float
    K_marginal: float
    W_marginal: float
    efficiency: EfficiencyReport
    w_decomposition: dict[str, float]


@dataclass
class ExperimentResult:
    reps: list[RepResult]
    summary: dict[str, dict[str, float]]


def _mean_std(values: list[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def _summarize(reps: list[RepResult]) -> dict[str, dict[str, float]]:
    summary = {
        name: _mean_std([getattr(r, name) for r in reps])
        for name in ("K", "W", "C12", "C23", "C13", "K_marginal", "W_marginal")
    }
    for name in ("eta_t3", "eta_t1t3", "eta_t2t3", "eta_t1t2t3"):
        summary[name] = _mean_std([getattr(r.efficiency, name) for r in reps])
    for bits, _, _ in STANDARD_CONTEXT_TABLE:
        key = "delta_" + "".join(map(str, bits))
        summary[key] = _mean_std([r.efficiency.delta[bits] for r in reps])
    return summary


def _check_counts(c: ContextCounts) -> None:
    if not (c.n_plus + c.n_minus + c.n_double <= c.n_herald <= c.n_total):
        raise InvariantViolation(f"count ordering violated: {c}")


def _pmfs(counts: list[ContextCounts]) -> tuple[Pmf2, Pmf2, Pmf2, float, float]:
    """Check one repetition's nine context counts and reduce them to the
    PMFs (p12, p13, p23) and the marginal-form (K_marginal, W_marginal)."""
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
    return p12, p13, p23, k_marg, w_marg


def _rep_stats(
    rep: int,
    counts: list[ContextCounts],
    eff: EfficiencyReport,
    shared_counts: list[ContextCounts],
) -> RepResult:
    p12, p13, p23, k_marg, w_marg = _pmfs(counts)
    return RepResult(
        rep=rep,
        counts=counts,
        K=k_statistic(p12, p23, p13),
        W=w_statistic(p13, p23, p12),
        C12=correlation(p12),
        C23=correlation(p23),
        C13=correlation(p13),
        K_marginal=k_marg,
        W_marginal=w_marg,
        efficiency=eff,
        w_decomposition=w_decomposition(shared_counts, eff),
    )


def _shared_chunk_task(plan: ExperimentPlan, rep: int, chunk: int) -> EfficiencyAccumulator:
    acc = EfficiencyAccumulator()
    for d in counterfactual_chunks(plan, rep, range(chunk, chunk + 1)):
        acc.update(*d)
    return acc


def _context_tasks(plan: ExperimentPlan) -> dict:
    """One run_context task per (rep, context index), keyed by that pair."""
    contexts = plan.contexts
    return {
        (rep, j): (run_context, plan, ctx, rep)
        for rep in range(plan.reps)
        for j, ctx in enumerate(contexts)
    }


def _run_tasks(tasks: dict, workers: int | None) -> dict:
    """Run every task (fn, *args) on the thread pool; results keep the keys."""
    if workers is None:
        workers = default_workers()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = {key: pool.submit(*task) for key, task in tasks.items()}
        return {key: fut.result() for key, fut in futs.items()}


def _rep_counts(results: dict, rep: int) -> list[ContextCounts]:
    return [results[(rep, j)] for j in range(len(STANDARD_CONTEXT_TABLE))]


def run_experiment(plan: ExperimentPlan, workers: int | None = None) -> ExperimentResult:
    """Run all repetitions of the nine-context experiment.

    In independent-draws mode the PMF statistics come from per-context
    streams and a shared-draw pass supplies the counterfactual efficiency
    report; in shared-draws mode the shared pass supplies both.
    """
    independent = plan.mode == MODE_INDEPENDENT
    tasks = _context_tasks(plan) if independent else {}
    for rep in range(plan.reps):
        for c in range(plan.n_chunks()):
            tasks[("shared", rep, c)] = (_shared_chunk_task, plan, rep, c)
    results = _run_tasks(tasks, workers)

    reps: list[RepResult] = []
    for rep in range(plan.reps):
        acc = EfficiencyAccumulator()
        for c in range(plan.n_chunks()):
            acc.merge(results[("shared", rep, c)])
        counts = _rep_counts(results, rep) if independent else acc.counts
        reps.append(_rep_stats(rep, counts, acc.report(), acc.counts))
    return ExperimentResult(reps=reps, summary=_summarize(reps))


def run_kw_only(plan: ExperimentPlan, workers: int | None = None):
    """Per-rep K and W only, summarized as (mean, std) each, for sweeps.

    In independent-draws mode the shared-draw efficiency pass is skipped;
    in shared-draws mode that pass supplies the counts, so this is
    run_experiment's K and W summary.
    """
    if plan.mode == MODE_SHARED:
        summary = run_experiment(plan, workers).summary
        return summary["K"], summary["W"]
    results = _run_tasks(_context_tasks(plan), workers)
    ks, ws = [], []
    for rep in range(plan.reps):
        p12, p13, p23, _, _ = _pmfs(_rep_counts(results, rep))
        ks.append(k_statistic(p12, p23, p13))
        ws.append(w_statistic(p13, p23, p12))
    return _mean_std(ks), _mean_std(ws)
