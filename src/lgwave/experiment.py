"""Full nine-context experiment: repetitions, parallel execution, summaries.

One driver serves `run` and `sweep`.  It builds one ordered list of small
tasks (one context-repetition, or one shared-draw chunk) and reduces their
integer tallies by list position, so the result is bit-identical for any
worker count.  Every task evaluates all grid points on its one draw of each
chunk.  The worker count is the LGWAVE_WORKERS environment variable, else
the number of CPUs this process may run on.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from .harness import (
    CONTEXT_BITS,
    CONTEXTS,
    COUNT_COLUMNS,
    GROUPS,
    MODE_SHARED,
    ExperimentPlan,
    counterfactual_chunks,
    run_context,
)
from .stats import (
    EfficiencyAccumulator,
    ZeroCoincidences,
    lg_stats,
    marginal_lg,
    pmf2_from_counts,
    pmf3_from_counts,
    w_decomposition,
)
# Unused here: perfbench patches these two names in this module (ROADMAP item 12).
from .stats import k_statistic, w_statistic  # noqa: F401


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


# Per-rep statistics summarized as (mean, std); the delta_* entries follow.
SUMMARY_STATS = (
    "K", "W", "C12", "C23", "C13", "K_marginal", "W_marginal",
    *("eta_" + t for t in GROUPS),
)


def _mean_std(values: list[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def _summarize(per_rep: list[dict]) -> dict[str, dict[str, float]]:
    summary = {name: _mean_std([s[name] for s in per_rep]) for name in SUMMARY_STATS}
    for bits in per_rep[0]["delta"]:
        summary["delta_" + bits] = _mean_std([s["delta"][bits] for s in per_rep])
    return summary


def _lg_stats(counts: np.ndarray) -> dict[str, float]:
    """Check one repetition's (9, 5) counts and reduce them to K, W, the
    pair correlations and the marginal-form K and W."""
    n_total, n_herald, n_plus, n_minus, n_double = counts.T
    bad = np.flatnonzero((n_plus + n_minus + n_double > n_herald) | (n_herald > n_total))
    if bad.size:
        j = bad[0]
        row = ", ".join(f"{name}={v}" for name, v in zip(COUNT_COLUMNS, counts[j].tolist()))
        raise InvariantViolation(f"count ordering violated in context {CONTEXT_BITS[j]}: {row}")
    p13 = pmf2_from_counts(*counts[GROUPS["t1t3"]])
    p23 = pmf2_from_counts(*counts[GROUPS["t2t3"]])
    p3 = pmf3_from_counts(counts[GROUPS["t1t2t3"]])
    k_marg, w_marg = marginal_lg(p3)
    if k_marg > 1.0 + 1e-12 or w_marg > 1e-12:
        raise InvariantViolation(
            f"marginal-form bounds broken: K_marginal={k_marg}, W_marginal={w_marg}"
        )
    return {**lg_stats(p13, p23, p3), "K_marginal": k_marg, "W_marginal": w_marg}


def _shared_chunk_task(plans: list[ExperimentPlan], rep: int, chunk: int) -> list:
    """One chunk of the shared-draw pass: one EfficiencyAccumulator per grid point."""
    accs = [EfficiencyAccumulator() for _ in plans]
    for dets in counterfactual_chunks(plans, rep, range(chunk, chunk + 1)):
        for acc, d in zip(accs, dets):
            acc.update(*d)
    return accs


def _reduce(plans: list[ExperimentPlan], efficiency: bool) -> list:
    """Run the driver's tasks on the thread pool and reduce their results by
    position: [grid point] -> (its (reps, 9, 5) counts, one shared-pass
    accumulator per rep: all zero if no shared pass ran; run_kw_only drops them).

    The task list is one run_context per (rep, context) on independent
    draws, then one _shared_chunk_task per (rep, chunk) on shared draws or
    when `efficiency` is set; both rep-major, so the order is fixed.
    """
    plan = plans[0]
    shared = plan.mode == MODE_SHARED
    reps = range(plan.reps)
    contexts = () if shared else CONTEXTS
    chunks = range(plan.n_chunks()) if shared or efficiency else ()
    tasks = [partial(run_context, plans, b, rep) for rep in reps for b in contexts]
    tasks += [partial(_shared_chunk_task, plans, rep, c) for rep in reps for c in chunks]
    with ThreadPoolExecutor(max_workers=default_workers()) as pool:
        # when a result raises (a failed task or Ctrl-C), map cancels the queued tasks
        results = list(pool.map(lambda task: task(), tasks))

    rows = results[: plan.reps * len(contexts)]
    accs = [[EfficiencyAccumulator() for _ in reps] for _ in plans]
    for j, chunk_accs in enumerate(results[len(rows):]):
        for point_accs, acc in zip(accs, chunk_accs):
            point_accs[j // len(chunks)].merge(acc)
    if shared:
        counts = [np.stack([acc.counts for acc in point_accs]) for point_accs in accs]
    else:
        rows = np.array(rows)
        counts = rows.reshape(plan.reps, -1, len(plans), len(COUNT_COLUMNS)).transpose(2, 0, 1, 3)
    return list(zip(counts, accs))


def run_experiment(plan: ExperimentPlan) -> tuple[np.ndarray, dict]:
    """Run all repetitions of the nine-context experiment: the (reps, 9, 5)
    counts, and the summary.json entries "summary" and "per_rep".

    In independent-draws mode the PMF statistics come from per-context
    streams and a shared-draw pass supplies the counterfactual efficiency
    report; in shared-draws mode the shared pass supplies both.
    """
    [(counts, accs)] = _reduce([plan], efficiency=True)
    per_rep = []
    for rep, (c, acc) in enumerate(zip(counts, accs)):
        eff = acc.report()
        per_rep.append({
            "rep": rep,
            **_lg_stats(c),
            **eff,
            "w_decomposition": w_decomposition(acc.counts, eff),
        })
    return counts, {"summary": _summarize(per_rep), "per_rep": per_rep}


def run_kw_only(plans: list[ExperimentPlan]):
    """Per-rep K and W only, summarized as (mean, std) each, at every grid
    point in `plans`; one (K, W) pair per plan, in order.

    The plans may differ only in source and gamma (ValueError otherwise):
    each chunk of each stream is drawn once and serves every point.  The
    tasks are run_experiment's without the efficiency pass: the per-context
    tasks on independent draws, the shared pass on shared draws.  K and W
    equal run_experiment's.  A failing point's error message names its r
    and gamma.
    """
    if not plans:
        raise ValueError("a grid needs at least one plan")
    for p in plans:
        if replace(p, source=plans[0].source, gamma=plans[0].gamma) != plans[0]:
            raise ValueError("grid plans may differ only in source and gamma")
    kw = []
    for p, (counts, _) in zip(plans, _reduce(plans, efficiency=False)):
        try:
            stats = [_lg_stats(c) for c in counts]
        except (ZeroCoincidences, InvariantViolation) as e:
            raise type(e)(f"r={p.source.r}, gamma={p.gamma}: {e}") from e
        kw.append((_mean_std([s["K"] for s in stats]), _mean_std([s["W"] for s in stats])))
    return kw
