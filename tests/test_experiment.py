import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classical_reference import Z_MAX, count_z
from lgwave import experiment
from lgwave.experiment import (
    InvariantViolation,
    _lg_stats,
    _reduce,
    _shared_chunk_task,
    default_workers,
    run_experiment,
    run_kw_only,
)
from lgwave.harness import (
    CHUNK,
    CONTEXT_BITS,
    CONTEXTS,
    COUNT_COLUMNS,
    GROUPS,
    MODE_SHARED,
    STANDARD_CONTEXT_TABLE,
    ExperimentPlan,
    run_context,
)
from lgwave.optics import OpticalParams, SourceParams
from lgwave.stats import INTERROGATING, w_decomposition


def plan(**kwargs):
    defaults = dict(
        source=SourceParams(r=0.3), gamma=2.0, samples=1 << 16, reps=2, seed=3
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


class TestRunExperiment:
    def test_w_decomposition_over_bounds_is_w(self):
        # eta_t is the size of a Lambda set, a union; over each type's
        # coincidence total bound_t instead, the decomposition gives the
        # run's W and W_marginal
        counts, report = run_experiment(
            plan(gamma=1.2, samples=1 << 14, reps=3, seed=7, mode=MODE_SHARED)
        )
        for c, s in zip(counts, report["per_rep"]):
            d = w_decomposition(c, {**s, **{"eta_" + t: s["bound_" + t] for t in INTERROGATING}})
            assert abs(d["w_direct"] - s["W"]) <= 1e-12
            assert abs(d["w_marginal"] - s["W_marginal"]) <= 1e-12


class TestRunKwOnly:
    def test_matches_full_driver(self):
        p = plan()
        [(k, w)] = run_kw_only([p])
        summary = run_experiment(p)[1]["summary"]
        assert k["mean"] == summary["K"]["mean"]
        assert w["mean"] == summary["W"]["mean"]
        assert k == summary["K"]
        assert w == summary["W"]

    def test_shared_mode_matches_run_experiment(self):
        p = plan(mode=MODE_SHARED)
        [(k, w)] = run_kw_only([p])
        summary = run_experiment(p)[1]["summary"]
        assert k == summary["K"]
        assert w == summary["W"]

    @pytest.mark.parametrize("mode", ["independent-draws", MODE_SHARED])
    def test_grid_matches_one_point_calls(self, mode):
        # unsorted, repeated r; repeated gamma; a point repeated whole
        points = [(0.9, 2.0), (0.3, 1.5), (0.9, 1.5), (0.3, 1.5)]
        plans = [
            plan(source=SourceParams(r=r), gamma=g, samples=5000, mode=mode)
            for r, g in points
        ]
        assert run_kw_only(plans) == [run_kw_only([p])[0] for p in plans]

    @pytest.mark.parametrize(
        "change",
        [{"seed": 4}, {"samples": 1 << 15}, {"optics": OpticalParams(t1=0.4)},
         {"reps": 3}, {"mode": MODE_SHARED}],
    )
    def test_grid_plans_differ_only_in_source_and_gamma(self, change):
        plans = [plan(), plan(source=SourceParams(r=0.6), gamma=1.5, **change)]
        with pytest.raises(ValueError, match="source and gamma"):
            run_kw_only(plans)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            run_kw_only([])


class TestReduce:
    @pytest.mark.parametrize("mode", ["independent-draws", MODE_SHARED])
    def test_results_land_on_their_rep_and_context(self, mode, monkeypatch):
        # two chunks per rep: each rep's accumulator is the sum of its own
        # chunk tasks, and each count row is its own task's
        p = plan(samples=CHUNK + 1000, mode=mode)
        monkeypatch.setenv("LGWAVE_WORKERS", "2")
        [(counts, accs)] = _reduce([p], efficiency=True)
        for rep, acc in enumerate(accs):
            chunk_accs = [_shared_chunk_task([p], rep, c)[0] for c in range(p.n_chunks())]
            for name in ("counts", "n_lambda", "n_sym_diff"):
                expected = sum(getattr(a, name) for a in chunk_accs)
                assert np.array_equal(getattr(acc, name), expected), (rep, name)
            if mode == MODE_SHARED:
                assert np.array_equal(counts[rep], acc.counts)
            else:
                for j, b in enumerate(CONTEXTS):
                    assert np.array_equal(counts[rep, j], run_context([p], b, rep)[0])

    def test_failing_task_drops_the_queue(self, monkeypatch):
        # the first task fails: the error surfaces without the queued tasks
        # running first (the one worker may have started the next one)
        calls = []

        def failing(*args):
            calls.append(args)
            raise RuntimeError("task failed")

        monkeypatch.setattr(experiment, "run_context", failing)
        monkeypatch.setenv("LGWAVE_WORKERS", "1")
        with pytest.raises(RuntimeError, match="task failed"):
            run_experiment(plan(reps=3))
        assert len(calls) <= 2


class TestHeraldRate:
    """n_herald, n_plus + n_double and n_minus + n_double against their
    closed-form rates, |z| <= Z_MAX per row."""

    def test_grid_through_reduce(self, monkeypatch):
        # every point's per-context counts and its shared-pass counts
        points = [(0.0, 1.2), (0.6, 1.2), (0.9, 2.0)]
        plans = [plan(source=SourceParams(r=r), gamma=g, samples=1 << 14) for r, g in points]
        monkeypatch.setenv("LGWAVE_WORKERS", "2")
        reduced = _reduce(plans, efficiency=True)
        for (r, g), (counts, accs) in zip(points, reduced):
            for c in (counts, np.stack([acc.counts for acc in accs])):
                z = count_z(c, r, g)
                assert np.abs(z).max() <= Z_MAX, (r, g, z)


class TestCountInvariant:
    # n_total, n_herald, n_plus, n_minus, n_double of a consistent context
    GOOD = [1000, 40, 12, 9, 3]

    @pytest.mark.parametrize(
        "bad",
        [
            [1000, 20, 12, 9, 3],  # n_plus + n_minus + n_double > n_herald
            [30, 40, 12, 9, 3],  # n_herald > n_total
        ],
        ids=["coincidences-above-heralds", "heralds-above-total"],
    )
    def test_bad_row_named_with_its_counts(self, bad):
        counts = np.array([self.GOOD] * len(STANDARD_CONTEXT_TABLE), dtype=np.int64)
        _lg_stats(counts)  # the consistent rows pass
        t2t3_minus = GROUPS["t2t3"].start + 1
        counts[t2t3_minus] = bad
        with pytest.raises(InvariantViolation) as e:
            _lg_stats(counts)
        message = str(e.value)
        assert f"context {CONTEXT_BITS[t2t3_minus]}:" in message
        for name, value in zip(COUNT_COLUMNS, bad):
            assert f"{name}={value}" in message


# Any text an environment variable can hold: no NUL, no lone surrogates.
ENV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(value=ENV_TEXT | st.integers(-5, 5).map(str))
def test_default_workers_positive_int_or_value_error(value):
    with mock.patch.dict(os.environ, {"LGWAVE_WORKERS": value}):
        try:
            workers = default_workers()
        except ValueError:
            return
    assert isinstance(workers, int) and workers >= 1


def test_default_workers_counts_usable_cpus(monkeypatch):
    # a cpuset-limited process gets one worker per CPU it may run on, not
    # one per CPU of the host
    monkeypatch.delenv("LGWAVE_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert default_workers() == 2
    # platforms without sched_getaffinity fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 64
