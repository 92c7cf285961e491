import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lgwave.experiment import default_workers, run_experiment, run_kw_only
from lgwave.harness import MODE_SHARED, ExperimentPlan
from lgwave.optics import OpticalParams, SourceParams
from lgwave.oracle import predicted_pmfs
from lgwave.stats import MINUS, PLUS, pmf2_from_counts
from lgwave.harness import T1T3_MINUS, T1T3_PLUS


def plan(**kwargs):
    defaults = dict(
        source=SourceParams(r=0.3), gamma=2.0, samples=1 << 16, reps=2, seed=3
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


class TestRunExperiment:
    def test_worker_count_does_not_change_counts(self):
        p = plan()
        r1 = run_experiment(p, workers=1)
        r2 = run_experiment(p, workers=2)
        r8 = run_experiment(p, workers=8)
        for a, b in [(r1, r2), (r1, r8)]:
            for ra, rb in zip(a.reps, b.reps):
                assert ra.counts == rb.counts
                assert ra.K == rb.K and ra.W == rb.W
                assert ra.efficiency == rb.efficiency

    def test_shared_mode_uses_counterfactual_counts(self):
        p = plan(mode=MODE_SHARED)
        res = run_experiment(p)
        # all contexts see the same draws, so the herald column is shared
        for rep in res.reps:
            heralds = {c.n_herald for c in rep.counts}
            assert len(heralds) == 1

    def test_marginal_bounds_on_simulated_data(self):
        res = run_experiment(plan(samples=1 << 17, reps=3))
        for rep in res.reps:
            assert rep.K_marginal <= 1.0 + 1e-12
            assert rep.W_marginal <= 1e-12

    def test_simulated_pmf_near_quantum_prediction(self):
        res = run_experiment(plan(samples=1 << 19, reps=2, seed=21))
        p13_sim = pmf2_from_counts(
            res.reps[0].counts[T1T3_PLUS], res.reps[0].counts[T1T3_MINUS]
        )
        p13_qm, _, _ = predicted_pmfs(OpticalParams())
        for key in p13_qm:
            assert abs(p13_sim[key] - p13_qm[key]) < 0.06

    def test_w_decomposition_marginal_nonpositive(self):
        # with the common joint PMF and common efficiency the marginal W
        # reduces to -(mu[E+(1001)] + mu[E-(0110)]) / mu[Lambda], <= 0
        res = run_experiment(plan(samples=1 << 17, reps=2))
        for rep in res.reps:
            assert rep.w_decomposition["w_marginal"] <= 1e-12

    def test_summary_mean_std(self):
        res = run_experiment(plan(reps=3))
        ks = [r.K for r in res.reps]
        assert res.summary["K"]["mean"] == np.mean(ks)
        assert abs(res.summary["K"]["std"] - np.std(ks, ddof=1)) < 1e-15


class TestRunKwOnly:
    def test_matches_full_driver(self):
        p = plan()
        k, w = run_kw_only(p)
        res = run_experiment(p)
        assert k["mean"] == res.summary["K"]["mean"]
        assert w["mean"] == res.summary["W"]["mean"]

    def test_shared_mode_matches_run_experiment(self):
        p = plan(mode=MODE_SHARED)
        k, w = run_kw_only(p)
        res = run_experiment(p)
        assert k == res.summary["K"]
        assert w == res.summary["W"]


# Any text an environment variable can hold: no NUL, no lone surrogates.
ENV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))


@settings(max_examples=300, deadline=None, database=None)
@given(value=ENV_TEXT | st.integers(-5, 5).map(str))
def test_default_workers_positive_int_or_value_error(value):
    with mock.patch.dict(os.environ, {"LGWAVE_WORKERS": value}):
        try:
            workers = default_workers()
        except ValueError:
            return
    assert isinstance(workers, int) and workers >= 1
