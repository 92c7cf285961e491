import numpy as np
import pytest

from lgwave.harness import (
    CHUNK,
    MODE_INDEPENDENT,
    MODE_SHARED,
    STANDARD_CONTEXT_TABLE,
    ContextCounts,
    ExperimentPlan,
    _tally,
    counterfactual_chunks,
    evaluate_context,
    run_context,
    standard_contexts,
)
from lgwave.optics import OpticalParams, SourceParams, sample_hidden


def plan(samples=1 << 14, reps=1, mode=MODE_INDEPENDENT, seed=0, r=0.3, gamma=2.0):
    return ExperimentPlan(
        source=SourceParams(r=r), gamma=gamma, samples=samples, reps=reps,
        mode=mode, seed=seed,
    )


def open_context():
    return standard_contexts(OpticalParams())[0]


class TestStandardContexts:
    def test_nine_contexts(self):
        assert len(STANDARD_CONTEXT_TABLE) == 9
        bits = [b for b, _, _ in STANDARD_CONTEXT_TABLE]
        assert bits[0] == (1, 1, 1, 1)
        assert set(bits[1:3]) == {(1, 0, 1, 1), (0, 1, 1, 1)}
        assert set(bits[3:5]) == {(1, 1, 1, 0), (1, 1, 0, 1)}
        assert set(bits[5:]) == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}


class TestEvaluateContext:
    def test_zero_threshold_all_fire(self):
        rng = np.random.Generator(np.random.Philox(0))
        h = sample_hidden(rng, 100)
        d1, d2, d3 = evaluate_context(h, SourceParams(r=0.3), open_context(), 0.0)
        assert d1.all() and d2.all() and d3.all()

    def test_huge_threshold_none_fire(self):
        rng = np.random.Generator(np.random.Philox(0))
        h = sample_hidden(rng, 100)
        d1, d2, d3 = evaluate_context(h, SourceParams(r=0.3), open_context(), 1e6)
        assert not d1.any() and not d2.any() and not d3.any()

    def test_herald_rate_matches_chi2_tail(self):
        # ||a1||^2 is (v/2) * chi^2_4 with v = cosh(2r)/2, so the herald
        # probability has the closed form exp(-x/2)(1 + x/2), x = 2 gamma^2 / v
        r, gamma = 0.3, 2.0
        n = 1 << 18
        rng = np.random.Generator(np.random.Philox(11))
        h = sample_hidden(rng, n)
        d1, _, _ = evaluate_context(h, SourceParams(r=r), open_context(), gamma)
        v = np.cosh(2 * r) / 2
        x = 2 * gamma**2 / v
        p = np.exp(-x / 2) * (1 + x / 2)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(d1.mean() - p) < 3 * se

    def test_d1_independent_of_context(self):
        rng = np.random.Generator(np.random.Philox(12))
        h = sample_hidden(rng, 1000)
        src = SourceParams(r=0.3)
        d1s = [
            evaluate_context(h, src, ctx, 2.0)[0]
            for ctx in standard_contexts(OpticalParams())
        ]
        for d1 in d1s[1:]:
            assert np.array_equal(d1, d1s[0])


class TestRunContext:
    def test_empty_run(self):
        c = run_context(plan(samples=0), open_context(), 0)
        assert (c.n_herald, c.n_plus, c.n_minus, c.n_double, c.n_total) == (0, 0, 0, 0, 0)

    def test_zero_threshold_all_double(self):
        n = 1 << 10
        c = run_context(plan(samples=n, gamma=0.0), open_context(), 0)
        assert c.n_plus == 0 and c.n_minus == 0
        assert c.n_double == c.n_herald == c.n_total == n

    def test_count_ordering(self):
        c = run_context(plan(samples=1 << 16), open_context(), 0)
        assert c.n_plus + c.n_minus + c.n_double <= c.n_herald <= c.n_total

    def test_deterministic(self):
        p = plan(samples=CHUNK + 100)  # spans a partial chunk
        c1 = run_context(p, open_context(), 0)
        c2 = run_context(p, open_context(), 0)
        assert c1 == c2

    def test_reps_use_fresh_streams(self):
        p = plan(samples=1 << 14)
        c0 = run_context(p, open_context(), 0)
        c1 = run_context(p, open_context(), 1)
        assert c0 != c1


class TestCounterfactual:
    def test_d1_column_shared(self):
        for d1, d2, d3 in counterfactual_chunks(plan(samples=1 << 12), 0):
            # by construction one d1 per realization, one row per context
            assert d2.shape == d3.shape == (9, d1.shape[0])

    def test_counts_match_run_context_on_shared_streams(self):
        p = plan(samples=1 << 14, mode=MODE_SHARED)
        totals = [ContextCounts() for _ in STANDARD_CONTEXT_TABLE]
        for d in counterfactual_chunks(p, 0):
            for tot, part in zip(totals, _tally(*d)):
                tot.add(part)
        for ctx, expected in zip(p.contexts, totals):
            assert run_context(p, ctx, 0) == expected

    def test_modes_statistically_compatible(self):
        # z-score between coincidence rates of the two draw modes < 4
        n = 1 << 17
        ctx = open_context()
        c_ind = run_context(plan(samples=n, mode=MODE_INDEPENDENT, seed=5), ctx, 0)
        c_sh = run_context(plan(samples=n, mode=MODE_SHARED, seed=5), ctx, 0)
        for attr in ("n_herald", "n_plus", "n_minus"):
            x, y = getattr(c_ind, attr), getattr(c_sh, attr)
            p_hat = (x + y) / (2 * n)
            se = np.sqrt(2 * p_hat * (1 - p_hat) * n)
            assert abs(x - y) < 4 * se


class TestPlanValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            plan(mode="bogus")

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            plan(reps=0)

    @pytest.mark.parametrize("field", ["samples", "reps"])
    @pytest.mark.parametrize("value", [2048.5, 2.0, True, "2048"])
    def test_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            plan(**{field: value})

    def test_chunking(self):
        p = plan(samples=CHUNK * 2 + 5)
        assert p.n_chunks() == 3
        assert p.chunk_size(2) == 5
