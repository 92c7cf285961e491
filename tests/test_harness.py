import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lgwave.harness import (
    CHUNK,
    GEMM_ROWS,
    HERALD_COLUMNS,
    MODE_INDEPENDENT,
    MODE_SHARED,
    ROW_BLOCK,
    SHARED_STREAM_KEY,
    STANDARD_CONTEXT_TABLE,
    ContextCounts,
    ExperimentPlan,
    _gather,
    _tally,
    _transfer,
    counterfactual_chunks,
    evaluate_context,
    run_context,
    standard_contexts,
)
from lgwave.experiment import _shared_chunk_task
from lgwave.optics import (
    NORMALS_PER_REALIZATION,
    R_MAX,
    OpticalParams,
    SourceParams,
    compile_network,
    sample_hidden,
)


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
    def test_zero_threshold_all_double(self):
        n = 1 << 10
        (c,) = run_context([plan(samples=n, gamma=0.0)], open_context(), 0)
        assert c.n_plus == 0 and c.n_minus == 0
        assert c.n_double == c.n_herald == c.n_total == n

    def test_count_ordering(self):
        (c,) = run_context([plan(samples=1 << 16)], open_context(), 0)
        assert c.n_plus + c.n_minus + c.n_double <= c.n_herald <= c.n_total

    def test_deterministic(self):
        p = plan(samples=CHUNK + 100)  # spans a partial chunk
        c1 = run_context([p], open_context(), 0)
        c2 = run_context([p], open_context(), 0)
        assert c1 == c2

    def test_reps_use_fresh_streams(self):
        p = plan(samples=1 << 14)
        c0 = run_context([p], open_context(), 0)
        c1 = run_context([p], open_context(), 1)
        assert c0 != c1


class TestCounterfactual:
    def test_d1_column_shared(self):
        # one d1 per returned realization, one row per context; the returned
        # rows are some of the chunk's, and hold all of its heralds
        p = plan(samples=1 << 12)
        for c, ((n, d1, d2, d3),) in enumerate(counterfactual_chunks([p], 0)):
            assert n == p.chunk_size(c)
            assert d2.shape == d3.shape == (9, d1.shape[0])
            assert d1.shape[0] <= n
            h = sample_hidden(p.chunk_rng(SHARED_STREAM_KEY, 0, c), n)
            e1, _, _ = evaluate_context(h, p.source, open_context(), p.gamma)
            assert np.count_nonzero(d1) == np.count_nonzero(e1)

    def test_counts_match_run_context_on_shared_streams(self):
        p = plan(samples=1 << 14, mode=MODE_SHARED)
        totals = [ContextCounts() for _ in STANDARD_CONTEXT_TABLE]
        for (d,) in counterfactual_chunks([p], 0):
            for tot, part in zip(totals, _tally(*d)):
                tot.add(part)
        for ctx, expected in zip(p.contexts, totals):
            assert run_context([p], ctx, 0) == [expected]

    def test_modes_statistically_compatible(self):
        # z-score between coincidence rates of the two draw modes < 4
        n = 1 << 17
        ctx = open_context()
        (c_ind,) = run_context([plan(samples=n, mode=MODE_INDEPENDENT, seed=5)], ctx, 0)
        (c_sh,) = run_context([plan(samples=n, mode=MODE_SHARED, seed=5)], ctx, 0)
        for attr in ("n_herald", "n_plus", "n_minus"):
            x, y = getattr(c_ind, attr), getattr(c_sh, attr)
            p_hat = (x + y) / (2 * n)
            se = np.sqrt(2 * p_hat * (1 - p_hat) * n)
            assert abs(x - y) < 4 * se


def random_plan(i):
    """Draw i of the kernel's differential test: random optics, r, gamma,
    mode and seed, with sizes that are not multiples of the kernel's
    64-row products or row blocks, and one that spans a partial chunk."""
    g = np.random.default_rng(1000 + i)
    optics = OpticalParams(
        t1=g.uniform(), t2=g.uniform(), t3=g.uniform(),
        theta1=g.uniform(0, 2 * np.pi), theta2=g.uniform(0, 2 * np.pi),
    )
    return ExperimentPlan(
        source=SourceParams(r=g.uniform(0, 1.2)), optics=optics,
        gamma=g.uniform(0.5, 2.5), samples=(1, 63, 1000, 4099, CHUNK + 37)[i % 5],
        reps=1, mode=(MODE_INDEPENDENT, MODE_SHARED)[i % 2], seed=int(g.integers(1 << 30)),
    )


def random_grid(i):
    """Grid i of the fused kernel's differential test: random_plan(i)'s
    optics, mode and seed, 2 reps, samples 1, 4099 or CHUNK+37, and 2-4
    (r, gamma) points.  Between them the templates repeat r and list it
    unsorted, repeat gamma and whole points, use gamma = 0, and leave out
    points of the full r x gamma product."""
    g = np.random.default_rng(2000 + i)
    r0, r1, r2 = np.sort(g.uniform(0, 1.2, 3))
    g0, g1 = g.uniform(0.5, 2.5, 2)
    points = (
        [(r1, g1), (r0, g1), (r1, 0.0)],
        [(r0, g0), (r0, g0)],
        [(r2, g0), (r0, g1), (r1, g0), (r0, 0.0)],
    )[i % 3]
    base = replace(random_plan(i), samples=(1, 4099, CHUNK + 37)[(i // 2) % 3], reps=2)
    return [replace(base, source=SourceParams(r=r), gamma=gamma) for r, gamma in points]


# The shared pass's differential cases: random_plan's 20 draws alone, then
# gamma = 0 (every row heralded) and 1e6 (none), sizes whose final block
# leaves one row after its GEMM_ROWS-row products, and three of random_grid's
# grids, where a source's lowest gamma gathers rows its other points do not
# herald.
SHARED_PASS_CASES = {
    **{str(i): [random_plan(i)] for i in range(20)},
    "gamma-0": [replace(random_plan(20), gamma=0.0)],
    "gamma-1e6": [replace(random_plan(23), gamma=1e6, samples=CHUNK + 5)],
    "samples-4097": [replace(random_plan(21), samples=4097)],
    "samples-chunk+65": [replace(random_plan(22), samples=CHUNK + 65)],
    **{f"grid-{i}": random_grid(i) for i in (2, 3, 4)},
}


class TestKernelMatchesReference:
    """The compiled kernel behind run_context and counterfactual_chunks
    decides every detector exactly as evaluate_context does on the same draw."""

    @pytest.mark.parametrize("case", list(SHARED_PASS_CASES))
    def test_counterfactual_detections(self, case):
        # Per grid point the shared pass returns some of a chunk's rows, in
        # stream order: every row evaluate_context heralds, with equal d2 and
        # d3, and others only with d1 false (so the herald counts agree).
        plans = SHARED_PASS_CASES[case]
        p = plans[0]
        for c, dets in enumerate(counterfactual_chunks(plans, 0)):
            h = sample_hidden(p.chunk_rng(SHARED_STREAM_KEY, 0, c), p.chunk_size(c))
            for q, (n, d1, d2, d3) in zip(plans, dets):
                assert n == len(h) >= len(d1)
                for j, ctx in enumerate(q.contexts):
                    e1, e2, e3 = evaluate_context(h, q.source, ctx, q.gamma)
                    assert np.count_nonzero(d1) == np.count_nonzero(e1)
                    assert np.array_equal(d2[j, d1], e2[e1])
                    assert np.array_equal(d3[j, d1], e3[e1])

    @pytest.mark.parametrize("i", range(20))
    def test_run_context_counts(self, i):
        p = random_plan(i)
        ctx = p.contexts[i % 9]
        key = SHARED_STREAM_KEY if p.mode == MODE_SHARED else ctx.bits_int
        expected = ContextCounts()
        for c in range(p.n_chunks()):
            h = sample_hidden(p.chunk_rng(key, 0, c), p.chunk_size(c))
            (counts,) = _tally(len(h), *evaluate_context(h, p.source, ctx, p.gamma))
            expected.add(counts)
        assert run_context([p], ctx, 0) == [expected]

    @pytest.mark.parametrize("i", range(12))
    def test_grid_counts_match_one_point_calls(self, i):
        # the tasks a sweep runs: the shared pass, all nine contexts on the
        # shared stream, and run_context, one context per stream in
        # independent-draws mode
        plans = random_grid(i)
        p = plans[0]
        ctx = p.contexts[i % 9]
        for rep in range(p.reps):
            for c in range(p.n_chunks()):
                fused = _shared_chunk_task(plans, rep, c)
                assert len(fused) == len(plans)
                for acc, q in zip(fused, plans):
                    assert acc.counts == _shared_chunk_task([q], rep, c)[0].counts
            assert run_context(plans, ctx, rep) == [
                run_context([q], ctx, rep)[0] for q in plans
            ]


class TestPeakMemory:
    # One chunk of normals, the array the kernel would hold if it drew a
    # chunk at once instead of one row block at a time.
    CHUNK_OF_NORMALS = CHUNK * NORMALS_PER_REALIZATION * 8

    def traced_peak(self, task):
        task()  # warm-up: first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            task()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_run_context_holds_no_chunk_of_normals(self):
        p = plan(samples=2 * CHUNK)
        peak = self.traced_peak(lambda: run_context([p], open_context(), 0))
        assert peak < self.CHUNK_OF_NORMALS

    def test_counterfactual_chunks_holds_no_chunk_of_normals(self):
        p = plan(samples=2 * CHUNK, mode=MODE_SHARED)
        peak = self.traced_peak(lambda: [None for _ in counterfactual_chunks([p], 0)])
        assert peak < self.CHUNK_OF_NORMALS


class TestLargestSqueezing:
    def test_every_detector_fires_without_overflow(self):
        # at R_MAX every power is finite and far above gamma^2; an overflow
        # would raise here, where RuntimeWarnings are errors
        p = plan(samples=4099, r=R_MAX, mode=MODE_SHARED)
        assert np.isfinite(compile_network(p.source, p.contexts)).all()
        for ((n, d1, d2, d3),) in counterfactual_chunks([p], 0):
            assert len(d1) == n and d1.all() and d2.all() and d3.all()


class TestBlasFacts:
    """The two products whose rounding the shared pass relies on to decide
    every detector as the all-rows product does (harness._detections).  If
    a BLAS upgrade breaks one, this names the cause before the golden
    files fail."""

    NETWORKS = {r: compile_network(SourceParams(r=r), standard_contexts(OpticalParams()))
                for r in (0.0, 0.3, 0.9)}

    def blocks(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        return rng, [sample_hidden(rng, ROW_BLOCK) for _ in range(4)]

    @pytest.mark.parametrize("r", NETWORKS)
    def test_herald_tile_rounds_like_full_product(self, r):
        m = self.NETWORKS[r]
        tile = np.ascontiguousarray(m[:, :HERALD_COLUMNS])
        for x in self.blocks(1)[1]:
            assert np.array_equal(_transfer(x, tile)[:, :4], _transfer(x, m)[:, :4])

    @pytest.mark.parametrize("r", NETWORKS)
    @pytest.mark.parametrize("k", [1, 2, 5, 63, 64, 65, 130])
    def test_padded_gather_rounds_like_full_product(self, r, k):
        m = self.NETWORKS[r]
        rng, blocks = self.blocks(2)
        buf = np.empty((ROW_BLOCK, NORMALS_PER_REALIZATION))
        for x in blocks:
            rows = np.sort(rng.choice(ROW_BLOCK, k, replace=False))
            y = _gather(x, rows, buf)
            assert len(y) % GEMM_ROWS == 0
            assert np.array_equal(_transfer(y, m)[:k], _transfer(x, m)[rows])


class TestPlanValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            plan(mode="bogus")

    @pytest.mark.parametrize("field", ["samples", "reps"])
    def test_bad_reps(self, field):
        with pytest.raises(ValueError, match=field):
            plan(**{field: 0})

    @pytest.mark.parametrize("field", ["samples", "reps"])
    @pytest.mark.parametrize("value", [2048.5, 2.0, True, "2048"])
    def test_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            plan(**{field: value})

    @pytest.mark.parametrize("value", [True, "2.0", None])
    def test_gamma_not_a_real_number(self, value):
        with pytest.raises(ValueError, match="gamma"):
            plan(gamma=value)

    def test_chunking(self):
        p = plan(samples=CHUNK * 2 + 5)
        assert p.n_chunks() == 3
        assert p.chunk_size(2) == 5
