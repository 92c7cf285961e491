import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lgwave import harness
from lgwave.harness import (
    CHUNK,
    CONTEXTS,
    COUNT_COLUMNS,
    GROUPS,
    MODE_INDEPENDENT,
    MODE_SHARED,
    N_HERALD,
    N_MINUS,
    N_PLUS,
    ROW_BLOCK,
    SHARED_STREAM_KEY,
    STANDARD_CONTEXT_TABLE,
    ExperimentPlan,
    _band,
    _clicks,
    _powers,
    _tally,
    counterfactual_chunks,
    evaluate_context,
    run_context,
    stream_key,
)
from lgwave.experiment import _shared_chunk_task
from lgwave.optics import (
    NORMALS_PER_REALIZATION,
    R_MAX,
    SIGMA,
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


OPEN = CONTEXTS[0]
DEFAULT_OPTICS = OpticalParams()


class TestStandardContexts:
    def test_nine_contexts(self):
        assert len(STANDARD_CONTEXT_TABLE) == 9
        bits = [b for b, _, _ in STANDARD_CONTEXT_TABLE]
        assert bits[0] == (1, 1, 1, 1)
        assert set(bits[1:3]) == {(1, 0, 1, 1), (0, 1, 1, 1)}
        assert set(bits[3:5]) == {(1, 1, 1, 0), (1, 1, 0, 1)}
        assert set(bits[5:]) == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
        assert CONTEXTS == tuple(bits)

    def test_stream_keys(self):
        # b1 b2 b3 b4 read as a binary number: nine distinct keys, none of
        # them the shared-draw stream's
        keys = [stream_key(b) for b in CONTEXTS]
        assert keys == [15, 11, 7, 14, 13, 10, 9, 6, 5]
        assert SHARED_STREAM_KEY == 16 and SHARED_STREAM_KEY not in keys
        every = [tuple(int(bit) for bit in f"{k:04b}") for k in range(16)]
        assert [stream_key(b) for b in every] == list(range(16))

    def test_groups_partition_rows_by_type(self):
        # The four types cover rows 0-8 once each, in order.
        rows = [i for g in GROUPS.values() for i in range(len(STANDARD_CONTEXT_TABLE))[g]]
        assert rows == list(range(9))
        assert list(GROUPS) == ["t3", "t1t3", "t2t3", "t1t2t3"]
        # Each type's (q1, q2) labels: the times it interrogates, + before -.
        expected = {
            "t3": [(None, None)],
            "t1t3": [(+1, None), (-1, None)],
            "t2t3": [(None, +1), (None, -1)],
            "t1t2t3": [(+1, +1), (+1, -1), (-1, +1), (-1, -1)],
        }
        for name, g in GROUPS.items():
            assert [(q1, q2) for _, q1, q2 in STANDARD_CONTEXT_TABLE[g]] == expected[name]


class TestEvaluateContext:
    def test_single_state_is_its_row_of_the_batch(self):
        # one (28,) state gives the scalar detections of its row of a batch
        h = sample_hidden(np.random.Generator(np.random.Philox(13)), 64)
        src = SourceParams(r=0.6)
        optics = OpticalParams(t1=0.3, theta1=0.7, theta2=-1.1)
        for b in CONTEXTS:
            batch = evaluate_context(h, src, b, optics, 1.2)
            assert [d.shape for d in batch] == [(len(h),)] * 3
            for i in range(len(h)):
                single = evaluate_context(h[i], src, b, optics, 1.2)
                assert [d.shape for d in single] == [()] * 3
                assert [bool(d) for d in single] == [bool(d[i]) for d in batch]

    # At r = 0 the unit row e0 gives D1 the amplitude SIGMA, whose float
    # power is SIGMA * SIGMA; the reference clicks iff that exceeds gamma**2.
    E0 = np.eye(1, NORMALS_PER_REALIZATION)[0]

    def herald(self, gamma):
        return evaluate_context(self.E0, SourceParams(r=0.0), OPEN, DEFAULT_OPTICS, gamma)[0]

    def test_above_threshold(self):
        assert self.herald(np.nextafter(SIGMA, 0))

    def test_strict_at_threshold(self):
        assert not self.herald(SIGMA)

    def test_below_threshold(self):
        assert not self.herald(np.nextafter(SIGMA, 1))

    def test_strict_at_zero(self):
        h = np.zeros(NORMALS_PER_REALIZATION)
        assert not any(evaluate_context(h, SourceParams(r=0.3), OPEN, DEFAULT_OPTICS, 0.0))


def reference_tally(n_total, d1, d2, d3):
    """_tally spelled out one realization at a time: count rows in
    COUNT_COLUMNS order, one per context."""
    rows = []
    for e2, e3 in zip(d2, d3):
        herald = plus = minus = double = 0
        for h, a, b in zip(d1, e2, e3):
            if not h:
                continue
            herald += 1
            if a and b:
                double += 1
            elif a:
                plus += 1
            elif b:
                minus += 1
        rows.append([n_total, herald, plus, minus, double])
    return rows


class TestTally:
    @pytest.mark.parametrize("k", [1, 9])
    @pytest.mark.parametrize("n", [0, 1, 777])
    def test_matches_reference_loop(self, k, n):
        g = np.random.default_rng(100 * k + n)
        d1 = g.random(n) < 0.6
        d2, d3 = g.random((2, k, n)) < 0.5
        n_total = n + 13  # rows outside the gathered set add to n_total only
        expected = reference_tally(n_total, d1.tolist(), d2.tolist(), d3.tolist())
        counts = _tally(n_total, d1, d2, d3)
        assert counts.dtype == np.int64
        assert counts.shape == (k, len(COUNT_COLUMNS))
        assert counts.tolist() == expected


class TestRunContext:
    def test_zero_threshold_all_double(self):
        n = 1 << 10
        (c,) = run_context([plan(samples=n, gamma=0.0)], OPEN, 0)
        # n_total, n_herald, n_plus, n_minus, n_double
        assert c.tolist() == [n, n, 0, 0, n]


class TestCounterfactual:
    def test_counts_match_run_context_on_shared_streams(self):
        p = plan(samples=1 << 14, mode=MODE_SHARED)
        chunks = counterfactual_chunks([p], 0, range(p.n_chunks()))
        totals = sum(_tally(*d) for (d,) in chunks)
        assert totals.shape == (len(STANDARD_CONTEXT_TABLE), len(COUNT_COLUMNS))
        for b, expected in zip(CONTEXTS, totals):
            assert np.array_equal(run_context([p], b, 0), [expected])

    def test_modes_statistically_compatible(self):
        # z-score between coincidence rates of the two draw modes < 4
        n = 1 << 17
        (c_ind,) = run_context([plan(samples=n, mode=MODE_INDEPENDENT, seed=5)], OPEN, 0)
        (c_sh,) = run_context([plan(samples=n, mode=MODE_SHARED, seed=5)], OPEN, 0)
        for col in (N_HERALD, N_PLUS, N_MINUS):
            x, y = int(c_ind[col]), int(c_sh[col])
            p_hat = (x + y) / (2 * n)
            se = np.sqrt(2 * p_hat * (1 - p_hat) * n)
            assert abs(x - y) < 4 * se


def random_plan(i):
    """Draw i of the kernel's differential test: random optics, r, gamma,
    mode and seed, with sizes that are not multiples of the kernel's row
    blocks, and one that spans a partial chunk."""
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
# gamma = 0 (every row heralded) and 1e6 (none), sizes whose final row
# block is a lone row (4097) or a 65-row partial chunk (CHUNK + 65), and
# three of random_grid's grids, where a source's lowest gamma gathers rows
# its other points do not herald.
SHARED_PASS_CASES = {
    **{str(i): [random_plan(i)] for i in range(20)},
    "gamma-0": [replace(random_plan(20), gamma=0.0)],
    "gamma-1e6": [replace(random_plan(23), gamma=1e6, samples=CHUNK + 5)],
    "samples-4097": [replace(random_plan(21), samples=4097)],
    "samples-chunk+65": [replace(random_plan(22), samples=CHUNK + 65)],
    **{f"grid-{i}": random_grid(i) for i in (2, 3, 4)},
}


class TestKernelMatchesReference:
    """The kernel behind run_context and counterfactual_chunks decides every
    detector exactly; evaluate_context is the float reference.  The two can
    differ only on a decision whose float power lies within the detector's
    band of gamma**2, and no draw here has one."""

    @pytest.mark.parametrize("case", list(SHARED_PASS_CASES))
    def test_counterfactual_detections(self, case):
        # Per grid point the shared pass returns some of a chunk's rows, in
        # stream order, one d2 and d3 row per context: every row
        # evaluate_context heralds, with equal d2 and d3, and others only
        # with d1 false (so the herald counts agree).  The reference's d1 is
        # the same in every context.
        plans = SHARED_PASS_CASES[case]
        p = plans[0]
        for c, dets in enumerate(counterfactual_chunks(plans, 0, range(p.n_chunks()))):
            h = sample_hidden(p.chunk_rng(SHARED_STREAM_KEY, 0, c), p.chunk_size(c))
            for q, (n, d1, d2, d3) in zip(plans, dets):
                assert n == len(h) >= len(d1)
                assert d2.shape == d3.shape == (len(CONTEXTS), len(d1))
                refs = [evaluate_context(h, q.source, b, q.optics, q.gamma) for b in CONTEXTS]
                e1 = refs[0][0]
                assert np.count_nonzero(d1) == np.count_nonzero(e1)
                for j, (f1, e2, e3) in enumerate(refs):
                    assert np.array_equal(f1, e1)
                    assert np.array_equal(d2[j, d1], e2[e1])
                    assert np.array_equal(d3[j, d1], e3[e1])

    @pytest.mark.parametrize("i", range(20))
    def test_run_context_counts(self, i):
        p = random_plan(i)
        b = CONTEXTS[i % 9]
        key = SHARED_STREAM_KEY if p.mode == MODE_SHARED else stream_key(b)
        expected = np.zeros(len(COUNT_COLUMNS), dtype=np.int64)
        for c in range(p.n_chunks()):
            h = sample_hidden(p.chunk_rng(key, 0, c), p.chunk_size(c))
            e1, e2, e3 = evaluate_context(h, p.source, b, p.optics, p.gamma)
            (counts,) = _tally(len(h), e1, e2[None], e3[None])
            expected += counts
        assert np.array_equal(run_context([p], b, 0), [expected])

    @pytest.mark.parametrize("i", range(12))
    def test_grid_counts_match_one_point_calls(self, i):
        # the tasks a sweep runs: the shared pass, all nine contexts on the
        # shared stream, and run_context, one context per stream in
        # independent-draws mode
        plans = random_grid(i)
        p = plans[0]
        b = CONTEXTS[i % 9]
        for rep in range(p.reps):
            for c in range(p.n_chunks()):
                fused = _shared_chunk_task(plans, rep, c)
                assert len(fused) == len(plans)
                for acc, q in zip(fused, plans):
                    assert np.array_equal(acc.counts, _shared_chunk_task([q], rep, c)[0].counts)
            assert np.array_equal(
                run_context(plans, b, rep),
                np.concatenate([run_context([q], b, rep) for q in plans]),
            )


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
        peak = self.traced_peak(lambda: run_context([p], OPEN, 0))
        assert peak < self.CHUNK_OF_NORMALS

    def test_counterfactual_chunks_holds_no_chunk_of_normals(self):
        p = plan(samples=2 * CHUNK, mode=MODE_SHARED)
        chunks = range(p.n_chunks())
        peak = self.traced_peak(lambda: [None for _ in counterfactual_chunks([p], 0, chunks)])
        assert peak < self.CHUNK_OF_NORMALS

    # The bound _detections states: one row block of draws and one chunk of
    # detection records per grid point, plus the kernel's temporaries, which
    # take less than another row block unless most rows are heralded.
    # Holding a second row block or a second chunk of records breaks it.
    ROW_BLOCK_OF_DRAWS = ROW_BLOCK * NORMALS_PER_REALIZATION * 8

    def bound(self, points, contexts, temporaries=ROW_BLOCK_OF_DRAWS):
        return points * (1 + 2 * contexts) * CHUNK + self.ROW_BLOCK_OF_DRAWS + temporaries

    def test_run_context_holds_one_chunk_of_records_per_point(self):
        grid = [plan(samples=3 * CHUNK, r=r, gamma=gamma)
                for gamma in (1.5, 2.0) for r in (0.3, 0.6, 0.9)]
        peak = self.traced_peak(lambda: run_context(grid, OPEN, 0))
        assert peak < self.bound(len(grid), 1)

    def shared_peak(self, grid):
        def drain():
            # a consumer that drops each chunk's records before the next
            for dets in counterfactual_chunks(grid, 0, range(grid[0].n_chunks())):
                del dets

        return self.traced_peak(drain)

    def test_shared_pass_holds_one_chunk_of_records(self):
        # At the headline point about 1% of rows are heralded, so the
        # kernel decides few rows on the shared pass.
        peak = self.shared_peak([plan(samples=3 * CHUNK, mode=MODE_SHARED)])
        assert peak < self.bound(1, len(CONTEXTS))

    def test_shared_pass_temporaries_at_a_high_herald_rate(self):
        # At r 0.9, gamma 1.5 about 57% of rows pass the herald prefilter.
        # Each row the shared pass decides holds its 28-real copy, its
        # 4 + 8k reals of amplitude and two 1 + 2k arrays of power (at most
        # two gammas per r), so a block's temporaries reach 2048 x 1,136 B,
        # five row blocks of draws, when every row passes.
        k = len(CONTEXTS)
        grid = [plan(samples=3 * CHUNK, mode=MODE_SHARED, r=r, gamma=gamma)
                for gamma in (1.5, 2.0) for r in (0.3, 0.6, 0.9)]
        temporaries = ROW_BLOCK * (NORMALS_PER_REALIZATION + 4 + 8 * k + 2 * (1 + 2 * k)) * 8
        assert self.shared_peak(grid) < self.bound(len(grid), k, temporaries)

    def test_shared_pass_buffers_stay_below_the_huge_page_threshold(self):
        # numpy asks for transparent huge pages for every array of 4 MiB or
        # more, so the shared pass, which fills only the heralded prefix of
        # its buffers, keeps each under that: one grid-wide buffer for the
        # default 22-point sweep would hold 22 x 19 x 2^16 B = 26 MiB.
        plans = [plan(samples=CHUNK, mode=MODE_SHARED, r=0.1 * i, gamma=gamma)
                 for gamma in (1.5, 2.0) for i in range(11)]
        (dets,) = counterfactual_chunks(plans, 0, range(1))
        assert len(dets) == 22
        for _, d1, _, _ in dets:
            assert d1.base.nbytes < 4 << 20


class TestRowBlockInvariance:
    """A chunk's generator is read one ROW_BLOCK at a time, and the counts
    and detections are those of one whole-chunk draw, whatever the block."""

    GRID = [plan(samples=CHUNK + 37, r=r, gamma=gamma) for r, gamma in ((0.3, 2.0), (0.9, 1.5))]

    def outputs(self):
        """run_context's counts on GRID, and the per-chunk records of the
        shared pass, which decides only the rows its prefilter keeps."""
        counts = run_context(self.GRID, OPEN, 0)
        shared = [replace(p, mode=MODE_SHARED) for p in self.GRID]
        records = [
            [(n, d1.tolist(), d2.tolist(), d3.tolist()) for n, d1, d2, d3 in dets]
            for dets in counterfactual_chunks(shared, 0, range(shared[0].n_chunks()))
        ]
        return counts.tolist(), records

    # 1000 does not divide CHUNK; CHUNK reads each chunk as one block.
    @pytest.mark.parametrize("block", [1000, CHUNK])
    def test_outputs_match_default_block(self, block, monkeypatch):
        assert ROW_BLOCK not in (1000, CHUNK)
        expected = self.outputs()
        monkeypatch.setattr(harness, "ROW_BLOCK", block)
        assert self.outputs() == expected


class TestLargestSqueezing:
    def test_every_detector_fires_without_overflow(self):
        # at R_MAX every power is finite and far above gamma^2; an overflow
        # would raise here, where RuntimeWarnings are errors
        p = plan(samples=4099, r=R_MAX, mode=MODE_SHARED)
        assert np.isfinite(compile_network(p.source, p.optics, CONTEXTS)).all()
        for ((n, d1, d2, d3),) in counterfactual_chunks([p], 0, range(p.n_chunks())):
            assert len(d1) == n and d1.all() and d2.all() and d3.all()


def exact_power(x, block):
    """|x block|^2 of a float row and a detector's 28 x 4 block, in Fraction
    arithmetic."""
    return sum(sum(Fraction(a) * Fraction(b) for a, b in zip(x, col)) ** 2
               for col in np.asarray(block).T.tolist())


class TestExactDecisions:
    """A click is power > gamma**2 decided on the exact power of the float
    draw and matrix: a float power within the detector's band of the
    threshold is decided again in rational arithmetic."""

    def test_amplitude_rounded_onto_the_threshold_clicks(self):
        # 1 + 2^-53 rounds to 1, so the float power is 1.0 and would not
        # click at 1.0; the exact power (1 + 2^-53)^2 is above it
        x = np.zeros((1, NORMALS_PER_REALIZATION))
        x[0, :2] = 1.0, 2.0**-53
        m = np.zeros((NORMALS_PER_REALIZATION, 4))
        m[:2, 0] = 1.0
        assert _powers(x, m).tolist() == [[1.0]]
        assert exact_power(x[0], m) > 1
        assert _clicks(x, m, _band(m), np.array([1.0])).tolist() == [[[True]]]

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    def test_thresholds_on_and_beside_the_float_power(self, r):
        # each row at thresholds equal to one detector's float power and to
        # its neighbouring floats: every detector decided as Fraction does
        optics = OpticalParams(t1=0.3, theta1=0.7, theta2=-1.1)
        m = compile_network(SourceParams(r=r), optics, CONTEXTS)
        x = sample_hidden(np.random.Generator(np.random.Philox(5)), 4)
        power = _powers(x, m)
        for i, d in enumerate((0, 3, 10, 18)):
            p = power[i, d]
            thresholds = np.array([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])
            clicks = _clicks(x[i : i + 1], m, _band(m), thresholds)[..., 0]
            exact = [exact_power(x[i], m[:, 4 * e : 4 * e + 4]) for e in range(len(power[i]))]
            assert clicks.tolist() == [[e > t for e in exact] for t in thresholds]

    def test_herald_rounded_onto_gamma_squared_counts_on_both_paths(self, monkeypatch):
        # at r = 0 the unit row e0 gives D1 the amplitude SIGMA, whose float
        # square is gamma**2 for gamma = SIGMA; the exact SIGMA^2 lies above
        x = np.eye(1, NORMALS_PER_REALIZATION)
        p = plan(samples=1, r=0.0, gamma=SIGMA)
        assert compile_network(p.source, p.optics, CONTEXTS)[0, 0] == SIGMA
        assert Fraction(SIGMA) ** 2 > SIGMA * SIGMA
        # the float reference misses this click: a power inside D1's band is
        # the one place it may differ from the kernel
        assert not evaluate_context(x, p.source, OPEN, p.optics, p.gamma)[0][0]
        monkeypatch.setattr(harness, "sample_hidden", lambda rng, n: x.copy())
        assert run_context([p], OPEN, 0).tolist() == [[1, 1, 0, 0, 0]]
        ((n, d1, d2, d3),) = next(counterfactual_chunks([replace(p, mode=MODE_SHARED)], 0, range(1)))
        assert (n, d1.tolist()) == (1, [True])

    BAND_CASES = {
        "default": (0.3, OpticalParams()),
        "t-0-1-0": (0.6, OpticalParams(t1=0.0, t2=1.0, t3=0.0, theta1=2.0)),
        "t-1-0-1": (0.0, OpticalParams(t1=1.0, t2=0.0, t3=1.0, theta2=4.0)),
        "random": (1.1, OpticalParams(t1=0.21, t2=0.64, t3=0.93, theta1=5.1, theta2=0.4)),
        "r-30": (30.0, OpticalParams(t1=0.7, theta1=1.3)),
        "r-max": (R_MAX, OpticalParams(t2=0.4, theta2=3.0)),
    }

    @pytest.mark.parametrize("case", list(BAND_CASES))
    def test_band_bounds_the_rounding(self, case):
        # |float - exact| power <= band for the whole-block product, the
        # 4-column herald product and a one-row product, on drawn rows and on
        # rows whose 28 reals all sit near the ziggurat's |u| < 14
        r, optics = self.BAND_CASES[case]
        m = compile_network(SourceParams(r=r), optics, CONTEXTS)
        band = _band(m)
        assert np.isfinite(band).all()
        g = np.random.default_rng(7)
        signs = [np.sign(m[:, j]) + (m[:, j] == 0) for j in (0, 5, 30, m.shape[1] - 1)]
        signs.append(g.choice([-1.0, 1.0], NORMALS_PER_REALIZATION))
        x = np.concatenate([sample_hidden(np.random.Generator(np.random.Philox(9)), 6),
                            13.99 * SIGMA * np.array(signs)])
        for cols in (m, m[:, :4]):
            whole = _powers(x, cols)
            for i, row in enumerate(x):
                one = _powers(x[i : i + 1], cols)[0]
                for d in range(cols.shape[1] // 4):
                    exact = exact_power(row, m[:, 4 * d : 4 * d + 4])
                    assert abs(Fraction(whole[i, d]) - exact) <= band[d]
                    assert abs(Fraction(one[d]) - exact) <= band[d]


def test_numpy_normal_stream_canary():
    # NEP 19 keeps only BitGenerator streams stable across numpy releases;
    # the golden counts also rest on Generator.standard_normal's ziggurat.
    rng = ExperimentPlan(source=SourceParams(r=0.3), seed=0).chunk_rng(SHARED_STREAM_KEY, 0, 0)
    digest = hashlib.sha256(sample_hidden(rng, ROW_BLOCK).tobytes()).hexdigest()
    assert digest == "06e8b5a6f58958bb414727db787009ba7f3cb6612fd7ef585f883089fd332d13", (
        f"numpy {np.__version__} draws other normals from the same Philox stream: "
        "the golden counts then differ because Generator.standard_normal changed, "
        "not because lgwave did"
    )


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
class TestBlasThreads:
    """Importing lgwave pins OpenBLAS to the calling thread, unless the user
    chose a thread count: every product already runs on the calling thread."""

    PROBE = ("import os, lgwave.cli; "
             "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")

    def probe(self, **env):
        """(threads after `import lgwave.cli`, its OPENBLAS_NUM_THREADS) in a
        fresh interpreter with `env` and no inherited OPENBLAS_NUM_THREADS."""
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(__file__).resolve().parent.parent / "src")
        base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, base.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", self.PROBE], env={**base, **env},
                              capture_output=True, text=True, check=True)
        threads, setting = proc.stdout.split()
        return int(threads), setting

    def test_one_thread_after_import(self):
        assert self.probe() == (1, "1")

    def test_user_setting_kept(self):
        assert self.probe(OPENBLAS_NUM_THREADS="2")[1] == "2"


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
