import numpy as np
import pytest

from lgwave.harness import (
    GROUPS,
    STANDARD_CONTEXT_TABLE,
    ExperimentPlan,
    counterfactual_chunks,
)
from lgwave.optics import SourceParams
from lgwave.stats import (
    MINUS,
    PLUS,
    EfficiencyAccumulator,
    ZeroCoincidences,
    correlation,
    k_statistic,
    marginal_12,
    marginal_13,
    marginal_23,
    marginal_lg,
    pmf2_from_counts,
    pmf3_from_counts,
    w_statistic,
)

# A PMF has one axis per time; along each, index 0 is +1 and index 1 is -1.
# Index cells by position: p[PLUS, MINUS] would read p[1, -1], the (-,-) cell.


def uniform2():
    return np.full((2, 2), 0.25)


def uniform3():
    return np.full((2, 2, 2), 0.125)


def counts(n_plus=0, n_minus=0, n_herald=None, n_double=0, n_total=1000):
    if n_herald is None:
        n_herald = n_plus + n_minus + n_double
    # one context's count row, in COUNT_COLUMNS order
    return np.array([n_total, n_herald, n_plus, n_minus, n_double], dtype=np.int64)


def random_pmf3(rng):
    return rng.dirichlet(np.ones(8)).reshape(2, 2, 2)


class TestPmfConstruction:
    def test_pmf2_uniform(self):
        p = pmf2_from_counts(counts(1, 1), counts(1, 1))
        assert all(abs(p[k] - 0.25) < 1e-15 for k in np.ndindex(2, 2))

    def test_layout_index_0_is_plus(self):
        # Row 0 is the q_i = + context, column 0 its n_plus: cells by position.
        p = pmf2_from_counts(counts(3, 1), counts(0, 0, n_herald=5))
        assert p.shape == (2, 2) and p.dtype == np.float64
        assert p.tolist() == [[0.75, 0.25], [0.0, 0.0]]
        # pmf3_from_counts reads the two-blocker rows as (q1, q2) in this order
        labels = [(q1, q2) for _, q1, q2 in STANDARD_CONTEXT_TABLE[GROUPS["t1t2t3"]]]
        assert labels == [(PLUS, PLUS), (PLUS, MINUS), (MINUS, PLUS), (MINUS, MINUS)]

    def test_pmf2_zero_coincidences(self):
        with pytest.raises(ZeroCoincidences):
            pmf2_from_counts(counts(), counts())

    def test_pmf3_uniform(self):
        p = pmf3_from_counts(np.stack([counts(2, 2)] * 4))
        assert all(abs(p[k] - 0.125) < 1e-15 for k in np.ndindex(2, 2, 2))

    def test_pmf3_point_mass(self):
        c = np.stack([counts()] * 4)
        c[1] = counts(n_minus=7)  # the (+,-) context
        p = pmf3_from_counts(c)
        assert p[0, 1, 1] == 1.0

    def test_pmf3_zero_coincidences(self):
        with pytest.raises(ZeroCoincidences):
            pmf3_from_counts(np.stack([counts()] * 4))

    def test_normalization_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vals = rng.integers(0, 50, size=4)
            if vals.sum() == 0:
                continue
            p = pmf2_from_counts(counts(*vals[:2]), counts(*vals[2:]))
            assert abs(p.sum() - 1.0) < 1e-12


class TestMarginals:
    def test_uniform(self):
        for marg in (marginal_12, marginal_13, marginal_23):
            p = marg(uniform3())
            assert all(abs(p[k] - 0.25) < 1e-15 for k in np.ndindex(2, 2))

    def test_point_mass(self):
        p3 = np.zeros((2, 2, 2))
        p3[0, 1, 1] = 1.0  # (+,-,-)
        assert marginal_12(p3)[0, 1] == 1.0
        assert marginal_13(p3)[0, 1] == 1.0
        assert marginal_23(p3)[1, 1] == 1.0

    def test_marginals_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p3 = random_pmf3(rng)
            for marg in (marginal_12, marginal_13, marginal_23):
                assert abs(marg(p3).sum() - 1.0) < 1e-12


class TestCorrelationAndStatistics:
    def test_uniform_correlation(self):
        assert correlation(uniform2()) == 0.0

    def test_diagonal_correlation(self):
        p = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert correlation(p) == 1.0

    def test_correlation_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(4)).reshape(2, 2)
            assert -1.0 <= correlation(p) <= 1.0

    def test_k_uniform(self):
        assert k_statistic(uniform2(), uniform2(), uniform2()) == 0.0

    def test_w_uniform(self):
        assert w_statistic(uniform2(), uniform2(), uniform2()) == -0.25


class TestMarginalLg:
    def test_boundary_point_mass(self):
        p3 = np.zeros((2, 2, 2))
        p3[0, 0, 0] = 1.0  # (+,+,+)
        k_marg, w_marg = marginal_lg(p3)
        assert abs(k_marg - 1.0) < 1e-12
        assert abs(w_marg) < 1e-12


def shared_plan(samples, gamma):
    return ExperimentPlan(source=SourceParams(r=0.3), gamma=gamma, samples=samples, reps=1, seed=9)


def shared_report(plan):
    acc = EfficiencyAccumulator()
    for (d,) in counterfactual_chunks([plan], 0, range(plan.n_chunks())):
        acc.update(*d)
    return acc.report()


class TestEfficiencies:
    def test_zero_threshold_all_double(self):
        # with gamma=0 every detector fires, so E+/E- are empty and eta = 0
        report = shared_report(shared_plan(samples=1 << 10, gamma=0.0))
        assert report["eta_t3"] == 0.0
        assert report["delta"]["1111"] == 1.0

    def test_no_heralds(self):
        with pytest.raises(ZeroCoincidences, match="no herald"):
            shared_report(shared_plan(samples=1 << 8, gamma=1e6))


def reference_lambda_sets(d1, d2, d3):
    """Each experiment type's Lambda set spelled out one realization at a
    time: the rows heralded at D1 with exactly one exit click in some
    context of the type, the type read off the context's (q1, q2) label."""
    types = {(False, False): "t3", (True, False): "t1t3", (False, True): "t2t3",
             (True, True): "t1t2t3"}
    sets = {name: set() for name in types.values()}
    for (_, q1, q2), e2, e3 in zip(STANDARD_CONTEXT_TABLE, d2, d3):
        lam = sets[types[(q1 is not None, q2 is not None)]]
        lam.update(i for i, (h, a, b) in enumerate(zip(d1, e2, e3)) if h and a != b)
    return sets


def random_detections(seed, n):
    g = np.random.default_rng(seed)
    d1 = g.random(n) < 0.7
    d2, d3 = g.random((2, len(STANDARD_CONTEXT_TABLE), n)) < 0.2
    return d1, d2, d3


class TestLambdaSets:
    @pytest.mark.parametrize("n", [0, 1, 2, 31, 500])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_matches_reference_sets(self, n, seed):
        d1, d2, d3 = random_detections(1000 * seed + n, n)
        acc = EfficiencyAccumulator()
        acc.update(n + 5, d1, d2, d3)
        lam = reference_lambda_sets(d1.tolist(), d2.tolist(), d3.tolist())
        assert acc.n_lambda.tolist() == [len(lam[t]) for t in ("t3", "t1t3", "t2t3", "t1t2t3")]
        pairs = [("t1t3", "t2t3"), ("t1t3", "t1t2t3"), ("t2t3", "t1t2t3")]
        assert acc.n_sym_diff.tolist() == [len(lam[a] ^ lam[b]) for a, b in pairs]
        nh = int(np.count_nonzero(d1))
        if nh == 0:
            return
        report = acc.report()
        for t, members in lam.items():
            assert report["eta_" + t] == len(members) / nh
            # a Lambda set holds heralded rows, each a coincidence in one of
            # its type's contexts, so it is at most their total (t3 has no bound)
            assert 0 <= report["eta_" + t] <= min(1, report.get("bound_" + t, 1))
        assert report["sym_diff"] == {f"{a}_vs_{b}": len(lam[a] ^ lam[b]) for a, b in pairs}

    @pytest.mark.parametrize("split", [0, 1, 200, 401])
    def test_merge_equals_one_update(self, split):
        d1, d2, d3 = random_detections(7, 401)
        whole = EfficiencyAccumulator()
        whole.update(401, d1, d2, d3)
        merged, part = EfficiencyAccumulator(), EfficiencyAccumulator()
        merged.update(split, d1[:split], d2[:, :split], d3[:, :split])
        part.update(401 - split, d1[split:], d2[:, split:], d3[:, split:])
        merged.merge(part)
        for name in ("counts", "n_lambda", "n_sym_diff"):
            assert getattr(merged, name).tolist() == getattr(whole, name).tolist()
