from itertools import product

import numpy as np
import pytest

from lgwave.harness import MODE_SHARED, OPEN, ContextCounts, ExperimentPlan, counterfactual_chunks
from lgwave.optics import SourceParams
from lgwave.stats import (
    MINUS,
    PLUS,
    EfficiencyAccumulator,
    NoHeralds,
    Pmf2,
    Pmf3,
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

KEYS2 = list(product((PLUS, MINUS), repeat=2))
KEYS3 = list(product((PLUS, MINUS), repeat=3))


def uniform2():
    return Pmf2({k: 0.25 for k in KEYS2})


def uniform3():
    return Pmf3({k: 0.125 for k in KEYS3})


def counts(n_plus=0, n_minus=0, n_herald=None, n_double=0, n_total=1000):
    if n_herald is None:
        n_herald = n_plus + n_minus + n_double
    return ContextCounts(
        n_herald=n_herald, n_plus=n_plus, n_minus=n_minus,
        n_double=n_double, n_total=n_total,
    )


def random_pmf3(rng):
    p = rng.dirichlet(np.ones(8))
    return Pmf3(dict(zip(KEYS3, p)))


class TestPmfConstruction:
    def test_pmf2_uniform(self):
        p = pmf2_from_counts(counts(1, 1), counts(1, 1))
        assert all(abs(p[k] - 0.25) < 1e-15 for k in KEYS2)

    def test_pmf2_asymmetric(self):
        p = pmf2_from_counts(counts(3, 1), counts(0, 0, n_herald=5))
        assert p[(PLUS, PLUS)] == 0.75
        assert p[(PLUS, MINUS)] == 0.25
        assert p[(MINUS, PLUS)] == 0.0
        assert p[(MINUS, MINUS)] == 0.0

    def test_pmf2_zero_coincidences(self):
        with pytest.raises(ZeroCoincidences):
            pmf2_from_counts(counts(), counts())

    def test_pmf3_uniform(self):
        c = {key: counts(2, 2) for key in KEYS2}
        p = pmf3_from_counts(c)
        assert all(abs(p[k] - 0.125) < 1e-15 for k in KEYS3)

    def test_pmf3_point_mass(self):
        c = {key: counts() for key in KEYS2}
        c[(PLUS, MINUS)] = counts(n_minus=7)
        p = pmf3_from_counts(c)
        assert p[(PLUS, MINUS, MINUS)] == 1.0

    def test_pmf3_zero_coincidences(self):
        with pytest.raises(ZeroCoincidences):
            pmf3_from_counts({key: counts() for key in KEYS2})

    def test_normalization_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vals = rng.integers(0, 50, size=4)
            if vals.sum() == 0:
                continue
            p = pmf2_from_counts(counts(*vals[:2]), counts(*vals[2:]))
            assert abs(sum(p.values()) - 1.0) < 1e-12


class TestMarginals:
    def test_uniform(self):
        for marg in (marginal_12, marginal_13, marginal_23):
            p = marg(uniform3())
            assert all(abs(p[k] - 0.25) < 1e-15 for k in KEYS2)

    def test_point_mass(self):
        p3 = Pmf3({k: 1.0 if k == (PLUS, MINUS, MINUS) else 0.0 for k in KEYS3})
        assert marginal_12(p3)[(PLUS, MINUS)] == 1.0
        assert marginal_13(p3)[(PLUS, MINUS)] == 1.0
        assert marginal_23(p3)[(MINUS, MINUS)] == 1.0

    def test_marginals_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p3 = random_pmf3(rng)
            for marg in (marginal_12, marginal_13, marginal_23):
                assert abs(sum(marg(p3).values()) - 1.0) < 1e-12


class TestCorrelationAndStatistics:
    def test_uniform_correlation(self):
        assert correlation(uniform2()) == 0.0

    def test_diagonal_correlation(self):
        p = Pmf2({(PLUS, PLUS): 0.5, (MINUS, MINUS): 0.5,
                  (PLUS, MINUS): 0.0, (MINUS, PLUS): 0.0})
        assert correlation(p) == 1.0

    def test_correlation_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = Pmf2(dict(zip(KEYS2, rng.dirichlet(np.ones(4)))))
            assert -1.0 <= correlation(p) <= 1.0

    def test_k_uniform(self):
        assert k_statistic(uniform2(), uniform2(), uniform2()) == 0.0

    def test_w_uniform(self):
        assert w_statistic(uniform2(), uniform2(), uniform2()) == -0.25


class TestMarginalLg:
    def test_identity_bounds_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            p3 = random_pmf3(rng)
            k_marg, w_marg = marginal_lg(p3)
            assert k_marg <= 1.0 + 1e-12
            assert w_marg <= 1e-12

    def test_boundary_point_mass(self):
        p3 = Pmf3({k: 1.0 if k == (PLUS, PLUS, PLUS) else 0.0 for k in KEYS3})
        k_marg, w_marg = marginal_lg(p3)
        assert abs(k_marg - 1.0) < 1e-12
        assert abs(w_marg) < 1e-12


def shared_plan(samples=1 << 15, gamma=2.0, seed=9):
    return ExperimentPlan(
        source=SourceParams(r=0.3), gamma=gamma, samples=samples, reps=1,
        mode=MODE_SHARED, seed=seed,
    )


def shared_accumulator(plan):
    acc = EfficiencyAccumulator()
    for d in counterfactual_chunks(plan, 0):
        acc.update(*d)
    return acc


def shared_report(plan):
    return shared_accumulator(plan).report()


class TestEfficiencies:
    def test_zero_threshold_all_double(self):
        # with gamma=0 every detector fires, so E+/E- are empty and eta = 0
        report = shared_report(shared_plan(samples=1 << 10, gamma=0.0))
        assert report["eta_t3"] == 0.0
        assert report["delta"]["1111"] == 1.0

    def test_no_heralds(self):
        with pytest.raises(NoHeralds):
            shared_report(shared_plan(samples=1 << 8, gamma=1e6))

    def test_direct_at_most_bound(self):
        acc = shared_accumulator(shared_plan())
        report = acc.report()
        nh = acc.counts[OPEN].n_herald
        for eta, bound in [
            (report["eta_t1t3"], report["bound_t1t3"]),
            (report["eta_t2t3"], report["bound_t2t3"]),
            (report["eta_t1t2t3"], report["bound_t1t2t3"]),
        ]:
            se = np.sqrt(bound * (1 - bound) / nh)
            assert eta <= bound + 4 * se

    def test_etas_in_unit_interval(self):
        report = shared_report(shared_plan())
        for eta in (report["eta_t3"], report["eta_t1t3"], report["eta_t2t3"], report["eta_t1t2t3"]):
            assert 0.0 <= eta <= 1.0
