"""Counts -> PMFs, correlations, K and W statistics, efficiencies.

Outcomes are labeled +1 / -1.  PMF cells are exact ratios of integer counts,
so normalization holds to machine precision.  The marginal-form statistics
(K_marginal, W_marginal) are mathematical identities bounded by 1 and 0
respectively for *any* joint PMF; the directly measured K and W carry no
such bound, which is the whole point of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .harness import (
    OPEN,
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
    _tally,
)

PLUS, MINUS = +1, -1
OUTCOMES = (PLUS, MINUS)


class ZeroCoincidences(ValueError):
    """All coincidence counts are zero (threshold too high or too few samples)."""


class NoHeralds(ValueError):
    """No herald detections; efficiencies are undefined."""


# PMF over (q_i, q_j) in {+,-}^2.
Pmf2 = dict[tuple[int, int], float]
# PMF over (q1, q2, q3) in {+,-}^3.
Pmf3 = dict[tuple[int, int, int], float]


def pmf2_from_counts(counts_plus_ctx: ContextCounts, counts_minus_ctx: ContextCounts) -> Pmf2:
    """Four-cell PMF from the two contexts measuring q_i = + and q_i = -.

    Cell (q, +) takes the n_plus of context q, cell (q, -) its n_minus;
    normalization is over the grand total of the four exclusive counts.
    """
    cells = {
        (PLUS, PLUS): counts_plus_ctx.n_plus,
        (PLUS, MINUS): counts_plus_ctx.n_minus,
        (MINUS, PLUS): counts_minus_ctx.n_plus,
        (MINUS, MINUS): counts_minus_ctx.n_minus,
    }
    total = sum(cells.values())
    if total == 0:
        raise ZeroCoincidences("all four coincidence counts are zero")
    return {k: v / total for k, v in cells.items()}


def pmf3_from_counts(counts: dict[tuple[int, int], ContextCounts]) -> Pmf3:
    """Eight-cell PMF from the four two-blocker contexts keyed by (q1, q2)."""
    cells: dict[tuple[int, int, int], int] = {}
    for (q1, q2), c in counts.items():
        cells[(q1, q2, PLUS)] = c.n_plus
        cells[(q1, q2, MINUS)] = c.n_minus
    total = sum(cells.values())
    if total == 0:
        raise ZeroCoincidences("all eight coincidence counts are zero")
    return {k: v / total for k, v in cells.items()}


def _marginal(p: Pmf3, axis: int) -> Pmf2:
    """Two-time PMF left by summing out the outcome at position `axis`."""
    return {
        kept: sum(p[kept[:axis] + (q,) + kept[axis:]] for q in OUTCOMES)
        for kept in product(OUTCOMES, OUTCOMES)
    }


def marginal_12(p: Pmf3) -> Pmf2:
    return _marginal(p, 2)


def marginal_13(p: Pmf3) -> Pmf2:
    return _marginal(p, 1)


def marginal_23(p: Pmf3) -> Pmf2:
    return _marginal(p, 0)


def correlation(p: Pmf2) -> float:
    """C = P(+,+) + P(-,-) - P(+,-) - P(-,+), in [-1, 1]."""
    return sum(qi * qj * pij for (qi, qj), pij in p.items())


def k_statistic(p12: Pmf2, p23: Pmf2, p13: Pmf2) -> float:
    """K = C_{t1,t2} + C_{t2,t3} - C_{t1,t3}."""
    return correlation(p12) + correlation(p23) - correlation(p13)


def w_statistic(p13: Pmf2, p23: Pmf2, p12: Pmf2) -> float:
    """W = P_{t1,t3}(-,+) - P_{t2,t3}(-,+) - P_{t1,t2}(-,+)."""
    return p13[(MINUS, PLUS)] - p23[(MINUS, PLUS)] - p12[(MINUS, PLUS)]


def marginal_lg(p3: Pmf3) -> tuple[float, float]:
    """Marginal-form statistics (K_marginal, W_marginal).

    All three pair PMFs are marginals of the one joint three-time PMF, so
    K_marginal <= 1 and W_marginal <= 0 hold identically.
    """
    m12 = marginal_12(p3)
    m13 = marginal_13(p3)
    m23 = marginal_23(p3)
    return k_statistic(m12, m23, m13), w_statistic(m13, m23, m12)


@dataclass
class EfficiencyAccumulator:
    """Streaming aggregation of shared-draw chunks: the nine context counts
    and the counterfactual Lambda-set unions over them.

    Addition of the integer tallies is associative and commutative, so
    chunks may be processed in any order (and combined across workers).
    """

    counts: list[ContextCounts] = field(
        default_factory=lambda: [ContextCounts() for _ in STANDARD_CONTEXT_TABLE]
    )
    n_lambda: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    n_sym_diff: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))

    def update(self, n_total: int, d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> None:
        """Add one chunk of n_total realizations: d1 of shape (n,), d2 and d3
        of shape (9, n), on a subset of its rows that holds every heralded
        row.  Every count and Lambda set is gated on d1."""
        for tot, part in zip(self.counts, _tally(n_total, d1, d2, d3)):
            tot.add(part)
        valid = d1 & (d2 ^ d3)  # E+(b) | E-(b), one row per context
        lam_t3 = valid[OPEN]
        lam_13 = valid[T1T3_PLUS] | valid[T1T3_MINUS]
        lam_23 = valid[T2T3_PLUS] | valid[T2T3_MINUS]
        lam_123 = valid[T1T2T3_PP] | valid[T1T2T3_PM] | valid[T1T2T3_MP] | valid[T1T2T3_MM]
        self.n_lambda += [np.count_nonzero(x) for x in (lam_t3, lam_13, lam_23, lam_123)]
        self.n_sym_diff += [
            np.count_nonzero(lam_13 ^ lam_23),
            np.count_nonzero(lam_13 ^ lam_123),
            np.count_nonzero(lam_23 ^ lam_123),
        ]

    def merge(self, other: "EfficiencyAccumulator") -> None:
        for tot, part in zip(self.counts, other.counts):
            tot.add(part)
        self.n_lambda += other.n_lambda
        self.n_sym_diff += other.n_sym_diff

    def report(self) -> dict:
        """The efficiencies, their bounds, the double-detection rates keyed by
        context bit string, and the Lambda-set symmetric differences, keyed
        as in a summary.json per-rep entry."""
        nh = self.counts[OPEN].n_herald  # every context sees the same heralds
        if nh == 0:
            raise NoHeralds("no herald detections in the shared-draw record")
        coinc = [c.n_plus + c.n_minus for c in self.counts]
        bound = lambda idx: float(sum(coinc[j] for j in idx)) / nh
        return {
            "eta_t3": self.n_lambda[0] / nh,
            "eta_t1t3": self.n_lambda[1] / nh,
            "eta_t2t3": self.n_lambda[2] / nh,
            "eta_t1t2t3": self.n_lambda[3] / nh,
            "bound_t1t3": bound((T1T3_PLUS, T1T3_MINUS)),
            "bound_t2t3": bound((T2T3_PLUS, T2T3_MINUS)),
            "bound_t1t2t3": bound((T1T2T3_PP, T1T2T3_PM, T1T2T3_MP, T1T2T3_MM)),
            "delta": {
                "".join(map(str, bits)): float(c.n_double) / nh
                for (bits, _, _), c in zip(STANDARD_CONTEXT_TABLE, self.counts)
            },
            "sym_diff": {
                "t1t3_vs_t2t3": int(self.n_sym_diff[0]),
                "t1t3_vs_t1t2t3": int(self.n_sym_diff[1]),
                "t2t3_vs_t1t2t3": int(self.n_sym_diff[2]),
            },
        }


def w_decomposition(counts: list[ContextCounts], eff: dict) -> dict[str, float]:
    """Side-by-side view of the directly measured W and its marginal form.

    Each direct term is exhibited as mu[E|D1] / eta for its context group;
    the marginal terms divide by the common two-blocker efficiency instead.
    No new estimator: the direct W here equals w_statistic on the same counts.
    `counts` are the shared-draw counts behind `eff`, a report() dict.
    """
    for name in ("eta_t1t3", "eta_t2t3", "eta_t1t2t3"):
        if eff[name] == 0:
            raise ZeroCoincidences(f"{name} is zero: its Lambda set is empty")
    nh = counts[OPEN].n_herald
    p13_mp = (counts[T1T3_MINUS].n_plus / nh) / eff["eta_t1t3"]
    p23_mp = (counts[T2T3_MINUS].n_plus / nh) / eff["eta_t2t3"]
    p12_mp = (
        (counts[T1T2T3_MP].n_plus + counts[T1T2T3_MP].n_minus) / nh
    ) / eff["eta_t1t2t3"]
    p13_mp_marg = (
        (counts[T1T2T3_MP].n_plus + counts[T1T2T3_MM].n_plus) / nh
    ) / eff["eta_t1t2t3"]
    p23_mp_marg = (
        (counts[T1T2T3_PM].n_plus + counts[T1T2T3_MM].n_plus) / nh
    ) / eff["eta_t1t2t3"]
    return {
        "p13_mp_direct": p13_mp,
        "p23_mp_direct": p23_mp,
        "p12_mp": p12_mp,
        "w_direct": p13_mp - p23_mp - p12_mp,
        "p13_mp_marginal": p13_mp_marg,
        "p23_mp_marginal": p23_mp_marg,
        "w_marginal": p13_mp_marg - p23_mp_marg - p12_mp,
    }
