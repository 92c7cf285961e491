"""Counts -> PMFs, correlations, K and W statistics, efficiencies.

Outcomes are labeled +1 / -1.  A PMF is a float64 array with one axis per
time, (2, 2) for two times and (2, 2, 2) for three; along each axis index 0
is the outcome +1 and index 1 is -1.  PMF cells are exact ratios of
integer counts, so normalization holds to machine precision.  The
marginal-form statistics (K_marginal, W_marginal) are mathematical
identities bounded by 1 and 0 respectively for *any* joint PMF; the
directly measured K and W carry no such bound, which is the whole point
of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .harness import (
    CONTEXT_BITS, COUNT_COLUMNS, GROUPS, N_DOUBLE, N_HERALD, N_MINUS, N_PLUS, _tally,
)

PLUS, MINUS = +1, -1

# The experiment types that interrogate t1 or t2 (every type but t3), whose
# PMFs K and W compare.
INTERROGATING = tuple(GROUPS)[1:]


class ZeroCoincidences(ValueError):
    """All coincidence counts are zero (threshold too high or too few
    samples); with no herald there is no coincidence either."""


def _normalized(cells: np.ndarray, what: str) -> np.ndarray:
    """Each integer cell over the cells' exact total, as float64."""
    total = int(cells.sum())
    if total == 0:
        raise ZeroCoincidences(f"all {what} coincidence counts are zero")
    return cells / total


def pmf2_from_counts(counts_plus_ctx: np.ndarray, counts_minus_ctx: np.ndarray) -> np.ndarray:
    """(2, 2) PMF over (q_i, q_j) from the count rows of the two contexts
    measuring q_i = + and q_i = -.

    Row 0 takes the (n_plus, n_minus) of the q_i = + context, row 1 those
    of the q_i = - context; normalization is over the four cells' total.
    """
    return _normalized(np.stack([counts_plus_ctx[[N_PLUS, N_MINUS]],
                                 counts_minus_ctx[[N_PLUS, N_MINUS]]]), "four")


def pmf3_from_counts(counts: np.ndarray) -> np.ndarray:
    """(2, 2, 2) PMF over (q1, q2, q3) from the (4, 5) count rows of the
    two-blocker contexts labeled (+,+), (+,-), (-,+), (-,-), in that order."""
    return _normalized(counts[:, [N_PLUS, N_MINUS]].reshape(2, 2, 2), "eight")


def marginal_12(p: np.ndarray) -> np.ndarray:
    return p[:, :, 0] + p[:, :, 1]


def marginal_13(p: np.ndarray) -> np.ndarray:
    return p[:, 0, :] + p[:, 1, :]


def marginal_23(p: np.ndarray) -> np.ndarray:
    return p[0] + p[1]


def correlation(p: np.ndarray) -> float:
    """C = P(+,+) - P(+,-) - P(-,+) + P(-,-), in [-1, 1]."""
    return float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])


def k_statistic(p12: np.ndarray, p23: np.ndarray, p13: np.ndarray) -> float:
    """K = C_{t1,t2} + C_{t2,t3} - C_{t1,t3}."""
    return correlation(p12) + correlation(p23) - correlation(p13)


def w_statistic(p13: np.ndarray, p23: np.ndarray, p12: np.ndarray) -> float:
    """W = P_{t1,t3}(-,+) - P_{t2,t3}(-,+) - P_{t1,t2}(-,+)."""
    return float(p13[1, 0] - p23[1, 0] - p12[1, 0])


def lg_stats(p13: np.ndarray, p23: np.ndarray, p3: np.ndarray) -> dict[str, float]:
    """K, W and the pair correlations of the PMFs (P_{t1,t3}, P_{t2,t3},
    P_{t1,t2,t3}), with P_{t1,t2} the marginal of P_{t1,t2,t3}."""
    p12 = marginal_12(p3)
    return {
        "K": k_statistic(p12, p23, p13),
        "W": w_statistic(p13, p23, p12),
        "C12": correlation(p12),
        "C23": correlation(p23),
        "C13": correlation(p13),
    }


def marginal_lg(p3: np.ndarray) -> tuple[float, float]:
    """Marginal-form statistics (K_marginal, W_marginal).

    All three pair PMFs are marginals of the one joint three-time PMF, so
    K_marginal <= 1 and W_marginal <= 0 hold identically.
    """
    s = lg_stats(marginal_13(p3), marginal_23(p3), p3)
    return s["K"], s["W"]


@dataclass
class EfficiencyAccumulator:
    """Streaming aggregation of shared-draw chunks: the nine contexts'
    (9, 5) counts, the size of each experiment type's counterfactual Lambda
    set (the union over its contexts), and the symmetric differences of the
    interrogating types' Lambda sets, pair by pair.

    Addition of the integer tallies is associative and commutative, so
    chunks may be processed in any order (and combined across workers).
    """

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((len(CONTEXT_BITS), len(COUNT_COLUMNS)), dtype=np.int64)
    )
    n_lambda: np.ndarray = field(default_factory=lambda: np.zeros(len(GROUPS), dtype=np.int64))
    n_sym_diff: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))

    def update(self, n_total: int, d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> None:
        """Add one chunk of n_total realizations: d1 of shape (n,), d2 and d3
        of shape (9, n), on a subset of its rows that holds every heralded
        row.  Every count and Lambda set is gated on d1."""
        self.counts += _tally(n_total, d1, d2, d3)
        valid = d1 & (d2 ^ d3)  # E+(b) | E-(b), one row per context
        lam = [valid[g].any(axis=0) for g in GROUPS.values()]
        self.n_lambda += [np.count_nonzero(x) for x in lam]
        self.n_sym_diff += [np.count_nonzero(a ^ b) for a, b in combinations(lam[1:], 2)]

    def merge(self, other: "EfficiencyAccumulator") -> None:
        self.counts += other.counts
        self.n_lambda += other.n_lambda
        self.n_sym_diff += other.n_sym_diff

    def report(self) -> dict:
        """The efficiencies, their bounds, the double-detection rates keyed by
        context bit string, and the Lambda-set symmetric differences, keyed
        as in a summary.json per-rep entry."""
        nh = int(self.counts[0, N_HERALD])  # every context sees the same heralds
        if nh == 0:
            raise ZeroCoincidences("no herald detections in the shared-draw record")
        coinc = (self.counts[:, N_PLUS] + self.counts[:, N_MINUS]).tolist()
        return {
            **{"eta_" + t: n / nh for t, n in zip(GROUPS, self.n_lambda)},
            **{"bound_" + t: float(sum(coinc[GROUPS[t]])) / nh for t in INTERROGATING},
            "delta": dict(zip(CONTEXT_BITS, (self.counts[:, N_DOUBLE] / nh).tolist())),
            "sym_diff": {
                f"{a}_vs_{b}": int(n)
                for (a, b), n in zip(combinations(INTERROGATING, 2), self.n_sym_diff)
            },
        }


def w_decomposition(counts: np.ndarray, eff: dict) -> dict[str, float]:
    """Side-by-side view of the directly measured W and its marginal form.

    Each direct term is exhibited as mu[E|D1] / eta for its context group;
    the marginal terms divide by the common two-blocker efficiency instead.
    `counts` are the (9, 5) shared-draw counts behind `eff`, a report() dict.
    eta_t is the size of type t's Lambda set, a union, not its coincidence
    total bound_t, so w_direct is not the W of these counts: with each eta_t
    replaced by bound_t, w_direct equals their W and w_marginal their
    W_marginal, up to rounding.
    """
    for t in INTERROGATING:
        if eff["eta_" + t] == 0:
            raise ZeroCoincidences(f"eta_{t} is zero: its Lambda set is empty")
    nh = int(counts[0, N_HERALD])
    # Each type's (n_plus, n_minus) block, axes (q1 or q2, q3) or (q1, q2, q3).
    n13, n23, n123 = (counts[GROUPS[t]][:, [N_PLUS, N_MINUS]] for t in INTERROGATING)
    n123 = n123.reshape(2, 2, 2)
    eta13, eta23, eta123 = (eff["eta_" + t] for t in INTERROGATING)
    # Marginalise the integer cells, then divide: dividing first can move last bits.
    p13, p23 = n13 / nh / eta13, n23 / nh / eta23
    p12, m13, m23 = (m(n123) / nh / eta123 for m in (marginal_12, marginal_13, marginal_23))
    return {
        "p13_mp_direct": float(p13[1, 0]),
        "p23_mp_direct": float(p23[1, 0]),
        "p12_mp": float(p12[1, 0]),
        "w_direct": w_statistic(p13, p23, p12),
        "p13_mp_marginal": float(m13[1, 0]),
        "p23_mp_marginal": float(m23[1, 0]),
        "w_marginal": w_statistic(m13, m23, p12),
    }
