"""Same-law gate: the driver's shared-draw records against an independent
unconditional sampler.

The reference draws its own rows (numpy's default generator, not the
driver's Philox streams, chunks or row blocks), decides every detector as
the float power of compile_network's columns > gamma**2, and tallies by its
own code each context's four herald-gated cells, each experiment type's
Lambda set (the union over its contexts of d1 & (d2 ^ d3)) and the
interrogating types' symmetric differences.  Both sides are samples of the
same law, so each comparison is a two-sample z with |z| <= Z_MAX.  This
covers what classical_reference's closed forms do not: the Lambda-set sizes,
the symmetric differences and the joint law of nine contexts on one row.
"""

from itertools import combinations

import numpy as np
import pytest

from classical_reference import Z_MAX
from lgwave.experiment import _lg_stats, _reduce
from lgwave.harness import CONTEXTS, GROUPS, MODE_SHARED, N_HERALD, N_PLUS, N_TOTAL, ExperimentPlan
from lgwave.optics import SIGMA, OpticalParams, SourceParams, compile_network
from lgwave.stats import INTERROGATING

# (r, gamma): the headline point, then P(d1) = 0.30 and 0.66, where a row's
# Lambda sets overlap most; a wrong union or pairing shows only at these two.
POINTS = [(0.3, 2.0), (0.3, 1.2), (1.0, 1.5)]
SAMPLES = 1 << 17
REPS = 4
BLOCK = 1 << 14


def reference_rep(rng: np.random.Generator, r: float, gamma: float, n: int) -> dict:
    """One repetition of n unconditional rows: per context the heralded rows
    with a click at D2 only, D3 only, both and neither; the size of each
    type's Lambda set; and the symmetric differences keyed by type pair."""
    m = compile_network(SourceParams(r=r), OpticalParams(), CONTEXTS)
    cells = np.zeros((len(CONTEXTS), 4), dtype=np.int64)
    n_lambda = dict.fromkeys(GROUPS, 0)
    n_sym_diff = dict.fromkeys(combinations(INTERROGATING, 2), 0)
    for lo in range(0, n, BLOCK):
        x = rng.standard_normal((min(BLOCK, n - lo), m.shape[0])) * SIGMA
        clicks = (np.square(x @ m).reshape(len(x), -1, 4).sum(axis=2) > gamma**2).T
        heralded = clicks[:, clicks[0]]
        d2, d3 = heralded[1::2], heralded[2::2]
        cells += np.stack([d2 & ~d3, ~d2 & d3, d2 & d3, ~d2 & ~d3], axis=1).sum(axis=2)
        lam = {t: (d2[g] ^ d3[g]).any(axis=0) for t, g in GROUPS.items()}
        for t in GROUPS:
            n_lambda[t] += int(lam[t].sum())
        for a, b in n_sym_diff:
            n_sym_diff[a, b] += int((lam[a] ^ lam[b]).sum())
    return {"cells": cells, "n_lambda": list(n_lambda.values()),
            "n_sym_diff": list(n_sym_diff.values())}


def counts_of(cells: np.ndarray, n: int) -> np.ndarray:
    """The (9, 5) count rows of a reference repetition's cells."""
    n_herald = cells.sum(axis=1)
    return np.column_stack([np.full(len(cells), n), n_herald, cells[:, :3]])


def binomial_z(a: np.ndarray, na: int, b: np.ndarray, nb: int) -> np.ndarray:
    """Two-sample z of hit counts a out of na against b out of nb, with the
    pooled rate; 0 where neither side has a hit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p = (a + b) / (na + nb)
    se = np.sqrt(p * (1.0 - p) * (1.0 / na + 1.0 / nb))
    return np.divide(a / na - b / nb, se, out=np.zeros_like(p), where=se > 0)


def mean_z(a: list[float], b: list[float]) -> float:
    """Two-sample z of the means of a and b, each over its own spread."""
    se = np.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b))
    return (np.mean(a) - np.mean(b)) / se


@pytest.mark.parametrize("r, gamma", POINTS)
def test_driver_matches_reference_sampler(r, gamma):
    p = ExperimentPlan(source=SourceParams(r=r), gamma=gamma, samples=SAMPLES, reps=REPS,
                       mode=MODE_SHARED, seed=11)
    [(_, accs)] = _reduce([p], efficiency=True)
    rng = np.random.default_rng([11, round(100 * r), round(100 * gamma)])
    refs = [reference_rep(rng, r, gamma, SAMPLES) for _ in range(REPS)]

    driver_counts = [acc.counts for acc in accs]
    n = sum(int(c[0, N_TOTAL]) for c in driver_counts)
    driver_cells = sum(
        # n_plus, n_minus, n_double and the heralded rows with neither click
        np.column_stack([c[:, N_PLUS:], c[:, N_HERALD] - c[:, N_PLUS:].sum(axis=1)])
        for c in driver_counts
    )
    z = {
        "cells": binomial_z(driver_cells, n, sum(ref["cells"] for ref in refs), n),
        "n_lambda": binomial_z(sum(acc.n_lambda for acc in accs), n,
                               sum(np.array(ref["n_lambda"]) for ref in refs), n),
        "n_sym_diff": binomial_z(sum(acc.n_sym_diff for acc in accs), n,
                                 sum(np.array(ref["n_sym_diff"]) for ref in refs), n),
    }
    driver_stats = [_lg_stats(c) for c in driver_counts]
    ref_stats = [_lg_stats(counts_of(ref["cells"], SAMPLES)) for ref in refs]
    for s in ("K", "W"):
        z[s] = mean_z([d[s] for d in driver_stats], [d[s] for d in ref_stats])
    worst = {name: float(np.abs(v).max()) for name, v in z.items()}
    assert max(worst.values()) <= Z_MAX, worst
