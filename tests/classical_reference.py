"""Closed-form rates of the classical model, for gating the Monte Carlo's counts.

An independent derivation: nothing here reads the simulator's network.  Per
polarization the herald amplitude a1 = sigma (z1 cosh r + conj(z2) sinh r)
is a circular complex Gaussian with E|a1_H|^2 = cosh(2r) / 2, so the herald
power |a1|^2, summed over H and V, is Gamma(2, cosh(2r) / 2).  numpy only.
"""

import numpy as np

from lgwave.harness import N_HERALD, N_TOTAL

# Largest |z| a count may sit from its reference rate.
Z_MAX = 5.0


def herald_probability(r: float, gamma: float) -> float:
    """P(d1) = P(|a1|^2 > gamma^2) = e^(-x) (1 + x), x = 2 gamma^2 / cosh 2r."""
    x = 2.0 * gamma**2 / np.cosh(2.0 * r)
    return float(np.exp(-x) * (1.0 + x))


def herald_z(counts: np.ndarray, r: float, gamma: float) -> np.ndarray:
    """Binomial z-score of each count row's n_herald out of its n_total."""
    p = herald_probability(r, gamma)
    n = counts[..., N_TOTAL]
    return (counts[..., N_HERALD] - n * p) / np.sqrt(n * p * (1.0 - p))
