"""Closed-form rates of the classical model, for gating the Monte Carlo's counts.

An independent derivation: nothing here reads the simulator's network.  Per
polarization the herald amplitude a1 = sigma (z1 cosh r + conj(z2) sinh r)
is a circular complex Gaussian with E|a1_H|^2 = cosh(2r) / 2, so the herald
power |a1|^2, summed over H and V, is Gamma(2, cosh(2r) / 2).  An exit whose
transfer amplitude from the source beam is alpha (oracle.amplitudes) sees
the source's a2 times alpha plus unit-power vacuum, so its amplitude e has
E|e_H|^2 = 1/2 + |alpha|^2 sinh^2 r, and |E[a1_H e_H]| = |alpha| sinh(2r) / 2.
numpy only.
"""

import numpy as np

from lgwave.harness import CONTEXTS, N_DOUBLE, N_HERALD, N_MINUS, N_PLUS, N_TOTAL
from lgwave.optics import OpticalParams
from lgwave.oracle import amplitudes

# Largest |z| a count may sit from its reference rate.
Z_MAX = 5.0

# Gauss-Laguerre rule for the herald power above the threshold.
LAGUERRE_NODES, LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(60)


def herald_probability(r: float, gamma: float) -> float:
    """P(d1) = P(|a1|^2 > gamma^2) = e^(-x) (1 + x), x = 2 gamma^2 / cosh 2r."""
    x = 2.0 * gamma**2 / np.cosh(2.0 * r)
    return float(np.exp(-x) * (1.0 + x))


def _log_poisson(mean, k: np.ndarray) -> np.ndarray:
    """log P(Poisson(mean) = k) for the integers k = 0, 1, ...; mean may be 0."""
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k[-1] + 1)))))
    return k * np.log(np.maximum(mean, np.finfo(float).tiny)) - mean - log_factorial


def noncentral_chi2_4_survival(lam: np.ndarray, x: float) -> np.ndarray:
    """P(X > x) for X noncentral chi-squared with 4 degrees of freedom and
    noncentrality lam (an array).  X is a Poisson(lam / 2) mixture of
    central chi-squared laws with 4 + 2j degrees of freedom, and each of
    those exceeds x with probability P(Poisson(x / 2) <= j + 1)."""
    mu = np.asarray(lam, dtype=float)[:, None] / 2.0
    top = float(mu.max())
    j = np.arange(int(top + 12.0 * np.sqrt(top)) + 60)
    central = np.cumsum(np.exp(_log_poisson(x / 2.0, np.arange(len(j) + 1))))[1:]
    return (np.exp(_log_poisson(mu, j)) * central).sum(axis=1)


def coincidence_probability(r: float, gamma: float, weight: float) -> float:
    """P(d1 and d) for the click d at an exit of weight |alpha|^2.

    Per polarization, given a1 the exit's conjugate amplitude is complex
    Gaussian with mean (c / s1) a1 and variance v = s - c^2 / s1, where
    s1 = cosh(2r) / 2, s = 1/2 + |alpha|^2 sinh^2 r and
    c = |alpha| sinh(2r) / 2.  So given herald power p, 2 |e|^2 / v is
    noncentral chi-squared with 4 degrees of freedom and noncentrality
    2 c^2 p / (s1^2 v).  With p = gamma^2 + s1 u the Gamma(2, s1) density
    above gamma^2 is e^(-g) (g + u) e^(-u), g = gamma^2 / s1, which the
    Gauss-Laguerre rule integrates over u >= 0.
    """
    s1 = np.cosh(2.0 * r) / 2.0
    s = 0.5 + weight * np.sinh(r) ** 2
    c2 = weight * np.sinh(2.0 * r) ** 2 / 4.0
    v = s - c2 / s1
    g = gamma**2 / s1
    p = gamma**2 + s1 * LAGUERRE_NODES
    survival = noncentral_chi2_4_survival(2.0 * c2 * p / (s1**2 * v), 2.0 * gamma**2 / v)
    return float(np.exp(-g) * np.sum(LAGUERRE_WEIGHTS * (g + LAGUERRE_NODES) * survival))


def _binomial_z(hits: np.ndarray, n: np.ndarray, p) -> np.ndarray:
    return (hits - n * p) / np.sqrt(n * p * (1.0 - p))


def herald_z(counts: np.ndarray, r: float, gamma: float) -> np.ndarray:
    """Binomial z-score of each count row's n_herald out of its n_total."""
    p = herald_probability(r, gamma)
    return _binomial_z(counts[..., N_HERALD], counts[..., N_TOTAL], p)


def count_z(
    counts: np.ndarray, r: float, gamma: float, optics: OpticalParams = OpticalParams()
) -> np.ndarray:
    """Binomial z-scores of the standard contexts' counts, shape (..., 9, 3)
    for counts of shape (..., 9, 5): n_herald, n_plus + n_double (clicks at
    D2, the + exit) and n_minus + n_double (clicks at D3, the - exit)."""
    p = np.array([
        [coincidence_probability(r, gamma, abs(a) ** 2) for a in amplitudes(b, optics)]
        for b in CONTEXTS
    ])
    exits = counts[..., [N_PLUS, N_MINUS]] + counts[..., [N_DOUBLE]]
    exit_z = _binomial_z(exits, counts[..., [N_TOTAL]], p)
    return np.concatenate([herald_z(counts, r, gamma)[..., None], exit_z], axis=-1)
