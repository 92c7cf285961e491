"""Closed-form quantum predictions for cross-checking the Monte Carlo.

The unblocked network is a product of 2x2 beam-splitter matrices; inserted
blockers project out one arm.  The two amplitudes below are the transfer
coefficients from the source beam to the two final exits, written out
term by term with the blocker bits attached.
"""

from __future__ import annotations

import numpy as np

from .harness import CONTEXTS, GROUPS
from .optics import Bits, OpticalParams
from .stats import INTERROGATING, lg_stats


def amplitudes(b: Bits, optics: OpticalParams) -> tuple[complex, complex]:
    """Evaluate the four-term amplitude formulas for blocker bits b:
    (alpha_plus, alpha_minus), the amplitudes for a coincidence at the upper
    (+) and lower (-) exit."""
    b1, b2, b3, b4 = b
    t1, t2, t3 = optics.t1, optics.t2, optics.t3
    r1, r2, r3 = 1.0 - t1, 1.0 - t2, 1.0 - t3
    e1 = np.exp(1j * optics.theta1)
    e2 = np.exp(1j * optics.theta2)
    alpha_plus = (
        b2 * b3 * e2 * np.sqrt(r1 * r2 * t3)
        - b1 * b3 * e1 * e2 * np.sqrt(t1 * t2 * t3)
        + b2 * b4 * np.sqrt(r1 * t2 * r3)
        + b1 * b4 * e1 * np.sqrt(t1 * r2 * r3)
    )
    alpha_minus = (
        b2 * b3 * e2 * np.sqrt(r1 * r2 * r3)
        - b1 * b3 * e1 * e2 * np.sqrt(t1 * t2 * r3)
        - b2 * b4 * np.sqrt(r1 * t2 * t3)
        - b1 * b4 * e1 * np.sqrt(t1 * r2 * t3)
    )
    return complex(alpha_plus), complex(alpha_minus)


def _weights(optics: OpticalParams) -> np.ndarray:
    """(|alpha+|^2, |alpha-|^2) of each standard context, one row each."""
    return np.array([[abs(a) ** 2 for a in amplitudes(b, optics)] for b in CONTEXTS])


def type_weight_sums(optics: OpticalParams) -> dict[str, float]:
    """Sum of |alpha+|^2 + |alpha-|^2 over each experiment type's contexts.

    For the standard context groups this is exactly 1 for any parameters,
    which is what justifies normalizing counts per type.
    """
    w = _weights(optics)
    s = (w[:, 0] + w[:, 1]).tolist()
    return {t: sum(s[GROUPS[t]]) for t in INTERROGATING}


def predicted_pmfs(optics: OpticalParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantum PMFs (P_{t1,t3}, P_{t2,t3}, P_{t1,t2,t3}), laid out as in stats.

    Cell (context, q3=+) gets |alpha+|^2 and (context, q3=-) gets |alpha-|^2,
    normalized per experiment type (the per-context sums are T1, R1, etc.;
    only the type-level sum is unity).
    """
    w = _weights(optics)
    total = type_weight_sums(optics)
    p13, p23, p3 = (w[GROUPS[t]] / total[t] for t in INTERROGATING)
    return p13, p23, p3.reshape(2, 2, 2)


def predicted_stats(optics: OpticalParams) -> dict[str, float]:
    """Quantum K, W and pair correlations from the closed-form amplitudes."""
    return lg_stats(*predicted_pmfs(optics))
