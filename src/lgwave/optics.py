"""Hidden-variable sampling and Jones-vector propagation.

A beam is described by a 2-component complex Jones vector (H, V amplitudes),
stored as a numpy array of shape (..., 2) so that every function here works
identically on a single realization (shape (2,)) or a batch (shape (n, 2)).

The source is a two-mode squeezed pair built from standard complex Gaussian
noise vectors; the interferometer is the fixed three-beam-splitter topology
with optional beam blockers that replace a blocked arm by fresh vacuum noise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Scale of vacuum fluctuations; each complex noise component has real and
# imaginary parts ~ N(0, 1/2), i.e. std SIGMA, so E[|z|^2] = 1.
SIGMA = 1.0 / np.sqrt(2.0)

# sample_hidden consumes exactly this many standard normal draws per
# realization: 7 vectors x 2 components x (real, imag).
NORMALS_PER_REALIZATION = 28
_VECTORS = ("z1", "z2", "z3", "zp1", "zp2", "zp3", "zp4")

# Largest accepted squeezing strength: below it every detector power stays
# a finite float for any draw.  numpy's ziggurat standard_normal returns
# |u| < 14: its tail draw is 3.654 + E / 3.654 with E = -log(1 - U) <= 53 ln 2
# for a 53-bit uniform U.  So the 28 reals x of a hidden-state row have
# |x|^2 < 28 (14 SIGMA)^2 = 2744 < e^8.  A detector's power is |x M|^2 for
# its 28 x 4 block M of compile_network, and |x M|^2 <= |x|^2 |M|_F^2, where
# |M|_F^2 = 2 E[power] because each real of x has variance 1/2.  The arms
# enter with mean power cosh 2r + 1, beam splitters conserve power and each
# of a context's at most two blockers adds at most the vacuum's 1, so
# E[power] <= cosh 2r + 3 <= e^(2r) for r >= 1.  Hence power < 2 e^(2r + 8),
# finite while 2r + 8 + ln 2 < ln(float max) = 709.78, i.e. r < 350.5.
R_MAX = 350.0


def require_real(name: str, value: float, low: float = -math.inf, high: float = math.inf) -> None:
    """Reject bools, non-real values, NaN, infinities, ints too large to
    become a float and values outside [low, high]."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not (math.isfinite(x) and low <= x <= high):
        raise ValueError(f"{name} must be a finite real number in [{low}, {high}], got {value!r}")


@dataclass(frozen=True)
class SourceParams:
    """Squeezing strength 0 <= r <= R_MAX."""

    r: float

    def __post_init__(self):
        require_real("r", self.r, 0, R_MAX)


@dataclass(frozen=True)
class OpticalParams:
    """Beam-splitter transmittances 0 <= T_i <= 1 and phase-delay angles.

    Reflectances are implicit: R_i = 1 - T_i.
    """

    t1: float = 0.5
    t2: float = 0.75
    t3: float = 0.75
    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            require_real(name, getattr(self, name), 0, 1)
        require_real("theta1", self.theta1)
        require_real("theta2", self.theta2)


# A measurement context is its blocker bits b = (b1, b2, b3, b4); bit bn = 0
# means blocker BBn is inserted.  The optics are the same in every context.
Bits = tuple[int, int, int, int]


def sample_hidden(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n i.i.d. hidden states from `rng`, one (n, 28) real row each.

    A row packs the seven standard complex Gaussian noise vectors (vector,
    H/V component, real/imag): z1, z2 drive the squeezed source, z3 is the
    vacuum port of the first beam splitter, and zp1..zp4 are the vacuum
    modes injected by beam blockers BB1..BB4.  Each real is a standard
    normal times SIGMA, read in row order, so consecutive draws partition
    the stream deterministically.
    """
    x = rng.standard_normal((n, NORMALS_PER_REALIZATION))
    x *= SIGMA
    return x


def _z(h: np.ndarray, name: str) -> np.ndarray:
    """Complex view, shape (..., 2), of noise vector `name` of rows h."""
    return h.view(np.complex128).reshape(*h.shape[:-1], 7, 2)[..., _VECTORS.index(name), :]


def source_output(h: np.ndarray, p: SourceParams):
    """Two-mode squeezed twin beams plus the vacuum mode of the unused port.

    a1 = sigma (z1 cosh r + z2* sinh r), a2 = sigma (z2 cosh r + z1* sinh r),
    applied componentwise (H with H, V with V); a3 = sigma z3.
    """
    ch = np.cosh(p.r)
    sh = np.sinh(p.r)
    z1, z2 = _z(h, "z1"), _z(h, "z2")
    a1 = SIGMA * (z1 * ch + np.conj(z2) * sh)
    a2 = SIGMA * (z2 * ch + np.conj(z1) * sh)
    a3 = SIGMA * _z(h, "z3")
    return a1, a2, a3


def _split(a2: np.ndarray, a3: np.ndarray, t: float):
    """The 2x2 beam-splitter law of transmittance t on arms (a2, a3):
    (sqrt(R) a2 - sqrt(T) a3, sqrt(T) a2 + sqrt(R) a3), with R = 1 - T."""
    sq_t = np.sqrt(t)
    sq_r = np.sqrt(1.0 - t)
    return sq_r * a2 - sq_t * a3, sq_t * a2 + sq_r * a3


def _block(n: int, a: np.ndarray, h: np.ndarray, b: Bits) -> np.ndarray:
    """Arm amplitude a past blocker BBn: a itself, or SIGMA times the
    blocker's fresh vacuum zpn of rows h when it is inserted (bit bn = 0)."""
    return a if b[n - 1] else SIGMA * _z(h, f"zp{n}")


def propagate(a2: np.ndarray, a3: np.ndarray, h: np.ndarray, b: Bits, optics: OpticalParams):
    """The interferometer in context b: the arms (a2, a3) through each
    element in the order light meets it, to the exits (D2, D3)."""
    a2, a3 = _split(a2, a3, optics.t1)
    a3 = np.exp(1j * optics.theta1) * a3
    a2, a3 = _block(2, a2, h, b), _block(1, a3, h, b)
    a2, a3 = _split(a2, a3, optics.t2)
    a2 = np.exp(1j * optics.theta2) * a2
    a2, a3 = _block(3, a2, h, b), _block(4, a3, h, b)
    d3, d2 = _split(a2, a3, optics.t3)
    return d2, d3


def compile_network(
    src: SourceParams, optics: OpticalParams, contexts: tuple[Bits, ...]
) -> np.ndarray:
    """Real transfer matrix of the herald D1 and of D2, D3 in each context.

    Every detector amplitude is real-linear in the 28 reals of a hidden
    state, so pushing the 28 unit states through source_output and
    propagate gives the whole network as one (28, 4 * (1 + 2k)) matrix.
    Row i is the response to real i of sample_hidden's packed layout
    (vector z1..zp4, component H/V, re/im).  Columns hold the (H re, H im,
    V re, V im) of D1, then of D2 and D3 for each context in turn.
    """
    h = np.eye(NORMALS_PER_REALIZATION)
    a1, a2, a3 = source_output(h, src)
    outputs = [a1]
    for b in contexts:
        outputs += propagate(a2, a3, h, b, optics)
    return np.stack(outputs, axis=1).view(np.float64).reshape(NORMALS_PER_REALIZATION, -1)
