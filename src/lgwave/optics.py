"""Hidden-variable sampling and Jones-vector propagation.

A beam is described by a 2-component complex Jones vector (H, V amplitudes),
stored as a numpy array of shape (..., 2) so that every function here works
identically on a single realization (shape (2,)) or a batch (shape (n, 2)).

The source is a two-mode squeezed pair built from standard complex Gaussian
noise vectors; the interferometer is the fixed three-beam-splitter topology
with optional beam blockers that replace a blocked arm by fresh vacuum noise.
Detection is a strict threshold crossing on the Jones-vector norm.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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


def require_finite(name: str, value: float) -> None:
    """Reject bools, non-real values, NaN, infinities and ints too large
    to become a float."""
    try:
        ok = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(float(value))
        )
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class SourceParams:
    """Squeezing strength 0 <= r <= R_MAX."""

    r: float

    def __post_init__(self):
        require_finite("r", self.r)
        if not 0 <= self.r <= R_MAX:
            raise ValueError(f"squeezing strength must lie in [0, {R_MAX}], got {self.r}")


@dataclass(frozen=True)
class OpticalParams:
    """Beam-splitter transmittances and phase-delay angles.

    Reflectances are implicit: R_i = 1 - T_i.
    """

    t1: float = 0.5
    t2: float = 0.75
    t3: float = 0.75
    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            t = getattr(self, name)
            require_finite(name, t)
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {t}")
        require_finite("theta1", self.theta1)
        require_finite("theta2", self.theta2)


@dataclass(frozen=True)
class Context:
    """A measurement context: blocker bits plus the optical parameters.

    b = (b1, b2, b3, b4); bit 0 means the corresponding blocker is inserted.
    """

    b: tuple[int, int, int, int]
    optics: OpticalParams = field(default_factory=OpticalParams)

    def __post_init__(self):
        if len(self.b) != 4 or any(bit not in (0, 1) for bit in self.b):
            raise ValueError(f"blocker bits must be a 4-tuple of 0/1, got {self.b}")

    @property
    def bits_int(self) -> int:
        """Context bits packed as b1 b2 b3 b4 -> integer 0..15 (stream key)."""
        b1, b2, b3, b4 = self.b
        return b1 * 8 + b2 * 4 + b3 * 2 + b4


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


def norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm sqrt(|h|^2 + |v|^2) of a Jones vector (batched)."""
    return np.sqrt((a.real**2 + a.imag**2).sum(axis=-1))


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


def stage1(a2: np.ndarray, a3: np.ndarray, h: np.ndarray, ctx: Context):
    """First beam splitter, phase delay theta1 and blockers BB1/BB2."""
    b1, b2 = ctx.b[0], ctx.b[1]
    o = ctx.optics
    sq_t = np.sqrt(o.t1)
    sq_r = np.sqrt(1.0 - o.t1)
    if b2:
        a2_out = sq_r * a2 - sq_t * a3
    else:
        a2_out = SIGMA * _z(h, "zp2")
    if b1:
        a3_out = np.exp(1j * o.theta1) * (sq_t * a2 + sq_r * a3)
    else:
        a3_out = SIGMA * _z(h, "zp1")
    return a2_out, a3_out


def stage2(a2: np.ndarray, a3: np.ndarray, h: np.ndarray, ctx: Context):
    """Second beam splitter, phase delay theta2 and blockers BB3/BB4."""
    b3, b4 = ctx.b[2], ctx.b[3]
    o = ctx.optics
    sq_t = np.sqrt(o.t2)
    sq_r = np.sqrt(1.0 - o.t2)
    if b3:
        a2_out = np.exp(1j * o.theta2) * (sq_r * a2 - sq_t * a3)
    else:
        a2_out = SIGMA * _z(h, "zp3")
    if b4:
        a3_out = sq_t * a2 + sq_r * a3
    else:
        a3_out = SIGMA * _z(h, "zp4")
    return a2_out, a3_out


def stage3(a2: np.ndarray, a3: np.ndarray, ctx: Context):
    """Final recombining beam splitter; no blockers, no noise."""
    o = ctx.optics
    sq_t = np.sqrt(o.t3)
    sq_r = np.sqrt(1.0 - o.t3)
    a2_out = sq_t * a2 + sq_r * a3
    a3_out = sq_r * a2 - sq_t * a3
    return a2_out, a3_out


def compile_network(src: SourceParams, contexts: list[Context]) -> np.ndarray:
    """Real transfer matrix of the herald D1 and of D2, D3 in each context.

    Every detector amplitude is real-linear in the 28 reals of a hidden
    state, so pushing the 28 unit states through source_output and
    stage1..3 gives the whole network as one (28, 4 * (1 + 2k)) matrix.
    Row i is the response to real i of sample_hidden's packed layout
    (vector z1..zp4, component H/V, re/im).  Columns hold the (H re, H im,
    V re, V im) of D1, then of D2 and D3 for each context in turn.
    """
    h = np.eye(NORMALS_PER_REALIZATION)
    a1, a2, a3 = source_output(h, src)
    outputs = [a1]
    for ctx in contexts:
        b2, b3 = stage1(a2, a3, h, ctx)
        b2, b3 = stage2(b2, b3, h, ctx)
        outputs += stage3(b2, b3, ctx)
    return np.stack(outputs, axis=1).view(np.float64).reshape(NORMALS_PER_REALIZATION, -1)


def detect(a: np.ndarray, gamma: float) -> np.ndarray:
    """Threshold detector: click iff norm(a) > gamma (strict)."""
    if gamma < 0:
        raise ValueError(f"detection threshold must be >= 0, got {gamma}")
    power = (a.real**2 + a.imag**2).sum(axis=-1)
    return power > gamma * gamma
