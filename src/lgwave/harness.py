"""The standard contexts, the random-stream layout, the detection kernel
and tallying.

A context is its blocker bits, a 4-tuple; the nine standard ones are
CONTEXTS.  The optics are one OpticalParams, the plan's, shared by every
context and passed to the kernel once.

Stream layout (reproducible across machines and worker counts), all of it
defined here: realizations are processed in fixed chunks of CHUNK, and a
stream key names a task's draws: chunk c of repetition `rep` of key k uses
the Philox generator seeded by SeedSequence([seed, k, rep, c]).  A context
b's own stream has key stream_key(b), which packs the bits into 0..15; the
shared pass, which evaluates every context on the same hidden states, has
the reserved key SHARED_STREAM_KEY.  Which tasks run, and so which streams
are read, experiment._reduce picks by the plan's draw mode.
Streams depend on neither r nor gamma, so one draw of a chunk serves every
(r, gamma) point of a sweep grid.  A chunk's generator is read in
consecutive ROW_BLOCK slices, which give the same numbers, in the same
order, as one draw of the whole chunk.
The detection kernel (_detections) decides every detector exactly
(_clicks), on one of two paths picked by the number of contexts per draw.
A context's counts are one int64 row whose columns are COUNT_COLUMNS, the
columns of counts.csv; k contexts' counts are a (k, 5) array.  They are
integers added chunk by chunk, so any parallel schedule that reduces them
in a fixed order reproduces the serial result exactly.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .optics import (
    Bits,
    OpticalParams,
    SourceParams,
    compile_network,
    propagate,
    require_real,
    sample_hidden,
    source_output,
)

CHUNK = 1 << 16

# The detection kernel draws and evaluates a chunk in blocks of ROW_BLOCK
# realizations, read in order from the chunk's one generator.  That keeps the
# draws and the temporaries in cache, and no chunk of normals is ever held.
ROW_BLOCK = 2048

# Shared-draw streams get their own key, above the 0..15 of context bits.
SHARED_STREAM_KEY = 16


def stream_key(b: Bits) -> int:
    """The independent-draw stream key of context b: b1 b2 b3 b4 packed as
    the binary integer b1*8 + b2*4 + b3*2 + b4, in 0..15."""
    b1, b2, b3, b4 = b
    return b1 * 8 + b2 * 4 + b3 * 2 + b4


MODE_INDEPENDENT = "independent-draws"
MODE_SHARED = "shared-draws"

# The nine standard measurement contexts with their (q1, q2) labels.
# None means the corresponding time is not interrogated in that context.
STANDARD_CONTEXT_TABLE: tuple[tuple[tuple[int, int, int, int], int | None, int | None], ...] = (
    ((1, 1, 1, 1), None, None),   # open
    ((1, 0, 1, 1), +1, None),     # t1,t3
    ((0, 1, 1, 1), -1, None),
    ((1, 1, 1, 0), None, +1),     # t2,t3
    ((1, 1, 0, 1), None, -1),
    ((1, 0, 1, 0), +1, +1),       # t1,t2,t3
    ((1, 0, 0, 1), +1, -1),
    ((0, 1, 1, 0), -1, +1),
    ((0, 1, 0, 1), -1, -1),
)

# The standard contexts' blocker bits, in table order, and each as one
# string, as counts.csv and summary.json label them.
CONTEXTS = tuple(bits for bits, _, _ in STANDARD_CONTEXT_TABLE)
CONTEXT_BITS = tuple("".join(map(str, bits)) for bits in CONTEXTS)

# The four experiment types, each the rows of STANDARD_CONTEXT_TABLE that
# interrogate the same times.  Within a type, rows are ordered by (q1, q2),
# with + before -.  t3 interrogates neither t1 nor t2; the other three are
# the interrogating types that K and W compare.
GROUPS = {"t3": slice(0, 1), "t1t3": slice(1, 3), "t2t3": slice(3, 5), "t1t2t3": slice(5, 9)}


# The columns of a context's count row: realizations, heralds, exclusive
# coincidences at D2 and at D3, and doubles.
COUNT_COLUMNS = ("n_total", "n_herald", "n_plus", "n_minus", "n_double")
N_TOTAL, N_HERALD, N_PLUS, N_MINUS, N_DOUBLE = range(len(COUNT_COLUMNS))


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce a full nine-context experiment."""

    source: SourceParams
    optics: OpticalParams = field(default_factory=OpticalParams)
    gamma: float = 2.0
    samples: int = 1 << 20
    reps: int = 30
    mode: str = MODE_INDEPENDENT
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("samples", 1), ("reps", 1), ("seed", 0)):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not integral or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        require_real("gamma", self.gamma, 0)
        if self.mode not in (MODE_INDEPENDENT, MODE_SHARED):
            raise ValueError(f"unknown mode {self.mode!r}")

    def n_chunks(self) -> int:
        return (self.samples + CHUNK - 1) // CHUNK

    def chunk_size(self, chunk_index: int) -> int:
        start = chunk_index * CHUNK
        return min(CHUNK, self.samples - start)

    def chunk_rng(self, stream_key: int, rep_index: int, chunk_index: int) -> np.random.Generator:
        ss = np.random.SeedSequence([self.seed, stream_key, rep_index, chunk_index])
        return np.random.Generator(np.random.Philox(ss))


def evaluate_context(
    h: np.ndarray, src: SourceParams, b: Bits, optics: OpticalParams, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tests' float reference: source -> propagate -> power > gamma**2.

    Returns the threshold events (d1, d2, d3) at the herald D1, which depends
    only on the source draw, and at the exits D2, D3 in context b, for single
    states or batches.  It can differ from the exact kernel (_clicks) only
    where a float power lies inside its detector's band.
    """
    a1, a2, a3 = source_output(h, src)
    a2, a3 = propagate(a2, a3, h, b, optics)
    return tuple((a.real**2 + a.imag**2).sum(axis=-1) > gamma * gamma for a in (a1, a2, a3))


def _tally(n_total: int, d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> np.ndarray:
    """The (k, 5) counts of k contexts on a chunk of n_total realizations,
    from the detections on a subset of its rows that holds every heralded
    row.

    d1 has shape (n,); d2 and d3 have shape (k, n) for k contexts
    evaluated on the same draws, one context per row.  Every count is gated
    on d1, so rows left out could not add to any of them.  n_plus and
    n_minus are the coincidences at D2 and at D3 less the doubles.
    """
    coincident = d1 & d2
    at_d2 = np.count_nonzero(coincident, axis=1)
    at_d3 = np.count_nonzero(d1 & d3, axis=1)
    double = np.count_nonzero(coincident & d3, axis=1)
    columns = (
        n_total,
        np.count_nonzero(d1),
        at_d2 - double,
        at_d3 - double,
        double,
    )
    return np.stack(np.broadcast_arrays(*columns), axis=1, dtype=np.int64)


def _powers(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Power at each detector of m, one row per row of x: the four squared
    reals of each amplitude summed as (H re + H im) + (V re + V im)."""
    amp = x @ m
    parts = np.square(amp, out=amp).reshape(len(amp), m.shape[1] // 4, 4)
    power = parts[..., 0] + parts[..., 1]
    power += parts[..., 2] + parts[..., 3]
    return power


# A click is power > threshold on the exact power of the float row x and
# matrix.  A detector's power is |x M_d|^2, with |x|^2 < 2744 (optics.R_MAX's
# comment) and M_d its 28 x 4 block of compile_network.  In any summation
# order, with or without FMA, a 28-term dot product x m_j is computed within
# g28 |x| |m_j| (Higham, "Accuracy and Stability of Numerical Algorithms",
# 2002, ch. 3; g_n = n u / (1 - n u), u = eps / 2), and squaring and summing
# the four adds g3 per square.  So _powers, on any BLAS and for any product
# shape, lies within (2 g28 + g28^2 + g3 (1 + g28)^2) |x|^2 |M_d|_F^2 =
# 29.5 eps |x|^2 |M_d|_F^2 < BAND |M_d|_F^2, the detector's band; the slack
# to 32 eps covers the band's own rounding and underflow (absolute errors
# near 2^-1074, while |M_d|_F^2 = 2 E[power] >= 2).  Only a power within the
# band of a threshold is decided again, in rational arithmetic: a filtered
# exact predicate (Shewchuk 1997).
BAND = 32 * np.finfo(np.float64).eps * 2744


def _band(m: np.ndarray) -> np.ndarray:
    """The rounding band of each detector of m, one entry per 4 columns."""
    return BAND * np.square(m).reshape(len(m), -1, 4).sum(axis=(0, 2))


def _exact_power(x: np.ndarray, block: np.ndarray):
    """|x block|^2 in rational arithmetic on the floats of row x and of one
    detector's 28 x 4 block."""
    from fractions import Fraction  # only decisions inside the band need it

    row = [Fraction(a) for a in x.tolist()]
    return sum(sum(a * Fraction(b) for a, b in zip(row, col)) ** 2 for col in block.T.tolist())


def _clicks(x: np.ndarray, m: np.ndarray, band: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Whether each detector of m clicks on each row of x at each threshold,
    shape (thresholds, detectors, rows): power > threshold, decided exactly
    where the float power lies within the detector's band of it."""
    power = np.ascontiguousarray(_powers(x, m).T)
    t = thresholds[:, None, None]
    clicks = power > t
    near = np.abs(power - t) <= band[:, None]
    if near.any():
        for k, d, i in zip(*np.nonzero(near)):
            clicks[k, d, i] = _exact_power(x[i], m[:, 4 * d : 4 * d + 4]) > thresholds[k]
    return clicks


def _detections(
    plans: list[ExperimentPlan], key: int, rep_index: int, contexts: tuple[Bits, ...], chunks: range
) -> Iterator[list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
    """Per chunk of stream `key`, one (n_total, d1, d2, d3) per grid point
    in `plans`, every context evaluated on the chunk's one draw.  The plans
    differ at most in source and gamma; the optics, the stream and the
    chunking are plans[0]'s.  n_total is the chunk's row count; d1, d2 and
    d3 are the detections on a set of its rows, in stream order, that holds
    every row heralded at that point.  d1 has shape (n,) and is shared by the
    contexts: the heralding beam never touches the blockers.  d2 and d3
    have shape (k, n), one row per context.

    The network is compiled once per distinct source (compile_network), and
    the chunk's generator is read one row block at a time.  Each block takes
    one of two paths, picked by the number of contexts per draw:

    - One context (run_context): every row is decided and returned.
    - Several contexts (the shared pass): only a row heralded at the
      source's lowest gamma can count, and few are, so only the rows whose
      herald power (from the matrix's first four columns) reaches that
      gamma**2 less D1's band, a superset of the exactly heralded rows, are
      decided.  With one context selecting the rows costs more than it skips.

    Both paths decide with _clicks, so they agree on any BLAS.

    Memory: the generator holds one row block of draws, one chunk of
    detection records per grid point and the kernel's O(ROW_BLOCK)
    temporaries, never two blocks or two chunks of records.  Each block is
    released before the next is drawn, and each chunk's records before the
    next chunk's are allocated, so a consumer that drops the records it was
    given before resuming (run_context does) holds no more.  A point's
    records are one (1 + 2k, n) bool buffer, at most 19 x 2^16 B =
    1.19 MiB, not a slice of one grid-wide array, which numpy would back
    with transparent huge pages (4 MiB or more) that the shared pass,
    filling only each buffer's heralded prefix, mostly leaves untouched."""
    plan = plans[0]
    networks = []
    for src in dict.fromkeys(p.source for p in plans):
        points = [i for i, p in enumerate(plans) if p.source == src]
        m = compile_network(src, plan.optics, contexts)
        band = _band(m)
        thresholds = np.array([plans[i].gamma * plans[i].gamma for i in points])
        networks.append((m, band, thresholds, thresholds.min() - band[0], points))
    for c in chunks:
        n = plan.chunk_size(c)
        rng = plan.chunk_rng(key, rep_index, c)
        det = [np.empty((1 + 2 * len(contexts), n), dtype=bool) for _ in plans]
        filled = [0] * len(plans)
        for lo in range(0, n, ROW_BLOCK):
            x = sample_hidden(rng, min(ROW_BLOCK, n - lo))
            for m, band, thresholds, cut, points in networks:
                y = x[_powers(x, m[:, :4])[:, 0] >= cut] if len(contexts) > 1 else x
                for i, clicks in zip(points, _clicks(y, m, band, thresholds)):
                    det[i][:, filled[i] : filled[i] + len(y)] = clicks
                    filled[i] += len(y)
            del x, y
        yield [(n, d[0, :f], d[1::2, :f], d[2::2, :f]) for d, f in zip(det, filled)]
        del det


def run_context(plans: list[ExperimentPlan], b: Bits, rep_index: int) -> np.ndarray:
    """Tally context b over the samples of one repetition at every grid
    point in `plans`, on the context's own stream, stream_key(b), drawing
    each chunk once; one count row per point, shape (points, 5)."""
    plan = plans[0]
    totals = np.zeros((len(plans), len(COUNT_COLUMNS)), dtype=np.int64)
    for dets in _detections(plans, stream_key(b), rep_index, (b,), range(plan.n_chunks())):
        totals += np.concatenate([_tally(*d) for d in dets])
        del dets  # before the generator allocates the next chunk's records
    return totals


def counterfactual_chunks(
    plans: list[ExperimentPlan], rep_index: int, chunk_indices: range
) -> Iterator[list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
    """Stream shared-draw detections: one hidden state per realization, all
    nine contexts evaluated on it at every grid point in `plans`; per chunk,
    one (n_total, d1, d2, d3) per point, as _detections yields them.  Chunks
    arrive in index order."""
    return _detections(plans, SHARED_STREAM_KEY, rep_index, CONTEXTS, chunk_indices)
