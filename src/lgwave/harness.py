"""The standard contexts, the random-stream layout, the detection kernel
and tallying.

A context is its blocker bits, a 4-tuple; the nine standard ones are
CONTEXTS.  The optics are one OpticalParams, the plan's, shared by every
context and passed to the kernel once.

Stream layout (reproducible across machines and worker counts), all of it
defined here: realizations are processed in fixed chunks of CHUNK; chunk c
of repetition `rep` for context b uses the Philox generator seeded by
SeedSequence([seed, stream_key(b), rep, c]), where stream_key packs the bits
into 0..15.  In shared-draw mode every context sees the same hidden states,
obtained with the reserved stream key SHARED_STREAM_KEY.
Streams depend on neither r nor gamma, so one draw of a chunk serves every
(r, gamma) point of a sweep grid.  A chunk's generator is read in
consecutive ROW_BLOCK slices, which give the same numbers, in the same
order, as one draw of the whole chunk.
The detection kernel (_detections) has two paths, picked by the number of
contexts evaluated per draw.  A single-context stream (run_context)
evaluates every row.  The shared pass (counterfactual_chunks, nine contexts
per draw) computes the herald on every row and evaluates the exits only on
the rows heralded at some grid point: every count is conditioned on the
herald, which few rows pass.  Every product is a stack of whole
GEMM_ROWS-row products (_transfer pads the last one), so both paths decide
each detector bit for bit alike.  That rests on two facts about the BLAS
that tests/test_harness.py pins (TestBlasFacts): an 8-column herald product
rounds like the full product's first four columns, and a row rounds alike
in whichever padded stack it is multiplied.
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
    detect,
    propagate,
    require_finite,
    sample_hidden,
    source_output,
)

CHUNK = 1 << 16

# The detection kernel draws and evaluates a chunk in blocks of ROW_BLOCK
# realizations, read in order from the chunk's one generator.  That keeps the
# draws and the temporaries in cache, and no chunk of normals is ever held.
# It multiplies only stacks of whole GEMM_ROWS-row matrices (_transfer),
# whose rounding the golden counts pin (tests/test_harness.py,
# TestBlasFacts).  The package pins OpenBLAS to one thread on import
# (lgwave/__init__.py), so no BLAS thread starts beside the worker pool's.
ROW_BLOCK = 2048
GEMM_ROWS = 64

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
        require_finite("gamma", self.gamma)
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
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
    """Full pipeline source -> interferometer (propagate) -> detection.

    Returns the threshold events (d1, d2, d3) at the herald detector D1 and
    the two exits D2, D3 in context b.  The heralding beam a1 is untouched
    by the interferometer, so d1 depends only on the source draw.  Works on
    single states or batches.
    """
    a1, a2, a3 = source_output(h, src)
    a2, a3 = propagate(a2, a3, h, b, optics)
    return detect(a1, gamma), detect(a2, gamma), detect(a3, gamma)


def _tally(n_total: int, d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> np.ndarray:
    """The (k, 5) counts of k contexts on a chunk of n_total realizations,
    from the detections on a subset of its rows that holds every heralded
    row.

    d1 has shape (n,); d2 and d3 have shape (n,) for one context or (k, n)
    for k contexts evaluated on the same draws, one context per row.  Every
    count is gated on d1, so rows left out could not add to any of them.
    """
    d2, d3 = np.atleast_2d(d2, d3)
    coincident = d1 & d2
    columns = (
        n_total,
        np.count_nonzero(d1),
        np.count_nonzero(coincident & ~d3, axis=1),
        np.count_nonzero(d1 & ~d2 & d3, axis=1),
        np.count_nonzero(coincident & d3, axis=1),
    )
    return np.stack(np.broadcast_arrays(*columns), axis=1, dtype=np.int64)


def _transfer(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m as a stack of GEMM_ROWS-row products.  A last partial stack is
    padded with zero rows, so every row is multiplied inside a whole one."""
    n = len(x)
    if n % GEMM_ROWS:
        x = np.concatenate((x, np.zeros((-n % GEMM_ROWS, x.shape[1]))))
    out = np.matmul(x.reshape(-1, GEMM_ROWS, x.shape[1]), m)
    return out.reshape(-1, m.shape[1])[:n]


def _powers(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Power at each detector of m, one row per row of x: the four squared
    reals of each amplitude summed as (H re + H im) + (V re + V im)."""
    amp = _transfer(x, m)
    parts = np.square(amp, out=amp).reshape(len(amp), m.shape[1] // 4, 4)
    power = parts[..., 0] + parts[..., 1]
    power += parts[..., 2] + parts[..., 3]
    return power


# The herald D1 is columns 0-3 of compile_network's matrix.  Its product is
# taken with the first HERALD_COLUMNS columns, not four: OpenBLAS rounds an
# 8-column product like the full one's first columns, a 4-column one not.
HERALD_COLUMNS = 8


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

    The network is compiled once per distinct source (compile_network).  The
    chunk's generator is opened once and read one row block at a time:
    consecutive draws partition the stream, so the block draws are the
    whole-chunk draw's rows bit for bit, and no chunk-sized array of
    normals is held.  Each block is evaluated on one of two paths, picked
    by the number of contexts per draw:

    - One context (run_context): every row is multiplied by the source's
      matrix, squared, summed per detector and thresholded at each gamma
      paired with that source; every row is returned.
    - Several contexts (the shared pass): only a row heralded at the
      source's lowest gamma can count, and few are.  The herald power of
      every row comes from its product with the matrix's first
      HERALD_COLUMNS columns; only the rows above the lowest gamma**2 are
      multiplied by the whole matrix and thresholded.  With one context
      selecting the rows costs more than the rows it skips.

    The two paths decide every detector alike, bit for bit, as long as the
    BLAS rounds two products alike: the herald-tile product like the whole
    matrix's first four columns, and a row like itself in any padded stack
    of GEMM_ROWS rows (tests/test_harness.py::TestBlasFacts pins both).  A
    row multiplied alone rounds differently, hence _transfer's padding.
    evaluate_context stays the reference: it rounds differently from both,
    so they can only disagree on a power within rounding of gamma**2."""
    plan = plans[0]
    by_source: dict[SourceParams, list[tuple[int, float]]] = {}
    for i, p in enumerate(plans):
        by_source.setdefault(p.source, []).append((i, p.gamma * p.gamma))
    networks = []
    for src, points in by_source.items():
        m = compile_network(src, plan.optics, contexts)
        lowest = min(threshold for _, threshold in points)
        networks.append((m, np.ascontiguousarray(m[:, :HERALD_COLUMNS]), lowest, points))
    heralded_only = len(contexts) > 1
    for c in chunks:
        n = plan.chunk_size(c)
        rng = plan.chunk_rng(key, rep_index, c)
        det = np.empty((len(plans), 1 + 2 * len(contexts), n), dtype=bool)
        filled = [0] * len(plans)
        for lo in range(0, n, ROW_BLOCK):
            x = sample_hidden(rng, min(ROW_BLOCK, n - lo))
            for m, m_herald, lowest, points in networks:
                y = x[_powers(x, m_herald)[:, 0] > lowest] if heralded_only else x
                power = _powers(y, m).T
                for i, threshold in points:
                    np.greater(power, threshold, out=det[i, :, filled[i] : filled[i] + len(y)])
                    filled[i] += len(y)
        yield [(n, d[0, :f], d[1::2, :f], d[2::2, :f]) for d, f in zip(det, filled)]


def run_context(plans: list[ExperimentPlan], b: Bits, rep_index: int) -> np.ndarray:
    """Tally context b over the samples of one repetition at every grid
    point in `plans`, drawing each chunk once; one count row per point,
    shape (points, 5)."""
    plan = plans[0]
    key = SHARED_STREAM_KEY if plan.mode == MODE_SHARED else stream_key(b)
    totals = np.zeros((len(plans), len(COUNT_COLUMNS)), dtype=np.int64)
    for dets in _detections(plans, key, rep_index, (b,), range(plan.n_chunks())):
        totals += np.concatenate([_tally(*d) for d in dets])
    return totals


def counterfactual_chunks(
    plans: list[ExperimentPlan], rep_index: int, chunk_indices: range
) -> Iterator[list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
    """Stream shared-draw detections: one hidden state per realization, all
    nine contexts evaluated on it at every grid point in `plans`; per chunk,
    one (n_total, d1, d2, d3) per point, as _detections yields them.  Chunks
    arrive in index order."""
    return _detections(plans, SHARED_STREAM_KEY, rep_index, CONTEXTS, chunk_indices)
