"""Experiment driver: contexts, random-stream layout, tallying.

Stream layout (reproducible across machines and worker counts): realizations
are processed in fixed chunks of CHUNK; chunk c of repetition `rep` for the
context with packed bits `k` uses the Philox generator seeded by
SeedSequence([seed, k, rep, c]).  In shared-draw mode every context sees the
same hidden states, obtained with the reserved stream key SHARED_STREAM_KEY.
Streams depend on neither r nor gamma, so one draw of a chunk serves every
(r, gamma) point of a sweep grid.  A chunk's generator is read in
consecutive ROW_BLOCK slices, which give the same numbers, in the same
order, as one draw of the whole chunk.
Counts are plain integers accumulated chunk by chunk, so any parallel
schedule that reduces them in a fixed order reproduces the serial result
exactly.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .optics import (
    Context,
    HiddenState,
    OpticalParams,
    SourceParams,
    compile_network,
    detect,
    require_finite,
    sample_hidden,
    source_output,
    stage1,
    stage2,
    stage3,
)

CHUNK = 1 << 16

# The detection kernel draws and evaluates a chunk in blocks of ROW_BLOCK
# realizations, read in order from the chunk's one generator.  That keeps the
# draws and the temporaries in cache, and no chunk of normals is ever held.
# It multiplies stacks of GEMM_ROWS-row matrices: at 64 x 28 x 76 every
# product stays below OpenBLAS's single-thread cut-off (m*n*k < 262,144), so
# no BLAS threads start beside the worker pool's.
ROW_BLOCK = 2048
GEMM_ROWS = 64

# Context bits occupy stream keys 0..15; shared-draw streams get their own key.
SHARED_STREAM_KEY = 16

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

OPEN = 0
T1T3_PLUS, T1T3_MINUS = 1, 2
T2T3_PLUS, T2T3_MINUS = 3, 4
T1T2T3_PP, T1T2T3_PM, T1T2T3_MP, T1T2T3_MM = 5, 6, 7, 8


def standard_contexts(optics: OpticalParams) -> list[Context]:
    return [Context(b=bits, optics=optics) for bits, _, _ in STANDARD_CONTEXT_TABLE]


@dataclass
class ContextCounts:
    """Tallies for one context: heralds, exclusive coincidences, doubles."""

    n_herald: int = 0
    n_plus: int = 0
    n_minus: int = 0
    n_double: int = 0
    n_total: int = 0

    def add(self, other: "ContextCounts") -> None:
        self.n_herald += other.n_herald
        self.n_plus += other.n_plus
        self.n_minus += other.n_minus
        self.n_double += other.n_double
        self.n_total += other.n_total


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
        for name, minimum in (("samples", 0), ("reps", 1), ("seed", 0)):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not integral or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        require_finite("gamma", self.gamma)
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.mode not in (MODE_INDEPENDENT, MODE_SHARED):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def contexts(self) -> list[Context]:
        return standard_contexts(self.optics)

    def n_chunks(self) -> int:
        return (self.samples + CHUNK - 1) // CHUNK

    def chunk_size(self, chunk_index: int) -> int:
        start = chunk_index * CHUNK
        return min(CHUNK, self.samples - start)

    def chunk_rng(self, stream_key: int, rep_index: int, chunk_index: int) -> np.random.Generator:
        ss = np.random.SeedSequence([self.seed, stream_key, rep_index, chunk_index])
        return np.random.Generator(np.random.Philox(ss))


def evaluate_context(
    h: HiddenState, src: SourceParams, ctx: Context, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full pipeline source -> three stages -> threshold detection.

    Returns the threshold events (d1, d2, d3) at the herald detector D1 and
    the two exits D2, D3.  The heralding beam a1 is untouched by the
    interferometer, so d1 depends only on the source draw.  Works on single
    states or batches.
    """
    a1, a2, a3 = source_output(h, src)
    a2, a3 = stage1(a2, a3, h, ctx)
    a2, a3 = stage2(a2, a3, h, ctx)
    a2, a3 = stage3(a2, a3, ctx)
    return detect(a1, gamma), detect(a2, gamma), detect(a3, gamma)


def _tally(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> list[ContextCounts]:
    """Counts of each context on a chunk of n realizations.

    d1 has shape (n,); d2 and d3 have shape (n,) for one context or (k, n)
    for k contexts evaluated on the same draws, one context per row.
    """
    d2, d3 = np.atleast_2d(d2, d3)
    coincident = d1 & d2
    n_herald = int(np.count_nonzero(d1))
    plus = np.count_nonzero(coincident & ~d3, axis=1)
    minus = np.count_nonzero(d1 & ~d2 & d3, axis=1)
    double = np.count_nonzero(coincident & d3, axis=1)
    return [
        ContextCounts(n_herald, int(p), int(m), int(dd), n_total=d1.shape[0])
        for p, m, dd in zip(plus, minus, double)
    ]


def _transfer(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m as stacked GEMM_ROWS-row products plus one remainder product."""
    q = len(x) - len(x) % GEMM_ROWS
    out = np.empty((len(x), m.shape[1]))
    np.matmul(
        x[:q].reshape(-1, GEMM_ROWS, x.shape[1]), m,
        out=out[:q].reshape(-1, GEMM_ROWS, m.shape[1]),
    )
    np.matmul(x[q:], m, out=out[q:])
    return out


def _detections(
    plans: list[ExperimentPlan], key: int, rep_index: int, contexts: list[Context], chunks: range
) -> Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per chunk of stream `key`, the (d1, d2, d3) of every grid point in
    `plans`, every context evaluated on the chunk's one draw.  The plans
    differ at most in source and gamma; the stream and the chunking are
    plans[0]'s.  d1 has shape (n,) and is shared by the contexts: the
    heralding beam never touches the blockers.  d2 and d3 have shape (k, n),
    one contiguous row per context.

    The network is compiled once per distinct source (compile_network).  The
    chunk's generator is opened once and read one row block at a time: each
    block's draws are sampled, then multiplied by each source's matrix,
    squared, summed per detector and thresholded at each gamma paired with
    that source.  Consecutive draws partition the stream, so the block
    draws are the whole-chunk draw's rows bit for bit, and no chunk-sized
    array of normals is held.  evaluate_context stays the reference: the two
    round differently, so they can only disagree on a power within rounding
    of gamma**2."""
    by_source: dict[SourceParams, list[tuple[int, float]]] = {}
    for i, p in enumerate(plans):
        by_source.setdefault(p.source, []).append((i, p.gamma * p.gamma))
    networks = [(compile_network(src, contexts), points) for src, points in by_source.items()]
    plan = plans[0]
    for c in chunks:
        n = plan.chunk_size(c)
        rng = plan.chunk_rng(key, rep_index, c)
        det = np.empty((len(plans), 1 + 2 * len(contexts), n), dtype=bool)
        for lo in range(0, n, ROW_BLOCK):
            rows = min(ROW_BLOCK, n - lo)
            x = sample_hidden(rng, rows).packed.reshape(rows, -1).view(np.float64)
            for m, points in networks:
                amp = _transfer(x, m)
                parts = np.square(amp, out=amp).reshape(len(amp), -1, 4)
                power = parts[..., 0] + parts[..., 1]
                power += parts[..., 2] + parts[..., 3]
                for i, threshold in points:
                    np.greater(power.T, threshold, out=det[i, :, lo : lo + ROW_BLOCK])
        yield [(d[0], d[1::2], d[2::2]) for d in det]


def run_context(plans: list[ExperimentPlan], ctx: Context, rep_index: int) -> list[ContextCounts]:
    """Tally one context over the samples of one repetition at every grid
    point in `plans`, drawing each chunk once; one count per point."""
    plan = plans[0]
    key = SHARED_STREAM_KEY if plan.mode == MODE_SHARED else ctx.bits_int
    totals = [ContextCounts() for _ in plans]
    for dets in _detections(plans, key, rep_index, [ctx], range(plan.n_chunks())):
        for total, d in zip(totals, dets):
            total.add(_tally(*d)[0])
    return totals


def counterfactual_chunks(
    plans: list[ExperimentPlan], rep_index: int, chunk_indices: range | None = None
) -> Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Stream shared-draw detections: one hidden state per realization, all
    nine contexts evaluated on it at every grid point in `plans`; per chunk,
    one (d1, d2, d3) per point.  Chunks arrive in index order."""
    plan = plans[0]
    if chunk_indices is None:
        chunk_indices = range(plan.n_chunks())
    return _detections(plans, SHARED_STREAM_KEY, rep_index, plan.contexts, chunk_indices)
