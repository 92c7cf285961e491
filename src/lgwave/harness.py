"""Experiment driver: contexts, random-stream layout, tallying.

Stream layout (reproducible across machines and worker counts): realizations
are processed in fixed chunks of CHUNK; chunk c of repetition `rep` for the
context with packed bits `k` uses the Philox generator seeded by
SeedSequence([seed, k, rep, c]).  In shared-draw mode every context sees the
same hidden states, obtained with the reserved stream key SHARED_STREAM_KEY.
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
    detect,
    require_finite,
    sample_hidden,
    source_output,
    stage1,
    stage2,
    stage3,
)

CHUNK = 1 << 16

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


def _detections(
    plan: ExperimentPlan, key: int, rep_index: int, contexts: list[Context], chunks: range
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(d1, d2, d3) of each chunk of stream `key`, every context evaluated on
    the chunk's draws.  d1 has shape (n,) and is shared: the heralding beam
    never touches the blockers.  d2 and d3 have shape (k, n), one contiguous
    row per context."""
    for c in chunks:
        n = plan.chunk_size(c)
        h = sample_hidden(plan.chunk_rng(key, rep_index, c), n)
        d2 = np.empty((len(contexts), n), dtype=bool)
        d3 = np.empty((len(contexts), n), dtype=bool)
        for j, ctx in enumerate(contexts):
            d1, d2[j], d3[j] = evaluate_context(h, plan.source, ctx, plan.gamma)
        yield d1, d2, d3


def run_context(plan: ExperimentPlan, ctx: Context, rep_index: int) -> ContextCounts:
    """Tally one context over plan.samples realizations of one repetition."""
    key = SHARED_STREAM_KEY if plan.mode == MODE_SHARED else ctx.bits_int
    total = ContextCounts()
    for d in _detections(plan, key, rep_index, [ctx], range(plan.n_chunks())):
        (counts,) = _tally(*d)
        total.add(counts)
    return total


def counterfactual_chunks(
    plan: ExperimentPlan, rep_index: int, chunk_indices: range | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stream shared-draw detections: one hidden state per realization, all
    nine contexts evaluated on it.  Chunks arrive in index order."""
    if chunk_indices is None:
        chunk_indices = range(plan.n_chunks())
    yield from _detections(plan, SHARED_STREAM_KEY, rep_index, plan.contexts, chunk_indices)
