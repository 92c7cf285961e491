"""Per-layer spans and counters recorded from outside the lgwave package.

The tracer replaces public functions of the package with timing wrappers for
the length of one traced invocation and puts the originals back afterwards.
Nothing under ``src/`` knows it is being traced.

Name binding matters: a wrapper only sees calls that look the name up where
it was patched.  ``experiment`` binds ``run_context``, ``counterfactual_chunks``
and the stats reducers by name at import, ``harness`` binds ``sample_hidden``
the same way, and ``cli`` binds ``run_experiment``/``run_kw_only``.  Each
wrapper is therefore installed on the module that calls it, not on the module
that defines it.  Methods (``ExperimentPlan.chunk_rng``,
``EfficiencyAccumulator.update``/``report``) are looked up on the class at
call time, so they are patched on the class.

Spans arrive from the experiment's pool threads, so every shared structure
is guarded by one lock and the span stack that supplies parents is
thread-local.  A pool task records the span that submitted it as its parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced invocation, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, parent: int | None = None) -> tuple[int, int | None, float]:
        with self._lock:
            sid = next(self._ids)
        if parent is None:
            parent = self.current()
        self._stack().append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name: str, token: tuple[int, int | None, float], keep: bool = True) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        if keep:
            span = Span(sid, name, start, end, parent, threading.get_ident(), self.run_id)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, n: int = 1, key=None) -> None:
        """Add ``n`` to counter ``name``; a ``key`` also joins its distinct set."""
        with self._lock:
            self.counts[name] += n
            if key is not None:
                self.distinct[name].add(key)

    def call(self, name: str, fn, *args, _parent: int | None = None, **kwargs):
        token = self.begin(_parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(name, token)

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``on_call(args, kwargs)`` runs before the call, for counters.
        """
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            return self.call(name, orig, *args, **kwargs)

        self.patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time each ``next()`` of a generator function; the exhausting
        ``next()`` that raises StopIteration is not recorded."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                token = self.begin()
                try:
                    item = next(it)
                except StopIteration:
                    self.end(name, token, keep=False)
                    return
                except BaseException:
                    self.end(name, token)
                    raise
                self.end(name, token)
                yield item

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- reading results ------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name(name))

    def self_seconds(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children.

        Children run nested in the same thread as their parent (pool tasks
        are parented to the submitter but are not nested in it, so they are
        only subtracted from spans of their own thread)."""
        child_time: dict[int, float] = defaultdict(float)
        thread_of = {s.id: s.thread for s in self.spans}
        for s in self.spans:
            if s.parent is not None and thread_of.get(s.parent) == s.thread:
                child_time[s.parent] += s.seconds
        return sum(s.seconds - child_time[s.id] for s in self.by_name(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(
                    json.dumps(
                        {
                            "run_id": s.run_id,
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )
