"""In-memory span recorder and the wrappers the traced run installs.

A span is one call into a layer: ``(id, parent, thread, layer, name,
start, end)``.  Spans live in a list until the benchmark writes them out;
the parent id comes from a per-thread stack, so nested calls form a tree
and a layer's *self time* is a span's duration minus what its children
cover.  Wrappers are installed on public methods and module attributes
for the traced run only and removed afterwards, so the untraced run
executes the program exactly as a user would.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("id", "parent", "main", "layer", "name", "start", "end")

    def __init__(self, id, parent, main, layer, name, start):
        self.id = id
        self.parent = parent
        self.main = main
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "thread": "main" if self.main else "worker",
            "layer": self.layer,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Collects spans and counters for one traced operation at a time."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        #: Objects the wrappers saw being created (engines, networks, ...).
        self.created: Dict[str, list] = defaultdict(list)

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.created = defaultdict(list)

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            threading.current_thread() is self._main,
            layer,
            name,
            time.perf_counter(),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, layer: str, name: str, function: Callable, observe=None) -> Callable:
        """``function`` recorded as a span; ``observe(tracer, span, args,
        result)`` may count work or rename the span after the call."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(layer, name) as record:
                result = function(*args, **kwargs)
                if observe is not None:
                    observe(tracer, record, args, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        covered: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.seconds
        return {r.id: r.seconds - covered[r.id] for r in self.spans}

    def main_root_seconds(self) -> float:
        """Wall time covered by root spans on the main thread."""
        return sum(r.seconds for r in self.spans if r.parent is None and r.main)


Target = Tuple[object, str, str, str, Optional[Callable]]


def install(tracer: Tracer, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap each ``(owner, attribute, layer, span name, observe)``.

    ``owner`` is a class, a module, or a dict of callables (then
    ``attribute`` is a key).  Class and static methods keep their
    descriptor type.  Returns a function that restores every original.
    """
    saved = []
    for owner, attribute, layer, name, observe in targets:
        table = owner if isinstance(owner, dict) else vars(owner)
        raw = table[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(layer, name, raw.__func__, observe))
        else:
            wrapped = tracer.wrap(layer, name, raw, observe)
        saved.append((owner, attribute, raw))
        _assign(owner, attribute, wrapped)

    def restore() -> None:
        for owner, attribute, raw in reversed(saved):
            _assign(owner, attribute, raw)

    return restore


def _assign(owner, attribute: str, value) -> None:
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)
