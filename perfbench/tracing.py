"""Host-time spans and call counters around the program's layer boundaries.

The benchmark wraps public entry points from the outside and restores
them afterwards; nothing inside ``src/`` knows it is being traced. Each
span records its name, host start and end, the span that was open when
it started, and the op id of the benchmark op it belongs to. A span's
self time is its duration minus its children's, so the self times of a
root span's subtree sum to the root's duration.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Recorder:
    """Collects spans, counters and GC pauses while installed.

    Use as a context manager: every wrapper installed with :meth:`wrap`
    or :meth:`count` is removed on exit, even when the body raises.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.op = -1
        #: While set, wrappers call straight through and record nothing.
        self.paused = False
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_start: Optional[float] = None

    # -- spans ----------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed "
                               "out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    # -- patching -------------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]):
        """Replace ``owner.attr`` with ``make(original)`` until exit."""
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr) if own is _MISSING else own
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: wrap the function")
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, own))

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        recorder = self

        def make(original):
            def wrapper(*args, **kwargs):
                if recorder.paused:
                    return original(*args, **kwargs)
                index = recorder.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.close(index)
            return wrapper

        self.patch(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under ``name``."""
        recorder = self
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                if not recorder.paused:
                    counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        self.patch(owner, attr, make)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if self.paused:
            return
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_s += self.clock() - self._gc_start
            self._gc_start = None

    def __enter__(self) -> "Recorder":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- analysis -------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its children."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def self_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def subtree_self(self, root: int) -> Dict[str, float]:
        """Self time per span name over ``root`` and every span below it;
        the values sum to ``root``'s duration."""
        own = self.self_times()
        inside = {root}
        totals = {self.spans[root].name: own[root]}
        for index in range(root + 1, len(self.spans)):
            span = self.spans[index]
            if span.parent in inside:
                inside.add(index)
                totals[span.name] = totals.get(span.name, 0.0) + own[index]
        return totals

    def write_chrome_trace(self, path) -> int:
        """Write the spans as Chrome trace-event JSON (one lane per layer
        prefix, host microseconds); returns the number of spans."""
        from repro.sim.trace import Tracer, to_chrome_trace

        tracer = Tracer(capacity=max(1, len(self.spans)))
        origin = self.spans[0].start if self.spans else 0.0
        for index, span in enumerate(self.spans):
            tracer.record((span.start - origin) * 1e9,
                          span.name.split(".")[0], span.name,
                          dur=(span.end - span.start) * 1e9,
                          span=index, parent=span.parent, op=span.op)
        trace = to_chrome_trace(tracer)
        trace["traceEvents"][0]["args"]["name"] = "perfbench host spans"
        with open(path, "w") as handle:
            json.dump(trace, handle)
        return len(self.spans)
