"""repro.memo — the one bounded memo type behind every process-wide cache.

The simulator memoizes four things across platform instances: epoch
timings (:data:`repro.sim.fastpath.TIMING_CACHE`), workload profiles
(:data:`repro.serve.profiles.PROFILE_CACHE`), CPU-baseline measurements
(:data:`repro.bench.runner.BASELINE_MEMO`) and packed generated tables
(``repro.bench.workloads._PACKED_CACHE``). Each keeps its own key
function and bound; all of them share this one protocol, so the worker
cache shipping in :mod:`repro.parallel` treats them alike.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple


class Memo:
    """A bounded FIFO memo: once full, each new key evicts the oldest.

    ``hits``/``misses`` count :meth:`get` lookups over the process
    lifetime; callers that want per-run figures :meth:`snapshot` before
    and :meth:`delta_since` after. ``stats`` (optional) is a
    :class:`~repro.sim.stats.StatSet` that mirrors the traffic as
    ``hits``/``misses`` counters plus a ``hit_rate`` gauge.
    """

    def __init__(self, max_entries: int, stats=None):
        self.max_entries = max_entries
        self.stats = stats
        self._entries: Dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        if self.stats is not None:
            self.stats.bump("misses" if value is None else "hits")
            self.stats.set_gauge("hit_rate", self.hit_rate)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def invalidate(self, reason: str = "") -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def export_entries(self) -> List[Tuple[Hashable, Any]]:
        """Every ``(key, value)`` pair, for shipping to worker processes."""
        return list(self._entries.items())

    def absorb(self, entries: List[Tuple[Hashable, Any]]) -> int:
        """Install exported entries (existing keys win); returns how many
        were new. Counters are untouched: absorbed entries are warm-up,
        not traffic."""
        added = 0
        for key, value in entries:
            if key not in self._entries:
                self.put(key, value)
                added += 1
        return added

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Tuple[int, int]:
        """The lifetime ``(hits, misses)`` pair at this instant."""
        return (self.hits, self.misses)

    def delta_since(self, snapshot: Tuple[int, int]) -> Tuple[int, int]:
        """``(hits, misses)`` accumulated since :meth:`snapshot`."""
        hits0, misses0 = snapshot
        return (self.hits - hits0, self.misses - misses0)


__all__ = ["Memo"]
