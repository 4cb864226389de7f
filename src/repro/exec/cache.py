"""Digest-keyed LRU cache of :class:`~repro.core.solver.SolveReport`.

The cache maps canonical problem digests (:mod:`repro.exec.digest`) to
finished solve reports.  Hits share one read-only report: result types
make their arrays and mappings read-only where they are built, so
writing into a returned array raises :class:`ValueError` and no caller
can corrupt another's report.

Side-effectful runs never touch the cache: ``sinks`` (telemetry must
observe every event of every run), ``fault_plan`` (injections must
happen), and the cycle-accurate ``backend="rtl"`` / ``strict`` paths
(their value *is* the execution) all bypass it — the bypass rule lives
in :func:`cacheable` and is enforced by both ``solve()`` and
``solve_batch()``.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterable

__all__ = ["CacheStats", "SolveCache", "cacheable", "default_cache"]


def cacheable(sinks: tuple, fault_plan: Any, backend: str, strict: bool) -> bool:
    """Whether a run with these settings may be served from or stored in a cache."""
    return not sinks and fault_plan is None and backend != "rtl" and not strict


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Monotonic counters of one cache's lifetime."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SolveCache:
    """Thread-safe LRU cache keyed by problem digests.

    ``capacity`` bounds the number of retained reports; the least
    recently *used* (hit or stored) entry is evicted first.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The stored report for ``key`` (shared and read-only), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return entry

    def put(self, key: Hashable, report: Any) -> None:
        """Store ``report`` itself (no copy), evicting the LRU entry if full."""
        self.put_many(((key, report),))

    def put_many(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        """Store every ``(key, report)`` pair, in order, under one lock.

        The result is exactly that of a loop of :meth:`put`: each item
        becomes the most recently used entry (a re-stored key moves to
        the end), and each overflow evicts the oldest entry at once, so
        an item stored early in the call can be evicted by a later one.
        """
        with self._lock:
            entries, capacity = self._entries, self.capacity
            for key, report in items:
                if key in entries:
                    entries.move_to_end(key)
                entries[key] = report
                while len(entries) > capacity:
                    entries.popitem(last=False)
                    self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )


_DEFAULT_CACHE = SolveCache()


def default_cache() -> SolveCache:
    """The process-wide shared cache (used when callers pass ``cache=True``)."""
    return _DEFAULT_CACHE
