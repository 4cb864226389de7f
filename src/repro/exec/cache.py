"""Digest-keyed LRU cache of :class:`~repro.core.solver.SolveReport`.

The cache maps canonical problem digests (:mod:`repro.exec.digest`) to
finished solve reports.  Stores and hits are *structural copies*
(:func:`_copy`) — callers get an equal but independent report, so
mutating nested arrays in one caller's report can never corrupt
another's.

Side-effectful runs never touch the cache: ``sinks`` (telemetry must
observe every event of every run), ``fault_plan`` (injections must
happen), and the cycle-accurate ``backend="rtl"`` / ``strict`` paths
(their value *is* the execution) all bypass it — the bypass rule lives
in :func:`cacheable` and is enforced by both ``solve()`` and
``solve_batch()``.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import operator
import threading
from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

__all__ = ["CacheStats", "SolveCache", "cacheable", "default_cache"]


def cacheable(sinks: tuple, fault_plan: Any, backend: str, strict: bool) -> bool:
    """Whether a run with these settings may be served from or stored in a cache."""
    return not sinks and fault_plan is None and backend != "rtl" and not strict


#: Exact types of the common immutable leaves; a set lookup is far
#: cheaper than ``isinstance``, so these are checked first.
_LEAF_TYPES = frozenset({bool, int, float, complex, str, bytes, type(None)})
#: Every immutable value a copy may share with its original.
_LEAVES = (*_LEAF_TYPES, enum.Enum, np.generic)


def _copy(obj: Any, memo: dict[int, Any]) -> Any:
    """An independent copy of a report, sharing only what cannot change.

    Arrays are copied; dataclasses, lists, dicts and the tuples that hold
    a copied part are rebuilt.  Immutable leaves (numbers, strings, enums)
    and tuples made only of them are shared.  ``memo`` maps the ``id`` of
    each original to its copy, so aliasing inside one report survives as
    ``copy.deepcopy`` keeps it; any other type goes through
    ``copy.deepcopy`` with the same memo.
    """
    cls = type(obj)
    if cls in _LEAF_TYPES:
        return obj
    key = id(obj)
    if key in memo:
        return memo[key]
    out: Any
    if cls is np.ndarray and not obj.dtype.hasobject:
        out = obj.copy(order="K")
    elif cls is tuple:
        if _LEAF_TYPES.issuperset(map(type, obj)):
            return obj
        items = tuple([_copy(x, memo) for x in obj])
        out = obj if all(map(operator.is_, items, obj)) else items
    elif cls is list:
        out = [_copy(x, memo) for x in obj]
    elif cls is dict:
        out = {_copy(k, memo): _copy(v, memo) for k, v in obj.items()}
    elif isinstance(obj, _LEAVES):
        return obj
    elif hasattr(cls, "__dataclass_params__") and hasattr(obj, "__dict__"):
        state = vars(obj).copy()
        for k, v in state.items():
            t = type(v)
            # Inline checks for the common shared fields save a call each.
            if t in _LEAF_TYPES or (
                t is tuple and _LEAF_TYPES.issuperset(map(type, v))
            ):
                continue
            state[k] = _copy(v, memo)
        # Bypasses ``__init__`` and the frozen ``__setattr__``, as ``deepcopy`` does.
        out = object.__new__(cls)
        object.__setattr__(out, "__dict__", state)
    else:
        return copy.deepcopy(obj, memo)
    memo[key] = out
    return out


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
        """The cached report for ``key`` (an independent copy), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return _copy(entry, {})

    def put(self, key: Hashable, report: Any) -> None:
        """Store ``report`` under ``key``, evicting the LRU entry if full."""
        stored = _copy(report, {})
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = stored
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
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
