"""Invalidation-correct result cache for the serving layer.

Entries are keyed by ``(index epoch, canonical expression)`` — the
canonical expression is the tuple of rewritten constituent
:class:`~repro.expr.Expr` trees, which are immutable and hashable, so
two textually different queries that rewrite to the same bitmap
expression share one entry.  Including the epoch in the key makes
invalidation a comparison rather than a search: when
:meth:`~repro.index.BitmapIndex.append` bumps the epoch, every entry
minted under an older epoch is unreachable and is swept out eagerly by
:meth:`ResultCache.invalidate_below`.

The cache is thread-safe (one lock around the LRU dict), so it can be
probed and inspected from any thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.bitmap import BitVector

#: A cache key: (epoch, canonical expression tuple).
CacheKey = tuple[int, tuple]


@dataclass
class CacheStats:
    """Hit/miss/eviction/invalidation counters for one result cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidated: int = 0


class ResultCache:
    """Bounded LRU cache of query answers, keyed by (epoch, expression).

    ``capacity`` counts entries (answers are one decoded bitmap each; a
    serving deployment would size this in bytes, but entry count keeps
    the accounting exact in tests).  A capacity of 0 disables caching:
    every probe misses and nothing is stored.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[CacheKey, BitVector] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        """Configured capacity in entries."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, epoch: int, expression: tuple) -> BitVector | None:
        """The cached answer for ``expression`` at ``epoch``, or None.

        Every probe is recorded as one hit or one miss: the shard engine
        probes each request exactly once, so ``hits + misses`` equals
        the requests it answered.  A disabled cache counts the miss
        without building (and hashing) the key.
        """
        if not self._capacity:
            with self._lock:
                self.stats.misses += 1
            return None
        key = (epoch, expression)
        with self._lock:
            answer = self._entries.get(key)
            if answer is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return answer

    def put(self, epoch: int, expression: tuple, answer: BitVector) -> None:
        """Store ``answer`` for ``expression`` at ``epoch`` (LRU evicting)."""
        if not self._capacity:
            return
        key = (epoch, expression)
        with self._lock:
            self._entries[key] = answer
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate_below(self, epoch: int) -> int:
        """Drop every entry minted under an epoch older than ``epoch``.

        Called after an append bumps the index epoch; returns the number
        of entries dropped (also accumulated in ``stats.invalidated``).
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] < epoch]
            for key in stale:
                del self._entries[key]
            self.stats.invalidated += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        with self._lock:
            self._entries.clear()
