"""LRU buffer pool over a bitmap store.

The query evaluation phase (Section 6.3) is a scheduling problem only
because the buffer is finite: bitmaps evicted between constituent
queries must be re-read from disk.  :class:`BufferPool` makes that
observable — every fetch is either a hit (free) or a miss (charged to
the :class:`~repro.storage.iomodel.CostClock` as one read request plus
decompression CPU), and eviction is LRU over decoded bitmaps measured
in *uncompressed* pages (decoded bitmaps live in memory uncompressed,
as in the paper's setup where an 11 MB pool sufficed).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import RawCodec, kernels
from repro.errors import BufferError_
from repro.storage.iomodel import CostClock
from repro.storage.pages import pages_for
from repro.storage.store import BitmapStore


#: A decoded bitmap at least this many times larger than its payload
#: stays resident as its non-zero word runs and is expanded on each
#: hit; the page accounting is the decoded size either way.  Chosen
#: from a sweep on ``sharded_appends`` (``docs/performance.md`` §9):
#: peak RSS after a fixed op count is flat for every cut-off from 4 to
#: 256, and the highest such cut-off expands the fewest hits.  A
#: payload that small also bounds the runs (each costs the codec at
#: least a word); a sorted segment's bitmaps have at most 5.
COMPACT_RATIO = 256
_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class _WordRuns:
    """A resident bitmap kept as its non-zero 64-bit word runs."""

    __slots__ = ("length", "num_words", "parts")

    def __init__(self, vector: BitVector):
        self.length = len(vector)
        self.num_words = vector.num_words
        runs = kernels.runs_from_elements(vector.words, _FULL_WORD)
        #: ``(start, stop, words)`` of each non-zero run.
        self.parts = []
        start = taken = 0
        for kind, count in zip(runs.types.tolist(), runs.lengths.tolist()):
            if kind == kernels.FILL_ONE:
                self.parts.append((start, start + count, _FULL_WORD))
            elif kind == kernels.DIRTY:
                self.parts.append((start, start + count, runs.values[taken : taken + count]))
                taken += count
            start += count

    def expand(self) -> BitVector:
        words = np.zeros(self.num_words, dtype=np.uint64)
        for start, stop, fill in self.parts:
            words[start:stop] = fill
        return BitVector(self.length, words)


@dataclass
class BufferStats:
    """Hit/miss/eviction counters for one buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def fetches(self) -> int:
        """Total fetches (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over fetches (0.0 when nothing was fetched)."""
        if not self.fetches:
            return 0.0
        return self.hits / self.fetches


class BufferPool:
    """Fixed-capacity LRU cache of decoded bitmaps.

    Parameters
    ----------
    store:
        Backing :class:`BitmapStore`.
    capacity_pages:
        Buffer size in pages of *decoded* bitmap data.  Must admit at
        least one bitmap; a fetch larger than the whole capacity is
        still served (it simply occupies the pool alone).
    clock:
        Optional cost clock charged for misses.
    """

    def __init__(
        self,
        store: BitmapStore,
        capacity_pages: int,
        clock: CostClock | None = None,
    ):
        if capacity_pages < 1:
            raise BufferError_(
                f"buffer capacity must be >= 1 page, got {capacity_pages}"
            )
        self._store = store
        self._capacity = capacity_pages
        self._clock = clock
        self._resident: OrderedDict[
            Hashable, tuple[BitVector | _WordRuns, int, int]
        ] = OrderedDict()
        self._used_pages = 0
        self.stats = BufferStats()

    @property
    def capacity_pages(self) -> int:
        """Configured capacity in pages."""
        return self._capacity

    @property
    def used_pages(self) -> int:
        """Pages currently occupied by resident bitmaps."""
        return self._used_pages

    def fetch(self, key: Hashable) -> BitVector:
        """Return the bitmap for ``key``, reading through on a miss.

        A resident entry is served only while the store's per-key write
        version is unchanged; a re-stored bitmap (an append replaces
        every bitmap of an index) invalidates the entry, which is then
        re-read and re-charged like any other miss.  A decoded entry is
        the bitmap callers receive and can change size in place, so each
        hit on one re-measures it and settles the difference against the
        pool's page accounting, evicting colder entries if the bitmap
        outgrew its old footprint.  An entry kept as word runs
        (:data:`COMPACT_RATIO`) hands each hit a fresh expansion, so its
        size never changes and its pages stand as charged.
        """
        entry = self._resident.get(key)
        if entry is not None:
            vector, cached_pages, version = entry
            if version != self._store.version(key):
                # Stale: the stored payload was replaced after this
                # decode.  Drop the entry and read through below.
                del self._resident[key]
                self._used_pages -= cached_pages
            else:
                if isinstance(vector, _WordRuns):
                    vector = vector.expand()
                else:
                    pages = pages_for(vector.num_words * 8, self._store.page_size)
                    if pages != cached_pages:
                        self._used_pages += pages - cached_pages
                        self._resident[key] = (vector, pages, version)
                        if pages > cached_pages:
                            self._evict_to_fit(0, keep=key)
                self._resident.move_to_end(key)
                self.stats.hits += 1
                o = _obs.active()
                if o is not None:
                    o.count("buffer.hits", 1, pool="decoded")
                return vector

        self.stats.misses += 1
        o = _obs.active()
        if o is not None:
            o.count("buffer.misses", 1, pool="decoded")
        info = self._store.info(key)
        # Decode through the payload view: zero-copy words over a mapped
        # store, a heap view otherwise.  Charges are measured from
        # ``info`` either way, so the two paths account identically.
        vector = self._store.get_view(key)
        if self._clock is not None:
            self._clock.charge_read(info.pages)
            if not isinstance(self._store.codec, RawCodec):
                self._clock.charge_decompress(info.encoded_bytes)

        decoded_pages = pages_for(vector.num_words * 8, self._store.page_size)
        self._evict_to_fit(decoded_pages)
        resident = vector
        if info.encoded_bytes * COMPACT_RATIO <= vector.num_words * 8:
            resident = _WordRuns(vector)
        self._resident[key] = (resident, decoded_pages, self._store.version(key))
        self._used_pages += decoded_pages
        if o is not None:
            o.gauge_set("buffer.used_pages", self._used_pages, pool="decoded")
        return vector

    def _evict_to_fit(
        self, incoming_pages: int, keep: Hashable | None = None
    ) -> None:
        while self._used_pages + incoming_pages > self._capacity:
            victim = next((k for k in self._resident if k != keep), None)
            if victim is None:
                break
            _, pages, _ = self._resident.pop(victim)
            self._used_pages -= pages
            self.stats.evictions += 1
            o = _obs.active()
            if o is not None:
                o.count("buffer.evictions", 1, pool="decoded")

    def contains(self, key: Hashable) -> bool:
        """True iff ``key`` is resident (does not touch LRU order)."""
        return key in self._resident

    def clear(self) -> None:
        """Drop every resident bitmap (stats are kept)."""
        self._resident.clear()
        self._used_pages = 0
