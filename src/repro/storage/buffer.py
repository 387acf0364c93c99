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
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import RawCodec
from repro.errors import BufferError_
from repro.storage.iomodel import CostClock
from repro.storage.pages import pages_for
from repro.storage.store import BitmapStore


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
    probe:
        Optional callable returning ``(positions, length)``: the pool
        then keeps each ``length``-bit bitmap's bits at ``positions``
        instead of the decoded bitmap, accounted as the decoded bitmap.
    """

    def __init__(
        self,
        store: BitmapStore,
        capacity_pages: int,
        clock: CostClock | None = None,
        probe: Callable[[], tuple[np.ndarray, int]] | None = None,
    ):
        if capacity_pages < 1:
            raise BufferError_(
                f"buffer capacity must be >= 1 page, got {capacity_pages}"
            )
        self._store = store
        self._capacity = capacity_pages
        self._clock = clock
        self._probe = probe
        #: key -> (vector, or None while its probe is pending; pages; version)
        self._resident: OrderedDict[Hashable, tuple[BitVector | None, int, int]] = OrderedDict()
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
        pool's page accounting, evicting colder entries if it outgrew
        its old footprint; a probed entry's pages stand as charged.
        """
        return self.fetch_many((key,))[0]

    def fetch_many(self, keys: Iterable[Hashable]) -> list[BitVector]:
        """:meth:`fetch` of each of the distinct ``keys``, in order; a
        probing pool reads all of their misses in one
        :meth:`Codec.probe_many` call."""
        keys = list(keys)
        if len(set(keys)) != len(keys):
            raise BufferError_("fetch_many needs distinct keys")
        positions, length = (None, None) if self._probe is None else self._probe()
        vectors, probed = [], []
        try:
            for key in keys:
                vector = self._hit(key)
                vectors.append(self._read(key) if vector is None else vector)
            missed = [i for i, vector in enumerate(vectors) if vector is None]
            if missed:
                views = [self._store.payload_view(keys[i]) for i in missed]
                probed = self._store.codec.probe_many(views, length, positions)
        except BaseException:
            for key, (vector, pages, _) in list(self._resident.items()):
                if vector is None:  # a placeholder of this batch
                    del self._resident[key]
                    self._used_pages -= pages
            raise
        for i, bits in zip(missed, probed):
            vector = vectors[i] = BitVector.from_bools(bits)
            entry = self._resident.get(keys[i])
            if entry is not None and entry[0] is None:
                self._resident[keys[i]] = (vector, *entry[1:])
        return vectors

    def _hit(self, key: Hashable) -> BitVector | None:
        """The resident vector for ``key`` (counted as a hit), or None."""
        entry = self._resident.get(key)
        if entry is None:
            return None
        vector, cached_pages, version = entry
        if version != self._store.version(key):
            # Stale: the stored payload was replaced after this read.
            del self._resident[key]
            self._used_pages -= cached_pages
            return None
        if self._probe is None:
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

    def _read(self, key: Hashable) -> BitVector | None:
        """Count and charge a miss of ``key`` and make it resident at its
        decoded size.  Returns the decoded bitmap, or None in a probing
        pool, whose entry is a placeholder until the batch is probed."""
        self.stats.misses += 1
        o = _obs.active()
        if o is not None:
            o.count("buffer.misses", 1, pool="decoded")
        info = self._store.info(key)
        # Decode through the payload view: zero-copy words over a mapped
        # store, a heap view otherwise.  Charges are measured from
        # ``info`` either way, so the two paths account identically.
        vector = self._store.get_view(key) if self._probe is None else None
        if self._clock is not None:
            self._clock.charge_read(info.pages)
            if not isinstance(self._store.codec, RawCodec):
                self._clock.charge_decompress(info.encoded_bytes)
        decoded_pages = pages_for(-(-info.length // 64) * 8, self._store.page_size)
        self._evict_to_fit(decoded_pages)
        self._resident[key] = (vector, decoded_pages, self._store.version(key))
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
