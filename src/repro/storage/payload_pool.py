"""LRU pool of encoded payloads, with decoded copies where they fit.

The compressed convention of :class:`~repro.index.evaluation.QueryEngine`
(``engine="compressed"``) reads its leaves through this pool instead of
:class:`~repro.storage.buffer.BufferPool`.  The pool keeps each fetched
bitmap's *encoded* payload resident, so a miss costs its read pages and
no decompression.  For evaluation it hands out one range source per
leaf (:meth:`PayloadPool.sources`):

* **words** — the leaf's decoded copy, attached once per residency when
  it fits into the room the encoded payloads leave free (the paper's
  buffer pool, Section 6.3, likewise keeps decoded bitmaps for reuse);
* **stream** — otherwise the leaf's block stream, parsed once per
  residency, so a pool too small for decoded copies never holds a whole
  decoded leaf.

Hits, misses, evictions and pages read never depend on the copies.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Sequence

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import CompressedBitmap, get_codec
from repro.compress.streams import BlockStream, open_stream
from repro.storage.buffer import BufferStats
from repro.storage.iomodel import CostClock
from repro.storage.pages import pages_for


def decoded_pages(length: int, page_size: int) -> int:
    """Pages one decoded ``length``-bit bitmap occupies."""
    return pages_for(8 * -(-length // 64), page_size)


class PooledBitmap(CompressedBitmap):
    """A resident payload plus at most one parsed form of it.

    The form is either the decoded copy (:attr:`decoded`, attached by
    the pool when it fits) or the block stream opened on first use —
    never both, so a leaf is decoded or parsed (and validated) once per
    residency rather than once per query.  Both go with the payload on
    eviction or a store-version change.
    """

    def __init__(self, key: Hashable, payload, length: int, codec: str):
        super().__init__(payload, length, codec)
        self.key = key
        #: The decoded copy while the pool holds one (read-only).
        self.decoded: BitVector | None = None
        self._stream: BlockStream | None = None

    def stream(self) -> BlockStream:
        if self._stream is None:
            self._stream = open_stream(self.codec, self.payload, self.length)
        return self._stream

    def attach(self, vector: BitVector) -> None:
        vector.words.flags.writeable = False
        self.decoded = vector
        self._stream = None


class PayloadPool:
    """LRU cache of compressed payloads plus their decoded copies.

    Capacity is in pages.  Encoded payloads are admitted and evicted in
    LRU order exactly as if no decoded copy existed.  A decoded copy
    only takes room the encoded payloads leave free, charged in decoded
    pages, and is the first thing dropped when a payload needs that
    room; it also goes with its payload on eviction or a store-version
    change.
    """

    def __init__(self, store, capacity_pages: int, clock: CostClock | None):
        self._store = store
        self._codec_name = store.codec.name
        self._capacity = capacity_pages
        self._clock = clock
        self._resident: OrderedDict[
            Hashable, tuple[PooledBitmap, int, int]
        ] = OrderedDict()
        #: Pages of resident encoded payloads / of their decoded copies.
        self._used = 0
        self._decoded_used = 0
        self.stats = BufferStats()

    def fetch(self, key: Hashable) -> PooledBitmap:
        entry = self._resident.get(key)
        o = _obs.active()
        if entry is not None:
            bitmap, pages, version = entry
            if version != self._store.version(key):
                # The stored payload was replaced (an append rewrites
                # every bitmap); drop the entry and read through below.
                self._drop(key)
            else:
                self._resident.move_to_end(key)
                self.stats.hits += 1
                if o is not None:
                    o.count("buffer.hits", 1, pool="compressed")
                return bitmap
        self.stats.misses += 1
        if o is not None:
            o.count("buffer.misses", 1, pool="compressed")
        payload, length = self._store.get_payload(key)
        pages = pages_for(len(payload), self._store.page_size)
        if self._clock is not None:
            # No decompression charge: the payload is used as-is.
            self._clock.charge_read(pages)
        bitmap = PooledBitmap(key, payload, length, self._codec_name)
        while self._resident and self._used + pages > self._capacity:
            self._drop(next(iter(self._resident)))
            self.stats.evictions += 1
            if o is not None:
                o.count("buffer.evictions", 1, pool="compressed")
        self._resident[key] = (bitmap, pages, self._store.version(key))
        self._used += pages
        self._free_decoded(0)
        if o is not None:
            o.gauge_set("buffer.used_pages", self.used_pages, pool="compressed")
        return bitmap

    def fetch_many(self, keys) -> list[PooledBitmap]:
        """:meth:`fetch` of each key in order."""
        return [self.fetch(key) for key in keys]

    @property
    def used_pages(self) -> int:
        """Pages held by resident payloads and their decoded copies."""
        return self._used + self._decoded_used

    def sources(
        self, bitmaps: Sequence[PooledBitmap]
    ) -> list[BitVector | BlockStream]:
        """What the evaluator reads for each of the distinct ``bitmaps``.

        A bitmap's decoded copy when it has one, or when the copy (one
        ``Codec.decode``) fits beside the encoded payloads and the copies
        of the other ``bitmaps``, dropping other copies LRU-first to make
        room; otherwise its block stream.
        """
        held = [b for b in bitmaps if b.decoded is not None]
        if len(held) == len(bitmaps):
            return [b.decoded for b in bitmaps]
        page_size = self._store.page_size
        in_use = {id(b) for b in held}
        pinned = sum(decoded_pages(b.length, page_size) for b in held)
        out = []
        for bitmap in bitmaps:
            if bitmap.decoded is None and self._holds(bitmap):
                need = decoded_pages(bitmap.length, page_size)
                if self._used + pinned + need <= self._capacity:
                    self._free_decoded(need, keep=in_use)
                    codec = get_codec(self._codec_name)
                    bitmap.attach(codec.decode(bitmap.payload, bitmap.length))
                    self._decoded_used += need
                    pinned += need
                    in_use.add(id(bitmap))
            out.append(bitmap.stream() if bitmap.decoded is None else bitmap.decoded)
        return out

    def _holds(self, bitmap: PooledBitmap) -> bool:
        """True iff ``bitmap`` is the pool's current resident for its key."""
        entry = self._resident.get(bitmap.key)
        return entry is not None and entry[0] is bitmap

    def _free_decoded(self, incoming: int, keep=frozenset()) -> None:
        """Drop decoded copies, least recently used first, until
        ``incoming`` more decoded pages fit; copies of the bitmaps whose
        ids are in ``keep`` stay."""
        for bitmap, _, _ in self._resident.values():
            if self.used_pages + incoming <= self._capacity:
                return
            if bitmap.decoded is not None and id(bitmap) not in keep:
                self._drop_decoded(bitmap)

    def _drop_decoded(self, bitmap: PooledBitmap) -> None:
        self._decoded_used -= decoded_pages(bitmap.length, self._store.page_size)
        bitmap.decoded = None

    def _drop(self, key: Hashable) -> None:
        bitmap, pages, _ = self._resident.pop(key)
        self._used -= pages
        if bitmap.decoded is not None:
            self._drop_decoded(bitmap)

    def clear(self) -> None:
        """Drop every resident payload and copy (stats are kept)."""
        for key in list(self._resident):
            self._drop(key)
