"""One LRU buffer pool over a bitmap store, for either cost convention.

The query evaluation phase (Section 6.3) is a scheduling problem only
because the buffer is finite: bitmaps evicted between constituent
queries must be re-read from disk.  :class:`BufferPool` makes that
observable — every fetch is either a hit (free) or a miss (charged to
the :class:`~repro.storage.iomodel.CostClock`), and eviction is LRU in
pages.  Each entry is a payload handle (key, encoded bytes and pages,
store version) plus at most one derived form of the bitmap; the pool's
:class:`Residency` decides what a miss reads, what it is charged, what
an entry costs and what each leaf is handed.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import RawCodec
from repro.compress.streams import BlockStream, open_stream
from repro.errors import BufferError_
from repro.storage.iomodel import CostClock
from repro.storage.pages import decoded_pages, pages_for
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


@dataclass(frozen=True)
class Residency:
    """A :class:`BufferPool`'s policy: one row per cost convention.

    ==============  ===========================  ==========================
    ``name``        ``"decoded"`` (the paper's)  ``"compressed"``
    ==============  ===========================  ==========================
    a miss reads    the decoded bitmap           the payload as it is
    a miss charges  read pages + decompression   read pages
    an entry costs  decoded pages; the decoded   encoded pages; a decoded
                    bitmap is its derived form   copy only in free room,
                                                 dropped first
    a leaf gets     the decoded bitmap           its copy if one fits,
                                                 else its block stream
    ==============  ===========================  ==========================

    With ``probe`` (value space, see
    :meth:`~repro.index.BitmapIndex.value_probe`) every derived form is
    instead the bitmap's bits at the probe positions, read for all of a
    batch's bitmaps lacking one in one :meth:`Codec.probe_many` call and
    charged as the decoded bitmap it stands in for; a compressed entry
    without room for that keeps its bits uncharged, as it would a stream.
    """

    #: The convention, and the ``pool`` label of the ``buffer.*`` counters.
    name: str
    #: Returns ``(positions, length)``; None evaluates whole rows.
    probe: Callable[[], tuple[np.ndarray, int]] | None = None

    @property
    def keeps_payload(self) -> bool:
        """Whether entries hold their encoded payload (the compressed row)."""
        return self.name == "compressed"


DECODED = Residency("decoded")
COMPRESSED = Residency("compressed")


class _Entry:
    """A payload handle plus at most one derived form (``form``; a copy
    charged ``copy_pages`` of free room, or an uncharged stream)."""

    __slots__ = ("key", "payload", "length", "pages", "version", "form", "copy_pages")

    def __init__(self, key, payload, length, pages, version, form):
        self.key, self.payload, self.length = key, payload, length
        self.pages, self.version, self.form = pages, version, form
        self.copy_pages = 0


_COUNTERS = ("buffer.hits", "buffer.misses", "buffer.evictions")


class BufferPool:
    """Fixed-capacity LRU cache of bitmaps, measured in pages.

    Parameters
    ----------
    store:
        Backing :class:`BitmapStore`.
    capacity_pages:
        Buffer size in pages.  Must be at least one; a fetch larger than
        the whole capacity is still served (it occupies the pool alone).
    clock:
        Optional cost clock charged for misses.
    policy:
        The :class:`Residency` (default :data:`DECODED`).
    """

    def __init__(
        self,
        store: BitmapStore,
        capacity_pages: int,
        clock: CostClock | None = None,
        policy: Residency = DECODED,
    ):
        if capacity_pages < 1:
            raise BufferError_(
                f"buffer capacity must be >= 1 page, got {capacity_pages}"
            )
        self._store = store
        self._capacity = capacity_pages
        self._clock = clock
        self.policy = policy
        # A decoded entry is the vector callers receive and may resize.
        self._remeasure = not policy.keeps_payload and policy.probe is None
        self._resident: OrderedDict[Hashable, _Entry] = OrderedDict()
        #: Pages of the entries themselves / of compressed entries' copies.
        self._entry_pages = 0
        self._copy_pages = 0
        self.stats = BufferStats()

    @property
    def capacity_pages(self) -> int:
        """Configured capacity in pages."""
        return self._capacity

    @property
    def used_pages(self) -> int:
        """Pages occupied by resident entries and their decoded copies."""
        return self._entry_pages + self._copy_pages

    def fetch(self, key: Hashable) -> BitVector | BlockStream:
        """What the evaluator reads for ``key``, reading through on a miss.

        A resident entry is served only while the store's per-key write
        version is unchanged; a re-stored bitmap (an append replaces
        every bitmap of an index) drops the entry and its derived form,
        and is re-read and re-charged like any other miss.  A decoded
        entry is the bitmap callers receive and can change size in
        place, so each hit on one re-measures it and settles the
        difference against the pool's pages, evicting colder entries if
        it outgrew its old footprint.
        """
        return self.fetch_many((key,))[0]

    def fetch_many(self, keys: Iterable[Hashable]) -> list[BitVector | BlockStream]:
        """:meth:`fetch` of each of the distinct ``keys``, in order."""
        keys = list(keys)
        if len(set(keys)) != len(keys):
            raise BufferError_("fetch_many needs distinct keys")
        stats = self.stats
        before = (stats.hits, stats.misses, stats.evictions)
        entries: list[_Entry] = []
        try:
            for key in keys:
                entries.append(self._hit(key) or self._read(key))
            if self.policy.probe is not None:
                self._probe([entry for entry in entries if entry.form is None])
            if self.policy.keeps_payload:
                return self._sources(entries)
            return [entry.form for entry in entries]
        except BaseException:
            if not self.policy.keeps_payload:  # no decoded entry without its form
                for entry in entries:
                    if entry.form is None and self._resident.get(entry.key) is entry:
                        self._drop(entry.key)
            raise
        finally:
            o = _obs.active()
            if o is not None:
                pool = self.policy.name
                after = (stats.hits, stats.misses, stats.evictions)
                for name, was, now in zip(_COUNTERS, before, after):
                    if now != was:
                        o.count(name, now - was, pool=pool)
                o.gauge_set("buffer.used_pages", self.used_pages, pool=pool)

    def _probe(self, entries: list[_Entry]) -> None:
        """Give each of ``entries`` its bits at the probe positions, read
        in one :meth:`Codec.probe_many` call."""
        if entries:
            positions, length = self.policy.probe()
            payloads = [entry.payload for entry in entries]
            bits = self._store.codec.probe_many(payloads, length, positions)
            for entry, row in zip(entries, bits):
                entry.form = BitVector.from_bools(row)

    def _sources(self, entries: list[_Entry]) -> list[BitVector | BlockStream]:
        """Compressed entries' forms: a decoded copy (in value space, the
        probed bits charged as one) when one is held or fits beside the
        payloads and this batch's other copies (dropping other copies
        LRU-first to make room), else the block stream (or uncharged bits)."""
        lacking = [entry for entry in entries if not entry.copy_pages]
        if lacking:
            keep = {entry.key for entry in entries}
            pinned = self._entry_pages + sum(entry.copy_pages for entry in entries)
            codec = self._store.codec
            for entry in lacking:
                need = decoded_pages(entry.length, self._store.page_size)
                if self._resident.get(entry.key) is entry and pinned + need <= self._capacity:
                    self._free_copies(need, keep)
                    if self.policy.probe is None:
                        entry.form = codec.decode(entry.payload, entry.length)
                        entry.form.words.flags.writeable = False
                    entry.copy_pages = need
                    self._copy_pages += need
                    pinned += need
                elif entry.form is None:
                    entry.form = open_stream(codec.name, entry.payload, entry.length)
        o = _obs.active()
        if o is not None:  # probed bits count as the form they stand in for
            copies = sum(1 for entry in entries if entry.copy_pages)
            for path, count in (("words", copies), ("stream", len(entries) - copies)):
                if count:
                    o.count("compress.physical", count, path=path)
        return [entry.form for entry in entries]

    def _hit(self, key: Hashable) -> _Entry | None:
        """The resident entry for ``key`` (counted as a hit), or None."""
        entry = self._resident.get(key)
        if entry is None:
            return None
        if entry.version != self._store.version(key):
            # Stale: the stored payload was replaced after this read.
            self._drop(key)
            return None
        if self._remeasure:
            pages = pages_for(entry.form.num_words * 8, self._store.page_size)
            if pages != entry.pages:
                self._entry_pages += pages - entry.pages
                entry.pages = pages
                self._evict_to_fit(0, keep=key)
        self._resident.move_to_end(key)
        self.stats.hits += 1
        return entry

    def _read(self, key: Hashable) -> _Entry:
        """Count and charge a miss of ``key`` and make it resident."""
        self.stats.misses += 1
        store, policy = self._store, self.policy
        info = store.info(key)
        payload = form = None
        if policy.keeps_payload:
            payload, pages = store.get_payload(key)[0], info.pages
        else:
            pages = decoded_pages(info.length, store.page_size)
            # Decode through the payload view: zero-copy words over a
            # mapped store, a heap view otherwise.  Charges are measured
            # from ``info`` either way, so the two paths account alike.
            # A probed entry's form is read with its batch.
            if policy.probe is None:
                form = store.get_view(key)
            else:
                payload = store.payload_view(key)
        if self._clock is not None:
            self._clock.charge_read(info.pages)
            if not policy.keeps_payload and not isinstance(store.codec, RawCodec):
                self._clock.charge_decompress(info.encoded_bytes)
        self._evict_to_fit(pages)
        entry = _Entry(key, payload, info.length, pages, store.version(key), form)
        self._resident[key] = entry
        self._entry_pages += pages
        self._free_copies(0)
        return entry

    def _evict_to_fit(self, incoming: int, keep: Hashable | None = None) -> None:
        """Evict entries, LRU first, until ``incoming`` more entry pages
        fit (copies aside); ``keep`` stays."""
        while self._entry_pages + incoming > self._capacity:
            victim = next((k for k in self._resident if k != keep), None)
            if victim is None:
                break
            self._drop(victim)
            self.stats.evictions += 1

    def _free_copies(self, incoming: int, keep=frozenset()) -> None:
        """Drop decoded copies, LRU first, until ``incoming`` more pages
        fit; copies of the keys in ``keep`` stay."""
        for entry in self._resident.values():
            if self.used_pages + incoming <= self._capacity:
                return
            if entry.key not in keep:
                self._drop_copy(entry)

    def _drop_copy(self, entry: _Entry) -> None:
        if entry.copy_pages:
            self._copy_pages -= entry.copy_pages
            entry.form, entry.copy_pages = None, 0

    def _drop(self, key: Hashable) -> None:
        """Drop ``key``'s entry and its copy; a decoded entry's form stays
        with whoever holds the entry (a batch still serves it)."""
        entry = self._resident.pop(key)
        self._entry_pages -= entry.pages
        self._drop_copy(entry)

    def contains(self, key: Hashable) -> bool:
        """True iff ``key`` is resident (does not touch LRU order)."""
        return key in self._resident

    def clear(self) -> None:
        """Drop every resident entry (stats are kept)."""
        self._resident.clear()
        self._entry_pages = self._copy_pages = 0
        o = _obs.active()
        if o is not None:
            o.gauge_set("buffer.used_pages", 0, pool=self.policy.name)
