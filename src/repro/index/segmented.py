"""Horizontally segmented bitmap indexes with size-tiered compaction
(extension).

Production bitmap indexes partition the relation into horizontal
segments with an independent index per segment: appends only rebuild
the tail segment, from its kept codes plus the new rows (no decode or
re-encode of old bitmaps, unlike
:meth:`~repro.index.BitmapIndex.append`), segments can be evaluated
independently, and per-segment answers concatenate into the global
answer because record ids are segment-local offsets.

Segments come in *tiers*.  Appends fill a ``segment_size`` tail; once
:data:`FANOUT` sealed segments of one size sit at the end of the list
they merge into one segment of the next tier, rebuilt from their rows
so that a reordered spec sorts the whole merged block (larger sorted
blocks compress far better — Lemire, Kaser & Aouiche, *Sorting improves
word-aligned bitmap indexes*).  Tiers stop at ``segment_size *
MAX_TIER_SEGMENTS`` rows.  A bulk :meth:`SegmentedBitmapIndex.build`
lays the same tiers out directly, so a built index and one grown by
appends from empty have the same segment sizes.  Segment boundaries
are therefore explicit (:meth:`SegmentedBitmapIndex.boundaries`), not
multiples of ``segment_size``.

Every segment shares the same :class:`~repro.index.IndexSpec`.
Queries run through :class:`~repro.serve.shard_worker.ShardEngine`,
the one per-index evaluator.
"""

from __future__ import annotations

import time
from itertools import accumulate

import numpy as np

from repro.errors import EncodingSchemeError, ReproError
from repro.index.bitmap_index import (
    BitmapIndex,
    IndexSpec,
    UpdateReport,
    count_touched,
)

#: Default rows per tail segment (small relative to a shard so appends
#: seal segments regularly).
DEFAULT_SEGMENT_SIZE = 4096
#: Sealed segments of one tier that merge into one of the next tier.
FANOUT = 4
#: The largest tier, in ``segment_size`` units (``FANOUT ** 3``: 262,144
#: rows at the default segment size).  Larger merges cost more peak
#: memory than they save per query.
MAX_TIER_SEGMENTS = FANOUT**3


def code_dtype(cardinality: int) -> np.dtype:
    """The narrowest unsigned dtype holding every value of ``[0, C)``."""
    return np.min_scalar_type(max(cardinality - 1, 0))


class SegmentedBitmapIndex:
    """A bitmap index split into size-tiered horizontal segments."""

    def __init__(self, spec: IndexSpec, segment_size: int = DEFAULT_SEGMENT_SIZE):
        if segment_size < 1:
            raise ReproError(
                f"segment size must be >= 1, got {segment_size}"
            )
        self.spec = spec
        self.segment_size = segment_size
        self._segments: list[BitmapIndex] = []
        #: Each segment's raw codes in arrival order, in the narrowest
        #: dtype that holds the cardinality — what a merge re-sorts.  A
        #: sorted segment's are its reordering's own codes array.
        self._codes: list[np.ndarray] = []
        self._code_dtype = code_dtype(spec.cardinality)
        #: Monotonic update counter: bumped by every :meth:`append`
        #: (mirrors :attr:`repro.index.BitmapIndex.epoch`).
        self.epoch = 0

    @classmethod
    def build(
        cls,
        values: np.ndarray,
        spec: IndexSpec,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> "SegmentedBitmapIndex":
        """Build from a column, laying out the tiers directly.

        The largest tiers come first, then at most ``FANOUT - 1``
        segments of each smaller tier, then a partial tail: exactly the
        layout appending ``values`` to an empty index would compact to,
        without building the intermediate segments.
        """
        index = cls(spec, segment_size)
        vals = index._checked(values)
        offset = 0
        for size in index._tier_sizes(vals.size):
            index._add_segment(vals[offset : offset + size])
            offset += size
        if vals.size:
            index.epoch = 1
        return index

    # ------------------------------------------------------------------

    @property
    def max_tier_rows(self) -> int:
        """Rows in a segment of the largest tier."""
        return self.segment_size * MAX_TIER_SEGMENTS

    @property
    def num_segments(self) -> int:
        """Number of segments currently materialized."""
        return len(self._segments)

    @property
    def num_records(self) -> int:
        """Total records across segments."""
        return sum(segment.num_records for segment in self._segments)

    @property
    def cardinality(self) -> int:
        """Attribute cardinality C."""
        return self.spec.cardinality

    def segments(self) -> list[BitmapIndex]:
        """The per-segment indexes, in record order."""
        return list(self._segments)

    def boundaries(self) -> list[int]:
        """Every row a split may cut at: 0, each segment's end row."""
        return [0, *accumulate(s.num_records for s in self._segments)]

    def is_boundary(self, row: int) -> bool:
        """True when ``row`` falls between two segments (or at an end)."""
        return row in self.boundaries()

    def size_bytes(self) -> int:
        """Total stored size across segments."""
        return sum(segment.size_bytes() for segment in self._segments)

    def num_bitmaps(self) -> int:
        """Total stored bitmaps across segments."""
        return sum(segment.num_bitmaps() for segment in self._segments)

    # ------------------------------------------------------------------

    def append(self, values: np.ndarray) -> UpdateReport:
        """Append records, filling the tail segment before opening new
        ones, and compact every run of sealed segments this completes.

        A partial tail is rebuilt from its codes plus the new rows
        (re-sorted under a reordered spec, so a grown segment stores
        exactly what a built one does) and replaced; merged segments are
        likewise replaced by a new one.  No segment is ever mutated, so
        an index that shares them (:meth:`split_at`) is unaffected.
        ``bitmaps_touched`` is read off the scheme catalog from each
        chunk's distinct values
        (:func:`~repro.index.bitmap_index.count_touched`).  An empty
        batch changes nothing and must not bump the epoch (a bump
        would sweep every serving result cache keyed on it for no
        reason).  A merge leaves every answer unchanged, so it adds no
        epoch bump of its own.
        """
        vals = self._checked(values)
        if vals.size == 0:
            return UpdateReport(
                records_appended=0, bitmaps_extended=0, bitmaps_touched=0
            )
        touched = 0
        extended = 0
        # (rows, encoded bytes) of every merge this append triggers.
        merged: list[tuple[int, int]] = []
        compaction_s = 0.0
        offset = 0
        while offset < vals.size:
            tail = self._codes[-1] if self._codes else None
            if tail is None or tail.size >= self.segment_size:
                chunk = codes = vals[offset : offset + self.segment_size]
            else:
                # A partial tail is rebuilt from its codes plus the chunk
                # and replaced, never mutated.
                chunk = vals[offset : offset + self.segment_size - tail.size]
                codes = np.concatenate([tail, chunk.astype(self._code_dtype)])
                del self._segments[-1]
                del self._codes[-1]
            segment = self._add_segment(codes)
            touched += count_touched(segment.scheme, segment.bases, chunk)
            extended += segment.num_bitmaps()
            offset += len(chunk)
            if segment.num_records == self.segment_size:
                start = time.perf_counter()
                merged += self._compact()
                compaction_s += time.perf_counter() - start
        self.epoch += 1
        return UpdateReport(
            records_appended=int(vals.size),
            bitmaps_extended=extended,
            bitmaps_touched=touched,
            merges=len(merged),
            segments_merged=FANOUT * len(merged),
            rows_merged=sum(rows for rows, _ in merged),
            bytes_merged=sum(size for _, size in merged),
            compaction_ms=compaction_s * 1e3,
        )

    # ------------------------------------------------------------------

    def split_at(
        self, row: int
    ) -> tuple["SegmentedBitmapIndex", "SegmentedBitmapIndex"]:
        """Split into two indexes at a segment boundary.

        Returns ``(left, right)`` where ``left`` holds rows
        ``[0, row)`` and ``right`` holds rows ``[row, num_records)``.
        Segments are shared by reference — no bitmap is decoded or
        re-encoded, which is what makes shard splits cheap — so ``row``
        must be one of :meth:`boundaries`.  Callers that need any other
        split point rebuild from rows instead.

        Both halves start at epoch 0 (they are new indexes with new
        update histories); ``self`` is not mutated and must simply be
        discarded by callers that treat the split as a move.
        """
        if row < 0 or row > self.num_records:
            raise ReproError(
                f"split row {row} outside [0, {self.num_records}]"
            )
        bounds = self.boundaries()
        if row not in bounds:
            raise ReproError(
                f"split row {row} is not a segment boundary; rebuild "
                f"from rows for arbitrary split points"
            )
        cut = bounds.index(row)
        left = SegmentedBitmapIndex(self.spec, self.segment_size)
        left._segments = self._segments[:cut]
        left._codes = self._codes[:cut]
        right = SegmentedBitmapIndex(self.spec, self.segment_size)
        right._segments = self._segments[cut:]
        right._codes = self._codes[cut:]
        return left, right

    # ------------------------------------------------------------------

    def _checked(self, values) -> np.ndarray:
        vals = np.asarray(values)
        if vals.size and (vals.min() < 0 or vals.max() >= self.cardinality):
            raise EncodingSchemeError(
                f"batch values outside domain [0, {self.cardinality})"
            )
        return vals

    def _tier_sizes(self, rows: int) -> list[int]:
        """Segment sizes of a compacted ``rows``-row layout, in order."""
        sizes: list[int] = []
        tier = self.max_tier_rows
        while tier >= self.segment_size:
            count, rows = divmod(rows, tier)
            sizes += [tier] * count
            tier //= FANOUT
        if rows:
            sizes.append(rows)
        return sizes

    def _add_segment(self, values: np.ndarray) -> BitmapIndex:
        codes = np.asarray(values).astype(self._code_dtype)
        segment = BitmapIndex.build(codes, self.spec)
        reordering = segment.reordering
        if reordering is not None and reordering.codes is not None:
            # A one-column sort keeps the same codes; hold one array.
            codes = reordering.codes
        self._segments.append(segment)
        self._codes.append(codes)
        return segment

    def _compact(self) -> list[tuple[int, int]]:
        """Merge trailing runs of ``FANOUT`` equal sealed segments.

        Each merge rebuilds one next-tier segment from the run's codes
        (re-sorting them under a reordered spec); a merge can complete
        another run one tier up, so this cascades.  Returns ``(rows,
        encoded bytes)`` of each run merged.
        """
        merged = []
        while len(self._segments) >= FANOUT:
            run = self._segments[-FANOUT:]
            size = run[0].num_records
            if (
                size < self.segment_size
                or size * FANOUT > self.max_tier_rows
                or any(segment.num_records != size for segment in run)
            ):
                break
            codes = np.concatenate(self._codes[-FANOUT:])
            merged.append(
                (codes.size, sum(segment.size_bytes() for segment in run))
            )
            del self._segments[-FANOUT:]
            del self._codes[-FANOUT:]
            self._add_segment(codes)
        return merged

    def __repr__(self) -> str:
        return (
            f"SegmentedBitmapIndex({self.spec.label}, "
            f"segments={self.num_segments}, tail={self.segment_size}, "
            f"N={self.num_records})"
        )

