"""Build-time row reordering (extension).

Bitmap codecs are run-length compressors, so the order rows arrive in
is a compression knob: sorting the relation lexicographically turns
each value's scattered occurrences into contiguous runs, which
word-aligned codecs (BBC/WAH/EWAH) collapse into a handful of fill
words and roaring collapses into run containers.  Kaser & Lemire
("Histogram-Aware Sorting for Enhanced Word-Aligned Compression in
Bitmap Indexes") and Lemire, Kaser & Aouiche ("Sorting improves
word-aligned bitmap indexes") show integer-factor size reductions and
proportionally faster compressed-domain operations from exactly this
preprocessing pass.

This module provides that pass:

* :func:`choose_column_order` picks the histogram-aware sort-key order
  — lowest cardinality first, most skewed first among ties — so the
  leading sort keys produce the longest runs across *every* column;
* :func:`reorder_rows` sorts a set of columns by that key order and
  returns the reordered columns plus a :class:`RowReordering`;
* :class:`RowReordering` maps positions in the sorted layout back to
  original record ids, so query answers computed in sorted space are
  translated at the result boundary and clients never see reordered
  ids.  A one-column sort keeps the column's codes (1 B/row) and
  restores an answer from them; a joint sort or a loaded index keeps an
  int64 permutation.  Appended rows land *past* the sorted prefix as
  identity entries (:meth:`RowReordering.extend`), so tail-append paths
  (segments, shards) keep working unchanged.

Everything between build and result mapping — compressed-domain ops,
expression evaluation, thresholds, serving — operates purely in sorted
space and needs no knowledge of the permutation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.bitmap import BitVector
from repro.errors import ReproError

#: Reordering strategies accepted by specs, configs and the CLI.
REORDER_STRATEGIES = ("none", "lexicographic")


def validate_strategy(strategy: str) -> str:
    """``strategy``, or raise for values outside :data:`REORDER_STRATEGIES`."""
    if strategy not in REORDER_STRATEGIES:
        raise ReproError(
            f"unknown reorder strategy {strategy!r}; "
            f"expected one of {REORDER_STRATEGIES}"
        )
    return strategy


#: The restore's cost model, in row-compare units: a range compare over
#: the codes costs its rows plus :data:`RESTORE_CALL_ROWS` of per-call
#: overhead, the value-table gather :data:`RESTORE_GATHER_PASSES` per row.
#: Fitted to the restore cells of ``benchmarks/bench_hardware.py``
#: (``docs/performance.md`` §9): the compares win up to about 3 runs at
#: 4,096 rows and about 9 at 262,144.
RESTORE_CALL_ROWS = 20_000
RESTORE_GATHER_PASSES = 9


def restore_by_compare(runs: int, rows: int) -> bool:
    """True when ``runs`` range compares over ``rows`` codes beat one
    value-table gather (see :data:`RESTORE_CALL_ROWS`)."""
    return (runs - 1) * (rows + RESTORE_CALL_ROWS) <= (
        RESTORE_GATHER_PASSES * rows + RESTORE_CALL_ROWS
    )


class RowReordering:
    """A row reordering mapping sorted positions to original ids.

    It has one of two forms:

    * a stored *permutation*: ``permutation[p]`` is the original record
      id of the row stored at position ``p`` (table-level joint sorts
      and indexes loaded from disk);
    * one column's *codes* (:meth:`from_sort`): the column in arrival
      order, 1 B/row for small cardinalities, plus one stored position
      per value.  The permutation is derived on demand and never kept.

    ``num_sorted`` is the length of the sorted prefix — rows appended
    after the build sit past it in arrival order (identity entries), so
    the mapping stays a bijection without re-sorting the index.
    """

    __slots__ = (
        "_permutation",
        "codes",
        "_positions",
        "_probe_cache",
        "_size",
        "num_sorted",
        "strategy",
        "_identity",
    )

    def __init__(
        self,
        permutation: np.ndarray,
        num_sorted: int | None = None,
        strategy: str = "lexicographic",
    ):
        perm = np.ascontiguousarray(permutation, dtype=np.int64)
        if perm.ndim != 1:
            raise ReproError(
                f"permutation must be 1-d, got ndim={perm.ndim}"
            )
        self._permutation = perm
        #: The sorted column's codes in arrival order (codes form), or None.
        self.codes: np.ndarray | None = None
        self._size = perm.size
        self._init_prefix(num_sorted, strategy)

    def _init_prefix(self, num_sorted: int | None, strategy: str) -> None:
        self.num_sorted = self._size if num_sorted is None else int(num_sorted)
        if not 0 <= self.num_sorted <= self._size:
            raise ReproError(
                f"sorted prefix {self.num_sorted} outside "
                f"[0, {self._size}]"
            )
        self.strategy = strategy
        self._identity: bool | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, size: int, strategy: str = "none") -> "RowReordering":
        """The do-nothing reordering over ``size`` rows."""
        return cls(np.arange(size, dtype=np.int64), size, strategy)

    @classmethod
    def from_sort(
        cls, values: np.ndarray, strategy: str = "lexicographic"
    ) -> "RowReordering":
        """Stable ascending sort of one column (its lexicographic order).

        A column of non-negative integers is kept as its codes, in the
        narrowest unsigned dtype that holds them; each value's stored
        position is where its run starts in the sorted layout.
        """
        vals = np.asarray(values)
        if vals.dtype.kind not in "biu" or (vals.size and vals.min() < 0):
            return cls(
                np.argsort(vals, kind="stable").astype(np.int64),
                vals.size,
                strategy,
            )
        top = int(vals.max()) if vals.size else 0
        codes = vals.astype(np.min_scalar_type(top))
        counts = np.bincount(codes, minlength=top + 1)
        positions = np.cumsum(counts) - counts
        positions[counts == 0] = -1
        return cls._of_codes(codes, positions, codes.size, strategy)

    @classmethod
    def _of_codes(
        cls, codes: np.ndarray, positions: np.ndarray, num_sorted: int, strategy: str
    ) -> "RowReordering":
        """The codes form over ``codes`` (``positions[v]``: a stored
        position holding value ``v``, or -1)."""
        reordering = cls.__new__(cls)
        reordering._permutation = None
        reordering.codes = codes
        reordering._positions = positions
        reordering._probe_cache = None
        reordering._size = codes.size
        reordering._init_prefix(num_sorted, strategy)
        return reordering

    @classmethod
    def validated(
        cls,
        permutation: np.ndarray,
        num_sorted: int,
        strategy: str,
        expected_size: int,
    ) -> "RowReordering":
        """Construct from untrusted input (the persistence loader).

        Checks the array is a true permutation of ``0..expected_size-1``
        — a corrupt or truncated permutation would silently misattribute
        every query answer, which is worse than failing the load.
        """
        perm = np.ascontiguousarray(permutation, dtype=np.int64)
        if perm.size != expected_size:
            raise ReproError(
                f"permutation has {perm.size} entries, index has "
                f"{expected_size} records"
            )
        if perm.size and not np.array_equal(
            np.sort(perm), np.arange(perm.size, dtype=np.int64)
        ):
            raise ReproError(
                "permutation is not a bijection over "
                f"[0, {perm.size}): duplicate or out-of-range entries"
            )
        return cls(perm, num_sorted, strategy)

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of rows covered."""
        return self._size

    @property
    def permutation(self) -> np.ndarray:
        """``permutation[p]``: the original id of stored row ``p``.

        Derived from the codes on every access in the codes form (a
        stable argsort of the sorted prefix, then identity entries), so
        it is never held in memory there.
        """
        if self.codes is None:
            return self._permutation
        prefix = np.argsort(self.codes[: self.num_sorted], kind="stable")
        return np.concatenate(
            [prefix, np.arange(self.num_sorted, self._size)]
        ).astype(np.int64)

    @property
    def is_identity(self) -> bool:
        """True when mapping through this reordering is a no-op.

        Computed once and cached — :meth:`extend` appends identity
        entries, which never changes the answer, so the cache survives
        appends.
        """
        if self._identity is None:
            if self.codes is None:
                self._identity = bool(
                    np.array_equal(
                        self._permutation,
                        np.arange(self._size, dtype=np.int64),
                    )
                )
            else:
                prefix = self.codes[: self.num_sorted]
                self._identity = bool(np.all(prefix[1:] >= prefix[:-1]))
        return self._identity

    def copy(self) -> "RowReordering":
        """An independent copy (indexes mutate theirs on append)."""
        if self.codes is None:
            return RowReordering(
                self._permutation.copy(), self.num_sorted, self.strategy
            )
        return RowReordering._of_codes(
            self.codes.copy(), self._positions.copy(), self.num_sorted, self.strategy
        )

    # ------------------------------------------------------------------
    # The two directions
    # ------------------------------------------------------------------

    def apply(self, values: np.ndarray) -> np.ndarray:
        """A column in sorted row order (what indexes are built over)."""
        vals = np.asarray(values)
        if vals.shape[0] != self._size:
            raise ReproError(
                f"column has {vals.shape[0]} rows, permutation covers "
                f"{self._size}"
            )
        return vals[self.permutation]

    def sorted_codes(self) -> np.ndarray:
        """The codes form's sorted prefix in stored order (what
        :meth:`apply` returns for the sorted column, without a sort)."""
        counts = np.bincount(self.codes[: self.num_sorted])
        return np.repeat(np.arange(counts.size, dtype=self.codes.dtype), counts)

    def to_original(self, row_ids: np.ndarray) -> np.ndarray:
        """Sorted original record ids for sorted-space ``row_ids``."""
        ids = np.asarray(row_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self._size):
            raise ReproError(f"row ids outside [0, {self._size})")
        out = self.permutation[ids]
        out.sort()
        return out

    def restore_bitmap(self, bitmap: BitVector) -> BitVector:
        """Any bitmap translated from sorted to original row order.

        Bit ``permutation[p]`` of the result equals bit ``p`` of the
        input — one vectorized scatter.
        """
        self._check_length(bitmap)
        original = np.zeros(self._size, dtype=bool)
        original[self.permutation] = bitmap.to_bools()
        return BitVector.from_bools(original)

    def restore_answer(self, bitmap: BitVector) -> BitVector:
        """An answer of the sorted column's own index, in original order.

        Such an answer sets a row's bit by the row's value alone.  The
        codes form therefore reads one bit per value, at
        :meth:`probe_positions`, and rebuilds the answer from those
        (:meth:`answer_of_values`).  The permutation form restores it
        like any bitmap (:meth:`restore_bitmap`).
        """
        if self.codes is None:
            return self.restore_bitmap(bitmap)
        self._check_length(bitmap)
        if self._size == 0:
            return BitVector(0)
        return self.answer_of_values(BitVector.from_bools(bitmap.take(self.probe_positions())))

    def answer_of_values(self, values: BitVector) -> BitVector:
        """The original-order answer giving each row its value's bit in
        ``values`` (codes form): one unsigned range compare over the codes
        per run of set values, or one value-table gather when that is
        cheaper (:func:`restore_by_compare`)."""
        hits = values.to_bools()
        edges = np.zeros(hits.size + 2, dtype=bool)
        edges[1:-1] = hits
        bounds = np.flatnonzero(edges[1:] != edges[:-1]).tolist()
        starts, stops = bounds[0::2], bounds[1::2]
        codes, top = self.codes, hits.size
        if not starts:
            return BitVector(self._size)
        if starts == [0] and stops == [top]:
            return BitVector.ones(self._size)
        if not restore_by_compare(len(starts), self._size):
            return BitVector.from_bools(hits.take(codes))
        bits = None
        for lo, hi in zip(starts, stops):
            if lo == 0:
                run = codes < hi
            elif hi == top:
                run = codes >= lo
            else:
                run = np.subtract(codes, lo, dtype=codes.dtype) < hi - lo
            bits = run if bits is None else np.bitwise_or(bits, run, out=bits)
        return BitVector.from_bools(bits)

    def probe_positions(self) -> np.ndarray:
        """A stored position for every value up to the largest code
        (codes form only).  A value that no row holds borrows the next
        held value's position (its bit is never read back, and borrowing
        keeps answer runs unbroken).  Cached until :meth:`extend`.
        """
        if self._probe_cache is None:
            held = np.flatnonzero(self._positions >= 0)
            nearest = np.minimum(
                np.searchsorted(held, np.arange(self._positions.size)),
                held.size - 1,
            )
            self._probe_cache = self._positions[held[nearest]].astype(np.int64)
        return self._probe_cache

    def _check_length(self, bitmap: BitVector) -> None:
        if len(bitmap) != self._size:
            raise ReproError(
                f"bitmap length {len(bitmap)} does not match permutation "
                f"size {self._size}"
            )

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def extend(self, values) -> None:
        """Track rows appended past the sorted prefix.

        Appended rows keep their arrival positions (identity entries),
        so only the prefix built at sort time is sorted; ``num_sorted``
        is unchanged and records where the sorted run ends.  ``values``
        is the appended rows' values.  The codes form appends them as
        codes and gives each value it has not held before the position
        of its first new row.
        """
        new = np.asarray(values)
        if new.ndim != 1:
            raise ReproError(f"appended values must be 1-d, got ndim={new.ndim}")
        if new.size == 0:
            return
        if new.min() < 0:
            raise ReproError("appended values must be non-negative")
        if self.codes is None:
            self._permutation = np.concatenate(
                [
                    self._permutation,
                    np.arange(self._size, self._size + new.size, dtype=np.int64),
                ]
            )
            self._size += new.size
            return
        top = int(new.max())
        dtype = np.promote_types(self.codes.dtype, np.min_scalar_type(top))
        self.codes = np.concatenate([self.codes, new.astype(dtype)])
        if top >= self._positions.size:
            self._positions = np.concatenate(
                [self._positions, np.full(top + 1 - self._positions.size, -1)]
            )
        values, first = np.unique(new, return_index=True)
        fresh = self._positions[values] < 0
        self._positions[values[fresh]] = self._size + first[fresh]
        self._size += new.size
        self._probe_cache = None

    def __repr__(self) -> str:
        return (
            f"RowReordering({self.strategy!r}, rows={self.size}, "
            f"sorted={self.num_sorted})"
        )


# ---------------------------------------------------------------------------
# Histogram-aware column ordering
# ---------------------------------------------------------------------------


def _histogram_stats(values: np.ndarray) -> tuple[int, float]:
    """(distinct count, normalized entropy) of one column's histogram.

    Entropy is normalized to ``[0, 1]`` (0 = all mass on one value,
    1 = uniform over the distinct values), so it compares columns of
    different cardinalities; lower entropy = more skewed.
    """
    vals = np.asarray(values)
    if vals.size == 0:
        return 0, 0.0
    _, counts = np.unique(vals, return_counts=True)
    distinct = int(counts.size)
    if distinct <= 1:
        return distinct, 0.0
    p = counts / counts.sum()
    entropy = float(-(p * np.log(p)).sum() / np.log(distinct))
    return distinct, entropy


def choose_column_order(
    columns: Mapping[str, np.ndarray]
) -> list[str]:
    """Histogram-aware sort-key order over ``columns``.

    Lowest distinct count first — a low-cardinality leading key gives
    *every* column long runs within each of its few groups — with ties
    broken toward the more skewed histogram (lower normalized entropy:
    skew concentrates rows into fewer, longer runs), then column name
    for determinism.  This is the Kaser & Lemire heuristic.
    """
    stats = {
        name: _histogram_stats(col) for name, col in columns.items()
    }
    return sorted(
        columns,
        key=lambda name: (stats[name][0], stats[name][1], name),
    )


def lexicographic_permutation(
    columns: Mapping[str, np.ndarray], order: Sequence[str]
) -> np.ndarray:
    """Stable lexicographic sort permutation with ``order[0]`` primary."""
    if not order:
        raise ReproError("lexicographic sort needs at least one column")
    keys = [np.asarray(columns[name]) for name in reversed(list(order))]
    sizes = {key.shape[0] for key in keys}
    if len(sizes) > 1:
        raise ReproError(f"column lengths differ: {sorted(sizes)}")
    return np.lexsort(keys).astype(np.int64)


def reorder_rows(
    columns: Mapping[str, np.ndarray],
    strategy: str = "lexicographic",
    order: Sequence[str] | None = None,
) -> tuple[dict[str, np.ndarray], RowReordering]:
    """Sort a set of columns into their compression-friendly row order.

    Returns ``(reordered columns, reordering)``; with
    ``strategy="none"`` the columns come back unchanged under an
    identity reordering.  ``order`` overrides the histogram-aware
    column ordering (primary key first) when given.
    """
    validate_strategy(strategy)
    names = list(columns)
    if strategy == "none" or not names:
        size = np.asarray(columns[names[0]]).shape[0] if names else 0
        return dict(columns), RowReordering.identity(size, strategy)
    if order is None:
        order = choose_column_order(columns)
    else:
        missing = [name for name in order if name not in columns]
        if missing:
            raise ReproError(f"order names unknown columns: {missing}")
    permutation = lexicographic_permutation(columns, order)
    reordering = RowReordering(permutation, permutation.size, strategy)
    reordered = {
        name: np.asarray(col)[permutation] for name, col in columns.items()
    }
    return reordered, reordering
