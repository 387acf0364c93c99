"""Vectorized run-length kernels shared by the bitmap codecs.

Every run-length codec in this package (BBC over bytes, WAH over 31-bit
groups, EWAH over 64-bit words) manipulates the same abstract object: a
sequence of fixed-width *elements* partitioned into maximal runs that
are either a *fill* (every element all-zero or all-one) or *dirty*
(verbatim elements).  This module gives that object a columnar
representation — :class:`Runs` — and implements the hot operations on
it as whole-array numpy expressions, so encode, decode and the block
streams never touch elements one at a time from Python:

* :func:`runs_from_element_rows` segments every row of an element
  matrix into runs with a single ``flatnonzero`` over value-change and
  row boundaries (:func:`runs_from_elements` is its one-row case), so a
  batch of bitmaps encodes in one pass;
* :func:`elements_from_runs` re-materializes elements with one
  ``np.repeat`` plus a bulk scatter of the dirty elements;
* :func:`normalize` re-detects fills inside dirty pieces and merges
  adjacent runs, keeping streams canonically compressed;
* :class:`RunSlicer` cuts any element window out of a run sequence,
  which the run-length codecs' readers (their block streams)
  rematerialize one word range at a time.

The codec modules layer their stream formats (markers, fill words, BBC
atoms) on top of these kernels; the element width and the all-ones
pattern are the only parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Run type tags.
FILL_ZERO = 0
FILL_ONE = 1
DIRTY = 2


@dataclass
class Runs:
    """Columnar run-length view of an element sequence.

    ``types[i]`` tags run ``i`` (``FILL_ZERO``/``FILL_ONE``/``DIRTY``),
    ``lengths[i]`` is its element count, and ``values`` concatenates the
    elements of all dirty runs in order.  Canonical instances (as
    produced by :func:`runs_from_elements` and :func:`normalize`) have
    no empty runs, no adjacent runs of equal type, and no all-zero or
    all-one element inside ``values`` — but the consumers below accept
    non-canonical instances too, so foreign payloads decode fine.
    """

    types: np.ndarray
    lengths: np.ndarray
    values: np.ndarray

    @property
    def total(self) -> int:
        """Total number of elements covered."""
        return int(self.lengths.sum()) if self.lengths.size else 0

    @property
    def num_runs(self) -> int:
        """Number of runs."""
        return int(self.types.shape[0])


def empty_runs(dtype) -> Runs:
    """A :class:`Runs` covering zero elements."""
    return Runs(
        np.empty(0, dtype=np.int8),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=dtype),
    )


def expand_ranges(starts, lengths) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` for each ``(s, l)`` pair.

    The gather/scatter index builder behind every kernel: it turns
    per-run (offset, count) descriptions into flat element indices
    without a Python loop.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, lengths)
        + np.repeat(starts, lengths)
    )


def runs_from_elements(elements: np.ndarray, full) -> Runs:
    """Segment ``elements`` into canonical runs.

    ``full`` is the all-ones element value (e.g. ``0xFF`` for bytes).
    The one-row case of :func:`runs_from_element_rows`.
    """
    return runs_from_element_rows(elements.reshape(1, -1), full)[0]


def runs_from_element_rows(elements: np.ndarray, full) -> tuple[Runs, np.ndarray]:
    """Segment every row of a 2-d element matrix into canonical runs.

    One classification and one ``flatnonzero`` over the whole matrix; a
    run never crosses a row, so the result is each row's
    :func:`runs_from_elements` concatenated in row order.  Returns the
    runs and the number of runs in each row.
    """
    rows, width = elements.shape
    if rows == 0 or width == 0:
        return empty_runs(elements.dtype), np.zeros(rows, dtype=np.int64)
    flat = elements.reshape(-1)
    cls = np.full(flat.shape[0], DIRTY, dtype=np.int8)
    cls[flat == 0] = FILL_ZERO
    cls[flat == full] = FILL_ONE
    change = cls[1:] != cls[:-1]
    change[width - 1 :: width] = True
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    ends = np.concatenate((starts[1:], [flat.shape[0]]))
    runs = Runs(cls[starts], (ends - starts).astype(np.int64), flat[cls == DIRTY])
    return runs, np.bincount(starts // width, minlength=rows).astype(np.int64)


def elements_from_runs(runs: Runs, full, dtype) -> np.ndarray:
    """Materialize the element array described by ``runs``."""
    if runs.num_runs == 0:
        return np.empty(0, dtype=dtype)
    rep = np.where(runs.types == FILL_ONE, dtype(full), dtype(0)).astype(dtype)
    out = np.repeat(rep, runs.lengths)
    dirty = runs.types == DIRTY
    if dirty.any():
        ends = np.cumsum(runs.lengths)
        starts = ends - runs.lengths
        out[expand_ranges(starts[dirty], runs.lengths[dirty])] = runs.values
    return out


def normalize(types, lengths, values: np.ndarray, full) -> Runs:
    """Canonicalize piecewise run output.

    Accepts runs that may be empty, adjacent-equal, or dirty-but-clean
    (dirty pieces whose elements happen to be all-zero/all-one, as a
    non-canonical stream parses).  Fills are re-detected inside the
    dirty pieces with one vectorized classification over the
    concatenated ``values`` and adjacent equal-typed runs are merged, so
    outputs stay canonically compressed without a per-element loop.
    """
    types = np.asarray(types, dtype=np.int8)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    types = types[keep]
    lengths = lengths[keep]
    if types.shape[0] == 0:
        return Runs(types, lengths, values[:0])

    dirty_piece = types == DIRTY
    total_dirty = int(values.shape[0])
    if total_dirty and dirty_piece.any():
        cls = np.full(total_dirty, DIRTY, dtype=np.int8)
        cls[values == 0] = FILL_ZERO
        cls[values == full] = FILL_ONE
        piece_len = lengths[dirty_piece]
        piece_end = np.cumsum(piece_len)
        piece_start = piece_end - piece_len
        change = np.flatnonzero(cls[1:] != cls[:-1]) + 1
        sub_start = np.unique(np.concatenate((piece_start, change)))
        sub_end = np.concatenate((sub_start[1:], [total_dirty]))
        sub_len = sub_end - sub_start
        sub_type = cls[sub_start]
        piece_of_sub = np.searchsorted(piece_end, sub_start, side="right")
        sub_counts = np.bincount(piece_of_sub, minlength=piece_len.shape[0])

        counts = np.ones(types.shape[0], dtype=np.int64)
        counts[dirty_piece] = sub_counts
        offsets = np.cumsum(counts) - counts
        g_types = np.empty(int(counts.sum()), dtype=np.int8)
        g_lengths = np.empty(g_types.shape[0], dtype=np.int64)
        fill_piece = ~dirty_piece
        g_types[offsets[fill_piece]] = types[fill_piece]
        g_lengths[offsets[fill_piece]] = lengths[fill_piece]
        sub_pos = expand_ranges(offsets[dirty_piece], sub_counts)
        g_types[sub_pos] = sub_type
        g_lengths[sub_pos] = sub_len
        g_values = values[cls == DIRTY]
    else:
        g_types, g_lengths, g_values = types, lengths, values

    change = np.flatnonzero(g_types[1:] != g_types[:-1]) + 1
    starts = np.concatenate(([0], change))
    return Runs(g_types[starts], np.add.reduceat(g_lengths, starts), g_values)


class RunSlicer:
    """Random-access element-range slices of one :class:`Runs` sequence.

    The block-streaming decoders (the codecs' readers) cut a leaf's run
    sequence into many consecutive element windows; doing that through
    a per-call ``cumsum`` would make each window O(runs).  The slicer
    builds the run-end and dirty-value-offset prefix sums once, on the
    first partial window, so every :meth:`slice` is two ``searchsorted``
    probes plus work proportional to the runs actually overlapped.  The
    full window (a whole-vector decode) is the run sequence itself.
    """

    def __init__(self, runs: Runs):
        self.runs = runs
        #: Total elements covered (cached; ``Runs.total`` re-sums).
        self.total = runs.total

    @cached_property
    def _ends(self) -> np.ndarray:
        return np.cumsum(self.runs.lengths)

    @cached_property
    def _val_off(self) -> np.ndarray:
        dirty_lens = self.runs.lengths * (self.runs.types == DIRTY)
        return np.cumsum(dirty_lens) - dirty_lens

    def slice(self, start: int, stop: int) -> Runs:
        """Elements ``[start, stop)`` as a (possibly non-canonical) Runs.

        The window is clamped to ``[0, total)``; a caller asking past
        the end (a stream that trimmed trailing zero elements) gets a
        shorter sequence back and supplies its own padding.  The result
        may share the sliced sequence's arrays: read it, never mutate it.
        """
        start = max(int(start), 0)
        stop = min(int(stop), self.total)
        if stop <= start:
            return empty_runs(self.runs.values.dtype)
        if start == 0 and stop == self.total:
            return self.runs
        runs, ends = self.runs, self._ends
        first = int(np.searchsorted(ends, start, side="right"))
        last = int(np.searchsorted(ends, stop, side="left"))
        sel = slice(first, last + 1)
        types = runs.types[sel]
        r_ends = ends[sel]
        r_starts = r_ends - runs.lengths[sel]
        lo = np.maximum(r_starts, start)
        out_lens = np.minimum(r_ends, stop) - lo
        is_dirty = types == DIRTY
        if is_dirty.any():
            src = self._val_off[sel][is_dirty] + (lo[is_dirty] - r_starts[is_dirty])
            values = runs.values[expand_ranges(src, out_lens[is_dirty])]
        else:
            values = runs.values[:0]
        return Runs(types.copy(), out_lens.astype(np.int64), values)
