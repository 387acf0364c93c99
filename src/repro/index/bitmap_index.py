"""The multi-component bitmap index.

:class:`BitmapIndex` ties the pieces together: it decomposes the
indexed column into digit columns (Equation 3), materializes each
component's bitmaps under the chosen encoding scheme, stores them
codec-encoded in a :class:`~repro.storage.BitmapStore`, and answers
queries through the Section 6 rewrite/evaluation pipeline.

Stored bitmap keys are ``(component, slot)`` where ``component`` is the
position in the base sequence (0 = most significant) and ``slot`` is
the encoding scheme's slot label.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.compress import Codec, get_codec
from repro.encoding import EncodingScheme, get_scheme
from repro.errors import EncodingSchemeError
from repro.index.decompose import decompose_column, uniform_bases, validate_bases
from repro.index.evaluation import EvaluationResult, QueryEngine
from repro.index.rewrite import QueryRewriter
from repro.queries.model import IntervalQuery, MembershipQuery
from repro.storage import BitmapStore, CostClock, DEFAULT_PAGE_SIZE


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of a batch append (§4.2 accounting)."""

    #: Records added to the relation.
    records_appended: int
    #: Bitmaps physically extended (always all of them).
    bitmaps_extended: int
    #: Bitmaps that gained at least one set bit — the paper's
    #: update-cost measure, amortized over the batch.
    bitmaps_touched: int
    #: Size-tiered compaction the append triggered (segmented indexes
    #: only): merges run, sealed segments and rows they merged, the
    #: merged segments' encoded bytes, and the merges' wall time.
    merges: int = 0
    segments_merged: int = 0
    rows_merged: int = 0
    bytes_merged: int = 0
    compaction_ms: float = 0.0


def count_touched(
    scheme: EncodingScheme, bases: Sequence[int], values: np.ndarray
) -> int:
    """Bitmaps a batch of ``values`` sets at least one bit in (§4.2).

    Read off the scheme catalog from the batch's distinct values alone:
    a slot is touched when its value set meets a component's digits.
    """
    digits = decompose_column(np.unique(values), bases)
    return sum(
        int(scheme.membership(base)[:, np.unique(column)].any(axis=1).sum())
        for base, column in zip(bases, digits)
    )


@dataclass(frozen=True)
class IndexSpec:
    """Design-point description of a bitmap index.

    ``bases`` may be given explicitly (most significant first) or left
    None with ``num_components`` set, in which case the near-uniform
    decomposition is used.

    ``reorder`` opts into the build-time row-reordering preprocessing
    pass (:mod:`repro.table.reorder`): ``"lexicographic"`` sorts the
    column before building, storing the row permutation so answers map
    back to original record ids at the result boundary.
    """

    cardinality: int
    scheme: str = "E"
    num_components: int = 1
    bases: tuple[int, ...] | None = None
    codec: str = "raw"
    reorder: str = "none"

    def resolved_bases(self) -> tuple[int, ...]:
        """The concrete base sequence of this spec."""
        if self.bases is not None:
            return validate_bases(self.bases, self.cardinality)
        return uniform_bases(self.cardinality, self.num_components)

    @property
    def label(self) -> str:
        """Display label, e.g. ``"I<8,7>/bbc"``."""
        bases = ",".join(str(b) for b in self.resolved_bases())
        return f"{self.scheme}<{bases}>/{self.codec}"


class BitmapIndex:
    """A built, queryable multi-component bitmap index."""

    def __init__(
        self,
        spec: IndexSpec,
        store: BitmapStore,
        num_records: int,
        scheme: EncodingScheme,
        bases: tuple[int, ...],
        reordering=None,
    ):
        self.spec = spec
        self.store = store
        self.num_records = num_records
        self.scheme = scheme
        self.bases = bases
        self.rewriter = QueryRewriter(spec.cardinality, bases, scheme)
        #: Build-time row reordering
        #: (:class:`~repro.table.reorder.RowReordering`) or None.  The
        #: stored bitmaps are laid out in sorted row order; engines call
        #: :meth:`restore_row_order` on final answers so every consumer
        #: past the result boundary sees original record ids.
        self.reordering = reordering
        #: Monotonic update counter: bumped by every :meth:`append`.
        #: Caches keyed by ``(epoch, expression)`` — the serving layer's
        #: result cache — are invalidated wholesale by a bump.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        values: np.ndarray,
        spec: IndexSpec,
        store: BitmapStore | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        reordering=None,
    ) -> "BitmapIndex":
        """Build an index over ``values`` according to ``spec``.

        ``values`` must lie in ``[0, spec.cardinality)``.  When ``store``
        is None an in-memory store with the spec's codec is created.

        Row reordering: an explicit ``reordering``
        (:class:`~repro.table.reorder.RowReordering`, e.g. a table-level
        joint sort shared across columns) is applied to ``values``
        before decomposition; otherwise ``spec.reorder`` other than
        ``"none"`` sorts the single column.  Either way the stored
        bitmaps live in sorted row order and answers are mapped back at
        the result boundary (:meth:`restore_row_order`).
        """
        from repro.table.reorder import RowReordering, validate_strategy

        vals = np.asarray(values)
        if vals.size and (vals.min() < 0 or vals.max() >= spec.cardinality):
            raise EncodingSchemeError(
                f"column values outside domain [0, {spec.cardinality})"
            )
        if reordering is not None:
            vals = reordering.apply(vals)
        elif validate_strategy(spec.reorder) != "none":
            reordering = RowReordering.from_sort(vals, spec.reorder)
            vals = (
                reordering.apply(vals)
                if reordering.codes is None
                else reordering.sorted_codes()
            )
        scheme = get_scheme(spec.scheme)
        bases = spec.resolved_bases()
        if store is None:
            store = BitmapStore(codec=spec.codec, page_size=page_size)
        else:
            expected = get_codec(spec.codec)
            if store.codec.name != expected.name:
                raise EncodingSchemeError(
                    f"store codec {store.codec.name!r} does not match spec "
                    f"codec {spec.codec!r}"
                )
        digit_columns = decompose_column(vals, bases)
        for component, (base, column) in enumerate(zip(bases, digit_columns)):
            store.put_many(
                ((component, slot), vector)
                for slot, vector in scheme.build(column, base).items()
            )
        return cls(
            spec, store, int(vals.size), scheme, bases, reordering=reordering
        )

    # ------------------------------------------------------------------
    # Batch updates (§4.2's batched-update setting)
    # ------------------------------------------------------------------

    def append(self, values: np.ndarray) -> "UpdateReport":
        """Append a batch of new records to the index.

        Every stored bitmap is extended by ``len(values)`` bits; the
        report counts how many bitmaps actually gained a set bit — the
        §4.2 update-cost measure, amortized over the batch.  Existing
        record ids are unchanged; new records follow them.

        Buffer pools of engines created *before* an append detect the
        replaced payloads through the store's per-key write versions and
        re-read them, so existing engines stay usable; the index
        :attr:`epoch` is bumped so expression-level result caches can
        invalidate.  An *empty* batch changes nothing and therefore must
        not bump the epoch — a bump would needlessly sweep every serving
        result cache keyed on it.

        On a reordered index the new rows land past the sorted prefix in
        arrival order (identity entries; the reordering keeps their
        codes), so appends never trigger a re-sort.
        """
        from repro.bitmap import concatenate

        vals = np.asarray(values)
        if vals.size == 0:
            return UpdateReport(
                records_appended=0, bitmaps_extended=0, bitmaps_touched=0
            )
        if vals.min() < 0 or vals.max() >= self.cardinality:
            raise EncodingSchemeError(
                f"batch values outside domain [0, {self.cardinality})"
            )
        digit_columns = decompose_column(vals, self.bases)
        for component, (base, column) in enumerate(
            zip(self.bases, digit_columns)
        ):
            extensions = self.scheme.build(column, base)
            keys = [(component, slot) for slot in extensions]
            self.store.put_many(
                (key, concatenate([self.store.get(key), extension]))
                for key, extension in zip(keys, extensions.values())
            )
        self.num_records += int(vals.size)
        if self.reordering is not None:
            self.reordering.extend(vals)
        self.epoch += 1
        return UpdateReport(
            records_appended=int(vals.size),
            bitmaps_extended=self.num_bitmaps(),
            bitmaps_touched=count_touched(self.scheme, self.bases, vals),
        )

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Attribute cardinality C."""
        return self.spec.cardinality

    @property
    def num_components(self) -> int:
        """Number of components n."""
        return len(self.bases)

    def num_bitmaps(self) -> int:
        """Total stored bitmaps across all components."""
        return len(self.store)

    def size_bytes(self) -> int:
        """Total encoded payload bytes (the index's space cost)."""
        return self.store.total_bytes()

    def size_pages(self) -> int:
        """Total page footprint."""
        return self.store.total_pages()

    def uncompressed_bytes(self) -> int:
        """Size the same layout would occupy with the raw codec.

        Each bitmap occupies ``ceil(N / 64) * 8`` bytes uncompressed.
        """
        words = -(-self.num_records // 64)
        return self.num_bitmaps() * words * 8

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def restore_row_order(self, bitmap, by_value: bool = False):
        """Translate an answer from stored (sorted) to original row order.

        The single place the build-time reordering re-enters query
        evaluation: both engines call it on their *final* answer, so
        everything upstream — compressed-domain ops, range-wise evaluation,
        thresholds, shared-scan batching — runs untouched in sorted
        space.  Such an answer sets each row's bit by the row's value
        alone, so a one-column sort restores it from the kept codes
        (:meth:`~repro.table.reorder.RowReordering.restore_answer`).  A
        no-op (the same object) for unreordered indexes.

        With ``by_value`` the answer is one bit per value, evaluated
        over the bitmaps read at :meth:`value_probe`'s positions, and is
        rebuilt from the codes
        (:meth:`~repro.table.reorder.RowReordering.answer_of_values`).
        """
        if by_value:
            return self.reordering.answer_of_values(bitmap)
        if self.reordering is None or self.reordering.is_identity:
            return bitmap
        return self.reordering.restore_answer(bitmap)

    def value_probe(self) -> tuple[np.ndarray, int] | None:
        """Where this index's answers can be read value by value, or None.

        An index sorted on its one column (a codes-form reordering that
        is not the identity) sets each row's bit in every stored bitmap
        by the row's value alone, so a query is decided by the bits at
        one stored row per value.  Returns those rows
        (:meth:`~repro.table.reorder.RowReordering.probe_positions`) and
        the length every stored bitmap has; None for any other index,
        whose queries are evaluated over whole rows.
        """
        reordering = self.reordering
        if reordering is None or reordering.codes is None or reordering.is_identity:
            return None
        return reordering.probe_positions(), self.num_records

    def use_cost_based_rewriter(self) -> None:
        """Swap in a rewriter that prices expression choices by the
        actual stored bitmap sizes (see :mod:`repro.index.costbased`).

        Matters for compressed equality-encoded indexes, where the
        Equation (1) count heuristic can pick the more expensive side.
        """
        from repro.index.costbased import CostBasedRewriter

        self.rewriter = CostBasedRewriter(
            self.spec.cardinality, self.bases, self.scheme, self.store
        )

    def engine(
        self,
        buffer_pages: int | None = None,
        clock: CostClock | None = None,
        strategy: str = "component-wise",
    ) -> QueryEngine:
        """A query engine over this index.

        ``buffer_pages`` defaults to a pool comfortably larger than the
        index (the paper notes 11 MB was adequate for its runs).
        """
        return QueryEngine(
            self, buffer_pages=buffer_pages, clock=clock, strategy=strategy
        )

    def query(
        self, query: IntervalQuery | MembershipQuery, **engine_kwargs
    ) -> EvaluationResult:
        """One-shot convenience evaluation with a fresh default engine.

        Keyword arguments (``buffer_pages``, ``clock``, ``strategy``)
        configure the throwaway engine.
        """
        return self.engine(**engine_kwargs).execute(query)

    def __repr__(self) -> str:
        return (
            f"BitmapIndex({self.spec.label}, C={self.cardinality}, "
            f"N={self.num_records}, bitmaps={self.num_bitmaps()})"
        )
