"""Per-shard engine: the only per-index evaluator of the serving tier.

A :class:`ShardEngine` owns one shard's rows plus the serving
machinery: a persistent query engine per segment, an
``(epoch, expression)`` result cache, and shared-scan batch planning.
It is the one place that rewrites and compiles a query (one
:class:`~repro.expr.QueryPlan` for every segment), probes the cache,
plans shared-scan batches, fetches each batch's bitmaps once and
evaluates.
The rows are either a :class:`~repro.index.segmented.SegmentedBitmapIndex`
(the sharded service builds one per shard) or a prebuilt
:class:`~repro.index.BitmapIndex` served whole as the only segment
(:class:`~repro.serve.QueryService`; the index may be plain, reordered
or mapped).

It is deliberately *transport-agnostic*: the front-end calls the same
methods whether the engine lives in the router process (``"inline"``
transport) or behind a :class:`~repro.parallel.ProcessWorker` pipe
(``"process"`` transport) — which is why every argument and return
value is picklable (queries, numpy rows, :class:`ShardAnswer`).

The engine is single-threaded by contract: the front-end serializes all
calls to one shard (under its scan lock inline, through the shard's
dispatcher thread otherwise), so no locking happens here.  It also
emits no :mod:`repro.obs` metrics — in a worker process there is no
registry to emit into, and keeping the inline and process transports
observationally identical means all ``serve.shard.*`` accounting lives
in the front-end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bitmap import BitVector, concatenate
from repro.encoding import get_scheme
from repro.expr import EvalStats, QueryPlan, compile_query
from repro.index.bitmap_index import BitmapIndex, IndexSpec
from repro.index.evaluation import QueryEngine, component_order
from repro.index.rewrite import QueryRewriter
from repro.index.segmented import DEFAULT_SEGMENT_SIZE, SegmentedBitmapIndex
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.batcher import plan_batches
from repro.serve.cache import ResultCache
from repro.storage import CostClock

Query = IntervalQuery | MembershipQuery | ThresholdQuery


@dataclass
class ShardAnswer:
    """One shard's partial answer to one query.

    ``bitmap`` covers the shard's local row range; the router
    concatenates partial bitmaps in shard order to recover global row
    ids.  ``epoch`` is the shard's index epoch at evaluation time — the
    per-shard linearization point.
    """

    bitmap: BitVector
    epoch: int
    cached: bool
    simulated_ms: float
    scans: int
    operations: int
    #: True when the shard still holds ``bitmap`` (in its result cache
    #: or buffer pool): whoever hands it to a caller unchanged must copy
    #: it first.
    shared: bool = False


class ShardEngine:
    """Serving engine for one row-range shard.

    ``values`` are the shard's rows; ``index`` (inline transport only)
    injects a prebuilt index instead: a :class:`SegmentedBitmapIndex`
    (the shard-split path hands the left child its segments by
    reference via :meth:`SegmentedBitmapIndex.split_at`, skipping the
    rebuild) or a :class:`~repro.index.BitmapIndex`, which is served
    whole as the only segment with its own rewriter, and grows in place
    on :meth:`append`.  Rows given as ``values`` are laid out in
    compacted tiers directly (:meth:`SegmentedBitmapIndex.build`), and
    every :meth:`append` compacts the tiers it completes.
    """

    def __init__(
        self,
        values,
        spec: IndexSpec,
        engine: str = "decoded",
        cache_entries: int = 256,
        buffer_pages: int | None = None,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        max_batch: int = 16,
        index: SegmentedBitmapIndex | BitmapIndex | None = None,
    ):
        self.spec = spec
        self.engine_kind = engine
        self.buffer_pages = buffer_pages
        self.max_batch = max_batch
        if index is not None:
            self.index = index
        else:
            self.index = SegmentedBitmapIndex.build(
                np.asarray(values), spec, segment_size
            )
        self.cache = ResultCache(cache_entries)
        self.clock = CostClock()
        if isinstance(self.index, BitmapIndex):
            self.rewriter = self.index.rewriter
        else:
            self.rewriter = QueryRewriter(
                spec.cardinality,
                spec.resolved_bases(),
                get_scheme(spec.scheme),
            )
        #: Per-segment engines keyed by the segment object itself, so a
        #: merge (which replaces segments) drops the merged ones' engines.
        self._engines: dict = {}
        #: Pool hits/misses/evictions of dropped engines, so the summed
        #: counters in :meth:`status` never run backwards.
        self._retired_pool = [0, 0, 0]

    # ------------------------------------------------------------------

    @property
    def num_records(self) -> int:
        """Rows in this shard."""
        return self.index.num_records

    @property
    def epoch(self) -> int:
        """The shard's index epoch (bumped by every append)."""
        return self.index.epoch

    def set_epoch(self, epoch: int) -> int:
        """Fast-forward the epoch counter (never backwards).

        Used after a crash recovery rebuilds the engine from the
        router's authoritative rows: the fresh index restarts at a small
        epoch, but per-shard epochs must stay monotonic across rebuilds
        so the ``(epoch, expression)`` cache key and the linearizability
        oracle never see an epoch reused for different rows.
        """
        if epoch > self.index.epoch:
            self.index.epoch = epoch
        return self.index.epoch

    def segments(self) -> list:
        """The indexes evaluated one after another, in row order."""
        if isinstance(self.index, BitmapIndex):
            return [self.index]
        return self.index.segments()

    def status(self) -> dict:
        """Picklable counters for the front-end's metrics snapshot."""
        pools = [engine.pool.stats for engine in self._engines.values()]
        hits, misses, evictions = self._retired_pool
        return {
            "num_records": self.index.num_records,
            "num_segments": len(self.segments()),
            "epoch": self.index.epoch,
            "cache_hits": self.cache.stats.hits,
            "cache_misses": self.cache.stats.misses,
            "cache_invalidated": self.cache.stats.invalidated,
            "pages_read": self.clock.pages_read,
            "read_requests": self.clock.read_requests,
            "simulated_ms": self.clock.total_ms,
            "pool_hits": hits + sum(stats.hits for stats in pools),
            "pool_misses": misses + sum(stats.misses for stats in pools),
            "pool_evictions": evictions
            + sum(stats.evictions for stats in pools),
        }

    # ------------------------------------------------------------------

    def append(self, values) -> dict:
        """Append rows to this shard, bumping only this shard's epoch.

        The segmented index compacts the tiers the append completes; the
        report carries what it merged, and the next evaluation drops the
        merged segments' engines and pools.
        """
        rows = np.asarray(values)
        report = self.index.append(rows)
        return {
            "epoch": self.index.epoch,
            "num_records": self.index.num_records,
            "num_segments": len(self.segments()),
            "records_appended": report.records_appended,
            "bitmaps_extended": report.bitmaps_extended,
            "bitmaps_touched": report.bitmaps_touched,
            "merges": report.merges,
            "segments_merged": report.segments_merged,
            "rows_merged": report.rows_merged,
            "bytes_merged": report.bytes_merged,
            "compaction_ms": report.compaction_ms,
            "invalidated": self.cache.invalidate_below(self.index.epoch),
        }

    def is_boundary(self, row: int) -> bool:
        """True when :meth:`split_left` can cut at ``row``."""
        return isinstance(
            self.index, SegmentedBitmapIndex
        ) and self.index.is_boundary(row)

    def split_left(self, row: int) -> SegmentedBitmapIndex:
        """The left half of a segment-boundary split, segments shared.

        Only meaningful on the inline transport (the returned index is a
        live object, not a picklable snapshot).  ``self`` keeps serving
        its full row range unchanged — :meth:`SegmentedBitmapIndex.split_at`
        does not mutate, and neither does an append: it replaces the
        tail it rebuilds, as a merge replaces the segments it merges.
        """
        left, _ = self.index.split_at(row)
        return left

    def close(self) -> None:
        """Drop per-segment engines (buffer pools)."""
        self._engines = {}

    # ------------------------------------------------------------------

    def evaluate_batch(self, queries: list[Query]) -> list[ShardAnswer]:
        """Answer ``queries`` over this shard's rows, batching scans.

        Each query is compiled once.  The batch is planned into shared
        scans (:func:`~repro.serve.batcher.plan_batches` over leaf-key
        sharing, capped at ``max_batch``), each planned batch fetches
        the union of its bitmaps once per segment, and answers land in
        the shard's ``(epoch, expression)`` cache.  A query repeated in
        the batch is evaluated once; each repeat gets its own copy of
        the answer, counted with no scans or operations.
        """
        epoch = self.index.epoch
        answers: list[ShardAnswer | None] = [None] * len(queries)
        plans = [compile_query(self.rewriter.constituents(q)) for q in queries]
        pending: list[int] = []
        # A lone query has no repeat to find (hashing an expression tree
        # costs microseconds, so it is skipped).
        first: dict[tuple, int] | None = {} if len(queries) > 1 else None
        repeats: list[tuple[int, int]] = []
        for i, plan in enumerate(plans):
            if first is not None:
                j = first.setdefault(plan.constituents, i)
                if j != i:
                    repeats.append((i, j))
                    continue
            cached = self.cache.get(epoch, plan.constituents)
            if cached is not None:
                answers[i] = ShardAnswer(
                    bitmap=cached,
                    epoch=epoch,
                    cached=True,
                    simulated_ms=0.0,
                    scans=0,
                    operations=0,
                    shared=True,
                )
            else:
                pending.append(i)
        for batch in plan_batches([plans[i].keys for i in pending], self.max_batch):
            self._shared_scan(
                [pending[j] for j in batch], [plans[pending[j]] for j in batch],
                epoch, answers,
            )
        for i, j in repeats:
            answers[i] = replace(
                answers[j],
                bitmap=answers[j].bitmap.copy(),
                simulated_ms=0.0,
                scans=0,
                operations=0,
                shared=False,
            )
        return answers  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def segment_engines(self) -> list:
        """Persistent per-segment engines, in segment order.

        An engine lives as long as its segment.  An append rebuilds the
        tail and a merge replaces segments, so the replaced segments'
        engines and pools are dropped here and each new segment gets a
        fresh engine.
        """
        current = {}
        for segment in self.segments():
            engine = self._engines.pop(segment, None)
            if engine is None:
                engine = QueryEngine(
                    segment, buffer_pages=self.buffer_pages, clock=self.clock,
                    engine=self.engine_kind,
                )
            current[segment] = engine
        for engine in self._engines.values():
            stats = engine.pool.stats
            self._retired_pool[0] += stats.hits
            self._retired_pool[1] += stats.misses
            self._retired_pool[2] += stats.evictions
        self._engines = current
        return list(current.values())

    def _shared_scan(
        self, batch: list[int], plans: list[QueryPlan], epoch: int, answers: list
    ) -> None:
        """One shared fetch of the batch's bitmaps, per segment; the
        answer to ``plans[j]`` lands in ``answers[batch[j]]``."""
        engines = self.segment_engines()
        keys = component_order({key for plan in plans for key in plan.keys})
        fetch_start = self.clock.total_ms
        shared = [dict(zip(keys, engine.pool.fetch_many(keys))) for engine in engines]
        fetch_share = (self.clock.total_ms - fetch_start) / len(batch)
        for i, plan in zip(batch, plans):
            eval_start = self.clock.total_ms
            stats = EvalStats()
            pieces = [
                engine.evaluate_shared(plan, shared[k], stats)
                for k, engine in enumerate(engines)
            ]
            if len(pieces) == 1:
                bitmap = pieces[0]
                # A bare-leaf answer is the pooled bitmap itself.
                pooled = plan.leaf is not None and shared[0].get(plan.leaf) is bitmap
            else:
                bitmap = concatenate(pieces) if pieces else BitVector.zeros(0)
                pooled = False
            self.cache.put(epoch, plan.constituents, bitmap)
            answers[i] = ShardAnswer(
                bitmap=bitmap,
                epoch=epoch,
                cached=False,
                simulated_ms=(self.clock.total_ms - eval_start) + fetch_share,
                scans=len(plan.keys),
                operations=stats.operations,
                shared=pooled or self.cache.capacity > 0,
            )


def build_shard_engine(values, spec: IndexSpec, options: dict) -> ShardEngine:
    """Module-level :class:`ShardEngine` factory.

    This is the picklable constructor handed to
    :class:`~repro.parallel.ProcessWorker` — the engine (index, buffer
    pools, cache) is built *inside* the worker process, so only the raw
    rows and the spec cross the pipe.
    """
    return ShardEngine(values, spec, **options)
