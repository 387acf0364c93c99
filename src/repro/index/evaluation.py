"""Query evaluation phase over a buffer pool (Section 6.3).

Two strategies bound the solution space of the buffer-aware scheduling
problem:

* ``"component-wise"`` — the paper's choice for its performance study:
  all constituent interval queries of a membership query are evaluated
  together, with every distinct bitmap fetched exactly once per query
  (a query-local cache sits in front of the buffer pool, and fetches
  are issued in component order);
* ``"query-wise"`` — constituents are evaluated one at a time with no
  query-local sharing; the shared buffer pool may still hit, but a
  bitmap used by several constituents is re-requested and, under a
  small pool, re-read from disk.

The paper leaves "efficient heuristics for the scheduling problem" as
future work; this module adds one:

* ``"scheduled"`` — query-wise memory footprint (one intermediate at a
  time, no query-local cache) but with the constituents greedily
  ordered so that consecutive constituents share as many bitmaps as
  possible — a shared bitmap is then still buffer-resident when the
  next constituent asks for it.  The ordering is nearest-neighbour
  chaining on leaf-set overlap, O(k^2) in the number of constituents.

All strategies produce identical answers; they differ only in their
fetch schedules, which the buffer/clock statistics expose.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.bitmap import BitVector, or_all
from repro.errors import QueryError
from repro.expr import EvalStats, Expr, evaluate
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.storage import BufferPool, BufferStats, CostClock

STRATEGIES = ("component-wise", "query-wise", "scheduled")

# The engine looks ``evaluate`` up as this module's global at each call,
# so a wrapper patched onto the name sees every constituent evaluation.
# Deprecated: the engine never calls the next two names, but perfbench's
# per-layer tracer still wraps them.  Delete them with its wrappers.
evaluate_fused = evaluate


def plan_physical(expr: Expr, length: int, block_words: int | None = None) -> str:
    """Deprecated: every constituent takes the one path, :func:`evaluate`."""
    return "evaluate"


def query_class_of(
    query: IntervalQuery | MembershipQuery | ThresholdQuery,
) -> str:
    """Observability label: the paper class, ``"MQ"``, or ``"TH"``."""
    if isinstance(query, (IntervalQuery, ThresholdQuery)):
        return query.query_class
    return "MQ"


@dataclass
class EvaluationResult:
    """Answer and cost accounting for one query."""

    bitmap: BitVector
    stats: EvalStats
    simulated_ms: float = 0.0
    strategy: str = "component-wise"

    @property
    def row_count(self) -> int:
        """Number of qualifying records."""
        return self.bitmap.count()

    def row_ids(self):
        """Sorted record ids of qualifying records."""
        return self.bitmap.to_indices()


def schedule_constituents(constituents: list[Expr]) -> list[Expr]:
    """Order constituents to maximize consecutive leaf-set overlap.

    Nearest-neighbour chaining: start from the constituent with the
    *smallest* total overlap against all others (an extremity — a chain
    of sharing constituents must be walked end to end, not from its
    middle), then repeatedly append the unvisited constituent sharing
    the most leaf keys with the previous one.  Ties break toward
    smaller leaf sets (cheaper to keep resident) and then input order,
    so the schedule is deterministic.
    """
    if len(constituents) <= 2:
        return list(constituents)
    leaf_sets = [expr.leaf_keys() for expr in constituents]

    def overlap(i: int, j: int) -> int:
        return len(leaf_sets[i] & leaf_sets[j])

    remaining = set(range(len(constituents)))
    start = min(
        remaining,
        key=lambda i: (
            sum(overlap(i, j) for j in remaining if j != i),
            len(leaf_sets[i]),
            i,
        ),
    )
    order = [start]
    remaining.discard(start)
    while remaining:
        prev = order[-1]
        nxt = max(
            remaining,
            key=lambda i: (overlap(prev, i), -len(leaf_sets[i]), -i),
        )
        order.append(nxt)
        remaining.discard(nxt)
    return [constituents[i] for i in order]


class QueryEngine:
    """Evaluates queries against one :class:`~repro.index.BitmapIndex`."""

    def __init__(
        self,
        index,
        buffer_pages: int | None = None,
        clock: CostClock | None = None,
        strategy: str = "component-wise",
    ):
        if strategy not in STRATEGIES:
            raise QueryError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.index = index
        self.strategy = strategy
        self.clock = clock if clock is not None else CostClock()
        if buffer_pages is None:
            # Default: the whole decoded index fits (the paper's 11 MB
            # pool was "adequate"), with a floor of one page.
            words = -(-index.num_records // 64)
            decoded_pages_per_bitmap = max(
                1, -(-words * 8 // index.store.page_size)
            )
            buffer_pages = max(1, decoded_pages_per_bitmap * (index.num_bitmaps() + 2))
        self.pool = BufferPool(index.store, buffer_pages, clock=self.clock)

    @property
    def buffer_stats(self) -> BufferStats:
        """Hit/miss/eviction counters of the underlying pool."""
        return self.pool.stats

    # ------------------------------------------------------------------

    def execute(
        self, query: IntervalQuery | MembershipQuery | ThresholdQuery
    ) -> EvaluationResult:
        """Rewrite and evaluate ``query``, charging the engine's clock.

        When a :mod:`repro.obs` instance is installed, the rewrite and
        evaluation run inside a ``query`` span (tagged with scheme,
        strategy and query class) and the simulated latency lands in the
        per-(scheme, class) ``query.simulated_ms`` histogram.
        """
        o = _obs.active()
        if o is None:
            return self._rewrite_and_execute(query)
        klass = query_class_of(query)
        scheme = self.index.scheme.name
        with o.span(
            "query",
            scheme=scheme,
            strategy=self.strategy,
            klass=klass,
            engine="decoded",
        ):
            result = self._rewrite_and_execute(query)
        o.observe("query.simulated_ms", result.simulated_ms,
                  scheme=scheme, klass=klass)
        o.count("query.executed", 1, scheme=scheme, klass=klass)
        return result

    def _rewrite_and_execute(
        self, query: IntervalQuery | MembershipQuery
    ) -> EvaluationResult:
        if isinstance(query, IntervalQuery):
            constituents = [self.index.rewriter.rewrite_interval(query)]
        elif isinstance(query, MembershipQuery):
            constituents = self.index.rewriter.rewrite_membership(query)
        elif isinstance(query, ThresholdQuery):
            constituents = [self.index.rewriter.rewrite_threshold(query)]
        else:
            raise QueryError(f"unsupported query type {type(query).__name__}")
        return self._execute_constituents(constituents)

    def _execute_constituents(self, constituents: list[Expr]) -> EvaluationResult:
        start_ms = self.clock.total_ms
        length = self.index.num_records
        words = max(1, -(-length // 64))
        stats = EvalStats()

        if self.strategy == "component-wise":
            answer = self._component_wise(constituents, length, stats)
        elif self.strategy == "scheduled":
            answer = self._query_wise(
                schedule_constituents(constituents), length, stats
            )
        else:
            answer = self._query_wise(constituents, length, stats)

        # A bare-leaf answer can be the pool-resident vector itself,
        # which may view read-only (store/mmap) memory — callers own
        # their results, so hand out a writable copy instead.  Pure
        # allocation traffic: no scans or operations to charge.
        if not answer.words.flags.writeable:
            answer = answer.copy()

        # Charge CPU for the bulk word operations and the final ORs.
        self.clock.charge_word_ops(stats.operations, words)
        return EvaluationResult(
            bitmap=self.index.restore_row_order(answer),
            stats=stats,
            simulated_ms=self.clock.total_ms - start_ms,
            strategy=self.strategy,
        )

    def evaluate_shared(
        self,
        constituents: list[Expr],
        cache: dict[Hashable, BitVector],
        stats: EvalStats,
    ) -> BitVector:
        """Evaluate one query's constituents against a shared leaf cache.

        The serving layer's shared-scan batches prefetch the union of a
        batch's leaf bitmaps once (through :attr:`pool`) and pass the
        same ``cache`` to every query in the batch, so each stored
        bitmap crosses the buffer pool at most once per batch.  Word
        operations are charged to the engine's clock as in
        :meth:`execute`.
        """
        length = self.index.num_records
        words = max(1, -(-length // 64))
        before = stats.operations
        results = [
            evaluate(expr, self.pool.fetch, length, stats, cache)
            for expr in constituents
        ]
        if len(results) > 1:
            stats.operations += len(results) - 1
        self.clock.charge_word_ops(stats.operations - before, words)
        if len(results) == 1:
            answer = results[0]
            if not answer.words.flags.writeable:
                answer = answer.copy()  # same ownership rule as execute()
        else:
            answer = or_all(results)
        return self.index.restore_row_order(answer)

    # ------------------------------------------------------------------

    def _component_wise(
        self, constituents: list[Expr], length: int, stats: EvalStats
    ) -> BitVector:
        """Fetch each distinct bitmap once, in component order."""
        cache: dict[Hashable, BitVector] = {}
        # Pre-fetch all leaves ordered by component so that each
        # component's bitmaps are read together (the paper's strategy
        # accesses each component once on behalf of all subqueries).
        keys = sorted(
            {key for expr in constituents for key in expr.leaf_keys()},
            key=lambda key: (key[0], repr(key[1])),
        )
        for key in keys:
            if key not in cache:
                cache[key] = self.pool.fetch(key)
                stats.scans += 1
                stats.fetched_keys.append(key)
        results = [
            evaluate(expr, self.pool.fetch, length, stats, cache)
            for expr in constituents
        ]
        if len(results) == 1:
            return results[0]
        stats.operations += len(results) - 1
        return or_all(results)

    def _query_wise(
        self, constituents: list[Expr], length: int, stats: EvalStats
    ) -> BitVector:
        """Evaluate one constituent at a time with no cross-sharing."""
        answer: BitVector | None = None
        for expr in constituents:
            cache: dict[Hashable, BitVector] = {}
            result = evaluate(expr, self.pool.fetch, length, stats, cache)
            if answer is None:
                # A bare-leaf constituent evaluates to the pool-resident
                # vector itself (read-only under a mapped store), so the
                # accumulator must be a private copy before |=.
                answer = result if len(constituents) == 1 else result.copy()
            else:
                answer |= result
                stats.operations += 1
        assert answer is not None
        return answer
