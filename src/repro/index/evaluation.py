"""Query evaluation phase over a buffer pool (Section 6.3).

Two strategies bound the solution space of the buffer-aware scheduling
problem:

* ``"component-wise"`` — the paper's choice for its performance study:
  all constituent interval queries of a membership query are evaluated
  together, with every distinct bitmap fetched exactly once per query
  (a query-local cache sits in front of the buffer pool, and fetches
  are issued in component order) and the constituents OR-ed inside one
  range walk of :func:`~repro.expr.evaluate`;
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

from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from functools import cache as _memo

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.errors import QueryError
from repro.expr import EvalStats, Expr, evaluate, expression_operation_count
from repro.expr.nodes import Or
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.storage import BufferPool, BufferStats, CostClock

STRATEGIES = ("component-wise", "query-wise", "scheduled")

# The engine looks ``evaluate`` up as this module's global at each call,
# so a wrapper patched onto the name sees every evaluation.
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


@_memo
def _component_rank(key: Hashable) -> tuple:
    return key[0], repr(key[1])


def component_order(keys: Iterable[Hashable]) -> list[Hashable]:
    """``(component, slot)`` leaf keys in shared-fetch order.

    Components in order, and within one component slots sorted by their
    ``repr`` (so mixed slot types compare).  Buffer-pool page counts
    depend on this order.  A key's rank is computed once per process.
    """
    return sorted(keys, key=_component_rank)


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


def plan_or(constituents: list[Expr]) -> tuple[Expr, int]:
    """The one expression a query's constituents are OR-ed through, and
    the bulk operations it is charged.

    An ``Or`` constituent's operands join the top-level OR directly (the
    leaf fetch order is unchanged).  The charge is that of evaluating
    the constituents one by one and OR-ing the results: each
    constituent's own operation count, with no sharing across
    constituents, plus ``n - 1`` ORs.  A serving shard plans each query
    once and hands the plan to every segment's engine.
    """
    if len(constituents) == 1:
        return constituents[0], expression_operation_count(constituents[0])
    operations = sum(map(expression_operation_count, constituents))
    operands = [
        op for expr in constituents
        for op in (expr.operands if type(expr) is Or else (expr,))
    ]
    return Or(tuple(operands)), operations + len(constituents) - 1


class QueryEngine:
    """Evaluates queries against one :class:`~repro.index.BitmapIndex`.

    An index sorted on its one column (:meth:`BitmapIndex.value_probe`)
    is evaluated in *value space*: the pool reads each bitmap only at
    one stored row per value, the expression runs unchanged over those
    short vectors, and the answer is rebuilt from the codes.  Every
    scan, operation, page and pool counter is what row space counts.
    """

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
        self._by_value = index.value_probe() is not None
        self.pool = BufferPool(
            index.store,
            buffer_pages,
            clock=self.clock,
            probe=index.value_probe if self._by_value else None,
        )

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
        stats = EvalStats()
        if self.strategy == "component-wise":
            answer = self._component_wise(constituents, stats)
        elif self.strategy == "scheduled":
            answer = self._query_wise(schedule_constituents(constituents), stats)
        else:
            answer = self._query_wise(constituents, stats)
        bitmap = self._finish(answer, stats.operations)
        return EvaluationResult(
            bitmap=bitmap,
            stats=stats,
            simulated_ms=self.clock.total_ms - start_ms,
            strategy=self.strategy,
        )

    def evaluate_shared(
        self,
        constituents: list[Expr],
        cache: dict[Hashable, BitVector],
        stats: EvalStats,
        plan: tuple[Expr, int] | None = None,
    ) -> BitVector:
        """Evaluate one query's constituents against a shared leaf cache.

        The serving layer's shared-scan batches prefetch the union of a
        batch's leaf bitmaps once (through :attr:`pool`) and pass the
        same ``cache`` to every query in the batch, so each stored
        bitmap crosses the buffer pool at most once per batch.  Word
        operations are charged to the engine's clock as in
        :meth:`execute`.  ``plan`` is :func:`plan_or` of the
        constituents, when the caller already has it.
        """
        before = stats.operations
        answer = self._evaluate_or(constituents, stats, cache, plan)
        return self._finish(answer, stats.operations - before)

    # ------------------------------------------------------------------

    def _length(self) -> int:
        """Bits per evaluated vector: one per value in value space, one
        per row otherwise."""
        if self._by_value:
            return self.index.value_probe()[0].size
        return self.index.num_records

    def _finish(self, answer: BitVector, operations: int) -> BitVector:
        """Charge ``operations`` bulk word operations over the index's
        rows; the answer in original row order, owned by the caller."""
        self.clock.charge_word_ops(
            operations, max(1, -(-self.index.num_records // 64))
        )
        if self._by_value:
            return self.index.restore_row_order(answer, by_value=True)
        # A bare-leaf answer can be the pool-resident vector itself,
        # which may view read-only (store/mmap) memory — callers own
        # their results, so hand out a writable copy instead.  Pure
        # allocation traffic: no scans or operations to charge.
        if not answer.words.flags.writeable:
            answer = answer.copy()
        return self.index.restore_row_order(answer)

    def _evaluate_or(
        self,
        constituents: list[Expr],
        stats: EvalStats,
        cache: dict[Hashable, BitVector],
        plan: tuple[Expr, int] | None = None,
    ) -> BitVector:
        """OR a query's constituents into its answer in one range walk
        (:func:`plan_or`)."""
        expr, operations = plan_or(constituents) if plan is None else plan
        return evaluate(
            expr, self.pool.fetch, self._length(), stats, cache, operations
        )

    def _component_wise(
        self, constituents: list[Expr], stats: EvalStats
    ) -> BitVector:
        """Fetch each distinct bitmap once, in component order."""
        # Pre-fetch all leaves ordered by component so that each
        # component's bitmaps are read together (the paper's strategy
        # accesses each component once on behalf of all subqueries).
        keys = component_order(
            {key for expr in constituents for key in expr.leaf_keys()}
        )
        cache = dict(zip(keys, self.pool.fetch_many(keys)))
        stats.scans += len(keys)
        stats.fetched_keys.extend(keys)
        return self._evaluate_or(constituents, stats, cache)

    def _query_wise(self, constituents: list[Expr], stats: EvalStats) -> BitVector:
        """Evaluate one constituent at a time with no cross-sharing."""
        length = self._length()
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
