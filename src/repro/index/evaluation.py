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

Each query is compiled once (:func:`~repro.expr.compile_query`): the
component-wise strategy compiles the whole query, the query-wise ones
each constituent, which is then its own range walk.  Everything after
the rewrite reads the :class:`~repro.expr.QueryPlan` — the prefetch's
keys, the charge, :func:`~repro.expr.evaluate` — and a serving shard
hands one plan to every segment's engine, so no segment walks the tree.

:class:`QueryEngine` runs under one of two cost conventions, each a
:class:`~repro.storage.buffer.Residency` of the one
:class:`~repro.storage.BufferPool`, and both evaluate through the same
range walk, :func:`~repro.expr.evaluate`:

* ``engine="decoded"`` — the paper's: the pool keeps decoded bitmaps, a
  miss is charged its read pages plus decompression, and every bulk
  operation the index's word count (Figure 9 needs this decompression
  charge);
* ``engine="compressed"`` — the pool keeps encoded payloads, a miss is
  charged its read pages only, each of the plan's operator terms the
  bytes its operands occupy (encoded bytes of a leaf in this index,
  word bytes of an inner node; a shared subtree once) and a bare-leaf
  answer its decompression.  Each leaf is read from its decoded copy
  when the pool has room for one and from its block stream otherwise
  (the ``compress.physical{path=}`` counter, one per leaf source), so
  the choice never moves a simulated number.  Any codec in
  :data:`~repro.compress.COMPRESSED_DOMAIN_CODECS` qualifies, and it
  runs component-wise.

An index sorted on its one column is evaluated in value space under
either convention: the pool reads each bitmap's bits at one stored row
per value, charged as the decoded bitmap, and every scan, operation,
page and pool counter is what row space counts.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, replace
from functools import cache as _memo

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS
from repro.errors import QueryError
from repro.expr import EvalStats, Expr, QueryPlan, compile_query, evaluate
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.storage import BufferPool, BufferStats, CostClock
from repro.storage.buffer import COMPRESSED, DECODED
from repro.storage.pages import decoded_pages

STRATEGIES = ("component-wise", "query-wise", "scheduled")
#: Cost conventions (and pools) a :class:`QueryEngine` runs under.
ENGINES = ("decoded", "compressed")

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


def schedule_constituents(
    constituents: list[Expr] | list[QueryPlan],
) -> list[Expr] | list[QueryPlan]:
    """Order constituents (expressions, or their compiled plans) to
    maximize consecutive leaf-set overlap.

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
    """Evaluates queries against one :class:`~repro.index.BitmapIndex`.

    The engine picks its pool policy once, from ``engine`` (module
    docstring) and :meth:`BitmapIndex.value_probe`.  An index sorted on
    its one column is evaluated in *value space*: the pool reads each
    bitmap only at one stored row per value, the expression runs
    unchanged over those short vectors, and the answer is rebuilt from
    the codes.

    ``engine="compressed"`` selects the compressed convention; its
    results report the strategy ``"compressed-domain"``.
    ``buffer_pages`` then bounds encoded payloads and decoded copies
    together, and the default holds every bitmap in both forms.
    """

    def __init__(
        self,
        index,
        buffer_pages: int | None = None,
        clock: CostClock | None = None,
        strategy: str = "component-wise",
        engine: str = "decoded",
    ):
        if strategy not in STRATEGIES:
            raise QueryError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if engine not in ENGINES:
            raise QueryError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.index = index
        self.engine = engine
        self.strategy = strategy
        self.clock = clock if clock is not None else CostClock()
        decoded = decoded_pages(index.num_records, index.store.page_size)
        # ``_charge`` is kept unbound (called with ``self``): a bound
        # method would make every engine a reference cycle, freed with
        # its pool only by the cyclic collector.
        if engine == "compressed":
            codec = index.store.codec.name
            if codec not in COMPRESSED_DOMAIN_CODECS:
                raise QueryError(
                    "compressed-domain evaluation requires a codec with "
                    f"compressed-domain operations "
                    f"({sorted(COMPRESSED_DOMAIN_CODECS)}), index uses {codec!r}"
                )
            if strategy != "component-wise":
                raise QueryError("the compressed engine runs component-wise only")
            self.strategy = "compressed-domain"
            policy, self._charge = COMPRESSED, QueryEngine._charge_encoded
            default_pages = index.size_pages() + decoded * index.num_bitmaps() + 2
        else:
            policy, self._charge = DECODED, QueryEngine._charge_words
            # The whole decoded index fits (the paper's 11 MB pool was
            # "adequate").
            default_pages = decoded * (index.num_bitmaps() + 2)
        by_value = index.value_probe() is not None
        if by_value:
            policy = replace(policy, probe=index.value_probe)
        #: Bits per evaluated vector: one per value, or one per row.
        self._length = (
            (lambda: index.value_probe()[0].size) if by_value
            else (lambda: index.num_records)
        )
        # Looked up at each call, so a wrapper patched onto the method
        # sees every restore.
        self._restore = lambda answer: index.restore_row_order(answer, by_value=by_value)
        pages = default_pages if buffer_pages is None else buffer_pages
        self.pool = BufferPool(index.store, pages, self.clock, policy)

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
            return self._execute_constituents(self.index.rewriter.constituents(query))
        klass = query_class_of(query)
        scheme = self.index.scheme.name
        with o.span(
            "query",
            scheme=scheme,
            strategy=self.strategy,
            klass=klass,
            engine=self.engine,
        ):
            result = self._execute_constituents(self.index.rewriter.constituents(query))
        o.observe("query.simulated_ms", result.simulated_ms,
                  scheme=scheme, klass=klass)
        o.count("query.executed", 1, scheme=scheme, klass=klass)
        return result

    def _execute_constituents(self, constituents: list[Expr]) -> EvaluationResult:
        """Compile and evaluate one query: one plan for the whole query
        component-wise, one per constituent (its own walk) otherwise."""
        start_ms = self.clock.total_ms
        stats = EvalStats()
        if self.strategy in ("query-wise", "scheduled"):
            plans = [compile_query((expr,)) for expr in constituents]
            if self.strategy == "scheduled":
                plans = schedule_constituents(plans)
            answer = self._query_wise(plans, stats)
        else:
            answer = self._component_wise(compile_query(constituents), stats)
        bitmap = self._finish(answer)
        return EvaluationResult(
            bitmap=bitmap,
            stats=stats,
            simulated_ms=self.clock.total_ms - start_ms,
            strategy=self.strategy,
        )

    def evaluate_shared(
        self,
        plan: QueryPlan,
        cache: dict[Hashable, BitVector],
        stats: EvalStats,
    ) -> BitVector:
        """Evaluate one compiled query against a shared leaf cache.

        The serving layer's shared-scan batches prefetch the union of a
        batch's leaf bitmaps once (through :attr:`pool`) and pass the
        same ``cache`` to every query in the batch, so each stored
        bitmap crosses the buffer pool at most once per batch.  Word
        operations are charged to the engine's clock as in
        :meth:`execute`.  ``plan`` is the query's
        :func:`~repro.expr.compile_query`, compiled once for every
        segment.  A key missing from ``cache`` is fetched and counted
        as a scan.
        """
        return self._finish(self._evaluate_or(plan, stats, cache))

    # ------------------------------------------------------------------

    def _finish(self, answer: BitVector) -> BitVector:
        """The answer in original row order, owned by the caller.

        A bare-leaf answer can be the pool-resident vector itself, which
        may view read-only (store/mmap) memory or be a pooled decoded
        copy, so a read-only answer is copied first.  Pure allocation
        traffic: no scans or operations to charge.
        """
        if not answer.words.flags.writeable:
            answer = answer.copy()
        return self._restore(answer)

    def _evaluate_or(
        self, plan: QueryPlan, stats: EvalStats, cache: dict[Hashable, object]
    ) -> BitVector:
        """OR a query's constituents into its answer in one range walk
        over the plan's flattened OR, charged by the engine's convention."""
        operations = self._charge(self, plan)
        return evaluate(plan, self.pool.fetch, self._length(), stats, cache, operations)

    def _charge_words(self, plan: QueryPlan) -> int:
        """Charge the decoded convention: each of the plan's bulk
        operations over the index's rows."""
        self.clock.charge_word_ops(plan.operations, max(1, -(-self.index.num_records // 64)))
        return plan.operations

    def _charge_encoded(self, plan: QueryPlan) -> int:
        """Charge the compressed convention; returns the bulk operations
        it counts (a shared subtree once).

        Each of the plan's terms is charged the bytes its operands
        occupy: a leaf's encoded bytes in this index, an inner node's or
        a constant's decoded words.  A bare-leaf answer is charged its
        decompression.
        """
        word_bytes = 8 * -(-self.index.num_records // 64)
        payload = self.index.store.get_payload
        for leaf_keys, inner in plan.terms:
            touched = inner * word_bytes
            for key in leaf_keys:
                touched += len(payload(key)[0])
            self.clock.charge_word_ops(1, max(1, touched // 8))
        if plan.leaf is not None:
            self.clock.charge_decompress(len(payload(plan.leaf)[0]))
        return plan.term_operations

    def _component_wise(self, plan: QueryPlan, stats: EvalStats) -> BitVector:
        """Fetch each distinct bitmap once, in component order."""
        # Pre-fetch all leaves ordered by component so that each
        # component's bitmaps are read together (the paper's strategy
        # accesses each component once on behalf of all subqueries).
        keys = component_order(plan.keys)
        cache = dict(zip(keys, self.pool.fetch_many(keys)))
        stats.scans += len(keys)
        stats.fetched_keys.extend(keys)
        return self._evaluate_or(plan, stats, cache)

    def _query_wise(self, plans: list[QueryPlan], stats: EvalStats) -> BitVector:
        """Evaluate one constituent at a time with no cross-sharing."""
        length = self._length()
        answer: BitVector | None = None
        for plan in plans:
            cache: dict[Hashable, BitVector] = {}
            result = evaluate(plan, self.pool.fetch, length, stats, cache)
            if answer is None:
                # A bare-leaf constituent evaluates to the pool-resident
                # vector itself (read-only under a mapped store), so the
                # accumulator must be a private copy before |=.
                answer = result if len(plans) == 1 else result.copy()
            else:
                answer |= result
                stats.operations += 1
        assert answer is not None
        self.clock.charge_word_ops(
            stats.operations, max(1, -(-self.index.num_records // 64))
        )
        return answer
