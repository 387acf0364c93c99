"""The concurrent query service.

:class:`QueryService` turns a built :class:`~repro.index.BitmapIndex`
into an online, concurrent service:

* **admission control** — a bounded request queue; a full queue sheds
  the submission with a typed :class:`~repro.errors.Overloaded` instead
  of blocking the submitter, so overload is always visible and the
  service never builds an unbounded backlog;
* **deadlines** — each request may carry a timeout; a request whose
  deadline passes before evaluation starts completes with
  :class:`~repro.errors.DeadlineExceeded` (typed, counted, never a
  hang);
* **shared-scan batching** — workers drain the queue in batches and
  evaluate each batch against one shared fetch of the union of the
  batch's bitmaps (:mod:`repro.serve.batcher`), so a bitmap needed by
  several in-flight queries crosses the buffer pool once per batch
  instead of once per query;
* **result caching** — answers are cached under
  ``(index epoch, canonical expression)``
  (:mod:`repro.serve.cache`); :meth:`QueryService.append` bumps the
  index epoch under the scan lock and sweeps stale entries, so a cached
  answer is never served across an append.

Concurrency model: submitters run admission, query rewrite and cache
probes in parallel; batch evaluation serializes on one *scan lock* —
the simulated disk is a single device, so concurrent scans would not
overlap I/O anyway, and serializing them keeps the (deliberately
lock-free) buffer pool, cost clock and store consistent.  Appends take
the same lock, which is what makes service results linearizable against
a serial oracle.

Worker threads report into :mod:`repro.obs` (when installed) under the
``serve.*`` metric names; emissions are funneled through one lock
because the obs instruments themselves are single-threaded by design.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    QueryError,
    ServeError,
    ServiceClosed,
)
from repro.expr import EvalStats, Expr
from repro.index.compressed_engine import CompressedQueryEngine
from repro.index.evaluation import QueryEngine
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.batcher import plan_batches
from repro.serve.cache import ResultCache
from repro.storage import CostClock

Query = IntervalQuery | MembershipQuery | ThresholdQuery

#: Evaluation engines the service can run on.
ENGINES = ("decoded", "compressed")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`QueryService`."""

    #: Bound of the request queue; submissions beyond it are shed.
    max_queue: int = 64
    #: Worker threads draining the queue.
    workers: int = 2
    #: Maximum requests evaluated against one shared scan.
    max_batch: int = 16
    #: How long a worker lingers for more requests before scanning a
    #: non-full batch (0 = scan whatever is queued immediately).
    batch_window_s: float = 0.0
    #: Default per-request timeout (None = no deadline).
    default_timeout_s: float | None = None
    #: Result-cache capacity in entries (0 disables caching).
    cache_entries: int = 256
    #: Buffer-pool capacity in pages; None uses the engine's default
    #: sizing.  Under the compressed engine it covers encoded payloads
    #: plus the leaves' decoded copies.
    buffer_pages: int | None = None
    #: ``"decoded"`` (BufferPool + BitVector ops) or ``"compressed"``
    #: (payload pool + compressed-domain ops).
    engine: str = "decoded"
    #: Physical evaluation mode for the decoded engine: ``"auto"``
    #: (planner decides per constituent), ``True`` (always fused) or
    #: ``False`` (always materializing).  See ``docs/zero_copy.md``.
    fused: bool | str = "auto"

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.engine not in ENGINES:
            raise ServeError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )


@dataclass
class ServeResult:
    """Answer plus serving metadata for one request."""

    bitmap: BitVector
    stats: EvalStats
    #: Simulated cost of this request: its own evaluation CPU plus an
    #: even share of its batch's shared fetch cost.
    simulated_ms: float
    #: Index epoch the answer reflects (the linearization point).
    epoch: int
    #: True when served from the result cache (zero bitmap reads).
    cached: bool
    #: Number of requests evaluated by the same shared scan (0 for a
    #: cache fast-path hit that never entered a batch).
    batch_size: int
    #: Wall-clock submit-to-completion latency.
    wall_ms: float = 0.0

    @property
    def row_count(self) -> int:
        """Number of qualifying records."""
        return self.bitmap.count()

    def row_ids(self):
        """Sorted record ids of qualifying records."""
        return self.bitmap.to_indices()


@dataclass
class ServiceStats:
    """Always-on counters for one service (obs mirrors these when
    installed)."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    batches: int = 0
    batched_queries: int = 0
    appends: int = 0


class _Request:
    """One queued query plus its completion plumbing."""

    __slots__ = (
        "query",
        "constituents",
        "expression",
        "keys",
        "deadline",
        "submitted_at",
        "event",
        "result",
        "error",
    )

    def __init__(
        self,
        query: Query,
        constituents: list[Expr],
        deadline: float | None,
    ):
        self.query = query
        self.constituents = constituents
        self.expression = tuple(constituents)
        self.keys = frozenset(
            key for expr in constituents for key in expr.leaf_keys()
        )
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.event = threading.Event()
        self.result: ServeResult | None = None
        self.error: Exception | None = None


class Ticket:
    """Handle to an in-flight request."""

    def __init__(self, request: _Request):
        self._request = request

    def done(self) -> bool:
        """True once the request completed (successfully or not)."""
        return self._request.event.is_set()

    def result(self, timeout: float | None = None) -> ServeResult:
        """Wait for and return the result.

        Raises the request's typed error
        (:class:`~repro.errors.DeadlineExceeded`,
        :class:`~repro.errors.ServiceClosed`, ...) if it failed, or
        :class:`TimeoutError` if *this wait* (not the request's own
        deadline) timed out.
        """
        if not self._request.event.wait(timeout):
            raise TimeoutError(
                f"request not completed within {timeout}s wait"
            )
        if self._request.error is not None:
            raise self._request.error
        assert self._request.result is not None
        return self._request.result


class QueryService:
    """A concurrent, batching, caching query service over one index.

    Use as a context manager (close() drains the queue and joins the
    workers)::

        with QueryService(index) as service:
            ticket = service.submit(IntervalQuery(3, 17, 200))
            result = ticket.result()
    """

    def __init__(
        self,
        index,
        config: ServiceConfig | None = None,
        clock: CostClock | None = None,
    ):
        self.index = index
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else CostClock()
        if self.config.engine == "compressed":
            self.engine = CompressedQueryEngine(
                index,
                buffer_pages=self.config.buffer_pages,
                clock=self.clock,
            )
        else:
            self.engine = QueryEngine(
                index,
                buffer_pages=self.config.buffer_pages,
                clock=self.clock,
                fused=self.config.fused,
            )
        self.cache = ResultCache(self.config.cache_entries)
        self.stats = ServiceStats()
        self._queue: deque[_Request] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._scan_lock = threading.Lock()
        self._obs_lock = threading.Lock()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- context management -------------------------------------------------

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting requests and join the workers.

        With ``drain=True`` (default) queued requests are still
        evaluated; with ``drain=False`` they complete immediately with
        :class:`~repro.errors.ServiceClosed`.
        """
        cancelled: list[_Request] = []
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            if not drain:
                while self._queue:
                    cancelled.append(self._queue.popleft())
            self._not_empty.notify_all()
        # Fail outside the queue lock: _fail takes it to bump counters.
        for request in cancelled:
            self._fail(
                request,
                ServiceClosed("service closed before evaluation"),
                "cancelled",
            )
        for worker in self._workers:
            worker.join(timeout)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    # -- submission ---------------------------------------------------------

    def submit(self, query: Query, timeout_s: float | None = None) -> Ticket:
        """Enqueue ``query``; returns a :class:`Ticket` immediately.

        Raises :class:`~repro.errors.Overloaded` when the queue is full
        and :class:`~repro.errors.ServiceClosed` after :meth:`close`.
        A cached answer (current epoch) completes the ticket without
        queueing — the cache fast path reads no bitmaps and consumes no
        queue slot.
        """
        if self._closed:
            raise ServiceClosed("cannot submit to a closed service")
        request = self._make_request(query, timeout_s)
        with self._lock:
            self.stats.submitted += 1
        self._emit_count("serve.submitted")

        # Opportunistic probe: a miss here is re-probed (and counted,
        # once) when a worker picks the request up, so this probe must
        # not record it — see ResultCache.get(record_miss=...).
        epoch = self.index.epoch
        cached = self.cache.get(epoch, request.expression, record_miss=False)
        if cached is not None:
            self._finish(
                request,
                ServeResult(
                    bitmap=cached,
                    stats=EvalStats(),
                    simulated_ms=0.0,
                    epoch=epoch,
                    cached=True,
                    batch_size=0,
                ),
            )
            self._emit_count("serve.cache.hits")
            return Ticket(request)

        with self._not_empty:
            if self._closed:
                raise ServiceClosed("cannot submit to a closed service")
            if len(self._queue) >= self.config.max_queue:
                self.stats.shed += 1
                self._emit_count("serve.shed")
                raise Overloaded(
                    f"request queue full ({self.config.max_queue} waiting); "
                    f"retry with backoff"
                )
            self._queue.append(request)
            depth = len(self._queue)
            self._not_empty.notify()
        self._emit_gauge("serve.queue_depth", depth)
        return Ticket(request)

    def execute(self, query: Query, timeout_s: float | None = None) -> ServeResult:
        """Submit and wait: blocking convenience wrapper."""
        return self.submit(query, timeout_s).result()

    def execute_many(self, queries: list[Query]) -> list[ServeResult]:
        """Evaluate ``queries`` synchronously in the caller's thread.

        The deterministic serving path: the full list is planned into
        shared-scan batches (grouped by bitmap sharing, capped at
        ``max_batch``) and evaluated in plan order, bypassing the queue
        and worker pool — no admission control, no thread timing.  The
        benchmark gate uses this to compare batched vs. serial page
        counts without scheduling noise.
        """
        if self._closed:
            raise ServiceClosed("cannot submit to a closed service")
        requests = [self._make_request(query, None) for query in queries]
        with self._lock:
            self.stats.submitted += len(requests)
        for batch in plan_batches(
            [request.keys for request in requests], self.config.max_batch
        ):
            self._run_shared_scan([requests[i] for i in batch])
        results = []
        for request in requests:
            if request.error is not None:
                raise request.error
            results.append(request.result)
        return results

    def append(self, values) -> "object":
        """Append a batch to the index, invalidating dependent state.

        Serialized with shared scans via the scan lock; the index epoch
        bump plus :meth:`ResultCache.invalidate_below` guarantee no
        pre-append answer survives, and the buffer pool re-reads
        replaced bitmaps through the store's write versions.  Returns
        the index's :class:`~repro.index.bitmap_index.UpdateReport`.
        """
        with self._scan_lock:
            report = self.index.append(values)
            dropped = self.cache.invalidate_below(self.index.epoch)
            with self._lock:
                self.stats.appends += 1
        self._emit_count("serve.appends")
        if dropped:
            self._emit_count("serve.cache.invalidated", float(dropped))
        return report

    # -- internals ----------------------------------------------------------

    def _make_request(
        self, query: Query, timeout_s: float | None
    ) -> _Request:
        if isinstance(query, IntervalQuery):
            constituents = [self.index.rewriter.rewrite_interval(query)]
        elif isinstance(query, MembershipQuery):
            constituents = self.index.rewriter.rewrite_membership(query)
        elif isinstance(query, ThresholdQuery):
            constituents = [self.index.rewriter.rewrite_threshold(query)]
        else:
            raise QueryError(f"unsupported query type {type(query).__name__}")
        timeout = (
            timeout_s
            if timeout_s is not None
            else self.config.default_timeout_s
        )
        deadline = time.monotonic() + timeout if timeout is not None else None
        return _Request(query, constituents, deadline)

    def _worker_loop(self) -> None:
        config = self.config
        while True:
            with self._not_empty:
                while not self._queue and not self._closed:
                    self._not_empty.wait()
                if not self._queue:
                    return  # closed and drained
                if (
                    config.batch_window_s > 0
                    and len(self._queue) < config.max_batch
                    and not self._closed
                ):
                    self._not_empty.wait(config.batch_window_s)
                taken = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), config.max_batch))
                ]
                depth = len(self._queue)
            self._emit_gauge("serve.queue_depth", depth)
            if taken:
                self._run_shared_scan(taken)

    def _run_shared_scan(self, requests: list[_Request]) -> None:
        """Evaluate a batch against one shared fetch of its bitmaps."""
        with self._scan_lock:
            epoch = self.index.epoch
            pending: list[_Request] = []
            now = time.monotonic()
            for request in requests:
                if request.deadline is not None and now > request.deadline:
                    self._fail(
                        request,
                        DeadlineExceeded(
                            f"deadline passed before evaluation of "
                            f"{request.query}"
                        ),
                        "timeouts",
                    )
                    continue
                cached = self.cache.get(epoch, request.expression)
                if cached is not None:
                    self._finish(
                        request,
                        ServeResult(
                            bitmap=cached,
                            stats=EvalStats(),
                            simulated_ms=0.0,
                            epoch=epoch,
                            cached=True,
                            batch_size=0,
                        ),
                    )
                    self._emit_count("serve.cache.hits")
                    continue
                pending.append(request)
            if not pending:
                return
            # These requests are this scan's real cache misses (the
            # submit-path probe was silent); one emission per request
            # keeps obs `serve.cache.hits + serve.cache.misses` equal
            # to completed non-failed requests.
            self._emit_count("serve.cache.misses", float(len(pending)))

            with self._lock:
                self.stats.batches += 1
                self.stats.batched_queries += len(pending)
            self._emit_observe("serve.batch_size", float(len(pending)))

            # One pass over the union of the batch's bitmaps.  The
            # shared cache pins the batch working set for the scan's
            # duration (bounded by max_batch), exactly as the
            # component-wise strategy pins one query's working set.
            keys = sorted(
                {key for request in pending for key in request.keys},
                key=lambda key: (key[0], repr(key[1])),
            )
            fetch_start = self.clock.total_ms
            shared: dict = {}
            for key in keys:
                shared[key] = self.engine.pool.fetch(key)
            fetch_share = (self.clock.total_ms - fetch_start) / len(pending)

            for request in pending:
                eval_start = self.clock.total_ms
                stats = EvalStats()
                try:
                    bitmap = self.engine.evaluate_shared(
                        list(request.constituents), shared, stats
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    self._fail(request, exc, "cancelled")
                    continue
                stats.scans = len(request.keys)
                self.cache.put(epoch, request.expression, bitmap)
                self._finish(
                    request,
                    ServeResult(
                        bitmap=bitmap,
                        stats=stats,
                        simulated_ms=(self.clock.total_ms - eval_start)
                        + fetch_share,
                        epoch=epoch,
                        cached=False,
                        batch_size=len(pending),
                    ),
                )

    def _finish(self, request: _Request, result: ServeResult) -> None:
        result.wall_ms = (time.monotonic() - request.submitted_at) * 1e3
        request.result = result
        request.event.set()
        with self._lock:
            self.stats.completed += 1
        self._emit_count("serve.completed")
        self._emit_observe("serve.latency_ms", result.wall_ms)
        self._emit_observe("serve.simulated_ms", result.simulated_ms)

    def _fail(self, request: _Request, error: Exception, counter: str) -> None:
        request.error = error
        request.event.set()
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self._emit_count(f"serve.{counter}")

    # -- reporting ----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Service, cache, clock and pool counters as one flat dict."""
        pool_stats = self.engine.pool.stats
        with self._lock:
            snapshot = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "shed": self.stats.shed,
                "timeouts": self.stats.timeouts,
                "cancelled": self.stats.cancelled,
                "batches": self.stats.batches,
                "batched_queries": self.stats.batched_queries,
                "appends": self.stats.appends,
            }
        snapshot.update(
            cache_hits=self.cache.stats.hits,
            cache_misses=self.cache.stats.misses,
            cache_invalidated=self.cache.stats.invalidated,
            pages_read=self.clock.pages_read,
            read_requests=self.clock.read_requests,
            simulated_ms=self.clock.total_ms,
            pool_hits=pool_stats.hits,
            pool_misses=pool_stats.misses,
            pool_evictions=pool_stats.evictions,
        )
        return snapshot

    # -- obs plumbing -------------------------------------------------------
    # The obs instruments are deliberately lock-free (single-threaded
    # simulator); the service is the one multi-threaded producer, so it
    # funnels its emissions through one lock.

    def _emit_count(self, name: str, amount: float = 1.0) -> None:
        o = _obs.active()
        if o is not None:
            with self._obs_lock:
                o.count(name, amount)

    def _emit_observe(self, name: str, value: float) -> None:
        o = _obs.active()
        if o is not None:
            with self._obs_lock:
                o.observe(name, value)

    def _emit_gauge(self, name: str, value: float) -> None:
        o = _obs.active()
        if o is not None:
            with self._obs_lock:
                o.gauge_set(name, value)
