"""Sharded multi-process serving: scatter-gather over row-range shards.

:class:`ShardedQueryService` partitions the indexed column into N
contiguous row-range shards, runs one
:class:`~repro.serve.shard_worker.ShardEngine` per shard, and answers
each query by scatter-gather: fan the query to every shard, evaluate
per shard (each shard reuses the single-process machinery — fused
evaluation, shared-scan batching, an ``(epoch, expression)`` result
cache), and merge the partial bitmaps by concatenation.  Because the
shards' row ranges are disjoint and ordered, concatenation in shard
order *is* the translation back to global row ids — the same seam
:class:`~repro.index.segmented.SegmentedBitmapIndex` exploits between
segments, lifted one level to processes.

Transports
----------
``"inline"`` hosts every shard engine in the router process.  It is
deterministic and cheap to set up — the differential and
linearizability suites run on it — but evaluation serializes on one
lock because the :mod:`repro.obs` instruments and the storage layer's
counters are deliberately lock-free.  ``"process"`` hosts each shard in
a :class:`~repro.parallel.ProcessWorker`: evaluation runs GIL-free in
the children (which have no obs registry, so nothing races), giving
real multi-core scaling, at the price of pickling queries and partial
bitmaps across pipes.

Consistency model
-----------------
Every operation against one shard flows through that shard's dispatcher
thread, so per-shard histories are serial: an append (which bumps only
that shard's epoch and invalidates only that shard's cache) is either
entirely before or entirely after any evaluation on the same shard.  A
scatter pins the current *layout* (the ordered shard list), so a racing
split cannot recompose row ranges under it; a retired (split) shard
keeps serving pinned readers and is shut down only when its last pin
drains.  Each answer therefore reports, per shard, the epoch it
reflects — a composite snapshot the linearizability suite checks
against a per-shard naive-scan oracle.

Failure model
-------------
A dead or hung shard worker surfaces as
:class:`~repro.errors.ShardFailed` (wrapping the typed
:class:`~repro.errors.WorkerCrashed` /
:class:`~repro.errors.WorkerUnresponsive`) for every in-flight query
that needed that shard — never a partial or wrong answer.  The router
keeps each shard's acked rows authoritatively, so recovery rebuilds the
engine from exactly the rows whose appends were acknowledged
(``auto_recover=True`` rebuilds immediately; otherwise
:meth:`ShardedQueryService.recover` does it on demand), fast-forwarding
the epoch so ``(shard, epoch)`` never aliases two different row states.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector, concatenate
from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    QueryError,
    ServeError,
    ServiceClosed,
    ShardFailed,
    WorkerCrashed,
    WorkerUnresponsive,
)
from repro.index.bitmap_index import IndexSpec
from repro.parallel import ProcessWorker, WorkerFault
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.service import Ticket
from repro.serve.shard_worker import (
    DEFAULT_SEGMENT_SIZE,
    ShardEngine,
    build_shard_engine,
)

Query = IntervalQuery | MembershipQuery | ThresholdQuery

TRANSPORTS = ("inline", "process")

_CLOSE = "__close__"
_REBUILD = "__rebuild__"


@dataclass(frozen=True)
class ShardedConfig:
    """Tuning knobs for one :class:`ShardedQueryService`."""

    #: Number of initial row-range shards.
    shards: int = 2
    #: ``"inline"`` (deterministic, single-process) or ``"process"``
    #: (one worker process per shard, GIL-free evaluation).
    transport: str = "inline"
    #: Bound of the router's request queue; submissions beyond it shed.
    max_queue: int = 64
    #: Router threads draining the submit queue into scatters.
    workers: int = 2
    #: Maximum requests fanned out in one scatter (each shard further
    #: plans shared-scan batches within it).
    max_batch: int = 16
    #: Per-shard result-cache capacity in entries (0 disables).
    cache_entries: int = 256
    #: Per-segment buffer-pool capacity in pages; None = engine default
    #: sizing.  Under the compressed engine it covers encoded payloads
    #: plus the leaves' decoded copies.
    buffer_pages: int | None = None
    #: ``"decoded"`` or ``"compressed"`` per-shard evaluation engine.
    engine: str = "decoded"
    #: Physical evaluation mode for decoded engines (see ServiceConfig).
    fused: bool | str = "auto"
    #: Rows per segment inside each shard.
    segment_size: int = DEFAULT_SEGMENT_SIZE
    #: Default per-request timeout (None = no deadline).
    default_timeout_s: float | None = None
    #: Per-call answer deadline for process-transport workers; a worker
    #: silent past this is declared unresponsive.
    call_timeout_s: float = 30.0
    #: Rebuild a failed shard from its acked rows immediately (True) or
    #: only via an explicit :meth:`ShardedQueryService.recover` (False).
    auto_recover: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServeError(f"shards must be >= 1, got {self.shards}")
        if self.transport not in TRANSPORTS:
            raise ServeError(
                f"unknown transport {self.transport!r}; "
                f"expected one of {TRANSPORTS}"
            )
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.call_timeout_s <= 0:
            raise ServeError(
                f"call_timeout_s must be > 0, got {self.call_timeout_s}"
            )


@dataclass
class ShardedResult:
    """Merged answer plus serving metadata for one request."""

    #: Global-row-id answer (shard partials concatenated in shard order).
    bitmap: BitVector
    #: Per-shard linearization points: ``((shard_id, epoch), ...)`` in
    #: shard order — the composite snapshot this answer reflects.
    epochs: tuple[tuple[int, int], ...]
    #: True only when *every* shard served its partial from cache.
    cached: bool
    #: Requests fanned out in the same scatter.
    batch_size: int
    #: Shards that contributed a partial answer.
    shard_count: int
    #: Sum of the shards' simulated evaluation costs.
    simulated_ms: float
    #: Wall-clock submit-to-completion latency.
    wall_ms: float = 0.0

    @property
    def row_count(self) -> int:
        """Number of qualifying records."""
        return self.bitmap.count()

    def row_ids(self):
        """Sorted global record ids of qualifying records."""
        return self.bitmap.to_indices()


@dataclass(frozen=True)
class ShardAppend:
    """Outcome of one routed append (lands wholly on one shard)."""

    shard: int
    epoch: int
    records_appended: int
    num_records: int


@dataclass(frozen=True)
class ShardSplit:
    """Outcome of one shard split."""

    parent: int
    left: int
    right: int
    row: int


@dataclass
class ShardedStats:
    """Always-on router counters (obs mirrors these when installed)."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    batches: int = 0
    batched_queries: int = 0
    appends: int = 0
    #: Requests answered entirely from shard caches (every partial
    #: cached) — counted once per request, never once per shard.
    cache_hits: int = 0
    cache_misses: int = 0
    splits: int = 0
    shard_failures: int = 0
    shard_recoveries: int = 0


class _Call:
    """One dispatched shard operation and its completion plumbing."""

    __slots__ = ("method", "args", "event", "value", "error")

    def __init__(self, method: str, args: tuple):
        self.method = method
        self.args = args
        self.event = threading.Event()
        self.value = None
        self.error: Exception | None = None

    def resolve(self, value) -> None:
        self.value = value
        self.event.set()

    def reject(self, error: Exception) -> None:
        self.error = error
        self.event.set()

    def wait(self):
        self.event.wait()
        if self.error is not None:
            raise self.error
        return self.value


class _Request:
    """One queued query plus its completion plumbing (Ticket-compatible)."""

    __slots__ = ("query", "deadline", "submitted_at", "event", "result", "error")

    def __init__(self, query: Query, deadline: float | None):
        self.query = query
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.event = threading.Event()
        self.result: ShardedResult | None = None
        self.error: Exception | None = None


class _Layout:
    """An immutable ordered shard list, pinned by in-flight scatters."""

    __slots__ = ("shards", "pins", "superseded", "to_retire")

    def __init__(self, shards):
        self.shards: tuple[_Shard, ...] = tuple(shards)
        self.pins = 0
        self.superseded = False
        #: Shards present here but absent from every newer layout; shut
        #: down when the last pin on this layout drains.
        self.to_retire: list[_Shard] = []


class _Shard:
    """One shard: authoritative rows, an engine handle, a dispatcher.

    Every operation is enqueued and executed by the shard's single
    dispatcher thread, which serializes the shard's history (the
    per-shard linearizability guarantee) and — for the process
    transport — keeps exactly one outstanding pipe request per worker.
    """

    def __init__(
        self,
        service: "ShardedQueryService",
        shard_id: int,
        rows: np.ndarray,
        index=None,
        fault: WorkerFault | None = None,
    ):
        self.service = service
        self.id = shard_id
        #: Acked rows — the router's authoritative copy, extended only
        #: after the engine acknowledges an append, so a rebuild from
        #: them reconstructs exactly the acknowledged state.  Kept as
        #: appended chunks (an append copies only its own rows) and
        #: joined by :meth:`acked_rows` where a whole array is needed.
        self._row_chunks = [np.asarray(rows)]
        self._rows_lock = threading.Lock()
        #: Number of acked rows.
        self.num_rows = len(self._row_chunks[0])
        self.failed = False
        self._queue: deque[_Call] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._shutdown_sent = False
        self.handle = self._build_handle(index=index, fault=fault)
        if index is not None:
            self.epoch = index.epoch
        else:
            self.epoch = 1 if self.num_rows else 0
        self._thread = threading.Thread(
            target=self._loop, name=f"shard-{shard_id}-dispatch", daemon=True
        )
        self._thread.start()

    @property
    def pid(self) -> int | None:
        """Worker pid (process transport), for chaos tests."""
        if isinstance(self.handle, ProcessWorker):
            return self.handle.pid
        return None

    def acked_rows(self) -> np.ndarray:
        """Every acked row as one array (chunks joined once, on demand)."""
        with self._rows_lock:
            if len(self._row_chunks) > 1:
                self._row_chunks = [np.concatenate(self._row_chunks)]
            return self._row_chunks[0]

    def _ack_append(self, rows: np.ndarray) -> None:
        """Record an acknowledged append (a copy of ``rows``)."""
        with self._rows_lock:
            self._row_chunks.append(np.array(rows))
            self.num_rows += len(rows)

    # ------------------------------------------------------------------

    def dispatch(self, method: str, args: tuple = ()) -> _Call:
        """Enqueue an operation; returns its :class:`_Call` future."""
        call = _Call(method, args)
        with self._cond:
            if self._closed:
                call.reject(
                    ShardFailed(f"shard {self.id} has been shut down")
                )
                return call
            self._queue.append(call)
            self._cond.notify()
        return call

    def shutdown(self, join: bool = True, timeout: float = 10.0) -> None:
        """Enqueue a close barrier: pending operations finish first."""
        with self._cond:
            if not self._shutdown_sent:
                self._shutdown_sent = True
                self._queue.append(_Call(_CLOSE, ()))
                self._cond.notify()
        if join:
            self._thread.join(timeout)

    # ------------------------------------------------------------------

    def _build_handle(self, index=None, fault: WorkerFault | None = None):
        options = self.service._engine_options()
        if self.service.config.transport == "process":
            return ProcessWorker(
                build_shard_engine,
                args=(self.acked_rows(), self.service.spec, options),
                name=f"shard-{self.id}",
                fault=fault,
            )
        if index is not None:
            options = dict(options, index=index)
        return ShardEngine(self.acked_rows(), self.service.spec, **options)

    def _invoke(self, method: str, args: tuple):
        if isinstance(self.handle, ProcessWorker):
            return self.handle.call(
                method, *args, timeout=self.service.config.call_timeout_s
            )
        # Inline engines run in the router process, where the storage
        # layer emits into the lock-free obs instruments — serialize
        # with every other emitter via the service's obs lock.
        with self.service._obs_lock:
            return getattr(self.handle, method)(*args)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    self._cond.wait()
                call = self._queue.popleft()
            if call.method == _CLOSE:
                self._close_handle()
                with self._cond:
                    self._closed = True
                    stragglers = list(self._queue)
                    self._queue.clear()
                call.resolve(None)
                for straggler in stragglers:
                    straggler.reject(
                        ShardFailed(f"shard {self.id} has been shut down")
                    )
                return
            if call.method == _REBUILD:
                try:
                    self._rebuild()
                    call.resolve(True)
                except Exception as exc:
                    call.reject(exc)
                continue
            if self.failed:
                call.reject(
                    ShardFailed(
                        f"shard {self.id} is awaiting recovery after a "
                        f"worker failure"
                    )
                )
                continue
            try:
                result = self._invoke(call.method, call.args)
                if call.method == "append":
                    # Acked in the shard's own serialized history, so a
                    # rebuild queued behind this append sees its rows.
                    self._ack_append(call.args[0])
                call.resolve(result)
            except (WorkerCrashed, WorkerUnresponsive) as exc:
                self.failed = True
                self.service._note_shard_failure(self, exc)
                call.reject(
                    ShardFailed(
                        f"shard {self.id} could not answer "
                        f"{call.method!r}: {exc}"
                    )
                )
                if self.service.config.auto_recover:
                    try:
                        self._rebuild()
                    except Exception:
                        pass  # stays failed; recover() can retry
            except Exception as exc:
                call.reject(exc)

    def _close_handle(self) -> None:
        try:
            if isinstance(self.handle, ProcessWorker):
                self.handle.close()
            else:
                self.handle.close()
        except Exception:
            pass

    def _rebuild(self) -> None:
        """Rebuild the engine from the acked rows (dispatcher thread).

        The old worker is killed first (it may be merely hung), then a
        fresh engine is built from :meth:`acked_rows` and its epoch is
        fast-forwarded to the acked epoch — same rows, same epoch, so
        answers before and after the rebuild are indistinguishable to
        the oracle.
        """
        old = self.handle
        try:
            if isinstance(old, ProcessWorker):
                old.kill()
                old.close()
            else:
                old.close()
        except Exception:
            pass
        self.handle = self._build_handle()
        target = self.epoch
        fresh = 1 if self.num_rows else 0
        if target > fresh:
            self._invoke("set_epoch", (target,))
        else:
            self.epoch = fresh
        self.failed = False
        self.service._note_shard_recovery(self)


class ShardedQueryService:
    """Scatter-gather router over row-range shards.

    Built from the raw column (each shard builds its own
    :class:`~repro.index.segmented.SegmentedBitmapIndex` over its row
    range)::

        with ShardedQueryService(values, spec, config) as service:
            result = service.execute(IntervalQuery(3, 17, 200))

    The query surface mirrors :class:`~repro.serve.QueryService`
    (``submit``/``execute``/``execute_many``/``append``/
    ``metrics_snapshot``), so the closed- and open-loop drivers run
    against it unchanged; on top of that it adds :meth:`split` (online
    rebalancing) and :meth:`recover` (explicit shard recovery).
    """

    def __init__(
        self,
        values,
        spec: IndexSpec,
        config: ShardedConfig | None = None,
        faults: dict[int, WorkerFault] | None = None,
    ):
        self.spec = spec
        self.config = config if config is not None else ShardedConfig()
        self.stats = ShardedStats()
        self._lock = threading.Lock()
        self._obs_lock = threading.Lock()
        self._layout_lock = threading.Lock()
        self._mutation_lock = threading.Lock()
        self._queue: deque[_Request] = deque()
        self._not_empty = threading.Condition()
        self._closed = False
        self._next_shard_id = 0
        self._all_shards: list[_Shard] = []

        rows = np.asarray(values)
        chunk = max(1, -(-len(rows) // self.config.shards))
        shards = []
        for i in range(self.config.shards):
            shard_rows = rows[i * chunk : (i + 1) * chunk]
            fault = faults.get(i) if faults else None
            shards.append(self._new_shard(shard_rows, fault=fault))
        self._layout = _Layout(shards)
        self._emit_gauge("serve.shard.count", float(len(shards)))

        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"shard-router-{i}",
                daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- construction helpers ----------------------------------------------

    def _engine_options(self) -> dict:
        config = self.config
        return {
            "engine": config.engine,
            "fused": config.fused,
            "cache_entries": config.cache_entries,
            "buffer_pages": config.buffer_pages,
            "segment_size": config.segment_size,
            "max_batch": config.max_batch,
        }

    def _new_shard(self, rows, index=None, fault=None) -> _Shard:
        shard = _Shard(
            self, self._next_shard_id, rows, index=index, fault=fault
        )
        self._next_shard_id += 1
        self._all_shards.append(shard)
        return shard

    # -- context management -------------------------------------------------

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting requests, drain, and shut every shard down.

        Idempotent, and safe under in-flight scatter-gather: requests
        already queued (or mid-scatter) complete before the shard
        dispatchers see their close barriers, because a barrier queues
        *behind* the operations those requests dispatched.
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
        for request in cancelled:
            self._fail(
                request,
                ServiceClosed("service closed before evaluation"),
                "cancelled",
            )
        for worker in self._workers:
            worker.join(timeout)
        for shard in self._all_shards:
            shard.shutdown(join=True, timeout=timeout)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    # -- submission ---------------------------------------------------------

    def submit(self, query: Query, timeout_s: float | None = None) -> Ticket:
        """Enqueue ``query``; returns a ticket immediately.

        Raises :class:`~repro.errors.Overloaded` when the router queue
        is full and :class:`~repro.errors.ServiceClosed` after close.
        """
        if self._closed:
            raise ServiceClosed("cannot submit to a closed service")
        request = self._make_request(query, timeout_s)
        with self._lock:
            self.stats.submitted += 1
        self._emit_count("serve.submitted")
        with self._not_empty:
            if self._closed:
                raise ServiceClosed("cannot submit to a closed service")
            if len(self._queue) >= self.config.max_queue:
                with self._lock:
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

    def execute(
        self, query: Query, timeout_s: float | None = None
    ) -> ShardedResult:
        """Submit and wait: blocking convenience wrapper."""
        return self.submit(query, timeout_s).result()

    def execute_many(self, queries: list[Query]) -> list[ShardedResult]:
        """Evaluate ``queries`` synchronously in the caller's thread.

        One scatter carries the whole list; each shard plans its own
        shared-scan batches within it.  Deterministic (no queue, no
        worker timing), like :meth:`QueryService.execute_many`.
        """
        if self._closed:
            raise ServiceClosed("cannot submit to a closed service")
        requests = [self._make_request(query, None) for query in queries]
        with self._lock:
            self.stats.submitted += len(requests)
        self._evaluate_requests(requests)
        results = []
        for request in requests:
            if request.error is not None:
                raise request.error
            results.append(request.result)
        return results

    def append(self, values) -> ShardAppend:
        """Append rows, routed wholly to the tail shard.

        Only the tail shard's epoch bumps and only its cache
        invalidates; answers from other shards stay cached and valid.
        The shard's authoritative row copy is extended only after its
        engine acknowledges, so a crash mid-append leaves the batch
        cleanly un-applied (the caller sees
        :class:`~repro.errors.ShardFailed` and may retry).
        """
        rows = np.asarray(values)
        with self._mutation_lock:
            if self._closed:
                raise ServiceClosed("cannot append to a closed service")
            with self._layout_lock:
                tail = self._layout.shards[-1]
            report = tail.dispatch("append", (rows,)).wait()
            tail.epoch = report["epoch"]
            with self._lock:
                self.stats.appends += 1
        self._emit_count("serve.appends")
        self._emit_count("serve.shard.appends", 1.0, shard=str(tail.id))
        return ShardAppend(
            shard=tail.id,
            epoch=report["epoch"],
            records_appended=report["records_appended"],
            num_records=report["num_records"],
        )

    # -- rebalancing --------------------------------------------------------

    def split(
        self, shard_id: int | None = None, at_row: int | None = None
    ) -> ShardSplit:
        """Split one shard into two, preserving global row order.

        Defaults to the largest shard, cut at its midpoint.  The new
        layout is swapped in atomically; scatters pinned to the old
        layout keep reading the retired parent (they linearize before
        the split), which is shut down when the last pin drains.  On
        the inline transport a segment-boundary cut hands the left
        child the parent's sealed segments by reference
        (:meth:`SegmentedBitmapIndex.split_at`); all other children
        rebuild from the router's authoritative rows.
        """
        with self._mutation_lock:
            if self._closed:
                raise ServiceClosed("cannot split on a closed service")
            with self._layout_lock:
                shards = list(self._layout.shards)
            if shard_id is None:
                position = max(
                    range(len(shards)), key=lambda i: shards[i].num_rows
                )
            else:
                ids = [shard.id for shard in shards]
                if shard_id not in ids:
                    raise ServeError(f"no shard with id {shard_id}")
                position = ids.index(shard_id)
            parent = shards[position]
            total = parent.num_rows
            if total < 2:
                raise ServeError(
                    f"cannot split shard {parent.id} with {total} row(s)"
                )
            row = at_row if at_row is not None else total // 2
            if not 0 < row < total:
                raise ServeError(
                    f"split row {row} outside (0, {total}) for shard "
                    f"{parent.id}"
                )
            left_index = None
            if (
                self.config.transport == "inline"
                and row % self.config.segment_size == 0
            ):
                # Sealed segments shared by reference — no re-encode.
                left_index = parent.dispatch("split_left", (row,)).wait()
            rows = parent.acked_rows()
            left = self._new_shard(rows[:row], index=left_index)
            right = self._new_shard(rows[row:])
            replacement = shards[:position] + [left, right] + shards[position + 1 :]
            with self._layout_lock:
                old = self._layout
                self._layout = _Layout(replacement)
                old.superseded = True
                old.to_retire.append(parent)
            self._retire_if_drained(old)
            with self._lock:
                self.stats.splits += 1
            shard_count = len(replacement)
        self._emit_count("serve.shard.splits")
        self._emit_gauge("serve.shard.count", float(shard_count))
        return ShardSplit(
            parent=parent.id, left=left.id, right=right.id, row=row
        )

    def recover(self, shard_id: int) -> bool:
        """Rebuild a failed shard from its acked rows, on demand."""
        with self._layout_lock:
            shards = self._layout.shards
        for shard in shards:
            if shard.id == shard_id:
                return bool(shard.dispatch(_REBUILD).wait())
        raise ServeError(f"no shard with id {shard_id}")

    def shard_info(self) -> list[dict]:
        """Router-side view of the current layout (for tests/inspection)."""
        with self._layout_lock:
            shards = self._layout.shards
        return [
            {
                "id": shard.id,
                "num_records": shard.num_rows,
                "epoch": shard.epoch,
                "failed": shard.failed,
                "pid": shard.pid,
            }
            for shard in shards
        ]

    # -- internals ----------------------------------------------------------

    def _make_request(
        self, query: Query, timeout_s: float | None
    ) -> _Request:
        if not isinstance(
            query, (IntervalQuery, MembershipQuery, ThresholdQuery)
        ):
            raise QueryError(f"unsupported query type {type(query).__name__}")
        if query.cardinality != self.spec.cardinality:
            raise QueryError(
                f"query domain C={query.cardinality} does not match "
                f"index domain C={self.spec.cardinality}"
            )
        timeout = (
            timeout_s
            if timeout_s is not None
            else self.config.default_timeout_s
        )
        deadline = time.monotonic() + timeout if timeout is not None else None
        return _Request(query, deadline)

    def _worker_loop(self) -> None:
        config = self.config
        while True:
            with self._not_empty:
                while not self._queue and not self._closed:
                    self._not_empty.wait()
                if not self._queue:
                    return  # closed and drained
                taken = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), config.max_batch))
                ]
                depth = len(self._queue)
            self._emit_gauge("serve.queue_depth", depth)
            alive = []
            now = time.monotonic()
            for request in taken:
                if request.deadline is not None and now > request.deadline:
                    self._fail(
                        request,
                        DeadlineExceeded(
                            f"deadline passed before evaluation of "
                            f"{request.query}"
                        ),
                        "timeouts",
                    )
                else:
                    alive.append(request)
            if alive:
                self._evaluate_requests(alive)

    def _evaluate_requests(self, requests: list[_Request]) -> None:
        """Scatter one batch of requests; finish or fail each of them."""
        queries = [request.query for request in requests]
        try:
            shards, per_shard = self._scatter(queries)
        except Exception as exc:
            for request in requests:
                self._fail(request, exc, "cancelled")
            return
        with self._lock:
            self.stats.batches += 1
            self.stats.batched_queries += len(requests)
        self._emit_observe("serve.batch_size", float(len(requests)))
        for j, request in enumerate(requests):
            parts = [answers[j] for answers in per_shard]
            pieces = [part.bitmap for part in parts]
            bitmap = concatenate(pieces) if pieces else BitVector.zeros(0)
            cached = bool(parts) and all(part.cached for part in parts)
            result = ShardedResult(
                bitmap=bitmap,
                epochs=tuple(
                    (shard.id, part.epoch)
                    for shard, part in zip(shards, parts)
                ),
                cached=cached,
                batch_size=len(requests),
                shard_count=len(parts),
                simulated_ms=sum(part.simulated_ms for part in parts),
            )
            with self._lock:
                if cached:
                    self.stats.cache_hits += 1
                else:
                    self.stats.cache_misses += 1
            # Global accounting: one hit or one miss per *request* —
            # per-shard cache behavior lands in the tagged
            # serve.shard.cache.* series below, never here.
            self._emit_count(
                "serve.cache.hits" if cached else "serve.cache.misses"
            )
            self._finish(request, result)
        for shard, answers in zip(shards, per_shard):
            hits = sum(1 for answer in answers if answer.cached)
            self._emit_count(
                "serve.shard.queries", float(len(answers)), shard=str(shard.id)
            )
            if hits:
                self._emit_count(
                    "serve.shard.cache.hits", float(hits), shard=str(shard.id)
                )
            if len(answers) - hits:
                self._emit_count(
                    "serve.shard.cache.misses",
                    float(len(answers) - hits),
                    shard=str(shard.id),
                )

    def _scatter(self, queries: list[Query]):
        """Fan ``queries`` to every shard of the pinned layout."""
        layout = self._pin_layout()
        try:
            calls = [
                shard.dispatch("evaluate_batch", (list(queries),))
                for shard in layout.shards
            ]
            per_shard = []
            error: Exception | None = None
            for call in calls:
                try:
                    per_shard.append(call.wait())
                except Exception as exc:
                    if error is None:
                        error = exc
            if error is not None:
                raise error
            return layout.shards, per_shard
        finally:
            self._unpin_layout(layout)

    def _pin_layout(self) -> _Layout:
        with self._layout_lock:
            layout = self._layout
            layout.pins += 1
            return layout

    def _unpin_layout(self, layout: _Layout) -> None:
        with self._layout_lock:
            layout.pins -= 1
        self._retire_if_drained(layout)

    def _retire_if_drained(self, layout: _Layout) -> None:
        with self._layout_lock:
            if layout.superseded and layout.pins == 0:
                retire, layout.to_retire = layout.to_retire, []
            else:
                retire = []
        for shard in retire:
            shard.shutdown(join=False)

    def _finish(self, request: _Request, result: ShardedResult) -> None:
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

    def _note_shard_failure(self, shard: _Shard, error: Exception) -> None:
        with self._lock:
            self.stats.shard_failures += 1
        self._emit_count("serve.shard.failures", 1.0, shard=str(shard.id))

    def _note_shard_recovery(self, shard: _Shard) -> None:
        with self._lock:
            self.stats.shard_recoveries += 1
        self._emit_count("serve.shard.recoveries", 1.0, shard=str(shard.id))

    # -- reporting ----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Router and aggregated shard counters as one flat dict.

        Mirrors :meth:`QueryService.metrics_snapshot` keys (the drivers
        diff them), with shard-level sums under ``shard_*`` names —
        deliberately separate from the request-level ``cache_hits`` so
        per-shard hits are never double-counted globally.
        """
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
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
                "splits": self.stats.splits,
                "shard_failures": self.stats.shard_failures,
                "shard_recoveries": self.stats.shard_recoveries,
            }
        with self._layout_lock:
            shards = self._layout.shards
        pages = requests = 0
        simulated = 0.0
        shard_hits = shard_misses = invalidated = 0
        for shard in shards:
            try:
                status = shard.dispatch("status").wait()
            except Exception:
                continue  # failed shard: omit its contribution
            pages += status["pages_read"]
            requests += status["read_requests"]
            simulated += status["simulated_ms"]
            shard_hits += status["cache_hits"]
            shard_misses += status["cache_misses"]
            invalidated += status["cache_invalidated"]
        snapshot.update(
            shards=len(shards),
            pages_read=pages,
            read_requests=requests,
            simulated_ms=simulated,
            shard_cache_hits=shard_hits,
            shard_cache_misses=shard_misses,
            cache_invalidated=invalidated,
        )
        return snapshot

    # -- obs plumbing -------------------------------------------------------
    # Same funnel as QueryService: the obs instruments are lock-free by
    # design, and this service is a multi-threaded producer (router
    # workers, shard dispatchers running inline engines), so every
    # emission — including inline evaluation itself — goes through one
    # lock.

    def _emit_count(self, name: str, amount: float = 1.0, **tags) -> None:
        o = _obs.active()
        if o is not None:
            with self._obs_lock:
                o.count(name, amount, **tags)

    def _emit_observe(self, name: str, value: float, **tags) -> None:
        o = _obs.active()
        if o is not None:
            with self._obs_lock:
                o.observe(name, value, **tags)

    def _emit_gauge(self, name: str, value: float, **tags) -> None:
        o = _obs.active()
        if o is not None:
            with self._obs_lock:
                o.gauge_set(name, value, **tags)
