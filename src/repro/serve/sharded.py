"""The serving front-end, and the sharded service built on it.

Every service answers queries through one front-end over a *layout*: an
ordered list of one or more row-range shards, each served by a
:class:`~repro.serve.shard_worker.ShardEngine`.  The front-end owns
admission (a bounded queue that sheds with a typed
:class:`~repro.errors.Overloaded`), the router workers that drain it,
per-request deadlines, tickets, the stats and ``serve.*`` metrics, and
the merge: it fans each batch of queries to every shard of the layout
and concatenates the partial bitmaps in shard order.  Because the
shards' row ranges are disjoint and ordered, concatenation in shard
order *is* the translation back to global row ids — the same seam
:class:`~repro.index.segmented.SegmentedBitmapIndex` exploits between
segments, lifted one level.  A one-shard answer is handed out without
a merge.  The shard engines do everything per index: rewrite, the
``(epoch, expression)`` result cache, shared-scan batching, evaluation.

Two services build layouts:

* :class:`~repro.serve.QueryService` serves one prebuilt
  :class:`~repro.index.BitmapIndex` as a single inline shard;
* :class:`ShardedQueryService` partitions a raw column into N shards,
  routes appends to the tail shard, splits shards online, keeps each
  shard's acked rows to rebuild it after a failure, and can host every
  shard in its own process.

Transports
----------
``"inline"`` hosts the shard engines in this process and runs each call
on the caller's thread, under the service's *scan lock* and its obs
lock: the :mod:`repro.obs` instruments and the storage layer's counters
are deliberately lock-free, so inline evaluation serializes anyway, and
running it in place saves a thread handoff per call.  ``"process"``
hosts each shard in a :class:`~repro.parallel.ProcessWorker` with one
dispatcher thread in front of it: evaluation runs GIL-free in the
children (which have no obs registry, so nothing races), giving real
multi-core scaling, at the price of pickling queries and partial
bitmaps across pipes.

Consistency model
-----------------
Every operation on one shard is serialized — under the scan lock
inline, through the shard's dispatcher thread otherwise — so per-shard
histories are serial: an append (which bumps only that shard's epoch
and invalidates only that shard's cache) is either entirely before or
entirely after any evaluation on the same shard.  A scatter pins the
current layout, so a racing split cannot recompose row ranges under it;
a retired (split) shard keeps serving pinned readers and is shut down
only when its last pin drains.  Each answer therefore reports, per
shard, the epoch it reflects — a composite snapshot the
linearizability suites check against a per-shard naive-scan oracle.

Failure model
-------------
A dead or hung shard worker surfaces as
:class:`~repro.errors.ShardFailed` (wrapping the typed
:class:`~repro.errors.WorkerCrashed` /
:class:`~repro.errors.WorkerUnresponsive`) for every in-flight query
that needed that shard — never a partial or wrong answer.  The sharded
service keeps each shard's acked rows authoritatively, so recovery
rebuilds the engine from exactly the rows whose appends were
acknowledged (``auto_recover=True`` rebuilds immediately; otherwise
:meth:`ShardedQueryService.recover` does it on demand), fast-forwarding
the epoch so ``(shard, epoch)`` never aliases two different row states.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector, concatenate
from repro.errors import (
    DeadlineExceeded,
    EncodingSchemeError,
    Overloaded,
    QueryError,
    ServeError,
    ServiceClosed,
    ShardFailed,
    WorkerCrashed,
    WorkerUnresponsive,
)
from repro.index.bitmap_index import IndexSpec
from repro.index.evaluation import ENGINES
from repro.index.segmented import DEFAULT_SEGMENT_SIZE, code_dtype
from repro.parallel import ProcessWorker, WorkerFault
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.shard_worker import ShardEngine, build_shard_engine

Query = IntervalQuery | MembershipQuery | ThresholdQuery

TRANSPORTS = ("inline", "process")
#: Values the deprecated :attr:`ServiceConfig.fused` field accepts.
_FUSED_MODES = (True, False, "auto")

_CLOSE = "__close__"
_REBUILD = "__rebuild__"

#: Shard status counters summed into a metrics snapshot, by status key.
_SHARD_TOTALS = {
    "pages_read": "pages_read",
    "read_requests": "read_requests",
    "simulated_ms": "simulated_ms",
    "cache_hits": "shard_cache_hits",
    "cache_misses": "shard_cache_misses",
    "cache_invalidated": "cache_invalidated",
    "pool_hits": "pool_hits",
    "pool_misses": "pool_misses",
    "pool_evictions": "pool_evictions",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`~repro.serve.QueryService`, and the
    ones every :class:`ShardedConfig` shares."""

    #: Bound of the request queue; submissions beyond it are shed.
    max_queue: int = 64
    #: Router threads draining the queue.
    workers: int = 2
    #: Maximum requests taken off the queue and fanned out at once
    #: (each shard further plans shared-scan batches within them).
    max_batch: int = 16
    #: Default per-request timeout (None = no deadline).
    default_timeout_s: float | None = None
    #: Result-cache capacity in entries, per shard (0 disables).
    cache_entries: int = 256
    #: Buffer-pool capacity in pages (at least 1), per segment; None
    #: uses the engine's default sizing.  Under the compressed convention
    #: it bounds encoded payloads and the leaves' decoded copies together.
    buffer_pages: int | None = None
    #: The :class:`~repro.index.evaluation.QueryEngine` cost convention:
    #: ``"decoded"`` (the pool keeps decoded bitmaps, decompression
    #: charged per miss) or ``"compressed"`` (it keeps encoded payloads;
    #: each leaf read from its decoded copy or its block stream).
    engine: str = "decoded"
    #: Deprecated no-op, still validated: the decoded engine has one
    #: physical path (``docs/zero_copy.md``).  Accepts ``"auto"``,
    #: ``True`` or ``False``.
    fused: bool | str = "auto"

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.default_timeout_s is not None and not self.default_timeout_s > 0:
            raise ServeError(
                f"default_timeout_s must be None or > 0, got {self.default_timeout_s}"
            )
        if self.cache_entries < 0:
            raise ServeError(f"cache_entries must be >= 0, got {self.cache_entries}")
        if self.buffer_pages is not None and self.buffer_pages < 1:
            raise ServeError(f"buffer_pages must be >= 1, got {self.buffer_pages}")
        if self.engine not in ENGINES:
            raise ServeError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.fused not in _FUSED_MODES:
            raise ServeError(
                f"unknown fused mode {self.fused!r}; "
                f"expected one of {_FUSED_MODES}"
            )


@dataclass(frozen=True)
class ShardedConfig(ServiceConfig):
    """Tuning knobs for one :class:`ShardedQueryService`."""

    #: Number of initial row-range shards.
    shards: int = 2
    #: ``"inline"`` (deterministic, single-process) or ``"process"``
    #: (one worker process per shard, GIL-free evaluation).
    transport: str = "inline"
    #: Rows per tail segment inside each shard; sealed segments merge
    #: into tiers of up to ``segment_size * FANOUT ** 3`` rows.
    segment_size: int = DEFAULT_SEGMENT_SIZE
    #: Per-call answer deadline for process-transport workers; a worker
    #: silent past this is declared unresponsive.
    call_timeout_s: float = 30.0
    #: Rebuild a failed shard from its acked rows immediately (True) or
    #: only via an explicit :meth:`ShardedQueryService.recover` (False).
    auto_recover: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 1:
            raise ServeError(f"shards must be >= 1, got {self.shards}")
        if self.segment_size < 1:
            raise ServeError(f"segment_size must be >= 1, got {self.segment_size}")
        if self.transport not in TRANSPORTS:
            raise ServeError(
                f"unknown transport {self.transport!r}; "
                f"expected one of {TRANSPORTS}"
            )
        if self.call_timeout_s <= 0:
            raise ServeError(
                f"call_timeout_s must be > 0, got {self.call_timeout_s}"
            )


def _engine_options(config: ServiceConfig) -> dict:
    """The :class:`ShardEngine` keyword arguments ``config`` sets."""
    return {
        "engine": config.engine,
        "cache_entries": config.cache_entries,
        "buffer_pages": config.buffer_pages,
        "max_batch": config.max_batch,
    }


@dataclass
class ServeResult:
    """Merged answer plus serving metadata for one request."""

    #: Global-row-id answer (shard partials concatenated in shard order).
    #: The caller owns it: it is never an object a shard still holds.
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
    #: Sum of the shards' simulated costs: each query's own evaluation
    #: CPU plus an even share of its shared scan's fetch cost.
    simulated_ms: float
    #: Wall-clock submit-to-completion latency.
    wall_ms: float = 0.0

    @property
    def epoch(self) -> int:
        """The epoch of a one-shard answer — for a
        :class:`~repro.serve.QueryService`, the served index's epoch."""
        if len(self.epochs) != 1:
            raise ServeError(
                f"an answer from {len(self.epochs)} shards has one epoch "
                f"per shard; read epochs"
            )
        return self.epochs[0][1]

    @property
    def row_count(self) -> int:
        """Number of qualifying records."""
        return self.bitmap.count()

    def row_ids(self):
        """Sorted global record ids of qualifying records."""
        return self.bitmap.to_indices()


@dataclass(frozen=True)
class ShardAppend:
    """Outcome of one append (lands wholly on the tail shard)."""

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
class ServiceStats:
    """Always-on front-end counters (obs mirrors these when installed)."""

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
    """One operation queued to a process shard's dispatcher."""

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
    """One query plus its completion plumbing.

    Only a submitted request has an ``event`` for its ticket to wait
    on; :meth:`_FrontEnd.execute_many` completes its requests before
    it returns.
    """

    __slots__ = ("query", "deadline", "submitted_at", "event", "result", "error")

    def __init__(self, query: Query, deadline: float | None):
        self.query = query
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.event: threading.Event | None = None
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
    """One shard: an engine handle, its epoch and its acked rows.

    Every operation on a shard is serialized, which is the per-shard
    linearizability guarantee.  An inline shard (a :class:`ShardEngine`
    in this process) runs each call on the caller's thread under the
    service's scan lock.  A process shard (a :class:`ProcessWorker`)
    queues each call to its dispatcher thread, which keeps exactly one
    outstanding pipe request per worker.
    """

    def __init__(
        self,
        service: "_FrontEnd",
        shard_id: int,
        handle,
        epoch: int,
        rows: np.ndarray | None = None,
    ):
        self.service = service
        self.id = shard_id
        self.handle = handle
        self.epoch = epoch
        self.inline = not isinstance(handle, ProcessWorker)
        #: Acked rows — the authoritative copy a rebuild starts from,
        #: extended only after the engine acknowledges an append.  Kept
        #: as appended chunks (an append copies only its own rows) and
        #: joined by :meth:`acked_rows` where a whole array is needed.
        #: None for a shard serving a prebuilt index, which keeps no
        #: copy of its rows and cannot be rebuilt.
        self._row_chunks = None if rows is None else [rows]
        self._rows_lock = threading.Lock()
        #: Number of acked rows.
        self.num_rows = handle.num_records if rows is None else len(rows)
        #: Segments in the engine's index as of its last append or
        #: status report (None before the first); compaction lowers it.
        self.num_segments: int | None = None
        self.failed = False
        self.closed = False
        if not self.inline:
            self._queue: deque[_Call] = deque()
            self._cond = threading.Condition()
            self._shutdown_sent = False
            self._thread = threading.Thread(
                target=self._loop,
                name=f"shard-{shard_id}-dispatch",
                daemon=True,
            )
            self._thread.start()

    @property
    def pid(self) -> int | None:
        """Worker pid (process transport), for chaos tests."""
        return None if self.inline else self.handle.pid

    def acked_rows(self) -> np.ndarray:
        """Every acked row as one array (chunks joined once, on demand)."""
        with self._rows_lock:
            if len(self._row_chunks) > 1:
                self._row_chunks = [np.concatenate(self._row_chunks)]
            return self._row_chunks[0]

    def _ack_append(self, rows: np.ndarray) -> None:
        """Record an acknowledged append (a copy of ``rows`` in the code
        dtype: the engine validated them)."""
        with self._rows_lock:
            if self._row_chunks is not None:
                self._row_chunks.append(
                    np.asarray(rows).astype(code_dtype(self.service.spec.cardinality))
                )
            self.num_rows += len(rows)

    # ------------------------------------------------------------------

    def call(self, method: str, args: tuple = ()):
        """Run one operation on this shard and return its result."""
        if self.inline:
            with self.service._scan_lock:
                return self.run(method, args)
        return self.dispatch(method, args).wait()

    def run(self, method: str, args: tuple = ()):
        """Run one operation on an inline shard; the caller holds the
        scan lock."""
        if self.closed:
            raise ShardFailed(f"shard {self.id} has been shut down")
        return self._execute(method, args)

    def dispatch(self, method: str, args: tuple = ()) -> _Call:
        """Queue an operation to a process shard; returns its future."""
        call = _Call(method, args)
        with self._cond:
            if self.closed:
                call.reject(
                    ShardFailed(f"shard {self.id} has been shut down")
                )
                return call
            self._queue.append(call)
            self._cond.notify()
        return call

    def rebuild(self) -> bool:
        """Rebuild the engine from the acked rows, serialized with every
        other operation on this shard."""
        if not self.inline:
            return bool(self.dispatch(_REBUILD).wait())
        with self.service._scan_lock:
            if self.closed:
                raise ShardFailed(f"shard {self.id} has been shut down")
            self._rebuild()
        return True

    def shutdown(self, join: bool = True, timeout: float = 10.0) -> None:
        """Close the shard after the operations already started on it.

        An inline shard closes once it can take the scan lock; if the
        lock stays held past ``timeout`` the engine stays open and goes
        with the service.  A process shard gets a close barrier queued
        behind its pending operations.
        """
        if self.inline:
            if self.service._scan_lock.acquire(timeout=timeout):
                try:
                    if not self.closed:
                        self.closed = True
                        self._close_handle()
                finally:
                    self.service._scan_lock.release()
            return
        with self._cond:
            if not self._shutdown_sent:
                self._shutdown_sent = True
                self._queue.append(_Call(_CLOSE, ()))
                self._cond.notify()
        if join:
            self._thread.join(timeout)

    # ------------------------------------------------------------------

    def _execute(self, method: str, args: tuple):
        if self.inline:
            # Inline engines emit into the lock-free obs instruments —
            # serialize with every other emitter via the obs lock.
            with self.service._obs_lock:
                result = getattr(self.handle, method)(*args)
        else:
            result = self.handle.call(
                method, *args, timeout=self.service.config.call_timeout_s
            )
        if method == "append":
            # Acked in the shard's own serialized history, so a rebuild
            # serialized after this append sees its rows.
            self._ack_append(args[0])
        if method in ("append", "status"):
            self.num_segments = result["num_segments"]
        return result

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    self._cond.wait()
                call = self._queue.popleft()
            if call.method == _CLOSE:
                self._close_handle()
                with self._cond:
                    self.closed = True
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
                call.resolve(self._execute(call.method, call.args))
            except (WorkerCrashed, WorkerUnresponsive) as exc:
                self.failed = True
                self.service._note_shard_failure(self)
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
            self.handle.close()
        except Exception:
            pass

    def _rebuild(self) -> None:
        """Rebuild the engine from the acked rows.

        The old worker is killed first (it may be merely hung), then a
        fresh engine is built from :meth:`acked_rows` and its epoch is
        fast-forwarded to the acked epoch — same rows, same epoch, so
        answers before and after the rebuild are indistinguishable to
        the oracle.
        """
        old = self.handle
        try:
            if not self.inline:
                old.kill()
            old.close()
        except Exception:
            pass
        self.handle = self.service._build_handle(self.acked_rows(), self.id)
        self.num_segments = None
        target = self.epoch
        fresh = 1 if self.num_rows else 0
        if target > fresh:
            self._execute("set_epoch", (target,))
        else:
            self.epoch = fresh
        self.failed = False
        self.service._note_shard_recovery(self)


class _FrontEnd:
    """Admission, router workers, deadlines and the merge over a layout.

    Subclasses build the first layout's shards (:meth:`_add_shard`) and
    hand them to :meth:`_start`.  They also set ``spec``, the
    :class:`~repro.index.IndexSpec` queries are checked against.
    """

    def __init__(self, config: ServiceConfig, inline: bool):
        self.config = config
        self.stats = ServiceStats()
        self._inline = inline
        self._lock = threading.Lock()
        self._obs_lock = threading.Lock()
        #: Serializes every operation on the inline shards; evaluation
        #: checks deadlines once it holds it.
        self._scan_lock = threading.Lock()
        self._layout_lock = threading.Lock()
        self._mutation_lock = threading.Lock()
        self._queue: deque[_Request] = deque()
        self._not_empty = threading.Condition()
        self._closed = False
        self._all_shards: list[_Shard] = []
        self._workers: list[threading.Thread] = []

    def _add_shard(
        self, shard_id: int, handle, epoch: int, rows=None
    ) -> _Shard:
        shard = _Shard(self, shard_id, handle, epoch, rows=rows)
        self._all_shards.append(shard)
        return shard

    def _start(self, shards: list[_Shard]) -> None:
        """Install the first layout and start the router workers."""
        self._layout = _Layout(shards)
        self._emit_gauge("serve.shard.count", float(len(shards)))
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"serve-router-{i}",
                daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- context management -------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting requests, drain, and shut every shard down.

        With ``drain=True`` (default) queued requests are still
        evaluated; with ``drain=False`` they complete immediately with
        :class:`~repro.errors.ServiceClosed`.  Idempotent, and safe
        under in-flight scatter-gather: a shard closes only after the
        operations already started on it.
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
        # Fail outside the queue lock: _fail takes the stats lock.
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
        """Enqueue ``query``; returns a :class:`Ticket` immediately.

        Raises :class:`~repro.errors.Overloaded` when the queue is full
        and :class:`~repro.errors.ServiceClosed` after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosed("cannot submit to a closed service")
        request = self._make_request(query, timeout_s)
        request.event = threading.Event()
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
    ) -> ServeResult:
        """Submit and wait: blocking convenience wrapper."""
        return self.submit(query, timeout_s).result()

    def execute_many(self, queries: list[Query]) -> list[ServeResult]:
        """Evaluate ``queries`` synchronously in the caller's thread.

        The deterministic serving path: one scatter carries the whole
        list, bypassing the queue and the router workers (no admission
        control, no thread timing), and each shard plans it into
        shared-scan batches capped at ``max_batch``.  The benchmark gate
        uses this to compare batched vs. serial page counts without
        scheduling noise.
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
        The append is serialized with every evaluation on that shard,
        and the epoch bump makes every older cached answer unreachable.
        """
        rows = np.asarray(values)
        with self._mutation_lock:
            if self._closed:
                raise ServiceClosed("cannot append to a closed service")
            with self._layout_lock:
                tail = self._layout.shards[-1]
            report = tail.call("append", (rows,))
            tail.epoch = report["epoch"]
            with self._lock:
                self.stats.appends += 1
        self._emit_count("serve.appends")
        self._emit_count("serve.shard.appends", 1.0, shard=str(tail.id))
        if report["merges"]:
            shard = str(tail.id)
            self._emit_count(
                "serve.shard.compactions", float(report["merges"]), shard=shard
            )
            self._emit_observe(
                "serve.shard.compaction_ms", report["compaction_ms"], shard=shard
            )
            self._emit_count(
                "serve.shard.compacted_bytes",
                float(report["bytes_merged"]),
                shard=shard,
            )
        if report["invalidated"]:
            self._emit_count(
                "serve.cache.invalidated", float(report["invalidated"])
            )
        return ShardAppend(
            shard=tail.id,
            epoch=report["epoch"],
            records_appended=report["records_appended"],
            num_records=report["num_records"],
        )

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
            self._evaluate_requests(taken)

    def _evaluate_requests(self, requests: list[_Request]) -> None:
        """Scatter one batch of requests; finish or fail each of them.

        Deadlines are checked when evaluation starts — on the inline
        transport, once the scan lock is held.
        """
        layout = self._pin_layout()
        try:
            with self._scan_lock if self._inline else nullcontext():
                requests = self._drop_expired(requests)
                if not requests:
                    return
                queries = [request.query for request in requests]
                try:
                    per_shard = self._scatter(layout.shards, queries)
                except Exception as exc:
                    for request in requests:
                        self._fail(request, exc, "cancelled")
                    return
        finally:
            self._unpin_layout(layout)
        with self._lock:
            self.stats.batches += 1
            self.stats.batched_queries += len(requests)
        self._emit_observe("serve.batch_size", float(len(requests)))
        shards = layout.shards
        # A shard answers a whole batch at one epoch.
        epochs = tuple(
            (shard.id, answers[0].epoch)
            for shard, answers in zip(shards, per_shard)
        )
        for j, request in enumerate(requests):
            parts = [answers[j] for answers in per_shard]
            if len(parts) == 1:
                (part,) = parts
                bitmap = part.bitmap
                if part.shared and self._inline:
                    # The shard still holds this very object (cache or
                    # pool); a caller must never be able to change it.
                    bitmap = bitmap.copy()
                cached, simulated_ms = part.cached, part.simulated_ms
            else:
                bitmap = concatenate([part.bitmap for part in parts])
                cached = all(part.cached for part in parts)
                simulated_ms = sum(part.simulated_ms for part in parts)
            result = ServeResult(
                bitmap=bitmap,
                epochs=epochs,
                cached=cached,
                batch_size=len(requests),
                shard_count=len(parts),
                simulated_ms=simulated_ms,
            )
            self._finish(request, result)
        if _obs.active() is None:
            return  # nothing observes the per-shard series
        for shard, answers in zip(shards, per_shard):
            hits = sum(answer.cached for answer in answers)
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

    def _drop_expired(self, requests: list[_Request]) -> list[_Request]:
        """Fail every request whose deadline has passed; keep the rest."""
        alive = []
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
            else:
                alive.append(request)
        return alive

    def _scatter(self, shards, queries: list[Query]) -> list[list]:
        """Every shard's answers to ``queries``, in shard order."""
        if self._inline:
            return [shard.run("evaluate_batch", (queries,)) for shard in shards]
        calls = [
            shard.dispatch("evaluate_batch", (list(queries),))
            for shard in shards
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
        return per_shard

    def _pin_layout(self) -> _Layout:
        with self._layout_lock:
            layout = self._layout
            layout.pins += 1
            return layout

    def _unpin_layout(self, layout: _Layout, pins: int = 1) -> None:
        """Drop ``pins`` pins; once a superseded layout has none left,
        shut down the shards it retired."""
        with self._layout_lock:
            layout.pins -= pins
            retire = []
            if layout.superseded and layout.pins == 0:
                retire, layout.to_retire = layout.to_retire, []
        for shard in retire:
            shard.shutdown(join=False)

    def _finish(self, request: _Request, result: ServeResult) -> None:
        result.wall_ms = (time.monotonic() - request.submitted_at) * 1e3
        request.result = result
        if request.event is not None:
            request.event.set()
        with self._lock:
            self.stats.completed += 1
            if result.cached:
                self.stats.cache_hits += 1
            else:
                self.stats.cache_misses += 1
        # Global accounting: one hit or one miss per *request* —
        # per-shard cache behavior lands in the tagged serve.shard.cache.*
        # series, never here.
        self._emit_count(
            "serve.cache.hits" if result.cached else "serve.cache.misses"
        )
        self._emit_count("serve.completed")
        self._emit_observe("serve.latency_ms", result.wall_ms)
        self._emit_observe("serve.simulated_ms", result.simulated_ms)

    def _fail(self, request: _Request, error: Exception, counter: str) -> None:
        request.error = error
        if request.event is not None:
            request.event.set()
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self._emit_count(f"serve.{counter}")

    # -- reporting ----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Front-end counters and summed shard counters as one flat dict.

        The keys are the same on every call (the drivers diff
        snapshots).  Request-level ``cache_hits``/``cache_misses`` count
        each request once; the shards' own probes are summed under
        ``shard_cache_*`` names, so per-shard hits are never
        double-counted globally.
        """
        with self._lock:
            snapshot = asdict(self.stats)
        with self._layout_lock:
            shards = self._layout.shards
        totals = dict.fromkeys(_SHARD_TOTALS.values(), 0)
        for shard in shards:
            try:
                status = shard.call("status")
            except Exception:
                continue  # failed shard: omit its contribution
            for key, name in _SHARD_TOTALS.items():
                totals[name] += status[key]
        snapshot.update(totals, shards=len(shards))
        return snapshot

    # -- obs plumbing -------------------------------------------------------
    # The obs instruments are deliberately lock-free (single-threaded
    # simulator); a service is a multi-threaded producer (callers,
    # router workers, shard dispatchers), so every emission — including
    # inline evaluation itself — goes through one lock.

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


class ShardedQueryService(_FrontEnd):
    """Scatter-gather service over row-range shards of a raw column.

    Each shard builds its own
    :class:`~repro.index.segmented.SegmentedBitmapIndex` over its row
    range::

        with ShardedQueryService(values, spec, config) as service:
            result = service.execute(IntervalQuery(3, 17, 200))

    The query surface is the front-end's, shared with
    :class:`~repro.serve.QueryService`
    (``submit``/``execute``/``execute_many``/``append``/
    ``metrics_snapshot``), so the closed- and open-loop drivers run
    against either; on top of it this service adds :meth:`split`
    (online rebalancing) and :meth:`recover` (explicit shard recovery).
    """

    def __init__(
        self,
        values,
        spec: IndexSpec,
        config: ShardedConfig | None = None,
        faults: dict[int, WorkerFault] | None = None,
    ):
        config = config if config is not None else ShardedConfig()
        super().__init__(config, inline=config.transport == "inline")
        self.spec = spec
        self._next_shard_id = 0
        rows = np.asarray(values)
        if rows.size and (rows.min() < 0 or rows.max() >= spec.cardinality):
            raise EncodingSchemeError(
                f"column values outside domain [0, {spec.cardinality})"
            )
        # Acked rows are kept in the code dtype (1 B/row for C <= 256).
        rows = rows.astype(code_dtype(spec.cardinality))
        chunk = max(1, -(-len(rows) // config.shards))
        self._start(
            [
                self._new_shard(
                    rows[i * chunk : (i + 1) * chunk],
                    fault=faults.get(i) if faults else None,
                )
                for i in range(config.shards)
            ]
        )

    # Bound here, not only inherited: the benchmark traces each class's
    # own entry points.
    execute_many = _FrontEnd.execute_many
    append = _FrontEnd.append

    # -- construction helpers ----------------------------------------------

    def _build_handle(self, rows, shard_id: int, index=None, fault=None):
        options = dict(
            _engine_options(self.config),
            segment_size=self.config.segment_size,
        )
        if self.config.transport == "process":
            return ProcessWorker(
                build_shard_engine,
                args=(rows, self.spec, options),
                name=f"shard-{shard_id}",
                fault=fault,
            )
        return ShardEngine(rows, self.spec, index=index, **options)

    def _new_shard(self, rows, index=None, fault=None) -> _Shard:
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        handle = self._build_handle(rows, shard_id, index=index, fault=fault)
        if index is not None:
            epoch = index.epoch
        else:
            epoch = 1 if len(rows) else 0
        return self._add_shard(shard_id, handle, epoch, rows=rows)

    # -- rebalancing --------------------------------------------------------

    def split(
        self, shard_id: int | None = None, at_row: int | None = None
    ) -> ShardSplit:
        """Split one shard into two, preserving global row order.

        Defaults to the largest shard, cut at its midpoint.  The new
        layout is swapped in atomically; scatters pinned to the old
        layout keep reading the retired parent (they linearize before
        the split), which is shut down when the last pin drains.  On
        the inline transport a cut at one of the parent's segment
        boundaries (tier sizes vary, so the parent is asked) hands the
        left child the parent's segments by reference
        (:meth:`SegmentedBitmapIndex.split_at`); all other children
        rebuild from the acked rows.
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
            if self.config.transport == "inline" and parent.call(
                "is_boundary", (row,)
            ):
                # Segments shared by reference — no re-encode.
                left_index = parent.call("split_left", (row,))
            rows = parent.acked_rows()
            left = self._new_shard(rows[:row], index=left_index)
            right = self._new_shard(rows[row:])
            replacement = shards[:position] + [left, right] + shards[position + 1 :]
            with self._layout_lock:
                old = self._layout
                self._layout = _Layout(replacement)
                old.superseded = True
                old.to_retire.append(parent)
            self._unpin_layout(old, pins=0)
            with self._lock:
                self.stats.splits += 1
            shard_count = len(replacement)
        self._emit_count("serve.shard.splits")
        self._emit_gauge("serve.shard.count", float(shard_count))
        return ShardSplit(
            parent=parent.id, left=left.id, right=right.id, row=row
        )

    def recover(self, shard_id: int) -> bool:
        """Rebuild a shard from its acked rows, on demand."""
        with self._layout_lock:
            shards = self._layout.shards
        for shard in shards:
            if shard.id == shard_id:
                return shard.rebuild()
        raise ServeError(f"no shard with id {shard_id}")

    def shard_info(self) -> list[dict]:
        """The current layout as seen from the front-end (for
        tests/inspection)."""
        with self._layout_lock:
            shards = self._layout.shards
        return [
            {
                "id": shard.id,
                "num_records": shard.num_rows,
                "num_segments": shard.num_segments,
                "epoch": shard.epoch,
                "failed": shard.failed,
                "pid": shard.pid,
            }
            for shard in shards
        ]

    def _note_shard_failure(self, shard: _Shard) -> None:
        with self._lock:
            self.stats.shard_failures += 1
        self._emit_count("serve.shard.failures", 1.0, shard=str(shard.id))

    def _note_shard_recovery(self, shard: _Shard) -> None:
        with self._lock:
            self.stats.shard_recoveries += 1
        self._emit_count("serve.shard.recoveries", 1.0, shard=str(shard.id))
