"""Concurrent query serving over bitmap indexes (extension).

The paper evaluates one query at a time; a deployment answers many
selection queries concurrently over shared bitmaps.  This package is
the serving layer that closes that gap:

* :mod:`~repro.serve.sharded` — the one serving front-end: bounded
  queue, router workers, per-request deadlines, typed load shedding
  (:class:`~repro.errors.Overloaded` /
  :class:`~repro.errors.DeadlineExceeded`), stats and metrics over a
  layout of one or more row-range shards, merged by concatenation;
* :class:`~repro.serve.service.QueryService` — the front-end over one
  prebuilt index, served in the caller's thread as a single shard;
* :class:`~repro.serve.sharded.ShardedQueryService` — the front-end
  over N shards built from a raw column (inline or each behind a
  :class:`~repro.parallel.ProcessWorker`): appends routed to the tail
  shard, online splits, recovery from acked rows;
* :class:`~repro.serve.shard_worker.ShardEngine` — the only per-index
  evaluator: query rewrite, result cache, shared-scan batches;
* :mod:`~repro.serve.batcher` — shared-scan batching: one buffer-pool
  pass over the union of a batch's bitmaps serves every query in the
  batch;
* :mod:`~repro.serve.cache` — result cache keyed by ``(index epoch,
  canonical expression)``, invalidated when an append bumps the epoch;
* :mod:`~repro.serve.driver` — closed- and open-loop workload replay
  with throughput and p50/p95/p99 latency reporting from
  :mod:`repro.obs` histograms.

See ``docs/serving.md`` for the architecture and the ``serve.*``
metric catalog; ``repro serve-bench`` is the CLI entry point.
"""

from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    ServeError,
    ServiceClosed,
    ShardFailed,
)
from repro.serve.batcher import plan_batches, sharing_groups
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.driver import (
    DriverReport,
    paper_mix,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.service import QueryService
from repro.serve.shard_worker import ShardAnswer, ShardEngine
from repro.serve.sharded import (
    ENGINES,
    TRANSPORTS,
    ServeResult,
    ServiceConfig,
    ServiceStats,
    ShardAppend,
    ShardSplit,
    ShardedConfig,
    ShardedQueryService,
    Ticket,
)

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServiceStats",
    "ServeResult",
    "Ticket",
    "ENGINES",
    "ShardedQueryService",
    "ShardedConfig",
    "ShardAppend",
    "ShardSplit",
    "ShardAnswer",
    "ShardEngine",
    "TRANSPORTS",
    "ShardFailed",
    "ResultCache",
    "CacheStats",
    "plan_batches",
    "sharing_groups",
    "DriverReport",
    "paper_mix",
    "run_closed_loop",
    "run_open_loop",
    "ServeError",
    "Overloaded",
    "DeadlineExceeded",
    "ServiceClosed",
]
