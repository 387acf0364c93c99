"""The concurrent query service over one prebuilt index.

:class:`QueryService` turns a built :class:`~repro.index.BitmapIndex`
(plain, reordered or mapped) into an online, concurrent service.  It is
the in-thread, one-shard case of the serving front-end in
:mod:`repro.serve.sharded`: the index is served whole, as the only
segment of one inline :class:`~repro.serve.shard_worker.ShardEngine`,
so it gets everything the front-end gives every layout:

* **admission control** — a bounded request queue; a full queue sheds
  the submission with a typed :class:`~repro.errors.Overloaded` instead
  of blocking the submitter, so overload is always visible and the
  service never builds an unbounded backlog;
* **deadlines** — each request may carry a timeout; a request whose
  deadline passes before evaluation starts completes with
  :class:`~repro.errors.DeadlineExceeded` (typed, counted, never a
  hang);
* **shared-scan batching** — the shard engine plans each batch of
  requests into shared scans (:mod:`repro.serve.batcher`), so a bitmap
  needed by several in-flight queries crosses the buffer pool once per
  scan instead of once per query;
* **result caching** — answers are cached under
  ``(index epoch, canonical expression)`` (:mod:`repro.serve.cache`);
  :meth:`QueryService.append` bumps the index epoch under the scan lock
  and sweeps stale entries, so a cached answer is never served across
  an append, and a caller never receives the object the cache holds.

Concurrency model: submitters run admission in parallel; evaluation
runs on the calling thread (a router worker, or the caller of
:meth:`~QueryService.execute_many`) and serializes on one *scan lock* —
the simulated disk is a single device, so concurrent scans would not
overlap I/O anyway, and serializing them keeps the (deliberately
lock-free) buffer pool, cost clock and store consistent.  Appends take
the same lock, which is what makes service results linearizable against
a serial oracle.
"""

from __future__ import annotations

from repro.serve.shard_worker import ShardEngine
from repro.serve.sharded import ServiceConfig, _engine_options, _FrontEnd


class QueryService(_FrontEnd):
    """A concurrent, batching, caching query service over one index.

    Use as a context manager (close() drains the queue and joins the
    workers)::

        with QueryService(index) as service:
            ticket = service.submit(IntervalQuery(3, 17, 200))
            result = ticket.result()
    """

    def __init__(self, index, config: ServiceConfig | None = None):
        config = config if config is not None else ServiceConfig()
        super().__init__(config, inline=True)
        self.index = index
        self.spec = index.spec
        shard_engine = ShardEngine(
            None, index.spec, index=index, **_engine_options(config)
        )
        #: The index's query engine (its buffer pool) and cost clock.
        self.engine = shard_engine.segment_engines()[0]
        self.clock = shard_engine.clock
        self.cache = shard_engine.cache
        self._start([self._add_shard(0, shard_engine, index.epoch)])

    # Bound here, not only inherited: the benchmark traces each class's
    # own entry points.
    execute_many = _FrontEnd.execute_many
    append = _FrontEnd.append
