"""Deprecated names of the folded compressed-domain engine.

``engine="compressed"`` is a cost convention and pool policy of
:class:`~repro.index.evaluation.QueryEngine` (see that module), and its
pool is the one :class:`~repro.storage.BufferPool`.  The names below
stay only because perfbench's per-layer tracer still wraps them where
this module exposes them; delete them with its wrappers (ROADMAP item 1).
"""

from __future__ import annotations

from repro.compress.multiway import multiway_logical, multiway_threshold
from repro.index.evaluation import QueryEngine
from repro.storage import BufferPool, CostClock

__all__ = ["CompressedQueryEngine", "multiway_logical", "multiway_threshold"]

_PayloadPool = BufferPool


class CompressedQueryEngine(QueryEngine):
    """Deprecated: ``QueryEngine(index, engine="compressed")``."""

    def __init__(self, index, buffer_pages: int | None = None,
                 clock: CostClock | None = None):
        super().__init__(index, buffer_pages, clock, engine="compressed")

    # Bound here, not only inherited: the tracer wraps each class's own
    # entry points.
    execute = QueryEngine.execute
    evaluate_shared = QueryEngine.evaluate_shared
