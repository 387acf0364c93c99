"""Per-layer tracing from outside the program.

The benchmark wraps each layer's public entry points where their
callers look them up (a function imported by name is patched in the
importing module, a method on its class), records one span per call,
and derives each layer's self time: a span's duration minus the part of
that interval its child spans cover.  Nothing under ``src/`` changes, and
the wrappers are installed only for the traced slices of a traced run.

A span is ``[name, start, end, parent, op]``.  Only one operation is in
flight at a time, so a span opened on a shard dispatcher thread (whose
own stack is empty) belongs to the op the client is waiting on: its
parent is the innermost span open on the client's thread.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: Every entry point traced: (span name, module, attribute path, bytes-in hook).
#: A span's layer is the part of its name before the first dot.
ENTRY_POINTS = (
    ("serve.call", "repro.serve.service", "QueryService.execute_many", None),
    ("serve.call", "repro.serve.service", "QueryService.append", None),
    ("serve.call", "repro.serve.sharded", "ShardedQueryService.execute_many", None),
    ("serve.call", "repro.serve.sharded", "ShardedQueryService.append", None),
    ("serve.call", "repro.serve.shard_worker", "ShardEngine.evaluate_batch", None),
    ("serve.merge", "repro.serve.sharded", "concatenate", None),
    ("serve.merge", "repro.serve.shard_worker", "concatenate", None),
    ("index.rewrite", "repro.index.rewrite", "QueryRewriter.rewrite_interval", None),
    ("index.rewrite", "repro.index.rewrite", "QueryRewriter.rewrite_membership", None),
    ("index.rewrite", "repro.index.rewrite", "QueryRewriter.rewrite_threshold", None),
    ("index.engine", "repro.index.evaluation", "QueryEngine.execute", None),
    ("index.engine", "repro.index.evaluation", "QueryEngine.evaluate_shared", None),
    ("index.engine", "repro.index.compressed_engine", "CompressedQueryEngine.execute", None),
    ("index.engine", "repro.index.compressed_engine", "CompressedQueryEngine.evaluate_shared", None),
    ("index.restore", "repro.index.bitmap_index", "BitmapIndex.restore_row_order", None),
    ("index.append", "repro.serve.shard_worker", "ShardEngine.append", None),
    ("index.append", "repro.index.segmented", "SegmentedBitmapIndex.append", None),
    ("index.append", "repro.index.bitmap_index", "BitmapIndex.append", None),
    ("index.build", "repro.index.bitmap_index", "BitmapIndex.build", None),
    ("table.reorder", "repro.table.reorder", "RowReordering.from_sort", None),
    ("expr.plan", "repro.index.evaluation", "plan_physical", None),
    ("expr.fused", "repro.index.evaluation", "evaluate_fused", None),
    ("expr.materialize", "repro.index.evaluation", "evaluate", None),
    ("compress.kernel", "repro.index.compressed_engine", "multiway_logical",
     lambda args: sum(len(p) for p in args[2])),
    ("compress.kernel", "repro.index.compressed_engine", "multiway_threshold",
     lambda args: sum(len(p) for p in args[2])),
    ("compress.kernel", "repro.compress.compressed_ops", "CompressedBitmap.__and__",
     lambda args: len(args[0].payload) + len(args[1].payload)),
    ("compress.kernel", "repro.compress.compressed_ops", "CompressedBitmap.__or__",
     lambda args: len(args[0].payload) + len(args[1].payload)),
    ("compress.kernel", "repro.compress.compressed_ops", "CompressedBitmap.__xor__",
     lambda args: len(args[0].payload) + len(args[1].payload)),
    ("compress.kernel", "repro.compress.compressed_ops", "CompressedBitmap.__invert__",
     lambda args: len(args[0].payload)),
    ("compress.encode", "repro.compress.base", "Codec.encode", None),
    ("compress.decode", "repro.compress.base", "Codec.decode", None),
    ("compress.decode", "repro.compress.base", "Codec.decode_view", None),
    ("compress.decode", "repro.compress.base", "Codec.decode_blockwise", None),
    ("storage.fetch", "repro.storage.buffer", "BufferPool.fetch", None),
    ("storage.fetch", "repro.index.compressed_engine", "_PayloadPool.fetch", None),
)

LAYERS = ("serve", "index", "table", "expr", "compress", "storage")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class SpanTracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        #: Payload bytes entering compressed kernels, per op id.
        self.bytes_in: dict[int, int] = defaultdict(int)
        #: Entry points that could not be wrapped, with the reason.
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._op: list | None = None
        self._op_stack: list | None = None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, bytes_hook in ENTRY_POINTS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                reason = f"{module_name}.{path}: {type(exc).__name__}: {exc}"
                if reason not in self.missing:
                    self.missing.append(reason)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, bytes_hook))
            else:
                wrapped = self._wrap(raw, name, bytes_hook)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name, bytes_hook):
        clock = time.perf_counter
        spans = self.spans
        local = self._local
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._stack()
            op = tracer._op
            if stack:
                parent = stack[-1]
            elif tracer._op_stack:
                parent = tracer._op_stack[-1]
            else:
                parent = op
            if op is None:
                record = [name, 0.0, 0.0, parent, None]
            else:
                record = [name, 0.0, 0.0, parent, op[4]]
                if bytes_hook is not None:
                    tracer.bytes_in[op[4]] += bytes_hook(args)
            stack.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                spans.append(record)

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, kind: str, op_id: int) -> list:
        """Open the root span of one op on the calling (client) thread."""
        stack = self._stack()
        record = [kind, time.perf_counter(), 0.0, None, op_id]
        stack.append(record)
        self._op = record
        self._op_stack = stack
        return record

    def end_op(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._op_stack.pop()
        self._op = None
        self._op_stack = None
        self.spans.append(record)


def self_times(spans: list[list]) -> dict[int, tuple[str, float]]:
    """Self time of every span, keyed by ``id(span)``.

    Child intervals are merged before subtracting, so children that
    overlap (spans from two threads under one parent) are not
    subtracted twice.
    """
    children: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append(span)
    result = {}
    for span in spans:
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(id(span), ()), key=lambda c: c[1]):
            lo, hi = max(child[1], cursor), min(child[2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[id(span)] = (span[0], (end - start) - covered)
    return result
