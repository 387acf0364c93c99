"""Expression evaluation with scan and operation accounting.

The evaluator combines stored bitmaps fetched through a caller-supplied
function.  Every distinct leaf is fetched exactly once per evaluation
(and once per shared ``cache``) — this models the paper's
component-wise evaluation strategy where each bitmap is scanned at most
once per query (Section 6.3).

:class:`EvalStats` records what a query costed: distinct bitmaps
fetched (the paper's "number of bitmap scans") and the number of bulk
logical word operations performed (the CPU side of the time model).

Physically, :func:`evaluate` is a destination-passing walk over word
ranges.  It fetches the leaves once, in the depth-first first-touch
order the expression's :class:`~repro.expr.plan.QueryPlan` lists them
in, then walks the tree once per range of :data:`BLOCK_WORDS` words and
writes every node straight into a destination slice.  A leaf is a
*range source*: resident words (a :class:`~repro.bitmap.BitVector`),
sliced in place, or a :class:`~repro.compress.streams.BlockStream`
over its encoded payload, whose window the walk materializes once per
range however often the tree reads it.  Then:

* a node over leaves reads the leaf windows directly — ``A AND NOT B``
  is ``bitwise_not(B, out); bitwise_and(out, A, out)``;
* any other child is written into per-depth scratch from a per-thread
  arena and folded into the destination in place;
* ``Not`` inverts its destination in place;
* a threshold node counts its children through a
  :class:`~repro.compress.multiway.ThresholdCounter`, range by range.

The only full-length allocation is the answer, whose tail word is
masked once at the end (intermediates and stream windows may carry
padding garbage).  A range is 256 KiB, so the few live slices of one
range stay in L2 even for 64M-row vectors, while a 4M-row vector is
just two ranges.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress.multiway import ThresholdCounter, counter_width
from repro.compress.streams import BlockStream
from repro.errors import BitmapError
from repro.expr.nodes import And, Const, Expr, Leaf, Not, Or, Xor
from repro.expr.plan import QueryPlan, compile_query
from repro.expr.threshold import Threshold

#: What a leaf evaluates from: resident words or a block stream.
Source = BitVector | BlockStream
FetchFn = Callable[[Hashable], Source]

#: Words per evaluation range (256 KiB).
BLOCK_WORDS = 32768

_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_ZERO = np.uint64(0)
_OPS = {And: np.bitwise_and, Or: np.bitwise_or, Xor: np.bitwise_xor}


@dataclass
class EvalStats:
    """Accounting for one or more expression evaluations."""

    #: Distinct stored bitmaps fetched ("bitmap scans").
    scans: int = 0
    #: Bulk logical operations executed (each combines two operands or
    #: complements one).
    operations: int = 0
    #: Keys fetched, in first-fetch order (useful in tests).
    fetched_keys: list[Hashable] = field(default_factory=list)

    def merge(self, other: "EvalStats") -> None:
        """Fold another stats object into this one."""
        self.scans += other.scans
        self.operations += other.operations
        self.fetched_keys.extend(other.fetched_keys)


def expression_scan_count(expr: Expr) -> int:
    """Distinct stored bitmaps an expression needs (its scan cost)."""
    return len(expr.leaf_keys())


def expression_operation_count(expr: Expr) -> int:
    """Bulk logical operations :func:`evaluate` charges for ``expr``.

    A subtree that appears several times (by node equality) is counted
    once.  ``Not`` costs 1, an n-ary node costs ``n - 1``, a
    ``Threshold`` over ``n`` children costs ``n`` (one counter addition
    per child; the compare rides the last), leaves and constants cost 0.
    This is the CPU side of the analytic cost model — the engine charges
    exactly this many bulk ops (times the words per operation) to its
    clock.
    """
    return compile_query((expr,)).operations


class _Arena(threading.local):
    """Range-sized scratch reused across evaluations, one per thread.

    Per-thread, so concurrent evaluations never share a buffer.  A
    buffer is always written before it is read within one range, so
    nothing carries from one evaluation to the next.
    """

    def __init__(self):
        self.buffers: list[np.ndarray] = []
        self.counters: dict[tuple[int, int], ThresholdCounter] = {}

    def buffer(self, depth: int, n: int) -> np.ndarray:
        while len(self.buffers) <= depth:
            self.buffers.append(np.empty(BLOCK_WORDS, dtype=np.uint64))
        return self.buffers[depth][:n]

    def counter(self, depth: int, fanin: int) -> ThresholdCounter:
        key = (depth, counter_width(fanin))
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = ThresholdCounter(fanin, BLOCK_WORDS)
        return counter


_ARENA = _Arena()


def evaluate(
    expr: Expr | QueryPlan,
    fetch: FetchFn,
    length: int,
    stats: EvalStats | None = None,
    cache: dict[Hashable, Source] | None = None,
    operations: int | None = None,
) -> BitVector:
    """Evaluate ``expr`` into a bit vector of ``length`` bits.

    Parameters
    ----------
    expr:
        The expression to evaluate, or the
        :class:`~repro.expr.plan.QueryPlan` of a query (its ``expr`` is
        walked); an expression is compiled into its plan first.
    fetch:
        Callback mapping a leaf key to its range source: the stored
        bitmap's words, or a block stream over its payload.
    length:
        Length of the result (the relation cardinality); needed for
        constants and validated against every fetched source.
    stats:
        Optional accumulator for scan/operation counts.
    cache:
        Optional source cache shared across several evaluations of the
        same query (the component-wise strategy passes one per query so
        that no bitmap is fetched twice).
    operations:
        Bulk operations to charge to ``stats``; defaults to the plan's
        ``operations``.

    A bare :class:`Leaf` over resident words evaluates to the fetched
    vector itself (which may be a read-only view); any other expression,
    a bare stream leaf included, to a fresh vector.
    """
    plan = expr if type(expr) is QueryPlan else compile_query((expr,))
    expr = plan.expr
    if stats is None:
        stats = EvalStats()
    if cache is None:
        cache = {}
    resident: dict[Hashable, np.ndarray] = {}
    streamed: dict[Hashable, BlockStream] = {}
    for key in plan.keys:
        source = cache.get(key)
        if source is None:
            source = _fetch_leaf(key, fetch, length, stats, cache)
        if isinstance(source, BlockStream):
            streamed[key] = source
        else:
            resident[key] = source.words
    stats.operations += plan.operations if operations is None else operations
    if type(expr) is Leaf and not streamed:
        return cache[expr.key]

    num_words = (length + 63) // 64
    out = np.empty(num_words, dtype=np.uint64)
    for lo in range(0, num_words, BLOCK_WORDS):
        hi = min(lo + BLOCK_WORDS, num_words)
        # One window per leaf and range (one range reads whole vectors):
        # a stream may reuse its block buffer on its next call, so a
        # leaf the tree reads twice (``A AND NOT A``) is still
        # materialized once.
        if hi - lo == num_words:
            leaves = dict(resident) if streamed else resident
        else:
            leaves = {key: words[lo:hi] for key, words in resident.items()}
        for key, stream in streamed.items():
            leaves[key] = stream.block(lo, hi)
        _write(expr, out[lo:hi], 0, leaves, _ARENA)
    if length % 64:
        out[-1] &= np.uint64((1 << length % 64) - 1)
    o = _obs.active()
    if o is not None:
        o.count("expr.fused.blocks", -(-num_words // BLOCK_WORDS))
        # Full-length intermediates: none, only the answer is allocated.
        o.count("expr.intermediate_allocs", 0)
        for node in expr.walk():
            if type(node) is Threshold:
                o.count("expr.threshold.evals", 1)
                o.count("expr.threshold.children", len(node.operands))
    return BitVector(length, out)


def _fetch_leaf(
    key: Hashable,
    fetch: FetchFn,
    length: int,
    stats: EvalStats,
    cache: dict[Hashable, Source],
) -> Source:
    source = fetch(key)
    # ``len()`` of a stream is its encoded size, not its bit length.
    bits = source.length if isinstance(source, BlockStream) else len(source)
    if bits != length:
        raise BitmapError(
            f"bitmap {key!r} has length {bits}, expected {length}"
        )
    cache[key] = source
    stats.scans += 1
    stats.fetched_keys.append(key)
    return source


def _write(
    node: Expr,
    dst: np.ndarray,
    depth: int,
    leaves: dict[Hashable, np.ndarray],
    arena: _Arena,
) -> None:
    """Write ``node``'s words of the current range into ``dst``.

    ``leaves`` holds every leaf's window of the range.  A parent reads
    its leaf children's windows in place, so ``node`` is a leaf only at
    the root.  Other children are staged in ``arena`` scratch at
    ``depth`` (their own children go one level deeper); the first
    non-leaf operand of an n-ary node is written into ``dst`` directly.
    """
    kind = type(node)
    if kind is Not:
        child = node.child
        if type(child) is Leaf:
            np.bitwise_not(leaves[child.key], out=dst)
        else:
            _write(child, dst, depth, leaves, arena)
            np.bitwise_not(dst, out=dst)
    elif kind in _OPS:
        op = _OPS[kind]
        sources = [leaves[c.key] for c in node.operands if type(c) is Leaf]
        inner = [c for c in node.operands if type(c) is not Leaf]
        if inner:
            _write(inner[0], dst, depth, leaves, arena)
            for child in inner[1:]:
                scratch = arena.buffer(depth, len(dst))
                _write(child, scratch, depth + 1, leaves, arena)
                op(dst, scratch, out=dst)
        elif len(sources) == 1:
            np.copyto(dst, sources.pop())
        else:
            op(sources.pop(), sources.pop(), out=dst)
        for source in sources:
            op(dst, source, out=dst)
    elif kind is Threshold:
        if node.k > len(node.operands):
            dst.fill(_ZERO)
            return
        counter = arena.counter(depth, len(node.operands))
        counter.reset(len(dst))
        for child in node.operands:
            if type(child) is Leaf:
                counter.add(leaves[child.key])
            else:
                scratch = arena.buffer(depth, len(dst))
                _write(child, scratch, depth + 1, leaves, arena)
                counter.add(scratch)
        counter.compare_ge(node.k, dst)
    elif kind is Leaf:
        np.copyto(dst, leaves[node.key])
    elif kind is Const:
        dst.fill(_FULL if node.value else _ZERO)
    else:
        raise TypeError(f"unknown expression node {kind.__name__}")
