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
ranges.  It fetches the leaves once, in depth-first first-touch order,
then walks the tree once per range of :data:`BLOCK_WORDS` words and
writes every node straight into a destination slice:

* a node over leaves reads the leaf slices directly — ``A AND NOT B``
  is ``bitwise_not(B, out); bitwise_and(out, A, out)``;
* any other child is written into per-depth scratch from a per-thread
  arena and folded into the destination in place;
* ``Not`` inverts its destination in place;
* a threshold node counts its children through a
  :class:`~repro.compress.multiway.ThresholdCounter`, range by range.

The only full-length allocation is the answer, whose tail word is
masked once at the end (intermediates may carry padding garbage).  A
range is 256 KiB, so the few live slices of one range stay in L2 even
for 64M-row vectors, while a 4M-row vector is just two ranges.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress.multiway import ThresholdCounter, counter_width
from repro.errors import BitmapError
from repro.expr.nodes import And, Const, Expr, Leaf, Not, Or, Xor
from repro.expr.threshold import Threshold

FetchFn = Callable[[Hashable], BitVector]

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
    seen: set[Expr] = set()

    def walk(node: Expr) -> int:
        kind = type(node)
        # Leaves and constants cost nothing; skip hashing them.
        if kind is Leaf or kind is Const or node in seen:
            return 0
        seen.add(node)
        children = node.children()
        ops = 0
        for child in children:
            ops += walk(child)
        if kind is Not:
            return ops + 1
        if kind is Threshold:
            return ops + len(children)
        return ops + len(children) - 1

    return walk(expr)


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
    expr: Expr,
    fetch: FetchFn,
    length: int,
    stats: EvalStats | None = None,
    cache: dict[Hashable, BitVector] | None = None,
    operations: int | None = None,
) -> BitVector:
    """Evaluate ``expr`` into a bit vector of ``length`` bits.

    Parameters
    ----------
    expr:
        The expression to evaluate.
    fetch:
        Callback mapping a leaf key to its stored bitmap.
    length:
        Length of the result (the relation cardinality); needed for
        constants and validated against every fetched bitmap.
    stats:
        Optional accumulator for scan/operation counts.
    cache:
        Optional bitmap cache shared across several evaluations of the
        same query (the component-wise strategy passes one per query so
        that no bitmap is fetched twice).
    operations:
        Bulk operations to charge to ``stats``; defaults to
        :func:`expression_operation_count` of ``expr``.

    A bare :class:`Leaf` evaluates to the fetched vector itself (which
    may be a read-only view); any other expression to a fresh vector.
    """
    if stats is None:
        stats = EvalStats()
    if cache is None:
        cache = {}
    words: dict[Hashable, np.ndarray] = {}
    for node in expr.leaves():
        if node.key not in words:
            words[node.key] = _fetch_leaf(node.key, fetch, length, stats, cache).words
    stats.operations += (
        expression_operation_count(expr) if operations is None else operations
    )
    if type(expr) is Leaf:
        return cache[expr.key]

    num_words = (length + 63) // 64
    out = np.empty(num_words, dtype=np.uint64)
    for lo in range(0, num_words, BLOCK_WORDS):
        hi = min(lo + BLOCK_WORDS, num_words)
        _write(expr, lo, hi, out[lo:hi], 0, words, _ARENA)
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
    cache: dict[Hashable, BitVector],
) -> BitVector:
    if key in cache:
        return cache[key]
    vector = fetch(key)
    if len(vector) != length:
        raise BitmapError(
            f"bitmap {key!r} has length {len(vector)}, expected {length}"
        )
    cache[key] = vector
    stats.scans += 1
    stats.fetched_keys.append(key)
    return vector


def _write(
    node: Expr,
    lo: int,
    hi: int,
    dst: np.ndarray,
    depth: int,
    words: dict[Hashable, np.ndarray],
    arena: _Arena,
) -> None:
    """Write words ``[lo, hi)`` of ``node`` into ``dst``.

    ``node`` is never a leaf: a parent reads its leaf children's slices
    in place.  Other children are staged in ``arena`` scratch at
    ``depth`` (their own children go one level deeper); the first
    non-leaf operand of an n-ary node is written into ``dst`` directly.
    """
    kind = type(node)
    if kind is Not:
        child = node.child
        if type(child) is Leaf:
            np.bitwise_not(words[child.key][lo:hi], out=dst)
        else:
            _write(child, lo, hi, dst, depth, words, arena)
            np.bitwise_not(dst, out=dst)
    elif kind in _OPS:
        op = _OPS[kind]
        leaves = [words[c.key][lo:hi] for c in node.operands if type(c) is Leaf]
        inner = [c for c in node.operands if type(c) is not Leaf]
        if inner:
            _write(inner[0], lo, hi, dst, depth, words, arena)
            for child in inner[1:]:
                scratch = arena.buffer(depth, hi - lo)
                _write(child, lo, hi, scratch, depth + 1, words, arena)
                op(dst, scratch, out=dst)
        elif len(leaves) == 1:
            np.copyto(dst, leaves.pop())
        else:
            op(leaves.pop(), leaves.pop(), out=dst)
        for source in leaves:
            op(dst, source, out=dst)
    elif kind is Threshold:
        if node.k > len(node.operands):
            dst.fill(_ZERO)
            return
        counter = arena.counter(depth, len(node.operands))
        counter.reset(hi - lo)
        for child in node.operands:
            if type(child) is Leaf:
                counter.add(words[child.key][lo:hi])
            else:
                scratch = arena.buffer(depth, hi - lo)
                _write(child, lo, hi, scratch, depth + 1, words, arena)
                counter.add(scratch)
        counter.compare_ge(node.k, dst)
    elif kind is Const:
        dst.fill(_FULL if node.value else _ZERO)
    else:
        raise TypeError(f"unknown expression node {kind.__name__}")
