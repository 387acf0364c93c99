"""Compressed-domain query evaluation (extension).

The paper's cost model charges decompression CPU for every compressed
bitmap a query reads — that charge is why compressed indexes lose to
uncompressed ones at low skew (Figure 9).  Compressed-domain codecs
admit a way out: logical operations can run *directly on the compressed
payloads* (:mod:`repro.compress.compressed_ops`), touching only the
dirty words (or, for roaring, only the matching containers), so the
decompression charge disappears and the CPU charge shrinks with the
compression ratio.

:class:`CompressedQueryEngine` is the engine-level realization for any
index stored under a codec in
:data:`~repro.compress.COMPRESSED_DOMAIN_CODECS` (the registry, so
``auto`` and any codec registered at runtime are included): stored
payloads are fetched (and buffered) in compressed form and never
decoded whole.  Each node's result stays in the form its kernel
produced: a pairwise op on two compressed operands (and NOT of one)
yields a compressed payload, while a multi-way or threshold pass
(:mod:`repro.compress.multiway`) yields decoded words, which are kept
decoded, since the next node would only stream an encoded copy back
into words.  Decoded operands feed later multi-way passes as
``raw`` word payloads, and the final answer is decoded only when it is
still compressed.  The ``bench_compressed_ops`` benchmark quantifies
the saving against the standard decompress-then-operate engine.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS, CompressedBitmap
from repro.compress.multiway import multiway_logical, multiway_threshold
from repro.compress.streams import BlockStream, open_stream
from repro.errors import QueryError
from repro.expr import EvalStats, Expr
from repro.expr.nodes import And, Const, Leaf, Not, Or, Xor
from repro.expr.threshold import Threshold
from repro.index.evaluation import EvaluationResult, query_class_of
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.storage import BufferStats, CostClock
from repro.storage.pages import pages_for

#: A node's value: still compressed, or decoded by a multi-way pass.
Value = CompressedBitmap | BitVector


class _PooledBitmap(CompressedBitmap):
    """A resident payload plus its block stream, parsed on first use.

    Multi-way passes stream their leaves; keeping the opened stream
    beside the payload means a resident leaf is parsed (and validated)
    once per residency rather than once per query.  A replaced or
    evicted payload takes its stream with it.
    """

    def __init__(self, payload, length: int, codec: str):
        super().__init__(payload, length, codec)
        self._stream: BlockStream | None = None

    def stream(self) -> BlockStream:
        if self._stream is None:
            self._stream = open_stream(self.codec, self.payload, self.length)
        return self._stream


class _PayloadPool:
    """LRU cache of compressed payloads, sized in *compressed* pages.

    Unlike :class:`~repro.storage.BufferPool`, residents stay encoded —
    that is the whole point: a compressed-domain engine's buffer holds
    several times more bitmaps in the same memory.  Each resident also
    carries its opened block stream (:class:`_PooledBitmap`), dropped
    with the payload on eviction or when the store version changes.
    """

    def __init__(self, store, capacity_pages: int, clock: CostClock | None):
        self._store = store
        self._codec_name = store.codec.name
        self._capacity = capacity_pages
        self._clock = clock
        self._resident: OrderedDict[
            Hashable, tuple[_PooledBitmap, int, int]
        ] = OrderedDict()
        self._used = 0
        self.stats = BufferStats()

    def fetch(self, key: Hashable) -> _PooledBitmap:
        entry = self._resident.get(key)
        o = _obs.active()
        if entry is not None:
            bitmap, pages, version = entry
            if version != self._store.version(key):
                # The stored payload was replaced (an append rewrites
                # every bitmap); drop the entry and read through below.
                del self._resident[key]
                self._used -= pages
            else:
                self._resident.move_to_end(key)
                self.stats.hits += 1
                if o is not None:
                    o.count("buffer.hits", 1, pool="compressed")
                return bitmap
        self.stats.misses += 1
        if o is not None:
            o.count("buffer.misses", 1, pool="compressed")
        payload, length = self._store.get_payload(key)
        info = self._store.info(key)
        if self._clock is not None:
            self._clock.charge_read(info.pages)
            # No decompression charge: the payload is used as-is.
        bitmap = _PooledBitmap(payload, length, self._codec_name)
        pages = pages_for(len(payload), self._store.page_size)
        while self._resident and self._used + pages > self._capacity:
            _, (_, old_pages, _) = self._resident.popitem(last=False)
            self._used -= old_pages
            self.stats.evictions += 1
            if o is not None:
                o.count("buffer.evictions", 1, pool="compressed")
        self._resident[key] = (bitmap, pages, self._store.version(key))
        self._used += pages
        if o is not None:
            o.gauge_set("buffer.used_pages", self._used, pool="compressed")
        return bitmap

    def clear(self) -> None:
        self._resident.clear()
        self._used = 0


class CompressedQueryEngine:
    """Evaluates queries over a compressed index without decompressing it.

    Mirrors :class:`~repro.index.evaluation.QueryEngine` (component-wise
    strategy) but never decodes a stored bitmap whole: leaves stay
    compressed, pairwise ops on two compressed operands run in the
    compressed domain, and multi-way/threshold nodes stream their inputs
    and keep their decoded result.  CPU is charged per word an operation
    touches — compressed bytes for compressed operands, word bytes for
    decoded ones — rather than per uncompressed word of every input.
    Works for any codec in
    :data:`~repro.compress.COMPRESSED_DOMAIN_CODECS`.
    """

    def __init__(self, index, buffer_pages: int | None = None,
                 clock: CostClock | None = None,
                 block_words: int = 2048):
        codec_name = index.store.codec.name
        if codec_name not in COMPRESSED_DOMAIN_CODECS:
            raise QueryError(
                "compressed-domain evaluation requires a codec with "
                f"compressed-domain operations "
                f"({sorted(COMPRESSED_DOMAIN_CODECS)}), index uses "
                f"{codec_name!r}"
            )
        self._codec_name = codec_name
        self.index = index
        self.block_words = int(block_words)
        self.clock = clock if clock is not None else CostClock()
        if buffer_pages is None:
            buffer_pages = max(1, index.size_pages() + 2)
        self.pool = _PayloadPool(index.store, buffer_pages, self.clock)

    @property
    def buffer_stats(self) -> BufferStats:
        """Hit/miss/eviction counters of the payload pool."""
        return self.pool.stats

    def execute(
        self, query: IntervalQuery | MembershipQuery | ThresholdQuery
    ) -> EvaluationResult:
        """Rewrite and evaluate ``query`` in the compressed domain.

        Traced like the decoded engine (``engine="compressed"`` spans
        and the same per-(scheme, class) latency histogram).
        """
        o = _obs.active()
        if o is None:
            return self._do_execute(query)
        klass = query_class_of(query)
        scheme = self.index.scheme.name
        with o.span(
            "query",
            scheme=scheme,
            strategy="compressed-domain",
            klass=klass,
            engine="compressed",
            codec=self._codec_name,
        ):
            result = self._do_execute(query)
        o.observe("query.simulated_ms", result.simulated_ms,
                  scheme=scheme, klass=klass)
        o.count("query.executed", 1, scheme=scheme, klass=klass)
        return result

    def _do_execute(
        self, query: IntervalQuery | MembershipQuery | ThresholdQuery
    ) -> EvaluationResult:
        if isinstance(query, IntervalQuery):
            constituents = [self.index.rewriter.rewrite_interval(query)]
        elif isinstance(query, MembershipQuery):
            constituents = self.index.rewriter.rewrite_membership(query)
        elif isinstance(query, ThresholdQuery):
            constituents = [self.index.rewriter.rewrite_threshold(query)]
        else:
            raise QueryError(f"unsupported query type {type(query).__name__}")

        start_ms = self.clock.total_ms
        stats = EvalStats()
        return EvaluationResult(
            bitmap=self._evaluate(constituents, {}, stats),
            stats=stats,
            simulated_ms=self.clock.total_ms - start_ms,
            strategy="compressed-domain",
        )

    def evaluate_shared(
        self,
        constituents: list[Expr],
        cache: dict[Hashable, CompressedBitmap],
        stats: EvalStats,
    ):
        """Evaluate one query's constituents against a shared leaf cache.

        The serving layer's shared-scan batches prefetch the union of a
        batch's leaf bitmaps once and pass the same ``cache`` to every
        query in the batch, so each stored bitmap crosses the buffer
        pool at most once per batch.  Returns the decoded answer; a
        still-compressed answer's final decode is charged as
        decompression, exactly as in :meth:`execute`.
        """
        return self._evaluate(constituents, cache, stats)

    # ------------------------------------------------------------------

    def _evaluate(
        self,
        constituents: list[Expr],
        cache: dict[Hashable, CompressedBitmap],
        stats: EvalStats,
    ) -> BitVector:
        """OR the constituents' values and return the decoded answer."""
        memo: dict[Expr, Value] = {}
        results = [
            self._eval(expr, stats, cache, memo) for expr in constituents
        ]
        return self._decode_answer(self._logical("or", results, stats))

    def _decode_answer(self, answer: Value) -> BitVector:
        """The answer as a plain vector in original row order.

        A decoded answer is used as-is — no decode, no decompression
        charge.  A compressed one is decoded once, charged as
        decompression, by streaming the payload through the codec's
        block kernel (decode scratch stays ~16 KiB instead of scaling
        with the run count).  On a reordered index the vector is
        translated back to original row order here — the result
        boundary — so every operation above ran in sorted space.
        """
        if isinstance(answer, CompressedBitmap):
            self.clock.charge_decompress(answer.compressed_size())
            answer = answer.decode_blockwise(self.block_words)
        return self.index.restore_row_order(answer)

    def _logical(self, op: str, operands: list[Value], stats: EvalStats) -> Value:
        """``op`` over ``operands``: pairwise when both are compressed.

        Two compressed operands use their compressed-domain pairwise
        op; three or more operands, or any decoded operand, go through
        one multi-way pass.
        """
        if len(operands) == 1:
            return operands[0]
        if len(operands) == 2 and not any(
            isinstance(operand, BitVector) for operand in operands
        ):
            return self._charged_op(operands[0], operands[1], op, stats)
        return self._multiway_op(op, operands, stats)

    def _charged_op(
        self,
        left: CompressedBitmap,
        right: CompressedBitmap,
        op: str,
        stats: EvalStats,
    ) -> CompressedBitmap:
        if op == "and":
            result = left & right
        elif op == "or":
            result = left | right
        else:
            result = left ^ right
        stats.operations += 1
        touched = (left.compressed_size() + right.compressed_size()) // 8
        self.clock.charge_word_ops(1, max(1, touched))
        return result

    def _eval(
        self,
        expr: Expr,
        stats: EvalStats,
        cache: dict[Hashable, CompressedBitmap],
        memo: dict[Expr, Value],
    ) -> Value:
        if expr in memo:
            return memo[expr]
        length = self.index.num_records
        if isinstance(expr, Leaf):
            if expr.key in cache:
                result = cache[expr.key]
            else:
                result = self.pool.fetch(expr.key)
                cache[expr.key] = result
                stats.scans += 1
                stats.fetched_keys.append(expr.key)
        elif isinstance(expr, Const):
            result = BitVector.ones(length) if expr.value else BitVector.zeros(length)
        elif isinstance(expr, Not):
            child = self._eval(expr.child, stats, cache, memo)
            result = ~child
            stats.operations += 1
            touched = (
                child.words.nbytes if isinstance(child, BitVector)
                else child.compressed_size()
            )
            self.clock.charge_word_ops(1, max(1, touched // 8))
        elif isinstance(expr, (And, Or, Xor)):
            op = {And: "and", Or: "or", Xor: "xor"}[type(expr)]
            operands = [
                self._eval(child, stats, cache, memo)
                for child in expr.children()
            ]
            result = self._logical(op, operands, stats)
        elif isinstance(expr, Threshold):
            operands = [
                self._eval(child, stats, cache, memo)
                for child in expr.children()
            ]
            result = self._threshold_op(expr.k, operands, stats)
        else:
            raise TypeError(f"unknown expression node {type(expr).__name__}")
        memo[expr] = result
        return result

    def _multiway_op(
        self,
        op: str,
        operands: list[Value],
        stats: EvalStats,
    ) -> BitVector:
        """N-way logical op in one pass over the operands.

        Charged by the bytes actually streamed — compressed payload
        bytes, or word bytes for a decoded operand — where the pairwise
        fold would also re-charge every intermediate it materializes;
        for N >= 3 the multi-way pass is therefore strictly cheaper in
        words operated.  ``stats.operations`` still counts the logical
        ``n - 1`` ops of the n-ary node, so expression-level accounting
        is unchanged.  The decoded result is returned as-is.
        """
        names, inputs = _kernel_inputs(operands)
        vector = multiway_logical(
            op, names, inputs, self.index.num_records, self.block_words
        )
        stats.operations += len(operands) - 1
        self._charge_streamed(inputs)
        return vector

    def _threshold_op(
        self,
        k: int,
        operands: list[Value],
        stats: EvalStats,
    ) -> BitVector:
        """k-of-N counting pass over the operands.

        One lockstep stream of the N operands through the bit-sliced
        counter; charged like :meth:`_multiway_op` by the bytes
        streamed, with ``stats.operations`` counting the node's ``n``
        counter additions (the evaluator's convention).
        """
        names, inputs = _kernel_inputs(operands)
        vector = multiway_threshold(
            k, names, inputs, self.index.num_records, self.block_words
        )
        stats.operations += len(operands)
        self._charge_streamed(inputs)
        return vector

    def _charge_streamed(self, inputs: list) -> None:
        touched = sum(len(item) for item in inputs) // 8
        self.clock.charge_word_ops(1, max(1, touched))


def _kernel_inputs(operands: list[Value]) -> tuple[list[str], list]:
    """Codec names and inputs of a multi-way kernel call.

    A decoded operand travels as a zero-copy ``raw`` payload of its
    words, a pooled leaf as its cached block stream, and any other
    compressed operand as its payload.  ``len()`` of every input is the
    bytes it streams.
    """
    names, inputs = [], []
    for operand in operands:
        if isinstance(operand, BitVector):
            names.append("raw")
            inputs.append(operand.words.view(np.uint8))
        elif isinstance(operand, _PooledBitmap):
            names.append(operand.codec)
            inputs.append(operand.stream())
        else:
            names.append(operand.codec)
            inputs.append(operand.payload)
    return names, inputs
