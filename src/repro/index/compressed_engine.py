"""Compressed-index query evaluation with a per-node physical choice (extension).

The paper's cost model charges decompression CPU for every compressed
bitmap a query reads — that charge is why compressed indexes lose to
uncompressed ones at low skew (Figure 9).  Compressed-domain codecs
admit a way out: a logical operation can consume the *compressed
payloads* directly, so the decompression charge disappears and the CPU
charge shrinks with the compression ratio.

:class:`CompressedQueryEngine` evaluates any index stored under a codec
in :data:`~repro.compress.COMPRESSED_DOMAIN_CODECS` (the registry, so
``auto`` and any codec registered at runtime are included).  Stored
payloads are fetched and buffered in compressed form by a payload pool
sized in pages.  Every operator node yields decoded words; what varies
per node is how it reads its leaves, decided from what the engine can
observe:

* **words** — every leaf operand's decoded copy is resident in the
  pool, or fits into the room its encoded payloads leave free.  The
  node runs :func:`~repro.bitmap.or_all`/``and_all``/``xor_all``, ``~``
  or :func:`~repro.compress.multiway.threshold_vectors` on words, and
  the copies stay resident for later queries (the paper's buffer pool,
  Section 6.3, likewise keeps decoded bitmaps for reuse);
* **stream** — otherwise: one :mod:`repro.compress.multiway` pass
  streams every operand block-at-a-time from its payload (a pooled
  leaf's parsed stream is kept for its residency), so a pool too
  small for decoded copies never holds a whole decoded leaf.

The ``CostClock`` charge is the same on both paths — the bytes a node
reads (encoded bytes of a leaf, word bytes of a decoded value), no
decompression charge — so the choice never changes a simulated number;
the ``compress.physical{path=}`` counter makes it visible.  The
``bench_compressed_ops`` benchmark quantifies the saving against the
standard decompress-then-operate engine.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Sequence

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector, and_all, or_all, xor_all
from repro.compress import COMPRESSED_DOMAIN_CODECS, CompressedBitmap, get_codec
from repro.compress.multiway import (
    multiway_logical,
    multiway_threshold,
    threshold_vectors,
)
from repro.compress.streams import BlockStream, open_stream
from repro.errors import QueryError
from repro.expr import EvalStats, Expr
from repro.expr.nodes import And, Const, Leaf, Not, Or, Xor
from repro.expr.threshold import Threshold
from repro.index.evaluation import EvaluationResult, query_class_of
from repro.queries.model import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.storage import BufferStats, CostClock
from repro.storage.pages import pages_for

_WORD_OPS = {"and": and_all, "or": or_all, "xor": xor_all}


def _decoded_pages(length: int, page_size: int) -> int:
    """Pages one decoded ``length``-bit bitmap occupies."""
    return pages_for(8 * -(-length // 64), page_size)


class _PooledBitmap(CompressedBitmap):
    """A resident payload plus at most one parsed form of it.

    The form is either the decoded copy (:attr:`decoded`, attached by
    the pool when it fits) or the block stream the stream path opens on
    first use — never both, so a leaf is decoded or parsed (and
    validated) once per residency rather than once per query.  Both go
    with the payload on eviction or a store-version change.
    """

    def __init__(self, key: Hashable, payload, length: int, codec: str):
        super().__init__(payload, length, codec)
        self.key = key
        #: The decoded copy while the pool holds one (read-only).
        self.decoded: BitVector | None = None
        self._stream: BlockStream | None = None

    def stream(self) -> BlockStream:
        if self._stream is None:
            self._stream = open_stream(self.codec, self.payload, self.length)
        return self._stream

    def attach(self, vector: BitVector) -> None:
        self.decoded = vector
        self._stream = None


#: A node's value: a pooled leaf (still encoded) or decoded words.
Value = _PooledBitmap | BitVector


class _PayloadPool:
    """LRU cache of compressed payloads plus their decoded copies.

    Capacity is in pages.  Encoded payloads are admitted and evicted in
    LRU order exactly as if no decoded copy existed, so hits, misses,
    evictions and pages read never depend on the copies.  A decoded copy
    (:meth:`decoded`) only takes room the encoded payloads leave free,
    charged in decoded pages, and is the first thing dropped when a
    payload needs that room; it also goes with its payload on eviction
    or a store-version change.
    """

    def __init__(self, store, capacity_pages: int, clock: CostClock | None):
        self._store = store
        self._codec_name = store.codec.name
        self._capacity = capacity_pages
        self._clock = clock
        self._resident: OrderedDict[
            Hashable, tuple[_PooledBitmap, int, int]
        ] = OrderedDict()
        #: Pages of resident encoded payloads / of their decoded copies.
        self._used = 0
        self._decoded_used = 0
        self.stats = BufferStats()

    def fetch(self, key: Hashable) -> _PooledBitmap:
        entry = self._resident.get(key)
        o = _obs.active()
        if entry is not None:
            bitmap, pages, version = entry
            if version != self._store.version(key):
                # The stored payload was replaced (an append rewrites
                # every bitmap); drop the entry and read through below.
                self._drop(key)
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
        bitmap = _PooledBitmap(key, payload, length, self._codec_name)
        pages = pages_for(len(payload), self._store.page_size)
        while self._resident and self._used + pages > self._capacity:
            self._drop(next(iter(self._resident)))
            self.stats.evictions += 1
            if o is not None:
                o.count("buffer.evictions", 1, pool="compressed")
        self._resident[key] = (bitmap, pages, self._store.version(key))
        self._used += pages
        self._free_decoded(0)
        if o is not None:
            o.gauge_set("buffer.used_pages", self.used_pages, pool="compressed")
        return bitmap

    def fetch_many(self, keys) -> list[_PooledBitmap]:
        """:meth:`fetch` of each key in order."""
        return [self.fetch(key) for key in keys]

    @property
    def used_pages(self) -> int:
        """Pages held by resident payloads and their decoded copies."""
        return self._used + self._decoded_used

    def decoded(self, bitmaps: Sequence[_PooledBitmap]) -> list[BitVector] | None:
        """Decoded copies of ``bitmaps``, or None when they cannot all be held.

        A missing copy is decoded (one ``Codec.decode``) and kept when
        every bitmap is still resident and all their copies fit beside
        the encoded payloads, dropping other copies LRU-first to make
        room; the returned vectors are read-only.
        """
        missing = {id(b): b for b in bitmaps if b.decoded is None}
        if missing:
            held = {id(b): b for b in bitmaps if id(b) not in missing}
            page_size = self._store.page_size
            need = sum(_decoded_pages(b.length, page_size) for b in missing.values())
            pinned = sum(_decoded_pages(b.length, page_size) for b in held.values())
            if self._used + pinned + need > self._capacity or not all(
                self._holds(bitmap) for bitmap in missing.values()
            ):
                return None
            self._free_decoded(need, keep={*missing, *held})
            codec = get_codec(self._codec_name)
            for bitmap in missing.values():
                bitmap.attach(codec.decode(bitmap.payload, bitmap.length))
            self._decoded_used += need
        return [bitmap.decoded for bitmap in bitmaps]

    def _holds(self, bitmap: _PooledBitmap) -> bool:
        """True iff ``bitmap`` is the pool's current resident for its key."""
        entry = self._resident.get(bitmap.key)
        return entry is not None and entry[0] is bitmap

    def _free_decoded(self, incoming: int, keep=frozenset()) -> None:
        """Drop decoded copies, least recently used first, until
        ``incoming`` more decoded pages fit; copies of the bitmaps whose
        ids are in ``keep`` stay."""
        for bitmap, _, _ in self._resident.values():
            if self.used_pages + incoming <= self._capacity:
                return
            if bitmap.decoded is not None and id(bitmap) not in keep:
                self._drop_decoded(bitmap)

    def _drop_decoded(self, bitmap: _PooledBitmap) -> None:
        self._decoded_used -= _decoded_pages(bitmap.length, self._store.page_size)
        bitmap.decoded = None

    def _drop(self, key: Hashable) -> None:
        bitmap, pages, _ = self._resident.pop(key)
        self._used -= pages
        if bitmap.decoded is not None:
            self._drop_decoded(bitmap)

    def clear(self) -> None:
        for key in list(self._resident):
            self._drop(key)


class CompressedQueryEngine:
    """Evaluates queries over a compressed index, leaves kept encoded.

    Mirrors :class:`~repro.index.evaluation.QueryEngine` (component-wise
    strategy) over a pool of compressed payloads.  Each operator node
    runs on words when its leaves' decoded copies are resident in, or
    fit into, that pool, and streams its operands through one
    multi-way pass otherwise; both yield decoded words.  CPU is charged
    per byte a node reads — compressed bytes for a leaf, word bytes for
    a decoded value — rather than per uncompressed word of every input,
    on either path.  Works for any codec in
    :data:`~repro.compress.COMPRESSED_DOMAIN_CODECS`.

    ``buffer_pages`` bounds encoded payloads and decoded copies
    together; the default holds every bitmap in both forms.
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
            decoded = _decoded_pages(index.num_records, index.store.page_size)
            buffer_pages = index.size_pages() + decoded * index.num_bitmaps() + 2
        self.pool = _PayloadPool(index.store, buffer_pages, self.clock)

    @property
    def buffer_stats(self) -> BufferStats:
        """Hit/miss/eviction counters of the payload pool."""
        return self.pool.stats

    def execute(
        self, query: IntervalQuery | MembershipQuery | ThresholdQuery
    ) -> EvaluationResult:
        """Rewrite and evaluate ``query`` over the compressed index.

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
        plan=None,
    ):
        """Evaluate one query's constituents against a shared leaf cache.

        The serving layer's shared-scan batches prefetch the union of a
        batch's leaf bitmaps once and pass the same ``cache`` to every
        query in the batch, so each stored bitmap crosses the buffer
        pool at most once per batch.  Returns the decoded answer; a
        bare-leaf answer's decode is charged as decompression, exactly
        as in :meth:`execute`.  ``plan`` is the decoded engine's
        (:func:`~repro.index.evaluation.plan_or`); this engine ORs the
        constituents node by node and does not use it.
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
        """The answer as a caller-owned vector in original row order.

        An operator node's answer is already decoded and used as-is.  A
        bare leaf is charged as decompression and copied from its
        resident decoded copy, or decoded by streaming its payload
        through the codec's block kernel (decode scratch stays ~16 KiB
        instead of scaling with the run count).  On a reordered index
        the vector is translated back to original row order here — the
        result boundary — so every operation above ran in sorted space.
        """
        if isinstance(answer, _PooledBitmap):
            self.clock.charge_decompress(answer.compressed_size())
            vectors = self.pool.decoded([answer])
            answer = (
                vectors[0].copy() if vectors is not None
                else answer.decode_blockwise(self.block_words)
            )
        return self.index.restore_row_order(answer)

    def _logical(self, op: str, operands: list[Value], stats: EvalStats) -> Value:
        """``op`` over ``operands``; one operand passes through as-is.

        ``stats.operations`` counts the logical ``n - 1`` ops of the
        n-ary node, so expression-level accounting matches the pairwise
        fold the node replaces.
        """
        if len(operands) == 1:
            return operands[0]
        stats.operations += len(operands) - 1
        return self._node(op, operands)

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
            stats.operations += 1
            result = self._node("not", [child])
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
            # The evaluator's convention: one counter addition per input.
            stats.operations += len(operands)
            result = self._node("threshold", operands, expr.k)
        else:
            raise TypeError(f"unknown expression node {type(expr).__name__}")
        memo[expr] = result
        return result

    def _node(self, op: str, operands: list[Value], k: int = 0) -> BitVector:
        """One ``and``/``or``/``xor``/``not``/``threshold`` node, decoded.

        Runs on words when every leaf operand's decoded copy is resident
        or fits (:meth:`_PayloadPool.decoded`); otherwise one
        ``multiway_logical``/``multiway_threshold`` pass streams the
        operands (``not`` streams its operand, then inverts).  Both
        paths charge the bytes the operands occupy — compressed payload
        bytes for a leaf, word bytes for a decoded value — with no
        decompression charge.
        """
        vectors = self._words(operands)
        if vectors is not None:
            path = "words"
            if op == "threshold":
                result = threshold_vectors(k, vectors)
            elif op == "not":
                result = ~vectors[0]
            else:
                result = _WORD_OPS[op](vectors)
        else:
            path = "stream"
            names, inputs = _kernel_inputs(operands)
            length = self.index.num_records
            if op == "threshold":
                result = multiway_threshold(
                    k, names, inputs, length, self.block_words
                )
            elif op == "not":
                result = ~multiway_logical(
                    "or", names, inputs, length, self.block_words
                )
            else:
                result = multiway_logical(
                    op, names, inputs, length, self.block_words
                )
        touched = sum(
            operand.words.nbytes if isinstance(operand, BitVector)
            else operand.compressed_size()
            for operand in operands
        )
        self.clock.charge_word_ops(1, max(1, touched // 8))
        o = _obs.active()
        if o is not None:
            o.count("compress.physical", 1, path=path)
        return result

    def _words(self, operands: list[Value]) -> list[BitVector] | None:
        """Every operand as words, or None when a leaf's decoded copy
        is neither resident nor fits into the pool."""
        leaves = [o for o in operands if not isinstance(o, BitVector)]
        decoded = self.pool.decoded(leaves)
        if decoded is None:
            return None
        copies = iter(decoded)
        return [o if isinstance(o, BitVector) else next(copies) for o in operands]


def _kernel_inputs(operands: list[Value]) -> tuple[list[str], list]:
    """Codec names and inputs of a multi-way kernel call.

    Decoded words — a decoded operand, or a pooled leaf's resident
    decoded copy — travel as a zero-copy ``raw`` payload, any other
    leaf as its cached block stream.  ``len()`` of every input is the
    bytes it streams.
    """
    names, inputs = [], []
    for operand in operands:
        words = operand if isinstance(operand, BitVector) else operand.decoded
        if words is not None:
            names.append("raw")
            inputs.append(words.words.view(np.uint8))
        else:
            names.append(operand.codec)
            inputs.append(operand.stream())
    return names, inputs
