"""``evaluate`` over range sources: resident words and block streams.

A leaf of :func:`repro.expr.evaluate` is either a
:class:`~repro.bitmap.BitVector` or a
:class:`~repro.compress.streams.BlockStream` over its encoded payload,
whose window the walk materializes once per range.  Every answer here
must equal a numpy oracle over the plain bits: codecs mixed in one
node, raw words beside streams, streams reused across evaluations, the
degenerate threshold bounds, length mismatches, and lengths at the
roaring chunk edge and the evaluator's range edge.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS, get_codec
from repro.compress.streams import BlockStream, open_stream
from repro.errors import BitmapError
from repro.expr import BLOCK_WORDS, Threshold, at_least, evaluate, leaf
from repro.expr.nodes import And, Not, Or, Xor
from repro.workload import markov_column

#: Every compressed-domain codec, plus ``raw`` payload streams.
CODECS = sorted(COMPRESSED_DOMAIN_CODECS) + ["raw"]
#: Roaring chunk edges and the evaluator's range edges.
LENGTHS = [2**16 - 1, 2**16 + 1, 64 * BLOCK_WORDS - 1, 64 * BLOCK_WORDS + 1]


@lru_cache(maxsize=None)
def bits(length: int) -> tuple[np.ndarray, ...]:
    """One boolean row per value of a clustered column, so every codec
    sees runs as well as scattered bits."""
    column = markov_column(length, len(CODECS), clustering_factor=40.0, seed=length)
    return tuple(column == value for value in range(len(CODECS)))


@lru_cache(maxsize=None)
def streams(length: int) -> dict[int, BlockStream]:
    """Leaf ``i``'s bits encoded with codec ``CODECS[i]``."""
    return {
        i: open_stream(codec, get_codec(codec).encode(BitVector.from_bools(row)), length)
        for i, (codec, row) in enumerate(zip(CODECS, bits(length)))
    }


def leaves(n: int):
    return tuple(leaf(i) for i in range(n))


def oracle(expr, rows) -> np.ndarray:
    kind = type(expr)
    if kind is Not:
        return ~oracle(expr.child, rows)
    if kind is Threshold:
        return np.sum([oracle(c, rows) for c in expr.operands], axis=0) >= expr.k
    if kind in (And, Or, Xor):
        op = {And: np.logical_and, Or: np.logical_or, Xor: np.logical_xor}[kind]
        return op.reduce([oracle(c, rows) for c in expr.operands])
    return rows[expr.key]


def check(expr, sources, length):
    answer = evaluate(expr, sources.__getitem__, length)
    # Word equality: padding bits past ``length`` must be clear.
    assert answer == BitVector.from_bools(oracle(expr, bits(length)))
    return answer


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("node", ["and", "or", "xor", "threshold"])
def test_codecs_mixed_in_one_node(node, length):
    children = leaves(len(CODECS))
    expr = {
        "and": And(children),
        "or": Or(children),
        "xor": Xor(children),
        "threshold": Threshold(1, children),
    }[node]
    check(expr, streams(length), length)


@pytest.mark.parametrize("length", LENGTHS)
def test_raw_words_beside_streams(length):
    sources = dict(streams(length))
    for i in range(0, len(CODECS), 2):
        sources[i] = BitVector.from_bools(bits(length)[i])
    a, b, c, d, e, f = leaves(6)
    expr = Or((And((a, Not(b))), Xor((c, d)), Threshold(2, (a, c, e, Not(f)))))
    check(expr, sources, length)


def test_streams_reused_across_evaluations():
    length = LENGTHS[1]
    sources = streams(length)
    a, b, c, d = leaves(4)
    first = check(Or((a, b, c)), sources, length)
    check(And((a, Not(d))), sources, length)
    check(Threshold(2, (a, b, c, d)), sources, length)
    assert check(Or((a, b, c)), sources, length) == first


@pytest.mark.parametrize("length", LENGTHS[:2])
def test_bare_stream_leaf_is_a_fresh_vector(length):
    sources = streams(length)
    answer = check(leaf(3), sources, length)
    assert answer.words.flags.writeable


@pytest.mark.parametrize("length", LENGTHS[:2])
def test_threshold_bounds(length):
    sources = streams(length)
    n = len(CODECS)
    ones = evaluate(at_least(0, leaves(n)), sources.__getitem__, length)
    assert ones == BitVector.ones(length)  # padding masked
    for expr in (at_least(n + 1, leaves(n)), Threshold(n + 1, leaves(n))):
        assert evaluate(expr, sources.__getitem__, length) == BitVector.zeros(length)
    check(Threshold(n, leaves(n)), sources, length)


def test_length_mismatch_rejected():
    length = LENGTHS[0]
    sources = {0: streams(length)[0], 1: streams(LENGTHS[1])[1]}
    with pytest.raises(BitmapError, match="length"):
        evaluate(Or(leaves(2)), sources.__getitem__, length)
    sources[1] = BitVector.zeros(length + 1)
    with pytest.raises(BitmapError, match="length"):
        evaluate(Or(leaves(2)), sources.__getitem__, length)


class ScratchStream(BlockStream):
    """Serves every window from one buffer it overwrites on each call,
    as :class:`BlockStream` allows, and records the windows asked for."""

    def __init__(self, vector: BitVector):
        super().__init__(len(vector))
        self._words = vector.words
        self._scratch = np.empty(BLOCK_WORDS, dtype=np.uint64)
        self.windows: list[tuple[int, int]] = []

    def block(self, start, stop):
        self.windows.append((start, stop))
        out = self._scratch[: stop - start]
        out[:] = self._words[start:stop]
        return out


@pytest.mark.parametrize("length", LENGTHS[2:])
def test_leaf_read_twice_in_one_range(length):
    """``A AND NOT A`` and a threshold counting ``A`` twice: the walk
    asks each stream once per range, so no read sees a window its own
    stream has since overwritten."""
    rows = bits(length)
    a, b = leaves(2)
    for expr in (And((a, Not(a))), Or((a, Not(a))), Threshold(2, (a, a, b))):
        sources = {i: ScratchStream(BitVector.from_bools(rows[i])) for i in range(2)}
        check(expr, sources, length)
        ranges = -(-(-(-length // 64)) // BLOCK_WORDS)
        for source in sources.values():
            if source.windows:
                assert len(source.windows) == len(set(source.windows)) == ranges
