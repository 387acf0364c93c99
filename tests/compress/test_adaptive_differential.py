"""Differential property tests for the position/range-list and auto codecs.

Mirrors ``test_differential.py`` for the PR-10 codecs: every operation
must agree bit-for-bit with the decompress-operate oracle.  Lengths hit
the new alignment boundaries on top of the old ones — 2^16 ± 1 (the
roaring container edge the auto selector measures per chunk) and
131072 ± 1 bits (the streams' 2048-word default block, which the
mixed-codec combine and the two new streams must straddle).  Auto
gets the extra mixed-codec cases: operand pairs whose payloads carry
*different* inner codecs, which no fixed codec ever faces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import (
    CODEC_IDS,
    COUNT_OPS,
    LOGICAL_OPS,
    NOT_OPS,
    get_codec,
    open_stream,
    split_payload,
)
from repro.compress.multiway import multiway_logical, multiway_threshold
from repro.workload.markov import markov_bitmap

NEW_CODECS = ("position_list", "range_list", "auto")

# Old boundaries plus the roaring-chunk and stream-block edges.
BOUNDARY_LENGTHS = sorted(
    {0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129}
    | {2**16 - 1, 2**16, 2**16 + 1}
    | {2048 * 64 - 1, 2048 * 64, 2048 * 64 + 1}
)
lengths = st.one_of(
    st.sampled_from(BOUNDARY_LENGTHS),
    st.integers(min_value=0, max_value=1500),
)
densities = st.sampled_from([0.0, 0.001, 0.02, 0.1, 0.5, 0.9, 1.0])
clusterings = st.sampled_from([1.0, 4.0, 32.0])


def clustered(length, density, clustering, seed):
    if density < 1.0:
        clustering = max(clustering, density / (1.0 - density))
    return markov_bitmap(length, density, clustering, seed=seed)


@pytest.mark.parametrize("name", NEW_CODECS)
@given(
    length=lengths,
    density=densities,
    clustering=clusterings,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=80, deadline=None)
def test_roundtrip(name, length, density, clustering, seed):
    vector = clustered(length, density, clustering, seed)
    codec = get_codec(name)
    assert codec.decode(codec.encode(vector), length) == vector


@pytest.mark.parametrize("name", NEW_CODECS)
@pytest.mark.parametrize("op", ["and", "or", "xor"])
@given(
    length=lengths,
    density_a=densities,
    density_b=densities,
    clustering=clusterings,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=50, deadline=None)
def test_logical_matches_oracle(
    name, op, length, density_a, density_b, clustering, seed
):
    vec_a = clustered(length, density_a, clustering, seed)
    vec_b = clustered(length, density_b, clustering, seed + 1)
    codec = get_codec(name)
    result = LOGICAL_OPS[name](
        op, codec.encode(vec_a), codec.encode(vec_b), length
    )
    if op == "and":
        oracle = vec_a & vec_b
    elif op == "or":
        oracle = vec_a | vec_b
    else:
        oracle = vec_a ^ vec_b
    assert codec.decode(result, length) == oracle
    if name != "auto":
        # Canonical forms: the compressed-domain output is identical to
        # recompression.  (Auto's op result keeps the operands' inner
        # codec, which a fresh selection need not pick.)
        assert result == codec.encode(oracle)


@pytest.mark.parametrize("name", NEW_CODECS)
@given(
    length=lengths,
    density=densities,
    clustering=clusterings,
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=50, deadline=None)
def test_not_and_count_match_oracle(name, length, density, clustering, seed):
    vector = clustered(length, density, clustering, seed)
    codec = get_codec(name)
    payload = codec.encode(vector)
    assert codec.decode(NOT_OPS[name](payload, length), length) == ~vector
    assert COUNT_OPS[name](payload) == vector.count()


@pytest.mark.parametrize("name", NEW_CODECS)
@given(
    length=st.sampled_from(
        [1, 100, 2**16 - 1, 2**16 + 1, 2048 * 64 - 1, 2048 * 64 + 1]
    ),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=30, deadline=None)
def test_multiway_threshold_matches_raw(name, length, k, seed):
    """k-of-N streamed off the new codecs == the same run off raw."""
    rng = np.random.default_rng(seed)
    vectors = [
        BitVector.from_bools(rng.random(length) < d)
        for d in (0.01, 0.2, 0.5, 0.8)
    ]
    codec = get_codec(name)
    raw = get_codec("raw")
    got = multiway_threshold(
        k, name, [codec.encode(v) for v in vectors], length
    )
    want = multiway_threshold(
        k, "raw", [raw.encode(v) for v in vectors], length
    )
    assert got == want


@pytest.mark.parametrize("inner_a", ["position_list", "range_list", "raw", "roaring"])
@pytest.mark.parametrize("inner_b", ["position_list", "bbc", "ewah", "wah"])
@pytest.mark.parametrize("op", ["and", "or", "xor"])
def test_auto_mixed_inner_codecs(inner_a, inner_b, op):
    """Auto ops over payloads with *forced*, differing inner codecs.

    The selector would rarely pick some of these pairings itself, so
    the payloads are hand-tagged; every pairing must still agree with
    the plain-vector oracle, same-inner or mixed.
    """
    length = 3 * 2**16 + 17
    rng = np.random.default_rng(hash((inner_a, inner_b, op)) % 2**32)
    vec_a = BitVector.from_bools(rng.random(length) < 0.01)
    vec_b = BitVector.from_bools(rng.random(length) < 0.4)
    payload_a = bytes([CODEC_IDS[inner_a]]) + get_codec(inner_a).encode(vec_a)
    payload_b = bytes([CODEC_IDS[inner_b]]) + get_codec(inner_b).encode(vec_b)
    result = LOGICAL_OPS["auto"](op, payload_a, payload_b, length)
    if op == "and":
        oracle = vec_a & vec_b
    elif op == "or":
        oracle = vec_a | vec_b
    else:
        oracle = vec_a ^ vec_b
    auto = get_codec("auto")
    assert auto.decode(result, length) == oracle
    # The result is a well-formed auto payload: tagged, streamable.
    inner, _ = split_payload(result)
    assert inner in CODEC_IDS
    stream = open_stream("auto", result, length)
    assert BitVector(length, stream.block(0, stream.num_words).copy()) == oracle


def test_auto_multiway_mixed_inners_matches_raw():
    """Multiway ops over an auto set whose inners genuinely differ."""
    length = 2**17 + 5
    rng = np.random.default_rng(9)
    vectors = [
        BitVector.from_bools(rng.random(length) < d)
        for d in (0.00005, 0.3, 0.9)
    ]
    auto = get_codec("auto")
    payloads = [auto.encode(v) for v in vectors]
    inners = {split_payload(p)[0] for p in payloads}
    assert len(inners) > 1, inners
    raw = get_codec("raw")
    raw_payloads = [raw.encode(v) for v in vectors]
    for op in ("and", "or", "xor"):
        got = multiway_logical(op, "auto", payloads, length)
        want = multiway_logical(op, "raw", raw_payloads, length)
        assert got == want
    got = multiway_threshold(2, "auto", payloads, length)
    want = multiway_threshold(2, "raw", raw_payloads, length)
    assert got == want
