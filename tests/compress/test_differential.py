"""Differential property tests: operations on encoded bitmaps vs the oracle.

Every codec in :data:`COMPRESSED_DOMAIN_CODECS` runs AND/OR/XOR/NOT and
popcount through :class:`CompressedBitmap`, whose operators evaluate
the node over the operands' block streams and re-encode the result.
Each result must agree bit-for-bit with the plain :class:`BitVector`
operation, and its payload must be exactly ``codec.encode`` of that
result (canonical by construction).  ``raw``, which ``CompressedBitmap``
refuses because its payload already is the decoded words, runs the
same walk over its zero-copy streams as the uncompressed baseline, and
all codecs must agree with *each other* on the same inputs.

Lengths hit the alignment boundaries: n = 0, 1, 31-33 (WAH packs
31-bit groups), 63-65 (EWAH and raw use 64-bit words; BBC bytes),
2^16 ± 1 (roaring splits the domain into 2^16-bit containers) and
64 · ``BLOCK_WORDS`` ± 1 (the range walk's block edge).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS, CompressedBitmap, get_codec, open_stream
from repro.expr import BLOCK_WORDS, And, Leaf, Not, Or, Xor, evaluate

CODEC_NAMES = ("raw", *sorted(COMPRESSED_DOMAIN_CODECS))

#: The operator each op name applies, on CompressedBitmaps and on BitVectors.
OPERATORS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "not": lambda a: ~a,
}
NODES = {
    "and": And((Leaf(0), Leaf(1))),
    "or": Or((Leaf(0), Leaf(1))),
    "xor": Xor((Leaf(0), Leaf(1))),
    "not": Not(Leaf(0)),
}

BLOCK_BITS = 64 * BLOCK_WORDS
BOUNDARY_LENGTHS = sorted(
    {0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129}
    | {31 * k + d for k in (2, 3, 8) for d in (-1, 0, 1)}
    | {2**16 - 1, 2**16, 2**16 + 1}
    | {BLOCK_BITS - 1, BLOCK_BITS + 1}
)
lengths = st.one_of(
    st.sampled_from(BOUNDARY_LENGTHS),
    st.integers(min_value=0, max_value=1500),
)
densities = st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9, 0.98, 1.0])
seeds = st.integers(min_value=0, max_value=2**20)


def random_pair(length: int, density_a: float, density_b: float, seed: int):
    rng = np.random.default_rng(seed)
    a = BitVector.from_bools(rng.random(length) < density_a)
    b = BitVector.from_bools(rng.random(length) < density_b)
    return a, b


def operate(name: str, op: str, *vectors: BitVector) -> bytes:
    """``op`` over ``vectors`` encoded with codec ``name``; the result payload."""
    if name != "raw":
        bitmaps = [CompressedBitmap.from_vector(v, name) for v in vectors]
        return OPERATORS[op](*bitmaps).payload
    raw = get_codec("raw")
    length = len(vectors[0])
    streams = [open_stream("raw", raw.encode(v), length) for v in vectors]
    return raw.encode(evaluate(NODES[op], streams.__getitem__, length))


def count(name: str, payload: bytes, length: int) -> int:
    if name == "raw":
        return get_codec("raw").decode(payload, length).count()
    return CompressedBitmap(payload, length, name).count()


def check(name: str, payload: bytes, oracle: BitVector) -> None:
    """The result decodes to ``oracle`` and is its canonical encoding."""
    codec = get_codec(name)
    assert codec.decode(payload, len(oracle)) == oracle
    assert payload == codec.encode(oracle)


@given(length=lengths, density=densities, seed=seeds)
@settings(max_examples=150, deadline=None)
def test_roundtrip_all_codecs(length, density, seed):
    vector, _ = random_pair(length, density, density, seed)
    for name in CODEC_NAMES:
        codec = get_codec(name)
        assert codec.decode(codec.encode(vector), length) == vector


@pytest.mark.parametrize("name", CODEC_NAMES)
@pytest.mark.parametrize("op", ["and", "or", "xor"])
@given(length=lengths, density_a=densities, density_b=densities, seed=seeds)
@example(length=BLOCK_BITS + 1, density_a=0.1, density_b=0.5, seed=1)
@example(length=BLOCK_BITS - 1, density_a=0.98, density_b=0.02, seed=2)
@settings(max_examples=60, deadline=None)
def test_logical_matches_oracle(name, op, length, density_a, density_b, seed):
    vec_a, vec_b = random_pair(length, density_a, density_b, seed)
    oracle = OPERATORS[op](vec_a, vec_b)
    payload = operate(name, op, vec_a, vec_b)
    check(name, payload, oracle)
    assert count(name, payload, length) == oracle.count()


@pytest.mark.parametrize("name", CODEC_NAMES)
@given(length=lengths, density=densities, seed=seeds)
@example(length=BLOCK_BITS + 1, density=0.02, seed=3)
@settings(max_examples=60, deadline=None)
def test_not_matches_oracle(name, length, density, seed):
    vector, _ = random_pair(length, density, density, seed)
    check(name, operate(name, "not", vector), ~vector)


@pytest.mark.parametrize("name", CODEC_NAMES)
@given(length=lengths, density=densities, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_count_matches_oracle(name, length, density, seed):
    vector, _ = random_pair(length, density, density, seed)
    assert count(name, get_codec(name).encode(vector), length) == vector.count()


@pytest.mark.parametrize("op", ["and", "or", "xor"])
@given(length=lengths, density_a=densities, density_b=densities, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_all_codecs_agree(op, length, density_a, density_b, seed):
    """Every codec's pipeline — encode, operate, decode — yields the same bits."""
    vec_a, vec_b = random_pair(length, density_a, density_b, seed)
    decoded = {
        name: get_codec(name).decode(operate(name, op, vec_a, vec_b), length)
        for name in CODEC_NAMES
    }
    reference = decoded[CODEC_NAMES[0]]
    for name in CODEC_NAMES[1:]:
        assert decoded[name] == reference, name


@given(
    length=st.sampled_from(
        [2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16, 3 * 2**16 + 17]
    ),
    density=densities,
    seed=seeds,
)
@settings(max_examples=30, deadline=None)
def test_container_boundary_roundtrip_all_codecs(length, density, seed):
    """Lengths at/around the 2^16 container boundary roundtrip everywhere."""
    vector, _ = random_pair(length, density, density, seed)
    for name in CODEC_NAMES:
        codec = get_codec(name)
        assert codec.decode(codec.encode(vector), length) == vector
