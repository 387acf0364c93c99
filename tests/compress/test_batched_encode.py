"""Batched encoding must store exactly what per-vector encoding stores.

``Codec.encode_many`` and ``BitmapStore.put_many`` (the paths index
build and append take) against one ``Codec.encode`` per vector, for
every registered codec, at the lengths where word, group and block
boundaries fall; and ``EncodingScheme.build``'s lookup-table gather
against the ``np.isin`` construction it replaced.
"""

import numpy as np
import pytest

from repro import obs
from repro.bitmap import BitVector
from repro.compress import available_codecs, get_codec
from repro.compress import wah
from repro.compress.kernels import DIRTY, FILL_ONE, FILL_ZERO, Runs
from repro.encoding import ALL_SCHEME_NAMES, EXTENDED_SCHEME_NAMES, get_scheme
from repro.errors import DecompositionError
from repro.expr.evaluator import BLOCK_WORDS
from repro.index import BitmapIndex, IndexSpec
from repro.index.decompose import decompose_column, uniform_bases
from repro.storage import BitmapStore, DirectoryStore

LENGTHS = (0, 1, 30, 31, 32, 63, 64, 65, 2**16 - 1, 2**16 + 1)
BLOCK_LENGTHS = (BLOCK_WORDS * 64 - 1, BLOCK_WORDS * 64 + 1)
SHAPES = ("empty", "sparse", "half", "ones", "sorted")


def shaped(rng, length, shape):
    if shape == "empty":
        bits = np.zeros(length, dtype=bool)
    elif shape == "sparse":
        bits = rng.random(length) < 0.002
    elif shape == "half":
        bits = rng.random(length) < 0.5
    elif shape == "ones":
        bits = np.ones(length, dtype=bool)
    else:  # long sorted runs: what a sorted column's bitmaps look like
        bits = np.zeros(length, dtype=bool)
        for start in rng.integers(0, max(length, 1), size=3):
            bits[start : start + length // 5 + 1] = True
    return BitVector.from_bools(bits)


def vectors(rng, lengths):
    """Every (length, shape) vector, lengths interleaved in one batch."""
    return [shaped(rng, n, shape) for shape in SHAPES for n in lengths]


@pytest.mark.parametrize("name", available_codecs())
def test_encode_many_equals_per_vector_encode(name, rng):
    codec = get_codec(name)
    batch = vectors(rng, LENGTHS)
    assert codec.encode_many(batch) == [codec.encode(v) for v in batch]


@pytest.mark.parametrize("name", ["wah", "ewah", "bbc", "raw", "auto"])
def test_encode_many_across_block_boundaries(name, rng):
    codec = get_codec(name)
    batch = vectors(rng, BLOCK_LENGTHS)
    assert codec.encode_many(batch) == [codec.encode(v) for v in batch]


def test_wah_batches_many_short_bitmaps(rng):
    """More rows than fit one block: the WAH kernel splits the batch."""
    codec = get_codec("wah")
    batch = [shaped(rng, 4096, SHAPES[i % 5]) for i in range(BLOCK_WORDS // 64 + 7)]
    assert codec.encode_many(batch) == [codec.encode(v) for v in batch]


@pytest.mark.parametrize("name", available_codecs())
def test_put_many_equals_put(name, rng, tmp_path):
    batch = vectors(rng, LENGTHS)
    items = [(("k", i), v) for i, v in enumerate(batch)]
    one_by_one = BitmapStore(name)
    for key, vector in items:
        one_by_one.put(key, vector)
    batched = DirectoryStore(tmp_path, name)
    assert batched.put_many(items) is None  # no StoredBitmapInfo is built
    for key, vector in items:
        assert batched.info(key) == one_by_one.info(key)
        assert batched.get_payload(key) == one_by_one.get_payload(key)
        # A persistent store still writes every payload.
        assert batched.path_for(key).read_bytes() == one_by_one.get_payload(key)[0]
        assert batched.version(key) == 1


@pytest.mark.parametrize("name", available_codecs())
def test_encode_counters_equal_per_vector_totals(name, rng):
    codec = get_codec(name)
    batch = vectors(rng, LENGTHS)
    counters = ("codec.encode.calls", "codec.encode.bits_in", "codec.encode.bytes_out")
    with obs.observed() as per_vector:
        for vector in batch:
            codec.encode(vector)
    with obs.observed() as batched:
        codec.encode_many(batch)
    for counter in counters:
        assert batched.counter_total(counter) == per_vector.counter_total(counter)
    with obs.observed() as empty:
        assert codec.encode_many([]) == []
    assert empty.counter_total("codec.encode.calls") == 0


def _reference_wah(runs: Runs) -> bytes:
    """The scalar WAH emitter the batched one replaced."""
    words = []
    val_pos = 0
    for t, n in zip(runs.types.tolist(), runs.lengths.tolist()):
        if t == DIRTY:
            words.extend(runs.values[val_pos : val_pos + n].tolist())
            val_pos += n
        elif n == 1:
            words.append(wah._LITERAL_MASK if t == FILL_ONE else 0)
        else:
            fill_bit = wah._FILL_VALUE_FLAG if t == FILL_ONE else 0
            while n > 0:
                chunk = min(n, wah._MAX_FILL)
                words.append(wah._FILL_FLAG | fill_bit | chunk)
                n -= chunk
    return np.asarray(words, dtype=np.uint32).tobytes()


def test_wah_splits_fills_past_the_counter():
    """Fills longer than 2**30 - 1 groups split into counter-sized words
    (no vector that long is materialized: the runs are synthetic)."""
    big = 2 * wah._MAX_FILL + 5
    runs = Runs(
        np.array([FILL_ONE, DIRTY, FILL_ZERO, FILL_ONE, FILL_ZERO], dtype=np.int8),
        np.array([big, 2, wah._MAX_FILL + 1, 1, wah._MAX_FILL], dtype=np.int64),
        np.array([5, 7], dtype=np.uint32),
    )
    assert wah.wah_from_runs(runs) == _reference_wah(runs)
    two_rows = wah.wah_from_run_rows(
        Runs(
            np.concatenate([runs.types, runs.types]),
            np.concatenate([runs.lengths, runs.lengths]),
            np.concatenate([runs.values, runs.values]),
        ),
        np.array([5, 5]),
    )
    assert two_rows == [_reference_wah(runs)] * 2


def isin_build(scheme, values, cardinality):
    """The per-slot ``np.isin`` construction ``build`` replaced."""
    return {
        slot: BitVector.from_bools(np.isin(values, np.fromiter(value_set, dtype=np.int64)))
        for slot, value_set in scheme.catalog(cardinality).items()
    }


@pytest.mark.parametrize("name", ALL_SCHEME_NAMES + EXTENDED_SCHEME_NAMES)
def test_scheme_build_equals_isin(name, rng):
    scheme = get_scheme(name)
    for cardinality in [*range(1, 41), 200]:
        values = rng.integers(0, cardinality, size=131)
        built = scheme.build(values, cardinality)
        expected = isin_build(scheme, values, cardinality)
        assert list(built) == list(expected)
        assert built == expected
    assert all(len(v) == 0 for v in scheme.build(np.empty(0, dtype=np.int64), 7).values())


@pytest.mark.parametrize("name", ALL_SCHEME_NAMES + EXTENDED_SCHEME_NAMES)
@pytest.mark.parametrize("components", [1, 2, 3])
def test_index_payloads_equal_isin_encoding(name, components, rng):
    scheme = get_scheme(name)
    codec = get_codec("wah")
    for cardinality in (2, 7, 16, 40, 200):
        try:
            bases = uniform_bases(cardinality, components)
        except DecompositionError:
            continue
        spec = IndexSpec(cardinality, name, bases=bases, codec="wah")
        values = rng.integers(0, cardinality, size=300)
        index = BitmapIndex.build(values, spec)
        for component, (base, digits) in enumerate(
            zip(bases, decompose_column(values, bases))
        ):
            for slot, vector in isin_build(scheme, digits, base).items():
                payload, _ = index.store.get_payload((component, slot))
                assert payload == codec.encode(vector)
