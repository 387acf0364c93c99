"""Every codec has one reader, and every way of reading a payload agrees.

A codec's reader is its :class:`~repro.compress.streams.BlockStream`;
``decode``, ``decode_view`` and the default probe read its full window.
For every registered codec (the registry drives the parametrization,
so a new codec is covered by registering it) this checks:

* ``decode(p) == decode_view(p) == open_stream(...).block(0, n)`` at the
  word, roaring-chunk and range-walk block edges, with clean padding in
  every decoded vector, also for a raw payload whose padding is dirty;
* any split of the window into smaller windows reads the same words;
* ``decode`` owns its words while ``decode_view`` keeps raw zero-copy;
* WAH's word-shift realignment equals bit-level unpacking;
* one table of malformed payloads fails ``decode``, ``decode_view``,
  ``open_stream`` and ``probe_many`` with the same :class:`CodecError`.
"""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import available_codecs, get_codec, open_stream
from repro.compress.roaring import ARRAY, BITMAP, CHUNK_BITS, CHUNK_WORDS, RUN
from repro.compress.wah import words_from_groups
from repro.errors import CodecError
from repro.expr import BLOCK_WORDS

BLOCK_BITS = 64 * BLOCK_WORDS
LENGTHS = [0, 1, 63, 64, 65, 2**16 - 1, 2**16 + 1, BLOCK_BITS - 1, BLOCK_BITS + 1]


def vectors(length: int) -> list[BitVector]:
    """Random bitmaps of several densities plus one long run (fills)."""
    rng = np.random.default_rng(length)
    out = [
        BitVector.from_bools(rng.random(length) < density)
        for density in (0.0, 0.02, 0.5, 1.0)
    ]
    bits = np.zeros(length, dtype=bool)
    bits[length // 3 : 2 * length // 3] = True
    return out + [BitVector.from_bools(bits)]


def masked(words: np.ndarray, length: int) -> np.ndarray:
    """``words`` with the padding bits past ``length`` cleared."""
    out = words.copy()
    if length % 64 and out.size:
        out[-1] &= (np.uint64(1) << np.uint64(length % 64)) - np.uint64(1)
    return out


def assert_one_reading(name: str, payload, length: int, want: BitVector) -> None:
    codec = get_codec(name)
    decoded = codec.decode(payload, length)
    view = codec.decode_view(payload, length)
    stream = open_stream(name, payload, length)
    window = stream.block(0, stream.num_words)
    assert decoded == want
    assert view == want
    assert np.array_equal(masked(window, length), want.words)
    n = stream.num_words
    cuts = sorted({0, min(1, n), min(5, n), n // 2, n})
    pieces = [stream.block(lo, hi).copy() for lo, hi in zip(cuts, cuts[1:])]
    joined = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.uint64)
    assert np.array_equal(joined, window)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", available_codecs())
def test_every_reading_path_reads_the_same_words(name, length):
    codec = get_codec(name)
    for vector in vectors(length):
        assert_one_reading(name, codec.encode(vector), length, vector)


@pytest.mark.parametrize("length", [1, 63, 65, 2**16 + 1, BLOCK_BITS + 1])
@pytest.mark.parametrize("name", ["raw", "auto"])
def test_dirty_raw_padding_is_masked(name, length):
    vector = vectors(length)[2]
    words = vector.words.copy()
    words[-1] |= ~np.uint64(0) << np.uint64(length % 64)
    payload = words.tobytes()
    if name == "auto":
        payload = b"\x00" + payload  # the raw tag
    assert_one_reading(name, payload, length, vector)


def test_decode_owns_its_words_and_raw_views_stay_zero_copy():
    raw = get_codec("raw")
    vector = vectors(1000)[2]
    payload = np.frombuffer(raw.encode(vector), dtype=np.uint8)
    assert np.shares_memory(raw.decode_view(payload, 1000).words, payload)
    decoded = raw.decode(payload, 1000)
    assert not np.shares_memory(decoded.words, payload)
    assert decoded.words.flags.writeable
    for name in available_codecs():
        words = get_codec(name).decode(get_codec(name).encode(vector), 1000).words
        assert words.flags.writeable and words.flags.owndata


@pytest.mark.parametrize("num_groups", [0, 1, 2, 3, 97])
def test_wah_word_shifts_match_bit_unpacking(num_groups):
    """WAH's window realignment against the bit-level reference."""
    rng = np.random.default_rng(num_groups)
    groups = rng.integers(0, 1 << 31, num_groups).astype(np.uint32)
    raw = np.frombuffer(groups.astype("<u4").tobytes(), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little").reshape(-1, 32)[:, :31].reshape(-1)
    for offset in range(31):
        num_words = max(-(-(bits.size - offset) // 64), 0)  # each starts in a group
        want = np.zeros(num_words * 64, dtype=np.uint8)
        tail = bits[offset:]
        want[: tail.size] = tail
        want = np.packbits(want, bitorder="little").view(np.uint64)
        got = words_from_groups(groups, offset, num_words)
        assert np.array_equal(got, want), offset


# -- malformed payloads ----------------------------------------------------


def encoded(name: str, length: int, indices) -> bytes:
    return get_codec(name).encode(BitVector.from_indices(length, indices))


def u32(*values) -> bytes:
    return np.asarray(values, dtype="<u4").tobytes()


def roaring_directory(keys, kinds, counts) -> bytes:
    return b"".join(
        [
            u32(len(keys)),
            np.asarray(keys, dtype="<u2").tobytes(),
            np.asarray(kinds, dtype=np.uint8).tobytes(),
            np.asarray(counts, dtype="<u4").tobytes(),
        ]
    )


def u16(*values) -> bytes:
    return np.asarray(values, dtype="<u2").tobytes()


WAH_93 = encoded("wah", 93, [5, 40, 92])  # three 31-bit groups
ROARING_123 = encoded("roaring", CHUNK_BITS, [1, 2, 3])

#: (id, codec, payload, length, message fragment).
MALFORMED = [
    ("raw-wrong-size", "raw", b"\x00" * 7, 64, "needs 8"),
    ("bbc-truncated-tail", "bbc", encoded("bbc", 64, range(64)) + b"\x05", 64, "truncated literal"),
    ("bbc-truncated-varint", "bbc", b"\x70", 64, "truncated varint"),
    ("bbc-overlong", "bbc", encoded("bbc", 1000, range(1000)), 8, "allows only"),
    ("wah-misaligned", "wah", b"\x00\x00\x00", 31, "not word aligned"),
    ("wah-truncated", "wah", WAH_93[:-4], 93, "expected 3"),
    ("wah-overrunning", "wah", WAH_93 + u32(0x8000_0002), 93, "overruns"),
    ("wah-short-fill", "wah", u32(0x8000_0002), 93, "expected 3"),
    ("wah-group-count", "wah", encoded("wah", 62, []), 310, "expected 10"),
    ("ewah-misaligned", "ewah", b"\x00" * 7, 64, "not word aligned"),
    ("ewah-truncated-dirty", "ewah", encoded("ewah", 128, [1, 3, 70])[:-8], 128, "truncated dirty"),
    ("ewah-overrunning", "ewah", encoded("ewah", 128, range(128)), 64, "overruns"),
    ("ewah-short", "ewah", encoded("ewah", 64, range(64)), 128, "expected 2"),
    ("roaring-too-short", "roaring", b"\x01\x00", 64, "too short"),
    ("roaring-truncated-directory", "roaring", u32(3), 64, "directory"),
    ("roaring-keys-descend", "roaring", roaring_directory([1, 0], [ARRAY] * 2, [1, 1]) + b"\x00" * 4, 2 * CHUNK_BITS, "ascending"),
    ("roaring-empty-container", "roaring", roaring_directory([0], [ARRAY], [0]), CHUNK_BITS, "empty"),
    ("roaring-unknown-kind", "roaring", roaring_directory([0], [7], [1]) + b"\x00\x00", CHUNK_BITS, "kind"),
    ("roaring-oversized-bitmap", "roaring", roaring_directory([0], [BITMAP], [CHUNK_WORDS + 1]) + b"\x00" * 8 * (CHUNK_WORDS + 1), CHUNK_BITS, "exceeds a chunk"),
    ("roaring-truncated-payload", "roaring", ROARING_123[:-2], CHUNK_BITS, "truncated"),
    ("roaring-trailing-bytes", "roaring", ROARING_123 + b"\x00\x00", CHUNK_BITS, "trailing"),
    ("roaring-unsorted-array", "roaring", roaring_directory([0], [ARRAY], [2]) + u16(5, 4), CHUNK_BITS, "sorted"),
    ("roaring-overlapping-runs", "roaring", roaring_directory([0], [RUN], [2]) + u16(0, 5) + u16(9, 9), CHUNK_BITS, "overlap"),
    ("roaring-run-past-chunk", "roaring", roaring_directory([0], [RUN], [1]) + u16(CHUNK_BITS - 1) + u16(1), CHUNK_BITS, "overruns its chunk"),
    ("roaring-key-past-length", "roaring", encoded("roaring", 2 * CHUNK_BITS, [CHUNK_BITS + 5]), CHUNK_BITS, "overruns the declared length"),
    ("roaring-array-past-length", "roaring", encoded("roaring", CHUNK_BITS, [500]), 100, "array container overruns"),
    ("roaring-run-past-length", "roaring", encoded("roaring", CHUNK_BITS, range(90, 200)), 100, "run container overruns"),
    ("roaring-bitmap-words", "roaring", roaring_directory([0], [BITMAP], [CHUNK_WORDS]) + b"\x55" * 8 * CHUNK_WORDS, CHUNK_BITS - 64, "words"),
    ("position_list-misaligned", "position_list", b"\x01\x02\x03", 100, "whole number"),
    ("position_list-not-ascending", "position_list", u32(5, 5), 100, "ascending"),
    ("position_list-past-length", "position_list", u32(99), 50, "overruns"),
    ("range_list-misaligned", "range_list", b"\x01\x02\x03\x04\x05", 100, "whole number"),
    ("range_list-zero-run", "range_list", u32(3, 0), 100, "at least 1"),
    ("range_list-past-length", "range_list", u32(90, 20), 100, "overruns"),
    ("range_list-adjacent-runs", "range_list", u32(0, 5, 5, 3), 100, "non-adjacent"),
    ("auto-missing-tag", "auto", b"", 10, "missing its codec tag"),
    ("auto-unknown-tag", "auto", b"\x09", 10, "unknown auto codec tag"),
    ("auto-bad-inner", "auto", b"\x02\x00\x00\x00", 31, "not word aligned"),
    ("auto-raw-wrong-size", "auto", b"\x00" + b"\x00" * 7, 64, "needs 8"),
]


def test_table_covers_every_codec():
    assert {case[1] for case in MALFORMED} == set(available_codecs())


@pytest.mark.parametrize(
    "name, payload, length, match",
    [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_payload_fails_every_reading_path_alike(name, payload, length, match):
    codec = get_codec(name)
    readers = {
        "decode": lambda: codec.decode(payload, length),
        "decode_view": lambda: codec.decode_view(payload, length),
        "open_stream": lambda: open_stream(name, payload, length),
        "probe_many": lambda: codec.probe_many([payload], length, np.array([0])),
    }
    messages = {}
    for reader, read in readers.items():
        with pytest.raises(CodecError, match=match) as raised:
            read()
        messages[reader] = str(raised.value)
    assert len(set(messages.values())) == 1, messages
