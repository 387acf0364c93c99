"""Unit tests for the shared run-array kernels and codec fallbacks."""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import CompressedBitmap, get_codec, kernels, open_stream
from repro.compress import ewah as ewah_module
from repro.compress import wah as wah_module
from repro.compress.kernels import DIRTY, FILL_ONE, FILL_ZERO, Runs
from repro.errors import CodecError


def make_runs(spec, dtype=np.uint8):
    """Build a Runs from ``[(type, length, [values...]), ...]``."""
    types, lengths, values = [], [], []
    for t, length, *vals in spec:
        types.append(t)
        lengths.append(length)
        if vals:
            values.extend(vals[0])
    return Runs(
        np.array(types, dtype=np.int8),
        np.array(lengths, dtype=np.int64),
        np.array(values, dtype=dtype),
    )


class TestExpandRanges:
    def test_basic(self):
        out = kernels.expand_ranges([0, 10], [3, 2])
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_empty(self):
        assert kernels.expand_ranges([], []).size == 0

    def test_zero_length_ranges_skipped(self):
        out = kernels.expand_ranges([5, 7, 9], [2, 0, 1])
        assert out.tolist() == [5, 6, 9]


class TestRunsRoundtrip:
    def test_elements_roundtrip(self):
        rng = np.random.default_rng(0)
        elements = rng.choice(
            np.array([0, 0, 0, 0xFF, 0xFF, 0x5A], dtype=np.uint8), size=500
        )
        runs = kernels.runs_from_elements(elements, 0xFF)
        back = kernels.elements_from_runs(runs, 0xFF, np.uint8)
        assert np.array_equal(back, elements)

    def test_canonical_no_adjacent_equal_types(self):
        elements = np.array([0, 0, 0xFF, 0xFF, 1, 2, 0], dtype=np.uint8)
        runs = kernels.runs_from_elements(elements, 0xFF)
        assert runs.types.tolist() == [FILL_ZERO, FILL_ONE, DIRTY, FILL_ZERO]
        assert runs.lengths.tolist() == [2, 2, 2, 1]
        assert runs.values.tolist() == [1, 2]

    def test_empty_elements(self):
        runs = kernels.runs_from_elements(np.empty(0, dtype=np.uint8), 0xFF)
        assert runs.total == 0
        assert runs.num_runs == 0


class TestNormalize:
    def test_drops_zero_length_runs(self):
        raw = make_runs([(FILL_ZERO, 0), (DIRTY, 2, [1, 2]), (FILL_ONE, 0)])
        runs = kernels.normalize(raw.types, raw.lengths, raw.values, 0xFF)
        assert runs.types.tolist() == [DIRTY]
        assert runs.lengths.tolist() == [2]

    def test_redetects_fills_inside_dirty(self):
        raw = make_runs([(DIRTY, 5, [0, 0, 7, 0xFF, 0xFF])])
        runs = kernels.normalize(raw.types, raw.lengths, raw.values, 0xFF)
        assert runs.types.tolist() == [FILL_ZERO, DIRTY, FILL_ONE]
        assert runs.lengths.tolist() == [2, 1, 2]
        assert runs.values.tolist() == [7]

    def test_merges_adjacent_equal_types(self):
        raw = make_runs([(FILL_ZERO, 3), (FILL_ZERO, 4), (DIRTY, 1, [9])])
        runs = kernels.normalize(raw.types, raw.lengths, raw.values, 0xFF)
        assert runs.types.tolist() == [FILL_ZERO, DIRTY]
        assert runs.lengths.tolist() == [7, 1]


class TestChunkedFallbacks:
    """Counter-overflow paths, exercised by shrinking the counter caps."""

    def test_wah_fill_chunking(self, monkeypatch):
        monkeypatch.setattr(wah_module, "_MAX_FILL", 3)
        codec = get_codec("wah")
        vector = BitVector.from_indices(31 * 20 + 5, [31 * 20 + 1])
        payload = codec.encode(vector)
        # The 20-group zero fill must be split into ceil(20/3) fill words.
        assert len(payload) > 3 * 4
        assert codec.decode(payload, len(vector)) == vector

    def test_ewah_clean_and_dirty_chunking(self, monkeypatch):
        monkeypatch.setattr(ewah_module, "_MAX_CLEAN", 7)
        monkeypatch.setattr(ewah_module, "_MAX_DIRTY", 3)
        codec = get_codec("ewah")
        # 20 clean words, then 6 dirty words, then 10 one-fill words.
        bits = np.zeros(64 * 36, dtype=bool)
        bits[64 * 20 + 1 :: 64] = True  # one bit per word -> dirty words
        bits[64 * 26 : 64 * 36] = True
        vector = BitVector.from_bools(bits)
        payload = codec.encode(vector)
        assert codec.decode(payload, len(vector)) == vector

    def test_wah_long_fill_roundtrip_via_real_cap(self, monkeypatch):
        # A fill exactly at the cap stays on the vectorized path.
        monkeypatch.setattr(wah_module, "_MAX_FILL", 4)
        codec = get_codec("wah")
        vector = BitVector.zeros(31 * 4)
        assert codec.decode(codec.encode(vector), len(vector)) == vector


class TestBbcOpsErrors:
    """BBC payload errors and trimmed payloads through decode and streams."""

    def test_overlong_stream_rejected(self):
        codec = get_codec("bbc")
        payload = codec.encode(BitVector.ones(1000))
        with pytest.raises(CodecError, match="allows only"):
            codec.decode(payload, 8)
        with pytest.raises(CodecError, match="allows only"):
            open_stream("bbc", payload, 8)

    def test_trimmed_payloads_repad(self):
        # Encoder trims trailing zero bytes; streams must re-pad before
        # combining payloads that cover different byte counts.
        codec = get_codec("bbc")
        a = BitVector.from_indices(1000, [3])      # trims after byte 0
        b = BitVector.from_indices(1000, [900])    # covers ~113 bytes
        out = CompressedBitmap.from_vector(a, "bbc") | CompressedBitmap.from_vector(b, "bbc")
        assert codec.decode(out.payload, 1000) == a | b
