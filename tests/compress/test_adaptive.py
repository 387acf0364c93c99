"""Unit tests for the adaptive (``auto``) meta-codec."""

import numpy as np
import pytest

from repro import obs
from repro.bitmap import BitVector
from repro.compress import get_codec, open_stream
from repro.compress.adaptive import (
    CODEC_IDS,
    ID_CODECS,
    candidate_sizes,
    measure,
    payload_codec_name,
    rle_floor,
    select_codec,
    split_payload,
)
from repro.errors import CodecError
from repro.workload.markov import markov_bitmap


class TestMeasure:
    def test_empty_vector(self):
        stats = measure(BitVector.zeros(1000))
        assert stats.count == 0 and stats.runs == 0
        assert stats.dirty_words == 0 and stats.dirty_bytes == 0
        assert stats.roaring_floor == 0

    def test_counts_and_runs(self):
        vector = BitVector.from_indices(200, [0, 1, 2, 10, 63, 64, 199])
        stats = measure(vector)
        assert stats.count == 7
        assert stats.runs == 4  # [0,3), [10,11), [63,65), [199,200)
        assert stats.length == 200

    def test_run_spanning_word_boundary_is_one_run(self):
        vector = BitVector.from_indices(130, list(range(60, 70)))
        assert measure(vector).runs == 1

    def test_dirty_units_exclude_full_and_empty(self):
        # Word 0 all ones, word 1 empty, word 2 mixed.
        vector = BitVector.from_indices(192, list(range(64)) + [130])
        stats = measure(vector)
        assert stats.dirty_words == 1
        # 8 full bytes + 1 dirty byte (bit 130 in byte 16).
        assert stats.dirty_bytes == 1

    def test_partial_tail_word_full_is_not_dirty(self):
        # 70 bits all set: word 1 holds 6 logical bits, all set — its
        # capacity is 6, so it is "full", not dirty.
        stats = measure(BitVector.ones(70))
        assert stats.dirty_words == 0

    def test_density_and_clustering(self):
        vector = BitVector.from_indices(100, [1, 2, 3, 4, 50, 51])
        stats = measure(vector)
        assert stats.density == pytest.approx(0.06)
        assert stats.clustering == pytest.approx(3.0)

    def test_roaring_floor_is_a_true_lower_bound(self):
        rng = np.random.default_rng(5)
        for density in (0.0001, 0.01, 0.3, 0.9):
            vector = BitVector.from_bools(rng.random(3 * 2**16 + 100) < density)
            floor = measure(vector).roaring_floor
            actual = get_codec("roaring").encoded_size(vector)
            assert floor <= actual

    def test_rle_floor_bounds_every_rle_codec(self):
        rng = np.random.default_rng(6)
        for density, clustering in ((0.001, 1.0), (0.01, 16.0), (0.4, 8.0)):
            vector = markov_bitmap(2**17, density, clustering, seed=11)
            floor = rle_floor(measure(vector))
            for name in ("bbc", "wah", "ewah", "roaring"):
                assert floor <= get_codec(name).encoded_size(vector), name


class TestSelection:
    def test_arithmetic_sizes_are_exact(self):
        vector = BitVector.from_indices(1000, [3, 4, 5, 500])
        sizes = candidate_sizes(measure(vector))
        assert sizes["position_list"] == 4 * 4
        assert sizes["range_list"] == 8 * 2
        assert sizes["raw"] == 8 * 16

    def test_auto_always_picks_the_global_minimum(self):
        rng = np.random.default_rng(1)
        auto = get_codec("auto")
        concrete = [name for name in CODEC_IDS]
        for trial in range(25):
            n = int(rng.integers(1, 200000))
            density = float(rng.random()) ** 3
            vector = BitVector.from_bools(rng.random(n) < density)
            best = min(get_codec(c).encoded_size(vector) for c in concrete)
            assert len(auto.encode(vector)) == best + 1

    def test_decision_table_corners(self):
        n = 2**20
        # Ultra-sparse scattered: flat positions beat roaring's
        # 7-bytes-per-chunk directory.
        scattered = BitVector.from_indices(n, list(range(0, n, 2**16)))
        assert select_codec(scattered) == "position_list"
        # A handful of long runs: the run list wins.
        runs = BitVector.from_indices(
            n, list(range(1000, 3000)) + list(range(500000, 502000))
        )
        assert select_codec(runs) == "range_list"
        # Dense unclustered: nothing compresses, raw wins.
        rng = np.random.default_rng(2)
        dense = BitVector.from_bools(rng.random(n) < 0.5)
        assert select_codec(dense) == "raw"

    def test_empty_and_full(self):
        assert select_codec(BitVector.zeros(10000)) == "position_list"
        # All-ones is a single fill atom for the byte-RLE codec —
        # smaller than the 8-byte run pair.
        full = BitVector.ones(10000)
        chosen = select_codec(full)
        sizes = {
            name: get_codec(name).encoded_size(full) for name in CODEC_IDS
        }
        assert sizes[chosen] == min(sizes.values())

    def test_fast_path_matches_dry_encode_choice(self):
        # Whether or not the fast path triggers, the chosen codec's
        # size must equal the brute-force minimum (tie-broken sizes may
        # differ in codec name but never in size).
        rng = np.random.default_rng(3)
        for density, clustering in ((0.00001, 1.0), (0.001, 64.0), (0.2, 4.0)):
            vector = markov_bitmap(2**18, density, clustering, seed=7)
            chosen = select_codec(vector)
            sizes = {
                name: get_codec(name).encoded_size(vector)
                for name in CODEC_IDS
            }
            assert sizes[chosen] == min(sizes.values())


class TestPayloadFormat:
    def test_tag_roundtrip(self):
        vector = BitVector.from_indices(100, [1, 5])
        payload = get_codec("auto").encode(vector)
        name, body = split_payload(payload)
        assert name == payload_codec_name(payload)
        assert payload[0] == CODEC_IDS[name]
        assert get_codec(name).decode(body, 100) == vector

    def test_codec_ids_are_stable(self):
        # On-disk format: these ids are persisted in blob tag bytes and
        # cross-checked against the v2 manifest.  Never renumber.
        assert CODEC_IDS == {
            "raw": 0,
            "bbc": 1,
            "wah": 2,
            "ewah": 3,
            "roaring": 4,
            "position_list": 5,
            "range_list": 6,
        }
        assert ID_CODECS == {v: k for k, v in CODEC_IDS.items()}

    def test_empty_payload_rejected(self):
        with pytest.raises(CodecError, match="tag byte"):
            split_payload(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown auto codec tag 250"):
            split_payload(bytes([250]) + b"junk")

    def test_decode_rejects_corrupt_inner(self):
        vector = BitVector.from_indices(100, [1, 5])
        payload = get_codec("auto").encode(vector)
        with pytest.raises(CodecError):
            get_codec("auto").decode(payload[:1] + b"\x01", 100)

    def test_mapped_payload_kinds(self):
        # Persistence hands codecs memoryviews and uint8 arrays.
        vector = BitVector.from_indices(100, [1, 5, 64])
        auto = get_codec("auto")
        payload = auto.encode(vector)
        assert auto.decode(memoryview(payload), 100) == vector
        assert auto.decode(np.frombuffer(payload, dtype=np.uint8), 100) == vector


class TestObsCounter:
    def test_selection_counter_tagged_by_inner_codec(self):
        auto = get_codec("auto")
        sparse = BitVector.from_indices(2**18, [17])
        rng = np.random.default_rng(4)
        dense = BitVector.from_bools(rng.random(2**18) < 0.5)
        with obs.observed() as o:
            auto.encode(sparse)
            auto.encode(dense)
            auto.encode(dense)
        selected = o.metrics.to_dict()["compress.auto.selected"]
        by_tag = {
            tags: entry["value"] for tags, entry in selected.items()
        }
        assert by_tag == {"codec=position_list": 1.0, "codec=raw": 2.0}


class TestMalformedPayloads:
    """Typed errors on corrupt position/range-list payloads."""

    def test_position_list_misaligned(self):
        with pytest.raises(CodecError, match="whole number"):
            get_codec("position_list").decode(b"\x01\x02\x03", 100)
        with pytest.raises(CodecError, match="whole number"):
            open_stream("position_list", b"\x01\x02\x03", 100)

    def test_position_list_not_ascending(self):
        payload = np.asarray([5, 5], dtype="<u4").tobytes()
        with pytest.raises(CodecError, match="ascending"):
            get_codec("position_list").decode(payload, 100)

    def test_position_list_overruns_length(self):
        payload = np.asarray([99], dtype="<u4").tobytes()
        with pytest.raises(CodecError, match="overruns"):
            get_codec("position_list").decode(payload, 50)

    def test_range_list_misaligned(self):
        with pytest.raises(CodecError, match="whole number"):
            get_codec("range_list").decode(b"\x01\x02\x03\x04\x05", 100)
        with pytest.raises(CodecError, match="whole number"):
            open_stream("range_list", b"\x01\x02\x03\x04\x05", 100)

    def test_range_list_zero_run(self):
        payload = np.asarray([[3, 0]], dtype="<u4").tobytes()
        with pytest.raises(CodecError, match="at least 1"):
            get_codec("range_list").decode(payload, 100)

    def test_range_list_overruns_length(self):
        payload = np.asarray([[90, 20]], dtype="<u4").tobytes()
        with pytest.raises(CodecError, match="overruns"):
            get_codec("range_list").decode(payload, 100)

    def test_range_list_adjacent_runs_rejected(self):
        # [0, 5) followed by [5, 8) should have been one maximal run.
        payload = np.asarray([[0, 5], [5, 3]], dtype="<u4").tobytes()
        with pytest.raises(CodecError, match="non-adjacent"):
            get_codec("range_list").decode(payload, 100)
