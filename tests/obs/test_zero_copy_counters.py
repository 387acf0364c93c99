"""Zero-copy / evaluator counters: emission and trace export."""

import json

import numpy as np

from repro import obs
from repro.bitmap import BitVector
from repro.expr import evaluate, leaf
from repro.expr.evaluator import BLOCK_WORDS
from repro.index import BitmapIndex, IndexSpec
from repro.index.persist import load_index, save_index
from repro.queries import IntervalQuery
from repro.storage import MappedDirectoryStore


def make_bitmaps(length=BLOCK_WORDS * 64 * 2 + 5, seed=0):
    rng = np.random.default_rng(seed)
    return {
        key: BitVector.from_bools(rng.random(length) < 0.4)
        for key in ("a", "b")
    }, length


class TestStorageCounters:
    def test_mmap_counters_emitted(self, tmp_path):
        bitmaps, length = make_bitmaps()
        with obs.observed() as o:
            store = MappedDirectoryStore(tmp_path, codec="raw")
            store.put("a", bitmaps["a"])
            view = store.payload_view("a")
        assert o.counter_total("storage.mmap.maps") == 1
        assert o.counter_total("storage.mmap.view_bytes") == view.nbytes

    def test_copy_fallback_emitted_by_unmapped_store(self, tmp_path):
        from repro.storage import DirectoryStore

        bitmaps, _ = make_bitmaps()
        store = DirectoryStore(tmp_path, codec="raw")
        store.put("a", bitmaps["a"])
        with obs.observed() as o:
            store.payload_view("a")
        assert o.counter_total("storage.mmap.copy_fallbacks") == 1


class TestFusedCounters:
    def test_fused_counters_emitted(self):
        bitmaps, length = make_bitmaps()
        with obs.observed() as o:
            evaluate(~(leaf("a") & leaf("b")), bitmaps.get, length)
        assert o.counter_total("expr.fused.blocks") == 3  # word ranges

    def test_materialize_mode_counter_is_tagged(self):
        # One evaluator, one untagged series: no full-length intermediate.
        bitmaps, length = make_bitmaps()
        with obs.observed() as o:
            evaluate(leaf("a") & leaf("b"), bitmaps.get, length)
        assert o.metrics.find("expr.intermediate_allocs").value == 0
        assert o.metrics.find("expr.intermediate_allocs", mode="materialize") is None


class TestExport:
    def test_counters_reach_trace_export(self, tmp_path):
        """The --trace-out JSON document carries the new counter families."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, 8, 70_009)
        index = BitmapIndex.build(
            values, IndexSpec(cardinality=8, scheme="E", codec="raw")
        )
        save_index(index, tmp_path / "idx")
        with obs.observed() as o:
            loaded = load_index(tmp_path / "idx", mapped=True)
            loaded.query(IntervalQuery(2, 6, 8))
        export = json.loads(o.export_json())
        metrics = export["metrics"]
        assert metrics["storage.mmap.maps"]["_"]["value"] > 0
        assert metrics["storage.mmap.view_bytes"]["_"]["value"] > 0
        assert metrics["expr.intermediate_allocs"]["_"]["value"] == 0
        assert metrics["expr.fused.blocks"]["_"]["value"] > 0
