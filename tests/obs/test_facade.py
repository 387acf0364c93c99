"""The Observability facade, installation, and stack integration."""

import json

from repro import obs
from repro.bitmap import BitVector
from repro.compress import get_codec
from repro.index import BitmapIndex, IndexSpec, QueryEngine
from repro.queries import IntervalQuery
from repro.storage import BitmapStore, BufferPool
from repro.workload import zipf_column


class TestInstallation:
    def test_off_by_default(self):
        assert obs.active() is None

    def test_install_uninstall(self):
        instance = obs.install()
        try:
            assert obs.active() is instance
        finally:
            obs.uninstall()
        assert obs.active() is None

    def test_observed_restores_previous(self):
        with obs.observed() as outer:
            with obs.observed() as inner:
                assert obs.active() is inner
            assert obs.active() is outer
        assert obs.active() is None

    def test_observed_accepts_an_existing_instance(self):
        mine = obs.Observability()
        with obs.observed(mine) as active:
            assert active is mine

    def test_observed_restores_on_exception(self):
        try:
            with obs.observed():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs.active() is None


class TestFacade:
    def test_count_hits_registry_and_span(self):
        o = obs.Observability()
        with o.span("work") as span:
            o.count("reads", 3, codec="wah")
        assert o.counter_total("reads") == 3
        assert span.metrics == {"reads": 3}

    def test_observe_and_gauge(self):
        o = obs.Observability()
        o.observe("ms", 0.5, scheme="E")
        o.gauge_set("pages", 9, pool="decoded")
        assert o.metrics.find("ms", scheme="E").count == 1
        assert o.metrics.find("pages", pool="decoded").value == 9

    def test_reserved_looking_tag_keys_are_just_tags(self):
        """Tags named ``name``/``amount``/``value`` must not collide with
        the positional API (the experiment runner tags spans with
        ``name=...``); regression for a TypeError on exactly that."""
        o = obs.Observability()
        with o.span("experiment", name="figure6") as span:
            o.count("experiment.runs", 1, name="figure6")
            o.observe("ms", 1.0, value="x")
            o.gauge_set("g", 2.0, amount="y")
        assert span.tags == {"name": "figure6"}
        assert o.metrics.find("experiment.runs", name="figure6").value == 1

    def test_export_shape(self):
        o = obs.Observability()
        with o.span("query", scheme="E"):
            o.count("reads", 1)
        export = json.loads(o.export_json())
        assert set(export) == {"metrics", "trace"}
        assert export["metrics"]["reads"]["_"]["value"] == 1.0
        assert export["trace"]["spans"][0]["name"] == "query"


class TestStackIntegration:
    """The instrumented layers report when (and only when) installed."""

    def test_codec_counters(self):
        codec = get_codec("wah")
        vector = BitVector.from_indices(1000, [3, 500])
        with obs.observed() as o:
            payload = codec.encode(vector)
            codec.decode(payload, 1000)
        assert o.counter_total("codec.encode.calls") == 1
        assert o.metrics.find("codec.encode.bits_in", codec="wah").value == 1000
        assert o.metrics.find("codec.decode.bytes_in", codec="wah").value == len(
            payload
        )

    def test_encoded_size_does_not_count(self):
        codec = get_codec("wah")
        vector = BitVector.from_indices(1000, [3])
        with obs.observed() as o:
            codec.encoded_size(vector)
        assert o.counter_total("codec.encode.calls") == 0

    def test_buffer_counters(self):
        store = BitmapStore(codec="raw", page_size=512)
        store.put("a", BitVector.from_indices(10_000, [1]))
        pool = BufferPool(store, capacity_pages=100)
        with obs.observed() as o:
            pool.fetch("a")
            pool.fetch("a")
        assert o.metrics.find("buffer.misses", pool="decoded").value == 1
        assert o.metrics.find("buffer.hits", pool="decoded").value == 1
        assert o.metrics.find("buffer.used_pages", pool="decoded").value == 3

    def test_buffer_counters_compressed_policy(self):
        """The gauge follows every change of used pages, the decoded
        copies a query attaches included."""
        values = zipf_column(20_000, 12, 1.0, seed=0)
        index = BitmapIndex.build(values, IndexSpec(cardinality=12, scheme="E", codec="wah"))
        engine = QueryEngine(index, engine="compressed")
        with obs.observed() as o:
            result = engine.execute(IntervalQuery(2, 6, 12))
        leaves = result.stats.scans
        assert o.metrics.find("buffer.misses", pool="compressed").value == leaves
        assert o.metrics.find("compress.physical", path="words").value == leaves
        used = o.metrics.find("buffer.used_pages", pool="compressed").value
        payloads = sum(index.store.info(key).pages for key in result.stats.fetched_keys)
        assert used == engine.pool.used_pages > payloads

    def test_query_span_and_histogram(self):
        values = zipf_column(500, 10, 1.0, seed=0)
        index = BitmapIndex.build(values, IndexSpec(cardinality=10, scheme="E"))
        with obs.observed() as o:
            index.query(IntervalQuery(2, 6, 10))
        span = o.last_span("query")
        assert span.tags["scheme"] == "E"
        assert span.tags["klass"] == "2RQ"
        assert span.metrics["clock.pages_read"] > 0
        hist = o.metrics.find("query.simulated_ms", scheme="E", klass="2RQ")
        assert hist.count == 1

    def test_nothing_recorded_when_uninstalled(self):
        values = zipf_column(200, 8, 1.0, seed=0)
        index = BitmapIndex.build(values, IndexSpec(cardinality=8, scheme="E"))
        index.query(IntervalQuery(1, 5, 8))
        assert obs.active() is None  # and nothing raised
