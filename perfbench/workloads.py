"""The benchmark's three workloads: inputs, set-up, operation stream, oracle.

Every workload is driven through the public API by one closed-loop
client that keeps one operation outstanding and calls only the
synchronous entry points in its own thread
(``QueryService.execute_many([q])``, ``ShardedQueryService.execute_many([q])``
and ``ShardedQueryService.append``).  The threaded ``submit`` path is not
timed: on a 2-vCPU runner its worker handoff alone more than doubled
p99, which would drown the layers this benchmark is meant to separate.

The program under test receives only the generated arrays and queries;
every input derives from the workload seed.  Why each workload exists,
and its sizes, are recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import BitmapIndex, IndexSpec, QueryService, ServiceConfig, load_index, save_index
from repro.encoding import get_scheme
from repro.index.rewrite import QueryRewriter
from repro.index.segmented import SegmentedBitmapIndex
from repro.serve import paper_mix
from repro.serve.sharded import ShardedConfig, ShardedQueryService
from repro.workload import zipf_column
from repro.workload.markov import markov_column


@dataclass(frozen=True)
class Seeds:
    """Independent seeds for data, queries, the op stream and the sample check."""

    data: int
    queries: int
    ops: int
    sample: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        children = np.random.SeedSequence(seed).spawn(4)
        return cls(*(int(child.generate_state(1)[0]) for child in children))


@dataclass
class Served:
    """A constructed service plus what set-up measured about it."""

    service: object
    spec: IndexSpec
    #: Seconds spent in the benchmark's own calls into the index layer.
    build_s: float = 0.0
    save_s: float = 0.0
    load_s: float = 0.0
    #: Encoded index bytes, when the served index exposes its size.
    index_bytes: int | None = None
    #: Pool capacity in bytes, for the sizes report.
    pool_bytes: int | None = None
    cache_entries: int = 0
    mapped_index: object = None
    workdir: Path | None = None

    def close(self) -> None:
        self.service.close()
        if self.mapped_index is not None:
            self.mapped_index.store.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class Op:
    """One closed-loop operation: a query (by pool position) or an append."""

    kind: str
    query: int = -1
    rows: np.ndarray | None = None


class Oracle:
    """Expected answers, independent of the program under test.

    Row counts come from a value histogram kept current across appends;
    exact row ids come from a naive scan of the column, appended rows
    included (appends land at the end of the global row order).
    """

    def __init__(self, values: np.ndarray, cardinality: int):
        self.cardinality = cardinality
        self.hist = np.bincount(values, minlength=cardinality).astype(np.int64)
        self._parts = [values]

    def expected_count(self, query_values: np.ndarray) -> int:
        return int(self.hist[query_values].sum())

    def append(self, rows: np.ndarray) -> None:
        self.hist += np.bincount(rows, minlength=self.cardinality)
        self._parts.append(rows)

    def expected_rows(self, query_values: np.ndarray) -> np.ndarray:
        if len(self._parts) > 1:
            self._parts = [np.concatenate(self._parts)]
        return np.flatnonzero(np.isin(self._parts[0], query_values))


@dataclass
class Workload:
    """One workload: how to make its inputs, serve them, and drive them."""

    name: str
    rows: int
    cardinality: int
    distinct_queries: int
    #: Ops run untimed before the timed phase (mmap first touch, pool fill).
    warmup_ops: int
    #: Every ``append_every``-th op appends ``append_rows`` rows (0 = none).
    append_every: int = 0
    append_rows: int = 0

    # -- inputs --------------------------------------------------------

    def generate(self, seeds: Seeds) -> np.ndarray:
        return zipf_column(self.rows, self.cardinality, 1.0, seed=seeds.data)

    def queries(self, seeds: Seeds) -> list:
        return paper_mix(self.cardinality, self.distinct_queries, seed=seeds.queries % 2**31)

    def rewriter(self, spec: IndexSpec) -> QueryRewriter:
        return QueryRewriter(spec.cardinality, spec.resolved_bases(), get_scheme(spec.scheme))

    def op_stream(self, seeds: Seeds, values: np.ndarray):
        """Endless seeded op sequence; the warm-up takes its first ops."""
        i = 0
        while True:
            yield Op("query", query=i % self.distinct_queries)
            i += 1

    # -- serving -------------------------------------------------------

    def serve(self, values: np.ndarray, workdir: Path) -> Served:
        raise NotImplementedError

    def index_bytes(self, served: Served, values: np.ndarray) -> int:
        return served.index_bytes


def _build_save_load(values, spec, workdir: Path):
    """Build, save, then mapped load; each step timed by the benchmark."""
    t0 = time.perf_counter()
    built = BitmapIndex.build(values, spec)
    t1 = time.perf_counter()
    save_index(built, workdir)
    t2 = time.perf_counter()
    loaded = load_index(workdir, mapped=True)
    t3 = time.perf_counter()
    return loaded, t1 - t0, t2 - t1, t3 - t2


class PaperWarm(Workload):
    SPEC = IndexSpec(cardinality=50, scheme="I", num_components=1, codec="raw")

    def serve(self, values, workdir):
        loaded, build_s, save_s, load_s = _build_save_load(values, self.SPEC, workdir)
        service = QueryService(
            loaded,
            ServiceConfig(workers=1, cache_entries=0, engine="decoded", fused="auto"),
        )
        return Served(
            service=service,
            spec=self.SPEC,
            build_s=build_s,
            save_s=save_s,
            load_s=load_s,
            index_bytes=loaded.size_bytes(),
            pool_bytes=service.engine.pool.capacity_pages * loaded.store.page_size,
            cache_entries=0,
            mapped_index=loaded,
            workdir=workdir,
        )


class ClusteredCompressed(Workload):
    SPEC = IndexSpec(cardinality=200, scheme="E", num_components=1, codec="auto")

    def generate(self, seeds):
        return markov_column(
            self.rows, self.cardinality, clustering_factor=32.0, skew=0.0, seed=seeds.data
        )

    def serve(self, values, workdir):
        loaded, build_s, save_s, load_s = _build_save_load(values, self.SPEC, workdir)
        service = QueryService(
            loaded, ServiceConfig(workers=1, cache_entries=0, engine="compressed")
        )
        return Served(
            service=service,
            spec=self.SPEC,
            build_s=build_s,
            save_s=save_s,
            load_s=load_s,
            index_bytes=loaded.size_bytes(),
            pool_bytes=(loaded.size_pages() + 2) * loaded.store.page_size,
            cache_entries=0,
            mapped_index=loaded,
            workdir=workdir,
        )


class ShardedAppends(Workload):
    SPEC = IndexSpec(
        cardinality=200, scheme="I", num_components=1, codec="wah", reorder="lexicographic"
    )
    CONFIG = ShardedConfig(shards=2, transport="inline", workers=1)

    def op_stream(self, seeds, values):
        """Zipf(1) query popularity over the pool; every
        ``append_every``-th op appends fresh rows drawn from the
        column's own value distribution.

        Popularity rank ``r`` is pool query ``r``.  ``paper_mix``
        interleaves its 8 query shapes, so every seed gives each rank the
        same shape; a random rank order would let the seed decide whether
        the query taking 15% of the traffic is a 1- or a 5-interval
        query, and the median would follow that draw.
        """
        rng = np.random.default_rng(seeds.ops)
        ranks = np.arange(1, self.distinct_queries + 1, dtype=np.float64)
        popularity = 1.0 / ranks
        popularity /= popularity.sum()
        i = 0
        while True:
            i += 1
            if self.append_every and i % self.append_every == 0:
                yield Op("append", rows=values[rng.integers(0, values.size, self.append_rows)])
            else:
                yield Op("query", query=int(rng.choice(self.distinct_queries, p=popularity)))

    def serve(self, values, workdir):
        service = ShardedQueryService(values, self.SPEC, self.CONFIG)
        return Served(
            service=service,
            spec=self.SPEC,
            cache_entries=self.CONFIG.cache_entries,
        )

    def index_bytes(self, served, values) -> int:
        """The sharded tier exposes no size, so rebuild the same layout
        (contiguous row-range shards of ``segment_size``-row segments)
        through the public segmented index and measure that."""
        chunk = -(-values.size // self.CONFIG.shards)
        return sum(
            SegmentedBitmapIndex.build(
                values[i * chunk : (i + 1) * chunk], self.SPEC, self.CONFIG.segment_size
            ).size_bytes()
            for i in range(self.CONFIG.shards)
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        PaperWarm(
            name="paper_warm",
            rows=4_000_000,
            cardinality=50,
            distinct_queries=4096,
            warmup_ops=256,
        ),
        ClusteredCompressed(
            name="clustered_compressed",
            rows=150_000,
            cardinality=200,
            distinct_queries=2048,
            warmup_ops=64,
        ),
        ShardedAppends(
            name="sharded_appends",
            rows=500_000,
            cardinality=200,
            distinct_queries=512,
            warmup_ops=64,
            append_every=10,
            append_rows=2_000,
        ),
    )
}
