"""Ablation: compressed-domain evaluation vs decompress-then-operate.

The paper's Figure 9 crossover exists because compressed indexes pay a
decompression charge per query.  The compressed convention of
``QueryEngine`` (``engine="compressed"``, an extension) removes that
charge; this bench measures both conventions on the same EWAH index
across skews — simulated cost and wall clock.
"""

import pytest

from benchmarks.conftest import record_table
from repro.analysis.report import render_table
from repro.index import BitmapIndex, IndexSpec, QueryEngine
from repro.queries import QuerySetSpec, generate_query_set
from repro.storage import CostClock
from repro.workload import zipf_column

NUM_RECORDS = 30_000


def build(skew: float) -> tuple[BitmapIndex, list]:
    values = zipf_column(NUM_RECORDS, 50, skew, seed=0)
    index = BitmapIndex.build(
        values, IndexSpec(cardinality=50, scheme="E", codec="ewah")
    )
    queries = generate_query_set(QuerySetSpec(2, 1), 50, num_queries=10, seed=0)
    return index, queries


def engine_kind(compressed: bool) -> str:
    return "compressed" if compressed else "decoded"


def simulated_cost(index, queries, compressed: bool) -> tuple[float, float]:
    clock = CostClock()
    engine = QueryEngine(index, clock=clock, engine=engine_kind(compressed))
    for query in queries:
        engine.pool.clear()
        engine.execute(query)
    return clock.cpu_ms, clock.total_ms


def test_compressed_domain_ablation(benchmark):
    def build_rows():
        rows = []
        for skew in (0.0, 1.0, 2.0, 3.0):
            index, queries = build(skew)
            std_cpu, std_total = simulated_cost(index, queries, compressed=False)
            cmp_cpu, cmp_total = simulated_cost(index, queries, compressed=True)
            rows.append(
                [f"z={skew:g}", std_cpu, cmp_cpu, std_total, cmp_total]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    record_table(
        "compressed-ops-ablation",
        render_table(
            [
                "skew",
                "cpu ms (decode-then-op)",
                "cpu ms (compressed-domain)",
                "total ms (decode)",
                "total ms (compressed)",
            ],
            rows,
            title=(
                "Compressed-domain EWAH evaluation vs decompress-then-"
                "operate (E<50>/ewah, 10 membership queries)"
            ),
        ),
    )
    # Compressed-domain CPU is never worse, and at low skew (where the
    # standard engine decodes near-incompressible payloads in full) it
    # wins by multiples.
    for row in rows:
        assert row[2] <= row[1] * 1.05, row
    assert rows[0][2] < rows[0][1] / 2


@pytest.mark.parametrize("compressed", [False, True], ids=["decode", "comp-dom"])
def test_engine_wall_clock(benchmark, compressed):
    index, queries = build(2.0)

    def run():
        engine = QueryEngine(index, engine=engine_kind(compressed))
        total = 0
        for query in queries:
            total += engine.execute(query).row_count
        return total

    benchmark(run)
