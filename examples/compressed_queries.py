"""Compressed-domain query evaluation (extension beyond the paper).

The paper's Figure 9 shows compressed indexes losing to uncompressed
ones at low skew because every query pays a decompression charge.
``QueryEngine(index, engine="compressed")`` keeps the encoded payloads
in its pool and charges each operator node the bytes its operands
occupy, so the charge shrinks with the compression ratio; a leaf is
read from its decoded copy or streamed straight from its payload.
This example queries the same EWAH index the paper's way
(decompress-then-operate) and the compressed-domain way, and prints
the cost model's verdict per skew level.

Run:  python examples/compressed_queries.py
"""

from __future__ import annotations

from repro import BitmapIndex, IndexSpec, MembershipQuery
from repro.index import QueryEngine
from repro.storage import CostClock
from repro.workload import zipf_column

NUM_ROWS = 150_000
QUERY = MembershipQuery.of({3, 4, 5, 17, 30, 31, 32, 44}, 50)


def run_once(index: BitmapIndex, compressed_domain: bool) -> CostClock:
    clock = CostClock()
    engine = QueryEngine(
        index, clock=clock, engine="compressed" if compressed_domain else "decoded"
    )
    result = engine.execute(QUERY)
    # Both engines must agree exactly.
    assert result.row_count == engine2_expected[id(index)]
    return clock


engine2_expected: dict[int, int] = {}


def main() -> None:
    print(f"Query: {QUERY}")
    print(
        f"{'z':>3s} {'index KB':>9s} "
        f"{'decode cpu ms':>14s} {'comp-dom cpu ms':>16s} {'speedup':>8s}"
    )
    for skew in (0.0, 1.0, 2.0, 3.0):
        values = zipf_column(NUM_ROWS, 50, skew, seed=1)
        index = BitmapIndex.build(
            values, IndexSpec(cardinality=50, scheme="E", codec="ewah")
        )
        engine2_expected[id(index)] = int(QUERY.matches(values).sum())

        standard = run_once(index, compressed_domain=False)
        compressed = run_once(index, compressed_domain=True)
        speedup = standard.cpu_ms / max(compressed.cpu_ms, 1e-9)
        print(
            f"{skew:3.0f} {index.size_bytes() / 1024:9.1f} "
            f"{standard.cpu_ms:14.3f} {compressed.cpu_ms:16.3f} "
            f"{speedup:7.1f}x"
        )
    print(
        "\nReading: the compressed convention charges no decompression "
        "for its operands, so the CPU charge that drives the paper's "
        "Figure 9 crossover largely disappears."
    )


if __name__ == "__main__":
    main()
