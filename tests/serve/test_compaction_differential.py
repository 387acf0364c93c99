"""Compacted segment layouts answer exactly like a naive scan.

Registry-driven: every codec in :func:`~repro.compress.available_codecs`
x the E/R/I schemes, alternating ``reorder="lexicographic"`` with no
reordering across the grid so every codec and every scheme runs both
ways (the full product would double the suite time this file costs).
One :class:`~repro.serve.shard_worker.ShardEngine` starts one row
short of the largest tier, laid out directly, and grows by appends
sized at the tail segment size and at the tier sizes, each +/-1, so
appends seal, merge and cascade at every offset, up into the largest
tier, while the engine keeps serving across each merge (its
per-segment engines are swapped under it).  After every append, interval, membership and
threshold answers must equal the naive scan of the rows acked so far,
and by the end compaction must have run.
"""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import available_codecs
from repro.index import IndexSpec
from repro.index.segmented import FANOUT
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.shard_worker import ShardEngine

CARDINALITY = 12
SEGMENT_SIZE = 4
#: Rows in a segment of the largest tier.
CAP = SEGMENT_SIZE * FANOUT**3
#: The tail size and each tier size below the cap (4, 16, 64), +/-1.
#: The first batch already carries the column past the cap.
BATCHES = [
    SEGMENT_SIZE * FANOUT**k + delta for k in range(3) for delta in (-1, 0, 1)
]


def queries():
    return [
        IntervalQuery(2, 8, CARDINALITY),
        IntervalQuery(0, 0, CARDINALITY),
        MembershipQuery.of({1, 6, CARDINALITY - 1}, CARDINALITY),
        ThresholdQuery.of(
            2,
            [
                IntervalQuery(0, 5, CARDINALITY),
                IntervalQuery(3, 9, CARDINALITY),
                MembershipQuery.of({4, 7, 10}, CARDINALITY),
            ],
        ),
    ]


CODECS = sorted(available_codecs())
SCHEMES = ["E", "R", "I"]
GRID = [
    (codec, scheme, ("none", "lexicographic")[(i + j) % 2])
    for i, codec in enumerate(CODECS)
    for j, scheme in enumerate(SCHEMES)
]


@pytest.mark.parametrize("codec,scheme,reorder", GRID)
def test_compacted_layouts_match_naive_scan(rng, codec, scheme, reorder):
    spec = IndexSpec(
        cardinality=CARDINALITY, scheme=scheme, codec=codec, reorder=reorder
    )
    column = rng.integers(0, CARDINALITY, size=CAP - 1)
    engine = ShardEngine(
        column,
        spec,
        engine="decoded" if codec == "raw" else "compressed",
        buffer_pages=8,
        segment_size=SEGMENT_SIZE,
    )
    merges = 0
    for size in BATCHES:
        batch = rng.integers(0, CARDINALITY, size=size)
        merges += engine.append(batch)["merges"]
        column = np.concatenate([column, batch])
        for query, answer in zip(queries(), engine.evaluate_batch(queries())):
            expected = BitVector.from_bools(query.matches(column))
            assert answer.bitmap == expected, (size, query)
    assert merges > 0
    assert engine.index.num_segments < -(-column.size // SEGMENT_SIZE)
    assert max(s.num_records for s in engine.index.segments()) == CAP
