#!/usr/bin/env python
"""Benchmark-regression driver: codec kernels, encoded AND/OR, one e2e run.

Times encode/decode for every codec, AND/OR over encoded payloads (the
range walk over two block streams), the decoded expression evaluator
against inline numpy, and one end-to-end figure regeneration, then
writes ``BENCH_PR10.json`` at the repo root.
Prior recorded numbers are merged in under prefixed names — ``seed:``
for the pre-vectorization baseline (``benchmarks/results/
seed_baseline.json``) and ``pr<n>:`` for every recorded
``BENCH_PR<n>.json`` except the one being written — so a single file
shows current medians next to every baseline.

Schema: ``{bench_name: {"median_s": float, "iqr_s": float, "n": int,
"iterations": int, "machine": {...}, "params": {...}}}`` — every
wall-clock entry carries its sample count ``n``, the interquartile
range of its samples and the machine fingerprint ``perfbench`` prints —
plus two special entries: ``obs_export`` holds the
full :mod:`repro.obs` export of an instrumented end-to-end figure run
(the per-figure span tree and ``clock.*``/``buffer.*`` counters), and
``serving_shared_scan`` holds the counted-pages serving comparison from
:mod:`benchmarks.bench_serving`, so the uploaded artifact doubles as an
observability sample.  ``serving_sharded_scaling`` records the sharded
tier's 1-shard vs 4-shard closed-loop throughput and a naive-scan
differential.  ``rewrite_cost`` (report-only, in every mode) records the
microseconds per ``rewrite_membership`` call on one-component E/C=200
and I/C=50 rewriters over a seeded ``paper_mix``.

Gates that can fail the run (exit 1):

* the serving layer's shared-scan batching reading as many or more
  buffer-pool pages per query than serial execution at concurrency 8
  (or its result cache reading pages on a repeated mix / surviving an
  append) — counted pages, deterministic, so this gate runs in
  ``--quick`` mode too;
* the sharded tier returning any answer that differs from a naive
  column scan (always enforced), or 4 shards failing to reach a 2.5x
  closed-loop speedup over 1 shard — the scaling half enforces only on
  runners with at least 4 CPUs (``gate_enforced`` in the recorded
  entry says which mode applied);

* the 1-of-16 threshold plan disagreeing with the expanded OR-chain
  bit-for-bit, or failing to operate strictly fewer words than the
  chain's pairwise fold under the compressed convention — one counting
  pass over the N payloads is the point of the threshold algebra
  (counted words, deterministic, so this gate runs in ``--quick`` mode
  too);
* the compressed convention's stream path (``compressed_stream_path``:
  a pool holding the leaves' payloads but no decoded copy) answering
  differently from a naive scan; its wall-clock time is report-only;
* a ``reorder="lexicographic"`` build failing to come out strictly
  smaller than the unordered build for WAH/EWAH/BBC at any measured
  Zipf skew z >= 1, or any reordered query answer differing from the
  unordered build after permutation mapping — shrinking every
  word-aligned codec with bit-identical answers is the point of the
  row-reordering pass (sizes and answers are deterministic, so this
  gate runs in ``--quick`` mode too; the ``reorder_skew_benefit``
  entry carries the full skew-vs-benefit curve per codec);
* roaring's AND slower than WAH's at the measured configuration, both
  timed on the path the engine runs: :func:`repro.expr.evaluate` of
  ``And(Leaf 0, Leaf 1)`` over two freshly opened block streams
  (``"path": "stream"`` in the entries' params).  A roaring stream
  gathers only the containers a word window overlaps, so losing to a
  word-aligned run-length codec's run rematerialization is a
  regression (enforced in every mode, ``--quick`` included);
* the decoded evaluator (:func:`repro.expr.evaluate`) slower on the
  six-leaf, five-NOT tree than the same expression written inline as
  whole-vector numpy ops, or allocating any full-length intermediate
  (``expr.intermediate_allocs`` must read 0 — counted via
  :mod:`repro.obs`, so the allocation half of the gate is deterministic
  and runs in ``--quick`` mode too; the timing half is full-mode only);
* installing a :class:`repro.obs.Observability` instance slows the
  codec kernel workload by more than 5% — the instrumentation must
  stay effectively free.  (The overhead is measured in ``--quick``
  mode too but only reported there: one-iteration timings are too
  noisy to gate on.)
* ``Codec.encode_many`` of a 4,096-row segment's 100 WAH bitmaps
  slower than :func:`reference_wah_encode`, a separate per-vector WAH
  encoder, looped over them.  (A loop over ``Codec.encode`` would not
  do: WAH's ``encode`` is the batched path's one-row case.)  The
  ``segment_append`` entry also
  records one 2,000-row append onto a 2,096-row tail and one four-way
  merge of 4,096-row segments; the gate reports only in ``--quick``;
* a membership query over a sorted WAH segment (4,096 and 262,144
  rows) answered in value space — leaves probed at one row per value,
  the answer rebuilt from the codes — differing from decoding every
  leaf, evaluating over rows and restoring (enforced in every mode),
  or, in full mode, being slower than it (``segment_probe``);
* the ``auto`` meta-codec losing its reason to exist on the Markov
  (density x clustering) grid: in any cell ``auto`` coming out more
  than 5% larger than the best fixed codec, any fixed codec beating
  ``auto``'s summed total across the grid, or fewer than 3 distinct
  fixed codecs winning cells (if one codec won everywhere, per-bitmap
  selection would be pointless).  Sizes are deterministic but the
  grid shrinks with ``--quick``, so the gate enforces in full mode
  and reports only in ``--quick``.

Usage::

    PYTHONPATH=src python benchmarks/bench_regression.py
    PYTHONPATH=src python benchmarks/bench_regression.py --quick
    PYTHONPATH=src python benchmarks/bench_regression.py --workers 4

``--quick`` shrinks the bit-vector size and the e2e record count so CI
can smoke the driver in seconds; quick numbers are not comparable to
the recorded baselines and are therefore not written unless an
``--output`` is named explicitly.  A gate that only reports (in
``--quick`` mode, or on too few CPUs) says so in its entry:
``gate_enforced`` is false and ``gate_skip_reason`` names why.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import numpy as np

from repro import obs
from repro.bitmap import BitVector
from repro.compress import available_codecs, get_codec, open_stream
from repro.expr import And, Leaf, Or, evaluate, leaf
from repro.experiments import ExperimentConfig, run_experiment

from benchmarks.bench_hardware import six_leaf_tree
from benchmarks.bench_serving import check_gates as serving_gates
from benchmarks.bench_serving import check_sharded_gates, run_serving_bench
from benchmarks.bench_serving import run_sharded_bench
from perfbench.run import fingerprint

SEED_BASELINE = Path(__file__).parent / "results" / "seed_baseline.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR10.json"

#: Maximum tolerated slowdown of the kernel workload with obs installed.
OBS_OVERHEAD_LIMIT_PCT = 5.0

#: Machine fingerprint recorded in every wall-clock entry.
MACHINE = {
    key: value
    for key, value in fingerprint(None).items()
    if key not in ("seed", "git_sha_missing_reason")
}


def sample_stats(samples: list[float]) -> dict:
    """Median, interquartile range and count of wall-clock samples."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median_s": statistics.median(samples),
        "iqr_s": q3 - q1,
        "n": len(samples),
        "machine": MACHINE,
    }


def timeit(fn, iterations: int) -> dict:
    """:func:`sample_stats` of ``iterations`` timed calls."""
    samples = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return sample_stats(samples)


def make_vector(n: int, density: float, seed: int) -> BitVector:
    rng = np.random.default_rng(seed)
    return BitVector.from_bools(rng.random(n) < density)


def run_benchmarks(
    n_bits: int, density: float, num_records: int, workers: int, iters: int
) -> dict[str, dict]:
    results: dict[str, dict] = {}
    codec_params = {"n_bits": n_bits, "density": density}
    vec = make_vector(n_bits, density, 0)
    vec2 = make_vector(n_bits, density, 1)

    payloads = {}
    # Every codec but raw, whose decode is a copy of its payload.
    for name in (name for name in available_codecs() if name != "raw"):
        codec = get_codec(name)
        payloads[name] = (codec.encode(vec), codec.encode(vec2))
        results[f"{name}_encode"] = {
            **timeit(lambda c=codec: c.encode(vec), iters),
            "iterations": iters,
            "params": codec_params,
        }
        payload = payloads[name][0]
        results[f"{name}_decode"] = {
            **timeit(
                lambda c=codec, p=payload: c.decode(p, n_bits), iters
            ),
            "iterations": iters,
            "params": codec_params,
        }

    # AND/OR on the path the engine runs: the range walk over two
    # freshly opened block streams.
    nodes = {"and": And((Leaf(0), Leaf(1))), "or": Or((Leaf(0), Leaf(1)))}

    def walk(name: str, op: str):
        streams = [open_stream(name, p, n_bits) for p in payloads[name]]
        return evaluate(nodes[op], streams.__getitem__, n_bits)

    for name, op in (
        ("wah", "and"),
        ("ewah", "and"),
        ("ewah", "or"),
        ("bbc", "and"),
        ("roaring", "and"),
        ("roaring", "or"),
    ):
        results[f"{name}_{op}"] = {
            **timeit(lambda name=name, op=op: walk(name, op), iters),
            "iterations": iters,
            "params": {**codec_params, "path": "stream"},
        }

    config = ExperimentConfig(num_records=num_records, workers=workers)
    results["figure6_e2e"] = {
        **timeit(lambda: run_experiment("figure6", config), 1),
        "iterations": 1,
        "params": {"num_records": num_records, "workers": workers},
    }

    # Separate instrumented run so the timing above stays comparable to
    # the recorded baselines; its export ships with the results.
    with obs.observed() as o:
        run_experiment("figure6", config)
    results["obs_export"] = o.export()

    results["obs_overhead"] = measure_obs_overhead(n_bits, density)

    # Appends: a tail rebuilt from its codes, and a four-way merge.
    results["segment_append"] = run_segment_append_bench(max(3, 5 * iters))

    # Queries on sorted segments: probe and rebuild vs decode and restore.
    results["segment_probe"] = run_segment_probe_bench(max(3, 5 * iters))

    # Per-query fixed cost: the rewrite of a membership query.
    results["rewrite_cost"] = run_rewrite_bench(num_queries=512, repeats=5)

    # Expression evaluation wants vectors spanning several word ranges,
    # so it gets its own size: 16x the codec size keeps whole-vector
    # temporaries out of L2 at the full configuration.
    results.update(run_expr_eval_bench(n_bits * 16, density, iters))

    # Serving layer: counted pages, deterministic at any size.
    results["serving_shared_scan"] = run_serving_bench(
        num_records=num_records, num_queries=min(200, 10 * num_records)
    )

    # Sharded tier: 1-shard vs 4-shard closed-loop throughput plus a
    # naive-scan differential (the scaling half of the gate enforces
    # itself only on runners with enough cores; the differential always
    # enforces).
    results["serving_sharded_scaling"] = run_sharded_bench(
        num_records=num_records,
        num_queries=min(200, 10 * num_records),
    )

    # Threshold algebra: k-of-N as one counting pass vs the expanded
    # OR-chain.  Counted words, deterministic at any size.
    results["threshold_vs_or_chain"] = run_threshold_bench(num_records)

    # The compressed convention's stream path (bounded pool), timed.
    results["compressed_stream_path"] = run_stream_path_bench(
        50 * num_records, max(3, 5 * iters)
    )

    # Row reordering: size and AND/OR throughput before/after the
    # build-time sort, per codec, over the Zipf skew sweep (the
    # skew-vs-benefit curve).  Sizes and answers are deterministic, so
    # the shrink + bit-identical gate runs in --quick mode too.
    results["reorder_skew_benefit"] = run_reorder_bench(num_records, iters)

    # Adaptive selection: auto vs every fixed codec over the Markov
    # (density x clustering) grid.  Sized like the evaluator bench so the
    # sparse cells still hold thousands of set bits.
    results["adaptive_codec_selection"] = run_adaptive_bench(n_bits * 16)
    return results


REORDER_CODECS = ("wah", "ewah", "bbc", "roaring")
#: Codecs the shrink gate enforces: the word-aligned run-length family,
#: where sorting must pay off at every z >= 1 (roaring is recorded but
#: not gated — its array containers are already order-insensitive at
#: low density).
REORDER_GATED_CODECS = ("wah", "ewah", "bbc")


def run_reorder_bench(
    num_records: int,
    iters: int,
    cardinality: int = 64,
    skews: tuple[float, ...] = (0.0, 1.0, 2.0),
) -> dict:
    """Index size and encoded AND/OR time, unordered vs reordered.

    For every codec and Zipf skew the same column is indexed twice —
    arrival order and `reorder="lexicographic"` — and the entry records
    both stored sizes, the shrink factor, median AND/OR wall time over
    the two largest equality bitmaps (``CompressedBitmap`` operators:
    the range walk over both payloads' block streams plus encoding the
    result with the codec), and whether
    a mixed query workload answered bit-identically after permutation
    mapping.  The skew axis is the Kaser/Lemire skew-vs-benefit curve.
    """
    from repro.compress import CompressedBitmap
    from repro.index import BitmapIndex, IndexSpec
    from repro.queries import IntervalQuery, MembershipQuery
    from repro.workload import zipf_column

    curves: dict[str, dict] = {}
    identical = True
    for codec in REORDER_CODECS:
        curve = []
        for skew in skews:
            values = zipf_column(num_records, cardinality, skew, seed=9)
            spec = IndexSpec(cardinality=cardinality, scheme="E", codec=codec)
            plain = BitmapIndex.build(values, spec)
            sorted_ = BitmapIndex.build(
                values,
                IndexSpec(
                    cardinality=cardinality,
                    scheme="E",
                    codec=codec,
                    reorder="lexicographic",
                ),
            )
            queries = [
                IntervalQuery(4, cardinality // 2, cardinality),
                MembershipQuery.of({1, 5, cardinality - 2}, cardinality),
            ]
            for query in queries:
                if plain.query(query).bitmap != sorted_.query(query).bitmap:
                    identical = False

            def op_time(index: BitmapIndex) -> dict[str, float]:
                # The two heaviest equality bitmaps: most frequent values.
                counts = np.bincount(values, minlength=cardinality)
                a, b = np.argsort(counts)[-2:]
                left = CompressedBitmap(
                    *index.store.get_payload((0, int(a))), codec
                )
                right = CompressedBitmap(
                    *index.store.get_payload((0, int(b))), codec
                )
                return {
                    "and_s": timeit(lambda: left & right, max(iters, 3))["median_s"],
                    "or_s": timeit(lambda: left | right, max(iters, 3))["median_s"],
                }

            curve.append(
                {
                    "skew": skew,
                    "unordered_bytes": plain.size_bytes(),
                    "reordered_bytes": sorted_.size_bytes(),
                    "shrink_factor": plain.size_bytes()
                    / max(1, sorted_.size_bytes()),
                    "unordered": op_time(plain),
                    "reordered": op_time(sorted_),
                }
            )
        curves[codec] = {"curve": curve}
    return {
        "params": {
            "num_records": num_records,
            "cardinality": cardinality,
            "scheme": "E",
            "skews": list(skews),
        },
        "bit_identical": identical,
        "codecs": curves,
    }


def check_reorder_gates(entry: dict) -> list[str]:
    """Failures of the reorder gate: shrink at z >= 1, identical answers.

    The reordered build must be strictly smaller than the unordered one
    for every word-aligned codec at every measured skew >= 1, and the
    query answers must match bit-for-bit after permutation mapping —
    a smaller index with different answers would be worse than useless.
    """
    failures = []
    if not entry["bit_identical"]:
        failures.append(
            "reordered index answered a query differently from the "
            "unordered build after permutation mapping"
        )
    for codec in REORDER_GATED_CODECS:
        for point in entry["codecs"][codec]["curve"]:
            if point["skew"] < 1.0:
                continue
            if point["reordered_bytes"] >= point["unordered_bytes"]:
                failures.append(
                    f"reordered {codec} index is not smaller at "
                    f"z={point['skew']:g}: {point['reordered_bytes']} vs "
                    f"{point['unordered_bytes']} bytes unordered"
                )
    return failures


ADAPTIVE_DENSITIES = (0.0001, 0.001, 0.01, 0.1, 0.5)
ADAPTIVE_CLUSTERINGS = (1.0, 8.0, 64.0)
#: Per-cell slack for ``auto`` over the best fixed codec (the one-byte
#: dispatch tag plus selection misses on borderline shapes).
ADAPTIVE_SLACK = 1.05
#: Cells whose best fixed payload is smaller than this are excluded from
#: the per-cell ratio gate — a one-byte tag on a 10-byte payload is 10%
#: by arithmetic, not by regression.
ADAPTIVE_MIN_GATED_BYTES = 20
ADAPTIVE_MIN_DISTINCT_WINNERS = 3


def run_adaptive_bench(n_bits: int) -> dict:
    """``auto`` vs every fixed codec over the Markov (d, f) grid.

    Each cell draws one clustered bitmap, records every concrete
    codec's encoded size plus ``auto``'s actual payload (tag byte
    included), and names the winner.  Everything is a deterministic
    function of the seed, so re-runs are exactly reproducible; the
    encode wall time for the full ``auto`` pass rides along for the
    record but is not gated.
    """
    from repro.workload import markov_bitmap

    fixed = [name for name in available_codecs() if name != "auto"]
    auto = get_codec("auto")
    cells = []
    totals = dict.fromkeys(fixed, 0)
    auto_total = 0
    t0 = time.perf_counter()
    for density in ADAPTIVE_DENSITIES:
        for clustering in ADAPTIVE_CLUSTERINGS:
            if density < 1.0 and clustering < density / (1.0 - density):
                continue
            vector = markov_bitmap(n_bits, density, clustering, seed=7)
            sizes = {
                name: get_codec(name).encoded_size(vector) for name in fixed
            }
            auto_bytes = len(auto.encode(vector))
            winner = min(sorted(sizes), key=sizes.get)
            for name in fixed:
                totals[name] += sizes[name]
            auto_total += auto_bytes
            cells.append(
                {
                    "density": density,
                    "clustering": clustering,
                    "sizes": sizes,
                    "auto_bytes": auto_bytes,
                    "winner": winner,
                    "winner_bytes": sizes[winner],
                }
            )
    return {
        "params": {
            "n_bits": n_bits,
            "densities": list(ADAPTIVE_DENSITIES),
            "clusterings": list(ADAPTIVE_CLUSTERINGS),
            "seed": 7,
        },
        "encode_wall_s": time.perf_counter() - t0,
        "cells": cells,
        "fixed_totals": totals,
        "auto_total": auto_total,
        "distinct_winners": sorted({cell["winner"] for cell in cells}),
    }


def check_adaptive_gates(entry: dict) -> list[str]:
    """Failures of the adaptive gate: per-cell ratio, totals, diversity.

    ``auto`` must stay within :data:`ADAPTIVE_SLACK` of the best fixed
    codec in every (gated) cell, beat every fixed codec's summed total
    across the grid, and the grid must crown at least
    :data:`ADAPTIVE_MIN_DISTINCT_WINNERS` distinct fixed codecs —
    otherwise per-bitmap selection adds a dispatch byte for nothing.
    """
    failures = []
    for cell in entry["cells"]:
        best = cell["winner_bytes"]
        if best < ADAPTIVE_MIN_GATED_BYTES:
            continue
        if cell["auto_bytes"] > ADAPTIVE_SLACK * best:
            failures.append(
                f"auto payload {cell['auto_bytes']} B exceeds "
                f"{ADAPTIVE_SLACK:.2f}x the best fixed codec "
                f"({cell['winner']}, {best} B) at d={cell['density']:g}, "
                f"f={cell['clustering']:g}"
            )
    for name, total in entry["fixed_totals"].items():
        if entry["auto_total"] >= total:
            failures.append(
                f"auto grid total {entry['auto_total']} B does not beat "
                f"fixed codec {name} ({total} B)"
            )
    if len(entry["distinct_winners"]) < ADAPTIVE_MIN_DISTINCT_WINNERS:
        failures.append(
            f"only {entry['distinct_winners']} win grid cells; adaptive "
            f"selection needs at least {ADAPTIVE_MIN_DISTINCT_WINNERS} "
            f"distinct winners to pay for itself"
        )
    return failures


def run_threshold_bench(num_records: int, fanin: int = 16) -> dict:
    """1-of-N threshold vs the equivalent pairwise OR-chain, in words.

    Both plans evaluate the same N = 16 equality bitmaps under the
    compressed convention (``QueryEngine(engine="compressed")``).  The
    chain folds them through binary ORs, charged for every intermediate
    it operates on; the threshold plan counts all N leaves in one node,
    charged their encoded bytes once, so its ``words_operated`` must be
    strictly lower and the answers must be bit-identical.  Counted via
    :class:`~repro.storage.CostClock`, so the gate is deterministic and
    runs in ``--quick`` mode too.
    """
    from functools import reduce

    from repro.expr import EvalStats, Threshold, compile_query
    from repro.index import BitmapIndex, IndexSpec, QueryEngine
    from repro.queries import IntervalQuery
    from repro.storage import CostClock
    from repro.workload import zipf_column

    cardinality = fanin + 4
    values = zipf_column(num_records, cardinality, 1.2, seed=8)
    index = BitmapIndex.build(
        values, IndexSpec(cardinality=cardinality, scheme="E", codec="bbc")
    )
    leaves = [
        index.rewriter.rewrite_interval(IntervalQuery(v, v, cardinality))
        for v in range(fanin)
    ]
    clock = CostClock()
    engine = QueryEngine(index, clock=clock, engine="compressed")

    def run(expr):
        start = clock.words_operated
        bitmap = engine.evaluate_shared(compile_query([expr]), {}, EvalStats())
        return bitmap, clock.words_operated - start

    chain_bitmap, chain_words = run(reduce(lambda a, b: a | b, leaves))
    threshold_bitmap, threshold_words = run(Threshold(1, tuple(leaves)))
    return {
        "params": {
            "num_records": num_records,
            "fanin": fanin,
            "cardinality": cardinality,
            "codec": "bbc",
            "scheme": "E",
        },
        "or_chain_words_operated": chain_words,
        "threshold_words_operated": threshold_words,
        "words_saved_pct": (1.0 - threshold_words / chain_words) * 100.0,
        "bit_identical": bool(chain_bitmap == threshold_bitmap),
    }


#: Codecs of the stream-path entry.
STREAM_PATH_CODECS = ("wah", "auto")


def run_stream_path_bench(rows: int, repeats: int) -> dict:
    """The compressed convention's stream path, in wall-clock.

    An E/C=200 index over a clustered Markov column (the
    ``clustered_compressed`` workload's data), per codec, served by
    ``QueryEngine(engine="compressed")`` under a pool of exactly the
    queries' encoded pages: every leaf stays resident as its cached
    block stream and no decoded copy fits.  A sample runs a 12-leaf
    range query (one OR node) and a 2-of-3 threshold over three ranges
    once each.  Answers must equal a naive scan (enforced in every
    mode); the timing is report-only.
    """
    from repro.index import BitmapIndex, IndexSpec, QueryEngine
    from repro.queries import IntervalQuery, ThresholdQuery
    from repro.workload import markov_column

    cardinality = 200
    column = markov_column(rows, cardinality, clustering_factor=32.0, seed=5)
    queries = [
        IntervalQuery(10, 21, cardinality),
        ThresholdQuery(
            2,
            tuple(IntervalQuery(lo, lo + 11, cardinality) for lo in (10, 15, 18)),
        ),
    ]
    cells, answers_equal, paths = {}, True, {}
    for codec in STREAM_PATH_CODECS:
        index = BitmapIndex.build(
            column, IndexSpec(cardinality=cardinality, scheme="E", codec=codec)
        )
        keys = set().union(*(index.rewriter.rewrite(q).leaf_keys() for q in queries))
        engine = QueryEngine(
            index,
            buffer_pages=sum(index.store.info(key).pages for key in keys),
            engine="compressed",
        )
        for query in queries:  # the first pass reads every payload
            answer = engine.execute(query).bitmap
            answers_equal &= answer == BitVector.from_bools(query.matches(column))
        with obs.observed() as o:
            for query in queries:
                engine.execute(query)
        for path, counter in o.metrics.to_dict().get("compress.physical", {}).items():
            paths[path] = paths.get(path, 0) + int(counter["value"])
        cells[codec] = timeit(lambda: [engine.execute(q) for q in queries], repeats)
    return {
        **cells[STREAM_PATH_CODECS[0]],
        "iterations": repeats,
        "cells": cells,
        "answers_equal": answers_equal,
        "leaf_sources": paths,
        "params": {
            "rows": rows,
            "spec": f"E/C={cardinality}",
            "data": "markov_column, clustering 32, seed 5",
            "queries": [str(q) for q in queries],
        },
        "gate_enforced": False,
        "gate_skip_reason": "report-only: times the stream path; no bound is "
        "set for it (answers still gate)",
    }


def run_expr_eval_bench(n_bits: int, density: float, iters: int) -> dict[str, dict]:
    """The decoded evaluator vs inline whole-vector numpy on one tree.

    The tree is the calibration grid's six-leaf, five-NOT tree
    (:func:`benchmarks.bench_hardware.six_leaf_tree`), over vectors well
    past one 256 KiB word range.  The inline version is the same
    expression as whole-vector numpy ops: one full-length temporary per
    node, the traffic :func:`~repro.expr.evaluate` avoids by walking
    range by range.  The ``expr.intermediate_allocs`` obs count rides
    along in the ``expr_eval`` entry for the zero-allocation gate.
    """
    rng = np.random.default_rng(4)
    bitmaps = {
        key: BitVector.from_bools(rng.random(n_bits) < density)
        for key in "abcdef"
    }
    expr = six_leaf_tree(*(leaf(key) for key in "abcdef"))
    a, b, c, d, e, f = (bitmaps[key].words for key in "abcdef")
    tail = np.uint64((1 << n_bits % 64) - 1) if n_bits % 64 else None
    params = {"n_bits": n_bits, "density": density, "leaves": 6, "nots": 5}

    def evaluated():
        return evaluate(expr, bitmaps.get, n_bits)

    def inline():
        words = six_leaf_tree(a, b, c, d, e, f)
        if tail is not None:
            words[-1] &= tail
        return words

    if not np.array_equal(evaluated().words, inline()):
        raise AssertionError("evaluate and inline numpy disagree")
    with obs.observed() as o:
        evaluated()
    allocs = o.metrics.find("expr.intermediate_allocs")
    return {
        "expr_eval": {
            **timeit(evaluated, iters),
            "iterations": iters,
            "params": params,
            "intermediate_allocs": -1 if allocs is None else int(allocs.value),
        },
        "numpy_inline_eval": {
            **timeit(inline, iters),
            "iterations": iters,
            "params": params,
        },
    }


#: Layouts the rewrite-cost entry times: (scheme, cardinality), one component.
REWRITE_LAYOUTS = (("E", 200), ("I", 50))


def run_rewrite_bench(num_queries: int, repeats: int) -> dict:
    """Microseconds per ``rewrite_membership`` call over a seeded paper mix.

    Each layout's rewriter rewrites the same ``paper_mix`` queries
    ``repeats`` times; a sample is one pass over both layouts' mixes,
    divided by the number of calls.  The per-layout medians ride along
    in ``us_per_query``.  Report-only: it tracks the per-query fixed cost
    beside the kernel timings, and no bound has been set for it.
    """
    from repro.encoding import get_scheme
    from repro.index.rewrite import QueryRewriter
    from repro.serve.driver import paper_mix

    mixes = {
        f"{scheme}/C={cardinality}": (
            QueryRewriter(cardinality, (cardinality,), get_scheme(scheme)),
            paper_mix(cardinality, num_queries, seed=11),
        )
        for scheme, cardinality in REWRITE_LAYOUTS
    }
    per_layout: dict[str, list[float]] = {name: [] for name in mixes}
    samples = []
    for _ in range(repeats):
        total = 0.0
        for name, (rewriter, queries) in mixes.items():
            t0 = time.perf_counter()
            for query in queries:
                rewriter.rewrite_membership(query)
            elapsed = time.perf_counter() - t0
            per_layout[name].append(elapsed / len(queries) * 1e6)
            total += elapsed
        samples.append(total / (len(mixes) * num_queries))
    return {
        **sample_stats(samples),
        "iterations": repeats,
        "us_per_query": {
            name: statistics.median(times) for name, times in per_layout.items()
        },
        "params": {
            "layouts": [f"{s}/C={c}" for s, c in REWRITE_LAYOUTS],
            "num_queries": num_queries,
            "mix": "paper_mix, seed 11",
        },
        "gate_enforced": False,
        "gate_skip_reason": "report-only: tracks the per-query rewrite cost; "
        "no bound is set for it",
    }


def measure_obs_overhead(n_bits: int, density: float, pairs: int = 15) -> dict:
    """Kernel workload timed with observability off vs. installed.

    The workload exercises the instrumented hot paths (codec encode and
    decode).  Off/on samples are *interleaved* so clock-frequency drift
    hits both sides equally, and the medians are compared.
    """
    codec = get_codec("wah")
    vec = make_vector(n_bits, density, 2)

    def workload():
        for _ in range(3):
            codec.decode(codec.encode(vec), n_bits)

    workload()  # warm-up
    baseline_samples = []
    installed_samples = []
    for _ in range(pairs):
        t0 = time.perf_counter()
        workload()
        baseline_samples.append(time.perf_counter() - t0)
        with obs.observed():
            t0 = time.perf_counter()
            workload()
            installed_samples.append(time.perf_counter() - t0)
    installed = sample_stats(installed_samples)
    baseline = sample_stats(baseline_samples)
    return {
        **installed,
        "baseline_s": baseline["median_s"],
        "baseline_iqr_s": baseline["iqr_s"],
        "overhead_pct": (installed["median_s"] / baseline["median_s"] - 1.0) * 100.0,
        "iterations": pairs,
        "params": {"n_bits": n_bits, "density": density, "codec": "wah"},
    }


#: The segment the append entry grows: an I/C=200 WAH lexicographic tail.
SEGMENT_APPEND_SPEC = dict(cardinality=200, scheme="I", codec="wah", reorder="lexicographic")


def reference_wah_encode(vector: BitVector) -> bytes:
    """A per-vector WAH encoder kept as the gate's yardstick: pack the
    bitmap's 31-bit groups, find their runs, then emit one run at a time
    (fills longer than the counter split into counter-sized words)."""
    from repro.compress import kernels, wah

    length = len(vector)
    groups = -(-length // wah._GROUP_BITS)
    if not groups:
        return b""
    bits = np.zeros(groups * wah._GROUP_BITS, dtype=bool)
    bits[:length] = vector.to_bools()
    cells = np.zeros((groups, 32), dtype=bool)
    cells[:, : wah._GROUP_BITS] = bits.reshape(groups, wah._GROUP_BITS)
    values = np.packbits(cells, axis=1, bitorder="little").view("<u4").ravel()
    runs = kernels.runs_from_elements(values, wah._LITERAL_MASK)
    words: list[int] = []
    taken = 0
    for kind, count in zip(runs.types.tolist(), runs.lengths.tolist()):
        if kind == kernels.DIRTY:
            words += runs.values[taken : taken + count].tolist()
            taken += count
        elif count == 1:
            words.append(wah._LITERAL_MASK if kind == kernels.FILL_ONE else 0)
        else:
            fill = wah._FILL_FLAG | (wah._FILL_VALUE_FLAG if kind == kernels.FILL_ONE else 0)
            while count > 0:
                words.append(fill | min(count, wah._MAX_FILL))
                count -= wah._MAX_FILL
    return np.asarray(words, dtype=np.uint32).tobytes()


def run_segment_append_bench(repeats: int) -> dict:
    """One 2,000-row append onto a 2,096-row tail, and one merge.

    The append rebuilds the 4,096-row tail from its codes (sort, batched
    build, batched encode); the merge is the four-way compaction of
    4,096-row segments that the last of four sealing appends triggers.
    The gate (full mode only) holds ``encode_many`` of a 4,096-row
    segment's 100 bitmaps to no slower than :func:`reference_wah_encode`
    looped over them, and both must emit the same payloads.
    """
    from repro.index import IndexSpec, SegmentedBitmapIndex
    from repro.workload import zipf_column

    spec = IndexSpec(**SEGMENT_APPEND_SPEC)
    column = zipf_column(4 * 4096 + 2000, 200, 1.0, seed=3)
    append_samples, merge_samples = [], []
    for _ in range(repeats):
        index = SegmentedBitmapIndex.build(column[:2096], spec, 4096)
        t0 = time.perf_counter()
        index.append(column[2096:4096])
        append_samples.append(time.perf_counter() - t0)
        grown = SegmentedBitmapIndex.build(column[: 3 * 4096], spec, 4096)
        report = grown.append(column[3 * 4096 : 4 * 4096])
        assert report.merges == 1
        merge_samples.append(report.compaction_ms / 1e3)

    codec = get_codec("wah")
    (segment,) = SegmentedBitmapIndex.build(column[:4096], spec, 4096).segments()
    vectors = [segment.store.get(key) for key in segment.store.keys()]
    assert codec.encode_many(vectors) == [reference_wah_encode(v) for v in vectors]
    batched = timeit(lambda: codec.encode_many(vectors), repeats)
    loop = timeit(lambda: [reference_wah_encode(v) for v in vectors], repeats)
    return {
        **sample_stats(append_samples),
        "iterations": repeats,
        "merge": sample_stats(merge_samples),
        "encode_many_s": batched["median_s"],
        "encode_reference_s": loop["median_s"],
        "params": {
            "spec": SEGMENT_APPEND_SPEC,
            "tail_rows": 2096,
            "append_rows": 2000,
            "merge": "4 x 4096-row segments",
            "encode_bitmaps": len(vectors),
        },
        "gate_enforced": True,
        "gate_skip_reason": None,
    }


#: Segment sizes of the probe entry: a tail-sized and a top-tier segment.
SEGMENT_PROBE_ROWS = (4096, 262144)


def run_segment_probe_bench(repeats: int) -> dict:
    """One membership query over a sorted WAH segment, both ways, cold.

    Value space (the engine's path for a sorted segment): one batched
    probe of every leaf at the segment's probe positions, evaluation
    over the per-value vectors, and the answer rebuilt from the codes.
    Row space: every leaf decoded, evaluated over all rows, and the
    answer restored from its bits at the probe positions.  Each sample
    starts from an empty pool, so it pays the probe or the decodes.
    The answers must be equal, and equal to a naive scan (enforced in
    every mode); in full mode the value-space path must also be no
    slower than row space at each size.
    """
    from dataclasses import replace

    from repro.index import BitmapIndex, IndexSpec
    from repro.expr import compile_query
    from repro.index.evaluation import component_order
    from repro.queries import MembershipQuery
    from repro.storage import BufferPool
    from repro.storage.buffer import DECODED
    from repro.workload import zipf_column

    spec = IndexSpec(**SEGMENT_APPEND_SPEC)
    query = MembershipQuery.of([3, 4, 5, 17, 18, 60, 61, 62, 150], spec.cardinality)
    cells, answers_equal = {}, True
    for rows in SEGMENT_PROBE_ROWS:
        column = zipf_column(rows, spec.cardinality, 1.0, seed=3)
        segment = BitmapIndex.build(column, spec)
        plan = compile_query(segment.rewriter.constituents(query))
        keys = component_order(plan.keys)

        def answer(by_value: bool) -> BitVector:
            policy = replace(DECODED, probe=segment.value_probe) if by_value else DECODED
            pool = BufferPool(segment.store, 1 << 30, policy=policy)
            cache = dict(zip(keys, pool.fetch_many(keys)))
            length = segment.value_probe()[0].size if by_value else rows
            bits = evaluate(plan, pool.fetch, length, None, cache)
            return segment.restore_row_order(bits, by_value=by_value)

        expected = BitVector.from_bools(query.matches(column))
        answers_equal &= answer(True) == answer(False) == expected
        samples = {True: [], False: []}
        for _ in range(repeats):
            for by_value in (True, False):
                t0 = time.perf_counter()
                answer(by_value)
                samples[by_value].append(time.perf_counter() - t0)
        cells[str(rows)] = {
            "probe": sample_stats(samples[True]),
            "decode": sample_stats(samples[False]),
            "leaves": len(keys),
        }
    return {
        **cells[str(SEGMENT_PROBE_ROWS[-1])]["probe"],
        "iterations": repeats,
        "cells": cells,
        "answers_equal": answers_equal,
        "params": {"spec": SEGMENT_APPEND_SPEC, "query": sorted(query.values)},
        "gate_enforced": True,
        "gate_skip_reason": None,
    }


#: Entries whose gate only reports under ``--quick``, and why.
QUICK_REPORT_ONLY = {
    "expr_eval": "report-only under --quick: one-iteration timings are "
    "too noisy to gate on (the allocation half still enforces)",
    "obs_overhead": "report-only under --quick: the shrunken kernel "
    "workload is too short to gate a 5% bound on",
    "segment_append": "report-only under --quick: three samples are too "
    "few to gate encode_many against the per-vector reference",
    "segment_probe": "report-only under --quick: three samples are too few "
    "to gate the value-space path against decoding (answers still gate)",
    "adaptive_codec_selection": "report-only under --quick: the shrunken "
    "grid is too small to gate on",
}


def mark_quick_gates(results: dict, quick: bool) -> None:
    """Record in each quick-only gate's entry whether it enforces."""
    for name, reason in QUICK_REPORT_ONLY.items():
        results[name]["gate_enforced"] = not quick
        results[name]["gate_skip_reason"] = reason if quick else None


def merge_baselines(results: dict[str, dict], skip: set) -> None:
    """Add the recorded baselines under prefixed names.

    The seed baseline merges as ``seed:``; every ``BENCH_PR<n>.json`` at
    the repo root merges as ``pr<n>:``, except the paths in ``skip``
    (this driver's own output file and the one this run writes).
    Already-prefixed entries and non-bench entries (``obs_export``) of a
    recorded file are skipped, so each baseline merges from its own file.
    Entries whose bench is gone (``fused_eval`` and ``materialized_eval``,
    replaced by ``expr_eval`` and ``numpy_inline_eval``) and entries
    recorded before the ``n``/``iqr_s``/``machine`` fields merge
    unchanged; no gate reads a prefixed entry.
    """
    skip = {path.resolve() for path in skip if path is not None}
    recorded = [(SEED_BASELINE, "seed")] + sorted(
        (
            (path, path.stem.lower().replace("bench_", ""))
            for path in REPO_ROOT.glob("BENCH_PR*.json")
            if path.resolve() not in skip
        ),
        key=lambda item: int(item[1][2:]),
    )
    for path, prefix in recorded:
        if not path.exists():
            continue
        baseline = json.loads(path.read_text())
        for bench_name, entry in baseline.items():
            if ":" not in bench_name and "median_s" in entry:
                results[f"{prefix}:{bench_name}"] = entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes for a CI smoke run (results not written unless "
        "--output is given)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the end-to-end experiment run (1 = serial)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_bits, num_records, iters = 100_000, 2_000, 1
    else:
        n_bits, num_records, iters = 1_000_000, 20_000, 3

    results = run_benchmarks(
        n_bits=n_bits,
        density=0.10,
        num_records=num_records,
        workers=args.workers,
        iters=iters,
    )
    mark_quick_gates(results, args.quick)
    output = args.output
    if output is None and not args.quick:
        output = DEFAULT_OUTPUT
    merge_baselines(results, skip={DEFAULT_OUTPUT, output})
    if output is not None:
        output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {output}", file=sys.stderr)

    timed = {
        name: entry for name, entry in results.items() if "median_s" in entry
    }
    width = max(len(name) for name in timed)
    for name in sorted(timed):
        print(f"{name:{width}s}  {timed[name]['median_s']:.6f}s")

    wah_new = results["wah_encode"]["median_s"] + results["wah_decode"]["median_s"]
    seed_enc = results.get("seed:wah_encode")
    seed_dec = results.get("seed:wah_decode")
    if seed_enc and seed_dec and not args.quick:
        wah_seed = seed_enc["median_s"] + seed_dec["median_s"]
        print(f"wah encode+decode speedup vs seed: {wah_seed / wah_new:.1f}x")

    serving = results["serving_shared_scan"]
    print(
        f"serving shared-scan pages/query: "
        f"{serving['batched_pages_per_query']:.2f} batched vs "
        f"{serving['serial_pages_per_query']:.2f} serial "
        f"({serving['pages_saved_pct']:.1f}% fewer)"
    )
    serving_failures = serving_gates(serving)
    for failure in serving_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if serving_failures:
        return 1

    sharded = results["serving_sharded_scaling"]
    qps = sharded["throughput_qps"]
    enforced = sharded["gate_skip_reason"] or "enforced"
    print(
        f"sharded scaling: {qps['1']:.0f} q/s at 1 shard -> "
        f"{qps[str(sharded['params']['shards'])]:.0f} q/s at "
        f"{sharded['params']['shards']} shards ({sharded['speedup']:.2f}x, "
        f"gate >={sharded['scaling_factor_required']:.1f}x {enforced})"
    )
    sharded_failures = check_sharded_gates(sharded)
    for failure in sharded_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if sharded_failures:
        return 1

    threshold = results["threshold_vs_or_chain"]
    print(
        f"threshold 1-of-{threshold['params']['fanin']} vs OR-chain: "
        f"{threshold['threshold_words_operated']} vs "
        f"{threshold['or_chain_words_operated']} words operated "
        f"({threshold['words_saved_pct']:.1f}% fewer)"
    )
    if not threshold["bit_identical"]:
        print(
            "FAIL: threshold plan and expanded OR-chain disagree bit-for-bit",
            file=sys.stderr,
        )
        return 1
    if threshold["threshold_words_operated"] >= threshold["or_chain_words_operated"]:
        print(
            f"FAIL: threshold plan operated "
            f"{threshold['threshold_words_operated']} words, not strictly "
            f"fewer than the OR-chain's "
            f"{threshold['or_chain_words_operated']}",
            file=sys.stderr,
        )
        return 1

    stream = results["compressed_stream_path"]
    for codec, cell in stream["cells"].items():
        print(
            f"compressed stream path ({codec}, {stream['params']['rows']} rows, "
            f"leaf sources {stream['leaf_sources']}): {cell['median_s'] * 1e3:.2f} ms"
        )
    if not stream["answers_equal"]:
        print("FAIL: the stream path's answers differ from a naive scan", file=sys.stderr)
        return 1

    reorder = results["reorder_skew_benefit"]
    for codec in REORDER_GATED_CODECS:
        points = [
            f"z={p['skew']:g}: {p['shrink_factor']:.1f}x"
            for p in reorder["codecs"][codec]["curve"]
        ]
        print(f"reorder shrink {codec}: {', '.join(points)}")
    reorder_failures = check_reorder_gates(reorder)
    for failure in reorder_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if reorder_failures:
        return 1

    roaring_and = results["roaring_and"]["median_s"]
    wah_and = results["wah_and"]["median_s"]
    print(f"roaring AND vs wah AND: {wah_and / roaring_and:.1f}x faster")
    if roaring_and > wah_and:
        print(
            f"FAIL: roaring AND ({roaring_and:.6f}s) is slower than "
            f"wah AND ({wah_and:.6f}s)",
            file=sys.stderr,
        )
        return 1

    evaluated = results["expr_eval"]
    inline = results["numpy_inline_eval"]
    print(
        f"evaluate vs inline numpy on the 6-leaf tree: "
        f"{inline['median_s'] / evaluated['median_s']:.2f}x faster, "
        f"{evaluated['intermediate_allocs']} full-length intermediate allocs"
    )
    if evaluated["gate_enforced"] and evaluated["median_s"] > inline["median_s"]:
        print(
            f"FAIL: evaluate ({evaluated['median_s']:.6f}s) is slower than "
            f"inline numpy ({inline['median_s']:.6f}s)",
            file=sys.stderr,
        )
        return 1
    if evaluated["intermediate_allocs"] != 0:
        print(
            f"FAIL: evaluate reported "
            f"{evaluated['intermediate_allocs']} full-length intermediate "
            f"allocations (expr.intermediate_allocs must be 0)",
            file=sys.stderr,
        )
        return 1

    adaptive = results["adaptive_codec_selection"]
    best_total = min(adaptive["fixed_totals"].values())
    print(
        f"adaptive selection: winners {adaptive['distinct_winners']} over "
        f"{len(adaptive['cells'])} cells; auto total "
        f"{adaptive['auto_total']} B vs best fixed total {best_total} B"
    )
    adaptive_failures = check_adaptive_gates(adaptive)
    for failure in adaptive_failures:
        level = "FAIL" if adaptive["gate_enforced"] else "WARN (quick, not gated)"
        print(f"{level}: {failure}", file=sys.stderr)
    if adaptive_failures and adaptive["gate_enforced"]:
        return 1

    append = results["segment_append"]
    print(
        f"segment append (2,000 rows onto a 2,096-row tail): "
        f"{append['median_s'] * 1e3:.2f} ms; four-way merge "
        f"{append['merge']['median_s'] * 1e3:.2f} ms; encode_many "
        f"{append['encode_many_s'] * 1e3:.3f} ms vs per-vector reference "
        f"{append['encode_reference_s'] * 1e3:.3f} ms"
    )
    if append["gate_enforced"] and append["encode_many_s"] > append["encode_reference_s"]:
        print(
            "FAIL: encode_many is slower than the per-vector WAH reference",
            file=sys.stderr,
        )
        return 1

    probe = results["segment_probe"]
    for rows, cell in probe["cells"].items():
        print(
            f"segment probe ({rows} sorted rows, {cell['leaves']} leaves): value space "
            f"{cell['probe']['median_s'] * 1e3:.3f} ms vs decode "
            f"{cell['decode']['median_s'] * 1e3:.3f} ms"
        )
    if not probe["answers_equal"]:
        print("FAIL: value-space and row-space answers differ", file=sys.stderr)
        return 1
    slower = [
        rows for rows, cell in probe["cells"].items()
        if cell["probe"]["median_s"] > cell["decode"]["median_s"]
    ]
    if slower and probe["gate_enforced"]:
        print(f"FAIL: the value-space path is slower at {slower} rows", file=sys.stderr)
        return 1

    rewrite = results["rewrite_cost"]
    per_layout = ", ".join(
        f"{name} {us:.1f} us" for name, us in rewrite["us_per_query"].items()
    )
    print(f"rewrite_membership per query (report-only): {per_layout}")

    overhead = results["obs_overhead"]
    print(
        f"obs instrumentation overhead on kernels: "
        f"{overhead['overhead_pct']:+.2f}% "
        f"({overhead['baseline_s']:.6f}s -> {overhead['median_s']:.6f}s)"
    )
    if overhead["gate_enforced"] and overhead["overhead_pct"] > OBS_OVERHEAD_LIMIT_PCT:
        print(
            f"FAIL: obs instrumentation overhead "
            f"{overhead['overhead_pct']:.2f}% exceeds the "
            f"{OBS_OVERHEAD_LIMIT_PCT:.0f}% gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
