#!/usr/bin/env python
"""Serving-layer benchmark: shared-scan batching vs. serial execution.

Replays the paper's default serving workload — a Zipf(z=1) column at
cardinality 200 with a 1000-query membership mix — through
:class:`repro.serve.QueryService` twice, with identical buffer pools
and the result cache disabled:

* **serial**: ``max_batch=1`` — every query is its own scan (the
  pre-serving behavior);
* **batched**: queries submitted in waves of ``--concurrency`` and
  planned into shared scans (``execute_many``, the deterministic path,
  so the comparison is exact counted pages, not thread-timing noise).

The headline number is buffer-pool **pages read per query**; the gate
(exit 1) requires batched < serial at concurrency >= 8 — the whole
point of the serving layer's shared scans.  A second section
demonstrates the result cache: a repeated mix must be served with zero
bitmap reads until an append invalidates it.

A threaded closed-loop run (the real worker-pool path) is also timed
for throughput/latency reporting; it is not gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --quick
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.index import BitmapIndex, IndexSpec
from repro.serve import (
    QueryService,
    ServiceConfig,
    ShardedConfig,
    ShardedQueryService,
    paper_mix,
    run_closed_loop,
)
from repro.workload import zipf_column

#: Paper default workload (PAPER.md Section 7): C=200, Zipf z=1.
CARDINALITY = 200
SKEW = 1.0

#: Near-linear-scaling gate: sharded throughput at SCALING_SHARDS shards
#: must be at least this multiple of the 1-shard throughput.  Enforced
#: only on runners with enough cores to make the claim physically
#: meaningful (shards evaluate in separate processes; a 1-core container
#: cannot scale no matter how good the routing is).
SCALING_SHARDS = 4
SCALING_FACTOR = 2.5
SCALING_MIN_CPUS = 4


def build_index(
    num_records: int, scheme: str, codec: str, seed: int
) -> tuple[BitmapIndex, np.ndarray]:
    values = zipf_column(num_records, CARDINALITY, SKEW, seed=seed)
    spec = IndexSpec(cardinality=CARDINALITY, scheme=scheme, codec=codec)
    return BitmapIndex.build(values, spec), values


def pages_per_query(
    index: BitmapIndex,
    queries: list,
    wave: int,
    buffer_pages: int,
    engine: str,
) -> tuple[float, int]:
    """Counted pages/query executing ``queries`` in waves of ``wave``."""
    config = ServiceConfig(
        workers=1,
        max_batch=max(1, wave),
        buffer_pages=buffer_pages,
        cache_entries=0,  # isolate batching from caching
        engine=engine,
    )
    service = QueryService(index, config)
    try:
        for start in range(0, len(queries), max(1, wave)):
            service.execute_many(queries[start : start + max(1, wave)])
        pages = service.clock.pages_read
    finally:
        service.close()
    return pages / len(queries), pages


def run_serving_bench(
    num_records: int = 20_000,
    num_queries: int = 1000,
    concurrency: int = 8,
    buffer_pages: int = 16,
    scheme: str = "E",
    codec: str = "raw",
    engine: str = "decoded",
    seed: int = 0,
) -> dict:
    """The full serving comparison; returns a JSON-ready result dict."""
    index, _ = build_index(num_records, scheme, codec, seed)
    queries = paper_mix(CARDINALITY, num_queries, seed=seed)
    params = {
        "num_records": num_records,
        "num_queries": num_queries,
        "cardinality": CARDINALITY,
        "skew": SKEW,
        "concurrency": concurrency,
        "buffer_pages": buffer_pages,
        "scheme": scheme,
        "codec": codec,
        "engine": engine,
    }

    serial_ppq, serial_pages = pages_per_query(
        index, queries, 1, buffer_pages, engine
    )
    batched_ppq, batched_pages = pages_per_query(
        index, queries, concurrency, buffer_pages, engine
    )

    # Result cache: a repeated mix is free until an append invalidates.
    config = ServiceConfig(
        workers=1,
        max_batch=concurrency,
        buffer_pages=buffer_pages,
        cache_entries=num_queries + 1,
        engine=engine,
    )
    service = QueryService(index, config)
    try:
        service.execute_many(queries)
        pages_first = service.clock.pages_read
        service.execute_many(queries)
        pages_repeat = service.clock.pages_read - pages_first
        service.append(np.zeros(1, dtype=np.int64))
        service.execute_many(queries[:1])
        pages_after_append = service.clock.pages_read - pages_first - pages_repeat
    finally:
        service.close()

    # Threaded closed-loop pass for wall-clock throughput (not gated).
    config = ServiceConfig(
        workers=2,
        max_batch=concurrency,
        max_queue=max(64, concurrency * 4),
        buffer_pages=buffer_pages,
        cache_entries=0,
        engine=engine,
    )
    service = QueryService(index, config)
    try:
        report = run_closed_loop(service, queries, concurrency=concurrency)
    finally:
        service.close()

    return {
        "params": params,
        "serial_pages_per_query": serial_ppq,
        "batched_pages_per_query": batched_ppq,
        "serial_pages": serial_pages,
        "batched_pages": batched_pages,
        "pages_saved_pct": 100.0 * (1.0 - batched_ppq / serial_ppq)
        if serial_ppq
        else 0.0,
        "cache_pages_first_pass": pages_first,
        "cache_pages_repeat_pass": pages_repeat,
        "cache_pages_after_append": pages_after_append,
        "closed_loop": {
            "throughput_qps": report.throughput_qps,
            "completed": report.completed,
            "mean_batch_size": report.mean_batch_size,
            "pages_per_query": report.pages_per_query,
            "latency_ms": report.latency_ms,
            "simulated_ms": report.simulated_ms,
        },
    }


def run_sharded_bench(
    num_records: int = 20_000,
    num_queries: int = 400,
    shards: int = SCALING_SHARDS,
    concurrency: int = 8,
    scheme: str = "E",
    codec: str = "raw",
    transport: str = "process",
    seed: int = 0,
) -> dict:
    """Throughput at 1 shard vs ``shards`` shards, plus a differential.

    Caches are disabled so every query is evaluated, the closed loop
    offers ``concurrency`` clients, and the same query mix replays at
    both shard counts.  A sample of the answers is checked bit-for-bit
    against the naive column scan at *both* shard counts — the scaling
    number is meaningless if sharding changes answers.

    The scaling gate itself is enforced only when the runner has at
    least :data:`SCALING_MIN_CPUS` cores (``gate_enforced`` records the
    decision, and ``gate_skip_reason`` why a skipped gate did not run;
    it is None when enforced); the differential is enforced everywhere.
    """
    values = zipf_column(num_records, CARDINALITY, SKEW, seed=seed)
    spec = IndexSpec(cardinality=CARDINALITY, scheme=scheme, codec=codec)
    queries = paper_mix(CARDINALITY, num_queries, seed=seed)
    sample = queries[: min(16, len(queries))]
    naive = [
        np.flatnonzero(query.matches(values)).tolist() for query in sample
    ]

    throughput: dict[str, float] = {}
    mismatches: list[str] = []
    for n in (1, shards):
        config = ShardedConfig(
            shards=n,
            transport=transport,
            workers=2,
            max_batch=concurrency,
            max_queue=max(64, concurrency * 4),
            cache_entries=0,
        )
        with ShardedQueryService(values, spec, config) as service:
            report = run_closed_loop(
                service, queries, concurrency=concurrency
            )
            throughput[str(n)] = report.throughput_qps
            for query, expected in zip(sample, naive):
                got = service.execute(query).row_ids()
                if list(got) != expected:
                    mismatches.append(
                        f"{n}-shard answer for {query} disagrees with "
                        f"the naive scan"
                    )
                    break

    speedup = (
        throughput[str(shards)] / throughput["1"] if throughput["1"] else 0.0
    )
    cpus = os.cpu_count() or 1
    enforced = cpus >= SCALING_MIN_CPUS
    return {
        "params": {
            "num_records": num_records,
            "num_queries": num_queries,
            "shards": shards,
            "concurrency": concurrency,
            "scheme": scheme,
            "codec": codec,
            "transport": transport,
            "cpus": cpus,
        },
        "throughput_qps": throughput,
        "speedup": speedup,
        "scaling_factor_required": SCALING_FACTOR,
        "gate_enforced": enforced,
        "gate_skip_reason": None if enforced else (
            f"report-only: {cpus} cpu(s), the gate needs "
            f">= {SCALING_MIN_CPUS}"
        ),
        "mismatches": mismatches,
    }


def check_sharded_gates(results: dict) -> list[str]:
    """Sharded-tier gates; returns failure messages (empty = pass)."""
    failures = list(results["mismatches"])
    if results["gate_enforced"]:
        if results["speedup"] < results["scaling_factor_required"]:
            failures.append(
                f"sharded throughput scaled only "
                f"{results['speedup']:.2f}x at "
                f"{results['params']['shards']} shards "
                f"(gate: >= {results['scaling_factor_required']:.1f}x on a "
                f"{results['params']['cpus']}-cpu runner)"
            )
    return failures


def check_gates(results: dict) -> list[str]:
    """The serving gates; returns failure messages (empty = pass)."""
    failures = []
    if results["batched_pages_per_query"] >= results["serial_pages_per_query"]:
        failures.append(
            f"shared-scan batching read "
            f"{results['batched_pages_per_query']:.2f} pages/query, not "
            f"strictly fewer than serial "
            f"({results['serial_pages_per_query']:.2f})"
        )
    if results["cache_pages_repeat_pass"] != 0:
        failures.append(
            f"result cache read {results['cache_pages_repeat_pass']} pages "
            f"on a repeated mix (expected 0)"
        )
    if results["cache_pages_after_append"] <= 0:
        failures.append(
            "append did not invalidate the result cache (post-append query "
            "read no pages)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for a CI smoke run")
    parser.add_argument("--num-records", type=int, default=None)
    parser.add_argument("--num-queries", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--buffer-pages", type=int, default=16)
    parser.add_argument("--scheme", default="E")
    parser.add_argument("--codec", default="raw")
    parser.add_argument("--engine", default="decoded",
                        choices=("decoded", "compressed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-sharded",
        action="store_true",
        help="skip the sharded-tier scaling section",
    )
    parser.add_argument(
        "--shards", type=int, default=SCALING_SHARDS,
        help="shard count for the sharded scaling section",
    )
    args = parser.parse_args(argv)

    num_records = args.num_records or (2_000 if args.quick else 20_000)
    num_queries = args.num_queries or (200 if args.quick else 1000)

    results = run_serving_bench(
        num_records=num_records,
        num_queries=num_queries,
        concurrency=args.concurrency,
        buffer_pages=args.buffer_pages,
        scheme=args.scheme,
        codec=args.codec,
        engine=args.engine,
        seed=args.seed,
    )
    print(
        f"serial:   {results['serial_pages_per_query']:.2f} pages/query "
        f"({results['serial_pages']} pages)"
    )
    print(
        f"batched:  {results['batched_pages_per_query']:.2f} pages/query "
        f"({results['batched_pages']} pages, concurrency "
        f"{args.concurrency}) — {results['pages_saved_pct']:.1f}% fewer"
    )
    print(
        f"cache:    first pass {results['cache_pages_first_pass']} pages, "
        f"repeat {results['cache_pages_repeat_pass']} pages, "
        f"post-append {results['cache_pages_after_append']} pages"
    )
    loop = results["closed_loop"]
    print(
        f"threaded: {loop['throughput_qps']:.0f} q/s, mean batch "
        f"{loop['mean_batch_size']:.1f}, "
        f"{loop['pages_per_query']:.2f} pages/query"
    )
    if loop["latency_ms"]:
        print(
            "latency:  p50={p50:.2f} p95={p95:.2f} p99={p99:.2f} ms (wall)"
            .format(**loop["latency_ms"])
        )

    failures = check_gates(results)

    if not args.no_sharded:
        sharded = run_sharded_bench(
            num_records=num_records,
            num_queries=min(num_queries, 400),
            shards=args.shards,
            concurrency=args.concurrency,
            scheme=args.scheme,
            codec=args.codec,
            seed=args.seed,
        )
        qps = sharded["throughput_qps"]
        enforced = sharded["gate_skip_reason"] or "enforced"
        print(
            f"sharded:  {qps['1']:.0f} q/s at 1 shard -> "
            f"{qps[str(args.shards)]:.0f} q/s at {args.shards} shards "
            f"({sharded['speedup']:.2f}x, gate "
            f">={sharded['scaling_factor_required']:.1f}x {enforced})"
        )
        failures.extend(check_sharded_gates(sharded))

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
