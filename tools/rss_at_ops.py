#!/usr/bin/env python
"""Peak RSS of a ``perfbench`` workload after a fixed number of ops.

``perfbench/run.py`` runs for a fixed time, so a faster program makes
more ops in its 30 s and, on ``sharded_appends``, appends more rows;
its ``peak_rss_mb`` then grows with its speed.  This script runs the
benchmark's own client, oracle and op stream for exactly ``--ops`` ops
after the warm-up, then the same seeded sample check, so two checkouts
hold the same rows when their peak RSS is compared::

    python tools/rss_at_ops.py --workload sharded_appends --seed 3 --ops 8500

Run it from the root of the checkout to measure (it imports ``src/``
and ``perfbench/`` beside this directory).  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from run import SAMPLE_CHECKS, Client, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Oracle, Seeds  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="sharded_appends")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=8500)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = Seeds.derive(args.seed)
    values = workload.generate(seeds)
    with tempfile.TemporaryDirectory() as workdir:
        served = workload.serve(values, Path(workdir))
        queries = workload.queries(seeds)
        client = Client(served, queries, Oracle(values, workload.cardinality), SpeedProbe())
        ops = workload.op_stream(seeds, values)
        appended = 0
        for _ in range(workload.warmup_ops + args.ops):
            op = next(ops)
            appended += 0 if op.rows is None else op.rows.size
            client.run(op)
        rng = np.random.default_rng(seeds.sample)
        sample = rng.choice(len(queries), size=min(SAMPLE_CHECKS, len(queries)), replace=False)
        client.sample_check([int(i) for i in sample])
        served.close()
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops": args.ops,
        "rows_appended": appended,
        "correct": client.failed == 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0 if client.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
