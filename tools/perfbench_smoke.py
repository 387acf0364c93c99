"""Smoke-run the repository benchmark and fail on a wrong or partial run.

``perfbench/run.py`` exits 0 even when its answers are wrong, so this
script runs every workload named in ``BENCHMARK.json`` briefly, once
untraced (``--trace 0``) and once traced (``--trace 1``), and fails when
a run:

* exits non-zero;
* ends with a JSON result line that has ``"correct": false``;
* reports ``failed > 0``;
* prints a ``NOTE: entry point not traced`` line (the tracer could not
  wrap an entry point, so a layer's time would be misattributed);
* reports ``trace.unattributed_frac`` above 0.10, the bound
  ``perfbench/README.md`` sets on op time no layer span covers (an
  untraced run has no such metric and passes).

Run from anywhere; it changes nothing under ``perfbench/``::

    python tools/perfbench_smoke.py [--seconds 2] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNTRACED_NOTE = "NOTE: entry point not traced"
#: Largest share of traced op time that may fall outside every layer span.
MAX_UNATTRIBUTED_FRAC = 0.10


def problems(stdout: str, returncode: int) -> list[str]:
    """Why one benchmark run fails the smoke test (empty when it passes)."""
    found = []
    if returncode != 0:
        found.append(f"exit status {returncode}")
    lines = stdout.strip().splitlines()
    found.extend(line for line in lines if line.startswith(UNTRACED_NOTE))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return found + ["no JSON result line"]
    if result.get("correct") is not True:
        found.append(f"correct: {result.get('correct')!r}")
    if result.get("failed", 1) > 0:
        found.append(f"failed: {result.get('failed')!r}")
    unattributed = result.get("metrics", {}).get("trace.unattributed_frac")
    if unattributed is not None and unattributed["value"] > MAX_UNATTRIBUTED_FRAC:
        found.append(
            f"trace.unattributed_frac: {unattributed['value']!r} > "
            f"{MAX_UNATTRIBUTED_FRAC}"
        )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="timed phase of each run")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable, *spec["command"][1:],
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            found = problems(run.stdout, run.returncode)
            status = "FAIL" if found else "ok"
            print(f"{status} {workload} --trace {trace}", flush=True)
            for problem in found:
                print(f"  {problem}")
            if found:
                failures += 1
                sys.stderr.write(run.stderr[-4000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
