"""Repository benchmark: closed-loop workloads through the public API.

One run::

    python3 perfbench/run.py --workload paper_warm --seed 1 --seconds 10 --trace 0

prints one ``name value unit`` line per metric, the sizes, the machine
fingerprint and the answer checks, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer
metrics, from a run that alternates untraced and traced slices.

Other modes::

    python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steadiness 5 --workload paper_warm --seed 1 --out a.json
    python3 perfbench/run.py --compare parent.json change.json

``--all`` runs every workload, each in a fresh process.  ``--steadiness K``
runs one workload K times (seeds ``seed .. seed+K-1``) and prints each
metric's median, quartiles and IQR/median.  ``--compare`` compares two
``--out`` files and refuses when their fingerprints differ.

Run it from the repository root; it imports the program from ``src/``
next to this directory and nothing else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: Set-ups per end-to-end run: at least the minimum, then more while
#: they have taken under the budget, up to the maximum.  ``setup_s`` is
#: their median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 5.0
#: Length of one untraced or traced slice in a traced run.
SLICE_S = 0.5
#: Queries re-run after the timed phase and compared row for row.
SAMPLE_CHECKS = 12
#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Machine fields that must match before two results are compared.
MACHINE_KEYS = ("cpu_model", "nproc", "python", "numpy")

#: Seconds between speed-probe samples in the timed phase.
PROBE_EVERY_S = 0.25
#: The speed probe's median time on the reference machine (Intel Xeon
#: VM, 2 vCPUs); end-to-end times are reported at this machine speed.
PROBE_REFERENCE_S = 0.0044
#: Probe samples on each side of an op that give its local machine speed
#: (20 samples are 5 s: long enough to average the probe's own noise).
PROBE_NEIGHBOURS = 20


def import_program():
    """Import ``repro`` from ``src/`` of this checkout, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure: {src}/repro is missing\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {src}\n")
        sys.exit(2)


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------


def fingerprint(seed) -> dict:
    import numpy as np

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        git_reason = None if git_sha else (sha.stderr.strip().splitlines() or ["no sha"])[-1]
    except (OSError, subprocess.TimeoutExpired) as exc:
        git_sha, git_reason = None, f"git unavailable: {exc}"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha,
        "git_sha_missing_reason": git_reason,
        "src_digest": digest.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------


class SpeedProbe:
    """A fixed piece of CPU work, timed between operations.

    The runner's CPU speed drifts by 20-40% over seconds to minutes
    with nothing else running (co-tenants share the host).  Every sample
    times the same Python loop and the same numpy word operations, so
    the median of the samples around an op measures how fast the
    machine was at that moment; the op's time is scaled by
    ``PROBE_REFERENCE_S`` / that median.  The probe runs no code of the
    program under test, so a change to the program cannot move it.
    """

    def __init__(self):
        import numpy as np

        self._words = np.random.default_rng(0).integers(0, 2**63, 1 << 16, dtype=np.uint64)
        self._shift = np.uint64(1)
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i ^ (i >> 3)
        words = self._words
        for _ in range(20):
            words = (words ^ (words >> self._shift)) & self._words
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(elapsed)
        return elapsed

    def factors(self, at):
        """Per instant in ``at``: multiply a time taken then by this to
        express it at reference speed."""
        import numpy as np

        samples = np.asarray(self.samples)
        k = PROBE_NEIGHBOURS
        local = np.array(
            [np.median(samples[max(0, i - k) : i + k + 1]) for i in range(samples.size)]
        )
        nearest = np.clip(np.searchsorted(np.asarray(self.times), at), 0, samples.size - 1)
        return PROBE_REFERENCE_S / local[nearest]


# ---------------------------------------------------------------------------
# Closed-loop client
# ---------------------------------------------------------------------------


class Client:
    """One closed-loop client: one op outstanding, answers checked
    against the oracle outside the op's timer."""

    def __init__(self, served, queries, oracle, probe):
        import numpy as np

        self.probe = probe
        self.service = served.service
        self.queries = queries
        self.query_values = [np.array(sorted(q.values), dtype=np.int64) for q in queries]
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._next_probe = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def run(self, op, tracer=None, op_id: int = 0) -> float | None:
        """Run one op; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        root = tracer.begin_op(op.kind, op_id) if tracer is not None else None
        start = time.perf_counter()
        try:
            if op.kind == "append":
                result = self.service.append(op.rows)
            else:
                result = self.service.execute_many([self.queries[op.query]])[0]
        except Exception as exc:  # every exception is a failed op, never a crash
            if root is not None:
                tracer.end_op(root)
            self.fail(f"{op.kind} raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if root is not None:
            tracer.end_op(root)
        ok = self.check(op, result)
        now = time.perf_counter()
        if now >= self._next_probe:
            self.probe.sample()
            self._next_probe = now + PROBE_EVERY_S
        return elapsed if ok else None

    def check(self, op, result) -> bool:
        if op.kind == "append":
            if result.records_appended != op.rows.size:
                self.fail(f"append acked {result.records_appended} of {op.rows.size} rows")
                return False
            self.oracle.append(op.rows)
            return True
        expected = self.oracle.expected_count(self.query_values[op.query])
        if result.row_count != expected:
            self.fail(f"query {op.query}: {result.row_count} rows, expected {expected}")
            return False
        return True

    def sample_check(self, indices) -> int:
        """Re-run queries and compare row ids bit for bit with a naive scan."""
        import numpy as np

        for i in indices:
            self.attempted += 1
            try:
                result = self.service.execute_many([self.queries[i]])[0]
            except Exception as exc:  # counted, reported, never silent
                self.fail(f"sample query {i} raised {type(exc).__name__}: {exc}")
                continue
            if not np.array_equal(result.row_ids(), self.oracle.expected_rows(self.query_values[i])):
                self.fail(f"sample query {i}: row ids differ from the naive scan")
        return len(indices)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile_ms(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e3 if len(samples) else 0.0


def tail_note(name: str, samples, q: float) -> str | None:
    beyond = len(samples) * (100 - q) / 100
    if beyond < TAIL_SAMPLES:
        return f"{name}: only {beyond:.1f} of {len(samples)} samples lie beyond p{q:g} (want {TAIL_SAMPLES})"
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from repro import obs
    from workloads import WORKLOADS, Oracle, Seeds

    workload = WORKLOADS[name]
    seeds = Seeds.derive(seed)
    scratch = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    report: dict = {"workload": name, "seed": seed, "notes": []}
    tracer = setup_obs = None
    probe = SpeedProbe()
    try:
        # -- set-up: data generation through service construction --------
        setup_times: list[tuple[float, float]] = []
        served = values = None
        while True:
            if served is not None:
                served.close()
                served = values = None
            gc.collect()
            probes = [probe.sample() for _ in range(3)]
            if trace:
                from layers import SpanTracer

                tracer = SpanTracer()
                tracer.install()
                setup_obs = obs.install()
                setup_root = tracer.begin_op("setup", -1)
            start = time.perf_counter()
            values = workload.generate(seeds)
            served = workload.serve(values, scratch / f"index-{len(setup_times)}")
            elapsed = time.perf_counter() - start
            if trace:
                tracer.end_op(setup_root)
                obs.uninstall()
                tracer.uninstall()
                break
            probes += [probe.sample() for _ in range(3)]
            setup_times.append((elapsed, PROBE_REFERENCE_S / statistics.median(probes)))
            spent = sum(t for t, _ in setup_times)
            if len(setup_times) >= SETUP_MAX_REPEATS or (
                len(setup_times) >= SETUP_MIN_REPEATS and spent >= SETUP_BUDGET_S
            ):
                break
        index_bytes = workload.index_bytes(served, values)
        queries = workload.queries(seeds)
        oracle = Oracle(values, workload.cardinality)
        client = Client(served, queries, oracle, probe)
        ops = workload.op_stream(seeds, values)
        report["sizes"] = {
            "rows": workload.rows,
            "index_bytes": index_bytes,
            "pool_bytes": served.pool_bytes,
            "distinct_queries": workload.distinct_queries,
            "cache_entries_per_shard": served.cache_entries,
        }

        # -- warm-up, untimed ----------------------------------------------
        for _ in range(workload.warmup_ops):
            client.run(next(ops))
        gc.collect()

        # -- timed phase ---------------------------------------------------
        if trace:
            phase = traced_phase(client, ops, seconds, tracer, served.service)
        else:
            phase = free_phase(client, ops, seconds)

        # -- exact answers on a seeded sample ------------------------------
        rng = np.random.default_rng(seeds.sample)
        sample = rng.choice(len(queries), size=min(SAMPLE_CHECKS, len(queries)), replace=False)
        checked = client.sample_check([int(i) for i in sample])
        if checked == 0:
            report["notes"].append("sample check could not run: no queries to sample")
        served.close()

        # -- metrics -------------------------------------------------------
        if trace:
            metrics = layer_metrics(workload, served, phase, tracer, setup_obs, queries, report)
        else:
            metrics = end_to_end_metrics(workload, phase, setup_times, index_bytes, probe, report)
        report["failed_frac"] = client.failed / max(1, client.attempted)
        report["errors"] = client.errors
        correct = client.failed == 0 and checked > 0
        return {
            "correct": correct,
            "attempted": client.attempted,
            "failed": client.failed,
            "metrics": metrics,
            "report": report,
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        obs.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def free_phase(client, ops, seconds):
    """The untraced timed phase: ops back to back for ``seconds``."""
    latencies = defaultdict(list)
    ends = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(ops)
        elapsed = client.run(op)
        if elapsed is not None:
            latencies[op.kind].append(elapsed)
            ends[op.kind].append(time.perf_counter())
    return {"latencies": latencies, "ends": ends}


def traced_phase(client, ops, seconds, tracer, service):
    """Alternate untraced and traced slices of ``SLICE_S`` seconds.

    Untraced slices give the reference throughput for the tracing
    overhead; traced slices give the spans, the obs counters and the
    service counter deltas.
    """
    from repro import obs

    latencies = {False: defaultdict(list), True: defaultdict(list)}
    deltas: dict[str, float] = defaultdict(float)
    run_obs = obs.Observability()
    traced_queries: list[int] = []
    op_id = 0
    end = time.perf_counter() + seconds
    traced = False
    while time.perf_counter() < end:
        if traced:
            before = service.metrics_snapshot()
            tracer.install()
            obs.install(run_obs)
        slice_end = min(end, time.perf_counter() + SLICE_S)
        while time.perf_counter() < slice_end:
            op = next(ops)
            elapsed = client.run(op, tracer if traced else None, op_id)
            op_id += 1
            if elapsed is not None:
                latencies[traced][op.kind].append(elapsed)
                if traced and op.kind == "query":
                    traced_queries.append(op.query)
        if traced:
            obs.uninstall()
            tracer.uninstall()
            after = service.metrics_snapshot()
            for key, value in after.items():
                if isinstance(value, (int, float)):
                    deltas[key] += value - before[key]
        traced = not traced
    return {
        "latencies": latencies,
        "deltas": deltas,
        "obs": run_obs,
        "traced_queries": traced_queries,
    }


def end_to_end_metrics(workload, phase, setup_times, index_bytes, probe, report) -> dict:
    """End-to-end metrics.  Each op's time is scaled to reference
    machine speed by the probe samples around it (see
    :class:`SpeedProbe`); the unscaled values are printed too.
    ``setup_times`` holds (seconds, speed factor) per set-up, the factor
    from probe samples taken just before and after it."""
    import numpy as np

    queries = phase["latencies"]["query"]
    appends = phase["latencies"]["append"]
    scaled = {
        kind: np.asarray(phase["latencies"][kind]) * probe.factors(phase["ends"][kind])
        for kind in ("query", "append")
    }
    note = tail_note("query_p95_ms", queries, 95)
    if note:
        report["notes"].append(note)
    report["queries_timed"] = len(queries)
    report["appends_timed"] = len(appends)
    if appends:
        report["append_p50_ms"] = percentile_ms(appends, 50)
        note = tail_note("append_p95_ms", appends, 95)
        if note:
            report["notes"].append(note + "; append p95 not reported")
        else:
            report["append_p95_ms"] = percentile_ms(appends, 95)
    raw = {
        "query_p50_ms": percentile_ms(queries, 50),
        "query_p95_ms": percentile_ms(queries, 95),
        "throughput_qps": len(queries) / (sum(queries) + sum(appends)),
    }
    report["raw"] = raw
    report["speed_factor"] = float(np.median(probe.factors(phase["ends"]["query"])))
    raw["setup_s"] = statistics.median(t for t, _ in setup_times)
    report["setup_runs_s"] = [t for t, _ in setup_times]
    return {
        "query_p50_ms": {"value": percentile_ms(scaled["query"], 50), "unit": "ms"},
        "query_p95_ms": {"value": percentile_ms(scaled["query"], 95), "unit": "ms"},
        "throughput_qps": {
            "value": len(queries) / float(scaled["query"].sum() + scaled["append"].sum()),
            "unit": "1/s",
        },
        "setup_s": {"value": statistics.median(t * f for t, f in setup_times), "unit": "s"},
        "index_bytes_per_row": {"value": index_bytes / workload.rows, "unit": "B/row"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
    }


def layer_metrics(workload, served, phase, tracer, setup_obs, queries, report) -> dict:
    from layers import LAYERS, layer_of, self_times

    from repro.compress.adaptive import CODEC_IDS

    spans = tracer.spans
    selfs = self_times(spans)
    roots = [s for s in spans if s[3] is None and s[4] is not None]
    setup_spans = [s for s in spans if s[4] == -1]
    op_spans = [s for s in spans if s[4] is not None and s[4] >= 0]
    kinds = {s[4]: s[0] for s in roots if s[4] >= 0}
    n_ops = max(1, len(kinds))
    n_queries = sum(1 for kind in kinds.values() if kind == "query")
    n_appends = sum(1 for kind in kinds.values() if kind == "append")
    op_wall = sum(s[2] - s[1] for s in roots if s[4] >= 0)

    self_by_name: dict[str, float] = defaultdict(float)
    append_self = 0.0
    calls: dict[str, int] = defaultdict(int)
    for span in op_spans:
        name, own = selfs[id(span)]
        self_by_name[name] += own
        calls[name] += 1
        if name == "index.append" and kinds.get(span[4]) == "append":
            append_self += own
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, total in self_by_name.items():
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += total
    attributed = sum(layer_self.values())
    shares = {layer: total / op_wall if op_wall else 0.0 for layer, total in layer_self.items()}
    report["layer_share"] = shares
    report["dominant_layer"] = max(shares, key=shares.get)
    if tracer.missing:
        report["notes"].extend(f"entry point not traced: {m}" for m in tracer.missing)

    def per_op_ms(*names):
        return sum(self_by_name[n] for n in names) / n_ops * 1e3

    def setup_total(name):
        return sum(s[2] - s[1] for s in setup_spans if s[0] == name and s[3] is not None and s[3][0] != name)

    deltas = phase["deltas"]
    run_obs = phase["obs"]
    hits = deltas.get("shard_cache_hits", deltas.get("cache_hits", 0.0))
    misses = deltas.get("shard_cache_misses", deltas.get("cache_misses", 0.0))
    pool_hits = run_obs.counter_total("buffer.hits")
    pool_misses = run_obs.counter_total("buffer.misses")
    rewriter = workload.rewriter(served.spec)
    constituents = [len(rewriter.rewrite_membership(queries[i])) for i in phase["traced_queries"]]
    fused, materialized = calls["expr.fused"], calls["expr.materialize"]
    untraced, traced = phase["latencies"][False], phase["latencies"][True]
    qps_untraced, qps_traced = (
        len(ops["query"]) / (sum(ops["query"]) + sum(ops["append"])) if ops["query"] else 0.0
        for ops in (untraced, traced)
    )
    report["traced_ops"] = len(kinds)
    report["untraced_queries"] = len(untraced["query"])

    def metric(value, unit):
        return {"value": float(value), "unit": unit}

    metrics = {
        "serve.self_ms": metric(per_op_ms("serve.call"), "ms"),
        "serve.merge_ms": metric(per_op_ms("serve.merge"), "ms"),
        "serve.cache_hit_ratio": metric(hits / (hits + misses) if hits + misses else 0.0, "1"),
        "serve.cache_invalidated": metric(
            deltas.get("cache_invalidated", 0.0) / n_appends if n_appends else 0.0, "count"
        ),
        "serve.append_p50_ms": metric(percentile_ms(untraced["append"], 50), "ms"),
        "index.rewrite_ms": metric(per_op_ms("index.rewrite"), "ms"),
        "index.constituents": metric(
            sum(constituents) / len(constituents) if constituents else 0.0, "count"
        ),
        "index.engine_self_ms": metric(per_op_ms("index.engine"), "ms"),
        "index.restore_order_ms": metric(per_op_ms("index.restore"), "ms"),
        "index.append_ms": metric(append_self / n_appends * 1e3 if n_appends else 0.0, "ms"),
        "index.segments": metric(calls["index.engine"] / n_queries if n_queries else 0.0, "count"),
        "index.build_s": metric(setup_total("index.build"), "s"),
        "index.save_s": metric(served.save_s, "s"),
        "index.load_s": metric(served.load_s, "s"),
        "table.reorder_s": metric(setup_total("table.reorder"), "s"),
        "expr.eval_ms": metric(per_op_ms("expr.fused", "expr.materialize"), "ms"),
        "expr.plan_ms": metric(per_op_ms("expr.plan"), "ms"),
        "expr.fused_blocks": metric(run_obs.counter_total("expr.fused.blocks") / n_ops, "count"),
        "expr.materialize_share": metric(
            materialized / (fused + materialized) if fused + materialized else 0.0, "1"
        ),
        "compress.kernel_ms": metric(per_op_ms("compress.kernel"), "ms"),
        "compress.encode_ms": metric(per_op_ms("compress.encode"), "ms"),
        "compress.decode_ms": metric(per_op_ms("compress.decode"), "ms"),
        "compress.bytes_in": metric(sum(tracer.bytes_in.values()) / n_ops, "B"),
    }
    for codec in sorted(CODEC_IDS):
        counter = setup_obs.metrics.find("compress.auto.selected", codec=codec)
        metrics[f"compress.auto_selected.{codec}"] = metric(
            counter.value if counter is not None else 0.0, "count"
        )
    metrics.update(
        {
            "storage.fetch_ms": metric(per_op_ms("storage.fetch"), "ms"),
            "storage.hit_ratio": metric(
                pool_hits / (pool_hits + pool_misses) if pool_hits + pool_misses else 0.0, "1"
            ),
            "storage.pages_read": metric(deltas.get("pages_read", 0.0) / n_ops, "count"),
            "storage.view_bytes": metric(
                run_obs.counter_total("storage.mmap.view_bytes") / n_ops, "B"
            ),
            "storage.copy_fallbacks": metric(
                run_obs.counter_total("storage.mmap.copy_fallbacks") / n_ops, "count"
            ),
            "trace.unattributed_frac": metric(1.0 - attributed / op_wall if op_wall else 0.0, "1"),
            "trace.overhead_frac": metric(1.0 - qps_traced / qps_untraced if qps_untraced else 0.0, "1"),
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# Output and modes
# ---------------------------------------------------------------------------


def print_result(result: dict, fp: dict) -> None:
    """Human-readable lines first, the one-line JSON result last."""
    report = result["report"]
    print(f"workload {report['workload']}  seed {report['seed']}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print("sizes " + json.dumps(report.get("sizes", {}), sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if "raw" in report:
        print(f"machine speed factor {report['speed_factor']!r}; unscaled values:")
        for name, value in report["raw"].items():
            print(f"  raw {name} {value!r}")
    for key in ("queries_timed", "appends_timed", "append_p50_ms", "append_p95_ms",
                "traced_ops", "untraced_queries"):
        if key in report:
            print(f"{key} {report[key]!r}")
    if "layer_share" in report:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in report["layer_share"].items())
        print(f"layer self-time share of op wall: {shares}")
        print(f"dominant layer: {report['dominant_layer']}")
    print(f"failed_frac {report['failed_frac']!r} 1")
    for error in report["errors"]:
        print(f"FAILED: {error}")
    for note in report["notes"]:
        print(f"NOTE: {note}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def child_command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]


def run_child(workload, seed, seconds, trace) -> tuple[int, str]:
    proc = subprocess.run(
        child_command(workload, seed, seconds, trace),
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def load_benchmark_spec() -> dict:
    """Metric bounds and directions, from the repository's BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"NOTE: no bounds available ({exc}); spreads are reported without a verdict")
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def mode_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        code, stdout = run_child(name, args.seed, args.seconds, args.trace)
        print(stdout, end="")
        status = status or code
    return status


def mode_steadiness(args) -> int:
    spec = load_benchmark_spec()
    seeds = [args.seed + k for k in range(args.steadiness)]
    runs = []
    for seed in seeds:
        code, stdout = run_child(args.workload, seed, args.seconds, args.trace)
        if code != 0:
            print(f"run with seed {seed} exited with code {code}")
            return code
        result = last_json_line(stdout)
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}  verdict")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = spec.get(name, {}).get("bound")
        verdict = "" if bound is None else ("steady" if spread <= bound else "unresolved")
        print(f"{name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "fingerprint": fingerprint(seeds), "runs": runs,
        }, indent=1))
    return 0


def mode_compare(args) -> int:
    """Compare two steadiness files metric by metric, same machine only."""
    spec = load_benchmark_spec()
    base, change = (json.loads(Path(p).read_text()) for p in args.compare)
    mismatched = [
        key for key in MACHINE_KEYS + ("seed",)
        if base["fingerprint"].get(key) != change["fingerprint"].get(key)
    ] + [key for key in ("workload", "trace", "seconds") if base[key] != change[key]]
    if mismatched:
        for key in mismatched:
            source = base if key in base else base["fingerprint"]
            other = change if key in change else change["fingerprint"]
            print(f"REFUSED: {key} differs: {source.get(key)!r} vs {other.get(key)!r}")
        return 3
    print(f"base {base['fingerprint'].get('git_sha') or base['fingerprint']['src_digest']}  "
          f"change {change['fingerprint'].get('git_sha') or change['fingerprint']['src_digest']}")
    for name in base["runs"][0]["metrics"]:
        before = [run["metrics"][name]["value"] for run in base["runs"]]
        after = [run["metrics"][name]["value"] for run in change["runs"]]
        q1, m0, q3 = quartiles(before)
        m1 = quartiles(after)[1]
        delta = (m1 - m0) / abs(m0) if m0 else 0.0
        entry = spec.get(name, {})
        bound, better = entry.get("bound"), entry.get("better")
        verdict = ""
        if bound is not None and better is not None:
            worse = delta if better == "lower" else -delta
            if (q3 - q1) / abs(m0 or 1) > bound:
                verdict = "unresolved (spread wider than bound)"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "within bound"
        print(f"{name:32} {m0:12.6g} -> {m1:12.6g} ({delta:+.2%}) {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see perfbench/README.md)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run one workload K times and report each metric's spread")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two --steadiness --out files")
    parser.add_argument("--out", help="where --steadiness writes its runs")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.compare:
        return mode_compare(args)
    if args.all:
        return mode_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.steadiness:
        return mode_steadiness(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, fingerprint(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
