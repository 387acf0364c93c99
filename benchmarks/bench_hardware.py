"""Ablation: how the paper's conclusions age with hardware.

Figure 9's crossover (compressed indexes win only at medium-to-high
skew) is a statement about the 1999 I/O : CPU cost ratio.  Re-running
the same measurement under newer disk-model presets shows the
conclusion shifting: as positioning costs collapse, decompression CPU
stops being amortized by saved seeks and uncompressed (or
compressed-domain) evaluation wins more broadly.

The second half is the decoded evaluator's calibration grid: wall time
of :func:`repro.expr.evaluate` per (vector length, expression shape)
cell, against any other checkout's evaluators — e.g. the materializing
and fused paths of a commit that still has them.  Each side runs in
its own interpreter (two ``repro`` packages cannot share one), sides
alternate, and every cell reports the median of the repeats::

    git archive <commit> | tar -x -C /tmp/base
    PYTHONPATH=src python benchmarks/bench_hardware.py --base /tmp/base

It prints a Markdown table (the one in ``docs/performance.md`` §7).
``--grid build`` times ``BitmapIndex.build`` (scheme build plus WAH
encode) and ``--grid restore`` times ``BitmapIndex.restore_row_order``
on a reordered segment, the same way (tables in §9).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import record_table  # noqa: E402
from perfbench.run import fingerprint  # noqa: E402
from repro.analysis.report import render_table  # noqa: E402
from repro.analysis.spacetime import measure_design  # noqa: E402
from repro.index import IndexSpec  # noqa: E402
from repro.queries import QuerySetSpec, generate_query_set  # noqa: E402
from repro.storage import DISK_MODEL_PRESETS, get_disk_model  # noqa: E402
from repro.workload import zipf_column  # noqa: E402

#: Large enough that an uncompressed bitmap spans many pages (25 at the
#: default page size) — otherwise compression cannot save transfers and
#: the comparison is vacuous.
NUM_RECORDS = 200_000


@pytest.fixture(scope="module")
def setup():
    values = zipf_column(NUM_RECORDS, 50, 1.0, seed=0)
    query_sets = {
        "mixed": generate_query_set(QuerySetSpec(2, 1), 50, num_queries=10, seed=0)
    }
    return values, query_sets


def test_hardware_sensitivity(benchmark, setup):
    values, query_sets = setup

    def build_rows():
        rows = []
        for preset in ("hdd-1999", "hdd-2005", "ssd-2015", "nvme-2020"):
            model = get_disk_model(preset)
            raw = measure_design(
                values,
                IndexSpec(cardinality=50, scheme="E", codec="raw"),
                query_sets,
                disk_model=model,
            )
            bbc = measure_design(
                values,
                IndexSpec(cardinality=50, scheme="E", codec="bbc"),
                query_sets,
                disk_model=model,
            )
            rows.append(
                [
                    preset,
                    raw.avg_time_ms,
                    bbc.avg_time_ms,
                    bbc.avg_time_ms / raw.avg_time_ms,
                ]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    record_table(
        "hardware-sensitivity",
        render_table(
            ["disk model", "raw ms", "bbc ms", "bbc/raw"],
            rows,
            title=(
                "Compression payoff vs hardware generation "
                "(E<50>, z=1, N=200k, mixed queries; <1 means "
                "compression wins)"
            ),
        ),
    )
    # On the 1999 profile compression wins (saved transfer amortizes
    # decompression); on NVMe the relationship is inverted — the paper's
    # Figure 9 conclusion is a statement about its hardware era.
    by_preset = {row[0]: row[3] for row in rows}
    assert by_preset["hdd-1999"] < 1.0
    assert by_preset["nvme-2020"] > by_preset["hdd-1999"]


def test_presets_registry():
    assert set(DISK_MODEL_PRESETS) == {
        "hdd-1999",
        "hdd-2005",
        "ssd-2015",
        "nvme-2020",
    }
    with pytest.raises(KeyError):
        get_disk_model("floppy-1985")


def test_io_costs_collapse_across_presets():
    order = ["hdd-1999", "hdd-2005", "ssd-2015", "nvme-2020"]
    seeks = [get_disk_model(name).seek_ms for name in order]
    assert seeks == sorted(seeks, reverse=True)


# ---------------------------------------------------------------------------
# Calibration grid of the decoded evaluator
# ---------------------------------------------------------------------------

#: Vector lengths of the grid, in bits (2^18 .. 2^26 = 64M).
GRID_LENGTHS = tuple(1 << p for p in (18, 20, 22, 24, 26))
#: Leaf density of every grid vector.
GRID_DENSITY = 0.3
#: Seconds of inner repetitions per cell and path (at least 3 calls).
CELL_BUDGET_S = 0.15
_LEAF_KEYS = "abcdefghij"


def grid_shapes(expr_module) -> dict:
    """The grid's expression shapes, built from ``expr_module``'s nodes."""
    leaf, or_of = expr_module.leaf, expr_module.or_of
    a, b, c, d, e, f, *_ = leaves = [leaf(key) for key in _LEAF_KEYS]

    def term(i):
        return leaves[2 * i] & ~leaves[2 * i + 1]

    return {
        "A&~B": term(0),
        "OR of 2 A&~B": or_of(term(i) for i in range(2)),
        "OR of 5 A&~B": or_of(term(i) for i in range(5)),
        "6-leaf, 5-NOT tree": six_leaf_tree(a, b, c, d, e, f),
        "OR of 10": or_of(leaves),
        "3-of-6": expr_module.Threshold(3, tuple(leaves[:6])),
    }


def six_leaf_tree(a, b, c, d, e, f):
    """``((~a | b) & ~(c ^ ~d)) ^ ~(e & ~f)``: six leaves, five NOTs.

    Builds an expression from leaves, or computes it on word arrays.
    """
    return ((~a | b) & ~(c ^ ~d)) ^ ~(e & ~f)


def _median_call_s(fn) -> float:
    samples = []
    deadline = time.perf_counter() + CELL_BUDGET_S
    while len(samples) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def time_grid(lengths=GRID_LENGTHS) -> dict:
    """One pass over the grid with the importable ``repro``.

    Times every evaluator the checkout has: ``evaluate``, plus
    ``evaluate_fused`` where it still exists.  Returns
    ``{path: {shape: {length: seconds}}}``.
    """
    import repro.expr as expr_module
    from repro.bitmap import BitVector

    paths = {"evaluate": expr_module.evaluate}
    if hasattr(expr_module, "evaluate_fused"):
        paths["evaluate_fused"] = expr_module.evaluate_fused
    shapes = grid_shapes(expr_module)
    rng = np.random.default_rng(11)
    chunk = 1 << 22  # bits drawn at a time, to bound the float scratch

    def random_vector(length):
        words = [
            BitVector.from_bools(rng.random(min(chunk, length - lo)) < GRID_DENSITY).words
            for lo in range(0, length, chunk)
        ]
        return BitVector(length, np.concatenate(words))

    timings: dict = {path: {shape: {} for shape in shapes} for path in paths}
    for length in lengths:
        bitmaps = {key: random_vector(length) for key in _LEAF_KEYS}
        for shape, expr in shapes.items():
            for path, fn in paths.items():
                timings[path][shape][str(length)] = _median_call_s(
                    lambda: fn(expr, bitmaps.get, length)
                )
        del bitmaps
    return {"repro": expr_module.__file__, "timings": timings}


# ---------------------------------------------------------------------------
# Segment cells: build+encode and row-order restore
# ---------------------------------------------------------------------------

#: Build+encode cells: scheme, cardinality, rows (and sorted or not).
BUILD_SCHEMES = ("E", "I")
BUILD_CARDINALITIES = (50, 200)
BUILD_ROWS = (4096, 65536, 262144, 4_000_000)
#: Restore cells: rows, share of values in the answer, runs of answer values.
RESTORE_ROWS = (4096, 65536, 262144)
RESTORE_DENSITIES = (0.1, 0.5, 0.9)
RESTORE_RUNS = (1, 4, 8, 16, 64)
RESTORE_CARDINALITY = 200


def time_build_cells(rows=BUILD_ROWS) -> dict:
    """``BitmapIndex.build`` (scheme build plus WAH encode) per cell."""
    from repro.index import BitmapIndex, IndexSpec

    rng = np.random.default_rng(5)
    timings = {}
    for n in rows:
        for cardinality in BUILD_CARDINALITIES:
            column = zipf_column(n, cardinality, 1.0, seed=int(rng.integers(1 << 30)))
            for order, values in (("unsorted", column), ("sorted", np.sort(column))):
                for scheme in BUILD_SCHEMES:
                    spec = IndexSpec(cardinality=cardinality, scheme=scheme, codec="wah")
                    timings[f"{scheme}|{cardinality}|{n}|{order}"] = _median_call_s(
                        lambda: BitmapIndex.build(values, spec)
                    )
    return timings


def answer_values(cardinality: int, density: float, runs: int) -> np.ndarray:
    """A boolean answer per value: ``runs`` evenly spaced runs of values
    covering about ``density`` of the domain."""
    width = max(1, round(density * cardinality / runs))
    hit = np.zeros(cardinality, dtype=bool)
    for start in np.linspace(0, cardinality - width, runs).round().astype(int):
        hit[start : start + width] = True
    return hit


def time_restore_cells(rows=RESTORE_ROWS) -> dict:
    """``BitmapIndex.restore_row_order`` of one reordered segment's answer."""
    from repro.bitmap import BitVector
    from repro.index import BitmapIndex, IndexSpec

    spec = IndexSpec(
        cardinality=RESTORE_CARDINALITY, scheme="I", codec="wah", reorder="lexicographic"
    )
    timings = {}
    for n in rows:
        values = zipf_column(n, RESTORE_CARDINALITY, 1.0, seed=n)
        index = BitmapIndex.build(values, spec)
        stored = np.sort(values, kind="stable")
        for density in RESTORE_DENSITIES:
            for runs in RESTORE_RUNS:
                hit = answer_values(RESTORE_CARDINALITY, density, runs)
                answer = BitVector.from_bools(hit[stored])
                timings[f"{n}|{density}|{runs}"] = _median_call_s(
                    lambda: index.restore_row_order(answer)
                )
    return timings


def time_cells(grid: str, lengths) -> dict:
    """One pass over ``grid`` with the importable ``repro``."""
    import repro

    if grid == "evaluate":
        return time_grid(lengths)
    cells = time_build_cells if grid == "build" else time_restore_cells
    return {"repro": repro.__file__, "timings": cells(lengths)}


def _run_side(checkout: Path, lengths, grid: str = "evaluate") -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--time-grid",
        "--grid", grid, "--lengths", ",".join(str(n) for n in lengths),
    ]
    out = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout)
    if not Path(result["repro"]).resolve().is_relative_to(checkout.resolve()):
        raise RuntimeError(f"{checkout}: timed the wrong repro ({result['repro']})")
    return result["timings"]


def _alternate(base: Path, repeats: int, lengths, grid: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {"change": [], "base": []}
    for repeat in range(repeats):
        order = ("base", "change") if repeat % 2 == 0 else ("change", "base")
        for side in order:
            checkout = base if side == "base" else REPO_ROOT
            runs[side].append(_run_side(checkout, lengths, grid))
    return runs


def calibrate_cells(base: Path, grid: str, repeats: int, lengths) -> list[dict]:
    """Alternating build or restore cells: ``(cell, change s, base s)``."""
    runs = _alternate(base, repeats, lengths, grid)
    return [
        {
            "cell": cell,
            "change": statistics.median(run[cell] for run in runs["change"]),
            "base": statistics.median(run[cell] for run in runs["base"]),
        }
        for cell in runs["change"][0]
    ]


def within_bound(change_s: float, base_s: float) -> bool:
    """The calibration bound: within 1.1x of the parent, or within
    15 us when both sides are under 0.1 ms."""
    if change_s <= 1.1 * base_s:
        return True
    return max(change_s, base_s) < 1e-4 and change_s - base_s <= 15e-6


def cells_table(grid: str, rows: list[dict]) -> str:
    """Markdown table of build or restore cells."""
    if grid == "build":
        head = "| scheme | C | rows | order |"
        rule = "|---|---|---|---|"
    else:
        head = "| rows | answer density | value runs |"
        rule = "|---|---|---|"
    lines = [
        head + " change ms | parent ms | ratio | in bound |",
        rule + "---|---|---|---|",
    ]
    for row in rows:
        parts = row["cell"].split("|")
        rows_at = 2 if grid == "build" else 0
        parts[rows_at] = _rows(int(parts[rows_at]))
        lines.append(
            "| " + " | ".join(parts)
            + f" | {row['change'] * 1e3:.3f} | {row['base'] * 1e3:.3f}"
            + f" | {row['change'] / row['base']:.2f}x"
            + f" | {'yes' if within_bound(row['change'], row['base']) else 'NO'} |"
        )
    return "\n".join(lines)


def calibrate(base: Path, repeats: int = 5, lengths=GRID_LENGTHS) -> list[dict]:
    """Alternate ``repeats`` grid passes of this checkout and ``base``.

    Returns one row per cell with the medians (seconds) of this
    checkout's ``evaluate`` and of every path ``base`` has, prefixed
    ``base.``.
    """
    runs = _alternate(base, repeats, lengths, "evaluate")
    rows = []
    for shape in runs["change"][0]["evaluate"]:
        for length in lengths:
            row = {"shape": shape, "length": length}
            for side, prefix in (("change", ""), ("base", "base.")):
                for path in runs[side][0]:
                    row[prefix + path] = statistics.median(
                        run[path][shape][str(length)] for run in runs[side]
                    )
            rows.append(row)
    return rows


def grid_table(rows: list[dict]) -> str:
    """Markdown table: ``evaluate`` against the faster base path."""
    lines = [
        "| shape | rows | evaluate ms | base materializing ms "
        "| base fused ms | ratio to faster base path |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        base = [row[key] for key in ("base.evaluate", "base.evaluate_fused") if key in row]
        fastest = min(base)
        lines.append(
            f"| {row['shape']} | {_rows(row['length'])} "
            f"| {row['evaluate'] * 1e3:.3f} "
            f"| {row['base.evaluate'] * 1e3:.3f} "
            f"| {row.get('base.evaluate_fused', float('nan')) * 1e3:.3f} "
            f"| {row['evaluate'] / fastest:.2f}x |"
        )
    return "\n".join(lines)


def _rows(length: int) -> str:
    if length >= 1 << 20:
        return f"{length >> 20}M" if length % (1 << 20) == 0 else f"{length / 1e6:g}M"
    return f"{length >> 10}K"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="decoded-evaluator calibration grid")
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--grid", choices=("evaluate", "build", "restore"), default="evaluate",
        help="evaluator cells, segment build+encode cells, or restore cells",
    )
    parser.add_argument(
        "--lengths",
        help="vector lengths (evaluate) or row counts (build, restore), comma-separated",
    )
    parser.add_argument("--time-grid", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    default = {"evaluate": GRID_LENGTHS, "build": BUILD_ROWS, "restore": RESTORE_ROWS}
    lengths = (
        tuple(int(n) for n in args.lengths.split(","))
        if args.lengths
        else default[args.grid]
    )
    if args.time_grid:
        print(json.dumps(time_cells(args.grid, lengths)))
        return 0
    if args.base is None:
        parser.error("--base is required")
    fp = fingerprint(None)
    print(
        f"machine: {fp['cpu_model']}, {fp['nproc']} CPUs, Python {fp['python']}, "
        f"numpy {fp['numpy']}; medians of {args.repeats} alternating repeats"
    )
    if args.grid == "evaluate":
        print(grid_table(calibrate(args.base, args.repeats, lengths)))
    else:
        print(cells_table(args.grid, calibrate_cells(args.base, args.grid, args.repeats, lengths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
