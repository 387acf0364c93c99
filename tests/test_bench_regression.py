"""The regression driver's records: spread, machine, and why a gate skips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    subprocess.run(
        [sys.executable, "benchmarks/bench_regression.py", "--quick", "--output", str(out)],
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    return json.loads(out.read_text())


def test_report_only_gates_name_their_reason(quick_results):
    report_only = {
        name: entry
        for name, entry in quick_results.items()
        if isinstance(entry, dict) and entry.get("gate_enforced") is False
    }
    assert "expr_eval" in report_only  # --quick never gates timings
    assert "rewrite_cost" in report_only  # never gated, in any mode
    assert "segment_append" in report_only  # gated in full mode only
    assert "segment_probe" in report_only  # timing gated in full mode only
    assert "compressed_stream_path" in report_only  # never gated, in any mode
    for name, entry in report_only.items():
        assert entry.get("gate_skip_reason"), name


def test_wall_clock_entries_record_n_iqr_and_machine(quick_results):
    current = {
        name: entry
        for name, entry in quick_results.items()
        if ":" not in name and "median_s" in entry
    }
    assert {
        "expr_eval",
        "numpy_inline_eval",
        "wah_encode",
        "rewrite_cost",
        "segment_append",
        "segment_probe",
        "compressed_stream_path",
    } <= set(current)
    stream = current["compressed_stream_path"]
    assert stream["answers_equal"]
    assert set(stream["leaf_sources"]) == {"path=stream"}  # no decoded copy fits
    for cell in stream["cells"].values():
        assert cell["n"] >= 1 and cell["iqr_s"] >= 0.0
    assert current["segment_append"]["merge"]["n"] >= 1
    probe = current["segment_probe"]
    assert probe["answers_equal"]
    assert set(probe["cells"]) == {"4096", "262144"}
    for cell in probe["cells"].values():
        for path in ("probe", "decode"):
            assert cell[path]["n"] >= 1 and cell[path]["iqr_s"] >= 0.0
    for name, entry in current.items():
        assert entry["n"] >= 1, name
        assert entry["iqr_s"] >= 0.0, name
        assert entry["machine"]["cpu_model"], name


def test_and_or_entries_time_the_stream_walk(quick_results):
    """The roaring-vs-WAH gate's entries time the range walk over streams."""
    for name in ("wah_and", "ewah_and", "ewah_or", "bbc_and", "roaring_and", "roaring_or"):
        assert quick_results[name]["params"]["path"] == "stream", name


def test_codec_entries_cover_every_codec_but_raw(quick_results):
    from repro.compress import available_codecs

    for name in available_codecs():
        if name == "raw":
            continue
        for op in ("encode", "decode"):
            entry = quick_results[f"{name}_{op}"]
            assert entry["n"] >= 1 and entry["iqr_s"] >= 0.0, (name, op)
    assert "raw_decode" not in quick_results


def test_baselines_with_retired_benches_merge(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT))
    try:
        from benchmarks import bench_regression
    finally:
        sys.path.remove(str(ROOT))
    old = {
        "fused_eval": {"median_s": 0.01, "iterations": 3, "params": {}},
        "materialized_eval": {"median_s": 0.02, "iterations": 3, "params": {}},
    }
    (tmp_path / "BENCH_PR3.json").write_text(json.dumps(old))
    monkeypatch.setattr(bench_regression, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(bench_regression, "SEED_BASELINE", tmp_path / "none.json")
    results = {}
    bench_regression.merge_baselines(results, skip=set())
    assert results == {f"pr3:{name}": entry for name, entry in old.items()}
