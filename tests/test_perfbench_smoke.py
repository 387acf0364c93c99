"""The benchmark smoke check's verdict on one run's output."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "perfbench_smoke.py"
spec = importlib.util.spec_from_file_location("perfbench_smoke", SCRIPT)
smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(smoke)


def output(*lines, correct=True, failed=0, metrics=None):
    result = {
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": metrics or {},
    }
    return "\n".join([*lines, json.dumps(result)]) + "\n"


def unattributed(value):
    return {"trace.unattributed_frac": {"value": value, "unit": "1"}}


def test_clean_run_passes():
    assert smoke.problems(output("query_p50_ms 1.0 ms"), 0) == []


def test_incorrect_run_fails():
    assert smoke.problems(output(correct=False), 0) == ["correct: False"]


def test_failed_ops_fail():
    assert smoke.problems(output(failed=2), 0) == ["failed: 2"]


def test_untraced_entry_point_fails():
    note = "NOTE: entry point not traced: repro.x.f: AttributeError: f"
    assert smoke.problems(output(note), 0) == [note]


def test_missing_result_line_and_exit_status_fail():
    assert smoke.problems("Traceback ...\n", 1) == [
        "exit status 1",
        "no JSON result line",
    ]


def test_unattributed_time_over_bound_fails():
    assert smoke.problems(output(metrics=unattributed(0.12)), 0) == [
        "trace.unattributed_frac: 0.12 > 0.1"
    ]


def test_unattributed_time_within_bound_passes():
    assert smoke.problems(output(metrics=unattributed(0.1)), 0) == []


def test_untraced_run_without_the_metric_passes():
    metrics = {"query_p50_ms": {"value": 1.0, "unit": "ms"}}
    assert smoke.problems(output(metrics=metrics), 0) == []
