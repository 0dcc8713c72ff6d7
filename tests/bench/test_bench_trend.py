"""The perf-trend gate (``scripts/bench_trend.py``): micros that a
report stops measuring must not read as regressions."""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture(scope="module")
def bench_trend():
    path = os.path.join(REPO_ROOT, "scripts", "bench_trend.py")
    spec = importlib.util.spec_from_file_location("bench_trend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_micro_dropped_from_report_is_not_a_regression(bench_trend):
    previous = {
        "micro_seconds": {
            "forward_phase": 0.03,
            "forward_phase_compiled": 0.006,
        }
    }
    current = bench_trend.history_entry(
        {"micro_seconds": {"forward_phase": 0.031}}
    )
    assert bench_trend.compare(previous, current, 0.25) == []
    # The gate still fires on the micros both entries carry.
    slower = bench_trend.history_entry(
        {"micro_seconds": {"forward_phase": 0.06}}
    )
    assert [row[0] for row in bench_trend.compare(previous, slower, 0.25)] == [
        "forward_phase"
    ]



def test_history_records_the_avrora_escape_unit(bench_trend):
    report = {
        "micro_seconds": {"dnf_simplify_cold": 0.004},
        "avrora_escape": {
            "cpu_seconds": 7.4,
            "queries": 60,
            "resolved": 60,
            "statuses": {"proven": 50, "impossible": 10},
            "iterations": 120,
            "abstraction_cost": 80,
            "backward_calls": 100,
            "trace_cmds": 30000,
            "beam_prunes": 9000,
        },
    }
    entry = bench_trend.history_entry(report)
    assert entry["avrora_escape"] == {
        "cpu_seconds": 7.4,
        "resolved": 60,
        "iterations": 120,
        "trace_cmds": 30000,
        "beam_prunes": 9000,
    }
    assert "avrora_escape" not in bench_trend.history_entry({})


def test_clean_bus_record_count_is_gated(bench_trend):
    def entry(bus_records):
        clean = {} if bus_records is None else {"bus_records": bus_records}
        return bench_trend.history_entry(
            {"scheduler": {"clean": dict(clean, bus_bytes=1000)}}
        )

    assert entry(42)["scheduler"]["bus_records"] == 42
    # The last entry that has the count is the baseline; entries
    # without it are skipped.
    history = [entry(42), entry(None), {"micro_seconds": {}}]
    assert bench_trend.count_changes(history, entry(42)) == []
    assert bench_trend.count_changes(history, entry(43)) == [
        ("scheduler.bus_records", 42, 43)
    ]
    assert bench_trend.count_changes([entry(None)], entry(43)) == []
    assert bench_trend.count_changes(history, entry(None)) == []


def test_gate_fails_on_a_changed_count(bench_trend, tmp_path):
    import json

    history = tmp_path / "history.jsonl"
    history.write_text(
        json.dumps({"scheduler": {"bus_records": 42}}) + "\n"
    )
    report = tmp_path / "report.json"
    argv = ["--report", str(report), "--history", str(history), "--gate"]
    report.write_text(
        json.dumps({"scheduler": {"clean": {"bus_records": 42}}})
    )
    assert bench_trend.main(argv) == 0
    report.write_text(
        json.dumps({"scheduler": {"clean": {"bus_records": 41}}})
    )
    assert bench_trend.main(argv) == 1
