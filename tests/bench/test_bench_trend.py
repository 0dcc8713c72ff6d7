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
