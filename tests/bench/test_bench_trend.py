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

