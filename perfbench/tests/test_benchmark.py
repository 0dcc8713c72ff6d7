"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import os
import re
import time

import pytest

import inputs
import layers
import noise
import run
from repro.bench.harness import evaluate_benchmark

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _verdicts(name, analysis, seed):
    bench = inputs.seeded_instances([name], seed)[name]
    result = evaluate_benchmark(bench, analysis)
    keys = inputs.canonical_ids(name, analysis, [r.query_id for r in result.records], seed)
    return {
        key: (record.status.value, record.abstraction_cost)
        for key, record in zip(keys, result.records)
    }


def _reference(name, analysis):
    return inputs.load_reference([(name, analysis)])


@pytest.mark.parametrize("seed", [0, 7])
def test_run_matches_reference(seed):
    observed = _verdicts("tsp", "escape", seed)
    assert inputs.compare(observed, _reference("tsp", "escape")) == []


def test_flipped_verdict_is_caught():
    reference = _reference("tsp", "escape")
    observed = dict(reference)
    key = next(k for k, (status, _) in reference.items() if status == "proven")
    observed[key] = ("impossible", None)
    problems = inputs.compare(observed, reference)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_changed_cost_is_caught():
    reference = _reference("tsp", "escape")
    observed = dict(reference)
    key = next(k for k, (status, _) in reference.items() if status == "proven")
    status, cost = reference[key]
    observed[key] = (status, cost + 1)
    problems = inputs.compare(observed, reference)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_missing_and_unexpected_queries_are_caught():
    reference = _reference("weblech", "typestate")
    observed = dict(reference)
    dropped = sorted(observed)[0]
    del observed[dropped]
    observed["weblech/typestate/nowhere@1"] = ("proven", 1)
    assert len(inputs.compare(observed, reference)) == 2


def test_names_follow_the_contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.WORKLOADS) + list(run.END_TO_END) + list(run.REPORTED)
    names += list(run.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names), names
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_wrapped_functions_are_restored(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in layers._targets()]
    trace = layers.LayerTrace("test", str(tmp_path))
    with pytest.raises(ZeroDivisionError):
        with trace:
            for owner, attr, original in originals:
                assert owner.__dict__[attr] is not original
            evaluate_benchmark(inputs.seeded_instances(["tsp"], 0)["tsp"], "typestate")
            1 / 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
    names = {span[0] for span in trace.spans}
    assert {"tracer.solve_all", "forward.run", "backward.trace", "minsat.choose"} <= names


def test_self_time_subtracts_children():
    spans = [
        ["tracer.solve_all", 0.0, 10.0, None, "w", 1, None],
        ["backward.trace", 1.0, 5.0, 0, "w", 1, None],
        ["formula.to_dnf", 2.0, 3.0, 1, "w", 1, None],
        ["forward.run", 6.0, 8.0, 0, "w", 1, {"steps": 4}],
    ]
    assert layers.self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    folded = layers.fold(spans)
    assert folded["tracer.self_s"] == 4.0
    assert folded["backward.s"] == 4.0 and folded["backward.self_s"] == 3.0
    assert folded["forward.steps"] == 4


def test_median_interval_uses_order_statistics():
    values = list(range(1, 11))
    assert noise.median_interval(values) == (2, 9)
    assert noise.median_interval([3.0, 1.0, 2.0]) == (1.0, 3.0)
    summary = noise.summary([1.0, 2.0, 3.0, 4.0])
    assert summary["n"] == 4 and summary["median"] == 2.5


def test_workload_references_come_from_the_suite_files():
    for workload, pairs in inputs.WORKLOAD_PAIRS.items():
        reference = inputs.load_reference(pairs)
        assert {"/".join(key.split("/")[:2]) for key in reference} == {f"{n}/{a}" for n, a in pairs}
    serve = inputs.load_reference(inputs.SERVE_PAIRS)
    assert serve.items() <= inputs.load_reference(inputs.WORKLOAD_PAIRS["matrix-jobs2"]).items()


def test_pass_past_its_deadline_is_killed(tmp_path):
    args = argparse.Namespace(workload="typestate-suite", seed=0)
    started = time.perf_counter()
    with pytest.raises(run.PassFailed, match="deadline"):
        run.batch_pass(args, str(tmp_path), False, "0", deadline=started)
    assert time.perf_counter() - started < 30


def test_serve_run_reports_no_tracing_overhead():
    passes = [
        {"traced": True, "wall_s": 3.0 + i, "layers": {"serve.cold_units": 8}} for i in range(2)
    ]
    metrics, differing = run.per_layer(passes)
    assert differing == [] and metrics["trace.overhead_frac"] == 0
