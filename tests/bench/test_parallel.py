"""Serial-vs-parallel determinism of the evaluation harness."""

import os

import pytest

from repro.bench.harness import (
    ANALYSES,
    analysis_queries,
    analysis_setup,
    analysis_setups,
    evaluate_benchmark,
    prepare,
)
from repro.bench.parallel import (
    RunOptions,
    evaluate_benchmark_parallel,
    evaluate_many,
    last_scheduler_stats,
    work_units,
)
from repro.bench.suite import BENCHMARK_NAMES
from repro.core.tracer import TracerConfig
from repro.escape.client import EscapeClient
from repro.obs import trace as obs
from repro.obs.sinks import MemorySink
from repro.robust.clausebus import load_bus_records
from repro.robust.faults import FaultPlan
from repro.typestate.client import TypestateClient

CONFIG = TracerConfig(k=5, max_iterations=30)


def record_key(record):
    """Everything about a record except wall-clock time."""
    return (
        record.query_id,
        record.status,
        record.abstraction,
        record.abstraction_cost,
        record.iterations,
        record.forward_runs,
        record.forward_cache_hits,
        record.max_disjuncts,
    )


@pytest.fixture(scope="module")
def instances():
    return {name: prepare(name) for name in ("tsp", "elevator")}


class TestWorkUnits:
    def test_typestate_units_follow_client_count(self, instances):
        bench = instances["elevator"]
        units = work_units(bench, "typestate")
        setups = analysis_setups(bench, "typestate")
        assert len(units) == len(setups)
        assert [u.index for u in units] == list(range(len(units)))
        assert [list(u.query_ids) for u in units] == [
            [str(query) for query in queries] for _client, queries in setups
        ]

    def test_escape_is_one_unit(self, instances):
        assert len(work_units(instances["tsp"], "escape")) == 1

    def test_standard_benchmarks_ship_no_program(self, instances):
        assert all(
            u.front is None for u in work_units(instances["tsp"], "typestate")
        )


class TestSerialParallelDeterminism:
    @pytest.mark.parametrize("name", ["tsp", "elevator"])
    @pytest.mark.parametrize("analysis", ["typestate", "escape"])
    def test_jobs4_matches_jobs1(self, instances, name, analysis):
        serial = evaluate_benchmark(instances[name], analysis, CONFIG, jobs=1)
        parallel = evaluate_benchmark(instances[name], analysis, CONFIG, jobs=4)
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in parallel.records
        ]

    def test_evaluate_many_matches_serial(self, instances):
        serial = evaluate_many(instances, ("typestate", "escape"), CONFIG, jobs=1)
        parallel = evaluate_many(
            instances, ("typestate", "escape"), CONFIG, jobs=4
        )
        assert list(serial) == list(parallel)
        for name in serial:
            assert list(serial[name]) == list(parallel[name])
            for analysis in serial[name]:
                assert [
                    record_key(r) for r in serial[name][analysis].records
                ] == [record_key(r) for r in parallel[name][analysis].records]

    def test_custom_program_rides_along(self, instances):
        # A non-suite program must reach the workers by value.
        custom = prepare("tsp", instances["tsp"].front)
        assert not custom.standard
        serial = evaluate_benchmark(custom, "typestate", CONFIG, jobs=1)
        parallel = evaluate_benchmark(custom, "typestate", CONFIG, jobs=2)
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in parallel.records
        ]

    def test_single_unit_falls_back_to_serial(self, instances):
        result = evaluate_benchmark(instances["tsp"], "escape", CONFIG, jobs=4)
        assert result.query_count > 0


class TestRenderedOutputDeterminism:
    def test_tables_and_figure_identical_after_time_normalisation(
        self, instances
    ):
        import dataclasses

        from repro.bench.figures import render_figure12
        from repro.bench.tables import render_table2
        from repro.core.stats import summarize_records

        def rendered(results):
            aggregates = {
                name: tuple(
                    summarize_records(
                        [
                            dataclasses.replace(r, time_seconds=0.0)
                            for r in results[name][analysis].records
                        ]
                    )
                    for analysis in ("typestate", "escape")
                )
                for name in results
            }
            return render_figure12(aggregates) + "\n" + render_table2(aggregates)

        serial = evaluate_many(instances, ("typestate", "escape"), CONFIG, jobs=1)
        parallel = evaluate_many(
            instances, ("typestate", "escape"), CONFIG, jobs=4
        )
        assert rendered(serial) == rendered(parallel)


class TestOneClientPerUnit:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_single_setup_matches_full_setups(self, name):
        bench = prepare(name)
        for analysis in ANALYSES:
            setups = analysis_setups(bench, analysis)
            assert analysis_queries(bench, analysis) == [
                queries for _client, queries in setups
            ]
            for index, (client, queries) in enumerate(setups):
                single, single_queries = analysis_setup(bench, analysis, index)
                assert single_queries == queries
                assert type(single) is type(client)
                # The last element is a per-instance token; the rest
                # names the client (kind, tracked site, automaton).
                assert single.cache_key()[:-1] == client.cache_key()[:-1]

    def test_parent_builds_no_client(self, instances, monkeypatch):
        parent = os.getpid()
        built = []
        # The suite's two client classes; forked workers inherit the
        # wrappers but count under their own pid.
        for cls in (EscapeClient, TypestateClient):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                if os.getpid() == parent:
                    built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        results = evaluate_many(
            instances, ("typestate", "escape"), CONFIG, jobs=2
        )
        assert all(
            result.records
            for by_analysis in results.values()
            for result in by_analysis.values()
        )
        assert built == []


class TestClauseBusWithoutCertificates:
    """The bus's trace-free path: a run that does not certify publishes
    rounds without survivor traces, and a retry imports them all the
    same."""

    NAMES = ("elevator", "hedc", "weblech")
    #: Fails each task's fourth round on its first attempt, after three
    #: rounds reached the bus; the retry drains them.
    FAULT = "choose:raise:at=4,attempt=0"

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        instances = {name: prepare(name) for name in self.NAMES}
        directory = tmp_path_factory.mktemp("bus")

        def run(label, **options):
            lease_path = str(directory / f"{label}.leases")
            sink = MemorySink()
            with obs.tracing(sink):
                results = evaluate_many(
                    instances,
                    ("typestate", "escape"),
                    CONFIG,
                    jobs=2,
                    options=RunOptions(
                        group_size=4,
                        lease_path=lease_path,
                        fault_plan=FaultPlan.from_specs([self.FAULT]),
                        **options,
                    ),
                )
            imported = sum(
                1
                for entry in sink.events
                if entry.get("type") == "event"
                and entry.get("name") == "clause_imported"
            )
            survivors = [
                entry
                for record in load_bus_records(lease_path + ".bus")
                if record["type"] == "round"
                for entry in record["record"]["survivors"]
            ]
            keys = [
                record_key(record)
                for by_analysis in results.values()
                for result in by_analysis.values()
                for record in result.records
            ]
            return keys, imported, survivors, last_scheduler_stats()

        return {
            "bus": run("bus"),
            "no_bus": run("no-bus", clause_bus=False),
            "certify": run("certify", certify=True),
        }

    def test_rounds_are_imported(self, runs):
        assert runs["bus"][1] >= 1
        assert runs["no_bus"][1] == 0

    def test_records_match_a_run_without_the_bus(self, runs):
        assert runs["bus"][0] == runs["no_bus"][0]

    def test_traces_travel_only_when_certifying(self, runs):
        plain, certified = runs["bus"][2], runs["certify"][2]
        assert plain and all(entry["trace"] == [] for entry in plain)
        assert certified and all(entry["trace"] for entry in certified)

    def test_scheduler_stats_report_the_bus_size(self, runs):
        stats, certified = runs["bus"][3], runs["certify"][3]
        # The header plus one record per published round.
        assert stats["bus_records"] == certified["bus_records"] > 1
        assert 0 < stats["bus_bytes"] < certified["bus_bytes"]
        assert runs["no_bus"][3]["bus_records"] == 0
