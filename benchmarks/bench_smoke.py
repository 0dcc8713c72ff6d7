"""Perf smoke benchmark: micro kernels + a scaled-down evaluation.

Runs in well under a minute and writes a machine-readable
``BENCH_smoke.json`` (timestamped wall-clock timings and cache-hit
rates) so successive PRs leave a perf trajectory that can be diffed.

Usage::

    scripts/bench_smoke.sh            # or
    PYTHONPATH=src python benchmarks/bench_smoke.py [output.json]

The module is import-safe for pytest collection; all work happens in
:func:`main`.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from dataclasses import dataclass


def _time_kernel(kernel, repeats=5):
    """Median-of-N wall time of ``kernel`` in seconds.

    The median (not the best) is what the trend gate compares across
    runs: it is robust to one-off scheduler hiccups in either
    direction, where best-of-N hides consistent slowdowns behind a
    single lucky run.  Cycle collection is paused while timing (the
    same hygiene ``timeit`` applies): a generation sweep landing inside
    one repeat would otherwise dominate the shorter kernels.
    """
    import gc

    times = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


# -- micro kernels (self-contained versions of bench_micro's hot paths) -------


def micro_dnf_simplify_cold():
    """DNF conversion plus ``simplify`` on 20 random formulas, each
    repeat with a fresh theory: its cube codec starts empty, so the
    median times real conversion work rather than memo hits."""
    from repro.core.formula import Primitive, Theory, conj, disj, lit, nlit, simplify, to_dnf

    @dataclass(frozen=True)
    class Atom(Primitive):
        name: str

    class AtomTheory(Theory):
        def holds(self, prim, p, d):
            return True

        def is_param(self, prim):
            return False

    rng = random.Random(7)
    atoms = [lit(Atom(f"s{i}")) for i in range(8)] + [
        nlit(Atom(f"s{i}")) for i in range(8)
    ]
    formulas = [
        disj(*(conj(*rng.sample(atoms, rng.randint(2, 4))) for _ in range(12)))
        for _ in range(20)
    ]

    def kernel():
        theory = AtomTheory()
        return [simplify(to_dnf(f, theory), theory) for f in formulas]

    return _time_kernel(kernel)


def micro_mincost_sat():
    from repro.core.minsat import MinCostSat, NegLit, PosLit

    rng = random.Random(13)
    variables = [f"v{i}" for i in range(20)]
    clauses = [
        [
            (PosLit if rng.random() < 0.7 else NegLit)(rng.choice(variables))
            for _ in range(rng.randint(1, 3))
        ]
        for _ in range(40)
    ]

    def kernel():
        solver = MinCostSat()
        for clause in clauses:
            solver.add_clause(clause)
        return solver.solve()

    return _time_kernel(kernel)


def micro_collecting_run():
    from repro.dataflow import run_collecting
    from repro.escape import EscSchema, EscapeAnalysis
    from repro.lang import build_cfg, parse_program

    program = parse_program(
        """
        loop {
          choice {
            u = new h1
            v = u
          } or {
            $g = v
            w = $g
          }
          v.f = u
        }
        observe q
        """
    )
    analysis = EscapeAnalysis(EscSchema(["u", "v", "w"], ["f"]), frozenset({"h1"}))
    cfg = build_cfg(program)
    p = frozenset({"h1"})

    def kernel():
        return run_collecting(
            cfg,
            analysis.semantics.bound_step(p),
            analysis.initial_state(),
        )

    return _time_kernel(kernel)


def micro_forward_phase():
    """End-to-end forward runs over the smoke suite.

    Each workload's escape, typestate and provenance clients analyse
    the program under the bottom abstraction, three singletons and the
    full universe.  One untimed warm-up pass first builds the dispatch
    tables, so the number measures steady-state execution, matching
    how the TRACER loop reruns the forward phase hundreds of times per
    query.  Returns the median of nine timed passes.
    """
    from repro.bench.harness import escape_setup, prepare, typestate_setup
    from repro.lang.universe import collect_universe
    from repro.provenance.client import ProvenanceClient
    from repro.provenance.domain import PtSchema

    runs = []
    for name in SMOKE_BENCHMARKS:
        bench = prepare(name)
        clients = [escape_setup(bench)[0]]
        clients += [client for client, _queries in typestate_setup(bench)[:1]]
        universe = collect_universe(bench.inlined.program)
        clients.append(
            ProvenanceClient(
                bench.inlined.program,
                PtSchema(universe.variables),
                universe.sites,
            )
        )
        for client in clients:
            space = client.analysis.param_space
            keys = sorted(getattr(space, "universe", None) or space.keys)
            abstractions = [frozenset()]
            abstractions += [frozenset({x}) for x in keys[:3]]
            abstractions.append(frozenset(keys))
            runs.append((client, abstractions))

    def kernel():
        for client, abstractions in runs:
            for p in abstractions:
                client.run_forward(p)

    kernel()  # warm-up: build dispatch tables
    return _time_kernel(kernel, repeats=9)


# -- scaled-down evaluation ---------------------------------------------------

SMOKE_BENCHMARKS = ("tsp", "elevator", "hedc")
SMOKE_ANALYSES = ("typestate", "escape")


def smoke_evaluation():
    """Serial and 2-worker evaluation of the smoke benchmarks; returns
    timings plus forward-run cache-hit rates and pool-reuse counters.

    The 2-worker evaluation is run twice: the first (cold) pass pays
    the one-time worker spawn, the second (warm) pass reuses the
    process-wide shared pool — the steady state of any caller doing
    more than one evaluation per process, and the number the
    ``parallel ≤ serial`` regression gate watches.  Both are recorded.
    """
    from repro.bench.harness import prepare
    from repro.bench.parallel import evaluate_many
    from repro.core.tracer import TracerConfig
    from repro.robust.pool import pool_stats

    config = TracerConfig(k=5, max_iterations=30)
    instances = {name: prepare(name) for name in SMOKE_BENCHMARKS}

    started = time.perf_counter()
    serial = evaluate_many(instances, SMOKE_ANALYSES, config, jobs=1)
    serial_seconds = time.perf_counter() - started

    stats_before = pool_stats()
    started = time.perf_counter()
    evaluate_many(instances, SMOKE_ANALYSES, config, jobs=2)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = evaluate_many(instances, SMOKE_ANALYSES, config, jobs=2)
    parallel_seconds = time.perf_counter() - started
    stats_after = pool_stats()
    pool_delta = {
        key: stats_after[key] - stats_before.get(key, 0)
        for key in stats_after
    }

    per_workload = {}
    for name in SMOKE_BENCHMARKS:
        for analysis in SMOKE_ANALYSES:
            result = serial[name][analysis]
            par = parallel[name][analysis]
            same = [
                (r.query_id, r.status.value, r.iterations)
                for r in result.records
            ] == [
                (r.query_id, r.status.value, r.iterations) for r in par.records
            ]
            per_workload[f"{name}/{analysis}"] = {
                "queries": result.query_count,
                "forward_hits": result.forward_hits,
                "forward_misses": result.forward_misses,
                "forward_hit_rate": round(result.forward_hit_rate, 4),
                "serial_matches_parallel": same,
            }
    return {
        "benchmarks": list(SMOKE_BENCHMARKS),
        "analyses": list(SMOKE_ANALYSES),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds_jobs2": round(parallel_seconds, 4),
        "parallel_seconds_jobs2_cold": round(cold_seconds, 4),
        "pool": pool_delta,
        "workloads": per_workload,
    }


def scheduler_bench():
    """Wave pool vs lease scheduler on the smoke workloads, plus a
    faulted lease run (docs/ROBUSTNESS.md, "Leases and work stealing").

    Three 2-worker evaluations of the same workloads: the PR 4
    lock-step wave pool, the lease-based work-stealing scheduler, and
    the lease scheduler with one worker SIGKILLed on its first claim —
    the last one records how many leases were stolen and recovered
    through parent force-release/TTL expiry, and asserts the faulted
    run's records still match the clean one.  ``bench_trend`` watches
    the waves/leases wall-clock ratio for scheduler overhead creep, and
    gates on the clean run's clause-bus record count.
    """
    from repro.bench.harness import prepare
    from repro.bench.parallel import (
        RunOptions,
        evaluate_many,
        last_scheduler_stats,
    )
    from repro.core.tracer import TracerConfig

    config = TracerConfig(k=5, max_iterations=30)
    instances = {name: prepare(name) for name in SMOKE_BENCHMARKS}

    def keys(results):
        return [
            (name, analysis, r.query_id, r.status.value, r.iterations)
            for name in SMOKE_BENCHMARKS
            for analysis in SMOKE_ANALYSES
            for r in results[name][analysis].records
        ]

    started = time.perf_counter()
    waves = evaluate_many(
        instances, SMOKE_ANALYSES, config, jobs=2,
        options=RunOptions(scheduler="waves"),
    )
    waves_seconds = time.perf_counter() - started

    started = time.perf_counter()
    leases = evaluate_many(
        instances, SMOKE_ANALYSES, config, jobs=2,
        options=RunOptions(scheduler="leases"),
    )
    leases_seconds = time.perf_counter() - started
    clean_stats = last_scheduler_stats()

    started = time.perf_counter()
    faulted = evaluate_many(
        instances, SMOKE_ANALYSES, config, jobs=2,
        options=RunOptions(
            scheduler="leases",
            heartbeat_interval=0.1,
            lease_ttl=1.0,
            worker_faults=(("scheduler.task:kill:at=1",), None),
        ),
    )
    faulted_seconds = time.perf_counter() - started
    faulted_stats = last_scheduler_stats()

    return {
        "benchmarks": list(SMOKE_BENCHMARKS),
        "analyses": list(SMOKE_ANALYSES),
        "waves_seconds_jobs2": round(waves_seconds, 4),
        "leases_seconds_jobs2": round(leases_seconds, 4),
        "leases_vs_waves": (
            round(leases_seconds / waves_seconds, 4) if waves_seconds else 0.0
        ),
        "clean": {
            "claims": clean_stats.get("claims"),
            "steals": clean_stats.get("steals"),
            "expiries": clean_stats.get("expiries"),
            # Deterministic on a clean run: bench_trend gates on it.
            "bus_records": clean_stats.get("bus_records"),
            "bus_bytes": clean_stats.get("bus_bytes"),
        },
        "faulted_kill_seconds": round(faulted_seconds, 4),
        "faulted": {
            "claims": faulted_stats.get("claims"),
            "steals": faulted_stats.get("steals"),
            "expiries": faulted_stats.get("expiries"),
            "respawns": faulted_stats.get("respawns"),
        },
        "leases_match_waves": keys(leases) == keys(waves),
        "faulted_matches_clean": keys(faulted) == keys(leases),
    }


def avrora_escape():
    """One full ``avrora``/thread-escape unit, the workload the backward
    meta-analysis dominates.

    Records the unit's in-process CPU seconds next to deterministic
    counts — statuses, resolved queries, TRACER iterations, total
    abstraction cost, and the backward pass's calls, trace commands and
    beam prunes — so a CPU change can be told apart from a change in
    the work done.
    """
    from collections import Counter

    import repro.core.tracer as tracer_module
    from repro.bench.harness import DEFAULT_CONFIG, evaluate_benchmark, prepare

    bench = prepare("avrora")
    counts = {"backward_calls": 0, "trace_cmds": 0, "beam_prunes": 0}
    original = tracer_module.backward_trace

    def counted(meta, analysis, trace, *args, **kwargs):
        result = original(meta, analysis, trace, *args, **kwargs)
        counts["backward_calls"] += 1
        counts["trace_cmds"] += len(trace)
        counts["beam_prunes"] += result.beam_prunes
        return result

    tracer_module.backward_trace = counted
    try:
        started = time.process_time()
        result = evaluate_benchmark(bench, "escape", DEFAULT_CONFIG)
        cpu_seconds = time.process_time() - started
    finally:
        tracer_module.backward_trace = original
    records = result.records
    statuses = Counter(r.status.value for r in records)
    return {
        "cpu_seconds": round(cpu_seconds, 3),
        "queries": len(records),
        "resolved": statuses["proven"] + statuses["impossible"],
        "statuses": dict(sorted(statuses.items())),
        "iterations": sum(r.iterations for r in records),
        "abstraction_cost": sum(
            len(r.abstraction) for r in records if r.abstraction is not None
        ),
        **counts,
    }


def serve_warm():
    """Warm-vs-cold serving through the resident session + knowledge
    store (docs/SERVING.md).

    One fresh session with an empty store runs every smoke workload
    cold (recording each finished search), then a second fresh session
    re-opens the same store file and runs the identical workloads —
    the warm pass must answer every unit from the store's replay tier
    (store hit rate 1.0, zero forward fixpoint re-runs for proven
    queries) with verdicts identical to the cold pass.  Records the
    two wall times, the hit rate, and the equivalence bit the
    acceptance gate watches.
    """
    import tempfile

    from repro.core.tracer import TracerConfig
    from repro.serve.session import AnalysisSession
    from repro.serve.store import KnowledgeStore

    config = TracerConfig(k=5, max_iterations=30)
    store_path = os.path.join(
        tempfile.gettempdir(), f"bench_smoke_store_{os.getpid()}.jsonl"
    )
    if os.path.exists(store_path):
        os.remove(store_path)

    from repro.obs.metrics import Histogram

    def run_pass():
        # Per-unit latencies feed a fixed-bucket Histogram (the same
        # class the daemon scrapes), so the smoke report carries the
        # p50/p95/p99 shape, not just the total.
        histogram = Histogram("bench_unit_seconds")
        with KnowledgeStore(store_path) as store:
            session = AnalysisSession(store=store)
            verdicts = {}
            modes = []
            started = time.perf_counter()
            for name in SMOKE_BENCHMARKS:
                for analysis in SMOKE_ANALYSES:
                    unit_started = time.perf_counter()
                    for index, queries, result in session.solve_benchmark(
                        name, analysis, config
                    ):
                        now = time.perf_counter()
                        histogram.observe(now - unit_started)
                        unit_started = now
                        modes.append(result.mode)
                        for query in queries:
                            record = result.records[query]
                            verdicts[f"{name}/{analysis}/{index}/{query}"] = (
                                record.status.value,
                                record.iterations,
                            )
            seconds = time.perf_counter() - started
            hit_rate = store.hit_rate
        return seconds, verdicts, modes, hit_rate, histogram

    def latency_summary(histogram):
        return {
            "count": histogram.merged().count,
            "p50": round(histogram.quantile(0.50) or 0.0, 6),
            "p95": round(histogram.quantile(0.95) or 0.0, 6),
            "p99": round(histogram.quantile(0.99) or 0.0, 6),
        }

    cold_seconds, cold_verdicts, cold_modes, _, cold_hist = run_pass()
    warm_seconds, warm_verdicts, warm_modes, warm_hit_rate, warm_hist = (
        run_pass()
    )
    os.remove(store_path)
    return {
        "benchmarks": list(SMOKE_BENCHMARKS),
        "analyses": list(SMOKE_ANALYSES),
        "units": len(cold_modes),
        "queries": len(cold_verdicts),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else 0.0,
        "cold_modes": sorted(set(cold_modes)),
        "warm_modes": sorted(set(warm_modes)),
        "warm_store_hit_rate": round(warm_hit_rate, 4),
        "warm_matches_cold": warm_verdicts == cold_verdicts,
        "latency": {
            "cold": latency_summary(cold_hist),
            "warm": latency_summary(warm_hist),
        },
    }


def serve_burst():
    """Admission control under a concurrent burst (docs/SERVING.md,
    "Operating the daemon").

    Runs an in-thread daemon with a single execution slot and a
    shallow admission queue, then fires a burst of concurrent clients
    at it — more than the queue can hold.  Some requests are shed with
    a retryable ``overloaded`` envelope and succeed on a backoff
    retry; all of them must finish.  Records the burst wall time, the
    queue-wait percentiles, and the shed/retry counts so
    ``bench_trend`` can spot an admission-control regression (a queue
    that stops shedding, or queue waits growing across PRs).
    """
    import asyncio
    import tempfile
    import threading

    from repro.core.tracer import TracerConfig
    from repro.serve.client import ServeClient
    from repro.serve.server import AnalysisServer

    burst = 8
    workdir = tempfile.mkdtemp(prefix="bench_serve_burst_")
    server = AnalysisServer(
        os.path.join(workdir, "serve.sock"),
        store_path=os.path.join(workdir, "store.jsonl"),
        config=TracerConfig(k=5, max_iterations=30),
        queue_depth=2,
    )
    ready = threading.Event()

    def run():
        async def main():
            task = asyncio.ensure_future(server.run())
            while not (
                server._server is not None and server._server.is_serving()
            ):
                await asyncio.sleep(0.01)
            ready.set()
            await task

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    ready.wait(timeout=30)

    program = "u = new h1\nv = new h2\nv.f = u\nobserve pc\n"
    clients = [
        ServeClient(server.socket_path, timeout=120, retries=8)
        for _ in range(burst)
    ]
    outcomes = []

    def submit(index):
        # Distinct sources → distinct cold solves: every request does
        # real work, so the queue actually backs up.
        reply = clients[index].solve(
            "escape", program, query="pc", var="u", source=f"burst{index}"
        )
        outcomes.append(reply["ok"])

    started = time.perf_counter()
    threads = [
        threading.Thread(target=submit, args=(i,)) for i in range(burst)
    ]
    for worker in threads:
        worker.start()
    for worker in threads:
        worker.join(120)
    seconds = time.perf_counter() - started

    shed = server.telemetry.shed_counts()
    queue = server.telemetry.queue_seconds
    retries = sum(client.retries_made for client in clients)
    ServeClient(server.socket_path, timeout=30).shutdown()
    thread.join(timeout=30)
    return {
        "burst": burst,
        "queue_depth": 2,
        "completed": sum(1 for ok in outcomes if ok),
        "burst_seconds": round(seconds, 4),
        "shed": shed,
        "client_retries": retries,
        "queue_wait": {
            "count": queue.merged().count,
            "p50": round(queue.quantile(0.50) or 0.0, 6),
            "p95": round(queue.quantile(0.95) or 0.0, 6),
        },
    }


def tracing_overhead():
    """Cost of the observability layer on one fixed workload.

    Times the ``tsp``/``typestate`` evaluation three ways: with no sink
    installed (the production default — instrumentation points reduce
    to one global read), with a :class:`NullSink` (records are built
    and discarded), and with a :class:`JsonlSink` (records are written
    to disk).  The deltas are recorded so successive PRs can spot
    instrumentation creep; the no-sink run must stay within a few
    percent of what the un-instrumented loop cost.
    """
    import tempfile

    from repro.bench.harness import evaluate_benchmark, prepare
    from repro.core.tracer import TracerConfig
    from repro.obs import trace as obs
    from repro.obs.sinks import JsonlSink, NullSink

    config = TracerConfig(k=5, max_iterations=30)
    bench = prepare("tsp")

    def run_plain():
        evaluate_benchmark(bench, "typestate", config)

    def run_null():
        with obs.tracing(NullSink()):
            evaluate_benchmark(bench, "typestate", config)

    trace_path = os.path.join(tempfile.gettempdir(), "bench_smoke_trace.jsonl")

    def run_jsonl():
        with obs.tracing(JsonlSink(trace_path)):
            evaluate_benchmark(bench, "typestate", config)

    baseline = _time_kernel(run_plain, repeats=3)
    null_sink = _time_kernel(run_null, repeats=3)
    jsonl_sink = _time_kernel(run_jsonl, repeats=3)
    with open(trace_path) as handle:
        trace_records = sum(1 for line in handle if line.strip())
    os.remove(trace_path)

    def overhead(seconds):
        return round(seconds / baseline - 1.0, 4) if baseline else 0.0

    return {
        "workload": "tsp/typestate",
        "no_sink_seconds": round(baseline, 6),
        "null_sink_seconds": round(null_sink, 6),
        "jsonl_sink_seconds": round(jsonl_sink, 6),
        "null_sink_overhead": overhead(null_sink),
        "jsonl_sink_overhead": overhead(jsonl_sink),
        "trace_records": trace_records,
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_smoke.json",
    )
    started = time.perf_counter()
    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "micro_seconds": {
            "dnf_simplify_cold": round(micro_dnf_simplify_cold(), 6),
            "mincost_sat": round(micro_mincost_sat(), 6),
            "collecting_run": round(micro_collecting_run(), 6),
            "forward_phase": round(micro_forward_phase(), 6),
        },
        "evaluation": smoke_evaluation(),
        "avrora_escape": avrora_escape(),
        "scheduler": scheduler_bench(),
        "serve_warm": serve_warm(),
        "serve_burst": serve_burst(),
        "tracing_overhead": tracing_overhead(),
    }
    report["total_seconds"] = round(time.perf_counter() - started, 4)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {out_path} in {report['total_seconds']:.1f}s")
    budget_ok = report["total_seconds"] < 60
    print("within 60s budget" if budget_ok else "WARNING: exceeded 60s budget")
    return 0 if budget_ok else 1


if __name__ == "__main__":
    sys.exit(main())
