"""Process-parallel evaluation of independent TRACER workloads.

The evaluation decomposes naturally: every ``(benchmark, analysis,
client)`` triple is an independent TRACER run (typestate clients track
different allocation sites and share nothing; benchmarks are disjoint
programs), so the harness can fan those units across a process pool
and merge the results deterministically — unit results are
concatenated in the exact order the serial harness would have produced
them, so statuses, abstractions, and iteration counts are
byte-for-byte identical to ``jobs=1`` (only wall-clock fields differ).

Work units are described by *name + unit index* (plus the unit's query
ids, listed once in the parent without building any client), not by
pickled client objects: each worker process synthesizes the benchmark
itself (memoised per process, and inherited for free on fork-based
platforms via :func:`_seed_instance`), builds only its unit's client,
and runs it.  Custom (non-suite) programs ride along as a pickled
:class:`~repro.frontend.program.FrontProgram`.

Scheduling is lease-based work stealing by default
(:mod:`repro.robust.scheduler`): workers claim *tasks* — whole units,
or sub-unit query groups when :attr:`RunOptions.group_size` is set —
off a durable, flock-coordinated lease log, heartbeat while solving,
and durably complete with first-completion-wins dedup; a SIGKILLed or
hung worker's leases expire (or are force-released by the parent
supervisor) and are reclaimed by siblings, and the clause bus
(:mod:`repro.robust.clausebus`) lets a reclaiming worker replay the
dead worker's already-published CEGAR rounds — re-validated clause by
clause — instead of re-running their forward fixpoints.  The PR 4
lock-step wave pool (:mod:`repro.robust.pool`) remains available as
``RunOptions(scheduler="waves")``; in both modes units that keep
failing land in
:attr:`~repro.bench.harness.EvalResult.failed_units` instead of
raising.  Because units are pure functions of ``(benchmark, analysis,
index, config)``, a retried unit reproduces its records bit-for-bit,
so the merge stays deterministic across crashes.  Completed units can
be checkpointed to JSONL (:class:`RunOptions.checkpoint_path`) and a
later run resumed from them (:mod:`repro.robust.checkpoint`) — in
lease mode, resumption additionally skips *query groups* that
completed durably in the lease log even when their unit never
finished.

Entry points:

* :func:`evaluate_benchmark_parallel` — one benchmark, one analysis
  (what ``evaluate_benchmark(..., jobs=N)`` delegates to);
* :func:`evaluate_many` — the full cross product used by
  ``full_report(jobs=N)`` and ``repro eval --jobs N``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    BenchmarkInstance,
    DEFAULT_CONFIG,
    EvalResult,
    analysis_queries,
    analysis_setup,
    counters_from_metrics,
)
from repro.core.stats import CacheCounters, QueryRecord
from repro.core.tracer import ForwardRunCache, Tracer, TracerConfig
from repro.frontend.program import FrontProgram
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.obs.events import merge_streams
from repro.obs.sinks import MemorySink
from repro.robust import faults as robust_faults
from repro.robust.checkpoint import (
    CheckpointWriter,
    UnitKey,
    load_checkpoint,
)
from repro.robust.clausebus import (
    ClauseBus,
    ClauseFeed,
    ClauseFeedMismatch,
    load_bus_records,
)
from repro.robust.faults import FaultPlan
from repro.robust.leases import TaskKey, payload_fingerprint
from repro.robust.pool import RetryPolicy, UnitOutcome, run_units
from repro.robust.scheduler import SchedulerResult, run_leased

#: The instance memos behind :func:`_seed_instance` / :func:`_instance`
#: now live on the process-wide :class:`~repro.serve.session.AnalysisSession`
#: (forked workers inherit the parent's session, exactly as they
#: inherited the former module-level dicts).


@dataclass(frozen=True)
class RunOptions:
    """Robustness knobs of one parallel evaluation."""

    #: Retry/timeout policy of the crash-surviving pool.
    retry: RetryPolicy = RetryPolicy()
    #: JSONL file to append completed units to (``None`` = off).
    checkpoint_path: Optional[str] = None
    #: Load the checkpoint first and run only the missing units.
    resume: bool = False
    #: Deterministic fault plan shipped to every worker (tests, chaos).
    fault_plan: Optional[FaultPlan] = None
    #: Emit (and checkpoint) per-query verdict certificates.
    certify: bool = False
    #: Scheduling model: ``"leases"`` (the lease-based work-stealing
    #: scheduler, the default) or ``"waves"`` (the PR 4 lock-step pool,
    #: kept as a fallback).
    scheduler: str = "leases"
    #: Lease mode only: split each unit's queries into groups of at
    #: most this many for sub-unit scheduling (``0`` = whole units).
    #: Grouped runs decompose the Section 6 query groups differently,
    #: so records match a serial run *of the same decomposition*, not
    #: the whole-unit serial harness.
    group_size: int = 0
    #: Lease mode: worker heartbeat period (seconds).
    heartbeat_interval: float = 0.25
    #: Lease mode: a lease whose worker has not heartbeat for this long
    #: is expired and claimable by siblings.
    lease_ttl: float = 5.0
    #: Lease log location (default: ``checkpoint_path + ".leases"``, or
    #: a throwaway temp file when not checkpointing).
    lease_path: Optional[str] = None
    #: Lease mode: share learned rounds across workers through the
    #: clause bus (see :mod:`repro.robust.clausebus`).
    clause_bus: bool = True
    #: Lease mode: extra fault-rule specs per worker index (chaos).
    worker_faults: Optional[Tuple[Optional[Tuple[str, ...]], ...]] = None


@dataclass(frozen=True)
class WorkUnit:
    """One independent TRACER workload: a single ``(client, queries)``
    pair of one analysis on one benchmark."""

    benchmark: str
    analysis: str
    index: int  # position in analysis_setups(bench, analysis)
    token: int  # parent-side instance token (for the fork-time memo)
    front: Optional[FrontProgram] = None  # only for non-suite programs
    #: ``str`` of every query of the unit, in order (see
    #: :func:`~repro.bench.harness.analysis_queries`): what the lease
    #: scheduler sizes groups by, so the parent never builds a client.
    query_ids: Tuple[str, ...] = ()

    @property
    def key(self) -> UnitKey:
        """Run-independent identity (the checkpoint key): the seed
        token deliberately does not participate."""
        return (self.benchmark, self.analysis, self.index)


def _seed_instance(bench: BenchmarkInstance) -> int:
    """Register ``bench`` in the process-wide session and return its
    token.  Called in the parent *before* the pool forks, so workers
    start with the instance already in memory.  Fork-based platforms
    inherit the parent's seeded entries; spawn-based platforms fall
    back to preparing from the unit description.  The session also
    keeps a cross-token memo of *suite* benchmarks keyed by name alone:
    the shared pool outlives a single evaluation, so a worker forked
    during evaluation N serves units of evaluation N+1 whose token it
    never saw seeded — suite programs are deterministic functions of
    their name, so the instance synthesized under the old token is
    still the right one."""
    from repro.serve.session import process_session

    return process_session().seed(bench)


def _instance(unit: WorkUnit) -> BenchmarkInstance:
    from repro.serve.session import process_session

    return process_session().instance(unit.benchmark, unit.token, unit.front)


#: ``(records, registry snapshot, trace events, certificates)`` of one
#: work unit.  The snapshot is the unit's scoped metrics registry read
#: once at the end; the event list is empty unless the parent asked for
#: tracing, and the certificate list unless it asked to certify.
UnitResult = Tuple[
    List[QueryRecord], Dict[str, CacheCounters], List[dict], List[dict]
]


def _run_unit(
    unit: WorkUnit,
    config: TracerConfig,
    collect_events: bool = False,
    certify: bool = False,
) -> UnitResult:
    """Worker entry point (wave pool): run one whole unit."""
    return _run_group(unit, None, config, collect_events, certify)


def _run_group(
    unit: WorkUnit,
    group: Optional[Tuple[int, int, int]],
    config: TracerConfig,
    collect_events: bool = False,
    certify: bool = False,
    clause_feed=None,
) -> UnitResult:
    """Worker entry point: run one unit — or, when ``group`` is
    ``(lo, hi, group_index)``, the query slice ``[lo:hi]`` of it —
    under a scoped metrics registry (and, when requested, an in-memory
    trace sink), returning its records in query order plus the registry
    snapshot, the captured event stream, and the stamped verdict
    certificates.  ``clause_feed`` plugs the solve into the cross-worker
    clause bus (lease mode)."""
    bench = _instance(unit)
    # Fault sites for the chaos/retry machinery: a generic one and one
    # addressing this exact unit.  A "corrupt" rule damages the unit's
    # output, which the integrity check below turns into a retryable
    # failure instead of a silent bad merge.
    corrupt = robust_faults.inject("unit")
    corrupt = (
        robust_faults.inject(
            f"unit:{unit.benchmark}:{unit.analysis}:{unit.index}"
        )
        or corrupt
    )
    sink = MemorySink() if collect_events else None
    with obs_metrics.scoped_registry() as registry:
        # Client construction happens inside the scope so the caches
        # it builds (dispatch tables, wp memos) register here.
        client, queries = analysis_setup(bench, unit.analysis, unit.index)
        group_queries = queries if group is None else queries[group[0]:group[1]]
        if not group_queries:
            return [], {}, [], []
        cache = (
            ForwardRunCache(config.forward_cache_size)
            if config.forward_cache_size
            else None
        )
        store = None
        if certify:
            from repro.robust.certify import CertificateStore

            store = CertificateStore()

        def run():
            attrs = dict(
                benchmark=unit.benchmark,
                analysis=unit.analysis,
                unit=unit.index,
                queries=len(group_queries),
            )
            if group is not None:
                attrs["group"] = group[2]
            with obs.span("workload", **attrs):
                return Tracer(
                    client,
                    config,
                    forward_cache=cache,
                    certificates=store,
                    clause_feed=clause_feed,
                ).solve_all(group_queries)

        if sink is not None:
            # The unit's stable identity doubles as the schema v2
            # trace id, so merged worker streams stay correlated per
            # unit (and `repro trace profile --by-trace` can attribute
            # time to units).
            trace_id = f"unit:{unit.benchmark}:{unit.analysis}:{unit.index}"
            if group is not None:
                trace_id += f":g{group[2]}"
            with obs.tracing(sink, trace_id=trace_id):
                solved = run()
        else:
            solved = run()
        snapshot = registry.snapshot()
    records = [solved[q] for q in group_queries]
    if corrupt:
        records = records[:-1]
    if len(records) != len(group_queries):
        raise RuntimeError(
            f"unit {unit.benchmark}:{unit.analysis}:{unit.index} produced "
            f"{len(records)} records for {len(group_queries)} queries"
        )
    certificates: List[dict] = []
    if store is not None:
        from repro.bench.harness import stamp_certificates

        # Stamp against the unit's *full* query list so ``query_index``
        # is the position in the unit regardless of group decomposition.
        certificates = stamp_certificates(
            store, unit.benchmark, unit.analysis, unit.index, queries
        )
    return (
        records,
        snapshot,
        sink.events if sink is not None else [],
        certificates,
    )


def _execute_unit(task: Tuple, attempt: int) -> UnitResult:
    """Pool-facing wrapper: installs the shipped fault plan (tagged
    with the attempt number, so rules can target first attempts only)
    around :func:`_run_unit`."""
    unit, config, collect_events, certify, plan = task
    if plan is None:
        return _run_unit(unit, config, collect_events, certify)
    with robust_faults.fault_scope(plan, attempt=attempt):
        return _run_unit(unit, config, collect_events, certify)


#: Counters of the most recent lease-scheduled run in this process
#: (claims, steals, expiries, respawns, ..., and the clause bus's
#: ``bus_records``/``bus_bytes`` read off the file after the run) —
#: read by the bench suite and surfaced as scheduler gauges.
_LAST_SCHEDULER_STATS: Dict[str, int] = {}


def last_scheduler_stats() -> Dict[str, int]:
    """Stats of the most recent lease-scheduled evaluation (empty if
    none ran in this process)."""
    return dict(_LAST_SCHEDULER_STATS)


def _group_payload(
    task: TaskKey, query_ids: Sequence[str], result: UnitResult
) -> Tuple[dict, str]:
    """Serialise one group's :data:`UnitResult` into the JSON payload
    stored in the lease log, plus its semantic fingerprint (records
    with wall-clock zeroed + certificates; metrics and trace events are
    legitimately attempt-dependent and excluded)."""
    from repro.bench.export import record_to_dict

    records, metrics, events, certificates = result
    payload = {
        "task": list(task),
        "queries": list(query_ids),
        "records": [record_to_dict(record) for record in records],
        "metrics": {
            name: {"hits": counters.hits, "misses": counters.misses}
            for name, counters in sorted(metrics.items())
        },
        "events": list(events),
        "certificates": list(certificates),
    }
    normalized = dict(
        payload,
        records=[
            dict(record, time_seconds=0.0) for record in payload["records"]
        ],
    )
    return payload, payload_fingerprint(
        normalized, volatile=("metrics", "events")
    )


def _payload_result(payload: dict) -> UnitResult:
    """Inverse of :func:`_group_payload` (modulo the rounded times)."""
    from repro.bench.export import record_from_dict

    records = [record_from_dict(item) for item in payload.get("records", [])]
    metrics = {
        name: CacheCounters(
            hits=int(entry["hits"]), misses=int(entry["misses"])
        )
        for name, entry in payload.get("metrics", {}).items()
    }
    return (
        records,
        metrics,
        list(payload.get("events", [])),
        list(payload.get("certificates", [])),
    )


def _bus_size(path: str) -> Tuple[int, int]:
    """``(intact records, bytes)`` of a clause bus; ``(0, 0)`` when it
    is missing or unreadable (the stats never fail a run)."""
    try:
        return len(load_bus_records(path)), os.path.getsize(path)
    except (OSError, ValueError):
        return 0, 0


def _run_leased(
    units: Sequence[WorkUnit],
    config: TracerConfig,
    options: RunOptions,
    max_workers: int,
) -> Tuple[List[Optional[UnitResult]], List[str], bool]:
    """Run ``units`` on the lease-based work-stealing scheduler
    (:func:`repro.robust.scheduler.run_leased`), honouring both layers
    of durability: the classic unit-granularity checkpoint (written for
    every finished unit, resumable by older tooling) and the lease log
    at group granularity — on ``--resume``, groups that completed
    durably before a crash are taken from the lease log even when their
    unit never finished, so a unit that died 9/10 groups in re-solves
    only the last group.

    Same contract as :func:`_run_resilient`: ``(per-unit results in
    unit order, failed unit descriptions, degraded flag)``.
    """
    import shutil as _shutil
    import tempfile as _tempfile

    from repro.robust.leases import LeaseConsistencyError

    results: List[Optional[UnitResult]] = [None] * len(units)
    resumed = 0
    if options.resume and options.checkpoint_path:
        completed = load_checkpoint(options.checkpoint_path)
        for position, unit in enumerate(units):
            payload = completed.get(unit.key)
            if payload is not None:
                records, metrics, _attempts, certificates = payload
                results[position] = (records, metrics, [], certificates)
                resumed += 1
    pending = [i for i in range(len(units)) if results[i] is None]
    collect = obs.active()

    # Decompose pending units into group tasks, sized off the query ids
    # the units carry: the parent builds no client.
    tasks: List[TaskKey] = []
    bounds_of: Dict[TaskKey, Optional[Tuple[int, int, int]]] = {}
    queries_of: Dict[TaskKey, List[str]] = {}
    position_of: Dict[TaskKey, int] = {}
    unit_tasks: Dict[int, List[TaskKey]] = {}
    size = max(0, options.group_size)
    for position in pending:
        unit = units[position]
        ids = list(unit.query_ids)
        count = len(ids)
        if size and count > size:
            groups: List[Optional[Tuple[int, int, int]]] = [
                (lo, min(lo + size, count), gi)
                for gi, lo in enumerate(range(0, count, size))
            ]
        else:
            groups = [None]  # whole unit — identical to the wave shape
        for gi, bounds in enumerate(groups):
            task: TaskKey = (unit.benchmark, unit.analysis, unit.index, gi)
            tasks.append(task)
            bounds_of[task] = bounds
            queries_of[task] = (
                ids if bounds is None else ids[bounds[0]:bounds[1]]
            )
            position_of[task] = position
            unit_tasks.setdefault(position, []).append(task)

    lease_path = options.lease_path
    if lease_path is None and options.checkpoint_path:
        lease_path = options.checkpoint_path + ".leases"
    cleanup: Optional[str] = None
    if lease_path is None:
        cleanup = _tempfile.mkdtemp(prefix="repro-leases-")
        lease_path = os.path.join(cleanup, "run.leases")
    bus_path = lease_path + ".bus"
    if options.clause_bus and tasks:
        # Parent creates (or truncates) the bus before any worker runs.
        ClauseBus(bus_path, worker="parent", fresh=not options.resume)

    use_bus = options.clause_bus
    #: The worker's bus handle, by pid: opened on the worker's first
    #: task (after the fork; the parent's copy stays empty) and reused
    #: by its later ones, so each worker parses the bus once, not once
    #: per task.
    buses: Dict[int, ClauseBus] = {}

    def execute(task: TaskKey) -> Tuple[dict, str]:
        position = position_of[task]
        unit = units[position]
        bounds = bounds_of[task]
        feed = None
        if use_bus:
            pid = os.getpid()
            bus = buses.get(pid)
            if bus is None:
                bus = buses[pid] = ClauseBus(bus_path, worker=f"pid-{pid}")
            feed = ClauseFeed(bus, scope=":".join(str(p) for p in task))
        try:
            result = _run_group(
                unit, bounds, config, collect, options.certify, feed
            )
        except ClauseFeedMismatch:
            # A drained round failed re-validation: never trust the
            # import — re-solve the whole group cold.
            if obs.active():
                obs.event(
                    "degraded",
                    reason="clause_feed_mismatch",
                    task=":".join(str(p) for p in task),
                )
            result = _run_group(
                unit, bounds, config, collect, options.certify, None
            )
        return _group_payload(task, queries_of[task], result)

    try:
        scheduled: SchedulerResult = run_leased(
            tasks,
            execute,
            lease_path,
            workers=max_workers,
            resume=options.resume,
            heartbeat_interval=options.heartbeat_interval,
            lease_ttl=options.lease_ttl,
            max_attempts=options.retry.max_attempts,
            fault_plan=options.fault_plan,
            worker_faults=options.worker_faults,
        )
        bus_records, bus_bytes = (
            _bus_size(bus_path) if use_bus and tasks else (0, 0)
        )
    finally:
        if cleanup is not None:
            _shutil.rmtree(cleanup, ignore_errors=True)

    failed: List[str] = []
    writer = (
        CheckpointWriter(options.checkpoint_path)
        if options.checkpoint_path and pending
        else None
    )
    try:
        for position in pending:
            unit = units[position]
            errors = [
                scheduled.failed[task]
                for task in unit_tasks[position]
                if task in scheduled.failed
            ]
            if errors:
                failed.append(
                    f"{unit.benchmark}:{unit.analysis}:{unit.index}: "
                    f"{errors[0]}"
                )
                continue
            unit_records: List[QueryRecord] = []
            unit_metrics: Dict[str, CacheCounters] = {}
            streams: List[List[dict]] = []
            unit_certs: List[dict] = []
            attempts = 1
            for task in unit_tasks[position]:
                payload = scheduled.payloads.get(task)
                if payload is None:
                    raise LeaseConsistencyError(
                        f"task {task!r} neither completed nor failed"
                    )
                if payload.get("queries") != queries_of[task]:
                    raise LeaseConsistencyError(
                        f"lease log records queries "
                        f"{payload.get('queries')!r} for task {task!r} but "
                        f"this evaluation decomposes it as "
                        f"{queries_of[task]!r} — the resumed log belongs to "
                        f"a different run or group size"
                    )
                records, metrics, events, certificates = _payload_result(
                    payload
                )
                unit_records.extend(records)
                for name, counters in metrics.items():
                    unit_metrics[name] = (
                        unit_metrics.get(name, CacheCounters()) + counters
                    )
                if events:
                    streams.append(events)
                unit_certs.extend(certificates)
                attempts = max(attempts, scheduled.attempts.get(task, 1))
            if len(streams) > 1:
                events = merge_streams(streams)
            else:
                events = streams[0] if streams else []
            results[position] = (
                unit_records, unit_metrics, events, unit_certs
            )
            if writer is not None:
                writer.write_unit(
                    unit.key,
                    (unit_records, unit_metrics, attempts, unit_certs),
                )
    finally:
        if writer is not None:
            writer.close()

    stats = dict(scheduled.stats)
    stats["resumed_units"] = resumed
    stats["resumed_tasks"] = scheduled.resumed
    stats["failed_units"] = len(failed)
    stats["bus_records"] = bus_records
    stats["bus_bytes"] = bus_bytes
    global _LAST_SCHEDULER_STATS
    _LAST_SCHEDULER_STATS = stats
    if obs.active():
        registry = obs_metrics.current_registry()
        gauge = getattr(registry, "_scheduler_gauge", None)
        if gauge is None:
            gauge = obs_metrics.Gauge(
                "scheduler",
                "lease scheduler counters of the latest evaluation",
                labelnames=("counter",),
            )
            registry.register_instrument(gauge)
            registry._scheduler_gauge = gauge
        for name, value in sorted(stats.items()):
            gauge.set(float(value), counter=name)
    retried = any(
        attempts > 1 for attempts in scheduled.attempts.values()
    )
    degraded = (
        bool(failed)
        or resumed > 0
        or scheduled.resumed > 0
        or scheduled.stats.get("steals", 0) > 0
        or retried
    )
    if failed and obs.active():
        obs.event("degraded", reason="failed_units", units=failed)
    return results, failed, degraded


def work_units(
    bench: BenchmarkInstance, analysis: str, token: Optional[int] = None
) -> List[WorkUnit]:
    """Enumerate the independent workloads of one benchmark/analysis in
    the order the serial harness evaluates them, seeding ``bench``
    unless its ``token`` is given.  Builds no client."""
    if token is None:
        token = _seed_instance(bench)
    front = None if bench.standard else bench.front
    return [
        WorkUnit(
            bench.name,
            analysis,
            index,
            token,
            front,
            tuple(str(query) for query in queries),
        )
        for index, queries in enumerate(analysis_queries(bench, analysis))
    ]


def _merge(
    bench_name: str,
    analysis: str,
    unit_results: Sequence[Optional[UnitResult]],
    wall_seconds: float,
    degraded: bool = False,
    failed_units: Sequence[str] = (),
) -> EvalResult:
    """Deterministic merge: concatenate unit records in unit order and
    sum the units' registry snapshots name-by-name.  ``None`` entries
    are units that exhausted their retries; their identities are in
    ``failed_units``."""
    records: List[QueryRecord] = []
    metrics: Dict[str, CacheCounters] = {}
    certificates: List[dict] = []
    for unit_result in unit_results:
        if unit_result is None:
            continue
        unit_records, unit_metrics, _events, unit_certs = unit_result
        records.extend(unit_records)
        certificates.extend(unit_certs)
        for name, counters in unit_metrics.items():
            metrics[name] = metrics.get(name, CacheCounters()) + counters
    forward, wp_cache, dispatch_cache = counters_from_metrics(metrics)
    return EvalResult(
        benchmark=bench_name,
        analysis=analysis,
        records=records,
        wall_seconds=wall_seconds,
        forward_hits=forward.hits,
        forward_misses=forward.misses,
        wp_cache=wp_cache,
        dispatch_cache=dispatch_cache,
        metrics=metrics,
        degraded=degraded,
        failed_units=tuple(failed_units),
        certificates=certificates,
    )


def _replay_into_parent(unit_results: Sequence[Optional[UnitResult]]) -> None:
    """Re-emit the workers' captured event streams (merged in unit
    order, span ids re-allocated) into the parent's active trace, and
    append one metric record per merged counter name."""
    context = obs.current()
    if context is None:
        return
    streams = [
        unit_result[2]
        for unit_result in unit_results
        if unit_result is not None and unit_result[2]
    ]
    if streams:
        context.ingest(merge_streams(streams))


def _emit_metrics(result: EvalResult) -> None:
    if not obs.active():
        return
    for name, counters in sorted(result.metrics.items()):
        obs.metric(
            name,
            counters.hits,
            counters.misses,
            benchmark=result.benchmark,
            analysis=result.analysis,
        )


def _run_resilient(
    units: Sequence[WorkUnit],
    config: TracerConfig,
    options: RunOptions,
    max_workers: int,
) -> Tuple[List[Optional[UnitResult]], List[str], bool]:
    """Run ``units`` on the crash-surviving pool, honouring the
    checkpoint.  Returns ``(per-unit results in unit order, failed
    unit descriptions, degraded flag)``.

    Checkpointed units are merged as-is (their worker trace events are
    gone — only fresh units replay spans); fresh completions are
    appended to the checkpoint as they are merged, so an interrupted
    run never loses finished work.
    """
    results: List[Optional[UnitResult]] = [None] * len(units)
    resumed = 0
    if options.resume and options.checkpoint_path:
        completed = load_checkpoint(options.checkpoint_path)
        for position, unit in enumerate(units):
            payload = completed.get(unit.key)
            if payload is not None:
                records, metrics, _attempts, certificates = payload
                results[position] = (records, metrics, [], certificates)
                resumed += 1
    pending = [i for i in range(len(units)) if results[i] is None]
    collect = obs.active()
    tasks = [
        (units[i], config, collect, options.certify, options.fault_plan)
        for i in pending
    ]
    outcomes: List[UnitOutcome] = []
    if tasks:
        outcomes = run_units(
            _execute_unit,
            tasks,
            policy=options.retry,
            max_workers=max_workers,
        )
    failed: List[str] = []
    writer = (
        CheckpointWriter(options.checkpoint_path)
        if options.checkpoint_path
        else None
    )
    try:
        for outcome, position in zip(outcomes, pending):
            unit = units[position]
            if outcome.succeeded:
                results[position] = outcome.result
                if writer is not None:
                    records, metrics, _events, certificates = outcome.result
                    writer.write_unit(
                        unit.key,
                        (records, metrics, outcome.attempts, certificates),
                    )
            else:
                failed.append(
                    f"{unit.benchmark}:{unit.analysis}:{unit.index}: "
                    f"{outcome.error}"
                )
    finally:
        if writer is not None:
            writer.close()
    degraded = bool(failed) or resumed > 0 or any(
        outcome.retried for outcome in outcomes
    )
    if failed and obs.active():
        obs.event("degraded", reason="failed_units", units=failed)
    return results, failed, degraded


def evaluate_benchmark_parallel(
    bench: BenchmarkInstance,
    analysis: str,
    config: TracerConfig = DEFAULT_CONFIG,
    jobs: int = 2,
    options: Optional[RunOptions] = None,
) -> EvalResult:
    """Parallel counterpart of ``evaluate_benchmark``: same records in
    the same order, computed by up to ``jobs`` worker processes that
    are retried/respawned on crashes rather than trusted."""
    from repro.bench.harness import evaluate_benchmark

    options = options if options is not None else RunOptions()
    units = work_units(bench, analysis)
    # The serial fast path would silently drop checkpointing and fault
    # injection, so it only applies when no robustness option is set;
    # a grouped run (group_size > 0) always goes through the scheduler
    # so a 1-worker run is the exact oracle for the N-worker one.
    robust = (
        options.checkpoint_path is not None
        or options.resume
        or options.fault_plan is not None
        or options.group_size > 0
    )
    if jobs <= 1 and options.group_size == 0:
        return evaluate_benchmark(bench, analysis, config, options=options)
    if jobs > 1 and len(units) <= 1 and not robust:
        return evaluate_benchmark(bench, analysis, config, options=options)
    started = time.perf_counter()
    runner = (
        _run_leased if options.scheduler == "leases" else _run_resilient
    )
    unit_results, failed, degraded = runner(
        units, config, options, max_workers=max(1, min(jobs, len(units)))
    )
    _replay_into_parent(unit_results)
    result = _merge(
        bench.name,
        analysis,
        unit_results,
        time.perf_counter() - started,
        degraded=degraded,
        failed_units=failed,
    )
    _emit_metrics(result)
    return result


def evaluate_many(
    instances: Dict[str, BenchmarkInstance],
    analyses: Sequence[str],
    config: TracerConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    options: Optional[RunOptions] = None,
) -> Dict[str, Dict[str, EvalResult]]:
    """Evaluate ``analyses`` over every benchmark in ``instances`` with
    one shared worker pool.

    All units of all ``(benchmark, analysis)`` pairs are fanned out
    together, so a long escape run on one benchmark overlaps the many
    small typestate units of another.  The result mapping (and every
    record list in it) is ordered exactly as the serial nested loops
    would produce it — including across worker crashes, retries, and
    checkpoint resumption.
    """
    options = options if options is not None else RunOptions()
    pairs = [
        (name, analysis) for name in instances for analysis in analyses
    ]
    if jobs <= 1 and options.group_size == 0:
        from repro.bench.harness import evaluate_benchmark

        return_serial: Dict[str, Dict[str, EvalResult]] = {}
        for name, analysis in pairs:
            return_serial.setdefault(name, {})[analysis] = evaluate_benchmark(
                instances[name], analysis, config, options=options
            )
        return return_serial

    started = time.perf_counter()
    units_of: Dict[Tuple[str, str], List[WorkUnit]] = {}
    tokens: Dict[str, int] = {}
    for name, analysis in pairs:
        bench = instances[name]
        # One seed token per instance, shared by its analyses.
        if name not in tokens:
            tokens[name] = _seed_instance(bench)
        units_of[(name, analysis)] = work_units(bench, analysis, tokens[name])
    flat: List[WorkUnit] = []
    spans: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for pair, units in units_of.items():
        spans[pair] = (len(flat), len(flat) + len(units))
        flat.extend(units)
    runner = (
        _run_leased if options.scheduler == "leases" else _run_resilient
    )
    flat_results, failed, degraded = runner(
        flat, config, options, max_workers=max(1, jobs)
    )
    wall = time.perf_counter() - started
    _replay_into_parent(flat_results)
    out: Dict[str, Dict[str, EvalResult]] = {}
    for name, analysis in pairs:
        lo, hi = spans[(name, analysis)]
        prefix = f"{name}:{analysis}:"
        result = _merge(
            name,
            analysis,
            flat_results[lo:hi],
            wall,
            degraded=degraded,
            failed_units=[f for f in failed if f.startswith(prefix)],
        )
        _emit_metrics(result)
        out.setdefault(name, {})[analysis] = result
    return out
