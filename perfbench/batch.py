"""One pass of a batch workload, in a fresh process.

Run by ``run.py``; not meant to be started by hand::

    python3 perfbench/batch.py WORKLOAD SEED OUT_DIR [--trace] [--setup-only]

The process prepares every benchmark of the workload, prints
``ready`` (the parent times set-up up to that line), solves every query
through the public evaluation entry points, and prints one JSON object
as its last line: timings, resources, the verdict of every query and,
with ``--trace``, the per-layer metrics of the pass.  With
``--setup-only`` it exits right after ``ready``: a set-up sample
without a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _log_counts(path: str) -> dict:
    """Record counts of a lease log or clause bus, by record type."""
    counts: dict = {}
    if not os.path.exists(path):
        return counts
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                kind = json.loads(line).get("type", "record")
            except ValueError:
                kind = "torn"
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import inputs
    from repro.bench.harness import evaluate_benchmark
    from repro.bench.parallel import RunOptions, evaluate_many

    pairs = inputs.WORKLOAD_PAIRS[args.workload]
    names = list(dict.fromkeys(name for name, _ in pairs))
    tracer = None
    if args.trace:
        from layers import LayerTrace

        tracer = LayerTrace(args.workload, args.out)
        tracer.install()
    try:
        instances = inputs.seeded_instances(names, args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        lease_path = os.path.join(args.out, "matrix.leases")
        cpu0, _ = _rusage()
        start = time.perf_counter()
        if args.workload == "matrix-jobs2":
            analyses = list(dict.fromkeys(analysis for _, analysis in pairs))
            nested = evaluate_many(
                instances, analyses, jobs=2, options=RunOptions(lease_path=lease_path)
            )
            results = [nested[name][analysis] for name, analysis in pairs]
        else:
            results = [evaluate_benchmark(instances[name], analysis) for name, analysis in pairs]
        wall = time.perf_counter() - start
        cpu1, peak = _rusage()
    finally:
        if tracer is not None:
            tracer.restore()

    verdicts = {}
    query_seconds = []
    failed_units = []
    wp = [0, 0]
    for (name, analysis), result in zip(pairs, results):
        keys = inputs.canonical_ids(
            name, analysis, [r.query_id for r in result.records], args.seed
        )
        for key, record in zip(keys, result.records):
            verdicts[key] = [record.status.value, record.abstraction_cost]
            query_seconds.append(record.time_seconds)
        failed_units.extend(result.failed_units)
        wp[0] += result.wp_cache.hits
        wp[1] += result.wp_cache.misses
    out = {
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak,
        "verdicts": verdicts,
        "query_seconds": query_seconds,
        "failed_units": failed_units,
    }
    if tracer is not None:
        from layers import fold

        tracer.collect()
        hash_seed = os.environ.get("PYTHONHASHSEED", "random")
        tracer.dump(os.path.join(args.out, f"trace-{args.workload}-hash{hash_seed}.jsonl"))
        metrics = fold(tracer.spans)
        metrics["backward.wp_hit_rate"] = wp[0] / sum(wp) if sum(wp) else 0.0
        metrics.update(_scheduler_metrics(args.workload, tracer, wall, lease_path))
        out["layers"] = metrics
    print(json.dumps(out), flush=True)
    return 0


def _scheduler_metrics(workload, tracer, wall, lease_path) -> dict:
    """The ``robust`` layer, on the lease scheduler only.  Busy and
    critical-path time come from the worker-side unit spans; the
    lease-log count leaves out heartbeats, which follow the clock
    rather than the work."""
    if workload != "matrix-jobs2":
        return {}
    from repro.bench.parallel import last_scheduler_stats

    stats = last_scheduler_stats()
    leases = _log_counts(lease_path)
    units = [
        span[2] - span[1]
        for span in tracer.spans
        if span[0] == "tracer.solve_all" and span[5] != os.getpid()
    ]
    busy = sum(units)
    critical = max(units, default=0.0)
    out = {
        f"scheduler.{name}": int(stats.get(name, 0))
        for name in ("claims", "steals", "expiries", "respawns")
    }
    out["scheduler.lease_records"] = sum(v for k, v in leases.items() if k != "heartbeat")
    out["scheduler.bus_records"] = sum(_log_counts(lease_path + ".bus").values())
    out["scheduler.busy_s"] = busy
    out["scheduler.critical_unit_s"] = critical
    out["scheduler.overhead_s"] = wall - max(critical, busy / 2)
    return out


if __name__ == "__main__":
    sys.exit(main())
