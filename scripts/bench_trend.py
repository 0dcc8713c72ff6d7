"""Track perf-smoke results over time and gate on regressions.

Reads the latest ``BENCH_smoke.json`` (written by
``benchmarks/bench_smoke.py``), appends a compact entry to
``BENCH_history.jsonl``, and compares the new run's ``micro_seconds``
medians against the previous history entry.  Any micro kernel more
than ``--threshold`` (default 25%) slower than last time is reported
as a regression, and so is a change in a deterministic count (see
:data:`EXACT_COUNTS`) against the last entry that records it::

    PYTHONPATH=src python benchmarks/bench_smoke.py
    PYTHONPATH=src python scripts/bench_trend.py          # warn only
    PYTHONPATH=src python scripts/bench_trend.py --gate   # exit 1

Without ``--gate`` regressions only warn — the intended rollout is to
run warn-only for a couple of PRs to accumulate history (and observe
the noise floor of the CI machines) before flipping the gate on.

The history file is JSONL so CI can append without rewriting: each
line is self-contained ``{timestamp, python, micro_seconds,
evaluation}``.  The comparison is entry-vs-previous-entry, not
entry-vs-best-ever, so a slow machine day shifts the baseline instead
of permanently failing every later run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_REPORT = os.path.join(REPO_ROOT, "BENCH_smoke.json")
DEFAULT_HISTORY = os.path.join(REPO_ROOT, "BENCH_history.jsonl")


def history_entry(report: dict) -> dict:
    """The compact history line distilled from one smoke report.

    Every section read is ``.get``-tolerant: sections accrete over
    PRs, so older reports (and older history lines) legitimately lack
    newer ones — a missing section means "not measured", never an
    error.
    """
    evaluation = report.get("evaluation", {})
    serve = report.get("serve_warm", {})
    latency = serve.get("latency", {})
    entry = {
        "timestamp": report.get("timestamp"),
        "python": report.get("python"),
        "micro_seconds": report.get("micro_seconds", {}),
        "serial_seconds": evaluation.get("serial_seconds"),
        "parallel_seconds_jobs2": evaluation.get("parallel_seconds_jobs2"),
    }
    if serve:
        entry["serve_warm"] = {
            "speedup": serve.get("speedup"),
            "warm_seconds": serve.get("warm_seconds"),
            "warm_p50": latency.get("warm", {}).get("p50"),
            "warm_p95": latency.get("warm", {}).get("p95"),
            "warm_p99": latency.get("warm", {}).get("p99"),
        }
    burst = report.get("serve_burst", {})
    if burst:
        entry["serve_burst"] = {
            "burst_seconds": burst.get("burst_seconds"),
            "completed": burst.get("completed"),
            "shed": sum((burst.get("shed") or {}).values()),
            "client_retries": burst.get("client_retries"),
            "queue_p95": burst.get("queue_wait", {}).get("p95"),
        }
    avrora = report.get("avrora_escape", {})
    if avrora:
        entry["avrora_escape"] = {
            key: avrora.get(key)
            for key in (
                "cpu_seconds",
                "resolved",
                "iterations",
                "trace_cmds",
                "beam_prunes",
            )
        }
    scheduler = report.get("scheduler", {})
    if scheduler:
        entry["scheduler"] = {
            "waves_seconds_jobs2": scheduler.get("waves_seconds_jobs2"),
            "leases_seconds_jobs2": scheduler.get("leases_seconds_jobs2"),
            "leases_vs_waves": scheduler.get("leases_vs_waves"),
            "faulted_steals": (scheduler.get("faulted") or {}).get("steals"),
            "faulted_expiries": (
                (scheduler.get("faulted") or {}).get("expiries")
            ),
            "bus_records": (scheduler.get("clean") or {}).get("bus_records"),
            "bus_bytes": (scheduler.get("clean") or {}).get("bus_bytes"),
        }
    return entry


#: ``(section, key)`` of history counts that are deterministic, so any
#: change is a change in behaviour, not noise: the clean lease run's
#: clause-bus record count.
EXACT_COUNTS = (("scheduler", "bus_records"),)


def count_changes(history: list, current: dict) -> list:
    """``(name, old, new)`` for every :data:`EXACT_COUNTS` count of
    ``current`` that differs from the last ``history`` entry recording
    it; entries without the count are skipped."""
    changes = []
    for section, key in EXACT_COUNTS:
        new = (current.get(section) or {}).get(key)
        if new is None:
            continue
        for previous in reversed(history):
            old = (previous.get(section) or {}).get(key)
            if old is not None:
                if old != new:
                    changes.append((f"{section}.{key}", old, new))
                break
    return changes


def load_history(path: str) -> list:
    if not os.path.exists(path):
        return []
    entries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def compare(previous: dict, current: dict, threshold: float) -> list:
    """Regressions of ``current`` vs ``previous``: a list of
    ``(kernel, old_seconds, new_seconds, ratio)`` rows where the new
    median exceeds the old by more than ``threshold``."""
    regressions = []
    old_micros = previous.get("micro_seconds") or {}
    for kernel, new_seconds in sorted(
        (current.get("micro_seconds") or {}).items()
    ):
        old_seconds = old_micros.get(kernel)
        if not old_seconds or not new_seconds:
            continue  # new kernel, or a zero reading — nothing to compare
        ratio = new_seconds / old_seconds
        if ratio > 1.0 + threshold:
            regressions.append((kernel, old_seconds, new_seconds, ratio))
    # Serve-layer warm latency: only comparable when both entries carry
    # the section (it first appeared after the earliest history lines).
    old_warm = (previous.get("serve_warm") or {}).get("warm_seconds")
    new_warm = (current.get("serve_warm") or {}).get("warm_seconds")
    if old_warm and new_warm:
        ratio = new_warm / old_warm
        if ratio > 1.0 + threshold:
            regressions.append(
                ("serve_warm_seconds", old_warm, new_warm, ratio)
            )
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report", default=DEFAULT_REPORT, help="BENCH_smoke.json to ingest"
    )
    parser.add_argument(
        "--history",
        default=DEFAULT_HISTORY,
        help="JSONL history file to append to",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional slowdown tolerated before reporting (default 0.25)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero on regression (default: warn only)",
    )
    args = parser.parse_args(argv)

    with open(args.report) as handle:
        report = json.load(handle)
    entry = history_entry(report)
    history = load_history(args.history)

    regressions = []
    if history:
        regressions = compare(history[-1], entry, args.threshold)
    changes = count_changes(history, entry)

    with open(args.history, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")

    print(
        f"history: {len(history) + 1} entries in "
        f"{os.path.relpath(args.history, REPO_ROOT)}"
    )
    for kernel, seconds in sorted((entry.get("micro_seconds") or {}).items()):
        print(f"  {kernel:<24} {seconds * 1000:9.3f} ms")
    serve = entry.get("serve_warm") or {}
    if serve.get("warm_seconds") is not None:
        print(
            f"  {'serve warm pass':<24} "
            f"{serve['warm_seconds'] * 1000:9.3f} ms"
            + (
                f"  (p95 {serve['warm_p95'] * 1000:.3f} ms)"
                if serve.get("warm_p95") is not None
                else ""
            )
        )

    if not history:
        print("no previous entry — baseline recorded, nothing to compare")
        return 0
    for name, old, new in changes:
        print(f"CHANGED {name}: {old} -> {new} (a deterministic count)")
    if not regressions and not changes:
        print(
            f"no regressions over {args.threshold:.0%} vs previous entry "
            f"({history[-1].get('timestamp')})"
        )
        return 0
    for kernel, old, new, ratio in regressions:
        print(
            f"REGRESSION {kernel}: {old * 1000:.3f} ms -> "
            f"{new * 1000:.3f} ms ({ratio - 1.0:+.0%})"
        )
    if args.gate:
        return 1
    print("(warn only; pass --gate to fail the build)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
