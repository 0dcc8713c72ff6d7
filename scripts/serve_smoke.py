"""Serve smoke check: the daemon warm-starts repeat submissions.

Starts a ``repro serve`` daemon with a fresh knowledge store, submits
every paper benchmark twice, and asserts the serving contract
(docs/SERVING.md):

1. the first pass runs cold (the store is empty) and records every
   finished search;
2. the second pass answers every unit from the store's replay tier —
   ``store hits > 0``, every unit mode ``"replay"``, and per-query
   verdicts identical to the first pass;
3. daemon verdicts match a one-shot in-process evaluation of the same
   workloads under the same config (the daemon is an optimisation,
   never a different answer);
4. the telemetry contract (docs/OBSERVABILITY.md): the ``metrics`` op
   returns parseable Prometheus text whose warm-tier counters match
   the two passes and whose latency histograms saw every request,
   ``repro top --once`` renders a snapshot frame against the live
   daemon, and the daemon's ``--trace-out`` stream validates.

Exit code 0 on success, 1 with a diagnostic on any violation::

    PYTHONPATH=src python scripts/serve_smoke.py [--analysis typestate]
                                                 [--artifacts DIR]

``--artifacts DIR`` copies the daemon trace and the final metrics
scrape there (CI uploads them).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.suite import BENCHMARK_NAMES  # noqa: E402
from repro.obs.export import parse_prometheus  # noqa: E402
from repro.serve.client import ServeClient, ServeError  # noqa: E402

MAX_ITERATIONS = 30


def start_daemon(
    socket_path: str, store_path: str, trace_path: str, metrics_path: str
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", socket_path,
            "--store", store_path,
            "--trace-out", trace_path,
            "--metrics-out", metrics_path,
            "--metrics-interval", "1",
            "--max-iterations", str(MAX_ITERATIONS),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            stderr = daemon.stderr.read().decode()
            raise RuntimeError(f"daemon died on startup:\n{stderr}")
        if os.path.exists(socket_path):
            try:
                ServeClient(socket_path, timeout=5).ping()
                return daemon
            except ServeError:
                pass
        time.sleep(0.1)
    daemon.kill()
    raise RuntimeError("daemon did not come up within 30s")


def submit_pass(client: ServeClient, analysis: str):
    """One submission sweep; returns (verdicts by qid, modes, hits,
    units)."""
    verdicts = {}
    modes = []
    hits = 0
    units = 0
    for name in BENCHMARK_NAMES:
        reply = client.solve_benchmark(name, analysis)
        modes.extend(reply["modes"])
        hits += reply["store_hits"]
        units += reply["units"]
        for entry in reply["results"]:
            verdicts[f"{name}:{entry['query']}"] = entry["verdict"]
    return verdicts, modes, hits, units


def one_shot_verdicts(analysis: str):
    """The same workloads evaluated in-process with no daemon and no
    store — the baseline the served verdicts must match."""
    from repro.bench.harness import evaluate_benchmark, prepare
    from repro.core.tracer import TracerConfig

    # Mirror the daemon's request config: `repro serve` defaults plus
    # the --max-iterations passed above (strict is the TracerConfig
    # default on both sides).
    config = TracerConfig(k=5, max_iterations=MAX_ITERATIONS)
    verdicts = {}
    for name in BENCHMARK_NAMES:
        result = evaluate_benchmark(prepare(name), analysis, config)
        for record in result.records:
            verdicts[f"{name}:{record.query_id}"] = record.status.value
    return verdicts


def counter_total(parsed, name, **match):
    total = 0.0
    for labels, value in parsed.get(name, []):
        if all(labels.get(k) == str(v) for k, v in match.items()):
            total += value
    return total


def check_metrics(parsed, cold_units, warm_units, failures):
    """The scraped exposition reflects the two passes."""
    cold_count = counter_total(parsed, "repro_warm_tier_total", tier="cold")
    replay_count = counter_total(
        parsed, "repro_warm_tier_total", tier="replay"
    )
    if cold_count != cold_units:
        failures.append(
            f"metrics: cold-tier counter {cold_count}, "
            f"expected {cold_units}"
        )
    if replay_count != warm_units:
        failures.append(
            f"metrics: replay-tier counter {replay_count}, "
            f"expected {warm_units}"
        )
    latency_seen = counter_total(
        parsed, "repro_request_seconds_count", op="solve-bench"
    )
    expected = 2 * len(BENCHMARK_NAMES)
    if latency_seen < expected:
        failures.append(
            f"metrics: latency histogram saw {latency_seen} solve-bench "
            f"requests, expected >= {expected}"
        )
    if "repro_request_queue_seconds_bucket" not in parsed:
        failures.append("metrics: queue-wait histogram missing")
    if "repro_cache_hits_total" not in parsed:
        failures.append("metrics: cache counters missing from exposition")


def run_cli(args, what, failures):
    """Run a repro CLI subcommand; returns its stdout ('' on failure)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        failures.append(
            f"{what} exited {proc.returncode}: {proc.stderr.strip()[:300]}"
        )
        return ""
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--analysis", default="typestate")
    parser.add_argument(
        "--artifacts", metavar="DIR",
        help="copy the daemon trace and metrics scrape here",
    )
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    socket_path = os.path.join(workdir, "serve.sock")
    store_path = os.path.join(workdir, "store.jsonl")
    trace_path = os.path.join(workdir, "serve-trace.jsonl")
    metrics_out_path = os.path.join(workdir, "serve-metrics.prom")
    failures = []

    daemon = start_daemon(
        socket_path, store_path, trace_path, metrics_out_path
    )
    client = ServeClient(socket_path)
    top_frame = ""
    metrics_text = ""
    try:
        cold, cold_modes, cold_hits, cold_units = submit_pass(
            client, args.analysis
        )
        warm, warm_modes, warm_hits, warm_units = submit_pass(
            client, args.analysis
        )
        stats = client.stats()
        metrics_text = client.metrics()["prometheus"]
        top_frame = run_cli(
            ["top", "--socket", socket_path, "--once"],
            "repro top --once",
            failures,
        )
    finally:
        try:
            client.shutdown()
            daemon.wait(timeout=15)
        except (ServeError, subprocess.TimeoutExpired):
            daemon.kill()

    print(f"{len(BENCHMARK_NAMES)} benchmarks x {args.analysis}: "
          f"{len(cold)} queries")
    print(f"cold pass: modes={sorted(set(cold_modes))} hits={cold_hits}")
    print(f"warm pass: modes={sorted(set(warm_modes))} hits={warm_hits}")
    print(f"store: {stats.get('store')}")

    if cold_hits != 0:
        failures.append(f"cold pass hit the store ({cold_hits} hits)")
    if set(cold_modes) != {"cold"}:
        failures.append(f"cold pass modes {sorted(set(cold_modes))}, "
                        "expected all 'cold'")
    if warm_hits == 0:
        failures.append("warm pass had zero store hits")
    if set(warm_modes) != {"replay"}:
        failures.append(f"warm pass modes {sorted(set(warm_modes))}, "
                        "expected all 'replay'")
    if warm != cold:
        diff = {k for k in set(cold) | set(warm) if cold.get(k) != warm.get(k)}
        failures.append(f"warm verdicts differ from cold: {sorted(diff)[:5]}")

    # -- telemetry: scraped counters match the two passes ------------------
    parsed = parse_prometheus(metrics_text)
    check_metrics(parsed, cold_units, warm_units, failures)
    if not failures:
        print(
            f"metrics scrape OK: tiers cold={cold_units} "
            f"replay={warm_units}, {len(parsed)} sample families"
        )

    # -- repro top rendered a live frame -----------------------------------
    if top_frame and "repro top" not in top_frame:
        failures.append(f"repro top frame looks wrong: {top_frame[:200]!r}")
    elif top_frame:
        print("-- repro top --once frame " + "-" * 34)
        print(top_frame.rstrip())
        print("-" * 60)

    # -- the daemon trace validates (after shutdown closed the sink) -------
    validate_out = run_cli(
        ["trace", "validate", trace_path], "repro trace validate", failures
    )
    if validate_out:
        print(f"daemon trace: {validate_out.strip()}")
    if not os.path.exists(metrics_out_path):
        failures.append("--metrics-out file was never written")

    baseline = one_shot_verdicts(args.analysis)
    if cold != baseline:
        diff = {
            k for k in set(cold) | set(baseline)
            if cold.get(k) != baseline.get(k)
        }
        failures.append(
            f"served verdicts differ from one-shot: {sorted(diff)[:5]}"
        )
    else:
        print("served verdicts match one-shot in-process evaluation")

    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        shutil.copy(trace_path, os.path.join(
            args.artifacts, "serve-trace.jsonl"
        ))
        with open(os.path.join(
            args.artifacts, "serve-metrics.prom"
        ), "w") as handle:
            handle.write(metrics_text)
        print(f"artifacts copied to {args.artifacts}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
