"""The ``serve-warm`` workload: one client, closed loop, one daemon.

Each session starts ``python -m repro serve`` with default settings
(one supervised worker) on a fresh knowledge store, then:

1. pings until the daemon answers (set-up time);
2. sends one cold pass of ``solve-bench`` over the ``--quick`` set x
   {typestate, escape}: every pair is solved and appended to the store;
3. sends :data:`WARM_REQUESTS` warm requests, cycling over the same
   pairs, each answered by the replay tier; the client waits for every
   reply before sending the next request;
4. shuts the daemon down and reaps it, which makes the CPU time and
   peak memory of the daemon and its worker readable with
   ``getrusage``.

Requests carry the harness ``DEFAULT_CONFIG`` budget (k=5, 30
iterations), so verdicts compare against the batch reference.
"""

from __future__ import annotations

import contextlib
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

import inputs
import noise

WARM_REQUESTS = 240
CONFIG = {"k": 5, "max_iterations": 30}
#: In a traced session, read the daemon's recent-request ring this
#: often; the ring holds 64 entries.
STATS_EVERY = 32


def _children_usage():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


STORE = "store.jsonl"


@contextlib.contextmanager
def _daemon(out_dir: str, env: Dict[str, str]):
    """A daemon with default settings on a fresh store in ``out_dir``
    (the socket path is made relative to it, which keeps it short),
    with the working directory there.  Yields the process and the
    seconds from its spawn to the first answered ``ping``; kills and
    reaps it on the way out."""
    for leftover in ("serve.sock", STORE):
        path = os.path.join(out_dir, leftover)
        if os.path.exists(path):
            os.remove(path)
    cwd = os.getcwd()
    os.chdir(out_dir)
    log = open("daemon.log", "w", encoding="utf-8")
    started = time.perf_counter()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", "serve.sock", "--store", STORE],
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    try:
        yield daemon, _await_ping(daemon, started)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        log.close()
        os.chdir(cwd)


def setup_only(out_dir: str, env: Dict[str, str]) -> float:
    """Start a daemon, time it up to its first answered ``ping`` and
    shut it down: a set-up sample without a session."""
    from repro.serve.client import ServeClient

    with _daemon(out_dir, env) as (daemon, setup):
        ServeClient("serve.sock", timeout=30.0).shutdown()
        daemon.wait(timeout=60)
    return setup


def session(
    out_dir: str, env: Dict[str, str], reference, traced: bool = False
) -> dict:
    """Run one daemon session in ``out_dir`` and return its
    measurements."""
    from repro.serve.client import ServeClient, ServeError

    cpu0, _ = _children_usage()
    with _daemon(out_dir, env) as (daemon, setup):
        client = ServeClient("serve.sock", timeout=120.0)
        failures: List[str] = []
        failed_requests = set()
        verdicts: Dict[str, list] = {}
        modes: Dict[str, int] = {}

        def solve(number: int, name: str, analysis: str) -> Optional[dict]:
            """One request; an error envelope, a shed request or a
            verdict that differs from the cold pass fails it."""
            try:
                reply = client.solve_benchmark(name, analysis, config=CONFIG)
            except ServeError as error:
                failures.append(f"{name}/{analysis}: {error.code}: {error}")
                failed_requests.add(number)
                return None
            for mode in reply.get("modes", []):
                modes[mode] = modes.get(mode, 0) + 1
            results = reply["results"]
            keys = inputs.canonical_ids(name, analysis, [r["query"] for r in results], 0)
            for key, entry in zip(keys, results):
                cost = None if entry["abstraction"] is None else len(entry["abstraction"])
                if verdicts.setdefault(key, [entry["verdict"], cost]) != [entry["verdict"], cost]:
                    failures.append(f"{key}: verdict changed to {[entry['verdict'], cost]}")
                    failed_requests.add(number)
            return reply

        cold_start = time.perf_counter()
        for number, (name, analysis) in enumerate(inputs.SERVE_PAIRS):
            solve(number, name, analysis)
        cold = time.perf_counter() - cold_start
        problems = inputs.compare(verdicts, reference)
        failures.extend(problems)
        for number, (name, analysis) in enumerate(inputs.SERVE_PAIRS):
            if any(p.startswith(f"{name}/{analysis}/") for p in problems):
                failed_requests.add(number)

        latencies: List[float] = []
        server: List[float] = []
        recent: Dict[str, dict] = {}
        first_warm = len(inputs.SERVE_PAIRS)
        for i in range(WARM_REQUESTS):
            name, analysis = inputs.SERVE_PAIRS[i % len(inputs.SERVE_PAIRS)]
            sent = time.perf_counter()
            reply = solve(first_warm + i, name, analysis)
            if reply is None:
                continue
            latencies.append(time.perf_counter() - sent)
            server.append(reply["seconds"])
            if traced and (i + 1) % STATS_EVERY == 0:
                _gather(client, recent)
        stats = client.stats()
        _gather(client, recent)
        client.shutdown()
        daemon.wait(timeout=60)
    store = os.path.join(out_dir, STORE)
    store_bytes = os.path.getsize(store) if os.path.exists(store) else 0
    cpu1, peak = _children_usage()
    latencies_ms = [s * 1000.0 for s in latencies]
    result = {
        "setup_s": setup,
        "wall_s": cold,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak,
        "verdicts": verdicts,
        "latencies_ms": latencies_ms,
        "failures": failures,
        # Each pair once cold, then every warm request.
        "attempted": len(inputs.SERVE_PAIRS) + WARM_REQUESTS,
        "failed": len(failed_requests),
    }
    if traced:
        queue = [e["queue_seconds"] for e in recent.values() if e.get("op") == "solve-bench"]
        server_p50 = noise.percentile(server, 50) * 1000.0
        result["layers"] = {
            "serve.queue_wait_p95_ms": noise.percentile(queue, 95) * 1000.0,
            "serve.server_p50_ms": server_p50,
            "serve.wire_p50_ms": noise.percentile(latencies_ms, 50) - server_p50,
            "serve.replay_units": modes.get("replay", 0),
            "serve.cold_units": modes.get("cold", 0),
            "serve.store_hit_rate": stats["store"]["hit_rate"],
            "serve.store_bytes": store_bytes,
            "serve.client_retries": client.retries_made,
        }
    return result


def _await_ping(daemon: subprocess.Popen, started: float, limit: float = 60.0) -> float:
    """Seconds from spawn to the first answered ``ping``."""
    from repro.serve.client import ServeClient, ServeError

    probe = ServeClient("serve.sock", timeout=5.0, retries=0)
    while True:
        try:
            probe.ping()
            return time.perf_counter() - started
        except ServeError:
            if daemon.poll() is not None:
                raise RuntimeError("the daemon exited before answering ping")
            if time.perf_counter() - started > limit:
                raise RuntimeError("the daemon did not answer ping in time")
            time.sleep(0.002)


def _gather(client, recent: Dict[str, dict]) -> None:
    for entry in client.stats()["telemetry"]["recent"]:
        recent[entry["request_id"]] = entry
