"""The repo benchmark: one command per workload, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload escape-suite --seed 0 --seconds 24 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``escape-suite``, ``typestate-suite``: one client analysis over the
  suite, serially through ``evaluate_benchmark``;
* ``matrix-jobs2``: typestate and escape over the suite through
  ``evaluate_many(jobs=2)`` on the default lease scheduler;
* ``serve-warm``: the ``repro serve`` daemon driven by one client in a
  closed loop (see ``serve_load.py``).

A run repeats passes until ``--seconds`` have gone by, and makes at
least :data:`MIN_PASSES`.  Each batch pass is a fresh process, so
caches start cold as they do for a user; each serve pass is a fresh
daemon.  A metric is the median over the passes; ``setup_s`` also
counts :data:`SETUP_SAMPLES` set-up-only samples taken first.  Every
verdict is checked against the reference under ``reference/``.

``--trace 0`` reports the end-to-end metrics (:data:`REPORTED` ones on
the human-readable lines only).  ``--trace 1`` reports
the per-layer metrics instead: traced passes under two different
``PYTHONHASHSEED`` values alternate with untraced ones (``serve-warm``
makes traced passes only).  The traced passes must agree on every
deterministic count, and the untraced ones give the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when ``correct`` is true.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List

import noise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working files of a run: logs, lease logs, stores, sockets, spans.
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("escape-suite", "typestate-suite", "matrix-jobs2", "serve-warm")
MIN_PASSES = 3
#: A batch pass still running this long after the run started is
#: killed, so that a hung pass cannot hold the run past its time limit.
DEADLINE_S = 170.0
#: Set-up samples an untraced run takes before its passes, on top of
#: each pass's own: set-up is short and waits on a shared CPU, so its
#: median needs more samples than there are passes.
SETUP_SAMPLES = 5
#: ``PYTHONHASHSEED`` of the two traced passes, which must agree.
#: Untraced pass ``i`` runs under hash seed ``i``: peak memory follows
#: the layout of sets and dicts, so every run covers the same layouts.
HASH_SEEDS = ("1", "2")

#: End-to-end metrics in the result line, each with a bound in
#: ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "resolved_frac": "ratio",
}

#: End-to-end metrics printed, with their noise, but kept out of the
#: result line.  They wait on the CPU like everything else on the host:
#: with neighbours busy on a 2-CPU host, their medians over ten runs
#: spread by 25% (matrix-jobs2 wall_s) to 90% (serve-warm req_p95_ms),
#: more than any bound may allow.  CPU time moves far less.
REPORTED = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
}

#: Per-layer metrics; a layer a workload does not reach reports 0.
PER_LAYER = {
    "frontend.prepare_s": "s",
    "frontend.inlined_commands": "count",
    "forward.calls": "count",
    "forward.s": "s",
    "forward.steps": "count",
    "forward.extract_s": "s",
    "forward.cache_hit_rate": "ratio",
    "backward.calls": "count",
    "backward.s": "s",
    "backward.self_s": "s",
    "backward.trace_cmds": "count",
    "backward.max_disjuncts": "count",
    "backward.subsumption_drops": "count",
    "backward.beam_prunes": "count",
    "backward.wp_hit_rate": "ratio",
    "formula.to_dnf_s": "s",
    "formula.simplify_s": "s",
    "formula.calls": "count",
    "minsat.calls": "count",
    "minsat.s": "s",
    "minsat.clauses_max": "count",
    "tracer.units": "count",
    "tracer.iterations": "count",
    "tracer.forward_runs": "count",
    "tracer.s": "s",
    "tracer.self_s": "s",
    "scheduler.claims": "count",
    "scheduler.steals": "count",
    "scheduler.expiries": "count",
    "scheduler.respawns": "count",
    "scheduler.lease_records": "count",
    "scheduler.bus_records": "count",
    "scheduler.busy_s": "s",
    "scheduler.critical_unit_s": "s",
    "scheduler.overhead_s": "s",
    "serve.queue_wait_p95_ms": "ms",
    "serve.server_p50_ms": "ms",
    "serve.wire_p50_ms": "ms",
    "serve.replay_units": "count",
    "serve.cold_units": "count",
    "serve.store_hit_rate": "ratio",
    "serve.store_bytes": "bytes",
    "serve.client_retries": "count",
    "trace.overhead_frac": "ratio",
}

#: Per-layer counts that must repeat exactly between the traced passes.
COUNTED = (
    "frontend.inlined_commands",
    "forward.calls",
    "forward.steps",
    "backward.calls",
    "backward.trace_cmds",
    "backward.max_disjuncts",
    "backward.subsumption_drops",
    "backward.beam_prunes",
    "formula.calls",
    "minsat.calls",
    "minsat.clauses_max",
    "tracer.units",
    "tracer.iterations",
    "tracer.forward_runs",
    "scheduler.claims",
    "scheduler.steals",
    "scheduler.expiries",
    "scheduler.respawns",
    "scheduler.lease_records",
    "scheduler.bus_records",
    "serve.replay_units",
    "serve.cold_units",
)


def environment(out: str, hash_seed: str) -> Dict[str, str]:
    """The environment of every process a run starts: the source tree
    on the path, a fixed hash seed and temporary files kept inside the
    checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hash_seed
    env["TMPDIR"] = os.path.join(out, "tmp")
    return env


# -- passes -----------------------------------------------------------------------


class PassFailed(RuntimeError):
    """A pass that crashed or ran out of time; it counts as one failed
    operation and ends the run."""


def _batch_child(args, out: str, flags: List[str], hash_seed, deadline: float):
    """Run ``batch.py`` with ``flags`` in a fresh process.  Returns the
    seconds from spawn to its ``ready`` line and the lines after it.  A
    child still running at ``deadline`` (a ``perf_counter`` value) is
    killed."""
    command = [sys.executable, os.path.join(HERE, "batch.py"), args.workload, str(args.seed), out]
    lines: List[str] = []
    setup = None
    with open(os.path.join(out, "pass.log"), "a", encoding="utf-8") as log:
        started = time.perf_counter()
        child = subprocess.Popen(
            command + flags,
            env=environment(out, hash_seed),
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        # Killing the child closes its stdout, which ends the read below.
        timer = threading.Timer(max(0.0, deadline - started), child.kill)
        timer.start()
        try:
            for line in child.stdout:
                if setup is None and line.strip() == "ready":
                    setup = time.perf_counter() - started
                else:
                    lines.append(line)
            child.wait()
        finally:
            timer.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
    if child.returncode != 0 and time.perf_counter() >= deadline:
        raise PassFailed(f"a {args.workload} pass was still running at the deadline and was killed")
    if child.returncode != 0 or setup is None:
        raise PassFailed(
            f"a {args.workload} pass exited with code {child.returncode}; "
            f"see {os.path.join(out, 'pass.log')}"
        )
    return setup, lines


def batch_pass(args, out: str, traced: bool, hash_seed, deadline: float) -> dict:
    """One batch pass in a fresh process, its verdicts checked against
    the reference.  Set-up is timed from spawn to the child's ``ready``
    line."""
    import inputs

    setup, lines = _batch_child(args, out, ["--trace"] if traced else [], hash_seed, deadline)
    if not lines:
        raise PassFailed(f"a {args.workload} pass printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    reference = inputs.load_reference(inputs.WORKLOAD_PAIRS[args.workload])
    observed = {key: tuple(value) for key, value in result["verdicts"].items()}
    problems = inputs.compare(observed, reference)
    # Each problem names one query; a failed unit's queries show up as
    # missing ones.
    result["attempted"] = len(reference)
    result["failed"] = len(problems)
    result["failures"] = problems + [f"failed unit {u}" for u in result["failed_units"]]
    result["latencies_ms"] = [s * 1000.0 for s in result["query_seconds"]]
    return result


def serve_pass(out: str, traced: bool, hash_seed) -> dict:
    import inputs
    import serve_load

    reference = inputs.load_reference(inputs.SERVE_PAIRS)
    try:
        return serve_load.session(out, environment(out, hash_seed), reference, traced)
    except RuntimeError as error:
        raise PassFailed(f"a serve-warm session failed: {error}") from error


def setup_sample(args, out: str, hash_seed, deadline: float) -> float:
    """Set-up time alone: a batch child that exits once its inputs are
    ready, or a daemon shut down after its first ``ping``."""
    if args.workload != "serve-warm":
        return _batch_child(args, out, ["--setup-only"], hash_seed, deadline)[0]
    import serve_load

    try:
        return serve_load.setup_only(out, environment(out, hash_seed))
    except RuntimeError as error:
        raise PassFailed(f"a serve-warm daemon failed to start: {error}") from error


def run_passes(args, out: str):
    """Passes until ``--seconds`` have gone by, at least
    :data:`MIN_PASSES` (and one full cycle of the schedule).  An
    untraced run first takes :data:`SETUP_SAMPLES` set-up samples.
    Returns the passes, every set-up sample, and the failure of the
    pass that ended the run early, if one did."""
    schedule = [(False, None)]
    if args.trace:
        schedule = [(True, HASH_SEEDS[0]), (False, None), (True, HASH_SEEDS[1])]
        if args.workload == "serve-warm":
            # Tracing installs no wrappers in the daemon (see per_layer).
            schedule = [(True, HASH_SEEDS[0]), (True, HASH_SEEDS[1])]
    passes: List[dict] = []
    setups: List[float] = []
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    try:
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                setups.append(setup_sample(args, out, str(i), deadline))
        while (
            len(passes) < max(MIN_PASSES, len(schedule))
            or time.perf_counter() - started < args.seconds
        ):
            traced, hash_seed = schedule[len(passes) % len(schedule)]
            if hash_seed is None:
                hash_seed = str(sum(1 for p in passes if not p["traced"]))
            if args.workload == "serve-warm":
                result = serve_pass(out, traced, hash_seed)
            else:
                result = batch_pass(args, out, traced, hash_seed, deadline)
            result["traced"] = traced
            passes.append(result)
            setups.append(result["setup_s"])
    except PassFailed as error:
        return passes, setups, str(error)
    return passes, setups, None


# -- metrics ----------------------------------------------------------------------


def end_to_end(passes: List[dict], setups: List[float]) -> Dict[str, List[float]]:
    """Per-pass samples of every end-to-end metric; ``setup_s`` has
    every set-up sample of the run."""
    samples: Dict[str, List[float]] = {name: [] for name in {**END_TO_END, **REPORTED}}
    samples["setup_s"] = list(setups)
    for result in passes:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(result[name])
        verdicts = list(result["verdicts"].values())
        resolved = sum(1 for status, _cost in verdicts if status in ("proven", "impossible"))
        samples["resolved_frac"].append(resolved / len(verdicts))
        samples["req_p50_ms"].append(noise.percentile(result["latencies_ms"], 50))
        samples["req_p95_ms"].append(noise.percentile(result["latencies_ms"], 95))
    return samples


def per_layer(passes: List[dict]):
    """Per-layer metrics of a traced run, and the counts on which its
    traced passes disagree."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics: Dict[str, float] = {name: 0 for name in PER_LAYER}
    differing: List[str] = []
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name in COUNTED:
            if len(set(values)) > 1:
                differing.append(f"{name} differs between hash seeds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)

    # The wrappers live in the batch process; a traced serve session
    # only reads the daemon's stats, outside the timed requests, so
    # there is no tracing overhead to measure there.
    if plain:
        wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_frac"] = wall / statistics.median(p["wall_s"] for p in plain) - 1.0
    return metrics, differing


def headline(passes: List[dict], samples: Dict[str, List[float]]) -> Dict[str, float]:
    """The reported value of every end-to-end metric: the median over
    passes, except that latency percentiles are taken over every pass's
    requests."""
    values = {name: statistics.median(samples[name]) for name in samples}
    pooled = [ms for p in passes for ms in p["latencies_ms"]]
    values["req_p50_ms"] = noise.percentile(pooled, 50)
    values["req_p95_ms"] = noise.percentile(pooled, 95)
    return values


def report(args, passes, setups, failures, attempted, failed) -> Dict[str, float]:
    """The human-readable part: every end-to-end metric with the noise
    of its per-pass samples, then the failure counts.  Returns the
    reported value of every end-to-end metric."""
    samples = end_to_end(passes, setups)
    values = headline(passes, samples)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  trace {args.trace}")
    print(
        f"  {'metric':<16}{'value':>12} {'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'n':>4}{'rciw':>8}"
    )
    for name, unit in {**END_TO_END, **REPORTED}.items():
        if name == next(iter(REPORTED)):
            print("  not in the result line (contention-sensitive):")
        s = noise.summary(samples[name])
        print(
            f"  {name:<16}{values[name]:>12.4f} {unit:<6}{s['median']:>12.4f}{s['q1']:>12.4f}"
            f"{s['q3']:>12.4f}{s['n']:>4}{s['rciw']:>8.3f}"
        )
    kind = "warm requests" if args.workload == "serve-warm" else "query verdicts"
    print(f"  req samples     {sum(len(p['latencies_ms']) for p in passes)} ({kind})")
    if args.workload == "serve-warm":
        print(f"  cold_pass_s     {values['wall_s']:.4f} s")
    print(f"  failed_frac     {failed / attempted:.4f} ({failed} of {attempted})")
    for line in failures[:20]:
        print(f"  FAIL {line}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro.bench.parallel  # noqa: F401  (fails early without the program)

    if not sys.dont_write_bytecode:
        # Compile once up front, so no timed set-up includes compiling.
        import compileall

        compileall.compile_dir(SRC, quiet=1)

    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "tmp"))
    os.environ["TMPDIR"] = os.path.join(out, "tmp")

    passes, setups, broken = run_passes(args, out)
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if broken is not None:
        # The broken pass counts as one failed operation.
        failures.append(broken)
        attempted += 1
        failed += 1
    metrics = {}
    if not passes:
        print(f"  FAIL {broken}")
    elif args.trace:
        report(args, passes, setups, failures, attempted, failed)
        values, differing = per_layer(passes)
        for line in differing:
            print(f"  FAIL {line}")
        failures += differing
        failed += len(differing)
        attempted += len(COUNTED)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()
        }
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28}{values[name]:>14.4f} {unit}")
    else:
        values = report(args, passes, setups, failures, attempted, failed)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
