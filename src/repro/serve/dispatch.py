"""Solve-request execution, shared by the daemon's two execution modes.

The daemon can run a ``solve`` / ``solve-bench`` request either
*inline* (``--workers 0``: on a slot thread in the daemon process, the
original single-FIFO behaviour) or *pooled* (the default: shipped over
a pipe to a supervised worker process).  Both modes must execute the
request identically, so the execution lives here as module functions:

* :func:`solve_request` — build the queries, clamp the per-request
  config against the server ceilings, run the session, shape the
  response.  Returns ``(response, tiers)`` where ``tiers`` counts
  solved units per warm-start tier — the *parent* owns the telemetry
  instruments, so workers report tiers as data instead of incrementing
  counters nobody scrapes.
* :func:`worker_main` — the supervised worker body: one resident
  :func:`~repro.serve.session.process_session` per worker (warm state
  survives across requests), its own shared-mode
  :class:`~repro.serve.store.KnowledgeStore` handle (appends are
  flock-coordinated with every other worker), and the ambient fault
  plan the parent shipped for chaos testing (re-counted per process,
  pinned to the request's delivery attempt).

Error envelopes are structured for client-side retry logic::

    {"ok": false, "error": str, "code": "bad_request" | "internal"
     | "overloaded" | "deadline_exceeded" | "worker_crashed"
     | "worker_timeout" | "oversized" | "transport" | "bad_reply",
     "retryable": bool, "retry_after_ms"?: int}

``retryable`` is the client's contract: a crashed worker or a full
queue is worth retrying (the daemon respawns / drains meanwhile); a
bad request or an expired deadline is not.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.core.stats import QueryStatus
from repro.core.tracer import TracerConfig
from repro.obs import trace as obs
from repro.robust import faults

__all__ = [
    "error_envelope",
    "failure",
    "request_config",
    "solve_request",
    "worker_main",
]

#: Per-request config overrides a client may send (``max_seconds`` and
#: ``max_steps`` are additionally clamped to the server's ceilings).
CONFIG_OVERRIDES = ("k", "max_iterations", "max_seconds", "max_steps")

#: The ops :func:`solve_request` executes (everything else is served
#: by the daemon itself).
SOLVE_OPS = frozenset({"solve", "solve-bench"})


def _tightest(request_value, ceiling):
    """The tighter of a request's budget and the server's ceiling
    (``None`` = unlimited)."""
    if request_value is None:
        return ceiling
    if ceiling is None:
        return request_value
    return min(request_value, ceiling)


def _check_override(name: str, value) -> None:
    """Reject an override value of the wrong type or range.  The values
    come straight from the client's JSON, where ``true`` is an int to
    Python and ``NaN`` parses as a float that every ``min`` against a
    ceiling returns unchanged, so each is checked explicitly."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "max_seconds":
        ok = number and math.isfinite(value) and value > 0
        expected = "a finite number > 0"
    else:
        ok = number and isinstance(value, int) and value >= 1
        expected = "an integer >= 1"
    if not ok:
        raise ValueError(
            f"config override {name!r} must be {expected}, got {value!r}"
        )


def request_config(base: TracerConfig, request: dict) -> TracerConfig:
    """The effective config of one request: overrides may tighten the
    server's budget ceilings, never exceed them; ``strict`` is server
    policy and cannot be overridden.  Raises ``ValueError`` (a
    ``bad_request`` reply) for an unknown override or a value of the
    wrong type or range."""
    overrides = request.get("config") or {}
    if not isinstance(overrides, dict):
        raise ValueError("'config' must be a JSON object")
    unknown = set(overrides) - set(CONFIG_OVERRIDES)
    if unknown:
        raise ValueError(
            f"unknown config overrides {sorted(unknown)} "
            f"(allowed: {list(CONFIG_OVERRIDES)})"
        )
    for name, value in overrides.items():
        _check_override(name, value)
    return TracerConfig(
        k=overrides.get("k", base.k),
        max_iterations=overrides.get("max_iterations", base.max_iterations),
        max_seconds=_tightest(overrides.get("max_seconds"), base.max_seconds),
        max_steps=_tightest(overrides.get("max_steps"), base.max_steps),
        strict=base.strict,
    )


def failure(
    message: str,
    code: str,
    retryable: bool = False,
    retry_after_ms: Optional[int] = None,
) -> dict:
    """One structured error envelope (see the module doc)."""
    body = {
        "ok": False,
        "error": message,
        "code": code,
        "retryable": retryable,
    }
    if retry_after_ms is not None:
        body["retry_after_ms"] = int(retry_after_ms)
    return body


def error_envelope(error: Exception) -> dict:
    """The envelope for an exception a request raised: a ``ValueError``
    is the client's fault (``bad_request``), anything else is ours
    (``internal``); neither is retryable — the same input will fail
    the same way."""
    if isinstance(error, ValueError):
        return failure(str(error), "bad_request")
    return failure(f"{type(error).__name__}: {error}", "internal")


def _label(request: dict, universe) -> str:
    label = request.get("query")
    if not label:
        raise ValueError("'solve' needs a 'query' observe label")
    if label not in universe.observe_labels:
        raise ValueError(
            f"no 'observe {label}' in the program "
            f"(labels: {sorted(universe.observe_labels)})"
        )
    return label


def _variable(request: dict, universe) -> str:
    var = request.get("var")
    if not var or var not in universe.variables:
        raise ValueError(
            f"unknown variable {var!r} "
            f"(variables: {sorted(universe.variables)})"
        )
    return var


def _solve_response(queries, result) -> dict:
    entries = []
    for query in queries:
        record = result.records[query]
        entries.append(
            {
                "query": str(query),
                "verdict": record.status.value,
                "abstraction": (
                    sorted(record.abstraction)
                    if record.status is QueryStatus.PROVEN
                    and record.abstraction is not None
                    else None
                ),
                "iterations": record.iterations,
            }
        )
    return {
        "ok": True,
        "mode": result.mode,
        "store_hit": result.store_hit,
        "digest": result.digest,
        "results": entries,
    }


def _solve(session, base_config: TracerConfig, request: dict) -> Tuple[dict, Dict[str, int]]:
    kind = request.get("kind")
    text = request.get("program")
    if not isinstance(text, str):
        raise ValueError("'solve' needs a 'program' text")
    config = request_config(base_config, request)
    source = request.get("source") or f"submit:{kind}"
    if kind == "typestate":
        client, universe, automaton, _site = session.typestate_client(
            text,
            request.get("automaton", "file"),
            request.get("site"),
        )
        label = _label(request, universe)
        allowed = frozenset(request.get("allowed") or [automaton.init])
        unknown = allowed - automaton.states
        if unknown:
            raise ValueError(
                f"unknown type-states {sorted(unknown)}; "
                f"automaton has {sorted(automaton.states)}"
            )
        from repro.typestate.client import TypestateQuery

        queries = [TypestateQuery(label, allowed)]
    elif kind == "escape":
        client, universe = session.escape_client(text)
        label = _label(request, universe)
        var = _variable(request, universe)
        from repro.escape.client import EscapeQuery

        queries = [EscapeQuery(label, var)]
    elif kind == "provenance":
        client, universe = session.provenance_client(text)
        label = _label(request, universe)
        var = _variable(request, universe)
        allowed = frozenset(request.get("allowed") or universe.sites)
        unknown = allowed - universe.sites
        if unknown:
            raise ValueError(
                f"unknown sites {sorted(unknown)} "
                f"(sites: {sorted(universe.sites)})"
            )
        from repro.provenance.client import ProvenanceQuery

        queries = [ProvenanceQuery(label, var, allowed)]
    else:
        raise ValueError(
            f"unknown solve kind {kind!r} "
            "(one of: typestate, escape, provenance)"
        )
    result = session.solve(client, queries, config, source=source)
    return _solve_response(queries, result), {result.mode: 1}


def _solve_bench(session, base_config: TracerConfig, request: dict) -> Tuple[dict, Dict[str, int]]:
    name = request.get("benchmark")
    analysis = request.get("analysis")
    if not name or not analysis:
        raise ValueError("'solve-bench' needs 'benchmark' and 'analysis'")
    config = request_config(base_config, request)
    units = session.solve_benchmark(name, analysis, config)
    results = []
    modes = set()
    tiers: Dict[str, int] = {}
    hits = 0
    for _index, queries, unit in units:
        modes.add(unit.mode)
        hits += int(unit.store_hit)
        tiers[unit.mode] = tiers.get(unit.mode, 0) + 1
        results.extend(_solve_response(queries, unit)["results"])
    response = {
        "ok": True,
        "benchmark": name,
        "analysis": analysis,
        "units": len(units),
        "store_hits": hits,
        "modes": sorted(modes),
        "results": results,
    }
    return response, tiers


def solve_request(
    session, base_config: TracerConfig, request: dict
) -> Tuple[dict, Dict[str, int]]:
    """Execute one solve op on ``session``; returns ``(response,
    tiers)``.  Raises on bad input — the caller owns the envelope."""
    op = request.get("op")
    if op == "solve":
        return _solve(session, base_config, request)
    if op == "solve-bench":
        return _solve_bench(session, base_config, request)
    raise ValueError(f"unknown op {op!r}")


def worker_main(conn, store_path, base_config, fault_specs=()) -> None:
    """The supervised pool worker body (child side of the pipe).

    Messages are ``(request, request_id, attempt)`` tuples; replies are
    ``(response, meta)`` where ``meta`` carries the per-request phase
    totals, tier counts, and this worker's knowledge-store hit/miss
    *delta* — the parent folds them into its telemetry and its own
    store counters, keeping one authoritative set of instruments.

    ``None`` or EOF stops the loop.  The fault plan (from the daemon's
    ``--inject``) installs ambiently for the worker's lifetime, its hit
    counters fresh in this process; each request additionally pins the
    scope to its delivery attempt so ``attempt=``-pinned rules can fail
    a first delivery and spare the retry.
    """
    # The fork inherited the parent's ambient trace sink; two processes
    # appending to one stream would interleave records, so the worker
    # runs untraced (parent-side request events still tell the story).
    obs._CURRENT = None
    from repro.serve.session import process_session
    from repro.serve.store import KnowledgeStore

    session = process_session()
    store = None
    if store_path is not None:
        store = KnowledgeStore(store_path, shared=True)
        session.store = store
    plan = (
        faults.FaultPlan.from_specs(list(fault_specs))
        if fault_specs else None
    )
    seen_hits = seen_misses = 0
    with faults.fault_scope(plan):
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if message is None:
                break
            request, _request_id, attempt = message
            tiers: Dict[str, int] = {}
            phase_totals: Dict[str, float] = {}
            with faults.fault_scope(plan, attempt=attempt):
                try:
                    faults.inject("serve.worker")
                    with obs.phase_timing() as phases:
                        response, tiers = solve_request(
                            session, base_config, request
                        )
                    phase_totals = dict(phases.totals)
                except Exception as error:
                    response = error_envelope(error)
            meta = {"phases": phase_totals, "tiers": tiers}
            if store is not None:
                meta["store"] = {
                    "hits": store.hits - seen_hits,
                    "misses": store.misses - seen_misses,
                }
                seen_hits, seen_misses = store.hits, store.misses
            try:
                conn.send((response, meta))
            except (BrokenPipeError, OSError):
                break
    if store is not None:
        store.close()
    try:
        conn.close()
    except OSError:
        pass
