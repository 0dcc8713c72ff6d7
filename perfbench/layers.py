"""Layer-attributed spans, recorded from outside the program.

:class:`LayerTrace` wraps each layer's public entry point with a
function that records a span (name, start, end, parent, workload) and
the layer's counts, and puts every original back on :meth:`restore`.
Spans stay in memory; :meth:`dump` writes them out when a pass ends.

Forked worker processes (the lease scheduler's) inherit the installed
wrappers.  A worker appends its spans to ``worker-<pid>.jsonl`` in the
trace directory each time a top-level span closes, because forked
workers exit without running exit handlers; :meth:`collect` merges
those files into the parent's list.

:func:`fold` turns spans into per-layer metrics, self time included: a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple


def _targets():
    """``(owner, attribute, span name, counts)`` of every wrapped entry
    point.  ``counts(args, result)`` returns the span's counts."""
    import repro.core.meta as meta
    import repro.core.tracer as tracer
    from repro.core.tracer import Tracer, TracerClient
    from repro.core.viability import ViabilityStore
    from repro.escape.client import EscapeClient
    from repro.typestate.client import TypestateClient

    import inputs

    def prepared(args, bench):
        return {"inlined_commands": bench.metrics.inlined_commands}

    def forward(args, result):
        return {"steps": getattr(result, "steps", 0)}

    def backward(args, result):
        return {
            "trace_cmds": len(args[2]),
            "max_disjuncts": result.max_disjuncts,
            "subsumption_drops": result.subsumption_drops,
            "beam_prunes": result.beam_prunes,
        }

    def minsat(args, result):
        return {"clauses": len(args[0].clauses)}

    def solved(args, records):
        return {
            "iterations": sum(r.iterations for r in records.values()),
            "forward_runs": sum(r.forward_runs for r in records.values()),
        }

    return [
        (inputs, "prepare", "frontend.prepare", prepared),
        (Tracer, "solve_all", "tracer.solve_all", solved),
        (TracerClient, "counterexamples", "forward.counterexamples", None),
        (EscapeClient, "run_forward", "forward.run", forward),
        (TypestateClient, "run_forward", "forward.run", forward),
        (tracer, "backward_trace", "backward.trace", backward),
        (meta, "to_dnf", "formula.to_dnf", None),
        (meta, "simplify", "formula.simplify", None),
        (ViabilityStore, "choose_minimum", "minsat.choose", minsat),
    ]


#: One span: ``[name, start, end, parent index, workload, pid, counts]``.
Span = list


class LayerTrace:
    """Installs and removes the wrappers; owns the recorded spans."""

    def __init__(self, workload: str, directory: str):
        self.workload = workload
        self.directory = directory
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._recording_pid = self._pid

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for owner, attr, name, counts in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn: Callable, name: str, counts: Optional[Callable]):
        spans, stack, workload = self.spans, self._stack, self.workload
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != self._recording_pid:
                # First span in a forked worker: drop the inherited copy
                # of the parent's spans, which the parent still holds.
                spans.clear()
                stack.clear()
                self._recording_pid = pid
            parent = stack[-1] if stack else None
            span = [name, clock(), None, parent, workload, pid, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[6] = counts(args, result)
            if not stack and pid != self._pid:
                self._flush_worker()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------------

    def _flush_worker(self) -> None:
        path = os.path.join(self.directory, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans.clear()

    def collect(self) -> None:
        """Merge the spans forked workers wrote; parent indices are
        rebased onto this process's list."""
        for path in sorted(glob.glob(os.path.join(self.directory, "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    base = len(self.spans)
                    for span in json.loads(line):
                        if span[3] is not None:
                            span[3] += base
                        self.spans.append(span)
            os.remove(path)

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "workload", "pid", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time covered by its children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def fold(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)
    total: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    sums: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    has_forward_child = set()
    for index, span in enumerate(spans):
        name = span[0]
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        selfs[name] = selfs.get(name, 0.0) + own[index]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[6] or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
            maxima[f"{name}.{key}"] = max(maxima.get(f"{name}.{key}", 0), value)
        if name == "forward.run" and span[3] is not None:
            has_forward_child.add(span[3])
    counterexamples = [
        i for i, span in enumerate(spans) if span[0] == "forward.counterexamples"
    ]
    hits = sum(1 for i in counterexamples if i not in has_forward_child)
    formula_in_backward = sum(
        span[2] - span[1]
        for span in spans
        if span[0].startswith("formula.")
        and span[3] is not None
        and spans[span[3]][0] == "backward.trace"
    )
    return {
        "frontend.prepare_s": total.get("frontend.prepare", 0.0),
        "frontend.inlined_commands": sums.get("frontend.prepare.inlined_commands", 0),
        "forward.calls": calls.get("forward.run", 0),
        "forward.s": total.get("forward.run", 0.0),
        "forward.steps": sums.get("forward.run.steps", 0),
        "forward.extract_s": selfs.get("forward.counterexamples", 0.0),
        "forward.cache_hit_rate": hits / len(counterexamples) if counterexamples else 0.0,
        "backward.calls": calls.get("backward.trace", 0),
        "backward.s": total.get("backward.trace", 0.0),
        "backward.self_s": total.get("backward.trace", 0.0) - formula_in_backward,
        "backward.trace_cmds": sums.get("backward.trace.trace_cmds", 0),
        "backward.max_disjuncts": maxima.get("backward.trace.max_disjuncts", 0),
        "backward.subsumption_drops": sums.get("backward.trace.subsumption_drops", 0),
        "backward.beam_prunes": sums.get("backward.trace.beam_prunes", 0),
        "formula.to_dnf_s": total.get("formula.to_dnf", 0.0),
        "formula.simplify_s": total.get("formula.simplify", 0.0),
        "formula.calls": calls.get("formula.to_dnf", 0) + calls.get("formula.simplify", 0),
        "minsat.calls": calls.get("minsat.choose", 0),
        "minsat.s": total.get("minsat.choose", 0.0),
        "minsat.clauses_max": maxima.get("minsat.choose.clauses", 0),
        "tracer.units": calls.get("tracer.solve_all", 0),
        "tracer.iterations": sums.get("tracer.solve_all.iterations", 0),
        "tracer.forward_runs": sums.get("tracer.solve_all.forward_runs", 0),
        "tracer.s": total.get("tracer.solve_all", 0.0),
        "tracer.self_s": selfs.get("tracer.solve_all", 0.0),
    }
