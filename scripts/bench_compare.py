"""Dump deterministic TRACER results for before/after comparison.

Runs the smoke-sized benchmark suite for the typestate and escape
clients (forward cache on and off) plus a battery of seeded random
programs for all three clients (typestate, escape, provenance), and
writes per-query ``(status, abstraction, iterations)`` triples to a
JSON file.  Diffing two dumps verifies that a refactor of the transfer
semantics is behaviour-preserving::

    PYTHONPATH=src python scripts/bench_compare.py /tmp/before.json
    ... refactor ...
    PYTHONPATH=src python scripts/bench_compare.py /tmp/after.json
    diff /tmp/before.json /tmp/after.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.bench.harness import prepare, evaluate_benchmark
from repro.core.tracer import Tracer, TracerConfig
from repro.escape.client import EscapeClient, EscapeQuery
from repro.escape.domain import EscSchema
from repro.provenance.client import ProvenanceClient, ProvenanceQuery
from repro.provenance.domain import PtSchema
from repro.typestate.automaton import file_automaton
from repro.typestate.client import TypestateClient, TypestateQuery
from tests.randprog import (
    FIELDS,
    SITES,
    VARS,
    random_escape_program,
    random_typestate_program,
)

BENCHMARKS = ("tsp", "elevator", "hedc")
ANALYSES = ("typestate", "escape")


def _record(r):
    return {
        "query": r.query_id,
        "status": r.status.value,
        "abstraction": sorted(r.abstraction) if r.abstraction is not None else None,
        "iterations": r.iterations,
        "max_disjuncts": r.max_disjuncts,
    }


def suite_results(cache_size):
    config = TracerConfig(k=5, max_iterations=30, forward_cache_size=cache_size)
    out = {}
    for name in BENCHMARKS:
        bench = prepare(name)
        for analysis in ANALYSES:
            result = evaluate_benchmark(bench, analysis, config)
            out[f"{name}/{analysis}"] = [_record(r) for r in result.records]
    return out


def random_results(cache_size):
    config = TracerConfig(k=5, max_iterations=40, forward_cache_size=cache_size)
    out = {}
    for seed in range(40):
        rng = random.Random(seed)
        program = random_typestate_program(rng, length=7)
        client = TypestateClient(
            program, file_automaton(), "h1", frozenset(VARS)
        )
        query = TypestateQuery("q", frozenset({"closed", "opened"}))
        record = Tracer(client, config).solve(query)
        out[f"typestate/seed{seed}"] = [_record(record)]
    for seed in range(40):
        rng = random.Random(seed + 1000)
        program = random_escape_program(rng, length=7)
        schema = EscSchema(VARS, FIELDS)
        client = EscapeClient(program, schema, frozenset(SITES))
        records = [
            _record(Tracer(client, config).solve(EscapeQuery("q", v)))
            for v in VARS
        ]
        out[f"escape/seed{seed}"] = records
    for seed in range(40):
        rng = random.Random(seed + 2000)
        program = random_escape_program(rng, length=7)
        schema = PtSchema(VARS)
        client = ProvenanceClient(program, schema, frozenset(SITES))
        records = [
            _record(
                Tracer(client, config).solve(
                    ProvenanceQuery("q", v, frozenset({"h1"}))
                )
            )
            for v in VARS
        ]
        out[f"provenance/seed{seed}"] = records
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", default="bench_compare.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    dump = {
        "suite_cache_on": suite_results(64),
        "suite_cache_off": suite_results(None),
        "random_cache_on": random_results(64),
        "random_cache_off": random_results(None),
    }
    with open(args.out, "w") as handle:
        json.dump(dump, handle, indent=1, sort_keys=True)
        handle.write("\n")
    total = sum(len(v) for section in dump.values() for v in section.values())
    print(f"wrote {args.out}: {total} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
