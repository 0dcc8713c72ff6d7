"""Seeded benchmark inputs and their reference verdicts.

Every seeded workload solves a fixed set of ``(benchmark, analysis)``
pairs.  ``--seed`` decides which programs the system receives:

* seed 0 gives the seven named suite programs exactly as
  ``repro eval`` builds them;
* any other seed gives an alpha-renamed copy of each named program:
  every class, method, field, global and local name gains the suffix
  ``__r<seed>``.  The programs the system sees are new text, but their
  shape, and so the work TRACER does on them, is that of the named
  programs.  Runs on different seeds therefore measure the same work,
  which is what lets a run-to-run spread across seeds stand for noise.
  Verdicts and minimum costs are invariant under renaming, so the
  checked-in reference applies after stripping the suffix.

``avrora/escape`` is left out of every workload: that one pair takes
about 31 s on its own, which does not fit the per-run time budget.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    BenchmarkInstance,
    analysis_setups,
    evaluate_benchmark,
    prepare,
    prepare_uncached,
)
from repro.bench.suite import BENCHMARK_NAMES, benchmark
from repro.frontend.program import (
    ClassDef,
    FrontProgram,
    MethodDef,
    SApiCall,
    SAssign,
    SAssignNull,
    SCall,
    SIf,
    SLoadField,
    SLoadGlobal,
    SNew,
    SReturn,
    SStoreField,
    SStoreGlobal,
    SThreadStart,
    SWhile,
    Stmt,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: The ``--quick`` set the serve workload submits.
QUICK = ("tsp", "elevator", "hedc", "weblech")

#: Pair that exceeds the per-run time budget (see the module docstring).
TOO_LONG = (("avrora", "escape"),)

Pair = Tuple[str, str]


def _pairs(analyses: Sequence[str], names: Sequence[str] = BENCHMARK_NAMES):
    return [
        (name, analysis)
        for name in names
        for analysis in analyses
        if (name, analysis) not in TOO_LONG
    ]


#: The ``(benchmark, analysis)`` pairs of each seeded workload.
WORKLOAD_PAIRS: Dict[str, List[Pair]] = {
    "escape-suite": _pairs(("escape",)),
    "typestate-suite": _pairs(("typestate",)),
    # Whole benchmarks, as evaluate_many crosses instances with analyses.
    "matrix-jobs2": _pairs(
        ("typestate", "escape"), [n for n in BENCHMARK_NAMES if n != "avrora"]
    ),
}

#: Pairs of the serve workload (unseeded: ``solve-bench`` takes suite
#: names only).
SERVE_PAIRS: List[Pair] = _pairs(("typestate", "escape"), QUICK)

#: Names the front end gives a meaning of its own (the receiver and the
#: thread body); renaming keeps them.
_RESERVED = frozenset({"this", "run"})


def rename_suffix(seed: int) -> str:
    """Made of identifier characters only, so names the front end
    derives from program names (such as escape query variables) keep
    it intact and :func:`canonical_ids` can strip it."""
    return f"__r{seed}"


def renamed(front: FrontProgram, suffix: str) -> FrontProgram:
    """An alpha-renamed copy of ``front``: every program-chosen name
    gets ``suffix``; allocation-site ids are kept."""

    def r(name: Optional[str]) -> Optional[str]:
        if name is None or name in _RESERVED:
            return name
        return name + suffix

    def stmts(body: Sequence[Stmt]) -> List[Stmt]:
        return [stmt_of(s) for s in body]

    def stmt_of(s: Stmt) -> Stmt:
        if isinstance(s, SNew):
            return SNew(r(s.lhs), r(s.cls), s.site)
        if isinstance(s, SAssign):
            return SAssign(r(s.lhs), r(s.rhs))
        if isinstance(s, SAssignNull):
            return SAssignNull(r(s.lhs))
        if isinstance(s, SLoadField):
            return SLoadField(r(s.lhs), r(s.base), r(s.fld))
        if isinstance(s, SStoreField):
            return SStoreField(r(s.base), r(s.fld), r(s.rhs))
        if isinstance(s, SLoadGlobal):
            return SLoadGlobal(r(s.lhs), r(s.glob))
        if isinstance(s, SStoreGlobal):
            return SStoreGlobal(r(s.glob), r(s.rhs))
        if isinstance(s, SCall):
            return SCall(r(s.lhs), r(s.base), r(s.method), tuple(map(r, s.args)))
        if isinstance(s, SApiCall):
            return SApiCall(r(s.base), r(s.method))
        if isinstance(s, SThreadStart):
            return SThreadStart(r(s.var))
        if isinstance(s, SIf):
            return SIf(stmts(s.then), stmts(s.els))
        if isinstance(s, SWhile):
            return SWhile(stmts(s.body))
        if isinstance(s, SReturn):
            return SReturn(r(s.var))
        raise TypeError(f"cannot rename statement {s!r}")

    out = FrontProgram(entry_class=r(front.entry_class), entry_method=r(front.entry_method))
    for cls in front.classes.values():
        methods = {
            r(name): MethodDef(r(m.name), tuple(map(r, m.params)), stmts(m.body))
            for name, m in cls.methods.items()
        }
        out.add_class(
            ClassDef(r(cls.name), tuple(map(r, cls.fields)), methods, cls.is_library)
        )
    return out


def seeded_instances(names: Sequence[str], seed: int) -> Dict[str, BenchmarkInstance]:
    """Prepared instances of ``names`` for ``seed`` (see the module
    docstring); the front-end work is what ``setup_s`` times."""
    if seed == 0:
        return {name: prepare(name) for name in names}
    suffix = rename_suffix(seed)
    return {name: prepare(name, renamed(benchmark(name), suffix)) for name in names}


def canonical_ids(
    bench: str, analysis: str, query_ids: Sequence[str], seed: int
) -> List[str]:
    """The reference keys of one pair's records, in record order:
    renaming stripped, qualified by the pair, and numbered where a
    query id repeats (type-state clients of different tracked sites
    share query labels; records come in unit order)."""
    suffix = rename_suffix(seed) if seed else None
    seen: Dict[str, int] = {}
    keys = []
    for query_id in query_ids:
        if suffix:
            query_id = query_id.replace(suffix, "")
        seen[query_id] = seen.get(query_id, 0) + 1
        keys.append(f"{bench}/{analysis}/{query_id}@{seen[query_id]}")
    return keys


def reference_path(analysis: str) -> str:
    """The checked-in reference of one analysis: the verdicts of its
    ``<analysis>-suite`` workload, which every other workload's pairs
    are drawn from."""
    return os.path.join(REFERENCE_DIR, f"{analysis}-suite.json")


def load_reference(pairs: Sequence[Pair]) -> Dict[str, Tuple[str, Optional[int]]]:
    """``canonical id -> (status, abstraction_cost)`` of every query of
    ``pairs``."""
    prefixes = tuple(f"{name}/{analysis}/" for name, analysis in pairs)
    reference = {}
    for analysis in sorted({analysis for _, analysis in pairs}):
        with open(reference_path(analysis), encoding="utf-8") as handle:
            data = json.load(handle)
        for key, entry in data["verdicts"].items():
            if key.startswith(prefixes):
                reference[key] = (entry[0], entry[1])
    return reference


def compare(
    observed: Dict[str, Tuple[str, Optional[int]]],
    reference: Dict[str, Tuple[str, Optional[int]]],
) -> List[str]:
    """Every disagreement between a run's verdicts and the reference:
    a flipped status, a changed cost, a missing or an unexpected
    query."""
    problems = []
    for key in sorted(reference):
        if key not in observed:
            problems.append(f"{key}: missing")
        elif tuple(observed[key]) != tuple(reference[key]):
            problems.append(
                f"{key}: got {tuple(observed[key])}, expected {tuple(reference[key])}"
            )
    problems.extend(f"{key}: unexpected" for key in sorted(set(observed) - set(reference)))
    return problems


def certify_pair(name: str, analysis: str) -> Tuple[Dict[str, list], List[str]]:
    """Solve one pair on the named program with certificates and check
    every PROVEN and IMPOSSIBLE verdict with the independent checker
    ``repro.robust.certify.check_certificate``, against clients built
    from a fresh front-end run.  Returns the verdicts by reference key
    and every problem found."""
    from repro.bench.parallel import RunOptions
    from repro.robust.certify import check_certificate

    result = evaluate_benchmark(prepare(name), analysis, options=RunOptions(certify=True))
    keys = canonical_ids(name, analysis, [r.query_id for r in result.records], 0)
    verdicts = {
        key: [record.status.value, record.abstraction_cost]
        for key, record in zip(keys, result.records)
    }
    problems = list(result.failed_units)
    fresh = analysis_setups(prepare_uncached(name), analysis)
    checked = 0
    for cert in result.certificates:
        if cert["verdict"] not in ("proven", "impossible"):
            continue
        client, queries = fresh[cert["client"]["index"]]
        report = check_certificate(client, queries[cert["client"]["query_index"]], cert)
        problems.extend(f"{name}/{analysis}/{cert['query']}: {p}" for p in report.problems)
        checked += 1
    resolved = sum(1 for status, _ in verdicts.values() if status in ("proven", "impossible"))
    if checked != resolved:
        problems.append(f"{name}/{analysis}: {resolved} resolved, {checked} certificates checked")
    return verdicts, problems
