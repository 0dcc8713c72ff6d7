"""TRACER client for the provenance analysis.

A query ``(pc, v, allowed)`` asks whether ``v`` at ``Observe(pc)`` can
only denote null or objects allocated at sites in ``allowed``::

    not(q) = v.top | \\/ {h in v | h not in allowed}

Provable exactly when (a) every allocation reaching ``v`` is tracked
by some abstraction and (b) all of those sites lie in ``allowed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

import itertools

from repro.core.formula import Formula, disj, lit
from repro.core.selfcheck import sample_pairs, sample_subsets
from repro.core.tracer import TracerClient
from repro.dataflow.engines import ForwardResult, engine_for
from repro.lang.ast import Program
from repro.lang.cfg import Cfg, build_cfg
from repro.provenance.analysis import ProvenanceAnalysis
from repro.provenance.domain import PT_TOP, PtSchema
from repro.provenance.meta import ProvenanceMeta, PtHas, PtParam, PtTop


@dataclass(frozen=True)
class ProvenanceQuery:
    """Prove that at ``Observe(label)`` variable ``var`` denotes only
    objects from ``allowed`` allocation sites (or null)."""

    label: str
    var: str
    allowed: FrozenSet[str]

    def __str__(self) -> str:
        return f"provenance:{self.label}:{self.var}"


class ProvenanceClient(TracerClient):
    """Binds a program and its variable/site universes."""

    def __init__(self, program: Program, schema: PtSchema, sites: FrozenSet[str]):
        self.program = program
        self.engine = engine_for(program)
        self.cfg: Optional[Cfg] = getattr(self.engine, "cfg", None)
        self.schema = schema
        self.analysis = ProvenanceAnalysis(schema, sites)
        self.meta = ProvenanceMeta(self.analysis)

    def fail_condition(self, query: ProvenanceQuery) -> Formula:
        bad_sites = sorted(self.analysis.sites - query.allowed)
        return disj(
            lit(PtTop(query.var)),
            *(lit(PtHas(query.var, h)) for h in bad_sites),
        )

    def cache_key(self):
        """Forward-run cache identity; the base token distinguishes
        client instances (and hence programs)."""
        return ("provenance", TracerClient.cache_key(self))

    def run_forward(self, p: FrozenSet[str]) -> ForwardResult:
        return self.engine.run(
            self.analysis.semantics.bound_step(p),
            self.analysis.initial_state(),
        )

    def selfcheck_space(self):
        """Primitives and ``(p, d)`` samples for ``repro selfcheck``;
        exhaustive when the site/variable universes are small."""
        sites = sorted(self.analysis.sites)
        variables = self.schema.variables
        prims = [PtParam(site) for site in sites]
        for var in variables:
            prims.append(PtTop(var))
            prims.extend(PtHas(var, site) for site in sites)
        values = [PT_TOP] + sample_subsets(sites, limit=3)
        states = (
            self.schema.state(dict(zip(variables, combo)))
            for combo in itertools.product(values, repeat=len(variables))
        )
        return prims, sample_pairs(sample_subsets(sites), states)

    # counterexamples() is inherited from TracerClient.
