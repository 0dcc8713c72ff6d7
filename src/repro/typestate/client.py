"""TRACER client for the type-state analysis.

A query ``(pc, h)`` of Section 6 asks whether, at the program point
labelled ``pc``, every object allocated at site ``h`` that the receiver
may denote is in an *allowed* type-state.  The failure condition is::

    not(q) = err | \\/ {type(s) | s not allowed}

One :class:`TypestateClient` binds a program and a single tracked
allocation site; queries on different sites use different client
instances (their forward analyses track different objects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.core.formula import Formula, disj, lit
from repro.core.selfcheck import sample_pairs, sample_subsets
from repro.core.tracer import TracerClient
from repro.dataflow.engines import ForwardResult, engine_for
from repro.lang.ast import Program
from repro.lang.cfg import Cfg, build_cfg
from repro.typestate.analysis import MayPoint, TypestateAnalysis
from repro.typestate.automaton import TypestateAutomaton
from repro.typestate.domain import TOP, TsState
from repro.typestate.meta import ERR, TsParam, TsType, TsVar, TypestateMeta


@dataclass(frozen=True)
class TypestateQuery:
    """Prove that at ``Observe(label)`` the tracked object's type-state
    is within ``allowed`` (and no error occurred)."""

    label: str
    allowed: FrozenSet[str]

    def __str__(self) -> str:
        return f"typestate:{self.label}"


class TypestateClient(TracerClient):
    """Binds program + automaton + tracked site into a TRACER client."""

    def __init__(
        self,
        program: Program,
        automaton: TypestateAutomaton,
        tracked_site: str,
        variables: FrozenSet[str],
        may_point: Optional[MayPoint] = None,
        event_labels: Optional[FrozenSet[str]] = None,
    ):
        self.program = program
        self.engine = engine_for(program)
        self.cfg: Optional[Cfg] = getattr(self.engine, "cfg", None)
        self.analysis = TypestateAnalysis(
            automaton, tracked_site, variables, may_point, event_labels
        )
        self.meta = TypestateMeta(self.analysis)

    def fail_condition(self, query: TypestateQuery) -> Formula:
        bad_states = sorted(self.analysis.automaton.states - query.allowed)
        return disj(lit(ERR), *(lit(TsType(s)) for s in bad_states))

    def cache_key(self):
        """Forward-run cache identity: the tracked site and automaton
        distinguish sibling clients of one benchmark; the base token
        distinguishes client instances (and hence programs)."""
        return (
            "typestate",
            self.analysis.tracked_site,
            self.analysis.automaton.name,
            TracerClient.cache_key(self),
        )

    def run_forward(self, p: FrozenSet[str]) -> ForwardResult:
        """One forward run of the ``p``-instantiated analysis."""
        return self.engine.run(
            self.analysis.semantics.bound_step(p),
            self.analysis.initial_state(),
        )

    def selfcheck_space(self):
        """Primitives and ``(p, d)`` samples for ``repro selfcheck``;
        exhaustive when the variable/state universes are small."""
        automaton_states = sorted(self.analysis.automaton.states)
        variables = sorted(self.analysis.param_space.universe)
        prims = [ERR]
        for var in variables:
            prims.append(TsParam(var))
            prims.append(TsVar(var))
        prims.extend(TsType(s) for s in automaton_states)
        states = [TOP]
        for ts in sample_subsets(automaton_states, limit=4):
            for vs in sample_subsets(variables, limit=4):
                states.append(TsState(ts, vs))
        return prims, sample_pairs(sample_subsets(variables), states)

    # counterexamples() is inherited from TracerClient: one forward run
    # (through the forward-run cache when the driver passes one), then a
    # per-query scan of the states reaching each Observe label.
