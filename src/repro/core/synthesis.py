"""Automatic synthesis of backward transfer functions.

The paper closes (Section 8) noting that "manually defining the
transfer functions of the meta-analysis can be tedious and
error-prone" and proposes "a general recipe for synthesizing these
functions automatically from a given abstract domain and parametric
analysis".  This module implements that recipe for the (common) case
where abstract states are *location-valued*: the pair ``(p, d)`` is a
finite assignment of values to locations (variables, fields, sites,
boolean facts), and every primitive formula reads a single location.

The recipe:

1. the client declares, per command, a **footprint** — the set of
   location groups the command reads or writes (always finitely many
   and small: a heap command touches at most three locations);
2. to compute ``wp(command, prim)``, enumerate every assignment of
   values to ``footprint(command) + {group(prim)}``, instantiate a
   concrete pair ``(p, d)``, run the *forward* transfer function once,
   and test whether ``prim`` holds afterwards;
3. the weakest precondition is the disjunction of the assignments that
   pass, each rendered as a conjunction of literals.

Correctness needs exactly the footprint contract: the post-value of
``prim``'s location must be a function of the footprint locations'
pre-values.  The test suite cross-checks every synthesized function
against requirement (2) of Section 4 by full enumeration, and against
the handwritten Figures 10/11 functions semantically.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.formula import (
    Formula,
    Lit,
    Literal,
    Primitive,
    Theory,
    conj,
    disj,
    merge_cubes,
    simplify,
    to_dnf,
)
from repro.core.meta import BackwardMetaAnalysis
from repro.core.parametric import ParametricAnalysis
from repro.lang.ast import AtomicCommand

Group = Hashable
Assignment = Dict[Group, object]


class FootprintModel:
    """Client interface describing the location structure of a domain."""

    def groups_of_command(self, command: AtomicCommand) -> FrozenSet[Group]:
        """The location groups ``command`` reads or writes.  An empty
        set declares the command a no-op for the analysis."""
        raise NotImplementedError

    def group_of_primitive(self, prim: Primitive) -> Group:
        """The (single) location group ``prim`` reads."""
        raise NotImplementedError

    def group_values(self, group: Group) -> Tuple[object, ...]:
        """The finitely many values the group's location can take."""
        raise NotImplementedError

    def group_literal(self, group: Group, value: object) -> Literal:
        """The literal asserting ``location = value``."""
        raise NotImplementedError

    def instantiate(self, assignment: Assignment) -> Optional[Tuple[object, object]]:
        """Build a concrete ``(p, d)`` pair realising ``assignment``
        (un-assigned locations take an arbitrary baseline), or ``None``
        when the assignment is unsatisfiable (no such pair exists)."""
        raise NotImplementedError


def synthesize_wp(
    analysis: ParametricAnalysis,
    theory: Theory,
    model: FootprintModel,
    command: AtomicCommand,
    prim: Primitive,
) -> Formula:
    """Synthesize the weakest precondition of ``command`` w.r.t. ``prim``."""
    groups = sorted(
        model.groups_of_command(command) | {model.group_of_primitive(prim)},
        key=repr,
    )
    value_spaces = [model.group_values(group) for group in groups]
    passing = []
    for values in itertools.product(*value_spaces):
        assignment = dict(zip(groups, values))
        pair = model.instantiate(assignment)
        if pair is None:
            continue
        p, d = pair
        post = analysis.transfer(command, p, d)
        if theory.holds(prim, p, post):
            passing.append(
                conj(
                    *(
                        Lit(model.group_literal(group, value))
                        for group, value in zip(groups, values)
                    )
                )
            )
    raw = to_dnf(disj(*passing), theory)
    # The raw result enumerates one cube per passing assignment; merge
    # exhaustive case splits away so downstream DNF work stays small
    # (for the escape domain this recovers formulas of the same order
    # as the handwritten Figure 11 ones).
    return merge_cubes(simplify(raw, theory), theory).to_formula()


class SynthesizedMeta(BackwardMetaAnalysis):
    """A backward meta-analysis whose transfer functions are synthesized
    on demand from the forward analysis (and memoised by the backward
    pass's wp memo, so each (command, primitive) pair is enumerated
    once per run)."""

    def __init__(
        self,
        analysis: ParametricAnalysis,
        theory: Theory,
        model: FootprintModel,
    ):
        self.analysis = analysis
        self.theory = theory
        self.model = model

    def wp_primitive(self, command: AtomicCommand, prim: Primitive) -> Formula:
        return synthesize_wp(self.analysis, self.theory, self.model, command, prim)
