"""Abstract states of the type-state analysis (Figure 4).

``D = (2^T x 2^V) + {TOP}``: a non-error state records the possible
type-states ``ts`` of the tracked object and its must-alias set ``vs``;
``TOP`` records that a type-state error may have occurred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Union


@dataclass(frozen=True)
class TsTop:
    """The error state ``TOP``."""

    def __str__(self) -> str:
        return "TOP"


TOP = TsTop()


@dataclass(frozen=True)
class TsState:
    """A non-error abstract state ``(ts, vs)``."""

    ts: FrozenSet[str]
    vs: FrozenSet[str]

    @staticmethod
    def make(ts: Iterable[str], vs: Iterable[str] = ()) -> "TsState":
        return TsState(frozenset(ts), frozenset(vs))

    def with_ts(self, ts: Iterable[str]) -> "TsState":
        return TsState(frozenset(ts), self.vs)

    def with_vs(self, vs: Iterable[str]) -> "TsState":
        return TsState(self.ts, frozenset(vs))

    def __str__(self) -> str:
        ts = "{" + ", ".join(sorted(self.ts)) + "}"
        vs = "{" + ", ".join(sorted(self.vs)) + "}"
        return f"({ts}, {vs})"

    def __repr__(self) -> str:
        # Canonical (sorted) — the dataclass default interpolates raw
        # frozensets, whose iteration order depends on insertion
        # history, and ``states_at`` sorts states by repr: equal states
        # must repr identically however their sets were built, or the
        # observe order would depend on the hash seed.
        return f"TsState{self}"


TsAbstract = Union[TsState, TsTop]
