"""The clause bus: cross-worker sharing of learned refinement rounds.

The paper's group-solving insight — an unviability clause learned
while refining one query prunes the search for its siblings — stops at
a process boundary in the wave pool: worker A's clauses never reach
worker B mid-run, and when A is SIGKILLed its partial search is
forfeit.  The bus closes both gaps with one append-only JSONL file per
evaluation (scoped per task by the program/unit digest in the scope
string) carrying the *completed CEGAR rounds* of every worker::

    {"type": "bus_header", "version": 1}
    {"type": "round", "scope": "bench:analysis:unit:group",
     "round": n, "queries": [...], "worker": w,
     "record": <search-journal round record>, "sha256": ...}

A worker publishes each successful round as it finishes (between CEGAR
rounds, right where the search journal records it); a sibling that
later re-executes the *same task* — after stealing an expired lease —
drains matching rounds instead of re-running their forward fixpoints.
Crucially, a drained round is **never trusted**: it is replayed
through :func:`repro.core.tracer.apply_replay`, whose per-survivor
``ViabilityStore.add_clauses`` + ``excludes`` probes re-validate every
imported clause against this process's own store before any of it can
prune the search.  Re-validation reads the clauses only: survivor
witness traces travel on the bus only when the run certifies (they
become certificate evidence), and are ``[]`` otherwise.  A record that
fails re-validation raises :class:`ClauseFeedMismatch` and the importer
falls back to solving the round cold.

Each worker process keeps one :class:`ClauseBus` handle for all its
tasks, so it parses the bus incrementally, once; every task gets its
own :class:`ClauseFeed` on that handle.

Only ``"ok"`` rounds travel: budget and error outcomes are
wall-clock-dependent (re-running them may legitimately differ), and
``"impossible"`` rounds are a single cheap MinCostSAT call — not worth
the coupling.

The bus is a durable record log (:mod:`repro.robust.recordlog`; crash
rules in the "Durable record logs" section of ``docs/ROBUSTNESS.md``).
Publishing is strictly best-effort — any IO error disables the bus
for the rest of the task rather than failing the evaluation; the next
task's :class:`ClauseFeed` re-arms it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.robust.recordlog import RecordLog, load

__all__ = [
    "BUS_VERSION",
    "ClauseBus",
    "ClauseFeed",
    "ClauseFeedMismatch",
    "load_bus_records",
]

BUS_VERSION = 1


class ClauseFeedMismatch(ValueError):
    """A drained round failed re-validation against this process's own
    viability store — the import is discarded, never trusted."""


def load_bus_records(path: str) -> List[dict]:
    """Every intact record of a clause-bus log, checksums verified."""
    return load(path, "bus", BUS_VERSION)


class ClauseBus(RecordLog):
    """One process's handle on the shared round log.

    Reads are lock-free polls; a publish is one
    :meth:`RecordLog.transaction`.
    """

    def __init__(self, path: str, worker: str, fresh: bool = False):
        super().__init__(path, "bus", BUS_VERSION)
        self.worker = worker
        self.reset()
        self.published = 0
        self.dropped = 0
        self.rearm(fresh=fresh)

    def rearm(self, fresh: bool = False) -> None:
        """(Re)open the log and clear :attr:`disabled`: an IO error
        disables the bus for the rest of one task only."""
        self.disabled = False
        try:
            self.create(fresh=fresh)
        except OSError:
            self.disabled = True

    # -- the fold -----------------------------------------------------------

    def reset(self) -> None:
        self._rounds: Dict[Tuple[str, int, Tuple[str, ...]], dict] = {}

    def fold(self, record: dict) -> None:
        if record.get("type") != "round":
            return
        key = (
            record["scope"],
            int(record["round"]),
            tuple(record["queries"]),
        )
        # First publication wins; rounds are deterministic per scope so
        # later duplicates are identical anyway.
        self._rounds.setdefault(key, record)

    # -- the bus protocol ---------------------------------------------------

    def publish(
        self, scope: str, round_index: int, queries: Sequence[str], record: dict
    ) -> bool:
        """Durably publish one completed round (best-effort: IO errors
        disable the bus and count as drops, never raise)."""
        if self.disabled:
            self.dropped += 1
            return False
        try:
            with self.transaction():
                key = (scope, int(round_index), tuple(queries))
                if key in self._rounds:
                    return False
                self.write(
                    {
                        "type": "round",
                        "scope": scope,
                        "round": int(round_index),
                        "queries": list(queries),
                        "worker": self.worker,
                        "record": record,
                        "t": time.time(),
                    }
                )
                self.published += 1
                return True
        except OSError:
            self.disabled = True
            self.dropped += 1
            return False

    def fetch(
        self, scope: str, round_index: int, queries: Sequence[str]
    ) -> Optional[dict]:
        """The published round record for ``(scope, round, queries)``,
        or ``None``.  Lock-free read; IO errors disable the bus."""
        if self.disabled:
            return None
        key = (scope, int(round_index), tuple(queries))
        found = self._rounds.get(key)
        if found is not None:
            return found["record"]
        try:
            self.poll()
        except OSError:
            self.disabled = True
            return None
        found = self._rounds.get(key)
        return None if found is None else found["record"]

    def rounds_for(self, scope: str) -> List[dict]:
        """All published round records for a scope, in round order."""
        try:
            self.poll()
        except OSError:
            self.disabled = True
        matching = [
            record
            for (record_scope, _idx, _qs), record in self._rounds.items()
            if record_scope == scope
        ]
        return sorted(matching, key=lambda record: int(record["round"]))


class ClauseFeed:
    """A single task's view of the bus, handed to the tracer.

    The tracer calls :meth:`drain` before solving each round — a hit
    means a sibling already finished that exact round for this scope
    and the record can be replayed through the re-validation path —
    and :meth:`publish` after recording each successful round.
    Opening a feed re-arms a bus that an IO error disabled during an
    earlier task.
    """

    def __init__(self, bus: ClauseBus, scope: str):
        if bus.disabled:
            bus.rearm()
        self.bus = bus
        self.scope = scope
        self.imported = 0
        self.published = 0

    def drain(
        self, round_index: int, queries: Sequence[str]
    ) -> Optional[dict]:
        record = self.bus.fetch(self.scope, round_index, queries)
        if record is not None:
            self.imported += 1
        return record

    def publish(self, record: dict) -> None:
        if record.get("outcome") != "ok":
            return  # budget/error rounds are timing-dependent; skip
        if self.bus.publish(
            self.scope, int(record["round"]), record["queries"], record
        ):
            self.published += 1

    def counters(self) -> dict:
        return {"imported": self.imported, "published": self.published}
