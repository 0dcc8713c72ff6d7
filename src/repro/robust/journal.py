"""Append-only JSONL journal of the TRACER search — crash recovery
*mid-query*, not just between evaluation units.

The grouped driver (:func:`repro.core.tracer.run_query_group`) appends
one record per executed group-round: the chosen abstraction, the
forward verdict per member, every learned failure clause together with
the counterexample trace that justified it, degradation steps, and the
time/step charges.  The journal is a durable record log
(:mod:`repro.robust.recordlog`; crash rules in the "Durable record
logs" section of ``docs/ROBUSTNESS.md``), so a SIGKILL at any instant
loses at most the round in flight.

On ``--resume-journal`` the driver *replays* the recorded rounds
before going live: learned clauses feed straight back into the
:class:`~repro.core.viability.ViabilityStore` (so already-refuted
abstractions are never re-run), group splits are reproduced from the
recorded clause signatures, and per-query counters (iterations,
forward runs, time and step charges) are restored from the record —
which is what makes a resumed verdict bit-identical to an
uninterrupted one, including the certificate evidence.  Each replayed
round is integrity-checked against the store: the recomputed
minimum-cost abstraction must equal the recorded one, and every
replayed clause set must still exclude it; a journal that fails those
checks (stale, foreign, or tampered — a failed record checksum
included) raises :class:`JournalMismatch` rather than replaying
garbage.

Record types (``journal_header`` first, then ``round`` records in
execution order)::

    {"type": "journal_header", "version": 1, "queries": [qid, ...]}
    {"type": "round", "round": N, "queries": [qid, ...],
     "outcome": "ok" | "budget" | "error" | "impossible",
     "reason": str | null,            # budget/error outcomes
     "abstraction": [var, ...] | null, "cached": bool,
     "seconds": float, "steps": float,  # shared charges of the round
     "proven": [qid, ...],
     "survivors": [{"query": qid, "outcome": "clauses" | "budget" |
                    "explosion" | "error", "seconds": float,
                    "steps": float, "k": int | null,
                    "max_disjuncts": int, "degraded": [[from,to],...],
                    "trace": [command, ...],
                    "clauses": [[[var, sign], ...], ...]}, ...],
     "exhausted": [qid, ...]}          # end-of-round cap resolutions

Clauses serialise as sorted ``[variable, sign]`` literal lists and
traces as tagged command dicts (:func:`trace_to_jsonable`); both
round-trip exactly for every bundled client, whose parameter variables
are strings.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.lang.ast import (
    Assign,
    AssignNull,
    AtomicCommand,
    CallProc,
    Invoke,
    LoadField,
    LoadGlobal,
    New,
    Observe,
    StoreField,
    StoreGlobal,
    ThreadStart,
    Trace,
)
from repro.robust.recordlog import LogCorruption, RecordLog, load

__all__ = [
    "JournalMismatch",
    "RoundCollector",
    "SearchJournal",
    "clause_from_jsonable",
    "clause_to_jsonable",
    "command_from_dict",
    "command_to_dict",
    "load_journal",
    "trace_from_jsonable",
    "trace_to_jsonable",
]

JOURNAL_VERSION = 1


class JournalMismatch(ValueError):
    """The journal being resumed does not describe this search — a
    stale file, a different query set, or a tampered record."""


# -- codecs -------------------------------------------------------------------

_COMMAND_TYPES = {
    cls.__name__: cls
    for cls in (
        New,
        Assign,
        AssignNull,
        LoadGlobal,
        StoreGlobal,
        LoadField,
        StoreField,
        Invoke,
        ThreadStart,
        Observe,
        CallProc,
    )
}


def command_to_dict(command: AtomicCommand) -> dict:
    data = {"cmd": type(command).__name__}
    for f in dataclasses.fields(command):
        data[f.name] = getattr(command, f.name)
    return data


def command_from_dict(data: dict) -> AtomicCommand:
    kind = data.get("cmd")
    cls = _COMMAND_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown atomic command kind {kind!r}")
    return cls(**{k: v for k, v in data.items() if k != "cmd"})


def trace_to_jsonable(trace: Trace) -> List[dict]:
    return [command_to_dict(command) for command in trace]


def trace_from_jsonable(items: List[dict]) -> Trace:
    return tuple(command_from_dict(item) for item in items)


def clause_to_jsonable(clause) -> List[List]:
    """One failure clause as a sorted ``[variable, sign]`` literal
    list; deterministic across processes (frozenset iteration order is
    not)."""
    return sorted([var, bool(sign)] for var, sign in clause)


def clause_from_jsonable(items: List[List]) -> frozenset:
    return frozenset((var, bool(sign)) for var, sign in items)


# -- the journal --------------------------------------------------------------


def _split(records: List[dict]) -> Tuple[Optional[dict], List[dict]]:
    header: Optional[dict] = None
    rounds: List[dict] = []
    for record in records:
        rtype = record.get("type")
        if rtype == "journal_header":
            header = record
        elif rtype == "round":
            rounds.append(record)
        # other record types are forward-compatible noise
    return header, rounds


def load_journal(path: str) -> Tuple[Optional[dict], List[dict]]:
    """Read ``(header, round records)`` from a journal file, skipping a
    trailing torn line; raises on interior corruption, a failed
    checksum, or an unknown version."""
    return _split(load(path, "journal", JOURNAL_VERSION))


class SearchJournal(RecordLog):
    """One ``run_query_group`` call's journal: a replay cursor over the
    recorded rounds plus a crash-safe appender for new ones.

    ``resume=False`` starts a fresh journal (an existing file is
    truncated — a journal describes exactly one search); ``resume=True``
    loads the recorded rounds for replay and appends the live rounds
    that follow them."""

    def __init__(self, path: str, resume: bool = False):
        super().__init__(path, "journal", JOURNAL_VERSION)
        self.replayed_rounds = 0
        self._cursor = 0
        # A fresh journal drops any previous contents; its header is
        # written by begin(), which knows the query set.
        try:
            records = self.create(fresh=not resume, header=False)
        except LogCorruption as error:
            raise JournalMismatch(str(error)) from error
        self._header, self._rounds = _split(records)
        if self._header is None and self._rounds:
            raise ValueError(f"{path}: journal has rounds but no header")
        self._replaying = bool(self._rounds)

    @property
    def replaying(self) -> bool:
        return self._replaying

    def begin(self, query_ids: List[str]) -> None:
        """Open the journal for this query set: validate the header on
        resume, write it on a fresh run."""
        if self._header is not None:
            recorded = self._header.get("queries")
            if recorded != list(query_ids):
                raise JournalMismatch(
                    f"{self.path}: journal was recorded for queries "
                    f"{recorded!r}, not {list(query_ids)!r}"
                )
        else:
            self._header = self.append(
                dict(self.header(), queries=list(query_ids))
            )

    def replay_round(self, query_ids: List[str]) -> Optional[dict]:
        """The next recorded round if it matches the group about to
        run, else ``None`` (the journal is exhausted and the search
        goes live).  A recorded round for a *different* group is a
        divergence and raises — replay is all-or-nothing up to the
        crash point."""
        if not self._replaying:
            return None
        if self._cursor >= len(self._rounds):
            self._replaying = False
            return None
        record = self._rounds[self._cursor]
        if record.get("queries") != list(query_ids):
            raise JournalMismatch(
                f"{self.path}: round {record.get('round')} was recorded "
                f"for group {record.get('queries')!r}, but the search "
                f"reached group {list(query_ids)!r}"
            )
        self._cursor += 1
        self.replayed_rounds += 1
        return record

    def record_round(self, record: dict) -> None:
        """Append one live round (no-op while still replaying — the
        record is already on disk)."""
        if self._replaying:
            return
        self.append(dict(record, type="round"))


class RoundCollector:
    """An in-memory journal sink, duck-typed like :class:`SearchJournal`.

    The session layer (:mod:`repro.serve.session`) passes one of these
    as the driver's ``journal`` to capture the executed rounds for the
    knowledge store without touching disk; when ``inner`` is given
    (the caller's real journal), every call is forwarded to it too, so
    the on-disk journal stays byte-identical to what the driver would
    have written directly.  Never replays — replay belongs to the real
    journal or to :class:`~repro.core.tracer.WarmStart`."""

    def __init__(self, inner=None):
        self.inner = inner
        self.query_ids: Optional[List[str]] = None
        self.rounds: List[dict] = []

    @property
    def replaying(self) -> bool:
        return False

    def begin(self, query_ids: List[str]) -> None:
        self.query_ids = list(query_ids)
        if self.inner is not None:
            self.inner.begin(query_ids)

    def replay_round(self, query_ids: List[str]) -> Optional[dict]:
        return None

    def record_round(self, record: dict) -> None:
        self.rounds.append({k: v for k, v in record.items() if k != "type"})
        if self.inner is not None:
            self.inner.record_round(record)

    def close(self) -> None:
        # The inner journal belongs to the caller; leave it open.
        pass
