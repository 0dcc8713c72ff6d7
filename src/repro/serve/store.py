"""The persistent cross-run knowledge store.

One JSONL file — a durable record log (:mod:`repro.robust.recordlog`;
crash rules in the "Durable record logs" section of
``docs/ROBUSTNESS.md``) that several processes may append to at once.
Each entry is the complete knowledge of one finished search::

    {"type": "store_header", "version": 1}
    {"type": "entry",
     "digest": sha256,                # program + client fingerprint
     "source": str | null,            # stable submission id (file path,
                                      # "bench:<name>:<analysis>:<i>", ...)
     "client": {...},                 # client fingerprint (see
                                      # session.describe_client)
     "config": [...],                 # config_key() of the search
     "queries": [qid, ...],
     "rounds": [...],                 # journal-style round records
     "results": {qid: {"verdict": str, "abstraction": [...] | null,
                       "cost": int | null, "iterations": int,
                       "annotation_digest": sha256 | null}},
     "witnesses": {qid: [{"abstraction": [...], "k": int | null,
                          "trace": [...], "clauses": [...]}, ...]},
     "sha256": hexdigest}             # content checksum over the rest

Lookup is two-tier, mirroring :class:`~repro.core.tracer.WarmStart`:

* :meth:`lookup` — exact ``(digest, config, query set)`` match: the
  recorded rounds replay bit-identically (verdicts, certificates, and
  journal records equal to a cold search, zero forward fixpoints);
* :meth:`lookup_seed` — same ``source`` and client kind but a changed
  digest (a lightly-edited program): the recorded witnesses seed the
  new search's viability stores after per-witness validation by the
  session.

Later entries shadow earlier ones for the same key (append-only file,
last-wins index), so re-recording after an edit needs no rewriting.
The store registers with the metrics registry as ``knowledge_store``;
its hit/miss counters surface like every other cache's.

Every :meth:`~KnowledgeStore.record` is one locked append, and every
lookup first refreshes the in-memory index from the file's tail
(:meth:`~repro.robust.recordlog.RecordLog.poll`), so the daemon's worker processes
see each other's recordings and warm-tier hits stay bit-identical
whichever process answers.

**Compaction** (:meth:`compact`, surfaced as ``repro store compact``)
atomically rewrites the file down to the latest-wins survivors — the
newest entry per exact key and per ``(source, kind)`` seed key; the
fault sites ``store.compact.write`` / ``store.compact.rename`` /
``store.compact.done`` let the kill-matrix test pin a SIGKILL to each
crash window.  :func:`verify_store` re-checks the version gate, record
structure, and per-entry checksums offline.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.pretty import pretty_command, pretty_program
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs
from repro.robust.recordlog import (
    CORRUPT,
    MISMATCH,
    TORN,
    RecordLog,
    classify,
    load,
)

__all__ = [
    "KnowledgeStore",
    "canonical_program_text",
    "config_key",
    "program_digest",
    "verify_store",
]

STORE_VERSION = 1


def canonical_program_text(program) -> str:
    """A deterministic textual rendering of any client program shape:
    a structured :class:`~repro.lang.ast.Program` (the pretty-printer
    is the parser's concrete syntax), a single
    :class:`~repro.lang.cfg.Cfg`, or an interprocedural
    :class:`~repro.dataflow.interproc.ProcGraph` (each procedure's CFG
    rendered under its name, main first)."""
    procedures = getattr(program, "procedures", None)
    if procedures is not None and hasattr(program, "main"):
        parts = [f"main {program.main}"]
        for name in sorted(procedures):
            parts.append(f"proc {name}")
            parts.append(_cfg_text(procedures[name]))
        return "\n".join(parts)
    if hasattr(program, "edges") and hasattr(program, "entry"):
        return _cfg_text(program)
    return pretty_program(program)


def _cfg_text(cfg) -> str:
    lines = [f"entry {cfg.entry} exit {cfg.exit}"]
    for edge in cfg.edges:
        command = (
            "eps" if edge.command is None else pretty_command(edge.command)
        )
        lines.append(f"{edge.src} -[{command}]-> {edge.dst}")
    return "\n".join(lines)


def program_digest(program, client_info: dict) -> str:
    """SHA-256 over the canonical program text and the client
    fingerprint — the store key.  Two submissions share a digest
    exactly when the search they describe is the same: same program
    semantics, same analysis parameters."""
    digest = hashlib.sha256()
    digest.update(canonical_program_text(program).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(
        json.dumps(client_info, sort_keys=True, default=str).encode("utf-8")
    )
    return digest.hexdigest()


def config_key(config) -> Tuple:
    """The part of a :class:`~repro.core.tracer.TracerConfig` that a
    recorded search depends on."""
    return (
        config.k,
        config.k_min,
        config.max_iterations,
        config.max_cubes,
        config.max_steps,
        config.max_seconds,
        config.budget_check_every,
        config.strict,
    )


class KnowledgeStore(RecordLog):
    """Crash-safe on-disk knowledge of every search a session ran."""

    def __init__(self, path: str):
        super().__init__(path, "store", STORE_VERSION)
        self.reset()
        self.compactions = 0
        self.hits = 0
        self.misses = 0
        self.create()
        self.entries_loaded = self.file_entries
        obs_metrics.register_cache("knowledge_store", self)

    def __len__(self) -> int:
        return len(self._exact)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def superseded_ratio(self) -> float:
        """Fraction of on-file entries shadowed by a later recording —
        the daemon's periodic-compaction trigger."""
        if not self.file_entries:
            return 0.0
        # Live = latest for an exact key (forgotten entries still
        # occupy their file slot, so count by index key, not identity).
        live = len(self._all_exact_keys)
        return max(0, self.file_entries - live) / self.file_entries

    # -- the fold -----------------------------------------------------------

    def reset(self) -> None:
        #: Exact-match index: (digest, config, query ids) -> entry.
        self._exact: Dict[Tuple, dict] = {}
        #: Seed index: (source, client kind) -> latest entry.
        self._by_source: Dict[Tuple[str, str], dict] = {}
        self._all_exact_keys: set = set()
        #: Entry records physically in the file, superseded ones
        #: included — the compaction trigger's numerator comes from
        #: comparing this against the live index size.
        self.file_entries = 0

    def fold(self, record: dict) -> None:
        if record.get("type") == "entry":
            self._index(record)
            self.file_entries += 1
        # headers are checked by the log; unknown record types are
        # forward-compatible noise

    # -- lookups -----------------------------------------------------------

    def _index(self, entry: dict) -> None:
        key = self._exact_key(
            entry.get("digest"),
            tuple(entry.get("config") or ()),
            entry.get("queries") or (),
        )
        self._exact[key] = entry
        self._all_exact_keys.add(key)
        source = entry.get("source")
        kind = (entry.get("client") or {}).get("kind")
        if source and kind:
            self._by_source[(source, kind)] = entry

    @staticmethod
    def _exact_key(digest, config, query_ids) -> Tuple:
        return (digest, tuple(config), tuple(query_ids))

    def lookup(
        self, digest: str, config: Tuple, query_ids: Sequence[str]
    ) -> Optional[dict]:
        """Replay-tier lookup: the entry recorded for exactly this
        ``(digest, config, query set)``, or ``None``.  Counts one hit
        or miss and emits a ``store_hit`` event on success."""
        self.poll()
        entry = self._exact.get(self._exact_key(digest, config, query_ids))
        if entry is not None:
            self.hits += 1
            if obs.active():
                obs.event(
                    "store_hit",
                    tier="replay",
                    digest=digest[:12],
                    source=entry.get("source"),
                    queries=len(entry.get("queries") or ()),
                    rounds=len(entry.get("rounds") or ()),
                )
            return entry
        self.misses += 1
        return None

    def lookup_seed(
        self, source: Optional[str], client_kind: Optional[str]
    ) -> Optional[dict]:
        """Clause-tier lookup: the latest entry recorded for the same
        submission source and client kind (the lightly-edited-program
        path).  Does not count toward hit/miss — the exact lookup that
        preceded it already counted the miss; a seed hit emits its own
        ``store_hit`` event with ``tier="clauses"``."""
        if not source or not client_kind:
            return None
        self.poll()
        entry = self._by_source.get((source, client_kind))
        if entry is not None and obs.active():
            obs.event(
                "store_hit",
                tier="clauses",
                digest=(entry.get("digest") or "")[:12],
                source=source,
                queries=len(entry.get("queries") or ()),
            )
        return entry

    # -- recording ---------------------------------------------------------

    def record(
        self,
        digest: str,
        source: Optional[str],
        client_info: dict,
        config: Tuple,
        query_ids: Sequence[str],
        rounds: List[dict],
        results: Dict[str, dict],
        witnesses: Dict[str, List[dict]],
    ) -> dict:
        """Append one finished search's knowledge (fsync'd before
        return, ``sha256`` included in the returned entry) and index
        it for this process's own lookups."""
        entry = {
            "type": "entry",
            "digest": digest,
            "source": source,
            "client": dict(client_info),
            "config": list(config),
            "queries": list(query_ids),
            "rounds": list(rounds),
            "results": dict(results),
            "witnesses": dict(witnesses),
        }
        return self.append(entry)

    def forget(self, entry: dict) -> None:
        """Drop a stale entry from the in-memory index (it stays in the
        file, shadowed by whatever is recorded next), so a failed warm
        start is not retried forever."""
        key = self._exact_key(
            entry.get("digest"),
            tuple(entry.get("config") or ()),
            entry.get("queries") or (),
        )
        if self._exact.get(key) is entry:
            del self._exact[key]
        source = entry.get("source")
        kind = (entry.get("client") or {}).get("kind")
        if source and kind and self._by_source.get((source, kind)) is entry:
            del self._by_source[(source, kind)]

    # -- compaction --------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite the file keeping only latest-wins survivors; returns
        ``{"entries_before", "entries_after", "dropped", "bytes_before",
        "bytes_after"}``.  Runs under the log's lock, so live writers
        simply wait; their next lookup notices the new inode and
        reloads."""
        with self.transaction():
            entries = [
                record
                for record in load(self.path, "store", STORE_VERSION)
                if record.get("type") == "entry"
            ]
            bytes_before = os.path.getsize(self.path)
            last_exact: Dict[Tuple, int] = {}
            last_seed: Dict[Tuple[str, str], int] = {}
            for position, entry in enumerate(entries):
                last_exact[self._exact_key(
                    entry.get("digest"),
                    tuple(entry.get("config") or ()),
                    entry.get("queries") or (),
                )] = position
                source = entry.get("source")
                kind = (entry.get("client") or {}).get("kind")
                if source and kind:
                    last_seed[(source, kind)] = position
            keep = sorted(set(last_exact.values()) | set(last_seed.values()))
            self.rewrite(
                [entries[position] for position in keep], site="store.compact"
            )
            stats = {
                "entries_before": len(entries),
                "entries_after": len(keep),
                "dropped": len(entries) - len(keep),
                "bytes_before": bytes_before,
                "bytes_after": os.path.getsize(self.path),
            }
        self.compactions += 1
        if obs.active():
            obs.event("store_compacted", **stats)
        return stats

    def stats(self) -> dict:
        """The ``repro store stats`` summary."""
        self.poll()
        return {
            "path": self.path,
            "bytes": (
                os.path.getsize(self.path) if os.path.exists(self.path) else 0
            ),
            "file_entries": self.file_entries,
            "live_entries": len(self._exact),
            "sources": len(self._by_source),
            "superseded_ratio": round(self.superseded_ratio, 4),
            "compactions": self.compactions,
        }


def verify_store(path: str) -> Tuple[List[str], dict]:
    """Offline integrity check behind ``repro store verify``.

    Returns ``(problems, summary)``.  Problems: a missing or
    unsupported header, interior (non-trailing) corruption, entries
    missing required fields, and entries whose recorded ``sha256``
    no longer matches their content.  A torn trailing line and
    entries recorded before checksums existed are *noted* in the
    summary, not problems — both are expected in healthy stores."""
    problems: List[str] = []
    summary = {
        "path": path,
        "bytes": 0,
        "records": 0,
        "entries": 0,
        "checksummed": 0,
        "legacy_entries": 0,
        "torn_tail": False,
    }
    if not os.path.exists(path):
        problems.append(f"{path}: no such file")
        return problems, summary
    with open(path, "rb") as handle:
        data = handle.read()
    summary["bytes"] = len(data)
    saw_header = False
    for line in classify(data):
        where = f"line {line.number}"
        if line.status == TORN:
            summary["torn_tail"] = True
            break
        if line.status == CORRUPT:
            problems.append(
                f"{where}: corrupt interior record "
                "(not a trailing crash artifact)"
            )
            continue
        record = line.record
        if record is None:
            continue  # a blank line
        summary["records"] += 1
        rtype = record.get("type")
        if line.status == MISMATCH:
            problems.append(
                f"{where}: {rtype or 'record'} checksum mismatch "
                "(content altered after recording)"
            )
        if summary["records"] == 1:
            if rtype != "store_header":
                problems.append(f"{where}: first record is not a store_header")
            elif record.get("version") != STORE_VERSION:
                problems.append(
                    f"{where}: unsupported store version "
                    f"{record.get('version')!r}"
                )
            saw_header = True
            continue
        if rtype == "store_header":
            problems.append(f"{where}: duplicate store_header")
        elif rtype == "entry":
            summary["entries"] += 1
            digest = record.get("digest")
            if not (isinstance(digest, str) and len(digest) == 64):
                problems.append(f"{where}: entry without a sha256 digest key")
            for field, kind in (
                ("queries", list), ("rounds", list),
                ("results", dict), ("config", list),
            ):
                if not isinstance(record.get(field), kind):
                    problems.append(
                        f"{where}: entry field {field!r} "
                        f"is not a {kind.__name__}"
                    )
            if "sha256" not in record:
                summary["legacy_entries"] += 1
            elif line.status != MISMATCH:
                summary["checksummed"] += 1
    if not saw_header and not summary["torn_tail"]:
        problems.append(f"{path}: empty store (no header record)")
    return problems, summary
