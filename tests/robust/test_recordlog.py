"""One corruption matrix for the five durable record logs.

Every case runs against each log through its owner's own writer and
loader — the unit checkpoint, the search journal, the lease log, the
clause bus and the knowledge store — so the crash rules of
:mod:`repro.robust.recordlog` are checked where they are used, not
only in the primitive.
"""

import json
import multiprocessing
import sys
import threading

import pytest

from repro.robust.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    load_checkpoint,
)
from repro.robust.clausebus import BUS_VERSION, ClauseBus, load_bus_records
from repro.robust.journal import JOURNAL_VERSION, SearchJournal, load_journal
from repro.robust.leases import LEASE_VERSION, LeaseLog, load_lease_records
from repro.robust.recordlog import (
    BLANK,
    CORRUPT,
    MISMATCH,
    RECORD,
    TORN,
    LogCorruption,
    RecordLog,
    checksum,
    classify,
    load,
)
from repro.serve.store import STORE_VERSION, KnowledgeStore

STORE_CONFIG = (1,)


class Checkpoint:
    kind, version = "checkpoint", CHECKPOINT_VERSION

    def open(self, path):
        return CheckpointWriter(path)

    def append(self, handle, n):
        handle.write_unit(("b", "typestate", n), ([], {}, 1, []))

    def seen(self, path):
        return sorted(key[2] for key in load_checkpoint(path))

    #: Written by the previous format: no ``sha256`` on any line.
    legacy = (
        '{"type": "checkpoint_header", "version": 1}\n'
        '{"analysis": "typestate", "attempts": 1, "benchmark": "b", '
        '"certificates": [], "index": 1, "metrics": {}, "records": [], '
        '"type": "unit"}\n'
    )


class Journal:
    kind, version = "journal", JOURNAL_VERSION

    def open(self, path):
        journal = SearchJournal(path, resume=True)
        journal.begin(["q"])
        while journal.replay_round(["q"]) is not None:
            pass
        return journal

    def append(self, handle, n):
        handle.record_round({"round": n, "queries": ["q"], "outcome": "ok"})

    def seen(self, path):
        return [record["round"] for record in load_journal(path)[1]]

    #: Written by the previous format: no ``sha256`` on any line.
    legacy = (
        '{"queries": ["q"], "type": "journal_header", "version": 1}\n'
        '{"outcome": "ok", "queries": ["q"], "round": 1, "type": "round"}\n'
    )


class Lease:
    kind, version = "lease", LEASE_VERSION

    def open(self, path):
        return LeaseLog(path, worker="w")

    def append(self, handle, n):
        handle.heartbeat(now=float(n))

    def seen(self, path):
        return [
            int(record["t"])
            for record in load_lease_records(path)
            if record["type"] == "heartbeat"
        ]

    legacy = (
        '{"sha256": "701cdc2e8bbaf800a31ff93620f2435dccbae33246618e7fbaa0d35b'
        '4ea94890", "type": "lease_header", "version": 1}\n'
        '{"sha256": "327c34e9307ba0e2f1bef0054cf864bac30b1c21e67e1e11e3741dc9'
        'bf21fa5a", "t": 1.0, "type": "heartbeat", "worker": "w"}\n'
    )


class Bus:
    kind, version = "bus", BUS_VERSION

    def open(self, path):
        return ClauseBus(path, worker="w")

    def append(self, handle, n):
        assert handle.publish("s", n, ["q"], {"round": n})

    def seen(self, path):
        return [
            record["round"]
            for record in load_bus_records(path)
            if record["type"] == "round"
        ]

    legacy = (
        '{"sha256": "35c4c594892247c1895cb225b078be572d752b98da4d2f7ddf2d02b7'
        '361d46c5", "type": "bus_header", "version": 1}\n'
        '{"queries": ["q"], "record": {"round": 1}, "round": 1, "scope": "s", '
        '"sha256": "9b7eb4cc40ef7eacc1865f60104fff60000cc5340327c0a185b72090ee'
        'ee0345", "t": 1792239827.5438612, "type": "round", "worker": "w"}\n'
    )


class Store:
    kind, version = "store", STORE_VERSION

    def open(self, path):
        return KnowledgeStore(path)

    def append(self, handle, n):
        handle.record(
            digest=str(n) * 64,
            source=f"n{n}",
            client_info={"kind": "K"},
            config=STORE_CONFIG,
            query_ids=["q"],
            rounds=[],
            results={},
            witnesses={},
        )

    def seen(self, path):
        store = KnowledgeStore(path)
        return [
            n for n in range(10)
            if store.lookup(str(n) * 64, STORE_CONFIG, ["q"]) is not None
        ]

    #: Written by the previous format: a header without ``sha256``.
    legacy = (
        '{"type": "store_header", "version": 1}\n'
        '{"client": {"kind": "K"}, "config": [1], "digest": "'
        + "1" * 64
        + '", "queries": ["q"], "results": {}, "rounds": [], "sha256": '
        '"e930359a0e146d98e1649d61d2b1c5a7d4f58d37bd6c9de218105fdbec0313a0", '
        '"source": "n1", "type": "entry", "witnesses": {}}\n'
    )


LOGS = [Checkpoint(), Journal(), Lease(), Bus(), Store()]


@pytest.fixture(params=LOGS, ids=lambda log: log.kind)
def log(request):
    return request.param


def _path(tmp_path):
    return str(tmp_path / "log.jsonl")


def _read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def _write_lines(path, lines):
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _statuses(path):
    with open(path, "rb") as handle:
        return [line.status for line in classify(handle.read())]


class TestCorruptionMatrix:
    def test_missing_file_is_empty(self, log, tmp_path):
        assert log.seen(_path(tmp_path)) == []

    def test_every_record_is_checksummed(self, log, tmp_path):
        path = _path(tmp_path)
        log.append(log.open(path), 1)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert records[0]["type"] == log.kind + "_header"
        assert all(r["sha256"] == checksum(r) for r in records)

    def test_torn_tail_skipped_then_truncated_by_next_append(
        self, log, tmp_path
    ):
        path = _path(tmp_path)
        handle = log.open(path)
        log.append(handle, 1)
        log.append(handle, 2)
        with open(path, "a") as raw:
            raw.write('{"type": "round", "ro')  # killed mid-write
        assert log.seen(path) == [1, 2]
        log.append(log.open(path), 3)
        assert log.seen(path) == [1, 2, 3]
        assert set(_statuses(path)) == {RECORD}

    def test_torn_tail_truncated_by_open(self, log, tmp_path):
        # A reopen that writes nothing (a journal that only replays its
        # rounds, say) still cuts off a dead writer's torn tail.
        path = _path(tmp_path)
        log.append(log.open(path), 1)
        with open(path, "a") as raw:
            raw.write('{"type": "round", "ro')  # killed mid-write
        log.open(path)
        assert set(_statuses(path)) == {RECORD}
        assert log.seen(path) == [1]

    def test_interior_corruption_raises(self, log, tmp_path):
        path = _path(tmp_path)
        handle = log.open(path)
        log.append(handle, 1)
        log.append(handle, 2)
        lines = _read_lines(path)
        lines[1] = "not json"
        _write_lines(path, lines)
        with pytest.raises(LogCorruption, match="corrupt record"):
            log.seen(path)

    def test_checksum_mismatch_raises(self, log, tmp_path):
        path = _path(tmp_path)
        log.append(log.open(path), 1)
        lines = _read_lines(path)
        record = json.loads(lines[1])
        record["tampered"] = True  # stale checksum
        lines[1] = json.dumps(record, sort_keys=True)
        _write_lines(path, lines)
        with pytest.raises(LogCorruption, match="fails its checksum"):
            log.seen(path)

    def test_unknown_header_version_raises(self, log, tmp_path):
        path = _path(tmp_path)
        with open(path, "w") as raw:
            header = {"type": log.kind + "_header", "version": log.version + 1}
            raw.write(json.dumps(header) + "\n")
        with pytest.raises(LogCorruption, match="unsupported"):
            log.seen(path)

    def test_two_handles_interleave(self, log, tmp_path):
        path = _path(tmp_path)
        first = log.open(path)
        second = log.open(path)
        log.append(first, 1)
        log.append(second, 2)
        log.append(first, 3)
        assert log.seen(path) == [1, 2, 3]
        assert set(_statuses(path)) == {RECORD}

    def test_watcher_polls_incrementally(self, log, tmp_path):
        path = _path(tmp_path)
        handle = log.open(path)
        watcher = RecordLog(path, log.kind, log.version)
        watcher.poll()
        log.append(handle, 1)
        with open(path, "a") as raw:
            raw.write('{"type": "ro')  # a writer mid-append
        assert len(watcher.poll()) == 1
        assert watcher.poll() == []
        log.append(log.open(path), 2)
        assert len(watcher.poll()) == 1

    def test_previous_format_loads_and_appends(self, log, tmp_path):
        path = _path(tmp_path)
        with open(path, "w") as raw:
            raw.write(log.legacy)
        assert log.seen(path) == [1]
        log.append(log.open(path), 2)
        assert log.seen(path) == [1, 2]


class TestLineClassifier:
    def test_statuses(self):
        good = {"type": "x", "n": 1}
        stamped = dict(good, sha256=checksum(good))
        forged = dict(stamped, n=2)
        data = "\n".join([
            json.dumps(good),
            "",
            json.dumps(stamped),
            "[1, 2]",
            json.dumps(forged),
            "garbage",
        ]) + "\n"
        assert [line.status for line in classify(data.encode())] == [
            RECORD, BLANK, RECORD, CORRUPT, MISMATCH, TORN,
        ]

    def test_unterminated_final_line_is_torn(self):
        lines = list(classify(b'{"a": 1}\n{"a": 2}', offset=10))
        assert [line.status for line in lines] == [RECORD, TORN]
        assert lines[0].start == 10 and lines[0].end == 19


def _append_many(path, writer, count):
    log = RecordLog(path, "stress", 1)
    for n in range(count):
        log.append({"type": "n", "writer": writer, "n": n})


class TestConcurrentAppends:
    def test_processes_and_threads_lose_no_record(self, tmp_path):
        # More writers than cores, each catching up on the others'
        # appends under the lock; a lost or torn append would show as a
        # missing (writer, n) pair or a non-record line.
        path = str(tmp_path / "stress.jsonl")
        RecordLog(path, "stress", 1).create()
        ctx = multiprocessing.get_context("fork")
        children = [
            ctx.Process(target=_append_many, args=(path, f"p{i}", 25))
            for i in range(4)
        ]
        shared = RecordLog(path, "stress", 1)
        threads = [
            threading.Thread(
                target=lambda i=i: [
                    shared.append({"type": "n", "writer": f"t{i}", "n": n})
                    for n in range(25)
                ]
            )
            for i in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in children + threads:
                worker.start()
            for worker in children + threads:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in children + threads)
        assert all(child.exitcode == 0 for child in children)
        assert set(_statuses(path)) == {RECORD}
        records = [r for r in load(path, "stress", 1) if r["type"] == "n"]
        expected = {
            (writer, n)
            for writer in ["p0", "p1", "p2", "p3", "t0", "t1"]
            for n in range(25)
        }
        assert sorted((r["writer"], r["n"]) for r in records) == sorted(expected)
