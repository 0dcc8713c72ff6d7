"""Durable record logs: the one implementation of the crash rules that
every append-only JSONL log in this repository shares.

Five logs sit on this module — the unit checkpoint
(:mod:`repro.robust.checkpoint`), the search journal
(:mod:`repro.robust.journal`), the lease log
(:mod:`repro.robust.leases`), the clause bus
(:mod:`repro.robust.clausebus`) and the knowledge store
(:mod:`repro.serve.store`).  Each owner keeps only its record types and
its fold; the rules themselves (scan, checksum, header, append, watch,
rewrite) are stated once, in the "Durable record logs" section of
``docs/ROBUSTNESS.md``, and implemented once, here.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.robust import faults

__all__ = [
    "BLANK",
    "CORRUPT",
    "Line",
    "LogCorruption",
    "MISMATCH",
    "RECORD",
    "RecordLog",
    "TORN",
    "checksum",
    "classify",
    "load",
]


class LogCorruption(ValueError):
    """A log is damaged in a way no crash explains: a corrupt interior
    line, a record failing its checksum, or an unsupported header
    version."""


def checksum(record: dict) -> str:
    """sha256 over the record's sorted-keys JSON, its own ``sha256``
    field excluded."""
    body = {key: value for key, value in record.items() if key != "sha256"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


# -- the line classifier ------------------------------------------------------

BLANK = "blank"  # an empty line
RECORD = "record"  # a JSON object whose checksum holds (or that has none)
TORN = "torn"  # the final line, unterminated or unparseable: a crash tail
CORRUPT = "corrupt"  # an unparseable line with intact lines after it
MISMATCH = "mismatch"  # a JSON object whose ``sha256`` does not match


class Line(NamedTuple):
    number: int  # 1-based, counted from the first classified byte
    start: int  # byte offset of the line
    end: int  # byte offset just past its newline
    status: str
    record: Optional[dict]


def _parse(text: bytes) -> Optional[dict]:
    try:
        parsed = json.loads(text)
    except ValueError:
        return None
    return parsed if isinstance(parsed, dict) else None


def classify(data: bytes, offset: int = 0) -> Iterator[Line]:
    """Classify every line of ``data`` (which starts at byte
    ``offset`` of its file).  Only the final line can be :data:`TORN`."""
    pieces = data.split(b"\n")
    final = len(pieces) - 2  # index of the last newline-terminated line
    start = offset
    for index, piece in enumerate(pieces):
        if index > final:
            if piece:  # bytes after the last newline: a torn write
                yield Line(index + 1, start, start + len(piece), TORN, None)
            return
        end = start + len(piece) + 1
        if not piece.strip():
            yield Line(index + 1, start, end, BLANK, None)
        else:
            record = _parse(piece)
            if record is None:
                status = TORN if index == final else CORRUPT
            elif "sha256" in record and record["sha256"] != checksum(record):
                status = MISMATCH
            else:
                status = RECORD
            yield Line(index + 1, start, end, status, record)
        start = end


def _parse_lines(
    path: str, data: bytes, offset: int
) -> Tuple[List[dict], int]:
    records: List[dict] = []
    for line in classify(data, offset):
        if line.status == TORN:
            break
        if line.status == CORRUPT:
            raise LogCorruption(
                f"{path}: corrupt record at byte {line.start} "
                "(not a trailing crash artifact)"
            )
        if line.status == MISMATCH:
            raise LogCorruption(
                f"{path}: record at byte {line.start} fails its checksum"
            )
        if line.record is not None:
            records.append(line.record)
        offset = line.end
    return records, offset


def _check_header(path: str, kind: str, version: int, record: dict) -> None:
    if record.get("type") == kind + "_header":
        found = record.get("version")
        if found != version:
            raise LogCorruption(
                f"{path}: unsupported {kind} version {found!r}"
            )


def load(path: str, kind: str, version: int) -> List[dict]:
    """Every intact record of a ``kind`` log, header version checked.
    A missing file is an empty log."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return []
    records, _offset = _parse_lines(path, data, 0)
    for record in records:
        _check_header(path, kind, version, record)
    return records


@contextmanager
def _flock(path: str) -> Iterator[None]:
    """Exclusive cross-process lock on ``path + ".lock"`` — never the
    log itself, so a rewrite can rename over the log while locked."""
    fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _fsync_dir(path: str) -> None:
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _line(record: dict) -> Tuple[dict, bytes]:
    stamped = dict(record, sha256=checksum(record))
    line = json.dumps(stamped, sort_keys=True) + "\n"
    return stamped, line.encode("utf-8")


class RecordLog:
    """One process's handle on a durable record log of one ``kind``.

    Owners subclass it and override :meth:`fold` and :meth:`reset`.
    Thread-safe: one mutex serialises this process's threads, the flock
    serialises processes.
    """

    def __init__(self, path: str, kind: str, version: int):
        self.path = path
        self.kind = kind
        self.version = version
        self._mutex = threading.Lock()
        #: Byte offset just past the last intact line folded so far.
        self.offset = 0
        self._ino: Optional[int] = None

    def fold(self, record: dict) -> None:
        """Fold one record into this handle's state.  Every record is
        folded once, in file order: siblings' appends when the handle
        catches up, its own when it writes them."""

    def reset(self) -> None:
        """Drop the folded state; runs before a reload, when the file
        was replaced (a new inode) or shrank."""

    def header(self) -> dict:
        return {"type": self.kind + "_header", "version": self.version}

    def close(self) -> None:
        """Nothing to release: every operation opens and closes its own
        file descriptors."""

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def create(self, fresh: bool = False, header: bool = True) -> List[dict]:
        """Open the log: empty it first when ``fresh``, catch up,
        truncate a dead writer's torn tail, and write the header when
        no intact record exists yet.  Returns the records caught up
        on."""
        with self._mutex, _flock(self.path):
            if fresh:
                open(self.path, "wb").close()
            records = self._catch_up()
            self._truncate_tail()
            if header and self.offset == 0:
                self.write(self.header())
            return records

    def _truncate_tail(self) -> None:
        """Under the flock, every byte past :attr:`offset` is a torn
        write whose writer died: cut it off."""
        try:
            if os.stat(self.path).st_size <= self.offset:
                return  # the common case: opened without writing
        except FileNotFoundError:
            return
        with open(self.path, "r+b") as handle:
            handle.truncate(self.offset)
            os.fsync(handle.fileno())

    def _forget(self) -> None:
        self.offset = 0
        self.reset()

    def _catch_up(self) -> List[dict]:
        try:
            stat = os.stat(self.path)
            if stat.st_ino == self._ino and stat.st_size == self.offset:
                return []  # the common case: one stat, nothing new
            handle = open(self.path, "rb")
        except FileNotFoundError:
            if self.offset:
                self._forget()
            return []
        with handle:
            stat = os.fstat(handle.fileno())
            replaced = self._ino is not None and stat.st_ino != self._ino
            if replaced or stat.st_size < self.offset:
                self._forget()
            self._ino = stat.st_ino
            if stat.st_size == self.offset:
                return []
            handle.seek(self.offset)
            data = handle.read()
        records, self.offset = _parse_lines(self.path, data, self.offset)
        for record in records:
            _check_header(self.path, self.kind, self.version, record)
            self.fold(record)
        return records

    def poll(self) -> List[dict]:
        """Lock-free: fold and return the records appended since the
        last look.  A torn tail is left for the next poll."""
        with self._mutex:
            return self._catch_up()

    @contextmanager
    def transaction(self) -> Iterator["RecordLog"]:
        """Hold the mutex and the flock, caught up with the file, so a
        read-decide-:meth:`write` sequence is atomic across processes."""
        with self._mutex, _flock(self.path):
            self._catch_up()
            yield self

    def write(self, record: dict) -> dict:
        """Append one record inside a :meth:`transaction`: truncate a
        dead writer's torn tail, write, fsync once, fold.  Returns the
        record as written, ``sha256`` included."""
        stamped, line = _line(record)
        with open(self.path, "ab") as handle:
            if handle.tell() > self.offset:
                handle.truncate(self.offset)
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
            self._ino = os.fstat(handle.fileno()).st_ino
        self.offset += len(line)
        self.fold(stamped)
        return stamped

    def append(self, record: dict) -> dict:
        with self.transaction():
            return self.write(record)

    def rewrite(self, records: Sequence[dict], site: str) -> None:
        """Atomically replace the log, inside a :meth:`transaction`, by
        a header plus ``records``: temp file, fsync, rename, fsync the
        directory, then reload.  The fault sites ``<site>.write`` /
        ``.rename`` / ``.done`` mark the three crash windows."""
        tmp = self.path + ".compact.tmp"
        with open(tmp, "wb") as handle:
            handle.write(_line(self.header())[1])
            faults.inject(site + ".write")
            for record in records:
                handle.write(_line(record)[1])
            handle.flush()
            os.fsync(handle.fileno())
        faults.inject(site + ".rename")
        os.replace(tmp, self.path)
        _fsync_dir(self.path)
        faults.inject(site + ".done")
        self._catch_up()
