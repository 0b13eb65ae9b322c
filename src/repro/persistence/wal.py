"""Append-only write-ahead log: records, fsync policies, failed appends.

Every committed statement becomes one *record*: a frame (see
:mod:`repro.persistence.frames`) whose payload is
``{"lsn": n, "ops": [...]}`` -- a monotonically increasing log
sequence number plus the statement's redo operations (see
:meth:`repro.graph.store.GraphStore.redo_ops`).  The LSN lets recovery
skip records already covered by a checkpoint, which makes a crash
between "checkpoint renamed" and "WAL truncated" harmless.

Reading stops at the first frame that is short, fails its checksum, or
does not decode -- everything from there on is a *torn tail* (a crash
mid-append) and is discarded, exactly as the paper's statement
atomicity demands: a statement whose record never fully reached disk
never happened.

Fsync policies trade durability for throughput:

* ``always`` -- ``fsync`` after every record; a committed statement
  survives an OS crash.
* ``batch``  -- ``fsync`` every ``batch_size`` records and on
  checkpoint/close; bounded loss window, much cheaper.
* ``off``    -- never ``fsync``; the OS page cache decides.  Still
  safe against *process* crashes (every append is handed to the
  kernel before it returns).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from repro.errors import PersistenceError
from repro.persistence.frames import encode_frame, iter_frames

#: the recognised fsync policies
FSYNC_POLICIES = ("always", "batch", "off")


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    ops: tuple


def encode_record(lsn: int, ops: list) -> bytes:
    """The on-disk bytes of one record."""
    return encode_frame({"lsn": lsn, "ops": [list(op) for op in ops]})


def iter_records(handle: IO[bytes]) -> Iterator[tuple[WalRecord, int]]:
    """The intact records of an open log, one at a time.

    Yields ``(record, end_offset)``; the last ``end_offset`` (0 when
    nothing is yielded from the start of a file) is the clean length
    of the log.  Anything beyond it is a torn or corrupt tail; the
    caller decides whether to truncate it away.  A frame that passes
    its checksum but is not a record ends the log just the same.
    """
    for body, end in iter_frames(handle, strict=False):
        try:
            record = WalRecord(
                lsn=body["lsn"], ops=tuple(tuple(op) for op in body["ops"])
            )
        except (KeyError, TypeError):
            return
        yield record, end


class WalWriter:
    """Appends framed records to a WAL file under an fsync policy."""

    def __init__(
        self,
        path: Path | str,
        *,
        fsync: str = "batch",
        batch_size: int = 32,
    ):
        if fsync not in FSYNC_POLICIES:
            raise PersistenceError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {', '.join(FSYNC_POLICIES)}"
            )
        if batch_size < 1:
            raise PersistenceError("batch_size must be >= 1")
        self.path = Path(path)
        self.fsync = fsync
        self.batch_size = batch_size
        self._pending = 0
        # Unbuffered: one append is one write() straight to the kernel,
        # and a failed append leaves nothing behind in a user-space
        # buffer that a later flush could still push out.
        self._file = open(self.path, "ab", buffering=0)
        #: length of the log up to the last complete record
        self._end = self._file.tell()
        self._broken = False

    def append(self, lsn: int, ops: list) -> None:
        """Write one record; durability depends on the fsync policy.

        All or nothing: when the write or its fsync fails, whatever
        part of the frame reached the file is cut back to the previous
        record boundary before the error propagates, so the caller
        (the store's commit) can undo the statement and carry on.  If
        even the cut fails the writer refuses every further append --
        otherwise later acknowledged records would sit behind a torn
        frame, and recovery would discard them with it.
        """
        if self._broken:
            raise PersistenceError(
                f"write-ahead log {self.path} has a torn tail that could "
                f"not be cut; reopen the graph to recover"
            )
        frame = encode_record(lsn, ops)
        try:
            written = 0
            while written < len(frame):
                written += self._file.write(frame[written:])
            if self.fsync == "always":
                os.fsync(self._file.fileno())
            elif self.fsync == "batch":
                self._pending += 1
                if self._pending >= self.batch_size:
                    os.fsync(self._file.fileno())
                    self._pending = 0
        except BaseException:
            try:
                self._file.truncate(self._end)
            except OSError:
                self._broken = True
            raise
        self._end += len(frame)

    def sync(self) -> None:
        """Flush and fsync pending records (explicit durability point).

        Honoured under every policy -- ``off`` only skips the *implicit*
        per-append fsync, not an explicit request.
        """
        os.fsync(self._file.fileno())
        self._pending = 0

    def truncate(self, length: int = 0) -> None:
        """Shrink the log (0 after a checkpoint, or cut a torn tail)."""
        self._file.truncate(length)
        self._end = length
        os.fsync(self._file.fileno())
        self._pending = 0

    def close(self) -> None:
        """Flush, fsync (policy permitting) and close the file."""
        if self._file.closed:
            return
        self.sync()
        self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
