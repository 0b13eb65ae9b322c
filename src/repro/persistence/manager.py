"""The durability coordinator: recovery, logging, checkpointing.

:class:`PersistenceManager` owns one persistence directory::

    <directory>/
        checkpoint.json   latest atomic snapshot (optional)
        wal.log           append-only record log since that snapshot

Lifecycle (what ``Graph(path=...)`` does):

1. :meth:`recover` -- bulk-load the checkpoint (if any) into the
   empty store, replay every intact WAL record whose LSN the
   checkpoint does not already cover, discard a torn/corrupt tail, and
   re-verify the result with the store-invariant oracle; the report
   times each of the three phases.
2. :meth:`attach` -- truncate the torn tail away, open the writer and
   install :meth:`log_commit` as the store's commit hook; from now on
   every effective commit appends one record.
3. :meth:`checkpoint` (any time) -- atomic snapshot, then WAL
   truncation; the stamped LSN makes a crash between those two steps
   harmless because replay skips covered records.

The manager keeps no sequence number of its own: a record's LSN is the
:attr:`GraphStore.lsn <repro.graph.store.GraphStore.lsn>` its commit
is about to reach, the checkpoint header stamps the store's LSN, and
recovery hands both back through ``restore_lsn``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence.checkpoint import (
    CHECKPOINT_NAME,
    WAL_NAME,
    restore_checkpoint_file,
    write_checkpoint,
)
from repro.persistence.wal import FSYNC_POLICIES, WalWriter, iter_records


@dataclass
class RecoveryReport:
    """What :meth:`PersistenceManager.recover` found and did."""

    checkpoint_lsn: int = 0
    checkpoint_format: int = 0  # 0 = no checkpoint found
    records_total: int = 0
    records_applied: int = 0
    records_skipped: int = 0
    operations_applied: int = 0
    torn_bytes: int = 0
    nodes: int = 0
    relationships: int = 0
    #: wall seconds spent restoring the checkpoint, replaying the WAL
    #: and verifying the store invariants (0.0 when skipped)
    restore_s: float = 0.0
    replay_s: float = 0.0
    verify_s: float = 0.0

    def summary(self) -> str:
        parts = [
            f"checkpoint lsn {self.checkpoint_lsn}",
            f"{self.records_applied}/{self.records_total} records replayed",
            f"{self.operations_applied} operations",
        ]
        if self.records_skipped:
            parts.append(
                f"{self.records_skipped} skipped (covered by checkpoint)"
            )
        if self.torn_bytes:
            parts.append(f"{self.torn_bytes} torn bytes discarded")
        parts.append(
            f"{self.nodes} nodes / {self.relationships} relationships"
        )
        parts.append(
            f"restore {self.restore_s:.3f}s / replay {self.replay_s:.3f}s"
            f" / verify {self.verify_s:.3f}s"
        )
        return ", ".join(parts)


class PersistenceManager:
    """Write-ahead logging + checkpointing for one ``GraphStore``."""

    def __init__(
        self,
        directory: Path | str,
        *,
        fsync: str = "batch",
        batch_size: int = 32,
    ):
        if fsync not in FSYNC_POLICIES:
            raise PersistenceError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {', '.join(FSYNC_POLICIES)}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.directory / WAL_NAME
        self.fsync = fsync
        self.batch_size = batch_size
        #: the attached store; its LSN numbers the records
        self.store: GraphStore | None = None
        self._clean_length: int | None = None
        self._writer: WalWriter | None = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(
        self, store: GraphStore, *, verify: bool = True
    ) -> RecoveryReport:
        """Rebuild *store* from checkpoint + WAL; returns a report.

        The store's commit hook must not be installed yet (recovery
        replays through :meth:`~repro.graph.store.GraphStore.apply_redo`
        and must not re-log anything).  With ``verify=True`` the
        recovered store is checked against the full store-invariant
        oracle and a violation raises :class:`PersistenceError`.
        """
        if store.commit_hook() is not None:
            raise PersistenceError(
                "recover() needs a store without a commit hook; "
                "attach the manager after recovery"
            )
        report = RecoveryReport()
        checkpoint_path = self.directory / CHECKPOINT_NAME
        started = perf_counter()
        if checkpoint_path.exists():
            # Streamed frame by frame into the bulk loader (O(1)
            # memory beyond the graph); a legacy format-1 blob is read
            # transparently.
            info = restore_checkpoint_file(store, checkpoint_path)
            report.checkpoint_lsn = info["lsn"]
            report.checkpoint_format = info["format"]
        report.restore_s = perf_counter() - started
        started = perf_counter()
        clean = total = 0
        if self.wal_path.exists():
            # Replayed as it is decoded: memory stays one record no
            # matter how long the log grew since the last checkpoint.
            with open(self.wal_path, "rb") as handle:
                for record, clean in iter_records(handle):
                    report.records_total += 1
                    if record.lsn <= report.checkpoint_lsn:
                        report.records_skipped += 1
                        continue
                    for op in record.ops:
                        store.apply_redo(op)
                    store.restore_lsn(record.lsn)
                    report.operations_applied += len(record.ops)
                    report.records_applied += 1
                total = handle.seek(0, os.SEEK_END)
        report.replay_s = perf_counter() - started
        self._clean_length = clean
        report.torn_bytes = total - clean
        report.nodes = store.node_count()
        report.relationships = store.relationship_count()
        if verify:
            from repro.testing.invariants import (
                InvariantViolation,
                check_invariants,
            )

            started = perf_counter()
            try:
                check_invariants(store)
            except InvariantViolation as violation:
                raise PersistenceError(
                    f"recovered store violates invariants: {violation}"
                ) from violation
            report.verify_s = perf_counter() - started
        return report

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------

    def attach(self, store: GraphStore) -> None:
        """Open the writer and install the store's commit hook."""
        if self._writer is None:
            self._writer = WalWriter(
                self.wal_path,
                fsync=self.fsync,
                batch_size=self.batch_size,
            )
            if (
                self._clean_length is not None
                and self.wal_path.stat().st_size > self._clean_length
            ):
                # Cut the torn tail found during recovery so new
                # records append after the last intact one.
                self._writer.truncate(self._clean_length)
        self.store = store
        store.set_commit_hook(self.log_commit)

    def log_commit(self, ops: list) -> None:
        """Append one record (the store's commit hook).

        The hook runs before the store advances its LSN, so the record
        carries the LSN this commit reaches once the append succeeded.
        """
        if self._writer is None:
            raise PersistenceError(
                "persistence manager is not attached (or was closed)"
            )
        self._writer.append(self.store.lsn + 1, ops)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, store: GraphStore) -> Path:
        """Snapshot the store, then truncate the WAL; returns the path.

        Streams the record file (peak memory one batch, not the
        graph).  Safe against a crash at any point: the snapshot rename
        is atomic, and its stamped LSN makes replaying the not-yet
        truncated WAL a no-op (records with ``lsn <= checkpoint lsn``
        are skipped).
        """
        if store.in_transaction():
            raise PersistenceError(
                "cannot checkpoint inside an open transaction"
            )
        path = write_checkpoint(self.directory, store)
        if self._writer is not None:
            self._writer.truncate(0)
        else:
            open(self.wal_path, "wb").close()
        self._clean_length = 0
        return path

    def sync(self) -> None:
        """Force pending WAL records to disk (any fsync policy)."""
        if self._writer is not None:
            self._writer.sync()

    def close(self) -> None:
        """Flush and close the writer (the hook becomes unusable)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
