"""The durability coordinator: recovery, logging, checkpointing.

:class:`PersistenceManager` owns one persistence directory::

    <directory>/
        checkpoint.json    latest full snapshot, the base (optional)
        checkpoint.delta   delta segments written since that base
        wal.log            append-only record log since the last of them

Lifecycle (what ``Graph(path=...)`` does):

1. :meth:`recover` -- bulk-load the base (if any) merged with its
   delta segments into the empty store, replay every intact WAL record
   whose LSN the checkpoints do not already cover, discard a
   torn/corrupt tail, and re-verify the result with the
   store-invariant oracle; the report times each of the three phases.
2. :meth:`attach` -- cut the torn tails away, open the writer and
   install :meth:`log_commit` as the store's commit hook; from now on
   every effective commit appends one record and marks the entities
   it touched dirty.
3. :meth:`checkpoint` (any time) -- append a delta segment holding the
   dirty entities' final images, or rewrite the base when there is no
   format-3 base yet or the delta log outgrew
   :data:`~repro.persistence.checkpoint.DELTA_SHARE` of it; then
   truncate the WAL.  The stamped LSN makes a crash between those two
   steps harmless because replay skips covered records.

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
    CHECKPOINT_FORMAT,
    CHECKPOINT_NAME,
    DELTA_NAME,
    DELTA_SHARE,
    WAL_NAME,
    DeltaLog,
    append_delta,
    read_delta_log,
    restore_checkpoint_file,
    truncate_delta_log,
    write_checkpoint,
)
from repro.persistence.wal import FSYNC_POLICIES, WalWriter, iter_records

#: redo op kind -> which dirty set its id (``op[1]``) goes to
_DIRTY_SIDE = {
    "create_node": 0,
    "delete_node": 0,
    "add_label": 0,
    "remove_label": 0,
    "set_node_prop": 0,
    "create_rel": 1,
    "delete_rel": 1,
    "set_rel_prop": 1,
}


@dataclass
class RecoveryReport:
    """What :meth:`PersistenceManager.recover` found and did."""

    #: the LSN the base and its delta segments reach
    checkpoint_lsn: int = 0
    checkpoint_format: int = 0  # 0 = no checkpoint found
    #: delta segments applied over the base, and their row images + tombs
    delta_segments: int = 0
    delta_rows: int = 0
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
            f"{self.delta_segments} delta segments "
            f"({self.delta_rows} rows)",
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
        self._delta = DeltaLog([])
        #: LSN of the format-3 base deltas append to (None: the next
        #: checkpoint rewrites the base) and of the last checkpoint
        self._base_lsn: int | None = None
        self._checkpoint_lsn = 0
        #: node / relationship ids committed since the last checkpoint
        self._dirty: tuple[set[int], set[int]] = (set(), set())
        #: ``{"kind": "full" | "delta", "bytes": n}`` of the last checkpoint
        self.last_checkpoint: dict | None = None

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
        delta_path = self.directory / DELTA_NAME
        started = perf_counter()
        delta = read_delta_log(delta_path)
        if checkpoint_path.exists():
            # Streamed frame by frame into the bulk loader (O(1)
            # memory beyond the graph), merged with the delta segments
            # on the way; a legacy format-1 blob is read transparently.
            info = restore_checkpoint_file(
                store, checkpoint_path, delta.segments
            )
            report.checkpoint_lsn = info["lsn"]
            report.checkpoint_format = info["format"]
            report.delta_segments = info["segments"]
            report.delta_rows = info["delta_rows"]
        elif delta.segments:
            raise PersistenceError(
                f"delta log {delta_path} has no base {checkpoint_path}"
            )
        report.restore_s = perf_counter() - started
        started = perf_counter()
        clean = total = 0
        first_lsn = None
        if self.wal_path.exists():
            # Replayed as it is decoded: memory stays one record no
            # matter how long the log grew since the last checkpoint.
            with open(self.wal_path, "rb") as handle:
                for record, clean in iter_records(handle):
                    report.records_total += 1
                    if record.lsn <= report.checkpoint_lsn:
                        report.records_skipped += 1
                        continue
                    if first_lsn is None:
                        first_lsn = record.lsn
                    for op in record.ops:
                        store.apply_redo(op)
                    store.restore_lsn(record.lsn)
                    self._mark_dirty(record.ops)
                    report.operations_applied += len(record.ops)
                    report.records_applied += 1
                total = handle.seek(0, os.SEEK_END)
        report.replay_s = perf_counter() - started
        if delta.torn_bytes and first_lsn != report.checkpoint_lsn + 1:
            # A segment cut short is harmless only while the WAL it was
            # to supersede still holds the commits after the last
            # complete one; otherwise they are gone.
            raise PersistenceError(
                f"delta log {delta_path} is cut after byte "
                f"{delta.clean_length} and the WAL does not continue "
                f"from lsn {report.checkpoint_lsn}: committed changes "
                f"would be lost"
            )
        self._delta = delta
        self._checkpoint_lsn = report.checkpoint_lsn
        if report.checkpoint_format == CHECKPOINT_FORMAT:
            self._base_lsn = info["base_lsn"]
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
            if self._delta.torn_bytes:
                # Likewise for a delta segment cut short: the next one
                # must follow the last complete segment.
                truncate_delta_log(self.directory, self._delta.clean_length)
                self._delta.torn_bytes = 0
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
        self._mark_dirty(ops)

    def _mark_dirty(self, ops) -> None:
        # op[1] of an entity op is the node or relationship id.
        dirty = self._dirty
        for op in ops:
            side = _DIRTY_SIDE.get(op[0])
            if side is not None:
                dirty[side].add(op[1])

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, store: GraphStore) -> Path:
        """Checkpoint the store, then truncate the WAL; returns the path.

        Appends a delta segment with the final image of every entity
        committed since the last checkpoint (O(change)), or rewrites
        the base (:meth:`compact`) when there is no format-3 base to
        append to, the store is not the one this manager logs, or the
        delta log has outgrown ``DELTA_SHARE`` of the base.  Safe
        against a crash at any point: the segment is fsynced and the
        base renamed atomically before the WAL is truncated, and the
        stamped LSN makes replaying the not-yet truncated WAL a no-op
        (records with ``lsn <= checkpoint lsn`` are skipped).
        """
        if (
            self._base_lsn is None
            or store is not self.store
            or self._delta.clean_length
            > DELTA_SHARE * (self.directory / CHECKPOINT_NAME).stat().st_size
        ):
            return self.compact(store)
        self._refuse_open_transaction(store)
        written = 0
        if store.lsn != self._checkpoint_lsn:
            try:
                written = append_delta(
                    self.directory,
                    store,
                    base_lsn=self._base_lsn,
                    from_lsn=self._checkpoint_lsn,
                    node_ids=self._dirty[0],
                    rel_ids=self._dirty[1],
                )
            except BaseException:
                # The log may end in a partial segment now; the next
                # checkpoint rewrites the base, which deletes it.
                self._base_lsn = None
                raise
            self._delta.clean_length += written
        self._checkpointed(store, "delta", written)
        return self.directory / DELTA_NAME

    def compact(self, store: GraphStore) -> Path:
        """Rewrite the base, delete the delta log, truncate the WAL.

        Streams the base (peak memory one batch, not the graph);
        returns its path.  ``python -m repro.recover --checkpoint``
        calls this to fold a directory into one base.
        """
        self._refuse_open_transaction(store)
        path = write_checkpoint(self.directory, store)
        self._base_lsn = store.lsn
        self._delta = DeltaLog([])
        self._checkpointed(store, "full", path.stat().st_size)
        return path

    @staticmethod
    def _refuse_open_transaction(store: GraphStore) -> None:
        if store.in_transaction():
            raise PersistenceError(
                "cannot checkpoint inside an open transaction"
            )

    def _checkpointed(self, store: GraphStore, kind: str, size: int) -> None:
        # The checkpoint is durable: the next one follows it, and the
        # WAL it covers can go.
        self._checkpoint_lsn = store.lsn
        for ids in self._dirty:
            ids.clear()
        self.last_checkpoint = {"kind": kind, "bytes": size}
        if self._writer is not None:
            self._writer.truncate(0)
        else:
            open(self.wal_path, "wb").close()
        self._clean_length = 0

    def sync(self) -> None:
        """Force pending WAL records to disk (any fsync policy)."""
        if self._writer is not None:
            self._writer.sync()

    def close(self) -> None:
        """Flush and close the writer (the hook becomes unusable)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
