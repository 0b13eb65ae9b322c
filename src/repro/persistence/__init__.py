"""Durability: write-ahead logging, checkpoints, crash recovery.

The paper's statement atomicity (``[[C]] : (G, T) -> (G', T')``) is
enforced in memory by the store's undo journal; this package extends
it across process boundaries.  Every committed statement's journal
slice is re-expressed as *redo* operations and appended to an
append-only, checksummed write-ahead log; checkpoints append the final
images of what changed to a delta log (rewriting the whole graph
atomically once that log outgrows a share of it) and truncate the
WAL; recovery replays the log over the base and its deltas,
discarding any torn tail, so the reopened graph is byte-identical
(canonical graph JSON) to the last committed state before the crash.

Entry points: ``Graph(path=...)`` / ``Graph.open(path)`` in
:mod:`repro.session`, and the standalone ``python -m repro.recover``
CLI.
"""

from repro.persistence.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_NAME,
    DELTA_NAME,
    LEGACY_CHECKPOINT_FORMAT,
    STREAM_MAGIC,
    WAL_NAME,
    checkpoint_format,
    checkpoint_record_boundaries,
    read_checkpoint_records,
    read_delta_log,
    restore_checkpoint_file,
    write_checkpoint,
)
from repro.persistence.frames import encode_frame, iter_frames
from repro.persistence.group_commit import GroupCommitter
from repro.persistence.manager import PersistenceManager, RecoveryReport
from repro.persistence.wal import (
    FSYNC_POLICIES,
    WalRecord,
    WalWriter,
    encode_record,
    iter_records,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_NAME",
    "DELTA_NAME",
    "LEGACY_CHECKPOINT_FORMAT",
    "STREAM_MAGIC",
    "WAL_NAME",
    "FSYNC_POLICIES",
    "GroupCommitter",
    "PersistenceManager",
    "RecoveryReport",
    "WalRecord",
    "WalWriter",
    "checkpoint_format",
    "checkpoint_record_boundaries",
    "encode_frame",
    "encode_record",
    "iter_frames",
    "iter_records",
    "read_checkpoint_records",
    "read_delta_log",
    "restore_checkpoint_file",
    "write_checkpoint",
]
