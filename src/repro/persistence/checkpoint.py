"""Atomic checkpoints: a full snapshot that supersedes the WAL prefix.

A checkpoint is a **streaming record file**: an 8-byte magic
(``RGCHKPT2``) followed by frames (see :mod:`repro.persistence.frames`,
the same frame the WAL uses) carrying these records:

======== ==============================================================
record   payload
======== ==============================================================
header   ``{"kind": "header", "format": 2, "lsn", "next_node_id",
         "next_rel_id", "indexes", "constraints"}``
nodes    ``{"kind": "nodes", "rows": [[id, labels, properties], ...]}``
         (at most :data:`BATCH_ROWS` rows per record)
rels     ``{"kind": "rels", "rows": [[id, type, start, end,
         properties], ...]}``
end      ``{"kind": "end", "nodes": N, "rels": M}`` -- row totals, so
         a truncated file is detected even when it ends on a frame
         boundary
======== ==============================================================

The writer streams rows straight out of the store's column iterators
(:meth:`~repro.graph.store.GraphStore.iter_node_records` /
``iter_rel_records``) so peak memory is one batch, not the graph; the
reader feeds :meth:`~repro.graph.store.GraphStore.apply_redo` row by
row with the same O(1) bound.  The file is written to a temporary name
in the same directory, fsynced, atomically renamed over the previous
checkpoint, and the directory fsynced -- a crash leaves either the old
or the new checkpoint, never a torn one.

Format 1 (one JSON blob: the :func:`repro.io.graph_json.graph_to_dict`
shape plus allocators, indexes and constraints) is no longer written,
but directories produced by older builds are outside input and stay
readable: the first byte tells the formats apart (``{`` = blob, magic =
stream) and :func:`read_checkpoint_records` re-expresses a blob as the
record sequence above, so both formats restore through one row applier.

Restoring uses ``apply_redo`` so the original entity ids survive;
``dict_to_store`` would remap them, which would break WAL replay
(records reference ids).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence.frames import encode_frame, iter_frames

#: file names inside a persistence directory
CHECKPOINT_NAME = "checkpoint.json"
WAL_NAME = "wal.log"

CHECKPOINT_FORMAT = 2
LEGACY_CHECKPOINT_FORMAT = 1

#: first 8 bytes of a format-2 checkpoint; legacy JSON starts with "{"
STREAM_MAGIC = b"RGCHKPT2"

#: node/relationship rows per framed record -- enough to amortise the
#: framing + JSON overhead, small enough that writer and reader stay
#: O(1) in graph size
BATCH_ROWS = 1024


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def write_checkpoint(directory: Path | str, store: GraphStore) -> Path:
    """Atomically write the checkpoint file; returns its path.

    The header stamps ``store.lsn``: WAL records at or below it are
    covered by this snapshot.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / CHECKPOINT_NAME
    temporary = directory / (CHECKPOINT_NAME + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(STREAM_MAGIC)
        for record in _store_records(store):
            handle.write(encode_frame(record))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, target)
    _fsync_directory(directory)
    return target


def _store_records(store: GraphStore) -> Iterator[dict]:
    """The record sequence of *store*, one batch at a time."""
    next_node_id, next_rel_id = store.next_ids()
    yield {
        "kind": "header",
        "format": CHECKPOINT_FORMAT,
        "lsn": store.lsn,
        "next_node_id": next_node_id,
        "next_rel_id": next_rel_id,
        "indexes": [list(pair) for pair in store.index_keys()],
        "constraints": sorted(
            list(pair) for pair in store.unique_constraints()
        ),
    }
    totals = {}
    for kind, rows in (
        ("nodes", store.iter_node_records()),
        ("rels", store.iter_rel_records()),
    ):
        written = 0
        batch: list[list] = []
        for row in rows:
            batch.append(list(row))
            if len(batch) == BATCH_ROWS:
                yield {"kind": kind, "rows": batch}
                written += BATCH_ROWS
                batch = []
        if batch:
            yield {"kind": kind, "rows": batch}
        totals[kind] = written + len(batch)
    yield {"kind": "end", **totals}


def _fsync_directory(directory: Path) -> None:
    # Make the rename itself durable where the platform allows it.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def checkpoint_format(path: Path | str) -> int:
    """The format of the checkpoint file at *path* (sniffed, cheap)."""
    with open(path, "rb") as handle:
        head = handle.read(len(STREAM_MAGIC))
    if head[:1] == b"{":
        return LEGACY_CHECKPOINT_FORMAT
    if head == STREAM_MAGIC:
        return CHECKPOINT_FORMAT
    raise PersistenceError(
        f"corrupt checkpoint {path}: unrecognised leading bytes {head!r}"
    )


def read_checkpoint_records(path: Path | str) -> Iterator[dict]:
    """Yield the records of the checkpoint at *path*, either format.

    O(1) memory for a streaming file: one frame is held at a time.
    Unlike the WAL -- where a torn tail is expected and silently
    dropped -- a checkpoint is only ever observed complete (the rename
    is atomic), so *any* truncation, CRC mismatch or missing ``end``
    record raises :class:`PersistenceError`.
    """
    if checkpoint_format(path) == LEGACY_CHECKPOINT_FORMAT:
        return _legacy_records(Path(path))
    return (record for record, __ in _stream_frames(Path(path)))


def checkpoint_record_boundaries(path: Path | str) -> list[int]:
    """Byte offsets after the magic and after each framed record.

    The crash-injection fuzzer truncates a copied checkpoint at each
    of these to prove torn checkpoints are detected loudly.
    """
    return [len(STREAM_MAGIC)] + [
        end for __, end in _stream_frames(Path(path))
    ]


def _stream_frames(path: Path) -> Iterator[tuple[dict, int]]:
    """``(record, end offset)`` per frame of a format-2 file, strictly."""
    with open(path, "rb") as handle:
        magic = handle.read(len(STREAM_MAGIC))
        if magic != STREAM_MAGIC:
            raise PersistenceError(
                f"corrupt checkpoint {path}: bad magic {magic!r}"
            )
        saw_end = False
        try:
            for record, end in iter_frames(handle, strict=True):
                if saw_end:
                    raise PersistenceError("record after end marker")
                saw_end = record.get("kind") == "end"
                yield record, end
            if not saw_end:
                raise PersistenceError("missing end record")
        except PersistenceError as error:
            raise PersistenceError(
                f"corrupt checkpoint {path}: {error}"
            ) from error


def _legacy_records(path: Path) -> Iterator[dict]:
    """A format-1 blob re-expressed as header / nodes / rels / end."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        graph = payload.get("graph", {})
        nodes = [
            [node["id"], node["labels"], node["properties"]]
            for node in graph.get("nodes", ())
        ]
        rels = [
            [
                rel["id"],
                rel["type"],
                rel["start"],
                rel["end"],
                rel["properties"],
            ]
            for rel in graph.get("relationships", ())
        ]
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        raise PersistenceError(
            f"corrupt checkpoint {path}: {error!r}"
        ) from error
    header = {key: payload[key] for key in payload if key != "graph"}
    yield {**header, "kind": "header"}
    yield {"kind": "nodes", "rows": nodes}
    yield {"kind": "rels", "rows": rels}
    yield {"kind": "end", "nodes": len(nodes), "rels": len(rels)}


# ----------------------------------------------------------------------
# Restoring
# ----------------------------------------------------------------------


def restore_checkpoint_file(store: GraphStore, path: Path | str) -> dict:
    """Rebuild *store* from the checkpoint at *path*, ids preserved.

    Rows go straight into
    :meth:`~repro.graph.store.GraphStore.apply_redo`, so a streaming
    file is never materialised.  Returns ``{"lsn": ..., "format": ...}``
    reporting what was read.
    """
    apply_redo = store.apply_redo
    header: dict | None = None
    counts = {"nodes": 0, "rels": 0}
    for record in read_checkpoint_records(path):
        kind = record.get("kind")
        if kind == "header":
            if record.get("format") not in (
                CHECKPOINT_FORMAT,
                LEGACY_CHECKPOINT_FORMAT,
            ):
                raise PersistenceError(
                    f"unsupported checkpoint format "
                    f"{record.get('format')!r} in {path}"
                )
            if "lsn" not in record:
                raise PersistenceError(
                    f"corrupt checkpoint {path}: header carries no lsn"
                )
            header = record
        elif kind == "nodes" or kind == "rels":
            op = "create_node" if kind == "nodes" else "create_rel"
            for row in record["rows"]:
                apply_redo((op, *row))
            counts[kind] += len(record["rows"])
        elif kind == "end":
            if header is None:
                raise PersistenceError(
                    f"corrupt checkpoint {path}: missing header record"
                )
            if (record.get("nodes"), record.get("rels")) != (
                counts["nodes"],
                counts["rels"],
            ):
                raise PersistenceError(
                    f"corrupt checkpoint {path}: end record expects "
                    f"{record.get('nodes')} nodes / {record.get('rels')} "
                    f"relationships, stream carried {counts['nodes']} / "
                    f"{counts['rels']}"
                )
        else:
            raise PersistenceError(
                f"corrupt checkpoint {path}: unknown record kind {kind!r}"
            )
    # Schema, allocators and LSN last: indexes backfill in one pass,
    # and constraints validate against the complete data.
    for label, key in header.get("indexes", ()):
        apply_redo(("create_index", label, key))
    for label, key in header.get("constraints", ()):
        apply_redo(("create_constraint", label, key))
    store.reserve_ids(
        header.get("next_node_id", 0), header.get("next_rel_id", 0)
    )
    store.restore_lsn(header["lsn"])
    return {"lsn": header["lsn"], "format": header["format"]}
