"""Checkpoints: a base snapshot plus an append-only log of deltas.

A persistence directory holds one **base** (``checkpoint.json``) and,
beside it, a **delta log** (``checkpoint.delta``).  Both are built
from the one record frame (see :mod:`repro.persistence.frames`, the
same frame the WAL uses) and carry these records:

======== ==============================================================
record   payload
======== ==============================================================
header   ``{"kind": "header", "format": 3, "lsn", "next_node_id",
         "next_rel_id", "indexes", "constraints"}``; a delta header
         adds ``base_lsn`` (the LSN of the base it applies to) and
         ``from_lsn`` (the LSN of the checkpoint it follows)
nodes    ``{"kind": "nodes", "rows": [[id, labels, properties], ...]}``
         (at most :data:`BATCH_ROWS` rows per record)
rels     ``{"kind": "rels", "rows": [[id, type, start, end,
         properties], ...]}``
tomb     ``{"kind": "tomb", "nodes": [id, ...], "rels": [id, ...]}``
         -- deltas only: ids deleted since the previous checkpoint
end      ``{"kind": "end", "nodes": N, "rels": M}`` -- row totals, so
         a truncated file is detected even when it ends on a frame
         boundary
======== ==============================================================

The base is an 8-byte magic (``RGCHKPT2``) and one header / rows / end
sequence holding every live entity.  :func:`write_checkpoint` streams
it straight out of the store's column iterators (peak memory one
batch, not the graph) to a temporary name, fsyncs it, atomically
renames it over the previous base, fsyncs the directory and only then
deletes the delta log the new base supersedes -- a crash leaves either
the old or the new base, never a torn one.

A **delta segment** is one header / rows / tomb / end sequence
appended to the delta log by :func:`append_delta`: the final image of
each entity committed since the previous checkpoint, and a tomb for
each one deleted.  Statements are atomic transitions, so only the net
effect on an entity matters and one image per touched entity is the
whole durable change.  The segment is fsynced before the WAL it
supersedes is truncated.

:func:`restore_checkpoint_file` decodes the (small) delta segments
first -- later segments win -- and then streams the base through a
merge into :meth:`~repro.graph.store.GraphStore.bulk_load`: a replaced
row gives way to its image, a tombed row is skipped, and ids the base
does not hold follow in ascending order.  Only segments stamped with
the base's LSN and chaining on from it apply; segments left behind by
a crash between a base rename and the delta log's deletion carry an
older ``base_lsn`` and are ignored.  The delta log is read like the
WAL: a torn trailing segment (a crash mid-append) is dropped, and the
recovery manager accepts that only when the WAL still holds what the
segment would have covered.

Format 3 is the base this module writes; it has the same records as
format 2, so a build that predates deltas refuses a format-3 directory
instead of silently ignoring its delta log.  Format 2 (same magic, no
deltas) and format 1 (one JSON blob: the
:func:`repro.io.graph_json.graph_to_dict` shape plus allocators,
indexes and constraints) are no longer written, but directories
produced by older builds are outside input and stay readable;
:func:`read_checkpoint_records` re-expresses a blob as the record
sequence above, so every format restores through one batch path.

Restoring keeps the original entity ids (``bulk_load`` takes them from
the rows); ``dict_to_store`` would remap them, which would break WAL
replay (records reference ids).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import CypherError, PersistenceError
from repro.graph.store import GraphStore, collector_paused
from repro.persistence.frames import encode_frame, iter_frames

#: file names inside a persistence directory
CHECKPOINT_NAME = "checkpoint.json"
DELTA_NAME = "checkpoint.delta"
WAL_NAME = "wal.log"

CHECKPOINT_FORMAT = 3
LEGACY_CHECKPOINT_FORMAT = 1
#: every base format the reader restores
READABLE_FORMATS = (LEGACY_CHECKPOINT_FORMAT, 2, CHECKPOINT_FORMAT)

#: first 8 bytes of a format-2 or format-3 base; legacy JSON starts
#: with "{" and the header record tells the two stream formats apart
STREAM_MAGIC = b"RGCHKPT2"

#: node/relationship rows per framed record -- enough to amortise the
#: framing + JSON overhead, small enough that writer and reader stay
#: O(1) in graph size
BATCH_ROWS = 1024

#: the next checkpoint rewrites the base once the delta log holds more
#: than this share of the base file's bytes: amortised O(1) bytes per
#: change, and an open reads about 1.25 bases at most
DELTA_SHARE = 0.25


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def write_checkpoint(directory: Path | str, store: GraphStore) -> Path:
    """Atomically write a full base; returns its path.

    The header stamps ``store.lsn``: WAL records and delta segments at
    or below it are covered by this snapshot, so the delta log is
    deleted once the rename is durable.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / CHECKPOINT_NAME
    temporary = directory / (CHECKPOINT_NAME + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(STREAM_MAGIC)
        for record in _base_records(store):
            handle.write(encode_frame(record))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, target)
    _fsync_directory(directory)
    remove_delta_log(directory)
    return target


def remove_delta_log(directory: Path | str) -> None:
    """Delete the delta log, durably; a no-op when there is none."""
    path = Path(directory) / DELTA_NAME
    if path.exists():
        path.unlink()
        _fsync_directory(path.parent)


def append_delta(
    directory: Path | str,
    store: GraphStore,
    *,
    base_lsn: int,
    from_lsn: int,
    node_ids: Iterable[int],
    rel_ids: Iterable[int],
) -> int:
    """Append one delta segment to the delta log and fsync it.

    *node_ids* / *rel_ids* are the entities committed since the
    checkpoint stamped *from_lsn*: a live one is written as its current
    row image, any other as a tomb.  Returns the segment's bytes.
    """
    directory = Path(directory)
    path = directory / DELTA_NAME
    created = not path.exists()
    written = 0
    with open(path, "ab") as handle:
        for record in _delta_records(
            store, base_lsn, from_lsn, sorted(node_ids), sorted(rel_ids)
        ):
            frame = encode_frame(record)
            handle.write(frame)
            written += len(frame)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        _fsync_directory(directory)
    return written


def truncate_delta_log(directory: Path | str, length: int) -> None:
    """Cut the delta log back to *length* bytes (a torn segment away)."""
    with open(Path(directory) / DELTA_NAME, "r+b") as handle:
        handle.truncate(length)
        os.fsync(handle.fileno())


def _header(store: GraphStore, **extra: int) -> dict:
    next_node_id, next_rel_id = store.next_ids()
    return {
        "kind": "header",
        "format": CHECKPOINT_FORMAT,
        "lsn": store.lsn,
        "next_node_id": next_node_id,
        "next_rel_id": next_rel_id,
        "indexes": [list(pair) for pair in store.index_keys()],
        "constraints": sorted(
            list(pair) for pair in store.unique_constraints()
        ),
        **extra,
    }


def _base_records(store: GraphStore) -> Iterator[dict]:
    """The record sequence of a base of *store*, one batch at a time."""
    yield _header(store)
    totals: dict[str, int] = {}
    yield from _row_records("nodes", store.iter_node_records(), totals)
    yield from _row_records("rels", store.iter_rel_records(), totals)
    yield {"kind": "end", **totals}


def _delta_records(
    store: GraphStore,
    base_lsn: int,
    from_lsn: int,
    node_ids: list[int],
    rel_ids: list[int],
) -> Iterator[dict]:
    """The record sequence of one delta segment."""
    yield _header(store, base_lsn=base_lsn, from_lsn=from_lsn)
    totals: dict[str, int] = {}
    tombs: dict[str, list[int]] = {}
    for kind, ids, live, rows in (
        ("nodes", node_ids, store.has_node, store.iter_node_records),
        ("rels", rel_ids, store.has_relationship, store.iter_rel_records),
    ):
        present: list[int] = []
        tombs[kind] = []
        for entity_id in ids:
            (present if live(entity_id) else tombs[kind]).append(entity_id)
        yield from _row_records(kind, rows(present), totals)
    if tombs["nodes"] or tombs["rels"]:
        yield {"kind": "tomb", **tombs}
    yield {"kind": "end", **totals}


def _row_records(
    kind: str, rows: Iterator[tuple], totals: dict[str, int]
) -> Iterator[dict]:
    """*rows* as ``kind`` records of at most :data:`BATCH_ROWS` rows."""
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
    """The format of the base at *path* (sniffed, cheap)."""
    with open(path, "rb") as handle:
        head = handle.read(len(STREAM_MAGIC))
    if head[:1] == b"{":
        return LEGACY_CHECKPOINT_FORMAT
    if head == STREAM_MAGIC:
        header = next(read_checkpoint_records(path))
        return header.get("format")
    raise PersistenceError(
        f"corrupt checkpoint {path}: unrecognised leading bytes {head!r}"
    )


def read_checkpoint_records(path: Path | str) -> Iterator[dict]:
    """Yield the records of the base at *path*, any format.

    O(1) memory for a streaming file: one frame is held at a time.
    Unlike the WAL -- where a torn tail is expected and silently
    dropped -- a base is only ever observed complete (the rename is
    atomic), so *any* truncation, CRC mismatch or missing ``end``
    record raises :class:`PersistenceError`.
    """
    with open(path, "rb") as handle:
        legacy = handle.read(1) == b"{"
    if legacy:
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
    """``(record, end offset)`` per frame of a stream base, strictly."""
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


@dataclass
class DeltaSegment:
    """One complete segment of the delta log, decoded."""

    header: dict
    nodes: list[list] = field(default_factory=list)
    rels: list[list] = field(default_factory=list)
    tombs: dict[str, list[int]] = field(
        default_factory=lambda: {"nodes": [], "rels": []}
    )

    @property
    def rows(self) -> int:
        """Row images plus tombs: what applying the segment writes."""
        return (
            len(self.nodes)
            + len(self.rels)
            + len(self.tombs["nodes"])
            + len(self.tombs["rels"])
        )


@dataclass
class DeltaLog:
    """The complete segments of a delta log and where they end."""

    segments: list[DeltaSegment]
    #: offset just past the last complete segment (a clean place to cut)
    clean_length: int = 0
    #: bytes after it: a torn or corrupt trailing segment
    torn_bytes: int = 0


def read_delta_log(path: Path | str) -> DeltaLog:
    """Decode every complete segment of the delta log at *path*.

    Read like the WAL: the first short or corrupt frame, or the end of
    the file inside a segment, ends the log, and what follows the last
    complete segment is reported as torn.  An intact frame out of
    place, or an ``end`` whose totals disagree with the segment, was
    never written by :func:`append_delta` and raises.
    """
    path = Path(path)
    log = DeltaLog([])
    if not path.exists():
        return log
    with open(path, "rb") as handle:
        segment: DeltaSegment | None = None
        for record, end in iter_frames(handle, strict=False):
            problem = _add_to_segment(segment, record)
            if problem is not None:
                raise PersistenceError(f"corrupt delta log {path}: {problem}")
            if segment is None:
                segment = DeltaSegment(record)
            elif record["kind"] == "end":
                log.segments.append(segment)
                log.clean_length = end
                segment = None
        log.torn_bytes = handle.seek(0, os.SEEK_END) - log.clean_length
    return log


_SEGMENT_HEADER_KEYS = frozenset({"lsn", "base_lsn", "from_lsn"})


def _add_to_segment(segment: DeltaSegment | None, record: dict) -> str | None:
    """Fold *record* into the open *segment*; describes a misfit instead.

    With no open segment only a delta header fits (the caller opens
    the segment from it).
    """
    kind = record.get("kind")
    if segment is None:
        if kind == "header" and _SEGMENT_HEADER_KEYS <= record.keys():
            return None
        return f"{kind!r} record where a segment header belongs"
    if kind == "nodes" or kind == "rels":
        rows = record.get("rows")
        if not isinstance(rows, list):
            return f"{kind} record without rows"
        getattr(segment, kind).extend(rows)
    elif kind == "tomb":
        segment.tombs = {
            "nodes": list(record.get("nodes", ())),
            "rels": list(record.get("rels", ())),
        }
    elif kind == "end":
        carried = (len(segment.nodes), len(segment.rels))
        if (record.get("nodes"), record.get("rels")) != carried:
            return (
                f"segment at lsn {segment.header['lsn']} ends with totals "
                f"{record.get('nodes')} / {record.get('rels')}, carried "
                f"{carried[0]} / {carried[1]}"
            )
    else:
        return f"{kind!r} record inside a segment"
    return None


def _delta_images(
    segments: list[DeltaSegment], base_lsn: int, path: Path
) -> tuple[list[DeltaSegment], dict[str, dict[int, list | None]]]:
    """The segments that apply to the base at *base_lsn*, merged.

    Returns them with their net effect: per kind, id -> final row image
    (``None`` for a tomb), later segments winning.
    """
    chain: list[DeltaSegment] = []
    images: dict[str, dict[int, list | None]] = {"nodes": {}, "rels": {}}
    lsn = base_lsn
    for segment in segments:
        header = segment.header
        if header["base_lsn"] != base_lsn:
            continue  # written against an older base
        if header["from_lsn"] != lsn:
            raise PersistenceError(
                f"corrupt delta log {path}: segment from lsn "
                f"{header['from_lsn']} does not follow lsn {lsn}"
            )
        for kind in ("nodes", "rels"):
            kind_images = images[kind]
            for row in getattr(segment, kind):
                kind_images[row[0]] = row
            for entity_id in segment.tombs[kind]:
                kind_images[entity_id] = None
        chain.append(segment)
        lsn = header["lsn"]
    return chain, images


def _merged(
    base_rows: Iterator[list], images: dict[int, list | None]
) -> Iterator[list]:
    """Base rows with the delta applied, then the ids the base lacks."""
    if not images:
        yield from base_rows
        return
    for row in base_rows:
        row = images.pop(row[0], row)
        if row is not None:
            yield row
    for entity_id in sorted(images):
        if images[entity_id] is not None:
            yield images[entity_id]


# ----------------------------------------------------------------------
# Restoring
# ----------------------------------------------------------------------


def restore_checkpoint_file(
    store: GraphStore,
    path: Path | str,
    segments: list[DeltaSegment] = (),
) -> dict:
    """Rebuild the empty *store* from the base at *path*, ids kept.

    The delta *segments* (from :func:`read_delta_log`) stamped with the
    base's LSN are applied on the way in.  Rows go through
    :meth:`~repro.graph.store.GraphStore.bulk_load`, the store's one
    batch path for writing rows into an empty store: node records
    first, then relationship records, decoded one frame at a time as
    the loader pulls them, so a streaming base is never materialised.
    A row the loader rejects (negative or duplicate id, missing type,
    unstorable value, endpoint absent) makes the checkpoint corrupt.
    Returns ``{"lsn", "format", "base_lsn", "segments",
    "delta_rows"}``: the LSN reached (the last applied segment's, else
    the base's), the base's format and LSN, and how many segments and
    row images / tombs were applied.
    """
    path = Path(path)
    header: dict | None = None
    chain: list[DeltaSegment] = []
    images: dict[str, dict[int, list | None]] = {"nodes": {}, "rels": {}}
    counts = {"nodes": 0, "rels": 0}

    def row_records() -> Iterator[dict]:
        # Validates and consumes header / end, yields the row records.
        nonlocal header, chain, images
        for record in read_checkpoint_records(path):
            kind = record.get("kind")
            if kind == "header":
                if record.get("format") not in READABLE_FORMATS:
                    raise PersistenceError(
                        f"unsupported checkpoint format "
                        f"{record.get('format')!r} in {path}"
                    )
                if "lsn" not in record:
                    raise PersistenceError(
                        f"corrupt checkpoint {path}: header carries no lsn"
                    )
                header = record
                chain, images = _delta_images(
                    list(segments), record["lsn"], path.with_name(DELTA_NAME)
                )
            elif kind == "nodes" or kind == "rels":
                yield record
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
                        f"{record.get('nodes')} nodes / "
                        f"{record.get('rels')} relationships, stream "
                        f"carried {counts['nodes']} / {counts['rels']}"
                    )
            else:
                raise PersistenceError(
                    f"corrupt checkpoint {path}: unknown record kind "
                    f"{kind!r}"
                )

    records = row_records()
    current = next(records, None)

    def rows(kind: str) -> Iterator[list]:
        # The rows of the run of *kind* records at the stream position.
        nonlocal current
        while current is not None and current["kind"] == kind:
            batch = current["rows"]
            yield from batch
            counts[kind] += len(batch)
            current = next(records, None)

    with collector_paused():
        try:
            # Reading the first row record above read the header, so
            # the chain's images are known by now.
            store.bulk_load(
                _merged(rows("nodes"), images["nodes"]),
                _merged(rows("rels"), images["rels"]),
            )
        except PersistenceError:
            raise
        except (
            CypherError, AttributeError, LookupError, TypeError, ValueError
        ) as error:
            # A malformed row: bad id, type or value, wrong shape.
            raise PersistenceError(
                f"corrupt checkpoint {path}: {error}"
            ) from error
        if current is not None:
            raise PersistenceError(
                f"corrupt checkpoint {path}: {current['kind']} record "
                f"after the relationship records"
            )
        # Schema, allocators and LSN last, from the newest header:
        # indexes backfill in one pass, and constraints validate
        # against the complete data.
        latest = chain[-1].header if chain else header
        for label, key in latest.get("indexes", ()):
            store.apply_redo(("create_index", label, key))
        for label, key in latest.get("constraints", ()):
            store.apply_redo(("create_constraint", label, key))
    store.reserve_ids(
        latest.get("next_node_id", 0), latest.get("next_rel_id", 0)
    )
    store.restore_lsn(latest["lsn"])
    return {
        "lsn": latest["lsn"],
        "format": header["format"],
        "base_lsn": header["lsn"],
        "segments": len(chain),
        "delta_rows": sum(segment.rows for segment in chain),
    }
