"""The one record frame every durable file is built from.

A frame is a length-prefixed, checksummed JSON payload::

    +----------------+----------------+----------------------+
    | payload length | CRC32(payload) | payload (UTF-8 JSON) |
    |  4 bytes, BE   |  4 bytes, BE   |  one JSON object     |
    +----------------+----------------+----------------------+

The write-ahead log is a plain sequence of frames; a streaming
checkpoint is a magic string followed by frames.  This module is the
only place that packs or unpacks the frame header -- the WAL writer,
recovery, the checkpoint writer and reader and the crash fuzzer all go
through :func:`encode_frame` and :func:`iter_frames` (CI fails when a
second pack or unpack of that header appears under ``src/``).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import IO, Iterator

from repro.errors import PersistenceError

#: payload length + CRC32, both unsigned 32-bit big-endian
_HEADER = struct.Struct(">II")


def encode_frame(record: dict) -> bytes:
    """The on-disk bytes of one framed record."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(
    handle: IO[bytes], *, strict: bool
) -> Iterator[tuple[dict, int]]:
    """Decode frames from *handle*'s position to the end of the file.

    Yields ``(record, end_offset)`` one frame at a time (O(1) memory;
    ``end_offset`` is the file offset just past the frame, i.e. a
    clean place to cut).  The two consumers differ in what a bad frame
    -- short header, short payload, checksum mismatch, undecodable
    JSON -- means:

    * ``strict=False`` (the WAL): a torn tail is an expected crash
      artefact; iteration just stops, and the last yielded offset is
      the clean length of the log.  Nothing after a bad frame is
      reachable (without a trustworthy length there is no resync).
    * ``strict=True`` (checkpoints, which the atomic rename only ever
      exposes complete): any bad frame raises
      :class:`~repro.errors.PersistenceError`.
    """
    offset = handle.tell()
    size = handle.seek(0, os.SEEK_END)
    handle.seek(offset)
    while offset < size:
        frame = _read_frame(handle, size - offset)
        if isinstance(frame, str):
            if strict:
                raise PersistenceError(f"{frame} at byte {offset}")
            return
        record, length = frame
        offset += length
        yield record, offset


def _read_frame(handle: IO[bytes], remaining: int) -> tuple[dict, int] | str:
    """Decode the frame at *handle*'s position: ``(record, frame length)``.

    Returns a description of the problem instead when the frame is bad.
    """
    header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        return "truncated record frame"
    length, crc = _HEADER.unpack(header)
    # Checked against what is left of the file before reading, so a
    # garbage length never drives a giant allocation.
    if _HEADER.size + length > remaining:
        return "truncated record payload"
    payload = handle.read(length)
    if zlib.crc32(payload) != crc:
        return "record CRC mismatch"
    try:
        record = json.loads(payload)
    except ValueError as error:
        return f"undecodable record ({error})"
    if not isinstance(record, dict):
        return "record is not a JSON object"
    return record, _HEADER.size + length
