"""Standalone recovery CLI: ``python -m repro.recover <directory>``.

Loads the base checkpoint and its delta segments, replays the
write-ahead log (discarding any torn tail), verifies the store
invariants, and prints a report.  With ``--checkpoint`` the recovered
state is compacted into one fresh base (deleting the delta log and
truncating the WAL), which is also how a format-1 or format-2
directory is upgraded; with ``--json`` the recovered graph is printed
as canonical graph JSON.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence import (
    CHECKPOINT_FORMAT,
    LEGACY_CHECKPOINT_FORMAT,
    PersistenceManager,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.recover",
        description="Recover a persisted graph from checkpoint + WAL.",
    )
    parser.add_argument(
        "directory",
        help="persistence directory (checkpoint.json, checkpoint.delta, "
        "wal.log)",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="write the recovered state as one fresh base checkpoint "
        "(deletes the delta log, truncates the WAL)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the recovered graph as canonical graph JSON",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the store-invariant re-verification",
    )
    args = parser.parse_args(argv)

    store = GraphStore()
    manager = PersistenceManager(args.directory)
    try:
        report = manager.recover(store, verify=not args.no_verify)
    except PersistenceError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    print(f"recovered: {report.summary()}")
    if report.checkpoint_format:
        kind = (
            "blob"
            if report.checkpoint_format == LEGACY_CHECKPOINT_FORMAT
            else "stream"
        )
        print(
            f"checkpoint format: {report.checkpoint_format} ({kind}), "
            f"{report.delta_segments} delta segments "
            f"({report.delta_rows} rows)"
        )
    if not args.no_verify:
        print("invariants: ok")
    if args.checkpoint:
        manager.compact(store)
        print(
            f"checkpoint written (format {CHECKPOINT_FORMAT}, "
            f"lsn {store.lsn}), delta log deleted, WAL truncated"
        )
    if args.json:
        from repro.testing.invariants import canonical_graph_json

        print(canonical_graph_json(store))
    manager.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
