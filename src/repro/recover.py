"""Standalone recovery CLI: ``python -m repro.recover <directory>``.

Loads the latest checkpoint, replays the write-ahead log (discarding
any torn tail), verifies the store invariants, and prints a report.
With ``--checkpoint`` the recovered state is compacted into a fresh
streaming checkpoint (truncating the WAL), which is also how a legacy
format-1 directory is upgraded; with ``--json`` the recovered graph is
printed as canonical graph JSON.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence import CHECKPOINT_FORMAT, PersistenceManager


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.recover",
        description="Recover a persisted graph from checkpoint + WAL.",
    )
    parser.add_argument(
        "directory", help="persistence directory (checkpoint.json, wal.log)"
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a fresh checkpoint of the recovered state "
        "(compacts and truncates the WAL)",
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
            "stream"
            if report.checkpoint_format == CHECKPOINT_FORMAT
            else "blob"
        )
        print(f"checkpoint format: {report.checkpoint_format} ({kind})")
    if not args.no_verify:
        print("invariants: ok")
    if args.checkpoint:
        manager.checkpoint(store)
        print(
            f"checkpoint written (format {CHECKPOINT_FORMAT}, "
            f"lsn {store.lsn}), WAL truncated"
        )
    if args.json:
        from repro.testing.invariants import canonical_graph_json

        print(canonical_graph_json(store))
    manager.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
