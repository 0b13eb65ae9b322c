"""Offline bulk loader: ``python -m repro.bulkload``.

The statement pipeline (parse, plan, journal, WAL) is the right path
for transactional updates, but the dominant survey workload -- "input
nodes first and relationships later" from relational/CSV exports --
does not need any of it: the data is already validated, ids are
already assigned, and nothing ever rolls back.  This loader streams a
nodes-file + relationships-file pair straight into the columnar store
(:meth:`~repro.graph.store.GraphStore.bulk_load`: no journal entries,
no commit hooks, no per-statement marks), builds the requested
label/property indexes and uniqueness constraints in one offline pass,
verifies the store invariants, and emits an atomic checkpoint (plus an
empty WAL) that ``Graph.open`` / ``python -m repro.server`` open
directly with a clean recovery report.

Input formats (``--format``):

* ``csv`` -- the :func:`repro.io.csv_io.write_graph_csv` interchange
  shape: nodes as ``id,labels,properties`` (labels ``;``-joined,
  properties a JSON cell) and relationships as
  ``id,type,start,end,properties``;
* ``jsonl`` -- one JSON object per line: nodes
  ``{"id": 0, "labels": [...], "properties": {...}}``, relationships
  ``{"id": 0, "type": "T", "start": 0, "end": 1, "properties": {...}}``.

``--synthetic N`` first materialises a deterministic N-node social-ish
graph as real CSV files (so the run exercises the exact production
path) and then loads them; it backs the CI smoke job and the P8
scaling experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Iterator

from repro.errors import LoadError, PersistenceError
from repro.graph.store import GraphStore, collector_paused
from repro.io.csv_io import write_csv
from repro.persistence.checkpoint import (
    WAL_NAME,
    remove_delta_log,
    write_checkpoint,
)

NodeRow = tuple[int, "tuple[str, ...] | list[str]", dict[str, Any]]
RelRow = tuple[int, str, int, int, dict[str, Any]]


# ----------------------------------------------------------------------
# Streaming readers
# ----------------------------------------------------------------------


#: shared sentinel for rows with no properties -- bulk_load only reads
#: property maps (falsy means "no dict allocated"), so sharing is safe
_NO_PROPERTIES: dict[str, Any] = {}

#: JSONDecoder.raw_decode skips json.loads' wrapper and its two regex
#: whitespace scans -- roughly 2.5x faster on the small property
#: objects a bulk load parses millions of
_RAW_DECODE = json.JSONDecoder().raw_decode

#: property cells repeat heavily in real exports (empty maps, enum-ish
#: payloads); cache parsed results up to this many distinct cells
_PROPS_CACHE_LIMIT = 8192


def _parse_properties(
    cell: str | None, path: Path, line: int
) -> dict[str, Any]:
    if not cell or cell == "{}":
        return _NO_PROPERTIES
    try:
        properties, end = _RAW_DECODE(cell)
        if end != len(cell) and cell[end:].strip():
            raise ValueError("trailing data")
    except ValueError:
        # Slow path: tolerate surrounding whitespace exactly like
        # json.loads, and reuse its error message for real failures.
        try:
            properties = json.loads(cell)
        except ValueError as error:
            raise LoadError(
                f"{path}:{line}: invalid properties JSON"
            ) from error
    if not isinstance(properties, dict):
        raise LoadError(
            f"{path}:{line}: properties must be a JSON object, got "
            f"{type(properties).__name__}"
        )
    return properties


def _parse_int(cell: str | None, column: str, where: str) -> int:
    try:
        return int(cell)  # type: ignore[arg-type]
    except (TypeError, ValueError) as error:
        raise LoadError(f"{where}: non-integer {column} {cell!r}") from error


def _csv_positions(
    path: Path, header: list[str] | None, columns: tuple[str, ...]
) -> list[int]:
    """Cell index of each requested column, validated once."""
    if header is None:
        raise LoadError(f"{path} has no header row")
    positions = []
    for column in columns:
        if column not in header:
            raise LoadError(
                f"{path}: missing column {column!r} in header {header}"
            )
        positions.append(header.index(column))
    return positions


def iter_nodes_csv(path: Path, delimiter: str = ",") -> Iterator[NodeRow]:
    """Stream ``(id, labels, properties)`` from a nodes CSV.

    Yielded label tuples and property dicts may be shared between rows
    whose cells are identical -- consumers must treat them as
    read-only (``GraphStore.bulk_load`` copies properties into pooled
    per-entity dicts).
    """
    import csv

    #: labels cell -> parsed tuple (tiny label vocabulary, hot loop)
    label_cache: dict[str, tuple[str, ...]] = {}
    #: properties cell -> parsed dict, bounded; repeats skip the parse
    props_cache: dict[str, dict[str, Any]] = {
        "": _NO_PROPERTIES, "{}": _NO_PROPERTIES
    }
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            id_at, labels_at, props_at = _csv_positions(
                path, next(reader, None), ("id", "labels", "properties")
            )
            for line, row in enumerate(reader, start=2):
                try:
                    node_id = int(row[id_at])
                    labels_cell = row[labels_at]
                    props_cell = row[props_at]
                except (IndexError, ValueError) as error:
                    raise LoadError(
                        f"{path}:{line}: malformed node row {row!r}"
                    ) from error
                labels = label_cache.get(labels_cell)
                if labels is None:
                    labels = label_cache[labels_cell] = tuple(
                        label for label in labels_cell.split(";") if label
                    )
                properties = props_cache.get(props_cell)
                if properties is None:
                    properties = _parse_properties(props_cell, path, line)
                    if len(props_cache) < _PROPS_CACHE_LIMIT:
                        props_cache[props_cell] = properties
                yield (node_id, labels, properties)
    except OSError as error:
        raise LoadError(f"cannot read CSV file {path}: {error}") from error


def iter_rels_csv(path: Path, delimiter: str = ",") -> Iterator[RelRow]:
    """Stream ``(id, type, start, end, properties)`` from a rels CSV.

    As with :func:`iter_nodes_csv`, yielded property dicts may be
    shared between rows with identical cells: treat them as read-only.
    """
    import csv

    props_cache: dict[str, dict[str, Any]] = {
        "": _NO_PROPERTIES, "{}": _NO_PROPERTIES
    }
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            id_at, type_at, start_at, end_at, props_at = _csv_positions(
                path,
                next(reader, None),
                ("id", "type", "start", "end", "properties"),
            )
            for line, row in enumerate(reader, start=2):
                try:
                    rel_id = int(row[id_at])
                    rel_type = row[type_at]
                    start = int(row[start_at])
                    end = int(row[end_at])
                    props_cell = row[props_at]
                except (IndexError, ValueError) as error:
                    raise LoadError(
                        f"{path}:{line}: malformed relationship row {row!r}"
                    ) from error
                if not rel_type:
                    raise LoadError(
                        f"{path}:{line}: relationship has no type"
                    )
                properties = props_cache.get(props_cell)
                if properties is None:
                    properties = _parse_properties(props_cell, path, line)
                    if len(props_cache) < _PROPS_CACHE_LIMIT:
                        props_cache[props_cell] = properties
                yield (rel_id, rel_type, start, end, properties)
    except OSError as error:
        raise LoadError(f"cannot read CSV file {path}: {error}") from error


def _jsonl_objects(path: Path) -> Iterator[tuple[str, dict]]:
    try:
        with open(path, encoding="utf-8") as handle:
            for line, text in enumerate(handle, start=1):
                text = text.strip()
                if not text:
                    continue
                where = f"{path}:{line}"
                try:
                    record = json.loads(text)
                except ValueError as error:
                    raise LoadError(f"{where}: invalid JSON") from error
                if not isinstance(record, dict):
                    raise LoadError(f"{where}: expected a JSON object")
                yield where, record
    except OSError as error:
        raise LoadError(f"cannot read JSONL file {path}: {error}") from error


def iter_nodes_jsonl(path: Path) -> Iterator[NodeRow]:
    """Stream ``(id, labels, properties)`` from a nodes JSONL file."""
    for where, record in _jsonl_objects(path):
        if "id" not in record:
            raise LoadError(f"{where}: node record has no id")
        yield (
            _parse_int(record["id"], "id", where),
            list(record.get("labels") or ()),
            dict(record.get("properties") or {}),
        )


def iter_rels_jsonl(path: Path) -> Iterator[RelRow]:
    """Stream ``(id, type, start, end, properties)`` from a JSONL file."""
    for where, record in _jsonl_objects(path):
        for column in ("id", "type", "start", "end"):
            if column not in record:
                raise LoadError(
                    f"{where}: relationship record has no {column}"
                )
        yield (
            _parse_int(record["id"], "id", where),
            str(record["type"]),
            _parse_int(record["start"], "start", where),
            _parse_int(record["end"], "end", where),
            dict(record.get("properties") or {}),
        )


# ----------------------------------------------------------------------
# Synthetic data (CI smoke, scaling experiments)
# ----------------------------------------------------------------------


def write_synthetic_csv(
    directory: Path | str,
    node_count: int,
    *,
    rels_per_node: int = 2,
    seed: int = 0,
) -> tuple[Path, Path]:
    """Write a deterministic synthetic graph as a CSV pair.

    A social-ish shape: every node is ``:Person {id, name}``, every
    tenth also ``:Admin``; each node gets ``rels_per_node`` outgoing
    ``:KNOWS`` relationships to pseudo-random earlier nodes (so the
    file can be streamed nodes-first) plus a ``:FOLLOWS`` ring edge.
    Returns ``(nodes_path, rels_path)``.
    """
    import random

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nodes_path = directory / "nodes.csv"
    rels_path = directory / "rels.csv"
    rng = random.Random(seed)

    def node_rows():
        for node_id in range(node_count):
            labels = "Person;Admin" if node_id % 10 == 0 else "Person"
            properties = json.dumps(
                {"id": node_id, "name": f"p{node_id}"}, sort_keys=True
            )
            yield node_id, labels, properties

    def rel_rows():
        rel_id = 0
        for node_id in range(node_count):
            yield (
                rel_id,
                "FOLLOWS",
                node_id,
                (node_id + 1) % node_count,
                "{}",
            )
            rel_id += 1
            for __ in range(rels_per_node - 1):
                target = rng.randrange(node_count)
                yield (
                    rel_id,
                    "KNOWS",
                    node_id,
                    target,
                    json.dumps({"w": rng.randrange(100)}),
                )
                rel_id += 1

    write_csv(nodes_path, ("id", "labels", "properties"), node_rows())
    write_csv(
        rels_path, ("id", "type", "start", "end", "properties"), rel_rows()
    )
    return nodes_path, rels_path


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def load_store(
    nodes: Iterator[NodeRow] | None,
    relationships: Iterator[RelRow] | None,
    *,
    indexes: list[tuple[str, str]] = (),
    constraints: list[tuple[str, str]] = (),
) -> GraphStore:
    """Stream rows into a fresh columnar store; build indexes after.

    The cyclic garbage collector is paused for the duration
    (:func:`~repro.graph.store.collector_paused`): at the million-node
    scale its sweeps cost ~10-15% of the load.
    """
    store = GraphStore()
    with collector_paused():
        store.bulk_load(nodes or iter(()), relationships or iter(()))
        for label, key in indexes:
            store.create_index(label, key)
        for label, key in constraints:
            store.create_unique_constraint(label, key)
    return store


def emit_checkpoint(directory: Path | str, store: GraphStore) -> Path:
    """Write the loaded store as base checkpoint + empty WAL.

    The pair is exactly what :class:`PersistenceManager` leaves behind
    after a full checkpoint, so ``Graph.open(directory)`` recovers
    with zero replayed records and attaches its WAL writer on top.
    Whatever the directory held before is superseded, and goes first:
    the records of an old WAL or delta log would otherwise apply over
    the new base, and a crash before the base is renamed into place
    leaves the old base alone, an older but consistent graph.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    remove_delta_log(directory)
    open(directory / WAL_NAME, "wb").close()
    return write_checkpoint(directory, store)


def _parse_schema_pairs(
    pairs: list[str], option: str
) -> list[tuple[str, str]]:
    parsed = []
    for pair in pairs:
        label, sep, key = pair.partition(":")
        if not sep or not label or not key:
            raise LoadError(
                f"{option} expects LABEL:KEY, got {pair!r}"
            )
        parsed.append((label, key))
    return parsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bulkload",
        description="Bulk-load CSV/JSONL into a checkpointed graph, "
        "bypassing the statement pipeline.",
    )
    parser.add_argument("--nodes", help="nodes file (CSV or JSONL)")
    parser.add_argument("--rels", help="relationships file (CSV or JSONL)")
    parser.add_argument(
        "--out",
        required=True,
        help="persistence directory to write (checkpoint.json + wal.log)",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "jsonl"),
        default="csv",
        help="input format (default: csv)",
    )
    parser.add_argument(
        "--delimiter", default=",", help="CSV delimiter (default: ,)"
    )
    parser.add_argument(
        "--index",
        action="append",
        default=[],
        metavar="LABEL:KEY",
        help="build a property index (repeatable)",
    )
    parser.add_argument(
        "--constraint",
        action="append",
        default=[],
        metavar="LABEL:KEY",
        help="build a uniqueness constraint (repeatable)",
    )
    parser.add_argument(
        "--synthetic",
        type=int,
        metavar="N",
        help="generate an N-node synthetic CSV pair into OUT first, "
        "then load it (ignores --nodes/--rels)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the store-invariant verification pass",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the load report as JSON",
    )
    args = parser.parse_args(argv)

    try:
        indexes = _parse_schema_pairs(args.index, "--index")
        constraints = _parse_schema_pairs(args.constraint, "--constraint")

        if args.synthetic is not None:
            nodes_path, rels_path = write_synthetic_csv(
                args.out, args.synthetic
            )
            args.nodes = str(nodes_path)
            args.rels = str(rels_path)
            args.format = "csv"
        if args.nodes is None and args.rels is None:
            parser.error("nothing to load: pass --nodes/--rels or --synthetic")

        started = time.perf_counter()
        if args.format == "csv":
            nodes = (
                iter_nodes_csv(Path(args.nodes), args.delimiter)
                if args.nodes
                else None
            )
            rels = (
                iter_rels_csv(Path(args.rels), args.delimiter)
                if args.rels
                else None
            )
        else:
            nodes = iter_nodes_jsonl(Path(args.nodes)) if args.nodes else None
            rels = iter_rels_jsonl(Path(args.rels)) if args.rels else None
        store = load_store(
            nodes, rels, indexes=indexes, constraints=constraints
        )
        load_seconds = time.perf_counter() - started

        verify_started = time.perf_counter()
        if not args.no_verify:
            from repro.testing.invariants import check_invariants

            check_invariants(store)
        verify_seconds = time.perf_counter() - verify_started

        checkpoint_started = time.perf_counter()
        emit_checkpoint(args.out, store)
        checkpoint_seconds = time.perf_counter() - checkpoint_started
    except (LoadError, PersistenceError) as error:
        print(f"bulk load failed: {error}", file=sys.stderr)
        return 1

    entities = store.node_count() + store.relationship_count()
    report = {
        "nodes": store.node_count(),
        "relationships": store.relationship_count(),
        "indexes": len(indexes),
        "constraints": len(constraints),
        "load_seconds": round(load_seconds, 3),
        "entities_per_second": round(entities / max(load_seconds, 1e-9)),
        "verify_seconds": round(verify_seconds, 3),
        "checkpoint_seconds": round(checkpoint_seconds, 3),
        "verified": not args.no_verify,
        "out": str(args.out),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            f"loaded {report['nodes']} nodes / "
            f"{report['relationships']} relationships in "
            f"{report['load_seconds']}s "
            f"({report['entities_per_second']} entities/s), "
            f"verify in {report['verify_seconds']}s, "
            f"checkpoint in {report['checkpoint_seconds']}s -> {args.out}"
        )
        if not args.no_verify:
            print("invariants: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
