"""CSV import/export.

The paper's user survey singles out one dominant MERGE workload:
populating a graph from relational/CSV exports ("it is a common
practice to input nodes first and relationships later", Example 3).
This module supports that workflow twice over:

* :func:`read_csv_rows` backs the ``LOAD CSV`` clause (values stay
  strings, empty fields become null -- the nulls of Example 5 arise
  naturally this way);
* :func:`read_driving_table` loads a CSV directly as a
  :class:`~repro.runtime.table.DrivingTable` with optional numeric
  coercion, for feeding pre-populated tables into update clauses
  exactly like the paper's examples do.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable

from repro.errors import LoadError
from repro.runtime.table import DrivingTable


def read_csv_rows(
    path: str | Path,
    *,
    with_headers: bool = False,
    delimiter: str = ",",
) -> list:
    """Read a CSV file as LOAD CSV does.

    With headers each row becomes a map (missing/empty fields are
    null); without headers each row is a list of strings.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            rows = list(reader)
    except OSError as error:
        raise LoadError(f"cannot read CSV file {path}: {error}") from error
    if not with_headers:
        return [list(row) for row in rows]
    if not rows:
        raise LoadError(f"CSV file {path} has no header row")
    header = rows[0]
    records = []
    for row in rows[1:]:
        record = {}
        for index, key in enumerate(header):
            value = row[index] if index < len(row) else ""
            record[key] = value if value != "" else None
        records.append(record)
    return records


def _coerce(value: str | None) -> Any:
    """Best-effort typed view of a CSV cell: int, float, bool or string."""
    if value is None:
        return None
    text = value.strip()
    if text == "":
        return None
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("null", "nan"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return value


def read_driving_table(
    path: str | Path,
    *,
    delimiter: str = ",",
    coerce: bool = True,
) -> DrivingTable:
    """Load a CSV (with a header row) as a driving table.

    With ``coerce=True`` numeric-looking cells become numbers and empty
    cells become null, matching how the paper's example tables mix ids
    and null values.
    """
    records = read_csv_rows(path, with_headers=True, delimiter=delimiter)
    if coerce:
        records = [
            {key: _coerce(value) for key, value in record.items()}
            for record in records
        ]
    if not records:
        return DrivingTable()
    return DrivingTable(columns=tuple(records[0]), records=records)


def write_graph_csv(
    store,
    nodes_path: str | Path,
    rels_path: str | Path,
    *,
    delimiter: str = ",",
) -> None:
    """Export a whole graph as the nodes-file + relationships-file pair.

    This is the survey's relational interchange shape (Example 3:
    "input nodes first and relationships later").  Labels are
    ``;``-joined; property maps are JSON cells, so heterogeneous and
    non-string values survive the round-trip.  Rows stream off the
    store's record iterators; entity ids are preserved, making the
    export replayable into an identical store via
    :func:`read_graph_csv` or ``python -m repro.bulkload``.
    """
    import json

    write_csv(
        nodes_path,
        ("id", "labels", "properties"),
        (
            (
                node_id,
                ";".join(labels),
                json.dumps(properties, sort_keys=True),
            )
            for node_id, labels, properties in store.iter_node_records()
        ),
        delimiter=delimiter,
    )
    write_csv(
        rels_path,
        ("id", "type", "start", "end", "properties"),
        (
            (*row[:4], json.dumps(row[4], sort_keys=True))
            for row in store.iter_rel_records()
        ),
        delimiter=delimiter,
    )


def read_graph_csv(
    nodes_path: str | Path,
    rels_path: str | Path,
    *,
    delimiter: str = ",",
):
    """Import a nodes-file + relationships-file pair as a new store.

    The inverse of :func:`write_graph_csv`, ids included: the same
    readers and columnar load as ``python -m repro.bulkload``.  Raises
    :class:`LoadError` on malformed rows (missing columns, bad ids,
    invalid property JSON, relationships naming unknown nodes).
    """
    from repro import bulkload

    return bulkload.load_store(
        bulkload.iter_nodes_csv(Path(nodes_path), delimiter),
        bulkload.iter_rels_csv(Path(rels_path), delimiter),
    )


def write_csv(
    path: str | Path,
    columns: Iterable[str],
    rows: Iterable[Iterable[Any]],
    *,
    delimiter: str = ",",
) -> None:
    """Write rows to a CSV file with a header (nulls as empty cells)."""
    columns = list(columns)
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(columns)
            for row in rows:
                writer.writerow(
                    ["" if value is None else value for value in row]
                )
    except OSError as error:
        raise LoadError(f"cannot write CSV file {path}: {error}") from error
