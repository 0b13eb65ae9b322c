"""Driving tables.

"In the context of Cypher, tables are bags, or multisets, of consistent
records, i.e. of key-value maps with the same set of keys" (Section 2).
A :class:`DrivingTable` is exactly that: an ordered list of records
(dicts) sharing one column set.  The *order* of the list is an
implementation detail -- the language treats tables as unordered bags --
and that gap is precisely what the paper's nondeterminism results
exploit: the legacy executor processes records in list order, so
:meth:`reversed` / :meth:`shuffled` let experiments demonstrate
order-dependent outcomes (Example 3), while the revised semantics is
insensitive to it.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import CypherError
from repro.graph.comparison import value_signature
from repro.graph.values import grouping_key

Record = dict

_SENTINEL = object()


class DrivingTable:
    """A bag of consistent records with a fixed column set."""

    __slots__ = ("_columns", "_column_set", "_records")

    def __init__(
        self,
        columns: Iterable[str] = (),
        records: Iterable[Mapping[str, Any]] | None = None,
    ):
        self._columns = tuple(columns)
        self._column_set = frozenset(self._columns)
        if len(self._column_set) != len(self._columns):
            raise CypherError("duplicate column names in driving table")
        self._records: list[Record] = []
        check = self._check
        append = self._records.append
        for record in records or ():
            append(check(record, self._column_set))

    def _check(
        self, record: Mapping[str, Any], column_set: frozenset[str]
    ) -> Record:
        if set(record) != column_set:
            raise CypherError(
                f"inconsistent record: expected columns {sorted(column_set)}, "
                f"got {sorted(record)}"
            )
        return dict(record)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def unit(cls) -> "DrivingTable":
        """The table containing the single empty record ().

        Query evaluation starts from this table (Section 8.1).
        """
        table = cls()
        table._records.append({})
        return table

    @classmethod
    def empty(cls, columns: Iterable[str] = ()) -> "DrivingTable":
        """A table with the given columns and no records."""
        return cls(columns=columns)

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, Any]]
    ) -> "DrivingTable":
        """Build a table from dicts, inferring columns from the first."""
        records = list(records)
        if not records:
            return cls()
        return cls(columns=tuple(records[0]), records=records)

    @classmethod
    def from_trusted(
        cls, columns: Iterable[str], records: list[Record]
    ) -> "DrivingTable":
        """Adopt *records* without validation or copying.

        Engine-internal fast path: callers guarantee every element is a
        ``dict`` whose key set equals *columns*.  The list is adopted,
        not copied, so the caller must hand over ownership.
        """
        table = cls.__new__(cls)
        table._columns = tuple(columns)
        table._column_set = frozenset(table._columns)
        table._records = records
        return table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        """The column names."""
        return self._columns

    @property
    def records(self) -> list[Record]:
        """The underlying record list (do not mutate)."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same columns, same records as a multiset."""
        if not isinstance(other, DrivingTable):
            return NotImplemented
        if self._column_set != other._column_set:
            return False
        return sorted(
            (self._record_key(r) for r in self._records)
        ) == sorted(other._record_key(r) for r in other._records)

    def __hash__(self) -> int:  # pragma: no cover - tables are not hashed
        raise TypeError("DrivingTable is unhashable")

    def _record_key(self, record: Record) -> tuple:
        # value_signature is total (never raises), unlike grouping_key,
        # so tables holding exotic values still compare.
        return tuple(
            value_signature(record[column])
            for column in sorted(self._columns)
        )

    # ------------------------------------------------------------------
    # Bag operations
    # ------------------------------------------------------------------

    def add(self, record: Mapping[str, Any]) -> None:
        """Append one record (must match the column set)."""
        if not self._columns and not self._records and record:
            self._columns = tuple(record)
            self._column_set = frozenset(self._columns)
        self._records.append(self._check(record, self._column_set))

    def extend(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Append many records (validation hoisted out of the loop)."""
        records = iter(records)
        first = next(records, _SENTINEL)
        if first is not _SENTINEL:
            self.add(first)
        column_set = self._column_set
        check = self._check
        append = self._records.append
        for record in records:
            append(check(record, column_set))

    def concat(self, other: "DrivingTable") -> "DrivingTable":
        """Bag union (duplicates add up), requiring equal column sets."""
        if set(self._columns) != set(other._columns):
            raise CypherError(
                "UNION requires the same columns on both sides: "
                f"{sorted(self._columns)} vs {sorted(other._columns)}"
            )
        result = DrivingTable(self._columns)
        result._records = [dict(r) for r in self._records]
        for record in other._records:
            result._records.append(
                {column: record[column] for column in self._columns}
                if self._columns
                else dict(record)
            )
        return result

    def distinct(self) -> "DrivingTable":
        """Set-semantics copy: one record per equivalence class."""
        result = DrivingTable(self._columns)
        seen: set = set()
        for record in self._records:
            key = tuple(
                grouping_key(record[column]) for column in self._columns
            )
            if key not in seen:
                seen.add(key)
                result._records.append(dict(record))
        return result

    def map(self, function: Callable[[Record], Record]) -> "DrivingTable":
        """A new table from applying *function* to each record."""
        return DrivingTable.from_records(
            [function(record) for record in self._records]
        )

    def filter(self, predicate: Callable[[Record], bool]) -> "DrivingTable":
        """A new table keeping records where *predicate* is True."""
        result = DrivingTable(self._columns)
        result._records = [dict(r) for r in self._records if predicate(r)]
        return result

    def copy(self) -> "DrivingTable":
        """A shallow copy (records copied, values shared)."""
        result = DrivingTable(self._columns)
        result._records = [dict(r) for r in self._records]
        return result

    # ------------------------------------------------------------------
    # Record-order controls (nondeterminism experiments)
    # ------------------------------------------------------------------

    def reversed(self) -> "DrivingTable":
        """Copy with records in reverse order.

        Example 3 of the paper contrasts top-down vs bottom-up
        processing of the same bag; this is "bottom-up".
        """
        result = DrivingTable(self._columns)
        result._records = [dict(r) for r in reversed(self._records)]
        return result

    def shuffled(self, seed: int) -> "DrivingTable":
        """Copy with records shuffled by a seeded RNG."""
        result = self.copy()
        random.Random(seed).shuffle(result._records)
        return result

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Plain list-of-dicts copy of the records."""
        return [dict(record) for record in self._records]

    def column_values(self, column: str) -> list[Any]:
        """All values in one column, in record order."""
        return [record[column] for record in self._records]

    def pretty(self, max_rows: int = 20) -> str:
        """Fixed-width text rendering (for examples and the harness)."""
        columns = self._columns or ("(no columns)",)
        rows = [
            tuple(
                _render(record.get(column)) for column in self._columns
            ) or ("()",)
            for record in self._records[:max_rows]
        ]
        widths = [
            max(len(str(column)), *(len(row[i]) for row in rows), 1)
            if rows
            else len(str(column))
            for i, column in enumerate(columns)
        ]
        header = " | ".join(
            str(column).ljust(width) for column, width in zip(columns, widths)
        )
        separator = "-+-".join("-" * width for width in widths)
        lines = [header, separator]
        for row in rows:
            lines.append(
                " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
            )
        if len(self._records) > max_rows:
            lines.append(f"... ({len(self._records) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DrivingTable(columns={list(self._columns)}, "
            f"{len(self._records)} records)"
        )


def _render(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)
