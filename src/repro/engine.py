"""The query engine: parse, execute, guarantee statement atomicity.

:class:`CypherEngine` executes whole statements against a
:class:`~repro.graph.store.GraphStore` under a chosen
:class:`~repro.dialect.Dialect`.  Responsibilities:

* parsing (with a small AST cache keyed by source and dialect);
* running UNION branches and combining their outputs (Section 8.2:
  updates are side effects applied left to right; output tables are
  unioned, with ``UNION`` deduplicating and ``UNION ALL`` not);
* statement-level atomicity: every statement runs inside a journal
  bracket, and any error rolls the graph back to the statement start;
* the legacy dialect's *commit-time* well-formedness check: a statement
  may pass through dangling states (Section 4.2) but must not leave one
  behind -- if it does, the statement fails and rolls back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional

from repro.caching import LRUCache
from repro.dialect import Dialect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.profile import QueryProfile
from repro.errors import CypherError, UpdateError
from repro.graph.store import GraphStore
from repro.parser import ast
from repro.parser.parser import parse
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.pipeline import execute_clauses
from repro.runtime.table import DrivingTable


@dataclass(frozen=True)
class UpdateCounters:
    """What a statement changed, derived from the undo journal."""

    nodes_created: int = 0
    nodes_deleted: int = 0
    relationships_created: int = 0
    relationships_deleted: int = 0
    properties_set: int = 0
    labels_added: int = 0
    labels_removed: int = 0

    @property
    def contains_updates(self) -> bool:
        """True if anything changed."""
        return any(
            (
                self.nodes_created,
                self.nodes_deleted,
                self.relationships_created,
                self.relationships_deleted,
                self.properties_set,
                self.labels_added,
                self.labels_removed,
            )
        )


#: redo-op kind (the store's public change vocabulary) -> counter field
_COUNTER_FIELDS = {
    "create_node": "nodes_created",
    "delete_node": "nodes_deleted",
    "create_rel": "relationships_created",
    "delete_rel": "relationships_deleted",
    "set_node_prop": "properties_set",
    "set_rel_prop": "properties_set",
    "add_label": "labels_added",
    "remove_label": "labels_removed",
}


@dataclass
class QueryResult:
    """Output of one statement: the result table plus update counters."""

    table: DrivingTable
    counters: UpdateCounters = field(default_factory=UpdateCounters)
    #: per-clause runtime profile; set only when executed in PROFILE mode
    profile: Optional["QueryProfile"] = None

    @property
    def columns(self) -> tuple[str, ...]:
        """Column names of the output table."""
        return self.table.columns

    @property
    def records(self) -> list[dict]:
        """The output records as plain dicts."""
        return self.table.to_dicts()

    def values(self, column: str) -> list[Any]:
        """All values of one output column."""
        return self.table.column_values(column)

    def single(self) -> dict:
        """The only record (raises unless exactly one)."""
        records = self.table.records
        if len(records) != 1:
            raise CypherError(
                f"expected exactly one record, got {len(records)}"
            )
        return dict(records[0])

    def pretty(self, max_rows: int = 20) -> str:
        """Fixed-width rendering of the result table."""
        return self.table.pretty(max_rows)

    def to_json(self) -> str:
        """JSON rendering; entities become their property maps."""
        import json

        return json.dumps(
            [_jsonable(record) for record in self.table.to_dicts()],
            sort_keys=True,
        )

    def to_csv(self) -> str:
        """CSV rendering with a header row (nulls as empty cells)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for record in self.table.to_dicts():
            writer.writerow(
                [
                    "" if record[column] is None else _jsonable(record[column])
                    for column in self.columns
                ]
            )
        return buffer.getvalue()

    def __iter__(self) -> Iterator[dict]:
        return iter(self.table.to_dicts())

    def __len__(self) -> int:
        return len(self.table)


def _jsonable(value):
    """Plain-data view of a result value (entities -> property maps)."""
    from repro.graph.model import Node, Path, Relationship

    if isinstance(value, (Node, Relationship)):
        return dict(value.properties)
    if isinstance(value, Path):
        return {
            "nodes": [dict(n.properties) for n in value.nodes],
            "relationships": [dict(r.properties) for r in value.relationships],
        }
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


#: Clause types that never mutate the graph.  ``LOAD CSV`` reads the
#: filesystem but not the store, so it is read-only *for isolation
#: purposes* (the server gates it separately as a security limit).
_READ_ONLY_CLAUSES = (
    ast.MatchClause,
    ast.UnwindClause,
    ast.WithClause,
    ast.ReturnClause,
    ast.LoadCsvClause,
)


def statement_is_read_only(
    statement: ast.Statement | ast.SchemaStatement,
) -> bool:
    """True when *statement* cannot mutate the graph.

    Conservative and purely syntactic: any update clause (CREATE, SET,
    REMOVE, DELETE, MERGE, FOREACH) in any UNION branch, or a schema
    command, makes the statement a write.  The session layer uses this
    to decide whether a statement may run against a committed snapshot
    while another session holds an open write transaction, so a false
    "read-only" would break isolation -- unknown clause types count as
    writes.
    """
    if isinstance(statement, ast.SchemaStatement):
        return False

    def query_is_read_only(query: ast.Query) -> bool:
        if isinstance(query, ast.UnionQuery):
            return query_is_read_only(query.left) and query_is_read_only(
                query.right
            )
        return all(
            isinstance(clause, _READ_ONLY_CLAUSES)
            for clause in query.clauses
        )

    return query_is_read_only(statement.query)


class CypherEngine:
    """Executes Cypher statements against a graph store."""

    def __init__(
        self,
        store: GraphStore | None = None,
        dialect: Dialect | str = Dialect.REVISED,
        *,
        extended_merge: bool = False,
        match_mode: MatchMode | str = MatchMode.TRAIL,
        use_planner: bool = False,
        workers: int = 1,
        parallel: str = "thread",
        use_rewrites: bool | None = None,
    ):
        self.store = store if store is not None else GraphStore()
        self.dialect = Dialect.parse(dialect)
        self.extended_merge = extended_merge
        self.match_mode = (
            match_mode
            if isinstance(match_mode, MatchMode)
            else MatchMode(match_mode)
        )
        self.use_planner = use_planner
        #: Morsel workers for read-only segments (1 = serial executor);
        #: the effective count is further capped per scope by
        #: repro.runtime.parallel.worker_limit (the server's per-request
        #: cap).
        self.workers = max(1, int(workers))
        if parallel not in ("thread", "process"):
            raise ValueError(
                f"parallel must be 'thread' or 'process', got {parallel!r}"
            )
        self.parallel = parallel
        #: Plan rewrites (predicate pushdown + hoisting).  None -- the
        #: default -- follows use_planner, so optimised sessions get
        #: both cost-based planning and rewrites; pass True/False to
        #: decouple them.
        self.use_rewrites = (
            use_planner if use_rewrites is None else use_rewrites
        )
        self._ast_cache: LRUCache = LRUCache(capacity=1024)

    # ------------------------------------------------------------------

    def parse(self, source: str) -> ast.Statement:
        """Parse *source* under the engine's dialect (LRU-cached)."""
        key = (source, self.dialect, self.extended_merge)
        statement = self._ast_cache.get(key)
        if statement is None:
            statement = parse(
                source, self.dialect, extended_merge=self.extended_merge
            )
            self._ast_cache.put(key, statement)
        return statement

    def ast_cache_info(self) -> dict[str, int]:
        """Statement-cache counters (hits, misses, evictions, size)."""
        return self._ast_cache.info()

    def execute(
        self,
        source: str | ast.Statement,
        parameters: Mapping[str, Any] | None = None,
        table: DrivingTable | None = None,
        *,
        profile: bool = False,
    ) -> QueryResult:
        """Execute one statement atomically.

        *table* optionally replaces the initial unit table -- this is
        how the paper's examples feed "already populated" driving
        tables into update clauses.  On any error the graph is rolled
        back to its state before the statement.

        With ``profile=True`` the statement runs with db-hit counters
        installed on the store and a per-clause
        :class:`~repro.runtime.profile.QueryProfile` is attached to the
        result (``result.profile``).
        """
        statement = (
            source
            if isinstance(source, (ast.Statement, ast.SchemaStatement))
            else self.parse(source)
        )
        query_profile = (
            self._new_profile(source, statement) if profile else None
        )
        if isinstance(statement, ast.SchemaStatement):
            return self._execute_schema(statement, query_profile)
        initial = table.copy() if table is not None else DrivingTable.unit()
        # Eager scope checking: typos fail even on empty driving tables.
        from repro.runtime.scoping import check_statement

        check_statement(statement, frozenset(initial.columns))
        supplied = dict(parameters or {})
        executed = statement
        if self.use_rewrites:
            from repro.runtime.rewrite import rewrite_statement

            # Rewrites run after scope checking (they assume a valid
            # statement) and never change semantics -- see the module
            # docstring for the equivalence argument.
            executed = rewrite_statement(
                statement,
                initial_columns=tuple(initial.columns),
                parameters=frozenset(supplied),
            )
        ctx = EvalContext(
            store=self.store,
            parameters=supplied,
            match_mode=self.match_mode,
            use_planner=self.use_planner,
            preserve_match_order=self.dialect is Dialect.CYPHER9,
            profile=query_profile,
            workers=self.workers,
            parallel_executor=self.parallel,
        )
        mark = self.store.mark()
        compiler_before: dict[str, int] | None = None
        if query_profile is not None:
            self.store.install_counters(query_profile.counters)
            from repro.runtime.compiler import STATS as compiler_stats

            compiler_before = compiler_stats.snapshot()
        started = time.perf_counter()
        try:
            output = self._run_query(ctx, executed.query, initial)
            if self.dialect is Dialect.CYPHER9:
                self._check_commit_time_well_formedness()
        except Exception:
            self.store.rollback_to(mark)
            raise
        finally:
            if query_profile is not None:
                query_profile.time_ms = (
                    time.perf_counter() - started
                ) * 1000
                from repro.runtime.compiler import STATS as compiler_stats

                query_profile.compiler = {
                    name: value - compiler_before[name]
                    for name, value in compiler_stats.snapshot().items()
                }
                self.store.reset_counters()
        counters = self._counters_since(mark)
        # Commit only after the counters were derived: it cuts the
        # journal slice the counters read.
        self.store.commit_statement(mark)
        result = QueryResult(
            table=output, counters=counters, profile=query_profile
        )
        if query_profile is not None:
            query_profile.result = result
        return result

    run = execute  # convenient alias

    def profile(
        self,
        source: str | ast.Statement,
        parameters: Mapping[str, Any] | None = None,
        table: DrivingTable | None = None,
    ) -> QueryResult:
        """Execute with profiling on; the result carries ``.profile``."""
        return self.execute(source, parameters, table=table, profile=True)

    def _new_profile(
        self, source: str | ast.Statement, statement: ast.Statement
    ) -> "QueryProfile":
        from repro.parser.unparse import unparse
        from repro.runtime.profile import QueryProfile

        text = source if isinstance(source, str) else unparse(statement)
        return QueryProfile(
            text, self.dialect.value, planner=self.use_planner
        )

    def _execute_schema(
        self,
        statement: ast.SchemaStatement,
        query_profile: "QueryProfile | None" = None,
    ) -> QueryResult:
        """Apply a CREATE/DROP INDEX/CONSTRAINT command."""
        label, key = statement.label, statement.key
        entry = None
        if query_profile is not None:
            self.store.install_counters(query_profile.counters)
            entry = query_profile.begin(
                f"SchemaCommand {statement.kind} :{label}({key})", 0
            )
        started = time.perf_counter()
        try:
            if statement.kind == "create_index":
                self.store.create_index(label, key)
            elif statement.kind == "drop_index":
                self.store.drop_index(label, key)
            elif statement.kind == "create_unique_constraint":
                self.store.create_unique_constraint(label, key)
            elif statement.kind == "drop_unique_constraint":
                self.store.drop_unique_constraint(label, key)
            else:  # pragma: no cover - parser guarantees the kinds
                raise CypherError(f"unknown schema command {statement.kind}")
        finally:
            if query_profile is not None:
                query_profile.end(entry, 0)
                query_profile.time_ms = (
                    time.perf_counter() - started
                ) * 1000
                self.store.reset_counters()
        result = QueryResult(table=DrivingTable(), profile=query_profile)
        if query_profile is not None:
            query_profile.result = result
        return result

    def explain(self, source: str | ast.Statement) -> str:
        """Describe how a statement would execute (no execution)."""
        from repro.runtime.explain import explain_statement

        statement = (
            source
            if isinstance(source, (ast.Statement, ast.SchemaStatement))
            else self.parse(source)
        )
        if isinstance(statement, ast.SchemaStatement):
            return (
                f"schema command: {statement.kind} on "
                f":{statement.label}({statement.key})"
            )
        ctx = EvalContext(
            store=self.store,
            match_mode=self.match_mode,
            use_planner=self.use_planner,
        )
        return explain_statement(ctx, statement, self.dialect)

    def plan(self, source: str | ast.Statement) -> str:
        """Describe the match planner's choices for a statement.

        Like :meth:`explain` but with the planner forced on, so anchor
        and ordering decisions are shown even for an engine constructed
        without ``use_planner=True``.  No execution happens.
        """
        from repro.runtime.explain import explain_statement

        statement = (
            source
            if isinstance(source, (ast.Statement, ast.SchemaStatement))
            else self.parse(source)
        )
        if isinstance(statement, ast.SchemaStatement):
            return (
                f"schema command: {statement.kind} on "
                f":{statement.label}({statement.key})"
            )
        ctx = EvalContext(
            store=self.store,
            match_mode=self.match_mode,
            use_planner=True,
        )
        return explain_statement(ctx, statement, self.dialect)

    # ------------------------------------------------------------------

    def _run_query(
        self,
        ctx: EvalContext,
        query: ast.Query,
        initial: DrivingTable,
    ) -> DrivingTable:
        if isinstance(query, ast.UnionQuery):
            left = self._run_query(ctx, query.left, initial.copy())
            right = self._run_single(ctx, query.right, initial.copy())
            combined = left.concat(right)
            return combined if query.all else combined.distinct()
        return self._run_single(ctx, query, initial)

    def _run_single(
        self,
        ctx: EvalContext,
        query: ast.SingleQuery,
        initial: DrivingTable,
    ) -> DrivingTable:
        final = execute_clauses(ctx, query.clauses, initial, self.dialect)
        if query.return_clause is None:
            # Statements without RETURN output the empty table.
            return DrivingTable()
        return final

    def _check_commit_time_well_formedness(self) -> None:
        """Reject statements that leave dangling relationships behind.

        The legacy dialect tolerates dangling relationships *during* a
        statement (Section 4.2) but, like Neo4j, validates the graph at
        the statement boundary.
        """
        for rel in self.store.relationships():
            if rel.start.is_deleted or rel.end.is_deleted:
                raise UpdateError(
                    f"statement would leave dangling relationship "
                    f"{rel.id} ({rel.type}); delete it in the same statement"
                )

    def _counters_since(self, mark: int) -> UpdateCounters:
        counts: dict[str, int] = {}
        for kind, count in self.store.change_counts(mark).items():
            field_name = _COUNTER_FIELDS[kind]
            counts[field_name] = counts.get(field_name, 0) + count
        return UpdateCounters(**counts)
