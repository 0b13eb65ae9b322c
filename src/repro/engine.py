"""The query engine: prepare, execute, guarantee statement atomicity.

:class:`CypherEngine` executes whole statements against a
:class:`~repro.graph.store.GraphStore` under a chosen
:class:`~repro.dialect.Dialect`.  Responsibilities:

* statement preparation: :meth:`CypherEngine.prepare` turns a text into
  one :class:`Prepared`, kept in the engine's one bounded statement
  cache; ``run``, ``profile``, ``explain``, ``plan``, the server's
  sessions and the maintained views all execute what it produced;
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
from repro.runtime.compiler import STATS as COMPILER_STATS
from repro.runtime.compiler import Compiler, compile_expression
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.pipeline import execute_clauses
from repro.runtime.rewrite import rewrite_statement
from repro.runtime.scoping import check_statement
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


class Prepared:
    """One statement, prepared once: a pure function of ``(text,
    dialect, extended_merge)``.

    What depends on how a run starts (initial columns, names of the
    supplied parameters) is memoized by :meth:`executable`.  Closures
    live on the statement's own nodes
    (:attr:`repro.parser.ast.Expression._compiled`), so evicting a
    ``Prepared`` from the engine's statement cache frees AST, rewrites
    and closures together.  Facts about the *store* (label masks, type
    ids, access paths) are resolved per clause execution, not here.
    """

    __slots__ = (
        "statement",
        "dialect",
        "read_only",
        "uses_load_csv",
        "compile",
        "_executables",
    )

    #: :meth:`executable` entries kept before the memo starts over (a
    #: caller varying the parameter *names* of one text must not grow it)
    MEMO_LIMIT = 16

    def __init__(
        self,
        statement: ast.Statement | ast.SchemaStatement,
        dialect: Dialect,
    ):
        self.statement = statement
        self.dialect = dialect
        schema = isinstance(statement, ast.SchemaStatement)
        clauses = [
            clause
            for branch in (() if schema else statement.branches())
            for clause in branch.clauses
        ]
        #: True when the statement cannot mutate the graph.
        #: Conservative and purely syntactic: any update clause in any
        #: UNION branch, or a schema command, makes it a write.  The
        #: session layer runs read-only statements against a committed
        #: snapshot while another session holds an open write
        #: transaction, so a false "read-only" would break isolation --
        #: unknown clause types count as writes.
        self.read_only = not schema and all(
            isinstance(clause, _READ_ONLY_CLAUSES) for clause in clauses
        )
        self.uses_load_csv = any(
            isinstance(clause, ast.LoadCsvClause) for clause in clauses
        )
        #: the closure-maker of this statement's clauses (``ctx.compile``)
        self.compile: Compiler = compile_expression
        self._executables: dict[tuple, ast.Statement] = {}

    def executable(
        self,
        columns: tuple[str, ...],
        parameters: Mapping[str, Any],
        rewrite: bool,
    ) -> ast.Statement:
        """The statement as it runs from a table of *columns*.

        Scope-checked eagerly (typos fail even on empty driving tables)
        and, with *rewrite*, pushed down and hoisted -- which assumes a
        valid statement and depends on which *parameters* are supplied.
        Once per ``(columns, parameter names)``; a scope error is
        raised on every call.
        """
        key = (columns, frozenset(parameters) if rewrite else None)
        statement = self._executables.get(key)
        if statement is None:
            statement = self.statement
            check_statement(statement, frozenset(columns))
            if rewrite:
                statement = rewrite_statement(
                    statement, initial_columns=columns, parameters=key[1]
                )
            if len(self._executables) >= self.MEMO_LIMIT:
                self._executables.clear()
            self._executables[key] = statement
        return statement


def run_query(
    ctx: EvalContext, query: ast.Query, initial: DrivingTable, dialect: Dialect
) -> DrivingTable:
    """``[[query]](G, T)``: UNION branches left to right, each a clause
    pipeline over its own copy of *initial*."""
    if isinstance(query, ast.UnionQuery):
        left = run_query(ctx, query.left, initial.copy(), dialect)
        right = run_query(ctx, query.right, initial.copy(), dialect)
        combined = left.concat(right)
        return combined if query.all else combined.distinct()
    final = execute_clauses(ctx, query.clauses, initial, dialect)
    if query.return_clause is None:
        # Statements without RETURN output the empty table.
        return DrivingTable()
    return final


class CypherEngine:
    """Executes Cypher statements against a graph store.

    The dialect and ``extended_merge`` are fixed at construction: the
    statement cache is keyed by text alone.
    """

    def __init__(
        self,
        store: GraphStore | None = None,
        dialect: Dialect | str = Dialect.REVISED,
        *,
        extended_merge: bool = False,
        match_mode: MatchMode | str = MatchMode.TRAIL,
        use_planner: bool = False,
    ):
        self.store = store if store is not None else GraphStore()
        self.dialect = Dialect.parse(dialect)
        self.extended_merge = extended_merge
        self.match_mode = (
            match_mode
            if isinstance(match_mode, MatchMode)
            else MatchMode(match_mode)
        )
        #: Cost-based match planning *and* the plan rewrites (predicate
        #: pushdown + hoisting): an optimised session gets both.
        self.use_planner = use_planner
        #: text -> Prepared: the one statement cache, and through the
        #: statements' nodes the only place a closure is retained
        self._statements = LRUCache(capacity=1024)

    # ------------------------------------------------------------------

    def prepare(
        self, source: str | Prepared | ast.Statement | ast.SchemaStatement
    ) -> Prepared:
        """The :class:`Prepared` for *source*.

        A text costs one lookup in the statement cache (a miss parses
        it); a prepared statement is returned as it is; a bare AST gets
        a fresh, uncached ``Prepared``.
        """
        if isinstance(source, str):
            prepared = self._statements.get(source)
            if prepared is None:
                prepared = Prepared(
                    parse(
                        source,
                        self.dialect,
                        extended_merge=self.extended_merge,
                    ),
                    self.dialect,
                )
                self._statements.put(source, prepared)
            return prepared
        if isinstance(source, Prepared):
            return source
        return Prepared(source, self.dialect)

    def ast_cache_info(self) -> dict[str, int]:
        """Statement-cache counters (hits, misses, evictions, size)."""
        return self._statements.info()

    def execute(
        self,
        source: str | Prepared | ast.Statement,
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
        hits_before = self._statements.hits
        prepared = self.prepare(source)
        statement = prepared.statement
        query_profile = None
        if profile:
            query_profile = self._new_profile(
                statement, self._statements.hits > hits_before
            )
        if isinstance(statement, ast.SchemaStatement):
            return self._execute_schema(statement, query_profile)
        initial = table.copy() if table is not None else DrivingTable.unit()
        supplied = dict(parameters or {})
        executed = prepared.executable(
            initial.columns, supplied, self.use_planner
        )
        ctx = EvalContext(
            store=self.store,
            parameters=supplied,
            match_mode=self.match_mode,
            use_planner=self.use_planner,
            preserve_match_order=self.dialect is Dialect.CYPHER9,
            profile=query_profile,
            compile=prepared.compile,
        )
        mark = self.store.mark()
        if query_profile is not None:
            self.store.install_counters(query_profile.counters)
            compiler_before = COMPILER_STATS.snapshot()
        started = time.perf_counter()
        try:
            output = run_query(ctx, executed.query, initial, self.dialect)
            if self.dialect is Dialect.CYPHER9 and not prepared.read_only:
                self._check_commit_time_well_formedness(mark)
        except Exception:
            self.store.rollback_to(mark)
            raise
        finally:
            if query_profile is not None:
                query_profile.time_ms = (
                    time.perf_counter() - started
                ) * 1000
                query_profile.compiler.update(
                    {
                        name: value - compiler_before[name]
                        for name, value in COMPILER_STATS.snapshot().items()
                    }
                )
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
        source: str | Prepared | ast.Statement,
        parameters: Mapping[str, Any] | None = None,
        table: DrivingTable | None = None,
    ) -> QueryResult:
        """Execute with profiling on; the result carries ``.profile``."""
        return self.execute(source, parameters, table=table, profile=True)

    def _new_profile(
        self, statement: ast.Statement | ast.SchemaStatement, cached: bool
    ) -> "QueryProfile":
        from repro.parser.unparse import unparse
        from repro.runtime.profile import QueryProfile

        query_profile = QueryProfile(
            statement.source or unparse(statement),
            self.dialect.value,
            planner=self.use_planner,
        )
        query_profile.compiler["prepared_hit"] = int(cached)
        return query_profile

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

    def explain(
        self,
        source: str | Prepared | ast.Statement,
        parameters: Mapping[str, Any] | None = None,
    ) -> str:
        """Describe how a statement would execute (no execution).

        The statement described is the one :meth:`execute` would run
        with these *parameters*: same :class:`Prepared`, same scope
        check (so the same errors), same rewrites.
        """
        return self._explain(source, parameters, self.use_planner)

    def plan(
        self,
        source: str | Prepared | ast.Statement,
        parameters: Mapping[str, Any] | None = None,
    ) -> str:
        """Describe the match planner's choices for a statement.

        Like :meth:`explain` but as an engine with ``use_planner=True``
        would execute it, so anchor and ordering decisions are shown
        even for an engine constructed without it.  No execution
        happens.
        """
        return self._explain(source, parameters, True)

    def _explain(
        self,
        source: str | Prepared | ast.Statement,
        parameters: Mapping[str, Any] | None,
        use_planner: bool,
    ) -> str:
        from repro.runtime.explain import explain_statement

        prepared = self.prepare(source)
        statement = prepared.statement
        if isinstance(statement, ast.SchemaStatement):
            return (
                f"schema command: {statement.kind} on "
                f":{statement.label}({statement.key})"
            )
        supplied = dict(parameters or {})
        ctx = EvalContext(
            store=self.store,
            parameters=supplied,
            match_mode=self.match_mode,
            use_planner=use_planner,
            compile=prepared.compile,
        )
        return explain_statement(
            ctx, prepared.executable((), supplied, use_planner), self.dialect
        )

    # ------------------------------------------------------------------

    def _check_commit_time_well_formedness(self, mark: int) -> None:
        """Reject statements that leave dangling relationships behind.

        The legacy dialect tolerates dangling relationships *during* a
        statement (Section 4.2) but, like Neo4j, validates the graph at
        the statement boundary.  Only deleting a node can leave one, so
        only the relationships at the nodes deleted since *mark* are
        inspected.
        """
        store = self.store
        dangling = {
            rel_id
            for node_id in store.deleted_node_ids(mark)
            for rel_id in store.adjacent_rel_ids(node_id)
        }
        if dangling:
            rel_id = min(dangling)
            raise UpdateError(
                f"statement would leave dangling relationship "
                f"{rel_id} ({store.rel_type(rel_id)}); "
                f"delete it in the same statement"
            )

    def _counters_since(self, mark: int) -> UpdateCounters:
        counts: dict[str, int] = {}
        for kind, count in self.store.change_counts(mark).items():
            field_name = _COUNTER_FIELDS[kind]
            counts[field_name] = counts.get(field_name, 0) + count
        return UpdateCounters(**counts)
