"""The clause pipeline: ``[[C1 C2 ...]](G, T)`` by composition.

Section 8.1: the semantics of a clause sequence is the left-to-right
composition of the clause semantics, each mapping a (graph, table) pair
to a (graph, table) pair.  The graph lives in the mutable store inside
the :class:`~repro.runtime.context.EvalContext`; this module threads
the table and dispatches each clause to its dialect's implementation.
"""

from __future__ import annotations

from repro.dialect import Dialect
from repro.errors import CypherSemanticError
from repro.parser import ast
from repro.runtime.context import EvalContext
from repro.runtime.projection import project_return, project_with
from repro.runtime.reading import (
    execute_load_csv,
    execute_match,
    execute_unwind,
)
from repro.runtime.table import DrivingTable


def execute_clauses(
    ctx: EvalContext,
    clauses: tuple[ast.Clause, ...],
    table: DrivingTable,
    dialect: Dialect,
) -> DrivingTable:
    """Run a clause sequence over the driving table."""
    for clause in clauses:
        table = execute_clause(ctx, clause, table, dialect)
    return table


def execute_clause(
    ctx: EvalContext,
    clause: ast.Clause,
    table: DrivingTable,
    dialect: Dialect,
) -> DrivingTable:
    """Run one clause: ``[[C]](G, T)`` with G inside *ctx*.

    In PROFILE mode (``ctx.profile`` set) the clause is bracketed with
    begin/end so its wall time, row counts and db-hit delta land in the
    profile tree; nested clauses (FOREACH bodies) become children.
    """
    profile = ctx.profile
    if profile is None:
        return _dispatch_clause(ctx, clause, table, dialect)
    from repro.runtime.profile import clause_label

    entry = profile.begin(clause_label(clause, dialect), len(table))
    result = None
    try:
        result = _dispatch_clause(ctx, clause, table, dialect)
    finally:
        profile.end(entry, len(result) if result is not None else 0)
    return result


def _dispatch_clause(
    ctx: EvalContext,
    clause: ast.Clause,
    table: DrivingTable,
    dialect: Dialect,
) -> DrivingTable:
    if isinstance(clause, ast.MatchClause):
        return execute_match(ctx, clause, table)
    if isinstance(clause, ast.UnwindClause):
        return execute_unwind(ctx, clause, table)
    if isinstance(clause, ast.LoadCsvClause):
        return execute_load_csv(ctx, clause, table)
    if isinstance(clause, ast.WithClause):
        return project_with(ctx, clause.body, clause.where, table)
    if isinstance(clause, ast.ReturnClause):
        return project_return(ctx, clause.body, table)
    if isinstance(clause, ast.CreateClause):
        from repro.core.create import execute_create

        return execute_create(ctx, clause, table)
    if isinstance(clause, ast.RemoveClause):
        from repro.core.remove import execute_remove

        return execute_remove(
            ctx, clause, table, ignore_deleted=dialect is Dialect.CYPHER9
        )
    if isinstance(clause, ast.SetClause):
        if dialect is Dialect.CYPHER9:
            from repro.legacy.updates import execute_set_legacy

            return execute_set_legacy(ctx, clause, table)
        from repro.core.set import execute_set

        return execute_set(ctx, clause, table)
    if isinstance(clause, ast.DeleteClause):
        if dialect is Dialect.CYPHER9:
            from repro.legacy.updates import execute_delete_legacy

            return execute_delete_legacy(ctx, clause, table)
        from repro.core.delete import execute_delete

        return execute_delete(ctx, clause, table)
    if isinstance(clause, ast.MergeClause):
        if clause.semantics == ast.MERGE_LEGACY:
            if dialect is not Dialect.CYPHER9:
                raise CypherSemanticError(
                    "bare MERGE requires the Cypher 9 dialect"
                )
            from repro.legacy.updates import execute_merge_legacy

            return execute_merge_legacy(ctx, clause, table)
        from repro.core.merge import execute_merge

        return execute_merge(ctx, clause, table)
    if isinstance(clause, ast.ForeachClause):
        return _execute_foreach(ctx, clause, table, dialect)
    raise CypherSemanticError(
        f"cannot execute clause {type(clause).__name__}"
    )


def _execute_foreach(
    ctx: EvalContext,
    clause: ast.ForeachClause,
    table: DrivingTable,
    dialect: Dialect,
) -> DrivingTable:
    """FOREACH (x IN list | updates).

    The driving table is expanded with one record per (record, element)
    pair and the inner update clauses run over the expansion under the
    active dialect -- so in the revised dialect a SET inside FOREACH is
    atomic over all iterations, while the legacy dialect stays
    per-record.  FOREACH passes its own input table through unchanged.
    """
    if clause.variable in table.columns:
        raise CypherSemanticError(
            f"variable '{clause.variable}' is already bound"
        )
    source_fn = ctx.compile(clause.source)
    expanded = DrivingTable(tuple(table.columns) + (clause.variable,))
    for record in table:
        value = source_fn(ctx, record)
        if value is None:
            continue
        if not isinstance(value, list):
            raise CypherSemanticError("FOREACH expects a list expression")
        for element in value:
            extended = dict(record)
            extended[clause.variable] = element
            expanded.add(extended)
    inner = expanded
    for update in clause.updates:
        inner = execute_clause(ctx, update, inner, dialect)
    return table
