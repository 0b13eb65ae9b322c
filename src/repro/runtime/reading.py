"""Reading clauses: MATCH, OPTIONAL MATCH, UNWIND, LOAD CSV.

Reading clauses never modify the graph: ``[[C]](G, T) = (G, [[C]]ro(T))``
(Section 8.1).  Each function here maps a driving table to a driving
table against a fixed graph.
"""

from __future__ import annotations

from repro.errors import CypherSemanticError, CypherTypeError
from repro.graph.values import type_name
from repro.parser import ast
from repro.runtime.context import EvalContext
from repro.runtime.match_planner import PreparedPattern
from repro.runtime.matcher import match_prepared, pattern_variables
from repro.runtime.table import DrivingTable


def execute_match(
    ctx: EvalContext, clause: ast.MatchClause, table: DrivingTable
) -> DrivingTable:
    """MATCH / OPTIONAL MATCH with an optional WHERE filter."""
    new_variables = [
        name
        for name in pattern_variables(clause.pattern)
        if name not in table.columns
    ]
    # The pattern is prepared once for the clause; planning happens
    # inside the matcher (per record, so estimates see each record's
    # actual bindings) -- see repro.runtime.match_planner.
    prepared = PreparedPattern(ctx, clause.pattern.paths)
    where_fn = (
        ctx.compile(clause.where) if clause.where is not None else None
    )
    columns = tuple(table.columns) + tuple(new_variables)
    rows: list[dict] = []
    append = rows.append
    for record in table:
        matched_any = False
        for bindings in match_prepared(ctx, prepared, record):
            if where_fn is not None:
                if where_fn(ctx, bindings) is not True:
                    continue
            matched_any = True
            append({name: bindings.get(name) for name in columns})
        if not matched_any and clause.optional:
            extended = dict(record)
            for name in new_variables:
                extended[name] = None
            append(extended)
    return DrivingTable.from_trusted(columns, rows)


def execute_unwind(
    ctx: EvalContext, clause: ast.UnwindClause, table: DrivingTable
) -> DrivingTable:
    """UNWIND expr AS x: one output record per list element."""
    if clause.variable in table.columns:
        raise CypherSemanticError(
            f"variable '{clause.variable}' is already bound"
        )
    expression_fn = ctx.compile(clause.expression)
    columns = tuple(table.columns) + (clause.variable,)
    variable = clause.variable
    rows: list[dict] = []
    append = rows.append
    for record in table:
        value = expression_fn(ctx, record)
        if value is None:
            continue  # UNWIND null yields no rows
        elements = value if isinstance(value, list) else [value]
        for element in elements:
            extended = dict(record)
            extended[variable] = element
            append(extended)
    return DrivingTable.from_trusted(columns, rows)


def execute_load_csv(
    ctx: EvalContext, clause: ast.LoadCsvClause, table: DrivingTable
) -> DrivingTable:
    """LOAD CSV: bind each CSV row (list or map) to the row variable."""
    from repro.io.csv_io import read_csv_rows  # local import: io layering

    if clause.variable in table.columns:
        raise CypherSemanticError(
            f"variable '{clause.variable}' is already bound"
        )
    source_fn = ctx.compile(clause.source)
    columns = tuple(table.columns) + (clause.variable,)
    out_rows: list[dict] = []
    for record in table:
        source = source_fn(ctx, record)
        if not isinstance(source, str):
            raise CypherTypeError(
                f"LOAD CSV expects a file path string, got {type_name(source)}"
            )
        rows = read_csv_rows(
            source,
            with_headers=clause.with_headers,
            delimiter=clause.field_terminator or ",",
        )
        for row in rows:
            extended = dict(record)
            extended[clause.variable] = row
            out_rows.append(extended)
    return DrivingTable.from_trusted(columns, out_rows)
