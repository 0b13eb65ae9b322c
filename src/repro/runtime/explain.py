"""EXPLAIN-style plan descriptions and the PROFILE renderer.

:func:`explain_statement` renders how the engine will execute a parsed
statement: the clause pipeline, which dialect executor handles each
update clause, and the plan of each MATCH pattern: path order, anchors
and the access path the store chose for each anchor (planned from the
variables the clauses before it bind), and the pushed comparisons the
store checks at the columns.

:func:`render_profile` is its runtime counterpart: it renders a
:class:`~repro.runtime.profile.QueryProfile` recorded while actually
executing, with per-clause rows, wall time and db-hits.
"""

from __future__ import annotations

from typing import Collection

from repro.dialect import Dialect
from repro.parser import ast
from repro.parser.unparse import pushed_conjuncts, unparse
from repro.runtime.context import EvalContext
from repro.runtime.match_planner import plan_paths
from repro.runtime.scoping import check_clause

_MERGE_EXECUTORS = {
    ast.MERGE_LEGACY: "LegacyMerge(per-record match-or-create, reads own writes)",
    ast.MERGE_ALL: "MergeAll(atomic; match input graph, create per failing row)",
    ast.MERGE_SAME: "MergeSame(atomic; Strong Collapse cache)",
    ast.MERGE_GROUPING: "MergeGrouping(atomic; one instance per value group)",
    ast.MERGE_WEAK_COLLAPSE: "MergeWeakCollapse(atomic; per-position cache)",
    ast.MERGE_COLLAPSE: "MergeCollapse(atomic; cross-position node cache)",
}


def explain_statement(
    ctx: EvalContext, statement: ast.Statement, dialect: Dialect
) -> str:
    """A multi-line, human-readable execution plan.

    Each MATCH is planned from the scope the clauses before it leave: a
    variable they bind counts as bound (its value unknown), as it is
    in every record the run matches.
    """
    lines = [f"dialect: {dialect.value}; planner: {'on' if ctx.use_planner else 'off'}"]
    branches = statement.branches()
    for index, branch in enumerate(branches):
        if len(branches) > 1:
            lines.append(f"union branch {index + 1}:")
        scope: set[str] = set()
        for clause in branch.clauses:
            lines.extend(_explain_clause(ctx, clause, dialect, scope))
            scope = check_clause(clause, scope)
    return "\n".join(lines)


def _explain_clause(
    ctx: EvalContext,
    clause: ast.Clause,
    dialect: Dialect,
    scope: Collection[str] = (),
) -> list[str]:
    prefix = "  "
    if isinstance(clause, ast.MatchClause):
        keyword = "OptionalMatch" if clause.optional else "Match"
        lines = [f"{prefix}{keyword}"]
        # Paths are listed in execution order (planner off: as
        # written), each with its anchor's access path and estimate,
        # then the comparisons the store checks at each step.
        plan = plan_paths(
            ctx, clause.pattern.paths, dict.fromkeys(scope, True)
        )
        for path_plan in plan.ordered:
            lines.append(
                f"{prefix}  path {unparse(path_plan.path)}"
                f"  [anchor: {path_plan.describe()}, "
                f"est. {path_plan.cost:.0f} candidates]"
            )
            checks = pushed_conjuncts(ast.Pattern((path_plan.path,)))
            if checks:
                lines.append(
                    f"{prefix}    column check "
                    + " AND ".join(unparse(check) for check in checks)
                )
        moved = plan.moved_count()
        if moved:
            lines.append(
                f"{prefix}  ({moved} paths reordered by estimated cost)"
            )
        if clause.where is not None:
            lines.append(f"{prefix}  filter {unparse(clause.where)}")
        return lines
    if isinstance(clause, ast.SetClause):
        executor = (
            "LegacySet(per-record, sequential items)"
            if dialect is Dialect.CYPHER9
            else "AtomicSet(collect propchanges/labchanges, detect conflicts)"
        )
        return [f"{prefix}{executor}: {unparse(clause)}"]
    if isinstance(clause, ast.DeleteClause):
        executor = (
            "LegacyDelete(immediate, dangling tolerated until commit)"
            if dialect is Dialect.CYPHER9
            else "StrictDelete(collect, validate, null out references)"
        )
        return [f"{prefix}{executor}: {unparse(clause)}"]
    if isinstance(clause, ast.MergeClause):
        executor = _MERGE_EXECUTORS[clause.semantics]
        return [f"{prefix}{executor}: {unparse(clause.pattern)}"]
    if isinstance(clause, ast.CreateClause):
        return [f"{prefix}Create(saturate, instantiate per record): "
                f"{unparse(clause.pattern)}"]
    if isinstance(clause, ast.ForeachClause):
        lines = [f"{prefix}Foreach({clause.variable} IN "
                 f"{unparse(clause.source)})"]
        for update in clause.updates:
            lines.extend(
                "  " + line for line in _explain_clause(ctx, update, dialect)
            )
        return lines
    return [f"{prefix}{type(clause).__name__.replace('Clause', '')}: "
            f"{unparse(clause)}"]


def render_profile(profile) -> str:
    """PROFILE-style rendering of a recorded query profile.

    One line per executed clause (children indented), followed by the
    statement totals.  Clause metrics are inclusive of their children.
    """
    header = (
        f"profile: dialect {profile.dialect}; "
        f"planner {'on' if profile.planner else 'off'}"
    )
    lines = [header]

    def emit(entry, depth: int) -> None:
        indent = "  " * (depth + 1)
        planner_note = ""
        if entry.anchor is not None:
            planner_note = f"; anchor {entry.anchor}"
            if entry.paths_reordered:
                planner_note += (
                    f"; {entry.paths_reordered} paths reordered"
                )
        if entry.rows_matched is not None:
            planner_note += (
                f"; {entry.rows_matched} rows matched, "
                f"{entry.rows_created} rows created"
            )
        lines.append(
            f"{indent}{entry.label}"
            f"  [rows {entry.rows_in} -> {entry.rows_out}; "
            f"{entry.time_ms:.2f} ms; db hits {entry.hits.compact()}"
            f"{planner_note}]"
        )
        for child in entry.children:
            emit(child, depth + 1)

    for entry in profile.clauses:
        emit(entry, 0)
    totals = profile.hits
    lines.append(
        f"  total: {totals.compact()} db hits in {profile.time_ms:.2f} ms"
    )
    compiler = profile.compiler
    if compiler:
        lines.append(
            f"  compiler: statement cache "
            f"{'hit' if compiler.get('prepared_hit') else 'miss'}, "
            f"{compiler.get('expressions_compiled', 0)} "
            f"expressions compiled, "
            f"{compiler.get('constant_folded', 0)} constants folded"
        )
    return "\n".join(lines)

