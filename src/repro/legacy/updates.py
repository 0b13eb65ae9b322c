"""Legacy Cypher 9 update semantics (Section 3, anomalies of Section 4).

The legacy executor processes the driving table **record by record**
("in a way similar to for-each-row triggers") and each update reads the
*current* working graph, i.e. it sees the writes made while processing
earlier records.  That is exactly the behaviour the paper diagnoses:

* ``SET`` applies its items sequentially per record, so the id swap of
  Example 1 degenerates into a no-op and the outcome of Example 2
  depends on record order;
* ``DELETE`` removes entities immediately, leaving dangling
  relationships in the working graph (Section 4.2); later ``SET`` on a
  deleted entity is silently lost and a returned deleted node renders
  as an empty node.  Well-formedness is only checked at the end of the
  statement (the engine does this), mirroring commit-time validation;
* ``MERGE`` does per-record match-or-create against the working graph,
  so it can match its own earlier writes -- the source of the
  Example 3 / Figure 6 nondeterminism.  ``ON CREATE SET`` and
  ``ON MATCH SET`` actions are applied immediately, legacy-style.

Record processing follows the table's list order; pre-ordering the
table (``DrivingTable.reversed`` / ``shuffled``) exposes the
order-dependence experimentally.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import CypherTypeError
from repro.graph.model import Node, Path, Relationship
from repro.graph.values import type_name
from repro.parser import ast
from repro.runtime.compiler import Compiler
from repro.runtime.context import EvalContext
from repro.runtime.matcher import match_pattern, pattern_variables
from repro.runtime.table import DrivingTable

from repro.core.create import instantiate_pattern
from repro.core.merge import reject_null_merge_properties


def execute_set_legacy(
    ctx: EvalContext, clause: ast.SetClause, table: DrivingTable
) -> DrivingTable:
    """Per-record, per-item sequential SET (reads its own writes)."""
    apply = compile_set_items(ctx.compile, clause.items)
    for record in table:
        apply(ctx, record)
    return table


def compile_set_items(
    compile: Compiler, items: Iterable[ast.SetItem]
) -> Callable[[EvalContext, dict], None]:
    """SET items as one ``(ctx, record)`` step, compiled once per clause.

    The step applies the items immediately, left to right, for one
    record -- each item evaluates against the graph its predecessors
    already wrote.
    """
    compiled = [
        (
            item,
            compile(
                item.target.subject
                if isinstance(item, ast.SetProperty)
                else item.target
            ),
            None if isinstance(item, ast.SetLabels) else compile(item.value),
        )
        for item in items
    ]

    def apply(ctx: EvalContext, record: dict) -> None:
        for item, target_fn, value_fn in compiled:
            _apply_set_item(ctx, item, target_fn(ctx, record), value_fn, record)

    return apply


def _apply_set_item(
    ctx: EvalContext, item: ast.SetItem, target: Any, value_fn, record: dict
) -> None:
    if isinstance(item, ast.SetLabels):
        if target is None:
            return
        if not isinstance(target, Node):
            raise CypherTypeError(
                f"labels can only be set on a Node, got {type_name(target)}"
            )
        if target.is_deleted:
            return  # silently lost, as in Section 4.2
        for label in item.labels:
            ctx.store.add_label(target.id, label)
        return
    entity = _live_entity(target)
    if entity is None:
        return
    if isinstance(item, ast.SetProperty):
        _write_property(ctx, entity, item.target.key, value_fn(ctx, record))
        return
    new_map = _as_map(value_fn(ctx, record))
    if isinstance(item, ast.SetAllProperties):
        for key in list(entity.properties):
            if key not in new_map:
                _write_property(ctx, entity, key, None)
    elif not isinstance(item, ast.SetAdditiveProperties):
        raise AssertionError(f"unknown SET item {type(item).__name__}")
    for key, value in new_map.items():
        _write_property(ctx, entity, key, value)


def _live_entity(value: Any) -> Node | Relationship | None:
    """The target entity, or None when the write should be skipped.

    Legacy tolerance: writes to null or to already deleted entities are
    silently dropped (the paper's delete-then-set example "goes through
    without an error").
    """
    if value is None:
        return None
    if isinstance(value, (Node, Relationship)):
        return None if value.is_deleted else value
    raise CypherTypeError(
        f"SET expects a Node or Relationship, got {type_name(value)}"
    )


def _write_property(
    ctx: EvalContext, entity: Node | Relationship, key: str, value: Any
) -> None:
    if isinstance(entity, Node):
        ctx.store.set_node_property(entity.id, key, value)
    else:
        ctx.store.set_rel_property(entity.id, key, value)


def _as_map(value: Any) -> dict:
    if isinstance(value, (Node, Relationship)):
        value = dict(value.properties)
    if not isinstance(value, dict):
        raise CypherTypeError(
            f"SET with '=' or '+=' expects a Map, got {type_name(value)}"
        )
    return value


# ---------------------------------------------------------------------------
# DELETE
# ---------------------------------------------------------------------------

def execute_delete_legacy(
    ctx: EvalContext, clause: ast.DeleteClause, table: DrivingTable
) -> DrivingTable:
    """Per-record immediate deletion; dangling states are permitted.

    The working graph may become ill-formed (relationships whose
    endpoint is gone); the engine validates well-formedness only at the
    end of the whole statement.  The driving table keeps its references
    to the deleted entities (the "zombie" handles the paper describes).
    """
    expression_fns = [ctx.compile(e) for e in clause.expressions]
    for record in table:
        for expression_fn in expression_fns:
            _delete_value(ctx, expression_fn(ctx, record), clause.detach)
    return table


def _delete_value(ctx: EvalContext, value: Any, detach: bool) -> None:
    if value is None:
        return
    if isinstance(value, Relationship):
        ctx.store.delete_relationship(value.id)
        return
    if isinstance(value, Node):
        if value.is_deleted:
            return
        if detach:
            for rel_id in ctx.store.adjacent_rel_ids(value.id):
                ctx.store.delete_relationship(rel_id)
        ctx.store.delete_node(value.id, allow_dangling=True)
        return
    if isinstance(value, Path):
        for rel in value.relationships:
            ctx.store.delete_relationship(rel.id)
        for node in value.nodes:
            if not node.is_deleted:
                ctx.store.delete_node(node.id, allow_dangling=True)
        return
    raise CypherTypeError(
        f"DELETE expects Nodes, Relationships or Paths, "
        f"got {type_name(value)}"
    )


# ---------------------------------------------------------------------------
# MERGE
# ---------------------------------------------------------------------------

def execute_merge_legacy(
    ctx: EvalContext, clause: ast.MergeClause, table: DrivingTable
) -> DrivingTable:
    """Per-record match-or-create against the *working* graph.

    Earlier records' creations are visible to later records (the clause
    "reads its own writes"), so the result depends on the record order
    -- exactly the behaviour Example 3 demonstrates.
    """
    reject_null_merge_properties(clause.pattern)
    new_variables = [
        name
        for name in pattern_variables(clause.pattern)
        if name not in table.columns
    ]
    output = DrivingTable(tuple(table.columns) + tuple(new_variables))
    # Legacy MERGE may carry undirected relationship patterns (Figure 5);
    # when it has to create, an undirected pattern is instantiated
    # left-to-right -- the direction nondeterminism the revised syntax
    # eliminates by requiring directed patterns.
    creation_pattern = _directed(clause.pattern)
    on_match = compile_set_items(ctx.compile, clause.on_match)
    on_create = compile_set_items(ctx.compile, clause.on_create)
    for record in table:
        matches = list(match_pattern(ctx, clause.pattern, record))
        if matches:
            for bindings in matches:
                on_match(ctx, bindings)
                output.add(
                    {name: bindings.get(name) for name in output.columns}
                )
            continue
        instance = instantiate_pattern(ctx, creation_pattern, dict(record))
        extended = dict(record)
        extended.update(instance.bindings)
        on_create(ctx, extended)
        output.add({name: extended.get(name) for name in output.columns})
    return output


def _directed(pattern: ast.Pattern) -> ast.Pattern:
    """Replace undirected relationship patterns with outgoing ones."""
    import dataclasses

    paths = []
    for path in pattern.paths:
        elements = tuple(
            dataclasses.replace(element, direction=ast.OUT)
            if isinstance(element, ast.RelationshipPattern)
            and element.direction == ast.BOTH
            else element
            for element in path.elements
        )
        paths.append(ast.PathPattern(variable=path.variable, elements=elements))
    return ast.Pattern(paths=tuple(paths))
