"""The revised, strict DELETE / DETACH DELETE (Section 7).

The clause is atomic: all expressions are evaluated over the whole
driving table against the input graph, collecting every node and
relationship to delete.  Then:

* plain ``DELETE`` fails with :class:`DanglingRelationshipError` if any
  collected node still has a live relationship that is *not* also
  collected ("dangling relationships should never occur at any time");
* ``DETACH DELETE`` additionally collects all relationships attached to
  collected nodes;
* after the removal, "any reference to a deleted entity in the driving
  table is replaced by a null" -- including references inside lists,
  maps and paths.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CypherTypeError, DanglingRelationshipError
from repro.graph.model import Node, Path, Relationship
from repro.graph.values import type_name
from repro.parser import ast
from repro.runtime.context import EvalContext
from repro.runtime.table import DrivingTable


def execute_delete(
    ctx: EvalContext, clause: ast.DeleteClause, table: DrivingTable
) -> DrivingTable:
    """Atomic DELETE: collect, validate, remove, null out references."""
    nodes, rels = collect_deletions(ctx, clause, table)
    if clause.detach:
        for node_id in nodes:
            rels.update(ctx.store.adjacent_rel_ids(node_id))
    else:
        _require_no_dangling(ctx, nodes, rels)
    apply_deletions(ctx, nodes, rels)
    return null_out_references(table, nodes, rels)


def collect_deletions(
    ctx: EvalContext, clause: ast.DeleteClause, table: DrivingTable
) -> tuple[set[int], set[int]]:
    """Evaluate every DELETE expression over every record."""
    nodes: set[int] = set()
    rels: set[int] = set()
    expression_fns = [ctx.compile(e) for e in clause.expressions]
    for record in table:
        for expression_fn in expression_fns:
            _collect_value(expression_fn(ctx, record), nodes, rels)
    return nodes, rels


def _collect_value(value: Any, nodes: set[int], rels: set[int]) -> None:
    if value is None:
        return  # deleting null is a no-op
    if isinstance(value, Node):
        nodes.add(value.id)
        return
    if isinstance(value, Relationship):
        rels.add(value.id)
        return
    if isinstance(value, Path):
        for node in value.nodes:
            nodes.add(node.id)
        for rel in value.relationships:
            rels.add(rel.id)
        return
    raise CypherTypeError(
        f"DELETE expects Nodes, Relationships or Paths, "
        f"got {type_name(value)}"
    )


def _require_no_dangling(
    ctx: EvalContext, nodes: set[int], rels: set[int]
) -> None:
    for node_id in sorted(nodes):
        leftover = [
            rel_id
            for rel_id in ctx.store.adjacent_rel_ids(node_id)
            if rel_id not in rels
        ]
        if leftover:
            raise DanglingRelationshipError(node_id, leftover)


def apply_deletions(
    ctx: EvalContext, nodes: set[int], rels: set[int]
) -> None:
    """Remove collected entities (relationships first)."""
    for rel_id in sorted(rels):
        if not ctx.store.rel_is_deleted(rel_id):
            ctx.store.delete_relationship(rel_id)
    for node_id in sorted(nodes):
        if not ctx.store.node_is_deleted(node_id):
            ctx.store.delete_node(node_id)


def null_out_references(
    table: DrivingTable, nodes: set[int], rels: set[int]
) -> DrivingTable:
    """Replace references to deleted entities with null, recursively."""
    output = DrivingTable(table.columns)
    for record in table:
        output.add(
            {
                column: _null_out(record[column], nodes, rels)
                for column in table.columns
            }
        )
    return output


def _null_out(value: Any, nodes: set[int], rels: set[int]) -> Any:
    if isinstance(value, Node):
        return None if value.id in nodes else value
    if isinstance(value, Relationship):
        return None if value.id in rels else value
    if isinstance(value, Path):
        touched = any(node.id in nodes for node in value.nodes) or any(
            rel.id in rels for rel in value.relationships
        )
        return None if touched else value
    if isinstance(value, list):
        return [_null_out(item, nodes, rels) for item in value]
    if isinstance(value, dict):
        return {
            key: _null_out(item, nodes, rels) for key, item in value.items()
        }
    return value
