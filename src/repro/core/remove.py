"""The REMOVE clause.

"The semantics of REMOVE is straightforward, as label or property
removals may not incur any conflicts; changes induced by given removal
items are simply evaluated and applied inductively from left to right"
(Section 8.2).  Removal is idempotent, so per-record application and
atomic application coincide observably; both dialects share this code.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CypherTypeError, DeletedEntityError
from repro.graph.model import Node, Relationship
from repro.graph.values import type_name
from repro.parser import ast
from repro.runtime.context import EvalContext
from repro.runtime.table import DrivingTable


def execute_remove(
    ctx: EvalContext,
    clause: ast.RemoveClause,
    table: DrivingTable,
    *,
    ignore_deleted: bool = False,
) -> DrivingTable:
    """Apply removal items left to right for each record.

    ``ignore_deleted=True`` gives the legacy tolerance of operating on
    deleted entities (a silent no-op); the revised dialect raises.
    """
    target_fns = [
        ctx.compile(
            item.target.subject
            if isinstance(item, ast.RemoveProperty)
            else item.target
        )
        for item in clause.items
    ]
    for record in table:
        for item, target_fn in zip(clause.items, target_fns):
            _apply_item(ctx, item, target_fn(ctx, record), ignore_deleted)
    return table


def _apply_item(
    ctx: EvalContext,
    item: ast.RemoveItem,
    target: Any,
    ignore_deleted: bool,
) -> None:
    """Remove what *item* names from its evaluated *target*."""
    if isinstance(item, ast.RemoveProperty):
        if target is None:
            return
        if isinstance(target, Node):
            if target.is_deleted:
                if ignore_deleted:
                    return
                raise DeletedEntityError(
                    f"cannot REMOVE property from deleted node {target.id}"
                )
            ctx.store.set_node_property(target.id, item.target.key, None)
            return
        if isinstance(target, Relationship):
            if target.is_deleted:
                if ignore_deleted:
                    return
                raise DeletedEntityError(
                    f"cannot REMOVE property from deleted relationship "
                    f"{target.id}"
                )
            ctx.store.set_rel_property(target.id, item.target.key, None)
            return
        raise CypherTypeError(
            f"REMOVE expects a Node or Relationship, got {type_name(target)}"
        )
    if isinstance(item, ast.RemoveLabels):
        if target is None:
            return
        if not isinstance(target, Node):
            raise CypherTypeError(
                f"labels can only be removed from a Node, "
                f"got {type_name(target)}"
            )
        if target.is_deleted:
            if ignore_deleted:
                return
            raise DeletedEntityError(
                f"cannot REMOVE labels from deleted node {target.id}"
            )
        for label in item.labels:
            ctx.store.remove_label(target.id, label)
        return
    raise AssertionError(f"unknown REMOVE item {type(item).__name__}")
