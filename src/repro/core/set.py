"""The revised, atomic SET clause (Section 7, "Semantics for SET").

Evaluation is the paper's two-step process:

1. every set item is evaluated *on the input graph* for *every* record,
   accumulating the induced changes in two relations --
   ``propchanges(T, s)`` for property writes and ``labchanges(T, s, n)``
   for label additions;
2. if the property changes are well defined (no two different values
   for the same (entity, key) pair) they are applied in one step;
   otherwise the clause aborts with :class:`PropertyConflictError`.

This restores the behaviours of Examples 1 and 2: the id swap
``SET p1.id = p2.id, p2.id = p1.id`` works (both right-hand sides are
read from the input graph), and an ambiguous write aborts instead of
silently keeping the last value.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import CypherTypeError, DeletedEntityError, PropertyConflictError
from repro.graph.model import Node, Relationship
from repro.graph.values import equivalent, type_name
from repro.parser import ast
from repro.runtime.compiler import Compiler
from repro.runtime.context import EvalContext
from repro.runtime.table import DrivingTable

#: One accumulated property write: (entity kind, entity id, key) -> value;
#: ``None`` encodes removal of the key.
PropChanges = dict[tuple[str, int, str], Any]

#: Accumulated label additions: set of (node id, label).
LabChanges = set[tuple[int, str]]


def execute_set(
    ctx: EvalContext, clause: ast.SetClause, table: DrivingTable
) -> DrivingTable:
    """Atomic SET: collect all changes, check conflicts, apply once."""
    prop_changes, lab_changes = collect_changes(ctx, clause.items, table)
    apply_changes(ctx, prop_changes, lab_changes)
    return table


def collect_changes(
    ctx: EvalContext,
    items: Iterable[ast.SetItem],
    table: DrivingTable,
) -> tuple[PropChanges, LabChanges]:
    """Build propchanges / labchanges for all items over all records.

    Each item's target and value expressions are compiled once here;
    the record loop pays only the evaluations.
    """
    prop_changes: PropChanges = {}
    lab_changes: LabChanges = set()
    collectors = [_compile_item(ctx.compile, item) for item in items]
    for record in table:
        for collect in collectors:
            collect(ctx, record, prop_changes, lab_changes)
    return prop_changes, lab_changes


def apply_changes(
    ctx: EvalContext, prop_changes: PropChanges, lab_changes: LabChanges
) -> None:
    """Apply accumulated changes to the store (conflicts already checked)."""
    store = ctx.store
    for (kind, entity_id, key), value in prop_changes.items():
        if kind == "node":
            store.set_node_property(entity_id, key, value)
        else:
            store.set_rel_property(entity_id, key, value)
    for node_id, label in lab_changes:
        store.add_label(node_id, label)


# ---------------------------------------------------------------------------

def _entity_target(ctx: EvalContext, value: Any) -> tuple[str, int] | None:
    """Classify a SET target value; null targets are skipped."""
    if value is None:
        return None
    if isinstance(value, Node):
        if value.is_deleted:
            raise DeletedEntityError(
                f"cannot SET on deleted node {value.id}"
            )
        return ("node", value.id)
    if isinstance(value, Relationship):
        if value.is_deleted:
            raise DeletedEntityError(
                f"cannot SET on deleted relationship {value.id}"
            )
        return ("rel", value.id)
    raise CypherTypeError(
        f"SET expects a Node or Relationship, got {type_name(value)}"
    )


def _record_write(
    prop_changes: PropChanges,
    entity: tuple[str, int],
    key: str,
    value: Any,
) -> None:
    """Record one property write, failing on a conflicting earlier write."""
    change_key = (entity[0], entity[1], key)
    if change_key in prop_changes:
        existing = prop_changes[change_key]
        if not equivalent(existing, value):
            raise PropertyConflictError(
                f"{entity[0]}#{entity[1]}", key, existing, value
            )
        return
    prop_changes[change_key] = value


def _current_properties(ctx: EvalContext, entity: tuple[str, int]) -> dict:
    if entity[0] == "node":
        return dict(ctx.store.node_properties(entity[1]))
    return dict(ctx.store.rel_properties(entity[1]))


def _compile_item(compile: Compiler, item: ast.SetItem):
    """A per-record collector ``(ctx, record, prop_changes, lab_changes)``."""
    if isinstance(item, ast.SetProperty):
        subject_fn = compile(item.target.subject)
        value_fn = compile(item.value)
        key = item.target.key

        def collect_property(ctx, record, prop_changes, lab_changes) -> None:
            entity = _entity_target(ctx, subject_fn(ctx, record))
            if entity is None:
                return
            _record_write(prop_changes, entity, key, value_fn(ctx, record))

        return collect_property
    if isinstance(item, ast.SetAllProperties):
        target_fn = compile(item.target)
        value_fn = compile(item.value)

        def collect_replace(ctx, record, prop_changes, lab_changes) -> None:
            entity = _entity_target(ctx, target_fn(ctx, record))
            if entity is None:
                return
            new_map = _require_map(ctx, value_fn, record)
            # Replacing the whole map = removing every current key that
            # the new map does not define, then writing the new entries.
            # Both parts participate in conflict detection per key.
            for key in _current_properties(ctx, entity):
                if key not in new_map:
                    _record_write(prop_changes, entity, key, None)
            for key, value in new_map.items():
                _record_write(prop_changes, entity, key, value)

        return collect_replace
    if isinstance(item, ast.SetAdditiveProperties):
        target_fn = compile(item.target)
        value_fn = compile(item.value)

        def collect_additive(ctx, record, prop_changes, lab_changes) -> None:
            entity = _entity_target(ctx, target_fn(ctx, record))
            if entity is None:
                return
            for key, value in _require_map(ctx, value_fn, record).items():
                _record_write(prop_changes, entity, key, value)

        return collect_additive
    if isinstance(item, ast.SetLabels):
        target_fn = compile(item.target)
        labels = item.labels

        def collect_labels(ctx, record, prop_changes, lab_changes) -> None:
            target = target_fn(ctx, record)
            if target is None:
                return
            if not isinstance(target, Node):
                raise CypherTypeError(
                    f"labels can only be set on a Node, "
                    f"got {type_name(target)}"
                )
            if target.is_deleted:
                raise DeletedEntityError(
                    f"cannot SET labels on deleted node {target.id}"
                )
            for label in labels:
                lab_changes.add((target.id, label))

        return collect_labels
    raise AssertionError(f"unknown SET item {type(item).__name__}")


def _require_map(ctx: EvalContext, value_fn, record: dict) -> dict:
    value = value_fn(ctx, record)
    if isinstance(value, (Node, Relationship)):
        value = dict(value.properties)
    if not isinstance(value, dict):
        raise CypherTypeError(
            f"SET with '=' or '+=' expects a Map, got {type_name(value)}"
        )
    return value
