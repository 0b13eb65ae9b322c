"""The CREATE clause and the shared pattern-instantiation machinery.

Section 8.2 defines CREATE in three steps: *saturation* (every unnamed
entity gets a temporary variable), inductive creation of nodes then
relationships (binding variables as it goes), and projection of the
temporary variables out of the driving table.

The same instantiation routine is the write half of every MERGE
variant, so it supports an :class:`EntityCache`: before creating a node
or relationship it asks the cache for an existing instance under a
*collapse key*.  The five Section 6 MERGE semantics differ only in how
that key is built (see :mod:`repro.core.merge`); plain CREATE uses no
cache and therefore always instantiates fresh entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import CypherSemanticError, CypherTypeError
from repro.graph.model import Node, Relationship
from repro.graph.values import normalize_property_map, type_name
from repro.parser import ast
from repro.runtime.compiler import compile_map
from repro.runtime.context import EvalContext
from repro.runtime.table import DrivingTable

#: Identifies an element's position in a pattern tuple: (path index,
#: element index within the path).  Definitions 1-2 speak of entities
#: "matched to the same position of the input pattern"; this is that
#: position.
Position = tuple[int, int]


@dataclass
class CreatedInstance:
    """What instantiating a pattern for one record produced."""

    #: variable -> entity handle for newly bound variables
    bindings: dict[str, Any] = field(default_factory=dict)
    #: (position, node id, was_created) for every node element
    nodes: list[tuple[Position, int, bool]] = field(default_factory=list)
    #: (position, relationship id, was_created) for every rel element
    relationships: list[tuple[Position, int, bool]] = field(
        default_factory=list
    )


class EntityCache:
    """Optional dedup cache used by the MERGE collapse semantics.

    ``node_key`` / ``rel_key`` compute a hashable collapse key for a
    prospective entity (or return None to force a fresh instance);
    entities sharing a key are instantiated once and reused.
    """

    def __init__(
        self,
        node_key: Callable[[Position, tuple, tuple], Optional[tuple]],
        rel_key: Callable[[Position, str, tuple, int, int], Optional[tuple]],
    ):
        self._node_key = node_key
        self._rel_key = rel_key
        self._nodes: dict[tuple, int] = {}
        self._rels: dict[tuple, int] = {}

    def node(
        self,
        position: Position,
        labels: tuple[str, ...],
        prop_items: tuple,
        create: Callable[[], int],
    ) -> tuple[int, bool]:
        """Return (node id, was_created) for the given content."""
        key = self._node_key(position, labels, prop_items)
        if key is None:
            return create(), True
        if key in self._nodes:
            return self._nodes[key], False
        node_id = create()
        self._nodes[key] = node_id
        return node_id, True

    def relationship(
        self,
        position: Position,
        rel_type: str,
        prop_items: tuple,
        source: int,
        target: int,
        create: Callable[[], int],
    ) -> tuple[int, bool]:
        """Return (relationship id, was_created) for the given content."""
        key = self._rel_key(position, rel_type, prop_items, source, target)
        if key is None:
            return create(), True
        if key in self._rels:
            return self._rels[key], False
        rel_id = create()
        self._rels[key] = rel_id
        return rel_id, True


def instantiate_pattern(
    ctx: EvalContext,
    pattern: ast.Pattern,
    record: dict,
    cache: EntityCache | None = None,
) -> CreatedInstance:
    """Create one instance of *pattern* for *record* (the CREATE step).

    Bound node variables are reused (re-specifying labels or properties
    on them is an error); everything else is created, consulting
    *cache* when given.  Variables named in the pattern are bound in
    the returned instance so later pattern elements (and later clauses)
    can see them.
    """
    instance = CreatedInstance()
    scope = dict(record)
    for path_index, path in enumerate(pattern.paths):
        if path.variable is not None:
            raise CypherSemanticError(
                "named paths are not supported in CREATE/MERGE patterns"
            )
        previous_node_id: int | None = None
        pending_rel: ast.RelationshipPattern | None = None
        pending_rel_position: Position | None = None
        for element_index, element in enumerate(path.elements):
            position = (path_index, element_index)
            if isinstance(element, ast.NodePattern):
                node_id, created = _instantiate_node(
                    ctx, element, position, scope, instance, cache
                )
                instance.nodes.append((position, node_id, created))
                if pending_rel is not None:
                    rel_id, rel_created = _instantiate_rel(
                        ctx,
                        pending_rel,
                        pending_rel_position,
                        previous_node_id,
                        node_id,
                        scope,
                        instance,
                        cache,
                    )
                    instance.relationships.append(
                        (pending_rel_position, rel_id, rel_created)
                    )
                    pending_rel = None
                previous_node_id = node_id
            else:
                pending_rel = element
                pending_rel_position = position
    return instance


def _instantiate_node(
    ctx: EvalContext,
    element: ast.NodePattern,
    position: Position,
    scope: dict,
    instance: CreatedInstance,
    cache: EntityCache | None,
) -> tuple[int, bool]:
    variable = element.variable
    if variable is not None and variable in scope:
        value = scope[variable]
        if not isinstance(value, Node):
            raise CypherTypeError(
                f"variable '{variable}' is bound to "
                f"{type_name(value)}, expected a Node"
            )
        if element.labels or (
            element.properties is not None and element.properties.items
        ):
            raise CypherSemanticError(
                f"cannot re-specify labels or properties on the bound "
                f"variable '{variable}'"
            )
        return value.id, False
    labels = element.labels
    properties = _evaluate_properties(ctx, element.properties, scope)
    prop_items = tuple(sorted(properties.items(), key=lambda kv: kv[0]))

    def create() -> int:
        return ctx.store.create_node(labels, dict(properties))

    if cache is not None:
        node_id, created = cache.node(position, labels, prop_items, create)
    else:
        node_id, created = create(), True
    if variable is not None:
        handle = ctx.store.node(node_id)
        scope[variable] = handle
        instance.bindings[variable] = handle
    return node_id, created


def _instantiate_rel(
    ctx: EvalContext,
    element: ast.RelationshipPattern,
    position: Position,
    left_node: int,
    right_node: int,
    scope: dict,
    instance: CreatedInstance,
    cache: EntityCache | None,
) -> tuple[int, bool]:
    variable = element.variable
    if variable is not None and variable in scope:
        raise CypherSemanticError(
            f"cannot create the already bound relationship "
            f"variable '{variable}'"
        )
    if len(element.types) != 1:
        raise CypherSemanticError(
            "relationships must be created with exactly one type"
        )
    if element.direction == ast.BOTH:
        raise CypherSemanticError(
            "relationships must be created with a direction"
        )
    rel_type = element.types[0]
    if element.direction == ast.OUT:
        source, target = left_node, right_node
    else:
        source, target = right_node, left_node
    properties = _evaluate_properties(ctx, element.properties, scope)
    prop_items = tuple(sorted(properties.items(), key=lambda kv: kv[0]))

    def create() -> int:
        return ctx.store.create_relationship(
            rel_type, source, target, dict(properties)
        )

    if cache is not None:
        rel_id, created = cache.relationship(
            position, rel_type, prop_items, source, target, create
        )
    else:
        rel_id, created = create(), True
    if variable is not None:
        handle = ctx.store.relationship(rel_id)
        scope[variable] = handle
        instance.bindings[variable] = handle
    return rel_id, created


def _evaluate_properties(
    ctx: EvalContext,
    properties: ast.MapLiteral | None,
    scope: dict,
) -> dict:
    """Evaluate a pattern property map; null values mean *absent keys*.

    This is the rule that makes the null-id rows of Example 5 create
    property-less nodes (iota(n, k) = null encodes absence).
    """
    if properties is None:
        return {}
    return normalize_property_map(
        (key, fn(ctx, scope))
        for key, fn in compile_map(ctx.compile, properties)[0]
    )


def execute_create(
    ctx: EvalContext, clause: ast.CreateClause, table: DrivingTable
) -> DrivingTable:
    """The CREATE clause (both dialects; CREATE never reads the graph)."""
    new_variables: list[str] = []
    for path in clause.pattern.paths:
        for element in path.elements:
            variable = element.variable
            if (
                variable is not None
                and variable not in table.columns
                and variable not in new_variables
            ):
                new_variables.append(variable)
    output = DrivingTable(tuple(table.columns) + tuple(new_variables))
    for record in table:
        instance = instantiate_pattern(ctx, clause.pattern, dict(record))
        extended = dict(record)
        extended.update(instance.bindings)
        output.add({name: extended.get(name) for name in output.columns})
    return output
