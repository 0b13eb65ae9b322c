"""Property graph data model.

The paper formalizes a property graph as a tuple
``G = <N, R, src, tgt, iota, lambda, tau>`` where ``N`` and ``R`` are
sets of node and relationship ids, ``src``/``tgt`` give relationship
endpoints, ``lambda`` maps nodes to label sets, ``tau`` maps
relationships to their (single, mandatory) type, and ``iota`` maps
(entity, key) pairs to property values with ``iota(x, k) = null``
encoding absence.

This module provides two representations of that tuple:

* :class:`Node`, :class:`Relationship` and :class:`Path` -- lightweight
  *handles* pointing into a mutable :class:`repro.graph.store.GraphStore`.
  These are the values that flow through driving tables and are returned
  to users.

* :class:`GraphSnapshot` -- an immutable, store-independent copy of the
  whole tuple.  Snapshots are what the formal reference semantics in
  :mod:`repro.formal` operates on, and what graph comparison (equality
  up to id renaming) is defined over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.store import GraphStore


class Node:
    """Handle to a node in a :class:`GraphStore`.

    Handles are cheap, compare by id, and always reflect the *current*
    state of the store (so a handle held across an update sees the
    update).  A handle to a deleted node keeps working in the degraded
    way the legacy dialect requires: no labels, no properties.
    """

    __slots__ = ("_store", "_id")

    def __init__(self, store: "GraphStore", node_id: int):
        self._store = store
        self._id = node_id

    @property
    def id(self) -> int:
        """The store-assigned node id."""
        return self._id

    @property
    def graph(self) -> "GraphStore":
        """The store this handle points into."""
        return self._store

    @property
    def labels(self) -> frozenset[str]:
        """The node's label set (empty for deleted nodes)."""
        return self._store.node_labels(self._id)

    @property
    def properties(self) -> Mapping[str, Any]:
        """Read-only view of the node's property map."""
        return MappingProxyType(self._store.node_properties(self._id))

    @property
    def is_deleted(self) -> bool:
        """True if the node has been deleted from the store."""
        return self._store.node_is_deleted(self._id)

    def get(self, key: str, default: Any = None) -> Any:
        """Property lookup; missing keys yield *default* (Cypher null)."""
        return self._store.node_properties(self._id).get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.get(key)

    def has_label(self, label: str) -> bool:
        """True if the node currently carries *label*."""
        return label in self.labels

    def degree(self) -> int:
        """Total number of attached relationships."""
        return self._store.degree(self._id)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Node)
            and other._id == self._id
            and other._store is self._store
        )

    def __hash__(self) -> int:
        return hash(("node", self._id))

    def __repr__(self) -> str:
        labels = "".join(f":{label}" for label in sorted(self.labels))
        props = dict(self.properties)
        inner = f"#{self._id}{labels}"
        if props:
            inner += f" {props!r}"
        return f"({inner})"


class Relationship:
    """Handle to a relationship in a :class:`GraphStore`."""

    __slots__ = ("_store", "_id")

    def __init__(self, store: "GraphStore", rel_id: int):
        self._store = store
        self._id = rel_id

    @property
    def id(self) -> int:
        """The store-assigned relationship id."""
        return self._id

    @property
    def graph(self) -> "GraphStore":
        """The store this handle points into."""
        return self._store

    @property
    def type(self) -> str:
        """The relationship type (tau)."""
        return self._store.rel_type(self._id)

    @property
    def start(self) -> Node:
        """Source node handle (src)."""
        return Node(self._store, self._store.rel_source(self._id))

    @property
    def end(self) -> Node:
        """Target node handle (tgt)."""
        return Node(self._store, self._store.rel_target(self._id))

    @property
    def properties(self) -> Mapping[str, Any]:
        """Read-only view of the relationship's property map."""
        return MappingProxyType(self._store.rel_properties(self._id))

    @property
    def is_deleted(self) -> bool:
        """True if the relationship has been deleted from the store."""
        return self._store.rel_is_deleted(self._id)

    def get(self, key: str, default: Any = None) -> Any:
        """Property lookup; missing keys yield *default*."""
        return self._store.rel_properties(self._id).get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.get(key)

    def other_end(self, node: Node) -> Node:
        """The endpoint that is not *node* (loops return *node*)."""
        source = self._store.rel_source(self._id)
        target = self._store.rel_target(self._id)
        return Node(self._store, target if node.id == source else source)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relationship)
            and other._id == self._id
            and other._store is self._store
        )

    def __hash__(self) -> int:
        return hash(("rel", self._id))

    def __repr__(self) -> str:
        props = dict(self.properties)
        inner = f"#{self._id}:{self.type}"
        if props:
            inner += f" {props!r}"
        return f"-[{inner}]->"


class Path:
    """An alternating sequence node, rel, node, ..., node.

    Paths are produced by named path patterns (``p = (a)-[r]->(b)``)
    and consumed by ``nodes()``, ``relationships()`` and ``length()``.
    """

    __slots__ = ("_nodes", "_relationships")

    def __init__(self, nodes: list[Node], relationships: list[Relationship]):
        if len(nodes) != len(relationships) + 1:
            raise ValueError(
                "a path of k relationships must have k+1 nodes, got "
                f"{len(nodes)} nodes and {len(relationships)} relationships"
            )
        self._nodes = tuple(nodes)
        self._relationships = tuple(relationships)

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes along the path, in order."""
        return self._nodes

    @property
    def relationships(self) -> tuple[Relationship, ...]:
        """All relationships along the path, in order."""
        return self._relationships

    @property
    def start(self) -> Node:
        """First node of the path."""
        return self._nodes[0]

    @property
    def end(self) -> Node:
        """Last node of the path."""
        return self._nodes[-1]

    def __len__(self) -> int:
        return len(self._relationships)

    def grouping_key(self) -> tuple:
        """Hashable identity key used for grouping and sorting."""
        return (
            tuple(n.id for n in self._nodes),
            tuple(r.id for r in self._relationships),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and other.grouping_key() == self.grouping_key()
        )

    def __hash__(self) -> int:
        return hash(("path", self.grouping_key()))

    def __repr__(self) -> str:
        parts = [repr(self._nodes[0])]
        for rel, node in zip(self._relationships, self._nodes[1:]):
            parts.append(repr(rel))
            parts.append(repr(node))
        return "".join(parts)


def _frozen_value(value: Any) -> Any:
    """A hashable stand-in for a property value (lists/maps nest).

    Equal for equal content: NaN gets a stand-in (``nan != nan``), and
    a boolean is tagged (``True == 1`` in Python, not in Cypher).
    """
    if isinstance(value, bool):
        return ("__bool__", value)
    if isinstance(value, float) and value != value:
        return ("__nan__",)
    if isinstance(value, list):
        return ("__list__",) + tuple(_frozen_value(item) for item in value)
    if isinstance(value, dict):
        return ("__map__",) + tuple(
            sorted((key, _frozen_value(item)) for key, item in value.items())
        )
    return value


@dataclass(frozen=True)
class GraphSnapshot:
    """An immutable copy of the formal tuple <N, R, src, tgt, iota, lambda, tau>.

    ``node_properties`` and ``rel_properties`` store only the *defined*
    keys; iota(x, k) = null for any absent key.  Snapshots are hashable
    by content (via :meth:`canonical_form`) and independent of any
    store, which makes them suitable for the pure reference semantics
    and for asserting determinism (same output up to id renaming).
    """

    nodes: frozenset[int]
    relationships: frozenset[int]
    source: Mapping[int, int] = field(default_factory=dict)
    target: Mapping[int, int] = field(default_factory=dict)
    labels: Mapping[int, frozenset[str]] = field(default_factory=dict)
    types: Mapping[int, str] = field(default_factory=dict)
    node_properties: Mapping[int, Mapping[str, Any]] = field(default_factory=dict)
    rel_properties: Mapping[int, Mapping[str, Any]] = field(default_factory=dict)

    def order(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def size(self) -> int:
        """Number of relationships."""
        return len(self.relationships)

    def node_signature(self, node_id: int) -> tuple:
        """Content signature of a node: (sorted labels, sorted properties)."""
        labels = tuple(sorted(self.labels.get(node_id, frozenset())))
        props = tuple(
            sorted(
                (key, _frozen_value(value))
                for key, value in self.node_properties.get(
                    node_id, {}
                ).items()
            )
        )
        return (labels, props)

    def rel_signature(self, rel_id: int) -> tuple:
        """Content signature of a relationship (excluding endpoints)."""
        props = tuple(
            sorted(
                (key, _frozen_value(value))
                for key, value in self.rel_properties.get(rel_id, {}).items()
            )
        )
        return (self.types[rel_id], props)

    def has_dangling(self) -> bool:
        """True if any relationship endpoint is not a node of the graph.

        A well-formed property graph never has dangling relationships;
        the legacy dialect can produce intermediate states where this
        returns True (Section 4.2 of the paper).
        """
        return any(
            self.source[r] not in self.nodes or self.target[r] not in self.nodes
            for r in self.relationships
        )
