"""The mutable property-graph store.

:class:`GraphStore` owns all node and relationship records, maintains
adjacency and indexes, and provides the features the paper's update
semantics needs from a storage layer:

* an **undo journal** giving statement-level atomicity: every mutation
  appends its inverse, :meth:`mark` / :meth:`rollback_to` bracket a
  statement, and a failed statement (e.g. a revised-dialect
  :class:`~repro.errors.PropertyConflictError`) leaves the graph
  untouched;

* the **commit protocol and the LSN**: :meth:`commit_statement` ends
  every successful transition the same way on every graph --
  durability hook (may veto), the one commit sequence number,
  observers, journal cut;

* **tombstones and a dangling mode** emulating the legacy Cypher 9
  behaviour of Section 4.2: a node may be deleted while relationships
  still point at it, the handle of a deleted node reports no labels and
  no properties, and later writes to it are rejected (the engine's
  legacy dialect turns that rejection into a silent no-op).

Deleted records are retained (with a tombstone flag) so that handles in
driving tables keep resolving and so rollback can resurrect them.

Storage layout
--------------

Entity ids are dense non-negative integers, so records live in
**columns indexed by id** rather than dicts of per-record objects:

* node labels are dictionary-encoded: each distinct label *set* is
  interned once (as a bitmask over :class:`~repro.graph.strings.StringPool`
  ids plus a shared ``frozenset`` of the label strings) and every node
  stores only a 4-byte label-set id in an ``array('i')``;
* relationship type / source / target are ``array('i')`` /
  ``array('q')`` / ``array('q')`` columns; tombstone flags are one byte
  per entity in a ``bytearray``;
* property maps stay ordinary dicts (they are the mutable, schemaless
  part), but their keys are canonicalised through the pool so
  homogeneous records share key objects, and the dict is allocated
  lazily (``None`` until the first property);
* adjacency is one :class:`_AdjacencyHalf` per (node, direction): a
  flat ``array('q')`` of live relationship ids grouped by type with a
  per-type offset table, each group kept id-sorted.  Typed expansion
  reads one contiguous slice; untyped reads the whole array; deleting
  the last relationship of a type removes its group entirely (no empty
  buckets linger).

A hole (an id that was never allocated, or whose creation was undone)
is encoded as ``-1`` in the label-set / type column.  Ids are never
reused, so columns only ever grow.
"""

from __future__ import annotations

import gc
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Container, Iterable, Iterator, Sequence

from repro.errors import (
    ConstraintViolationError,
    DanglingRelationshipError,
    DeletedEntityError,
    EntityNotFoundError,
    PersistenceError,
)
from repro.graph.counters import NO_COUNTERS, HitCounters
from repro.graph.indexes import LabelIndex, PropertyIndex
from repro.graph.model import GraphSnapshot, Node, Relationship
from repro.graph.strings import StringPool
from repro.graph.values import (
    grouping_key,
    is_storable,
    require_storable,
)

#: column hole marker: this id was never allocated (or was rolled back)
_HOLE = -1


def _check_properties(
    properties: dict[str, Any] | None, items: Sequence[tuple[str, Any, Any]]
) -> int:
    """Check a record's property map against evaluated pattern *items*.

    *items* are ``(key, compare, value)`` entries: *compare* is the one
    body of a comparison operator in :mod:`repro.graph.values` (``=``
    for a pattern map's entries), and an entry holds when
    ``compare(stored, value)`` is True -- an absent key is null, so it
    never holds.  Returns the number of keys read, negated when the
    last one read fails, which ends the check.
    """
    reads = 0
    for key, compare, value in items:
        reads += 1
        stored = properties.get(key) if properties else None
        if compare(stored, value) is not True:
            return -reads
    return reads


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector around a batch load.

    A :meth:`GraphStore.bulk_load` allocates a dict per row and creates
    no cycles; letting every generation-0 sweep rescan the growing
    columns costs 10-20 % of a load.  Its callers wrap the load (and
    the index build after it) in this.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _AdjacencyHalf:
    """Grouped adjacency for one node and one direction.

    ``rels`` is a flat ``array('q')`` of *live* relationship ids,
    grouped by type: group *g* holds type ``types[g]`` and spans
    ``rels[offsets[g]:offsets[g + 1]]``, sorted ascending.  Groups
    appear in first-seen order; a group whose last relationship is
    removed is compacted away immediately.
    """

    __slots__ = ("types", "offsets", "rels")

    def __init__(self) -> None:
        self.types = array("i")
        self.offsets = array("q", (0,))
        self.rels = array("q")

    def add(self, type_id: int, rel_id: int) -> None:
        """Insert *rel_id* into the *type_id* group (idempotent)."""
        types = self.types
        offsets = self.offsets
        rels = self.rels
        # Tail fast path: a new relationship id is larger than every
        # existing one, so creation usually appends to the last group.
        if types and types[-1] == type_id and rels[-1] <= rel_id:
            if rels[-1] != rel_id:
                rels.append(rel_id)
                offsets[-1] += 1
            return
        for group, existing in enumerate(types):
            if existing == type_id:
                low, high = offsets[group], offsets[group + 1]
                position = bisect_left(rels, rel_id, low, high)
                if position < high and rels[position] == rel_id:
                    return
                rels.insert(position, rel_id)
                for index in range(group + 1, len(offsets)):
                    offsets[index] += 1
                return
        types.append(type_id)
        rels.append(rel_id)
        offsets.append(len(rels))

    def discard(self, type_id: int, rel_id: int) -> None:
        """Remove *rel_id* from the *type_id* group; drop empty groups."""
        types = self.types
        offsets = self.offsets
        rels = self.rels
        for group, existing in enumerate(types):
            if existing == type_id:
                low, high = offsets[group], offsets[group + 1]
                position = bisect_left(rels, rel_id, low, high)
                if position >= high or rels[position] != rel_id:
                    return
                del rels[position]
                for index in range(group + 1, len(offsets)):
                    offsets[index] -= 1
                if offsets[group] == offsets[group + 1]:
                    del types[group]
                    del offsets[group + 1]
                return

    def degree(self) -> int:
        return len(self.rels)

    def typed_degree(self, type_id: int) -> int:
        offsets = self.offsets
        for group, existing in enumerate(self.types):
            if existing == type_id:
                return offsets[group + 1] - offsets[group]
        return 0

    def extend_all(self, out: list[int]) -> None:
        out.extend(self.rels)

    def group(self, type_id: int) -> list[int]:
        """The (ascending) relationship ids of the *type_id* group."""
        types = self.types
        if type_id not in types:
            return []
        group = types.index(type_id)
        return self.rels[self.offsets[group]:self.offsets[group + 1]].tolist()

    def extend_type(self, type_id: int, out: list[int]) -> None:
        out.extend(self.group(type_id))


class GraphStore:
    """In-memory property graph with journaled mutations."""

    def __init__(self) -> None:
        #: shared intern table for labels, types and property keys
        self._strings = StringPool()
        #: dictionary-encoded label sets: id -> bitmask over string ids
        #: and id -> shared frozenset of label strings; mask -> id
        self._labelset_masks: list[int] = [0]
        self._labelset_strings: list[frozenset[str]] = [frozenset()]
        self._labelset_ids: dict[int, int] = {0: 0}
        #: node columns, indexed by node id (_HOLE = no such node)
        self._node_labelsets = array("i")
        self._node_props: list[dict[str, Any] | None] = []
        self._node_deleted = bytearray()
        #: relationship columns, indexed by rel id (_HOLE = no such rel)
        self._rel_types = array("i")
        self._rel_source = array("q")
        self._rel_target = array("q")
        self._rel_props: list[dict[str, Any] | None] = []
        self._rel_deleted = bytearray()
        #: grouped adjacency arrays, one half per (node, direction);
        #: allocated on a node's first relationship
        self._adj_out: list[_AdjacencyHalf | None] = []
        self._adj_in: list[_AdjacencyHalf | None] = []
        self._next_node_id = 0
        self._next_rel_id = 0
        #: live-entity counters, maintained by every mutation and undo
        #: so the match planner's cardinality estimates are O(1)
        self._live_nodes = 0
        self._live_rels = 0
        self._label_index = LabelIndex()
        self._property_indexes: dict[tuple[str, str], PropertyIndex] = {}
        #: (label, key) pairs under a uniqueness constraint
        self._unique_constraints: set[tuple[str, str]] = set()
        #: undo journal: list of (op, *payload) tuples, applied in reverse
        self._journal: list[tuple] = []
        #: db-hit hooks; the shared no-op singleton unless profiling
        self.counters: HitCounters = NO_COUNTERS
        #: durability hook (write-ahead log); called with the redo-op
        #: list of every effective commit *before* it takes effect, and
        #: may veto it by raising
        self._commit_hook = None
        #: commit observers (incremental view maintenance); called with
        #: ``(lsn, ops)`` once the commit is final
        self._commit_observers: list = []
        #: the commit sequence number: advanced once per effective
        #: commit (statement, transaction or schema change), stamped on
        #: WAL records and checkpoints, restored by recovery
        self._lsn = 0
        #: open multi-statement transaction depth; while > 0 the
        #: per-statement commit defers to the transaction commit
        self._tx_depth = 0
        #: nesting depth of :meth:`reverted_to` snapshot-read brackets
        self._revert_depth = 0

    # ------------------------------------------------------------------
    # Profiling hooks
    # ------------------------------------------------------------------

    def install_counters(self, counters: HitCounters) -> None:
        """Route db-hit hooks (store + all indexes) to *counters*."""
        self.counters = counters
        self._label_index.counters = counters
        for index in self._property_indexes.values():
            index.counters = counters

    def reset_counters(self) -> None:
        """Restore the shared no-op counters (profiling off)."""
        self.install_counters(NO_COUNTERS)

    # ------------------------------------------------------------------
    # String interning
    # ------------------------------------------------------------------

    @property
    def string_pool(self) -> StringPool:
        """The shared label/type/property-key intern table."""
        return self._strings

    def _labelset_id(self, mask: int) -> int:
        """The label-set id for *mask*, interning the set if new."""
        labelset = self._labelset_ids.get(mask)
        if labelset is None:
            labelset = len(self._labelset_masks)
            self._labelset_ids[mask] = labelset
            self._labelset_masks.append(mask)
            text = self._strings.text
            labels = []
            remaining = mask
            while remaining:
                low = remaining & -remaining
                labels.append(text(low.bit_length() - 1))
                remaining ^= low
            self._labelset_strings.append(frozenset(labels))
        return labelset

    def _mask_of(self, labels: Iterable[str]) -> int:
        intern = self._strings.intern
        mask = 0
        for label in labels:
            mask |= 1 << intern(label)
        return mask

    def _canon_properties(
        self, properties: dict[str, Any] | None
    ) -> dict[str, Any] | None:
        """Validated copy of *properties* with pooled key objects."""
        if not properties:
            return None
        canon = self._strings.canon
        copied: dict[str, Any] = {}
        for key, value in properties.items():
            require_storable(value, key)
            copied[canon(key)] = value
        return copied

    def type_ids(self, types: Iterable[str]) -> list[int]:
        """Pool ids of *types*, skipping types never seen (no matches)."""
        id_of = self._strings.id_of
        ids = []
        for rel_type in types:
            type_id = id_of(rel_type)
            if type_id is not None:
                ids.append(type_id)
        return ids

    # ------------------------------------------------------------------
    # Record access helpers
    # ------------------------------------------------------------------

    def _require_node(self, node_id: int) -> int:
        """The label-set id of *node_id*, or EntityNotFoundError."""
        labelsets = self._node_labelsets
        if 0 <= node_id < len(labelsets):
            labelset = labelsets[node_id]
            if labelset != _HOLE:
                return labelset
        raise EntityNotFoundError(f"no node with id {node_id}")

    def _require_rel(self, rel_id: int) -> int:
        """The type id of *rel_id*, or EntityNotFoundError."""
        types = self._rel_types
        if 0 <= rel_id < len(types):
            type_id = types[rel_id]
            if type_id != _HOLE:
                return type_id
        raise EntityNotFoundError(f"no relationship with id {rel_id}")

    def _node_exists(self, node_id: int) -> bool:
        return (
            0 <= node_id < len(self._node_labelsets)
            and self._node_labelsets[node_id] != _HOLE
        )

    def _rel_exists(self, rel_id: int) -> bool:
        return (
            0 <= rel_id < len(self._rel_types)
            and self._rel_types[rel_id] != _HOLE
        )

    def _ensure_node_capacity(self, length: int) -> None:
        grow = length - len(self._node_labelsets)
        if grow > 0:
            self._node_labelsets.extend([_HOLE] * grow)
            self._node_props.extend([None] * grow)
            self._node_deleted.extend(b"\x00" * grow)
            self._adj_out.extend([None] * grow)
            self._adj_in.extend([None] * grow)

    def _ensure_rel_capacity(self, length: int) -> None:
        grow = length - len(self._rel_types)
        if grow > 0:
            self._rel_types.extend([_HOLE] * grow)
            self._rel_source.extend([0] * grow)
            self._rel_target.extend([0] * grow)
            self._rel_props.extend([None] * grow)
            self._rel_deleted.extend(b"\x00" * grow)

    def _out_half(self, node_id: int) -> _AdjacencyHalf:
        half = self._adj_out[node_id]
        if half is None:
            half = self._adj_out[node_id] = _AdjacencyHalf()
        return half

    def _in_half(self, node_id: int) -> _AdjacencyHalf:
        half = self._adj_in[node_id]
        if half is None:
            half = self._adj_in[node_id] = _AdjacencyHalf()
        return half

    # ------------------------------------------------------------------
    # Handle-facing accessors
    # ------------------------------------------------------------------

    def node_labels(self, node_id: int) -> frozenset[str]:
        """Labels of a node; deleted nodes report the empty set.

        The returned ``frozenset`` is the interned label set shared by
        every node with the same labels -- treat it as immutable.
        """
        self.counters.node_read()
        labelset = self._require_node(node_id)
        if self._node_deleted[node_id]:
            return self._labelset_strings[0]
        return self._labelset_strings[labelset]

    def node_properties(self, node_id: int) -> dict[str, Any]:
        """Property map of a node; deleted nodes report an empty map."""
        self.counters.property_read()
        self._require_node(node_id)
        if self._node_deleted[node_id]:
            return {}
        properties = self._node_props[node_id]
        return {} if properties is None else properties

    def node_is_deleted(self, node_id: int) -> bool:
        """True if the node exists as a tombstone."""
        self._require_node(node_id)
        return bool(self._node_deleted[node_id])

    def rel_type(self, rel_id: int) -> str:
        """Type of a relationship (kept even on tombstones)."""
        return self._strings.text(self._require_rel(rel_id))

    def rel_source(self, rel_id: int) -> int:
        """Source node id of a relationship."""
        self._require_rel(rel_id)
        return self._rel_source[rel_id]

    def rel_target(self, rel_id: int) -> int:
        """Target node id of a relationship."""
        self._require_rel(rel_id)
        return self._rel_target[rel_id]

    def rel_properties(self, rel_id: int) -> dict[str, Any]:
        """Property map of a relationship; empty when deleted."""
        self.counters.property_read()
        self._require_rel(rel_id)
        if self._rel_deleted[rel_id]:
            return {}
        properties = self._rel_props[rel_id]
        return {} if properties is None else properties

    def rel_is_deleted(self, rel_id: int) -> bool:
        """True if the relationship exists as a tombstone."""
        self._require_rel(rel_id)
        return bool(self._rel_deleted[rel_id])

    def has_node(self, node_id: int) -> bool:
        """True if *node_id* refers to a live node."""
        return self._node_exists(node_id) and not self._node_deleted[node_id]

    def has_relationship(self, rel_id: int) -> bool:
        """True if *rel_id* refers to a live relationship."""
        return self._rel_exists(rel_id) and not self._rel_deleted[rel_id]

    def node(self, node_id: int) -> Node:
        """Handle for a node id (which must exist, possibly deleted)."""
        self.counters.node_read()
        self._require_node(node_id)
        return Node(self, node_id)

    def relationship(self, rel_id: int) -> Relationship:
        """Handle for a relationship id (must exist, possibly deleted)."""
        self.counters.rel_read()
        self._require_rel(rel_id)
        return Relationship(self, rel_id)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """All live nodes, in id order (deterministic scans)."""
        counters = self.counters
        labelsets = self._node_labelsets
        deleted = self._node_deleted
        for node_id in range(len(labelsets)):
            if labelsets[node_id] != _HOLE and not deleted[node_id]:
                counters.node_read()
                yield Node(self, node_id)

    def relationships(self) -> Iterator[Relationship]:
        """All live relationships, in id order."""
        counters = self.counters
        types = self._rel_types
        deleted = self._rel_deleted
        for rel_id in range(len(types)):
            if types[rel_id] != _HOLE and not deleted[rel_id]:
                counters.rel_read()
                yield Relationship(self, rel_id)

    def node_count(self) -> int:
        """Number of live nodes (O(1), counter-maintained)."""
        return self._live_nodes

    def relationship_count(self) -> int:
        """Number of live relationships (O(1), counter-maintained)."""
        return self._live_rels

    def next_ids(self) -> tuple[int, int]:
        """The next node id and relationship id the allocators hand out."""
        return self._next_node_id, self._next_rel_id

    def reserve_ids(self, next_node_id: int, next_rel_id: int) -> None:
        """Advance the allocators to at least these positions.

        Restoring a checkpoint calls this so ids of entities deleted
        before the snapshot are never handed out again.
        """
        self._next_node_id = max(self._next_node_id, next_node_id)
        self._next_rel_id = max(self._next_rel_id, next_rel_id)

    def has_records(self) -> bool:
        """True if any node or relationship record exists (tombstones too)."""
        return any(ls != _HOLE for ls in self._node_labelsets) or any(
            t != _HOLE for t in self._rel_types
        )

    # ------------------------------------------------------------------
    # Planner statistics
    #
    # Cheap, always-current summary counts the match planner uses for
    # selectivity estimates.  All of them read maintained structures
    # (live-entity counters, label-index buckets, live adjacency
    # arrays), so none of them scans and none of them touches the
    # journal -- rollback keeps them correct because the same
    # mutation/undo paths that maintain the structures maintain these
    # counts.
    # ------------------------------------------------------------------

    def label_count(self, label: str) -> int:
        """Number of live nodes carrying *label* (O(1), no db-hit)."""
        return self._label_index.count(label)

    def out_degree(
        self, node_id: int, types: tuple[str, ...] | None = None
    ) -> int:
        """Live outgoing degree of *node_id*, optionally per type (O(1)).

        The adjacency arrays hold live relationships only (deletion
        discards, rollback re-adds), so the length is the degree --
        no filtering pass and no set materialisation.
        """
        if not 0 <= node_id < len(self._adj_out):
            return 0
        half = self._adj_out[node_id]
        if half is None:
            return 0
        if types is None:
            return half.degree()
        return sum(half.typed_degree(t) for t in self.type_ids(types))

    def in_degree(
        self, node_id: int, types: tuple[str, ...] | None = None
    ) -> int:
        """Live incoming degree of *node_id*, optionally per type (O(1))."""
        if not 0 <= node_id < len(self._adj_in):
            return 0
        half = self._adj_in[node_id]
        if half is None:
            return 0
        if types is None:
            return half.degree()
        return sum(half.typed_degree(t) for t in self.type_ids(types))

    def degree(
        self, node_id: int, types: tuple[str, ...] | None = None
    ) -> int:
        """Number of live relationships attached to *node_id* (O(1))."""
        return self.out_degree(node_id, types) + self.in_degree(
            node_id, types
        )

    # ------------------------------------------------------------------
    # Candidate enumeration
    #
    # The read surface has one body per question: node_access decides
    # where a node pattern's candidates come from, adjacent_rel_ids
    # lists the relationships at a node, and the id-level kernels
    # (node_matches, match_nodes, expand) test candidates against the
    # columns, so a candidate stays an integer until it is accepted.
    # ------------------------------------------------------------------

    def node_access(
        self,
        labels: Iterable[str],
        items: Sequence[tuple[str, Any]] = (),
        *,
        fetch: bool = False,
    ) -> tuple[float, str, list[int] | None]:
        """The access path of a node pattern ``(:labels {items})``.

        Picks the smallest live bucket among the label buckets and the
        buckets of the usable ``:label(key)`` indexes -- ties go to the
        later source, an index before a label -- falling back to all
        nodes, and returns ``(size, description, ids)``.

        *items* are the pattern's equality entries only, each a
        ``(key, value)`` pair or a ``(key, compare, value)`` entry of
        :meth:`node_matches` (the key first, the value last): a range
        comparison filters candidates (:meth:`match_nodes`) but never
        chooses a bucket.  Without *fetch* this is the planner's
        estimate: values are not read, and an index is sized at its
        average bucket (at least 1).  Sizing reads statistics only: no
        db-hit.

        With *fetch*, an index is sized at its value's bucket and
        ``ids`` is a fresh ascending list of the chosen bucket's node
        ids (one ``index_lookup`` db-hit) -- a superset of the
        pattern's matches, which the caller filters -- or ``None`` when
        nothing narrows the pattern and the caller scans every live
        node.
        """
        size: float = self._live_nodes
        description = "all nodes"
        source: LabelIndex | PropertyIndex | None = None
        probe: Any = None
        label_index = self._label_index
        for label in labels:
            count = label_index.count(label)
            if count <= size:
                size, description = count, f"label scan :{label}"
                source, probe = label_index, label
        if items and self._property_indexes:
            for label in labels:
                for entry in items:
                    key = entry[0]
                    index = self._property_indexes.get((label, key))
                    if index is None:
                        continue
                    if fetch:
                        estimate = index.bucket_size(entry[-1])
                    else:
                        estimate = max(1.0, index.average_bucket_size())
                    if estimate <= size:
                        size, description = estimate, f"index :{label}({key})"
                        source, probe = index, entry[-1]
        ids = None
        if fetch and source is not None:
            ids = source.ids(probe)
        return size, description, ids

    def adjacent_rel_ids(
        self,
        node_id: int,
        *,
        outgoing: bool = True,
        incoming: bool = True,
        types: tuple[str, ...] | None = None,
    ) -> list[int]:
        """Live relationship ids at *node_id*, ascending, in one pass.

        This is the one adjacency enumerator: it reads the
        grouped adjacency arrays (the same structures :meth:`degree`
        counts) directly into a single sorted list -- typed steps read
        one contiguous slice per requested type, untyped steps read the
        whole flat array.  Self-loops (present in both directions) and
        repeated type names are emitted once.
        """
        return self._adjacent(
            node_id,
            outgoing,
            incoming,
            None if types is None else self.type_ids(types),
        )

    def _adjacent(
        self,
        node_id: int,
        outgoing: bool,
        incoming: bool,
        type_ids: Sequence[int] | None,
    ) -> list[int]:
        """:meth:`adjacent_rel_ids` over resolved type ids (None = any)."""
        if not 0 <= node_id < len(self._adj_out):
            return []
        if outgoing != incoming and type_ids is not None and len(type_ids) == 1:
            # One type of one direction is one ascending slice: nothing
            # to merge, no self-loop or repeated type to emit once.
            half = (self._adj_out if outgoing else self._adj_in)[node_id]
            return [] if half is None else half.group(type_ids[0])
        ids: list[int] = []
        for half in (
            self._adj_out[node_id] if outgoing else None,
            self._adj_in[node_id] if incoming else None,
        ):
            if half is None:
                continue
            if type_ids is None:
                ids.extend(half.rels)
            else:
                for type_id in type_ids:
                    half.extend_type(type_id, ids)
        ids.sort()
        deduped: list[int] = []
        previous = None
        for rel_id in ids:
            if rel_id != previous:
                deduped.append(rel_id)
                previous = rel_id
        return deduped

    def label_mask(self, labels: Iterable[str]) -> int:
        """The bitmask a node's label set must cover to carry *labels*.

        0 for no labels; -1 -- covered by no label set -- when a label
        was never interned, so the caller resolves a pattern's labels
        once instead of per candidate.
        """
        id_of = self._strings.id_of
        mask = 0
        for label in labels:
            label_id = id_of(label)
            if label_id is None:
                return -1
            mask |= 1 << label_id
        return mask

    def node_matches(
        self,
        node_id: int,
        mask: int,
        items: Sequence[tuple[str, Any, Any]] | None,
    ) -> bool:
        """Does node *node_id* carry the labels in *mask* and pass *items*?

        *mask* comes from :meth:`label_mask`, *items* are evaluated
        ``(key, compare, value)`` entries (:func:`_check_properties`).
        The node must exist; a tombstone has no labels and no
        properties, as :meth:`node_labels` / :meth:`node_properties`
        report.  Db-hits: one node read for the label set (if any label
        is asked for) and one property read per key compared, up to the
        first that fails.
        """
        deleted = self._node_deleted[node_id]
        if mask:
            self.counters.node_read()
            labelset = 0 if deleted else self._node_labelsets[node_id]
            if self._labelset_masks[labelset] & mask != mask:
                return False
        if items:
            reads = _check_properties(
                None if deleted else self._node_props[node_id], items
            )
            self.counters.property_read(reads if reads > 0 else -reads)
            return reads > 0
        return True

    def match_nodes(
        self,
        ids: Iterable[int] | None,
        mask: int,
        items: Sequence[tuple[str, Any, Any]] | None,
    ) -> Iterator[int]:
        """The nodes among *ids* that pass :meth:`node_matches`, lazily.

        *ids* is what :meth:`node_access` fetched (None = every live
        node, ascending).  One node read per candidate fetched, plus
        the check's own db-hits.
        """
        if ids is None:
            labelsets = self._node_labelsets
            deleted = self._node_deleted
            ids = (
                node_id
                for node_id in range(len(labelsets))
                if labelsets[node_id] != _HOLE and not deleted[node_id]
            )
        counters = self.counters
        unconstrained = not mask and not items
        matches = self.node_matches
        for node_id in ids:
            counters.node_read()
            if unconstrained or matches(node_id, mask, items):
                yield node_id

    def expand(
        self,
        node_id: int,
        outgoing: bool,
        incoming: bool,
        type_ids: Sequence[int] | None,
        items: Sequence[tuple[str, Any, Any]] | None,
        used: Container[int],
        *,
        rel_ids: Iterable[int] | None = None,
        end: int | None = None,
        end_mask: int = 0,
        end_items: Sequence[tuple[str, Any, Any]] | None = None,
    ) -> Iterator[tuple[int, int]]:
        """One relationship step from *node_id*: ``(rel id, other end)``.

        Enumerates the adjacency (:meth:`adjacent_rel_ids` over
        resolved *type_ids*, ascending, a self-loop once) -- or the
        given *rel_ids*, which are then also checked for type and for
        being attached to *node_id* in the requested direction -- and
        lazily yields the relationships that are not in *used*, pass
        the evaluated *items* (:func:`_check_properties`), and lead to
        a node that is *end* (if given) and passes :meth:`node_matches`
        on *end_mask* / *end_items*.  Db-hits: one relationship read per
        candidate not in *used*, one property read per key compared,
        plus the node check's own.
        """
        given = rel_ids is not None
        if given:
            for rel_id in rel_ids:
                self._require_rel(rel_id)
        else:
            rel_ids = self._adjacent(node_id, outgoing, incoming, type_ids)
        counters = self.counters
        sources = self._rel_source
        targets = self._rel_target
        check_type = given and type_ids is not None
        check_end = bool(end_mask or end_items)
        matches = self.node_matches
        for rel_id in rel_ids:
            if rel_id in used:
                continue
            counters.rel_read()
            if check_type and self._rel_types[rel_id] not in type_ids:
                continue
            source = sources[rel_id]
            if outgoing and source == node_id:
                other = targets[rel_id]
            elif incoming and targets[rel_id] == node_id:
                other = source
            else:
                continue
            if items:
                reads = _check_properties(
                    None
                    if self._rel_deleted[rel_id]
                    else self._rel_props[rel_id],
                    items,
                )
                counters.property_read(reads if reads > 0 else -reads)
                if reads < 0:
                    continue
            if end is not None and other != end:
                continue
            if check_end and not matches(other, end_mask, end_items):
                continue
            yield rel_id, other

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------

    def mark(self) -> int:
        """Return a journal position to later :meth:`rollback_to`."""
        return len(self._journal)

    def rollback_to(self, mark: int) -> None:
        """Undo every mutation recorded after *mark*, newest first."""
        while len(self._journal) > mark:
            entry = self._journal.pop()
            self._undo(entry)

    def commit_to(self, mark: int) -> None:
        """Forget undo information back to *mark* (keep the changes)."""
        del self._journal[mark:]

    def journal_length(self) -> int:
        """Current journal size (diagnostics / tests)."""
        return len(self._journal)

    @contextmanager
    def reverted_to(self, mark: int) -> Iterator["GraphStore"]:
        """Temporarily rewind the store to *mark*; restore on exit.

        This is the snapshot read path for concurrent sessions: while
        one session holds an open transaction with uncommitted writes,
        a read statement from another session executes inside this
        bracket and observes exactly the last *committed* state.  The
        undo journal supplies the rewind; the redo operations (derived
        from the current record state before rewinding, the same
        mechanism the write-ahead log uses) replay the uncommitted
        changes afterwards, and the saved journal slice is re-attached
        so the open transaction can still roll back later.

        The bracketed code must not mutate the graph.  If it does
        anyway, its changes are undone before the open transaction's
        state is restored, so the store never ends up interleaved.
        """
        if mark > len(self._journal):
            raise PersistenceError(
                f"cannot revert to mark {mark}: journal only has "
                f"{len(self._journal)} entries"
            )
        redo = self.redo_ops(mark)
        saved = list(self._journal[mark:])
        self.rollback_to(mark)
        self._revert_depth += 1
        try:
            yield self
        finally:
            self._revert_depth -= 1
            # A write that slipped through the read-only guard would
            # corrupt the restore; undo it first (never interleave).
            if len(self._journal) > mark:
                self.rollback_to(mark)
            for op in redo:
                self.apply_redo(op)
            self._journal.extend(saved)

    # ------------------------------------------------------------------
    # The commit protocol
    # ------------------------------------------------------------------

    def set_commit_hook(self, hook) -> None:
        """Install (or, with ``None``, remove) the durability hook.

        The hook is called with the list of serializable redo
        operations of every effective commit, before the commit takes
        effect; raising vetoes the commit (see :meth:`commit_statement`).
        """
        self._commit_hook = hook

    def commit_hook(self):
        """The installed durability hook, or ``None``."""
        return self._commit_hook

    def add_commit_observer(self, observer) -> None:
        """Register a commit observer.

        Observers are called with ``(lsn, ops)`` after every effective
        commit -- schema changes included -- once the durability hook
        accepted it.  Rolled-back transactions, vetoed commits and
        snapshot reads never reach an observer.
        """
        self._commit_observers.append(observer)

    def remove_commit_observer(self, observer) -> None:
        """Detach a commit observer (no-op when absent)."""
        try:
            self._commit_observers.remove(observer)
        except ValueError:
            pass

    @property
    def lsn(self) -> int:
        """The commit sequence number (one per effective commit).

        The one number line shared by WAL records, checkpoint headers,
        durability waits and view results.
        """
        return self._lsn

    def restore_lsn(self, lsn: int) -> None:
        """Advance the commit sequence number to at least *lsn*.

        Recovery calls this with the checkpoint's stamp and with every
        replayed record's LSN, so the sequence continues where the
        previous process stopped.
        """
        self._lsn = max(self._lsn, lsn)

    @property
    def in_reverted_read(self) -> bool:
        """True while inside a :meth:`reverted_to` snapshot bracket.

        The view registry consults this before refreshing: a refresh
        against the rewound state would consume pending redo batches
        at the wrong store state and publish half-applied view state
        to snapshot readers.
        """
        return self._revert_depth > 0

    def in_transaction(self) -> bool:
        """True while a multi-statement transaction is open."""
        return self._tx_depth > 0

    def begin_transaction(self) -> int:
        """Open a transaction scope; returns its rollback mark.

        Statement commits are deferred while the scope is open, so the
        journal keeps every entry after the mark.
        """
        self._tx_depth += 1
        return self.mark()

    def commit_transaction(self, mark: int) -> None:
        """Close a transaction scope, committing its changes as one."""
        self._tx_depth = max(0, self._tx_depth - 1)
        self.commit_statement(mark)

    def rollback_transaction(self, mark: int) -> None:
        """Close a transaction scope, undoing its changes.

        Nothing was committed (the per-statement commit is deferred
        while the transaction is open), so nobody ever hears of them.
        """
        self._tx_depth = max(0, self._tx_depth - 1)
        self.rollback_to(mark)

    def commit_statement(self, mark: int) -> None:
        """Commit ``journal[mark:]``: the one way a transition ends.

        Deferred while a transaction is open (the transaction commit
        covers every statement at once, and a transaction rollback
        means none of them ever existed).  Otherwise, in this order:

        1. nothing to do when the slice is empty (reads, no-op writes);
        2. the redo ops are derived, if anybody is listening;
        3. the durability hook runs and may veto by raising -- the
           slice is rolled back (the whole transaction when called
           from :meth:`commit_transaction`), the LSN stays, observers
           hear nothing, and the error propagates;
        4. the LSN advances;
        5. ``(lsn, ops)`` goes to every observer;
        6. the slice is cut from the journal: committed work cannot be
           rolled back.
        """
        if not self._tx_depth:
            self._commit(mark)

    def _commit(self, mark: int, schema_op: tuple | None = None) -> None:
        """Run the commit sequence for ``journal[mark:]`` (+ *schema_op*).

        Schema changes are unjournaled, so their mutators pass the op
        here *before* applying it: a veto then leaves nothing to undo.
        They commit on their own even inside an open transaction.
        """
        journal = self._journal
        if len(journal) == mark and schema_op is None:
            return
        hook = self._commit_hook
        observers = tuple(self._commit_observers)
        ops = None
        if hook is not None or observers:
            ops = self.redo_ops(mark)
            if schema_op is not None:
                ops.append(schema_op)
        if hook is not None:
            try:
                hook(ops)
            except BaseException:
                # Not logged means not committed: memory keeps
                # matching what a reopen would recover.
                self.rollback_to(mark)
                raise
        self._lsn += 1
        for observer in observers:
            observer(self._lsn, ops)
        del journal[mark:]

    def _commit_schema(self, kind: str, label: str, key: str) -> None:
        self._commit(len(self._journal), (kind, label, key))

    def redo_ops(self, mark: int = 0) -> list[tuple]:
        """Serializable redo equivalents of ``journal[mark:]``.

        Journal entries carry *undo* information only, but every store
        mutation is absolute (set-value, never incremental) and this
        runs synchronously at commit time, so the current record state
        supplies the redo values: replaying each entry with the final
        value converges to the committed state even when one property
        was written several times inside the statement.  Property
        removal is encoded as ``None`` (storable values are never
        null), keeping every operation JSON-serializable.
        """
        ops: list[tuple] = []
        for entry in self._journal[mark:]:
            kind, entity_id = entry[0], entry[1]
            if kind == "create_node":
                ops.append(
                    (
                        kind,
                        entity_id,
                        sorted(
                            self._labelset_strings[
                                self._node_labelsets[entity_id]
                            ]
                        ),
                        dict(self._node_props[entity_id] or ()),
                    )
                )
            elif kind == "create_rel":
                ops.append(
                    (
                        kind,
                        entity_id,
                        self._strings.text(self._rel_types[entity_id]),
                        self._rel_source[entity_id],
                        self._rel_target[entity_id],
                        dict(self._rel_props[entity_id] or ()),
                    )
                )
            elif kind == "set_node_prop" or kind == "set_rel_prop":
                column = (
                    self._node_props
                    if kind == "set_node_prop"
                    else self._rel_props
                )
                properties = column[entity_id]
                ops.append(
                    (
                        kind,
                        entity_id,
                        entry[2],
                        None
                        if properties is None
                        else properties.get(entry[2]),
                    )
                )
            else:
                # Deletes and label changes carry no values: the
                # journal entry already is the redo operation.
                ops.append(entry)
        return ops

    def change_counts(self, mark: int = 0) -> dict[str, int]:
        """How many journaled mutations of each redo kind follow *mark*."""
        counts: dict[str, int] = {}
        for entry in self._journal[mark:]:
            counts[entry[0]] = counts.get(entry[0], 0) + 1
        return counts

    def deleted_node_ids(self, mark: int = 0) -> list[int]:
        """Ids of the nodes deleted after *mark*, in journal order."""
        return [
            entry[1]
            for entry in self._journal[mark:]
            if entry[0] == "delete_node"
        ]

    def apply_redo(self, op: tuple) -> None:
        """Re-apply one redo operation with its original ids (recovery).

        Runs the same transition kernels as the public mutators, minus
        journaling, committing and constraint enforcement: the
        operations were validated when first committed, and recovery
        must reproduce the exact entity ids and final state, including
        any tombstones created by later deletes.  The id counters are
        bumped past every restored id so new allocations never collide;
        the LSN is the caller's to hand back (:meth:`restore_lsn`).
        """
        kind = op[0]
        if kind == "create_node":
            __, node_id, labels, properties = op
            self._put_node(
                node_id, labels, self._canon_properties(properties)
            )
        elif kind == "create_rel":
            __, rel_id, rel_type, source, target, properties = op
            self._put_rel(
                rel_id,
                self._strings.intern(rel_type),
                source,
                target,
                self._canon_properties(properties),
            )
        elif kind == "delete_node":
            self._require_node(op[1])
            if not self._node_deleted[op[1]]:
                self._bury_node(op[1])
        elif kind == "delete_rel":
            self._require_rel(op[1])
            if not self._rel_deleted[op[1]]:
                self._bury_rel(op[1])
        elif kind == "add_label" or kind == "remove_label":
            self._require_node(op[1])
            self._set_label_bit(op[1], op[2], kind == "add_label")
        elif kind == "set_node_prop":
            self._require_node(op[1])
            self._write_node_prop(op[1], op[2], op[3])
        elif kind == "set_rel_prop":
            self._require_rel(op[1])
            self._write_prop(self._rel_props, op[1], op[2], op[3])
        elif kind == "create_index" or kind == "create_constraint":
            index = self._property_indexes.get((op[1], op[2]))
            if index is None:
                index = self._put_index(op[1], op[2])
            if kind == "create_constraint":
                self._require_distinct(index)
                self._unique_constraints.add((op[1], op[2]))
        elif kind == "drop_index":
            self._property_indexes.pop((op[1], op[2]), None)
        elif kind == "drop_constraint":
            self._unique_constraints.discard((op[1], op[2]))
        else:
            raise PersistenceError(f"unknown redo op {kind!r}")

    def _record(self, entry: tuple) -> None:
        """Journal one mutation (the write-counting choke point).

        An entry is ``(redo kind, entity id, *undo payload)``: the
        label for label changes, ``(key, previous value)`` for property
        writes (``None`` = the key was absent).
        """
        self.counters.write()
        self._journal.append(entry)

    def _undo(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "create_node":
            self._unput_node(entry[1])
        elif kind == "create_rel":
            self._unput_rel(entry[1])
        elif kind == "delete_node":
            self._revive_node(entry[1])
        elif kind == "delete_rel":
            self._revive_rel(entry[1])
        elif kind == "add_label" or kind == "remove_label":
            self._set_label_bit(entry[1], entry[2], kind == "remove_label")
        elif kind == "set_node_prop":
            self._write_node_prop(entry[1], entry[2], entry[3])
        elif kind == "set_rel_prop":
            self._write_prop(self._rel_props, entry[1], entry[2], entry[3])
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown journal entry {kind!r}")

    # ------------------------------------------------------------------
    # Transition kernels
    #
    # One body per state transition.  These are the only code (besides
    # bulk_load) that writes the columns, the label and property
    # indexes, the adjacency arrays and the live counters; the public
    # mutators, journal undo and redo replay all go through them, so a
    # replica replaying the log runs exactly what the primary ran.
    # Kernels validate nothing and journal nothing.
    # ------------------------------------------------------------------

    def _put_node(
        self,
        node_id: int,
        labels: Iterable[str],
        properties: dict[str, Any] | None,
    ) -> None:
        """Write the row of a new live node (*properties* pre-pooled)."""
        self._ensure_node_capacity(node_id + 1)
        self._node_labelsets[node_id] = self._labelset_id(
            self._mask_of(labels)
        )
        self._node_props[node_id] = properties
        if node_id >= self._next_node_id:
            self._next_node_id = node_id + 1
        self._revive_node(node_id)

    def _unput_node(self, node_id: int) -> None:
        """Turn a live node's row back into a hole (undo of a create)."""
        self._bury_node(node_id)
        self._node_labelsets[node_id] = _HOLE
        self._node_props[node_id] = None
        self._node_deleted[node_id] = 0
        self._adj_out[node_id] = None
        self._adj_in[node_id] = None

    def _bury_node(self, node_id: int) -> None:
        """Set a live node's tombstone: it leaves counters and indexes."""
        self._node_deleted[node_id] = 1
        self._live_nodes -= 1
        self._label_index.remove(
            node_id, self._labelset_strings[self._node_labelsets[node_id]]
        )
        self._deindex_node(node_id)

    def _revive_node(self, node_id: int) -> None:
        """Clear a node's tombstone: it rejoins counters and indexes."""
        self._node_deleted[node_id] = 0
        self._live_nodes += 1
        self._label_index.add(
            node_id, self._labelset_strings[self._node_labelsets[node_id]]
        )
        self._reindex_node(node_id)

    def _put_rel(
        self,
        rel_id: int,
        type_id: int,
        source: int,
        target: int,
        properties: dict[str, Any] | None,
    ) -> None:
        """Write the row of a new live relationship."""
        self._ensure_rel_capacity(rel_id + 1)
        self._ensure_node_capacity(max(source, target) + 1)
        self._rel_types[rel_id] = type_id
        self._rel_source[rel_id] = source
        self._rel_target[rel_id] = target
        self._rel_props[rel_id] = properties
        if rel_id >= self._next_rel_id:
            self._next_rel_id = rel_id + 1
        self._revive_rel(rel_id)

    def _unput_rel(self, rel_id: int) -> None:
        """Turn a live relationship's row back into a hole."""
        self._bury_rel(rel_id)
        self._rel_types[rel_id] = _HOLE
        self._rel_props[rel_id] = None
        self._rel_deleted[rel_id] = 0

    def _bury_rel(self, rel_id: int) -> None:
        """Set a live relationship's tombstone; it leaves adjacency."""
        self._rel_deleted[rel_id] = 1
        self._live_rels -= 1
        type_id = self._rel_types[rel_id]
        half = self._adj_out[self._rel_source[rel_id]]
        if half is not None:
            half.discard(type_id, rel_id)
        half = self._adj_in[self._rel_target[rel_id]]
        if half is not None:
            half.discard(type_id, rel_id)

    def _revive_rel(self, rel_id: int) -> None:
        """Clear a relationship's tombstone; it rejoins adjacency."""
        self._rel_deleted[rel_id] = 0
        self._live_rels += 1
        type_id = self._rel_types[rel_id]
        self._out_half(self._rel_source[rel_id]).add(type_id, rel_id)
        self._in_half(self._rel_target[rel_id]).add(type_id, rel_id)

    def _set_label_bit(self, node_id: int, label: str, present: bool) -> bool:
        """Set or clear one label of a node; False if nothing changed."""
        mask = self._labelset_masks[self._node_labelsets[node_id]]
        bit = 1 << self._strings.intern(label)
        if bool(mask & bit) == present:
            return False
        self._node_labelsets[node_id] = self._labelset_id(mask ^ bit)
        if not self._node_deleted[node_id]:
            if present:
                self._label_index.add(node_id, (label,))
            else:
                self._label_index.remove(node_id, (label,))
            self._reindex_node(node_id)
        return True

    def _write_prop(
        self,
        column: list[dict[str, Any] | None],
        entity_id: int,
        key: str,
        value: Any,
    ) -> Any:
        """Set *key* in a property column (``None`` removes it).

        Returns the previous value, ``None`` if the key was absent.
        """
        properties = column[entity_id]
        old = None if properties is None else properties.get(key)
        if value is None:
            if old is not None:
                del properties[key]
        elif properties is None:
            column[entity_id] = {self._strings.canon(key): value}
        else:
            properties[self._strings.canon(key)] = value
        return old

    def _write_node_prop(self, node_id: int, key: str, value: Any) -> Any:
        """:meth:`_write_prop` on a node, keeping its indexes current."""
        old = self._write_prop(self._node_props, node_id, key, value)
        self._reindex_node(node_id, only_key=key)
        return old

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str] = (),
        properties: dict[str, Any] | None = None,
    ) -> int:
        """Create a node; returns its id."""
        labels = tuple(labels)
        pooled = self._canon_properties(properties)
        mark = self.mark()
        node_id = self._next_node_id
        self._put_node(node_id, labels, pooled)
        self._record(("create_node", node_id))
        self._enforce_unique(node_id, mark)
        return node_id

    def create_relationship(
        self,
        rel_type: str,
        source: int,
        target: int,
        properties: dict[str, Any] | None = None,
    ) -> int:
        """Create a relationship between two live nodes; returns its id."""
        if not rel_type:
            raise ConstraintViolationError(
                "every relationship must have a type"
            )
        if not self.has_node(source):
            raise EntityNotFoundError(
                f"cannot create relationship: source node {source} "
                f"does not exist or is deleted"
            )
        if not self.has_node(target):
            raise EntityNotFoundError(
                f"cannot create relationship: target node {target} "
                f"does not exist or is deleted"
            )
        pooled = self._canon_properties(properties)
        rel_id = self._next_rel_id
        self._put_rel(
            rel_id, self._strings.intern(rel_type), source, target, pooled
        )
        self._record(("create_rel", rel_id))
        return rel_id

    def delete_relationship(self, rel_id: int) -> None:
        """Delete a relationship (idempotent on tombstones)."""
        self._require_rel(rel_id)
        if self._rel_deleted[rel_id]:
            return
        self._bury_rel(rel_id)
        self._record(("delete_rel", rel_id))

    def delete_node(self, node_id: int, *, allow_dangling: bool = False) -> None:
        """Delete a node.

        With ``allow_dangling=False`` (the well-formed behaviour) the
        node must have no live relationships; otherwise
        :class:`DanglingRelationshipError` is raised.  With
        ``allow_dangling=True`` (legacy emulation) the node is removed
        even though relationships still point at it, producing exactly
        the illegal intermediate state described in Section 4.2.
        """
        self._require_node(node_id)
        if self._node_deleted[node_id]:
            return
        if not allow_dangling:
            attached = self.adjacent_rel_ids(node_id)
            if attached:
                raise DanglingRelationshipError(node_id, attached)
        self._bury_node(node_id)
        self._record(("delete_node", node_id))

    def add_label(self, node_id: int, label: str) -> None:
        """Add a label to a live node (no-op if already present)."""
        self._require_live_node(node_id)
        mark = self.mark()
        if self._set_label_bit(node_id, label, True):
            self._record(("add_label", node_id, label))
            self._enforce_unique(node_id, mark)

    def remove_label(self, node_id: int, label: str) -> None:
        """Remove a label from a live node (no-op if absent)."""
        self._require_live_node(node_id)
        if self._set_label_bit(node_id, label, False):
            self._record(("remove_label", node_id, label))

    def set_node_property(self, node_id: int, key: str, value: Any) -> None:
        """Set (or, with value=None, remove) a node property."""
        self._require_live_node(node_id)
        if value is not None:
            require_storable(value, key)
        mark = self.mark()
        old = self._write_node_prop(node_id, key, value)
        if value is None and old is None:
            return
        self._record(("set_node_prop", node_id, key, old))
        self._enforce_unique(node_id, mark, only_key=key)

    def set_rel_property(self, rel_id: int, key: str, value: Any) -> None:
        """Set (or, with value=None, remove) a relationship property."""
        self._require_rel(rel_id)
        if self._rel_deleted[rel_id]:
            raise DeletedEntityError(
                f"cannot set property on deleted relationship {rel_id}"
            )
        if value is not None:
            require_storable(value, key)
        old = self._write_prop(self._rel_props, rel_id, key, value)
        if value is not None or old is not None:
            self._record(("set_rel_prop", rel_id, key, old))

    def _require_live_node(self, node_id: int) -> int:
        labelset = self._require_node(node_id)
        if self._node_deleted[node_id]:
            raise DeletedEntityError(
                f"cannot modify deleted node {node_id}"
            )
        return labelset

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    def bulk_load(
        self,
        nodes: Iterable[tuple[int, Iterable[str], dict[str, Any] | None]],
        relationships: Iterable[
            tuple[int, str, int, int, dict[str, Any] | None]
        ],
    ) -> tuple[int, int]:
        """Append entities directly into the columnar layout.

        The one path for writing rows into an empty store: the offline
        ingest (``python -m repro.bulkload``) and checkpoint restore
        both come here.  No journal entries, no commit hooks, no
        per-statement overhead -- just column appends plus label-index
        and adjacency maintenance.
        *nodes* yields ``(id, labels, properties)``; *relationships*
        yields ``(id, type, source, target, properties)``.  Ids must be
        non-negative and unique (ascending ids append in O(1); out of
        order ids are handled but cost capacity back-fills).  Values
        are validated with :func:`~repro.graph.values.require_storable`
        and property keys are interned exactly like the journaled path,
        so a bulk-loaded store is byte-identical (via
        ``canonical_graph_json``) to one built statement by statement.

        The store must be empty; property indexes and constraints are
        created afterwards (:meth:`create_index` backfills in one
        pass).  Returns ``(node_count, relationship_count)``.
        """
        from repro.errors import LoadError

        if (
            self.has_records()
            or self._journal
            or self._property_indexes
            or self._unique_constraints
        ):
            raise PersistenceError("bulk_load requires an empty store")

        labelsets = self._node_labelsets
        props_column = self._node_props
        node_deleted = self._node_deleted
        adj_out = self._adj_out
        adj_in = self._adj_in
        labelset_id = self._labelset_id
        mask_of = self._mask_of
        canon = self._strings.canon
        #: label tuple -> (labelset id, node-id collector); the label
        #: index is flushed from the collectors in one batched pass
        seen_labels: dict[tuple[str, ...], tuple[int, list[int]]] = {}

        #: key text -> pooled key object (skips two pool calls a key)
        pooled_keys: dict[str, str] = {}

        #: id(source dict) -> (pinned source, pooled template).  The
        #: CSV readers share one parsed dict across rows with identical
        #: property cells; pooling such a dict once and C-copying the
        #: template afterwards skips the per-key canon walk.  Pinning
        #: the source in the value keeps its id from being reused.
        def make_pooled_props():
            templates: dict[int, tuple[dict, dict]] = {}

            def pooled_props(properties: dict[str, Any]) -> dict[str, Any]:
                entry = templates.get(id(properties))
                if entry is not None:
                    return dict(entry[1])
                # Inline _canon_properties with a no-validation fast
                # path for exact scalar types (JSON/CSV values are
                # almost always str/int/float/bool; lists and oddities
                # take the slow path).
                copied: dict[str, Any] = {}
                for key, value in properties.items():
                    kind = type(value)
                    if (
                        kind is not str
                        and kind is not int
                        and kind is not float
                        and kind is not bool
                    ):
                        require_storable(value, key)
                    pooled = pooled_keys.get(key)
                    if pooled is None:
                        pooled = pooled_keys[key] = canon(key)
                    copied[pooled] = value
                if len(templates) < 8192:
                    templates[id(properties)] = (properties, dict(copied))
                return copied

            return pooled_props

        pooled_props = make_pooled_props()
        loaded_nodes = 0
        for node_id, labels, properties in nodes:
            label_key = tuple(labels)
            cached = seen_labels.get(label_key)
            if cached is None:
                cached = (labelset_id(mask_of(label_key)), [])
                seen_labels[label_key] = cached
            if node_id == len(labelsets):
                # Dense ascending ids: straight column appends.
                labelsets.append(cached[0])
                props_column.append(
                    pooled_props(properties) if properties else None
                )
                node_deleted.append(0)
                adj_out.append(None)
                adj_in.append(None)
            else:
                if node_id < 0:
                    raise LoadError(f"negative node id {node_id}")
                if node_id >= len(labelsets):
                    self._ensure_node_capacity(node_id + 1)
                elif labelsets[node_id] != _HOLE:
                    raise LoadError(f"duplicate node id {node_id}")
                labelsets[node_id] = cached[0]
                if properties:
                    props_column[node_id] = pooled_props(properties)
            cached[1].append(node_id)
            loaded_nodes += 1
        label_index_add_many = self._label_index.add_many
        for label_key, (__, collected) in seen_labels.items():
            if label_key:
                label_index_add_many(collected, label_key)
        self._live_nodes += loaded_nodes
        self._next_node_id = max(self._next_node_id, len(labelsets))

        types_column = self._rel_types
        source_column = self._rel_source
        target_column = self._rel_target
        rel_props_column = self._rel_props
        rel_deleted = self._rel_deleted
        intern = self._strings.intern
        node_len = len(labelsets)
        #: type string -> pool id (skip the intern dict on repeats)
        seen_types: dict[str, int] = {}
        # Fresh template cache: node property dicts are usually unique
        # per row and must not crowd out the (repetitive) rel payloads.
        pooled_props = make_pooled_props()
        loaded_rels = 0
        for rel_id, rel_type, source, target, properties in relationships:
            if (
                not 0 <= source < node_len
                or labelsets[source] == _HOLE
                or node_deleted[source]
            ):
                raise LoadError(
                    f"relationship {rel_id} references unknown "
                    f"source node {source}"
                )
            if (
                not 0 <= target < node_len
                or labelsets[target] == _HOLE
                or node_deleted[target]
            ):
                raise LoadError(
                    f"relationship {rel_id} references unknown "
                    f"target node {target}"
                )
            type_id = seen_types.get(rel_type)
            if type_id is None:
                if not rel_type:
                    raise LoadError(f"relationship {rel_id} has no type")
                type_id = seen_types[rel_type] = intern(rel_type)
            if rel_id == len(types_column):
                types_column.append(type_id)
                source_column.append(source)
                target_column.append(target)
                rel_props_column.append(
                    pooled_props(properties) if properties else None
                )
                rel_deleted.append(0)
            else:
                if rel_id < 0:
                    raise LoadError(f"negative relationship id {rel_id}")
                if rel_id >= len(types_column):
                    self._ensure_rel_capacity(rel_id + 1)
                elif types_column[rel_id] != _HOLE:
                    raise LoadError(f"duplicate relationship id {rel_id}")
                types_column[rel_id] = type_id
                source_column[rel_id] = source
                target_column[rel_id] = target
                if properties:
                    rel_props_column[rel_id] = pooled_props(properties)
            # Adjacency, with _AdjacencyHalf.add's tail fast path
            # inlined (ids are unique here, so no duplicate check):
            # method-call overhead is measurable at millions of rels.
            half = adj_out[source]
            if half is None:
                half = adj_out[source] = _AdjacencyHalf()
                half.types.append(type_id)
                half.offsets.append(1)
                half.rels.append(rel_id)
            else:
                half_rels = half.rels
                half_types = half.types
                if half_types[-1] == type_id and half_rels[-1] < rel_id:
                    half_rels.append(rel_id)
                    half.offsets[-1] += 1
                elif type_id not in half_types:
                    half_types.append(type_id)
                    half_rels.append(rel_id)
                    half.offsets.append(len(half_rels))
                else:
                    half.add(type_id, rel_id)
            half = adj_in[target]
            if half is None:
                half = adj_in[target] = _AdjacencyHalf()
                half.types.append(type_id)
                half.offsets.append(1)
                half.rels.append(rel_id)
            else:
                half_rels = half.rels
                half_types = half.types
                if half_types[-1] == type_id and half_rels[-1] < rel_id:
                    half_rels.append(rel_id)
                    half.offsets[-1] += 1
                elif type_id not in half_types:
                    half_types.append(type_id)
                    half_rels.append(rel_id)
                    half.offsets.append(len(half_rels))
                else:
                    half.add(type_id, rel_id)
            loaded_rels += 1
        self._live_rels += loaded_rels
        self._next_rel_id = max(self._next_rel_id, len(types_column))
        return loaded_nodes, loaded_rels

    # ------------------------------------------------------------------
    # Property indexes
    # ------------------------------------------------------------------

    def create_index(self, label: str, key: str) -> PropertyIndex:
        """Create (or return) a property index on ``:label(key)``."""
        index = self._property_indexes.get((label, key))
        if index is None:
            self._commit_schema("create_index", label, key)
            index = self._put_index(label, key)
        return index

    def _put_index(self, label: str, key: str) -> PropertyIndex:
        """Build and install the ``:label(key)`` index (no commit)."""
        index = PropertyIndex(label, key)
        index.counters = self.counters
        props_column = self._node_props
        # Backfill with PropertyIndex.add inlined: the index is fresh,
        # so no discard of stale entries is needed, and the exact-type
        # grouping keys for str/int are built without the generic
        # dispatch -- the backfill is a hot path for the bulk loader.
        by_value = index._by_value
        value_of = index._value_of
        for node_id in self._label_index.ids(label):
            properties = props_column[node_id]
            if properties is None:
                continue
            value = properties.get(key)
            if value is None:
                continue
            kind = type(value)
            if kind is str:
                bucket_key = ("str", value)
            elif kind is int:
                bucket_key = ("num", value)
            elif is_storable(value):
                bucket_key = grouping_key(value)
            else:
                continue
            bucket = by_value.get(bucket_key)
            if bucket is None:
                by_value[bucket_key] = {node_id}
            else:
                bucket.add(node_id)
            value_of[node_id] = bucket_key
        self._property_indexes[(label, key)] = index
        return index

    def drop_index(self, label: str, key: str) -> None:
        """Drop a property index if it exists.

        Refused while a uniqueness constraint on ``:label(key)`` needs
        the index as its backing structure: drop the constraint first.
        """
        if (label, key) in self._unique_constraints:
            raise ConstraintViolationError(
                f"cannot drop index on :{label}({key}): it backs the "
                f"uniqueness constraint on :{label}({key}); drop the "
                f"constraint first"
            )
        if (label, key) in self._property_indexes:
            self._commit_schema("drop_index", label, key)
            del self._property_indexes[(label, key)]

    def property_index(self, label: str, key: str) -> PropertyIndex | None:
        """The index on ``:label(key)`` if one was created."""
        return self._property_indexes.get((label, key))

    def index_keys(self) -> list[tuple[str, str]]:
        """The ``(label, key)`` pairs that have a property index, sorted."""
        return sorted(self._property_indexes)

    def _reindex_node(self, node_id: int, only_key: str | None = None) -> None:
        if not self._property_indexes:
            return
        if not self._node_exists(node_id) or self._node_deleted[node_id]:
            self._deindex_node(node_id)
            return
        mask = self._labelset_masks[self._node_labelsets[node_id]]
        properties = self._node_props[node_id]
        id_of = self._strings.id_of
        for (label, key), index in self._property_indexes.items():
            if only_key is not None and key != only_key:
                continue
            label_id = id_of(label)
            if (
                label_id is not None
                and mask >> label_id & 1
                and properties is not None
                and key in properties
            ):
                index.add(node_id, properties[key])
            else:
                index.discard(node_id)

    def _deindex_node(self, node_id: int) -> None:
        for index in self._property_indexes.values():
            index.discard(node_id)

    # ------------------------------------------------------------------
    # Uniqueness constraints
    # ------------------------------------------------------------------

    def create_unique_constraint(self, label: str, key: str) -> None:
        """Require ``:label(key)`` values to be unique across live nodes.

        Creates (or reuses) the backing property index, validates the
        existing data, and from then on rejects any create / SET /
        label addition that would introduce a duplicate.  Violations
        raise :class:`ConstraintViolationError`; the offending mutation
        is undone before raising, so a failed statement still rolls
        back cleanly.
        """
        self._require_distinct(self.create_index(label, key))
        if (label, key) not in self._unique_constraints:
            self._commit_schema("create_constraint", label, key)
            self._unique_constraints.add((label, key))

    @staticmethod
    def _require_distinct(index: PropertyIndex) -> None:
        duplicates = index.duplicate_buckets()
        if duplicates:
            raise ConstraintViolationError(
                f"cannot create uniqueness constraint on "
                f":{index.label}({index.key}): "
                f"existing nodes {duplicates[0]} share a value"
            )

    def drop_unique_constraint(self, label: str, key: str) -> None:
        """Drop a uniqueness constraint (the index remains)."""
        if (label, key) in self._unique_constraints:
            self._commit_schema("drop_constraint", label, key)
            self._unique_constraints.discard((label, key))

    def unique_constraints(self) -> frozenset[tuple[str, str]]:
        """The active uniqueness constraints."""
        return frozenset(self._unique_constraints)

    def _enforce_unique(
        self, node_id: int, mark: int, only_key: str | None = None
    ) -> None:
        if not self._unique_constraints:
            return
        if not self._node_exists(node_id) or self._node_deleted[node_id]:
            return
        mask = self._labelset_masks[self._node_labelsets[node_id]]
        properties = self._node_props[node_id]
        id_of = self._strings.id_of
        for label, key in self._unique_constraints:
            if only_key is not None and key != only_key:
                continue
            label_id = id_of(label)
            if label_id is None or not mask >> label_id & 1:
                continue
            if properties is None or key not in properties:
                continue
            others = self._property_indexes[(label, key)].peers(node_id)
            if others:
                self.rollback_to(mark)
                raise ConstraintViolationError(
                    f"uniqueness constraint on :{label}({key}) violated: "
                    f"node {node_id} duplicates node(s) {others}"
                )

    # ------------------------------------------------------------------
    # Snapshots and copies
    # ------------------------------------------------------------------

    def snapshot(self, *, include_dangling: bool = True) -> GraphSnapshot:
        """Immutable copy of the current graph.

        Live relationships whose endpoints were deleted (legacy dangling
        state) are included by default so that
        :meth:`GraphSnapshot.has_dangling` can observe the illegal
        state; pass ``include_dangling=False`` to project them away.
        """
        labelsets = self._node_labelsets
        node_deleted = self._node_deleted
        nodes = frozenset(
            node_id
            for node_id in range(len(labelsets))
            if labelsets[node_id] != _HOLE and not node_deleted[node_id]
        )
        types = self._rel_types
        rel_deleted = self._rel_deleted
        source = self._rel_source
        target = self._rel_target
        rel_ids = [
            rel_id
            for rel_id in range(len(types))
            if types[rel_id] != _HOLE and not rel_deleted[rel_id]
        ]
        if not include_dangling:
            rel_ids = [
                rel_id
                for rel_id in rel_ids
                if source[rel_id] in nodes and target[rel_id] in nodes
            ]
        text = self._strings.text
        props_column = self._node_props
        rel_props_column = self._rel_props
        return GraphSnapshot(
            nodes=nodes,
            relationships=frozenset(rel_ids),
            source={r: source[r] for r in rel_ids},
            target={r: target[r] for r in rel_ids},
            labels={
                n: self._labelset_strings[labelsets[n]] for n in nodes
            },
            types={r: text(types[r]) for r in rel_ids},
            node_properties={
                n: dict(props_column[n]) if props_column[n] else {}
                for n in nodes
            },
            rel_properties={
                r: dict(rel_props_column[r]) if rel_props_column[r] else {}
                for r in rel_ids
            },
        )

    def iter_node_records(
        self, ids: Iterable[int] | None = None
    ) -> Iterator[tuple[int, list[str], dict[str, Any]]]:
        """Live nodes as ``(id, sorted labels, properties)`` in id order.

        A constant-memory column walk (nothing is materialised beyond
        the yielded tuple) for consumers that stream the whole graph --
        the streaming checkpoint writer foremost.  With *ids* (existing
        ids, in the order wanted) only the live nodes among them are
        visited: the delta checkpoint's dirty set.  The yielded
        properties dict is the store's own: treat it as read-only.
        """
        labelsets = self._node_labelsets
        deleted = self._node_deleted
        labelset_strings = self._labelset_strings
        props_column = self._node_props
        empty: dict[str, Any] = {}
        for node_id in range(len(labelsets)) if ids is None else ids:
            labelset = labelsets[node_id]
            if labelset == _HOLE or deleted[node_id]:
                continue
            yield (
                node_id,
                sorted(labelset_strings[labelset]),
                props_column[node_id] or empty,
            )

    def iter_rel_records(
        self, ids: Iterable[int] | None = None
    ) -> Iterator[tuple[int, str, int, int, dict[str, Any]]]:
        """Live relationships as ``(id, type, start, end, properties)``.

        Id order, constant memory, dangling relationships included --
        the same population :meth:`snapshot` reports, so a checkpoint
        built from this stream reproduces the store exactly.  *ids* and
        the yielded dict are as for :meth:`iter_node_records`.
        """
        types = self._rel_types
        deleted = self._rel_deleted
        source = self._rel_source
        target = self._rel_target
        props_column = self._rel_props
        text = self._strings.text
        empty: dict[str, Any] = {}
        for rel_id in range(len(types)) if ids is None else ids:
            type_id = types[rel_id]
            if type_id == _HOLE or deleted[rel_id]:
                continue
            yield (
                rel_id,
                text(type_id),
                source[rel_id],
                target[rel_id],
                props_column[rel_id] or empty,
            )

    def copy(self) -> "GraphStore":
        """Deep copy of the live graph and its schema.

        Journal and tombstones are dropped; indexes and uniqueness
        constraints are re-created on the clone.
        """
        clone = GraphStore()
        id_map: dict[int, int] = {}
        for node in self.nodes():
            id_map[node.id] = clone.create_node(
                node.labels, dict(node.properties)
            )
        for rel in self.relationships():
            source = id_map.get(rel.start.id)
            target = id_map.get(rel.end.id)
            if source is None or target is None:
                continue  # dangling relationships are not copied
            clone.create_relationship(
                rel.type, source, target, dict(rel.properties)
            )
        clone.commit_to(0)
        for label, key in self._property_indexes:
            clone._put_index(label, key)
        clone._unique_constraints = set(self._unique_constraints)
        return clone

    def load_snapshot(self, snapshot: GraphSnapshot) -> dict[int, int]:
        """Append the contents of *snapshot* into this store.

        Returns the node-id mapping from snapshot ids to new store ids.
        """
        id_map: dict[int, int] = {}
        for node_id in sorted(snapshot.nodes):
            id_map[node_id] = self.create_node(
                snapshot.labels.get(node_id, frozenset()),
                dict(snapshot.node_properties.get(node_id, {})),
            )
        for rel_id in sorted(snapshot.relationships):
            source = id_map.get(snapshot.source[rel_id])
            target = id_map.get(snapshot.target[rel_id])
            if source is None or target is None:
                continue
            self.create_relationship(
                snapshot.types[rel_id],
                source,
                target,
                dict(snapshot.rel_properties.get(rel_id, {})),
            )
        return id_map

    def __repr__(self) -> str:
        return (
            f"GraphStore({self.node_count()} nodes, "
            f"{self.relationship_count()} relationships)"
        )
