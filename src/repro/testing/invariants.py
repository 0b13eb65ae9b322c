"""Store-invariant oracle: recount everything a :class:`GraphStore` caches.

The store maintains many derived structures incrementally -- live-entity
counters, label-index buckets, grouped adjacency arrays, property-index
buckets and reverse maps -- through every mutation *and* every journal
undo.  A bug in any one of those paths corrupts query results silently:
the planner picks anchors from stale statistics, MATCH skips nodes an
index forgot, degrees drift after rollback.

:func:`check_invariants` is the from-scratch recount.  It walks the raw
node/relationship columns (the single source of truth) and verifies
every cached structure against them, raising :class:`InvariantViolation`
with *all* discrepancies, not just the first.  The differential fuzzer
runs it after every case and after every rollback; the equivalence
property suites run it as a post-condition; recovery runs it on every
open and the bulk loader after every load.

The recount costs what a load costs: a handful of linear passes with
one-byte marks and integer count columns per entity, no set or dict
per node.  Recount sets are built only for an entity that failed, so
a violation still names exactly what is cached and what was expected.

On top of the semantic recount it checks the columnar layout's own
structural invariants: the string pool's forward/reverse tables are
inverses, the dictionary-encoded label-set tables agree with each
other, and every adjacency half is well-formed -- offsets monotone,
group segments sorted and duplicate-free, **no empty type groups**
(deleting the last relationship of a type must compact its group away)
and no duplicate groups for one type.

:func:`journal_roundtrip` brackets a mutation with a mark and verifies
that rolling back restores a byte-identical graph (via the canonical
JSON rendering) and a store that still passes :func:`check_invariants`.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain
from math import inf
from typing import Any, Callable

from repro.graph.indexes import PropertyIndex
from repro.graph.store import _HOLE, GraphStore
from repro.graph.values import grouping_key, is_storable

#: a reverse-map probe's "no entry" (``None`` is not a grouping key)
_ABSENT = object()


class InvariantViolation(AssertionError):
    """One or more cached store structures disagree with a recount."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "store invariants violated:\n  " + "\n  ".join(self.problems)
        )


def canonical_graph_json(store: GraphStore) -> str:
    """Deterministic JSON rendering of the live graph (byte-comparable).

    The bytes of ``json.dumps(graph_to_dict(store), sort_keys=True)``,
    emitted entity by entity from the store's column walks: no
    snapshot and no list of per-entity dicts is built on the way, so
    rendering a large graph costs its output, not a second copy of the
    graph.
    """

    def render(keys: tuple[str, ...], records) -> str:
        return ", ".join(
            json.dumps(dict(zip(keys, record)), sort_keys=True)
            for record in records
        )

    nodes = render(("id", "labels", "properties"), store.iter_node_records())
    relationships = render(
        ("id", "type", "start", "end", "properties"), store.iter_rel_records()
    )
    return f'{{"nodes": [{nodes}], "relationships": [{relationships}]}}'


def _check_labelset_tables(store: GraphStore, problems: list[str]) -> None:
    """The dictionary-encoded label-set tables must agree everywhere."""
    masks = store._labelset_masks
    strings = store._labelset_strings
    ids = store._labelset_ids
    if not (len(masks) == len(strings) == len(ids)):
        problems.append(
            f"label-set tables disagree on size: {len(masks)} masks, "
            f"{len(strings)} string sets, {len(ids)} interned ids"
        )
        return
    if masks[0] != 0 or strings[0] != frozenset():
        problems.append("label-set id 0 is not the empty set")
    pool_size = len(store._strings)
    for labelset, mask in enumerate(masks):
        if ids.get(mask) != labelset:
            problems.append(
                f"label-set mask {mask:#x} interned as "
                f"{ids.get(mask)} but stored at id {labelset}"
            )
        if mask and mask.bit_length() > pool_size:
            problems.append(
                f"label-set id {labelset} mask {mask:#x} references "
                f"string ids beyond the pool ({pool_size} strings)"
            )
            continue
        decoded = frozenset(
            store._strings.text(bit)
            for bit in range(mask.bit_length())
            if mask >> bit & 1
        )
        if decoded != strings[labelset]:
            problems.append(
                f"label-set id {labelset}: mask decodes to "
                f"{sorted(decoded)} but the string table says "
                f"{sorted(strings[labelset])}"
            )


def check_invariants(
    store: GraphStore, *, allow_dangling: bool = False
) -> None:
    """Verify every cached structure against a from-scratch recount.

    Raises :class:`InvariantViolation` listing every discrepancy.  With
    ``allow_dangling=True`` live relationships whose endpoints are
    tombstones are tolerated (the legacy dialect's mid-statement
    states); by default they are violations, matching the well-formed
    graphs every statement boundary must exhibit.

    The recount is a few linear passes over the raw columns.  The node
    pass marks live nodes in a ``bytearray`` and buckets them by
    label-set id; the relationship pass marks live relationships and
    counts every node's out- and in-degree into ``array('q')`` columns.
    Cached structures are then checked entry by entry against those
    marks and counts; a recount set per node is built only for an
    entity that failed, to say what it holds and what it lacks.
    """
    problems: list[str] = []
    problems.extend(store._strings.check())
    _check_labelset_tables(store, problems)

    labelsets = store._node_labelsets
    node_props = store._node_props
    node_deleted = store._node_deleted
    adj_out = store._adj_out
    adj_in = store._adj_in
    rel_types = store._rel_types
    rel_source = store._rel_source
    rel_target = store._rel_target
    rel_props = store._rel_props
    rel_deleted = store._rel_deleted

    # -- column shapes stay parallel -----------------------------------
    node_len = len(labelsets)
    for label, length in (
        ("property", len(node_props)),
        ("tombstone", len(node_deleted)),
        ("out-adjacency", len(adj_out)),
        ("in-adjacency", len(adj_in)),
    ):
        if length != node_len:
            problems.append(
                f"node {label} column length {length} != label-set "
                f"column length {node_len}"
            )
    rel_len = len(rel_types)
    for label, length in (
        ("source", len(rel_source)),
        ("target", len(rel_target)),
        ("property", len(rel_props)),
        ("tombstone", len(rel_deleted)),
    ):
        if length != rel_len:
            problems.append(
                f"relationship {label} column length {length} != type "
                f"column length {rel_len}"
            )
    # A short column is reported above; the passes walk the prefix
    # every column has.
    node_len = min(
        node_len, len(node_props), len(node_deleted), len(adj_out), len(adj_in)
    )
    rel_len = min(
        rel_len, len(rel_source), len(rel_target), len(rel_props),
        len(rel_deleted),
    )

    # -- node pass: holes, live marks, members per label set ----------
    node_live = bytearray(node_len)
    members = [array("q") for __ in store._labelset_strings]
    last_node = -1
    for node_id in range(node_len):
        labelset = labelsets[node_id]
        if labelset == _HOLE:
            if (
                node_props[node_id] is not None
                or node_deleted[node_id]
                or adj_out[node_id] is not None
                or adj_in[node_id] is not None
            ):
                problems.append(
                    f"node column hole {node_id} still carries payload"
                )
            continue
        last_node = node_id
        if node_deleted[node_id]:
            continue
        node_live[node_id] = 1
        if 0 <= labelset < len(members):
            members[labelset].append(node_id)
        else:
            problems.append(
                f"node {node_id} has unknown label-set id {labelset}"
            )

    # -- relationship pass: holes, live marks, endpoints, degrees ------
    rel_live = bytearray(rel_len)
    out_len = len(adj_out)
    in_len = len(adj_in)
    out_count = array("q", bytes(8 * out_len))
    in_count = array("q", bytes(8 * in_len))
    #: node -> self-loops at it (both halves list them; the union once)
    loops: dict[int, int] = {}
    #: nodes whose adjacency needs the per-node recount
    out_suspects: set[int] = set()
    in_suspects: set[int] = set()
    last_rel = -1
    for rel_id in range(rel_len):
        if rel_types[rel_id] == _HOLE:
            if rel_props[rel_id] is not None or rel_deleted[rel_id]:
                problems.append(
                    f"relationship column hole {rel_id} still carries "
                    f"payload"
                )
            continue
        last_rel = rel_id
        if rel_deleted[rel_id]:
            continue
        rel_live[rel_id] = 1
        source = rel_source[rel_id]
        target = rel_target[rel_id]
        if 0 <= source < out_len:
            out_count[source] += 1
        else:
            out_suspects.add(source)
        if 0 <= target < in_len:
            in_count[target] += 1
        else:
            in_suspects.add(target)
        if source == target:
            loops[source] = loops.get(source, 0) + 1
        if not allow_dangling:
            if not (0 <= source < node_len and node_live[source]):
                problems.append(
                    f"live relationship {rel_id} has deleted/missing "
                    f"source node {source}"
                )
            if not (0 <= target < node_len and node_live[target]):
                problems.append(
                    f"live relationship {rel_id} has deleted/missing "
                    f"target node {target}"
                )

    # -- live-entity counters ------------------------------------------
    live_nodes = node_live.count(1)
    if store._live_nodes != live_nodes:
        problems.append(
            f"live node counter {store._live_nodes} != recount {live_nodes}"
        )
    live_rels = rel_live.count(1)
    if store._live_rels != live_rels:
        problems.append(
            f"live relationship counter {store._live_rels} != recount "
            f"{live_rels}"
        )

    # -- id allocation never reuses ------------------------------------
    if last_node >= store._next_node_id:
        problems.append(
            f"next node id {store._next_node_id} <= existing id {last_node}"
        )
    if last_rel >= store._next_rel_id:
        problems.append(
            f"next relationship id {store._next_rel_id} <= existing id "
            f"{last_rel}"
        )

    # -- adjacency, untyped and per type ---------------------------------
    for name, column, endpoints, counts, suspects in (
        ("out", adj_out, rel_source, out_count, out_suspects),
        ("in", adj_in, rel_target, in_count, in_suspects),
    ):
        _check_adjacency(
            store, name, column, endpoints, counts, rel_live, suspects,
            problems,
        )
        if suspects:
            _adjacency_detail(
                store, name, column, endpoints, rel_live, suspects, problems
            )

    # -- label index ----------------------------------------------------
    #: label -> member arrays of the label sets carrying it
    expected_labels: dict[str, list[array]] = {}
    for labelset, bucket in enumerate(members):
        if bucket:
            for label in store._labelset_strings[labelset]:
                expected_labels.setdefault(label, []).append(bucket)
    label_index = store._label_index
    cached_labels = set(label_index.labels())
    for label in sorted(cached_labels | set(expected_labels)):
        got = label_index.ids(label)
        want = sorted(chain.from_iterable(expected_labels.get(label, ())))
        if got != want:
            problems.append(
                f"label index for :{label}: cached {got} != "
                f"recount {want}"
            )
        if store.label_count(label) != len(want):
            problems.append(
                f"label_count(:{label}) = {store.label_count(label)} != "
                f"recount {len(want)}"
            )
        if label in cached_labels and not got:
            problems.append(f"label index keeps an empty bucket for :{label}")

    # -- property indexes ----------------------------------------------
    for (label, key), index in store._property_indexes.items():
        labelled = expected_labels.get(label, ())
        if not _index_matches(index, labelled, node_props, key):
            _property_index_detail(
                store, label, key, index, labelled, problems
            )

    # -- degree statistics ---------------------------------------------
    out_degree = store.out_degree
    in_degree = store.in_degree
    degree = store.degree
    adjacent_rel_ids = store.adjacent_rel_ids
    drifted: list[tuple[int, list[int]]] = []
    for node_id in range(node_len):
        if not node_live[node_id]:
            continue
        out_recount = out_count[node_id]
        in_recount = in_count[node_id]
        cached = out_degree(node_id)
        if cached != out_recount:
            problems.append(
                f"out_degree({node_id}) = {cached} != recount {out_recount}"
            )
        cached = in_degree(node_id)
        if cached != in_recount:
            problems.append(
                f"in_degree({node_id}) = {cached} != recount {in_recount}"
            )
        cached = degree(node_id)
        if cached != out_recount + in_recount:
            problems.append(
                f"degree({node_id}) = {cached} != "
                f"recount {out_recount + in_recount}"
            )
        enumerated = adjacent_rel_ids(node_id)
        if not _lists_incident(
            enumerated,
            node_id,
            out_recount + in_recount - loops.get(node_id, 0),
            rel_live,
            rel_source,
            rel_target,
        ):
            drifted.append((node_id, enumerated))
    if drifted:
        incident: dict[int, list[int]] = {
            node_id: [] for node_id, __ in drifted
        }
        for rel_id, live in enumerate(rel_live):
            if live:
                for endpoint in {rel_source[rel_id], rel_target[rel_id]}:
                    if endpoint in incident:
                        incident[endpoint].append(rel_id)
        for node_id, enumerated in drifted:
            problems.append(
                f"adjacent_rel_ids({node_id}) = {enumerated} != "
                f"recount {incident[node_id]}"
            )

    # -- uniqueness constraints ----------------------------------------
    for label, key in sorted(store._unique_constraints):
        index = store._property_indexes.get((label, key))
        if index is None:
            problems.append(
                f"uniqueness constraint :{label}({key}) has no backing index"
            )
            continue
        for bucket in index.duplicate_buckets():
            problems.append(
                f"uniqueness constraint :{label}({key}) violated by "
                f"nodes {sorted(bucket)}"
            )

    if problems:
        raise InvariantViolation(problems)


def _type_text(store: GraphStore, type_id: int) -> str:
    """The type name of *type_id*, or a placeholder for an unknown id."""
    if 0 <= type_id < len(store._strings):
        return store._strings.text(type_id)
    return f"#{type_id}"


def _check_adjacency(
    store: GraphStore,
    name: str,
    column: list,
    endpoints: array,
    counts: array,
    rel_live: bytearray,
    suspects: set[int],
    problems: list[str],
) -> None:
    """Check one direction's adjacency halves against the columns.

    Each half must be well-formed: offsets monotone and fitting the
    groups, group types known and distinct, **no empty type groups**
    (deleting the last relationship of a type must compact its group
    away), segments strictly ascending.  Each entry must be a live
    relationship whose *endpoints* column names this node and whose
    type is its group's, listed once in the whole direction (a
    ``bytearray`` mark per relationship); and a node must hold as many
    such entries as its recounted degree in *counts*, so no live
    relationship is missing.  A node failing an entry check joins
    *suspects* for :func:`_adjacency_detail`.
    """
    rel_types = store._rel_types
    rel_len = len(rel_live)
    pool_size = len(store._strings)
    marked = bytearray(rel_len)
    for node_id, half in enumerate(column):
        if half is None:
            if counts[node_id]:
                suspects.add(node_id)
            continue
        types, offsets, rels = half.types, half.offsets, half.rels
        if len(offsets) != len(types) + 1 or offsets[0] != 0:
            problems.append(
                f"{name}-adjacency of node {node_id}: offset table shape "
                f"{list(offsets)} does not fit {len(types)} group(s)"
            )
            suspects.add(node_id)
            continue
        if list(offsets) != sorted(offsets):
            problems.append(
                f"{name}-adjacency of node {node_id}: offsets "
                f"{list(offsets)} not monotone"
            )
            suspects.add(node_id)
            continue
        if offsets[-1] != len(rels):
            problems.append(
                f"{name}-adjacency of node {node_id}: offsets end at "
                f"{offsets[-1]} but the flat array holds {len(rels)} "
                f"relationship(s)"
            )
            suspects.add(node_id)
            continue
        valid = 0
        for group, type_id in enumerate(types):
            if not 0 <= type_id < pool_size:
                problems.append(
                    f"{name}-adjacency of node {node_id}: group {group} "
                    f"has unknown type id {type_id}"
                )
                suspects.add(node_id)
                continue
            if types.index(type_id) != group:
                problems.append(
                    f"{name}-adjacency of node {node_id}: duplicate group "
                    f"for type {store._strings.text(type_id)!r}"
                )
                suspects.add(node_id)
            low, high = offsets[group], offsets[group + 1]
            if low == high:
                problems.append(
                    f"{name}-adjacency of node {node_id} keeps an empty "
                    f"bucket for type {store._strings.text(type_id)!r}"
                )
                continue
            ascending = True
            previous = -inf
            for rel_id in rels[low:high]:
                if rel_id <= previous:
                    ascending = False
                previous = rel_id
                if (
                    0 <= rel_id < rel_len
                    and rel_live[rel_id]
                    and not marked[rel_id]
                    and endpoints[rel_id] == node_id
                    and rel_types[rel_id] == type_id
                ):
                    marked[rel_id] = 1
                    valid += 1
                else:
                    suspects.add(node_id)
            if not ascending:
                problems.append(
                    f"{name}-adjacency of node {node_id}: type "
                    f"{store._strings.text(type_id)!r} segment "
                    f"{list(rels[low:high])} is not strictly ascending"
                )
        if valid != counts[node_id]:
            suspects.add(node_id)


def _adjacency_detail(
    store: GraphStore,
    name: str,
    column: list,
    endpoints: array,
    rel_live: bytearray,
    suspects: set[int],
    problems: list[str],
) -> None:
    """What the *suspects*' adjacency holds and lacks, untyped and typed.

    Recount sets are built for these nodes only, in one pass over the
    relationship columns.
    """
    rel_types = store._rel_types
    expected: dict[int, set[int]] = {node_id: set() for node_id in suspects}
    expected_typed: dict[tuple[int, str], set[int]] = {}
    for rel_id, live in enumerate(rel_live):
        if live and endpoints[rel_id] in expected:
            node_id = endpoints[rel_id]
            expected[node_id].add(rel_id)
            expected_typed.setdefault(
                (node_id, _type_text(store, rel_types[rel_id])), set()
            ).add(rel_id)
    cached_typed: dict[tuple[int, str], set[int]] = {}
    for node_id in sorted(suspects):
        half = column[node_id] if 0 <= node_id < len(column) else None
        cached = set() if half is None else set(half.rels)
        extra = cached - expected[node_id]
        if extra:
            problems.append(
                f"{name}-adjacency of node {node_id} holds "
                f"non-live relationship(s) {sorted(extra)}"
            )
        missing = expected[node_id] - cached
        if missing:
            problems.append(
                f"{name}-adjacency of node {node_id} is missing "
                f"relationship(s) {sorted(missing)}"
            )
        if half is None:
            continue
        offsets = half.offsets
        for group, type_id in enumerate(half.types):
            if group + 1 < len(offsets):
                segment = half.rels[offsets[group]:offsets[group + 1]]
                if segment:
                    cached_typed[(node_id, _type_text(store, type_id))] = set(
                        segment
                    )
    for key in sorted(set(cached_typed) | set(expected_typed)):
        got = cached_typed.get(key, set())
        want = expected_typed.get(key, set())
        if got != want:
            node_id, rel_type = key
            problems.append(
                f"typed {name}-adjacency of node {node_id} type "
                f"{rel_type!r}: cached {sorted(got)} != recount "
                f"{sorted(want)}"
            )


def _lists_incident(
    enumerated: list[int],
    node_id: int,
    size: int,
    rel_live: bytearray,
    sources: array,
    targets: array,
) -> bool:
    """True if *enumerated* is exactly the ascending live rels at a node.

    *size* live relationships touch *node_id* (recounted): a strictly
    ascending list of that many live relationships, each with
    *node_id* as source or target, is that set.
    """
    if len(enumerated) != size:
        return False
    rel_len = len(rel_live)
    previous = -1
    for rel_id in enumerated:
        if not (
            previous < rel_id < rel_len
            and rel_live[rel_id]
            and (sources[rel_id] == node_id or targets[rel_id] == node_id)
        ):
            return False
        previous = rel_id
    return True


def _index_matches(
    index: PropertyIndex,
    labelled: list[array],
    node_props: list,
    key: str,
) -> bool:
    """True if *index* holds exactly the recounted entries and buckets.

    The recount: every live node carrying the label (the member arrays
    in *labelled*) with a storable value under *key*, keyed by that
    value's grouping key.  The reverse map must hold exactly those
    entries, and the value buckets must be the reverse map inverted:
    no empty bucket, every member keyed back to its bucket, every
    entry in one bucket.
    """
    value_of = index._value_of
    entries = 0
    for bucket in labelled:
        for node_id in bucket:
            properties = node_props[node_id]
            value = None if properties is None else properties.get(key)
            if value is not None and is_storable(value):
                entries += 1
                if value_of.get(node_id, _ABSENT) != grouping_key(value):
                    return False
    if len(value_of) != entries:
        return False
    held = 0
    for bucket_key, bucket in index._by_value.items():
        if not bucket:
            return False
        for node_id in bucket:
            if value_of.get(node_id, _ABSENT) != bucket_key:
                return False
        held += len(bucket)
    return held == entries


def _property_index_detail(
    store: GraphStore,
    label: str,
    key: str,
    index: PropertyIndex,
    labelled: list[array],
    problems: list[str],
) -> None:
    """How a property index that failed :func:`_index_matches` differs."""
    expected_entries: dict[int, Any] = {}
    for node_id in chain.from_iterable(labelled):
        properties = store._node_props[node_id]
        value = None if properties is None else properties.get(key)
        if value is not None and is_storable(value):
            expected_entries[node_id] = grouping_key(value)
    if dict(index._value_of) != expected_entries:
        stale = sorted(set(index._value_of) - set(expected_entries))
        missing = sorted(set(expected_entries) - set(index._value_of))
        wrong = sorted(
            node_id
            for node_id in set(index._value_of) & set(expected_entries)
            if index._value_of[node_id] != expected_entries[node_id]
        )
        problems.append(
            f"property index :{label}({key}) reverse map: "
            f"stale {stale}, missing {missing}, wrong value {wrong}"
        )
    # One probe per expected bucket, through a member's value; the
    # bucket_count check below catches stale or empty extra ones.
    expected_buckets: dict[Any, list[int]] = {}
    for node_id in sorted(expected_entries):
        expected_buckets.setdefault(expected_entries[node_id], []).append(
            node_id
        )
    drifted = [
        bucket
        for bucket in expected_buckets.values()
        if index.ids(store._node_props[bucket[0]][key]) != bucket
    ]
    if drifted:
        problems.append(
            f"property index :{label}({key}) buckets disagree with "
            f"recount (expected buckets {drifted})"
        )
    if len(index) != len(expected_entries):
        problems.append(
            f"property index :{label}({key}) len {len(index)} != "
            f"recount {len(expected_entries)}"
        )
    if index.bucket_count() != len(expected_buckets):
        problems.append(
            f"property index :{label}({key}) bucket_count "
            f"{index.bucket_count()} != recount {len(expected_buckets)}"
        )


def journal_roundtrip(
    store: GraphStore,
    mutate: Callable[[], Any],
    *,
    allow_dangling: bool = False,
) -> Any:
    """Run *mutate*, then undo it and verify the store is byte-identical.

    *mutate* runs inside a store transaction, so statements it commits
    stay in the journal until the rollback here.  Returns whatever
    *mutate* returned (or re-raises its exception after verifying the
    rollback the mutation itself performed, if any, left a consistent
    store).  Used by tests; the differential executor inlines the same
    bracket so it can keep the post-state for comparison.
    """
    before = canonical_graph_json(store)
    mark = store.begin_transaction()
    try:
        result = mutate()
    finally:
        store.rollback_transaction(mark)
        after = canonical_graph_json(store)
        if after != before:
            raise InvariantViolation(
                [
                    "journal rollback did not restore the graph "
                    "byte-identically",
                    f"before: {before}",
                    f"after:  {after}",
                ]
            )
        check_invariants(store, allow_dangling=allow_dangling)
    return result
