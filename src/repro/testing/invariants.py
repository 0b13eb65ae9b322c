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
property suites run it as a post-condition.

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
from typing import Any, Callable

from repro.graph.store import _HOLE, GraphStore


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


def _check_adjacency_structure(
    store: GraphStore, problems: list[str]
) -> None:
    """Structural well-formedness of every grouped adjacency half."""
    pool_size = len(store._strings)
    for name, column in (("out", store._adj_out), ("in", store._adj_in)):
        for node_id, half in enumerate(column):
            if half is None:
                continue
            where = f"{name}-adjacency of node {node_id}"
            offsets = half.offsets
            if len(offsets) != len(half.types) + 1 or offsets[0] != 0:
                problems.append(
                    f"{where}: offset table shape {list(offsets)} does not "
                    f"fit {len(half.types)} group(s)"
                )
                continue
            if list(offsets) != sorted(offsets):
                problems.append(
                    f"{where}: offsets {list(offsets)} not monotone"
                )
                continue
            if offsets[-1] != len(half.rels):
                problems.append(
                    f"{where}: offsets end at {offsets[-1]} but the flat "
                    f"array holds {len(half.rels)} relationship(s)"
                )
                continue
            seen_types: set[int] = set()
            for group, type_id in enumerate(half.types):
                if not 0 <= type_id < pool_size:
                    problems.append(
                        f"{where}: group {group} has unknown type id "
                        f"{type_id}"
                    )
                    continue
                if type_id in seen_types:
                    problems.append(
                        f"{where}: duplicate group for type "
                        f"{store._strings.text(type_id)!r}"
                    )
                seen_types.add(type_id)
                segment = list(half.rels[offsets[group]:offsets[group + 1]])
                if not segment:
                    problems.append(
                        f"{where} keeps an empty bucket for type "
                        f"{store._strings.text(type_id)!r}"
                    )
                if segment != sorted(set(segment)):
                    problems.append(
                        f"{where}: type "
                        f"{store._strings.text(type_id)!r} segment "
                        f"{segment} is not strictly ascending"
                    )


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
    """
    problems: list[str] = []
    problems.extend(store._strings.check())
    _check_labelset_tables(store, problems)
    _check_adjacency_structure(store, problems)

    node_ids = [
        node_id
        for node_id in range(len(store._node_labelsets))
        if store._node_labelsets[node_id] != _HOLE
    ]
    rel_ids = [
        rel_id
        for rel_id in range(len(store._rel_types))
        if store._rel_types[rel_id] != _HOLE
    ]
    live_nodes = {
        node_id for node_id in node_ids if not store._node_deleted[node_id]
    }
    live_rels = {
        rel_id for rel_id in rel_ids if not store._rel_deleted[rel_id]
    }

    def labels_of(node_id: int) -> frozenset[str]:
        return store._labelset_strings[store._node_labelsets[node_id]]

    # -- live-entity counters ------------------------------------------
    if store._live_nodes != len(live_nodes):
        problems.append(
            f"live node counter {store._live_nodes} != recount "
            f"{len(live_nodes)}"
        )
    if store._live_rels != len(live_rels):
        problems.append(
            f"live relationship counter {store._live_rels} != recount "
            f"{len(live_rels)}"
        )

    # -- id allocation never reuses ------------------------------------
    if node_ids and max(node_ids) >= store._next_node_id:
        problems.append(
            f"next node id {store._next_node_id} <= existing id "
            f"{max(node_ids)}"
        )
    if rel_ids and max(rel_ids) >= store._next_rel_id:
        problems.append(
            f"next relationship id {store._next_rel_id} <= existing id "
            f"{max(rel_ids)}"
        )

    # -- column shapes stay parallel -----------------------------------
    node_len = len(store._node_labelsets)
    for label, length in (
        ("property", len(store._node_props)),
        ("tombstone", len(store._node_deleted)),
        ("out-adjacency", len(store._adj_out)),
        ("in-adjacency", len(store._adj_in)),
    ):
        if length != node_len:
            problems.append(
                f"node {label} column length {length} != label-set "
                f"column length {node_len}"
            )
    rel_len = len(store._rel_types)
    for label, length in (
        ("source", len(store._rel_source)),
        ("target", len(store._rel_target)),
        ("property", len(store._rel_props)),
        ("tombstone", len(store._rel_deleted)),
    ):
        if length != rel_len:
            problems.append(
                f"relationship {label} column length {length} != type "
                f"column length {rel_len}"
            )

    # -- holes carry no payload ----------------------------------------
    for node_id in range(node_len):
        if store._node_labelsets[node_id] == _HOLE and (
            store._node_props[node_id] is not None
            or store._node_deleted[node_id]
            or store._adj_out[node_id] is not None
            or store._adj_in[node_id] is not None
        ):
            problems.append(
                f"node column hole {node_id} still carries payload"
            )
    for rel_id in range(rel_len):
        if store._rel_types[rel_id] == _HOLE and (
            store._rel_props[rel_id] is not None
            or store._rel_deleted[rel_id]
        ):
            problems.append(
                f"relationship column hole {rel_id} still carries payload"
            )

    # -- dangling relationships ----------------------------------------
    if not allow_dangling:
        for rel_id in sorted(live_rels):
            for role, endpoint in (
                ("source", store._rel_source[rel_id]),
                ("target", store._rel_target[rel_id]),
            ):
                if endpoint not in live_nodes:
                    problems.append(
                        f"live relationship {rel_id} has deleted/missing "
                        f"{role} node {endpoint}"
                    )

    # -- untyped adjacency ---------------------------------------------
    expected_out: dict[int, set[int]] = {}
    expected_in: dict[int, set[int]] = {}
    for rel_id in live_rels:
        expected_out.setdefault(store._rel_source[rel_id], set()).add(rel_id)
        expected_in.setdefault(store._rel_target[rel_id], set()).add(rel_id)
    for name, column, expected in (
        ("out", store._adj_out, expected_out),
        ("in", store._adj_in, expected_in),
    ):
        for node_id, half in enumerate(column):
            rel_set = set(half.rels) if half is not None else set()
            extra = rel_set - expected.get(node_id, set())
            if extra:
                problems.append(
                    f"{name}-adjacency of node {node_id} holds "
                    f"non-live relationship(s) {sorted(extra)}"
                )
        for node_id, rel_set in expected.items():
            half = column[node_id] if node_id < len(column) else None
            cached = set(half.rels) if half is not None else set()
            missing = rel_set - cached
            if missing:
                problems.append(
                    f"{name}-adjacency of node {node_id} is missing "
                    f"relationship(s) {sorted(missing)}"
                )

    # -- per-type adjacency --------------------------------------------
    expected_out_t: dict[tuple[int, str], set[int]] = {}
    expected_in_t: dict[tuple[int, str], set[int]] = {}
    for rel_id in live_rels:
        rel_type = store._strings.text(store._rel_types[rel_id])
        expected_out_t.setdefault(
            (store._rel_source[rel_id], rel_type), set()
        ).add(rel_id)
        expected_in_t.setdefault(
            (store._rel_target[rel_id], rel_type), set()
        ).add(rel_id)
    for name, column, expected_t in (
        ("typed out", store._adj_out, expected_out_t),
        ("typed in", store._adj_in, expected_in_t),
    ):
        flattened: dict[tuple[int, str], set[int]] = {}
        for node_id, half in enumerate(column):
            if half is None:
                continue
            for type_id, segment in half.groups():
                if segment:
                    flattened[
                        (node_id, store._strings.text(type_id))
                    ] = set(segment)
        for key in sorted(set(flattened) | set(expected_t)):
            got = flattened.get(key, set())
            want = expected_t.get(key, set())
            if got != want:
                node_id, rel_type = key
                problems.append(
                    f"{name}-adjacency of node {node_id} type "
                    f"{rel_type!r}: cached {sorted(got)} != recount "
                    f"{sorted(want)}"
                )

    # -- label index ----------------------------------------------------
    expected_labels: dict[str, set[int]] = {}
    for node_id in live_nodes:
        for label in labels_of(node_id):
            expected_labels.setdefault(label, set()).add(node_id)
    label_index = store._label_index
    cached_labels = set(label_index.labels())
    for label in sorted(cached_labels | set(expected_labels)):
        got = label_index.ids(label)
        want = sorted(expected_labels.get(label, ()))
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
    from repro.graph.values import grouping_key, is_storable

    for (label, key), index in store._property_indexes.items():
        expected_entries: dict[int, Any] = {}
        for node_id in expected_labels.get(label, set()):
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
            expected_buckets.setdefault(
                expected_entries[node_id], []
            ).append(node_id)
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

    # -- degree statistics ---------------------------------------------
    for node_id in sorted(live_nodes):
        out_recount = len(expected_out.get(node_id, set()))
        in_recount = len(expected_in.get(node_id, set()))
        if store.out_degree(node_id) != out_recount:
            problems.append(
                f"out_degree({node_id}) = {store.out_degree(node_id)} != "
                f"recount {out_recount}"
            )
        if store.in_degree(node_id) != in_recount:
            problems.append(
                f"in_degree({node_id}) = {store.in_degree(node_id)} != "
                f"recount {in_recount}"
            )
        if store.degree(node_id) != out_recount + in_recount:
            problems.append(
                f"degree({node_id}) = {store.degree(node_id)} != "
                f"recount {out_recount + in_recount}"
            )
        enumerated = store.adjacent_rel_ids(node_id)
        expected_adjacent = sorted(
            expected_out.get(node_id, set()) | expected_in.get(node_id, set())
        )
        if enumerated != expected_adjacent:
            problems.append(
                f"adjacent_rel_ids({node_id}) = {enumerated} != "
                f"recount {expected_adjacent}"
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
