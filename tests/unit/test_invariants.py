"""The invariant oracle detects each kind of store corruption.

Each test corrupts one private structure directly and asserts
:func:`check_invariants` raises an :class:`InvariantViolation` naming
the right problem -- an oracle that cannot fail its own checks would
prove nothing when wired into the fuzzer.
"""

import pytest

from repro.graph.store import GraphStore
from repro.testing.invariants import (
    InvariantViolation,
    canonical_graph_json,
    check_invariants,
    journal_roundtrip,
)


def _small_store():
    store = GraphStore()
    a = store.create_node(("A",), {"x": 1})
    b = store.create_node(("A", "B"), {"x": 2, "y": "s"})
    c = store.create_node((), {})
    r1 = store.create_relationship("T", a, b, {"w": 1})
    r2 = store.create_relationship("S", b, c)
    store.create_index("A", "x")
    return store, (a, b, c), (r1, r2)


def _violation(store, **kwargs):
    with pytest.raises(InvariantViolation) as info:
        check_invariants(store, **kwargs)
    return str(info.value)


def test_clean_store_passes():
    store, __, __ = _small_store()
    check_invariants(store)


def test_empty_store_passes():
    check_invariants(GraphStore())


def test_live_node_counter_drift():
    store, __, __ = _small_store()
    store._live_nodes += 1
    assert "live node counter" in _violation(store)


def test_live_rel_counter_drift():
    store, __, __ = _small_store()
    store._live_rels -= 1
    assert "live relationship counter" in _violation(store)


def test_id_reuse_detected():
    store, __, __ = _small_store()
    store._next_node_id = 0
    assert "next node id" in _violation(store)


def test_dangling_relationship_detected():
    store, (a, __, __), __ = _small_store()
    store.delete_node(a, allow_dangling=True)
    message = _violation(store)
    assert "deleted/missing" in message
    # ... but tolerated when the caller opts in (legacy mid-statement).
    check_invariants(store, allow_dangling=True)


def test_adjacency_extra_entry():
    store, (a, __, __), (r1, __) = _small_store()
    store._adj_out[a].add(store._strings.intern("T"), 999)
    assert "non-live relationship" in _violation(store)


def test_adjacency_missing_entry():
    store, (a, __, __), (r1, __) = _small_store()
    store._adj_out[a].discard(store._strings.intern("T"), r1)
    message = _violation(store)
    assert "missing" in message


def test_typed_adjacency_drift():
    store, (a, __, __), (r1, __) = _small_store()
    # Relabel the group so the flat array still holds r1 (untyped
    # recount passes) but under the wrong type.
    store._adj_out[a].types[0] = store._strings.intern("S")
    assert "typed out-adjacency" in _violation(store)


def test_adjacency_empty_group_detected():
    store, (a, __, __), (r1, __) = _small_store()
    half = store._adj_out[a]
    # Graft an empty type group by hand: offsets gain a zero-width span.
    half.types.append(store._strings.intern("S"))
    half.offsets.append(half.offsets[-1])
    assert "empty bucket" in _violation(store)


def test_adjacency_empty_groups_compacted():
    store, (__, b, c), (__, r2) = _small_store()
    # Deleting the last :S relationship must remove its group entirely.
    store.delete_relationship(r2)
    for node_id in (b, c):
        for half in (store._adj_out[node_id], store._adj_in[node_id]):
            if half is not None:
                assert store._strings.intern("S") not in set(half.types)
    check_invariants(store)


def test_adjacency_unsorted_segment_detected():
    store, (a, b, __), __ = _small_store()
    r3 = store.create_relationship("T", a, b)
    half = store._adj_out[a]
    group = list(half.types).index(store._strings.intern("T"))
    low, high = half.offsets[group], half.offsets[group + 1]
    half.rels[low], half.rels[high - 1] = half.rels[high - 1], half.rels[low]
    assert "ascending" in _violation(store)


def test_label_index_stale_bucket():
    store, (a, __, __), __ = _small_store()
    store._label_index._by_label["A"].discard(a)
    assert "label index for :A" in _violation(store)


def test_label_index_empty_bucket():
    store, __, __ = _small_store()
    store._label_index._by_label["Ghost"] = set()
    assert "empty bucket" in _violation(store)


def test_property_index_stale_entry():
    store, (a, __, __), __ = _small_store()
    index = store._property_indexes[("A", "x")]
    index._value_of[999] = index._value_of[a]
    assert "reverse map" in _violation(store)


def test_property_index_bucket_drift():
    store, (a, b, __), __ = _small_store()
    index = store._property_indexes[("A", "x")]
    # Move a node to the wrong bucket, keeping the reverse map intact.
    key_a = index._value_of[a]
    key_b = index._value_of[b]
    index._by_value[key_a].discard(a)
    index._by_value[key_b].add(a)
    assert "buckets" in _violation(store)


def test_unique_constraint_violation_detected():
    store = GraphStore()
    store.create_node(("A",), {"x": 1})
    store.create_unique_constraint("A", "x")
    # Bypass the constraint check by writing the record directly.
    node_id = store.create_node(("A",), {})
    store._node_props[node_id] = {"x": 1}
    index = store._property_indexes[("A", "x")]
    index.add(node_id, 1)
    assert "uniqueness constraint" in _violation(store)


def test_node_hole_payload_detected():
    store, __, __ = _small_store()
    mark = store.mark()
    hole = store.create_node(("A",), {})
    store.rollback_to(mark)
    store._node_props[hole] = {"x": 1}
    assert f"node column hole {hole} still carries payload" in _violation(
        store
    )


def test_relationship_hole_payload_detected():
    store, (a, b, __), __ = _small_store()
    mark = store.mark()
    hole = store.create_relationship("T", a, b)
    store.rollback_to(mark)
    store._rel_deleted[hole] = 1
    assert (
        f"relationship column hole {hole} still carries payload"
        in _violation(store)
    )


def test_column_length_mismatch_detected():
    store, __, __ = _small_store()
    store._node_props.append(None)
    store._rel_deleted.append(0)
    message = _violation(store)
    assert (
        "node property column length 4 != label-set column length 3"
        in message
    )
    assert (
        "relationship tombstone column length 3 != type column length 2"
        in message
    )


def test_string_pool_disagreement_detected():
    store, __, __ = _small_store()
    sid = store._strings.id_of("A")
    store._strings._ids["A"] = 7
    assert f"string pool id {sid} holds 'A' but the reverse map says 7" in (
        _violation(store)
    )


def test_labelset_table_disagreement_detected():
    store, (a, __, __), __ = _small_store()
    labelset = store._node_labelsets[a]
    store._labelset_strings[labelset] = frozenset({"Z"})
    assert f"label-set id {labelset}: mask decodes to ['A']" in _violation(
        store
    )
    store._labelset_strings.append(frozenset())
    assert "label-set tables disagree on size" in _violation(store)


def test_unknown_labelset_id_detected():
    store, (a, __, __), __ = _small_store()
    store._node_labelsets[a] = 99
    assert f"node {a} has unknown label-set id 99" in _violation(store)


def _two_group_half(store):
    a = store.create_node(("A",), {})
    b = store.create_node((), {})
    store.create_relationship("T", a, b)
    store.create_relationship("S", a, b)
    return a, store._adj_out[a]


def test_offset_table_shape_detected():
    store, (a, __, __), __ = _small_store()
    store._adj_out[a].offsets.append(1)
    assert f"out-adjacency of node {a}: offset table shape" in _violation(
        store
    )


def test_non_monotone_offsets_detected():
    store = GraphStore()
    a, half = _two_group_half(store)
    half.offsets[1] = 3
    assert f"out-adjacency of node {a}: offsets [0, 3, 2] not monotone" in (
        _violation(store)
    )


def test_unknown_type_id_detected():
    store, (a, __, __), __ = _small_store()
    store._adj_out[a].types[0] = 999
    assert (
        f"out-adjacency of node {a}: group 0 has unknown type id 999"
        in _violation(store)
    )


def test_duplicate_type_group_detected():
    store = GraphStore()
    a, half = _two_group_half(store)
    half.types[1] = half.types[0]
    assert f"out-adjacency of node {a}: duplicate group for type 'T'" in (
        _violation(store)
    )


def test_relationship_under_wrong_node_detected():
    store, (a, __, c), (r1, __) = _small_store()
    type_t = store._strings.intern("T")
    store._adj_out[a].discard(type_t, r1)
    store._adj_out[c] = type(store._adj_out[a])()
    store._adj_out[c].add(type_t, r1)
    message = _violation(store)
    assert f"out-adjacency of node {a} is missing relationship(s) [{r1}]" in (
        message
    )
    assert (
        f"out-adjacency of node {c} holds non-live relationship(s) [{r1}]"
        in message
    )


def test_relationship_under_wrong_type_detected():
    store = GraphStore()
    a, half = _two_group_half(store)
    t_rel = half.group(store._strings.intern("T"))[0]
    half.discard(store._strings.intern("T"), t_rel)
    half.add(store._strings.intern("S"), t_rel)
    message = _violation(store)
    assert f"typed out-adjacency of node {a} type 'S': cached" in message
    assert (
        f"typed out-adjacency of node {a} type 'T': cached [] != recount "
        f"[{t_rel}]" in message
    )


def test_degree_drift_detected():
    store, (a, __, __), (r1, __) = _small_store()
    store._adj_out[a].rels.append(r1 + 7)
    message = _violation(store)
    assert f"out_degree({a}) = 2 != recount 1" in message
    assert f"degree({a}) = 2 != recount 1" in message


def test_adjacent_rel_ids_drift_detected():
    store, (a, __, __), (r1, r2) = _small_store()
    # Same length, wrong entry: the degree holds, the enumeration drifts.
    store._adj_out[a].rels[0] = r2
    message = _violation(store)
    assert f"adjacent_rel_ids({a}) = [{r2}] != recount [{r1}]" in message
    assert f"out_degree({a})" not in message


def test_property_index_stale_reverse_entry_detected():
    store, (a, __, __), __ = _small_store()
    store._node_props[a] = None  # the property left; the index kept it
    assert (
        f"property index :A(x) reverse map: stale [{a}], missing [], "
        f"wrong value []" in _violation(store)
    )


def test_property_index_bucket_count_drift_detected():
    store, __, __ = _small_store()
    store._property_indexes[("A", "x")]._by_value[("num", 77)] = set()
    assert "property index :A(x) bucket_count 3 != recount 2" in (
        _violation(store)
    )


def test_unique_constraint_without_index_detected():
    store, __, __ = _small_store()
    store.create_unique_constraint("A", "x")
    del store._property_indexes[("A", "x")]
    assert "uniqueness constraint :A(x) has no backing index" in (
        _violation(store)
    )


def test_check_memory_is_bounded_per_entity():
    # The recount keeps byte marks and integer count columns, not a set
    # per node: peak traced memory stays a small constant per entity.
    import tracemalloc

    store = GraphStore()
    nodes, rels = 5_000, 15_000
    store.bulk_load(
        (
            (node_id, ("A", "B")[: node_id % 3], {"x": node_id % 97})
            for node_id in range(nodes)
        ),
        (
            (
                rel_id,
                "T" if rel_id % 2 else "S",
                rel_id % nodes,
                (rel_id * 7 + 1) % nodes,
                {"w": rel_id} if rel_id % 5 else None,
            )
            for rel_id in range(rels)
        ),
    )
    store.create_index("A", "x")
    check_invariants(store)
    tracemalloc.start()
    try:
        check_invariants(store)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (nodes + rels) <= 160, peak / (nodes + rels)


def test_all_problems_reported_together():
    store, (a, __, __), (r1, __) = _small_store()
    store._live_nodes += 1
    store._adj_out[a].discard(store._strings.intern("T"), r1)
    with pytest.raises(InvariantViolation) as info:
        check_invariants(store)
    assert len(info.value.problems) >= 2


def test_journal_roundtrip_passes_through_result():
    store, __, __ = _small_store()
    store.commit_to(0)
    result = journal_roundtrip(
        store, lambda: store.create_node(("C",), {})
    )
    assert isinstance(result, int)
    assert store.label_count("C") == 0  # rolled back


def test_journal_roundtrip_detects_unrestored_state():
    store, __, __ = _small_store()
    store.commit_to(0)

    def sneaky():
        # Mutate and commit behind the bracket's back: rollback_to can
        # no longer undo it, so the helper must flag the difference.
        store.create_node(("C",), {})
        store.commit_to(0)

    with pytest.raises(InvariantViolation):
        journal_roundtrip(store, sneaky)


# -- canonical_graph_json: streamed, byte-equal to the dict rendering --------


def _dict_rendering(store):
    import json

    from repro.io.graph_json import graph_to_dict

    return json.dumps(graph_to_dict(store), sort_keys=True)


def test_canonical_json_of_every_corpus_and_generated_graph():
    from repro.testing.corpus import iter_bundles, load_bundle
    from repro.testing.generator import build_store, case_for

    cases = [load_bundle(path)[0] for path in iter_bundles()]
    assert cases, "the checked-in fuzz corpus is empty"
    cases += [case_for(3, index) for index in range(60)]
    for case in cases:
        store = build_store(case)
        assert canonical_graph_json(store) == _dict_rendering(store)


def test_canonical_json_with_id_gaps_and_dangling_relationships():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 11), max_size=8),
        st.lists(st.integers(0, 11), max_size=8),
        st.lists(st.integers(0, 11), max_size=4),
    )
    def check(dangling, deleted, dropped_rels):
        store = GraphStore()
        nodes = [
            store.create_node(
                ("A", "B")[: index % 3],
                {"i": index, "s": "é\"", "l": [index, 1.5, "x"]}
                if index % 2
                else {},
            )
            for index in range(12)
        ]
        rels = [
            store.create_relationship(
                "T" if index % 2 else "U",
                nodes[index],
                nodes[(index * 5 + 1) % 12],
                {"w": index} if index % 3 else {},
            )
            for index in range(12)
        ]
        for index in dropped_rels:
            store.delete_relationship(rels[index])
        for index in dangling:  # the node goes, its relationships stay
            store.delete_node(nodes[index], allow_dangling=True)
        for index in deleted:
            if not store.node_is_deleted(nodes[index]):
                for rel_id in store.adjacent_rel_ids(nodes[index]):
                    store.delete_relationship(rel_id)
                store.delete_node(nodes[index])
        mark = store.mark()
        store.create_node(("Z",), {})  # rolled back: an id gap at the end
        store.rollback_to(mark)
        assert canonical_graph_json(store) == _dict_rendering(store)

    check()
    assert canonical_graph_json(GraphStore()) == _dict_rendering(GraphStore())
