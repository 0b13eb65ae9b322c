"""StringPool interning semantics through the store's life cycle.

Satellite coverage for the columnar refactor: pooled label/type/key
strings must stay stable across checkpoint round-trips, survive
journal undo of the mutation that first interned them, and leave the
observable graph byte-identical through graph_json and CSV round
trips.
"""

import pytest

from repro.errors import EntityNotFoundError
from repro.graph.store import GraphStore
from repro.graph.strings import StringPool
from repro.io.csv_io import read_graph_csv, write_graph_csv
from repro.io.graph_json import dict_to_store, graph_to_dict
from repro.persistence.checkpoint import (
    restore_checkpoint_file,
    write_checkpoint,
)
from repro.testing.invariants import canonical_graph_json, check_invariants


def social_store() -> GraphStore:
    store = GraphStore()
    alice = store.create_node(["Person", "Admin"], {"name": "alice", "age": 31})
    bob = store.create_node(["Person"], {"name": "bob"})
    carol = store.create_node([], {"notes": ["x", 1, True]})
    store.create_relationship("KNOWS", alice, bob, {"since": 2019})
    store.create_relationship("KNOWS", bob, alice, {})
    store.create_relationship("FOLLOWS", bob, carol, {"w": 0.5})
    return store


class TestPoolBasics:
    def test_intern_is_stable_and_dense(self):
        pool = StringPool()
        assert pool.intern("Person") == 0
        assert pool.intern("KNOWS") == 1
        assert pool.intern("Person") == 0
        assert pool.text(0) == "Person"
        assert len(pool) == 2
        assert list(pool) == ["Person", "KNOWS"]
        assert pool.check() == []

    def test_id_of_never_allocates(self):
        pool = StringPool()
        assert pool.id_of("Ghost") is None
        assert len(pool) == 0
        pool.intern("Ghost")
        assert pool.id_of("Ghost") == 0

    def test_canon_returns_the_pooled_object(self):
        pool = StringPool()
        first = pool.canon("na" + "me")
        second = pool.canon("nam" + "e")
        assert first == "name"
        assert first is second

    def test_store_property_keys_share_one_object(self):
        store = GraphStore()
        a = store.create_node(["P"], {"k" + "ey": 1})
        b = store.create_node(["P"], {"ke" + "y": 2})
        (key_a,) = store.node_properties(a)
        (key_b,) = store.node_properties(b)
        assert key_a is key_b


class TestCheckpointRoundTrip:
    def test_pool_recovers_with_identical_graph(self, tmp_path):
        store = social_store()
        store.restore_lsn(17)
        path = write_checkpoint(tmp_path, store)
        restored = GraphStore()
        assert restore_checkpoint_file(restored, path)["lsn"] == 17
        assert canonical_graph_json(restored) == canonical_graph_json(store)
        check_invariants(restored)
        assert restored.string_pool.check() == []

    def test_restored_pool_reinterns_in_replay_order(self, tmp_path):
        store = social_store()
        path = write_checkpoint(tmp_path, store)
        restored = GraphStore()
        restore_checkpoint_file(restored, path)
        # The mapping may differ; every live label/type/key must be
        # present, and pooled key objects must be shared again.
        for needed in ("Person", "Admin", "KNOWS", "FOLLOWS", "name"):
            assert needed in restored.string_pool
        name_keys = set()
        for node in restored.nodes():
            for key in restored.node_properties(node.id):
                if key == "name":
                    name_keys.add(id(key))
        assert len(name_keys) == 1

    def test_roundtrip_after_mutations_on_restored_store(self, tmp_path):
        store = social_store()
        path = write_checkpoint(tmp_path, store)
        restored = GraphStore()
        restore_checkpoint_file(restored, path)
        node = restored.create_node(["Person"], {"name": "dave"})
        restored.set_node_property(node, "age", 20)
        check_invariants(restored)


class TestJournalUndo:
    def test_rollback_of_first_label_keeps_pool_and_tables_consistent(self):
        store = GraphStore()
        store.create_node(["Seed"], {})
        mark = store.mark()
        ghost = store.create_node(["Ghost", "Phantom"], {"k": 1})
        assert "Ghost" in store.string_pool
        store.rollback_to(mark)
        with pytest.raises(EntityNotFoundError):
            store.node_labels(ghost)
        # Pool ids are never freed -- the strings stay interned, the
        # labelset tables stay internally consistent, and nothing
        # references the rolled-back node.
        assert "Ghost" in store.string_pool
        assert "Phantom" in store.string_pool
        assert store.node_access(("Ghost",), fetch=True)[2] == []
        check_invariants(store)

    def test_rollback_of_first_type_keeps_adjacency_clean(self):
        store = GraphStore()
        a = store.create_node([], {})
        b = store.create_node([], {})
        mark = store.mark()
        store.create_relationship("NEVER", a, b, {})
        store.rollback_to(mark)
        assert "NEVER" in store.string_pool
        assert store.adjacent_rel_ids(a) == []
        assert store.adjacent_rel_ids(b) == []
        assert store.degree(a) == 0
        check_invariants(store)

    def test_reinterning_after_rollback_reuses_the_old_id(self):
        store = GraphStore()
        a = store.create_node([], {})
        b = store.create_node([], {})
        mark = store.mark()
        store.create_relationship("EDGE", a, b, {})
        old_id = store.string_pool.id_of("EDGE")
        store.rollback_to(mark)
        rel = store.create_relationship("EDGE", a, b, {})
        assert store.string_pool.id_of("EDGE") == old_id
        assert store.adjacent_rel_ids(a, incoming=False) == [rel]
        check_invariants(store)


class TestSerializationRoundTrips:
    def test_graph_json_roundtrip_is_byte_identical(self):
        store = social_store()
        clone = dict_to_store(graph_to_dict(store))
        assert canonical_graph_json(clone) == canonical_graph_json(store)
        check_invariants(clone)

    def test_csv_roundtrip_is_byte_identical(self, tmp_path):
        store = social_store()
        nodes_path = tmp_path / "nodes.csv"
        rels_path = tmp_path / "rels.csv"
        write_graph_csv(store, nodes_path, rels_path)
        clone = read_graph_csv(nodes_path, rels_path)
        assert canonical_graph_json(clone) == canonical_graph_json(store)
        check_invariants(clone)

    def test_bulk_load_matches_statement_built_store(self, tmp_path):
        from repro.bulkload import iter_nodes_csv, iter_rels_csv, load_store

        store = social_store()
        nodes_path = tmp_path / "nodes.csv"
        rels_path = tmp_path / "rels.csv"
        write_graph_csv(store, nodes_path, rels_path)
        loaded = load_store(
            iter_nodes_csv(nodes_path), iter_rels_csv(rels_path)
        )
        assert canonical_graph_json(loaded) == canonical_graph_json(store)
        check_invariants(loaded)
