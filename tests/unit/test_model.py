"""Unit tests for Node / Relationship / Path handles and snapshots."""

import pytest

from repro.graph.model import GraphSnapshot, Node, Path, Relationship
from repro.graph.store import GraphStore


@pytest.fixture
def store_with_pair():
    store = GraphStore()
    a = store.create_node(("User",), {"id": 1, "name": "Bob"})
    b = store.create_node(("Product",), {"id": 2})
    r = store.create_relationship("ORDERED", a, b, {"qty": 3})
    return store, a, b, r


class TestNodeHandle:
    def test_accessors(self, store_with_pair):
        store, a, __, __ = store_with_pair
        node = store.node(a)
        assert node.id == a
        assert node.labels == frozenset({"User"})
        assert node.get("name") == "Bob"
        assert node["id"] == 1
        assert node.get("missing") is None
        assert node.has_label("User")
        assert not node.has_label("Vendor")
        assert node.degree() == 1

    def test_handles_reflect_current_state(self, store_with_pair):
        store, a, __, __ = store_with_pair
        node = store.node(a)
        store.set_node_property(a, "name", "Alice")
        assert node.get("name") == "Alice"

    def test_equality_and_hash(self, store_with_pair):
        store, a, b, __ = store_with_pair
        assert store.node(a) == store.node(a)
        assert store.node(a) != store.node(b)
        assert len({store.node(a), store.node(a), store.node(b)}) == 2

    def test_properties_view_is_read_only(self, store_with_pair):
        store, a, __, __ = store_with_pair
        with pytest.raises(TypeError):
            store.node(a).properties["x"] = 1

    def test_repr_contains_labels_and_props(self, store_with_pair):
        store, a, __, __ = store_with_pair
        text = repr(store.node(a))
        assert ":User" in text and "Bob" in text


class TestRelationshipHandle:
    def test_accessors(self, store_with_pair):
        store, a, b, r = store_with_pair
        rel = store.relationship(r)
        assert rel.type == "ORDERED"
        assert rel.start.id == a
        assert rel.end.id == b
        assert rel.get("qty") == 3
        assert rel["qty"] == 3

    def test_other_end(self, store_with_pair):
        store, a, b, r = store_with_pair
        rel = store.relationship(r)
        assert rel.other_end(store.node(a)).id == b
        assert rel.other_end(store.node(b)).id == a

    def test_other_end_of_loop(self):
        store = GraphStore()
        n = store.create_node()
        r = store.create_relationship("L", n, n)
        rel = store.relationship(r)
        assert rel.other_end(store.node(n)).id == n

    def test_node_and_rel_never_equal(self, store_with_pair):
        store, a, __, r = store_with_pair
        assert store.node(a) != store.relationship(r)


class TestPath:
    def test_construction_and_accessors(self, store_with_pair):
        store, a, b, r = store_with_pair
        path = Path([store.node(a), store.node(b)], [store.relationship(r)])
        assert len(path) == 1
        assert path.start.id == a
        assert path.end.id == b
        assert [n.id for n in path.nodes] == [a, b]
        assert [x.id for x in path.relationships] == [r]

    def test_zero_length_path(self, store_with_pair):
        store, a, __, __ = store_with_pair
        path = Path([store.node(a)], [])
        assert len(path) == 0
        assert path.start == path.end

    def test_invalid_shape_rejected(self, store_with_pair):
        store, a, __, r = store_with_pair
        with pytest.raises(ValueError):
            Path([store.node(a)], [store.relationship(r)])

    def test_equality_by_ids(self, store_with_pair):
        store, a, b, r = store_with_pair
        one = Path([store.node(a), store.node(b)], [store.relationship(r)])
        two = Path([store.node(a), store.node(b)], [store.relationship(r)])
        assert one == two
        assert hash(one) == hash(two)


class TestGraphSnapshot:
    def test_signatures(self, store_with_pair):
        store, a, __, r = store_with_pair
        snapshot = store.snapshot()
        labels, props = snapshot.node_signature(a)
        assert labels == ("User",)
        assert dict(props) == {"id": 1, "name": "Bob"}
        rel_type, rel_props = snapshot.rel_signature(r)
        assert rel_type == "ORDERED"
        assert dict(rel_props) == {"qty": 3}

    def test_order_and_size(self, store_with_pair):
        store, *_ = store_with_pair
        snapshot = store.snapshot()
        assert snapshot.order() == 2
        assert snapshot.size() == 1

    def test_relationship_endpoints(self, store_with_pair):
        store, a, b, r = store_with_pair
        snapshot = store.snapshot()
        # The snapshot carries endpoints; enumeration is the store's job.
        assert (snapshot.source[r], snapshot.target[r]) == (a, b)
        assert store.adjacent_rel_ids(a, incoming=False) == [r]
        assert store.adjacent_rel_ids(b, outgoing=False) == [r]
        assert store.adjacent_rel_ids(b, incoming=False) == []

    def test_has_dangling(self):
        snapshot = GraphSnapshot(
            nodes=frozenset({0}),
            relationships=frozenset({0}),
            source={0: 0},
            target={0: 99},  # endpoint not in nodes
            types={0: "T"},
        )
        assert snapshot.has_dangling()
