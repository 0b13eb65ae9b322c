"""Unit tests for the graph store: CRUD, journal, tombstones, indexes."""

import pytest

from repro.errors import (
    ConstraintViolationError,
    CypherEvaluationError,
    DanglingRelationshipError,
    DeletedEntityError,
    EntityNotFoundError,
)
from repro.graph.store import GraphStore


@pytest.fixture
def pair(store):
    """Two nodes connected by one relationship."""
    a = store.create_node(("User",), {"id": 1})
    b = store.create_node(("Product",), {"id": 2})
    r = store.create_relationship("ORDERED", a, b, {"qty": 3})
    return a, b, r


class TestCreation:
    def test_create_node_assigns_sequential_ids(self, store):
        assert store.create_node() == 0
        assert store.create_node() == 1

    def test_node_contents(self, store):
        node_id = store.create_node(("A", "B"), {"x": 1})
        assert store.node_labels(node_id) == frozenset({"A", "B"})
        assert store.node_properties(node_id) == {"x": 1}

    def test_relationship_contents(self, store, pair):
        a, b, r = pair
        assert store.rel_type(r) == "ORDERED"
        assert store.rel_source(r) == a
        assert store.rel_target(r) == b
        assert store.rel_properties(r) == {"qty": 3}

    def test_relationship_requires_type(self, store):
        a = store.create_node()
        with pytest.raises(ConstraintViolationError):
            store.create_relationship("", a, a)

    def test_relationship_requires_live_endpoints(self, store):
        a = store.create_node()
        with pytest.raises(EntityNotFoundError):
            store.create_relationship("T", a, 99)
        b = store.create_node()
        store.delete_node(b)
        with pytest.raises(EntityNotFoundError):
            store.create_relationship("T", a, b)

    def test_unknown_ids_raise(self, store):
        with pytest.raises(EntityNotFoundError):
            store.node_labels(7)
        with pytest.raises(EntityNotFoundError):
            store.rel_type(7)

    def test_self_loop_allowed(self, store):
        a = store.create_node()
        r = store.create_relationship("LOOP", a, a)
        assert store.degree(a) == 2  # out + in
        assert store.adjacent_rel_ids(a, incoming=False) == [r]
        assert store.adjacent_rel_ids(a, outgoing=False) == [r]
        assert store.adjacent_rel_ids(a) == [r]  # emitted once


class TestAdjacency:
    def test_out_in_sets(self, store, pair):
        a, b, r = pair
        assert store.adjacent_rel_ids(a, incoming=False) == [r]
        assert store.adjacent_rel_ids(b, outgoing=False) == [r]
        assert store.adjacent_rel_ids(a, outgoing=False) == []
        assert store.degree(a) == 1

    def test_counts(self, store, pair):
        assert store.node_count() == 2
        assert store.relationship_count() == 1

    def test_iteration_is_id_ordered(self, store):
        ids = [store.create_node() for __ in range(5)]
        assert [n.id for n in store.nodes()] == ids


class TestDeletion:
    def test_strict_delete_refuses_attached(self, store, pair):
        a, __, __ = pair
        with pytest.raises(DanglingRelationshipError):
            store.delete_node(a)

    def test_delete_after_relationship_removed(self, store, pair):
        a, __, r = pair
        store.delete_relationship(r)
        store.delete_node(a)
        assert store.node_is_deleted(a)
        assert store.node_count() == 1

    def test_dangling_delete_leaves_relationship(self, store, pair):
        a, __, r = pair
        store.delete_node(a, allow_dangling=True)
        assert store.node_is_deleted(a)
        assert not store.rel_is_deleted(r)
        snapshot = store.snapshot()
        assert snapshot.has_dangling()

    def test_deleted_node_reports_empty(self, store, pair):
        a, __, r = pair
        store.delete_relationship(r)
        store.delete_node(a)
        assert store.node_labels(a) == frozenset()
        assert store.node_properties(a) == {}

    def test_delete_is_idempotent(self, store, pair):
        __, __, r = pair
        store.delete_relationship(r)
        store.delete_relationship(r)
        assert store.relationship_count() == 0

    def test_writes_to_deleted_raise(self, store, pair):
        a, __, r = pair
        store.delete_relationship(r)
        store.delete_node(a)
        with pytest.raises(DeletedEntityError):
            store.set_node_property(a, "x", 1)
        with pytest.raises(DeletedEntityError):
            store.add_label(a, "L")
        with pytest.raises(DeletedEntityError):
            store.set_rel_property(r, "x", 1)


class TestProperties:
    def test_set_and_remove(self, store):
        n = store.create_node()
        store.set_node_property(n, "x", 10)
        assert store.node_properties(n) == {"x": 10}
        store.set_node_property(n, "x", None)
        assert store.node_properties(n) == {}

    def test_labels_add_remove(self, store):
        n = store.create_node(("A",))
        store.add_label(n, "B")
        store.remove_label(n, "A")
        assert store.node_labels(n) == frozenset({"B"})
        assert store.node_access(("A",), fetch=True)[2] == []
        assert store.node_access(("B",), fetch=True)[2] == [n]


class TestJournal:
    def test_rollback_undoes_everything(self, store):
        a = store.create_node(("A",), {"x": 1})
        mark = store.mark()
        b = store.create_node(("B",))
        r = store.create_relationship("T", a, b)
        store.set_node_property(a, "x", 2)
        store.add_label(a, "Z")
        store.delete_relationship(r)
        store.rollback_to(mark)
        assert store.node_count() == 1
        assert store.node_properties(a) == {"x": 1}
        assert store.node_labels(a) == frozenset({"A"})
        with pytest.raises(EntityNotFoundError):
            store.node_labels(b)

    def test_rollback_restores_deleted_entities(self, store):
        a = store.create_node(("A",), {"x": 1})
        b = store.create_node()
        r = store.create_relationship("T", a, b)
        mark = store.mark()
        store.delete_relationship(r)
        store.delete_node(a)
        store.rollback_to(mark)
        assert not store.node_is_deleted(a)
        assert not store.rel_is_deleted(r)
        assert store.node_access(("A",), fetch=True)[2] == [a]
        assert store.adjacent_rel_ids(a, incoming=False) == [r]

    def test_commit_trims_journal_without_changes(self, store):
        mark = store.mark()
        store.create_node()
        store.commit_to(mark)
        assert store.journal_length() == mark
        assert store.node_count() == 1

    def test_nested_marks(self, store):
        outer = store.mark()
        store.create_node()
        inner = store.mark()
        store.create_node()
        store.rollback_to(inner)
        assert store.node_count() == 1
        store.rollback_to(outer)
        assert store.node_count() == 0

    def test_rollback_of_label_and_property_changes(self, store):
        n = store.create_node(("A",), {"x": 1})
        mark = store.mark()
        store.remove_label(n, "A")
        store.set_node_property(n, "x", None)
        store.set_node_property(n, "y", 5)
        store.rollback_to(mark)
        assert store.node_labels(n) == frozenset({"A"})
        assert store.node_properties(n) == {"x": 1}


class TestCommitProtocol:
    """Every effective commit ends the same way, listener or not."""

    def test_autocommit_cuts_the_journal_and_counts_commits(self):
        from repro import Graph

        graph = Graph()
        for i in range(25):
            graph.run("CREATE (:N {i: $i})", i=i)
            assert graph.store.journal_length() == 0
        assert graph.store.lsn == 25
        graph.run("MATCH (n:N) RETURN count(n)")  # read-only
        graph.run("MATCH (n:N {i: -1}) SET n.x = 1")  # matches nothing
        with pytest.raises(CypherEvaluationError):
            graph.run("MATCH (n:N) SET n.x = 1 / 0")  # rolled back
        assert graph.store.lsn == 25
        graph.create_node("N", i=99)  # Graph._direct
        graph.run("CREATE INDEX ON :N(i)")  # schema change
        graph.run("CREATE INDEX ON :N(i)")  # no-op: already there
        assert graph.store.lsn == 27
        assert graph.store.journal_length() == 0

    def test_open_transaction_retains_the_journal(self):
        from repro import Graph
        from repro.testing.invariants import canonical_graph_json

        graph = Graph()
        graph.run("CREATE (:N {i: 1})-[:T]->(:N {i: 2})")
        before = canonical_graph_json(graph.store)
        with pytest.raises(RuntimeError), graph.transaction():
            graph.run("MATCH (n:N {i: 1}) SET n.i = 10, n:M")
            graph.run("MATCH (n:N {i: 2}) DETACH DELETE n")
            assert graph.store.journal_length() > 0
            assert graph.store.lsn == 1
            raise RuntimeError("abort")
        assert canonical_graph_json(graph.store) == before
        assert (graph.store.journal_length(), graph.store.lsn) == (0, 1)
        with graph.transaction():
            graph.run("CREATE (:N {i: 3})")
            graph.run("CREATE (:N {i: 4})")
        assert (graph.store.journal_length(), graph.store.lsn) == (0, 2)

    def test_sequence_hook_then_lsn_then_observers_then_cut(self, store):
        trace = []
        store.set_commit_hook(
            lambda ops: trace.append(("hook", store.lsn, ops[0][0]))
        )
        store.add_commit_observer(
            lambda lsn, ops: trace.append(
                ("observer", lsn, ops[0][0], store.journal_length())
            )
        )
        mark = store.mark()
        store.create_node(("A",))
        store.commit_statement(mark)
        store.create_index("A", "k")
        assert trace == [
            ("hook", 0, "create_node"),
            ("observer", 1, "create_node", 1),
            ("hook", 1, "create_index"),
            ("observer", 2, "create_index", 0),
        ]
        assert store.journal_length() == 0

    def test_raising_hook_vetoes_data_and_schema_commits(self, store):
        seen = []

        def refuse(ops):
            raise OSError("disk full")

        store.add_commit_observer(lambda lsn, ops: seen.append(lsn))
        node = store.create_node(("A",), {"k": 1})
        store.commit_statement(0)
        store.set_commit_hook(refuse)
        mark = store.mark()
        store.set_node_property(node, "k", 2)
        store.create_node(("A",), {"k": 3})
        with pytest.raises(OSError):
            store.commit_statement(mark)
        with pytest.raises(OSError):
            store.create_index("A", "k")
        with pytest.raises(OSError):
            store.create_unique_constraint("A", "k")
        assert store.node_properties(node) == {"k": 1}
        assert store.node_count() == 1
        assert store.index_keys() == []
        assert store.unique_constraints() == frozenset()
        assert (store.lsn, seen, store.journal_length()) == (1, [1], 0)

    def test_replay_and_restore_lsn_never_commit(self, store):
        seen = []
        store.add_commit_observer(lambda lsn, ops: seen.append(lsn))
        store.apply_redo(("create_node", 0, ["A"], {"k": 1}))
        store.apply_redo(("create_index", "A", "k"))
        store.apply_redo(("create_constraint", "A", "k"))
        assert (store.lsn, seen) == (0, [])
        assert store.unique_constraints() == {("A", "k")}
        store.restore_lsn(7)
        store.restore_lsn(3)  # never moves backwards
        assert store.lsn == 7


class TestPropertyIndex:
    def test_index_backfills_existing_nodes(self, store):
        a = store.create_node(("User",), {"id": 1})
        b = store.create_node(("User",), {"id": 2})
        index = store.create_index("User", "id")
        assert index.ids(1) == [a]
        assert index.ids(2) == [b]

    def test_index_tracks_mutations(self, store):
        index = store.create_index("User", "id")
        n = store.create_node(("User",), {"id": 1})
        assert index.ids(1) == [n]
        store.set_node_property(n, "id", 9)
        assert index.ids(1) == []
        assert index.ids(9) == [n]
        store.remove_label(n, "User")
        assert index.ids(9) == []
        store.add_label(n, "User")
        assert index.ids(9) == [n]

    def test_index_survives_rollback(self, store):
        index = store.create_index("User", "id")
        n = store.create_node(("User",), {"id": 1})
        mark = store.mark()
        store.set_node_property(n, "id", 2)
        store.rollback_to(mark)
        assert index.ids(1) == [n]
        assert index.ids(2) == []

    def test_numeric_equivalence_in_lookup(self, store):
        index = store.create_index("User", "id")
        n = store.create_node(("User",), {"id": 1})
        assert index.ids(1.0) == [n]

    def test_deleted_node_leaves_index(self, store):
        index = store.create_index("User", "id")
        n = store.create_node(("User",), {"id": 1})
        store.delete_node(n)
        assert index.ids(1) == []

    def test_drop_index(self, store):
        store.create_index("User", "id")
        store.drop_index("User", "id")
        assert store.property_index("User", "id") is None


class TestSnapshotsAndCopies:
    def test_snapshot_excludes_tombstones(self, store, pair):
        a, b, r = pair
        store.delete_relationship(r)
        store.delete_node(a)
        snapshot = store.snapshot()
        assert snapshot.nodes == {b}
        assert snapshot.relationships == frozenset()

    def test_snapshot_without_dangling(self, store, pair):
        a, __, r = pair
        store.delete_node(a, allow_dangling=True)
        assert store.snapshot().size() == 1
        assert store.snapshot(include_dangling=False).size() == 0

    def test_copy_is_independent(self, store, pair):
        clone = store.copy()
        store.create_node()
        assert clone.node_count() == 2
        assert store.node_count() == 3

    def test_load_snapshot_round_trip(self, store, pair):
        from repro.graph.comparison import isomorphic

        snapshot = store.snapshot()
        other = GraphStore()
        other.load_snapshot(snapshot)
        assert isomorphic(other.snapshot(), snapshot)


class TestTypedAdjacency:
    def test_typed_lookup(self, store):
        a = store.create_node()
        b = store.create_node()
        t = store.create_relationship("T", a, b)
        s = store.create_relationship("S", a, b)
        assert store.adjacent_rel_ids(a, incoming=False, types=("T",)) == [t]
        assert store.adjacent_rel_ids(a, incoming=False, types=("T", "S")) == [
            t,
            s,
        ]
        assert store.adjacent_rel_ids(b, outgoing=False, types=("S",)) == [s]
        assert store.adjacent_rel_ids(a, incoming=False, types=("X",)) == []

    def test_typed_lookup_tracks_deletion(self, store):
        a = store.create_node()
        b = store.create_node()
        t = store.create_relationship("T", a, b)
        store.delete_relationship(t)
        assert store.adjacent_rel_ids(a, types=("T",)) == []

    def test_typed_lookup_tracks_rollback(self, store):
        a = store.create_node()
        b = store.create_node()
        t = store.create_relationship("T", a, b)
        mark = store.mark()
        store.delete_relationship(t)
        store.rollback_to(mark)
        assert store.adjacent_rel_ids(a, types=("T",)) == [t]
        mark = store.mark()
        s = store.create_relationship("S", a, b)
        store.rollback_to(mark)
        assert store.adjacent_rel_ids(a, types=("S",)) == []

    def test_typed_agrees_with_plain_scan(self, store):
        a = store.create_node()
        b = store.create_node()
        for i in range(6):
            store.create_relationship("T" if i % 2 else "S", a, b)
        for rel_type in ("T", "S"):
            expected = [
                r
                for r in store.adjacent_rel_ids(a, incoming=False)
                if store.rel_type(r) == rel_type
            ]
            assert (
                store.adjacent_rel_ids(a, incoming=False, types=(rel_type,))
                == expected
            )
