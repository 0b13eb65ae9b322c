"""Unit tests for uniqueness constraints."""

import pytest

from repro import Dialect, Graph
from repro.errors import ConstraintViolationError


@pytest.fixture
def constrained(revised_graph):
    revised_graph.run("CREATE (:User {id: 1}), (:User {id: 2})")
    revised_graph.create_unique_constraint("User", "id")
    return revised_graph


class TestConstraintCreation:
    def test_existing_duplicates_rejected(self, revised_graph):
        revised_graph.run("CREATE (:User {id: 1}), (:User {id: 1})")
        with pytest.raises(ConstraintViolationError):
            revised_graph.create_unique_constraint("User", "id")

    def test_constraint_listed(self, constrained):
        assert constrained.store.unique_constraints() == {("User", "id")}

    def test_drop_constraint(self, constrained):
        constrained.drop_unique_constraint("User", "id")
        constrained.run("CREATE (:User {id: 1})")  # duplicate now allowed
        assert constrained.node_count() == 3

    def test_nodes_without_key_are_unconstrained(self, constrained):
        constrained.run("CREATE (:User), (:User)")
        assert constrained.node_count() == 4


class TestBackingIndex:
    """DROP INDEX may not pull the index out from under a constraint."""

    def test_store_refuses_and_logs_nothing(self, constrained):
        store = constrained.store
        lsn = store.lsn
        seen = []
        store.add_commit_observer(lambda lsn, ops: seen.append(ops))
        with pytest.raises(ConstraintViolationError, match=r":User\(id\)"):
            store.drop_index("User", "id")
        assert store.index_keys() == [("User", "id")]
        assert store.unique_constraints() == {("User", "id")}
        assert (store.lsn, seen) == (lsn, [])

    def test_statement_refused_and_writes_keep_working(self, constrained):
        with pytest.raises(ConstraintViolationError, match="constraint"):
            constrained.run("DROP INDEX ON :User(id)")
        # The constraint still enforces, through its index.
        with pytest.raises(ConstraintViolationError):
            constrained.run("CREATE (:User {id: 1})")
        constrained.run("CREATE (:User {id: 3})")
        constrained.run("MATCH (u:User {id: 3}) SET u.id = 4")
        assert constrained.node_count() == 3

    def test_drop_constraint_then_index(self, constrained):
        constrained.run("DROP CONSTRAINT ON (u:User) ASSERT u.id IS UNIQUE")
        constrained.run("DROP INDEX ON :User(id)")
        assert constrained.store.index_keys() == []
        constrained.run("CREATE (:User {id: 1})")  # duplicate now allowed

    def test_refused_over_the_client(self):
        from repro.client import Client
        from repro.server.service import GraphService, ServerConfig

        with Client.in_process(GraphService(ServerConfig())) as client:
            client.run("CREATE CONSTRAINT ON (p:P) ASSERT p.k IS UNIQUE")
            with pytest.raises(ConstraintViolationError, match=r":P\(k\)"):
                client.run("DROP INDEX ON :P(k)")
            client.run("CREATE (:P {k: 1})")
            with pytest.raises(ConstraintViolationError):
                client.run("CREATE (:P {k: 1})")


class TestCopiedSchema:
    def test_copy_keeps_indexes_and_constraints(self, constrained):
        constrained.store.create_index("User", "name")
        clone = constrained.copy()
        assert clone.store.index_keys() == constrained.store.index_keys()
        assert clone.store.unique_constraints() == {("User", "id")}
        with pytest.raises(ConstraintViolationError):
            clone.run("CREATE (:User {id: 1})")
        # ... and the copy is independent of the original's schema.
        clone.drop_unique_constraint("User", "id")
        assert constrained.store.unique_constraints() == {("User", "id")}

    def test_planner_on_the_copy_names_the_index(self, constrained):
        plan = constrained.copy().plan("MATCH (u:User {id: 2}) RETURN u")
        assert "index :User(id)" in plan and "est. 1 candidates" in plan


class TestEnforcement:
    def test_create_duplicate_rejected(self, constrained):
        with pytest.raises(ConstraintViolationError):
            constrained.run("CREATE (:User {id: 1})")
        assert constrained.node_count() == 2  # statement rolled back

    def test_whole_statement_rolls_back(self, constrained):
        with pytest.raises(ConstraintViolationError):
            constrained.run("CREATE (:Log), (:User {id: 2})")
        assert constrained.node_count() == 2  # the :Log create is undone

    def test_set_to_duplicate_rejected(self, constrained):
        with pytest.raises(ConstraintViolationError):
            constrained.run("MATCH (u:User {id: 2}) SET u.id = 1")
        ids = sorted(
            constrained.run("MATCH (u:User) RETURN u.id AS i").values("i")
        )
        assert ids == [1, 2]

    def test_set_to_own_value_is_fine(self, constrained):
        constrained.run("MATCH (u:User {id: 2}) SET u.id = 2")

    def test_label_addition_can_violate(self, constrained):
        constrained.run("CREATE (:Pending {id: 1})")
        with pytest.raises(ConstraintViolationError):
            constrained.run("MATCH (p:Pending) SET p:User")

    def test_other_labels_unaffected(self, constrained):
        constrained.run("CREATE (:Vendor {id: 1}), (:Vendor {id: 1})")
        assert constrained.node_count() == 4

    def test_direct_store_mutation_is_undone(self, constrained):
        store = constrained.store
        before = store.node_count()
        with pytest.raises(ConstraintViolationError):
            store.create_node(("User",), {"id": 1})
        assert store.node_count() == before
        # The index holds no trace of the rejected node.
        index = store.property_index("User", "id")
        assert len(index.ids(1)) == 1

    def test_delete_then_reuse_value(self, constrained):
        constrained.run("MATCH (u:User {id: 1}) DELETE u")
        constrained.run("CREATE (:User {id: 1})")
        assert constrained.node_count() == 2


class TestConstraintsWithMerge:
    def test_merge_same_respects_constraint(self, constrained):
        constrained.run(
            "UNWIND [1, 1, 3] AS uid MERGE SAME (:User {id: uid})"
        )
        ids = sorted(
            constrained.run("MATCH (u:User) RETURN u.id AS i").values("i")
        )
        assert ids == [1, 2, 3]

    def test_merge_all_duplicate_creation_rejected(self, constrained):
        # Two identical failing rows: MERGE ALL would create two nodes
        # with id 7, which the constraint refuses.
        with pytest.raises(ConstraintViolationError):
            constrained.run(
                "UNWIND [7, 7] AS uid MERGE ALL (:User {id: uid})"
            )
        assert constrained.node_count() == 2

    def test_legacy_merge_with_constraint(self):
        g = Graph(Dialect.CYPHER9)
        g.create_unique_constraint("User", "id")
        g.run("UNWIND [1, 1, 2] AS uid MERGE (:User {id: uid})")
        assert g.node_count() == 2
