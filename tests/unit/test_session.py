"""Unit tests for the Graph façade and transactions."""

import pytest

from repro import Dialect, Graph, PropertyConflictError, Transaction
from repro.errors import TransactionError
from repro.runtime.context import MatchMode


class TestGraphFacade:
    def test_direct_creation(self, revised_graph):
        bob = revised_graph.create_node("User", id=1, name="Bob")
        laptop = revised_graph.create_node("Product", id=2)
        rel = revised_graph.create_relationship(bob, "ORDERED", laptop, qty=1)
        assert rel.start == bob and rel.end == laptop
        assert revised_graph.node_count() == 2
        assert revised_graph.relationship_count() == 1

    def test_relationship_by_id(self, revised_graph):
        a = revised_graph.create_node()
        b = revised_graph.create_node()
        rel = revised_graph.create_relationship(a.id, "T", b.id)
        assert rel.type == "T"

    def test_statistics(self, revised_graph):
        revised_graph.run("CREATE (:User)-[:ORDERED]->(:Product)")
        stats = revised_graph.statistics()
        assert stats.node_count == 2
        assert stats.relationship_types == {"ORDERED": 1}
        assert stats.average_degree == 1.0

    def test_copy_is_deep(self, revised_graph):
        revised_graph.run("CREATE (:N)")
        clone = revised_graph.copy()
        clone.run("CREATE (:N)")
        assert revised_graph.node_count() == 1
        assert clone.node_count() == 2

    def test_create_index_used_by_match(self, revised_graph):
        revised_graph.create_index("User", "id")
        revised_graph.run("UNWIND range(0, 99) AS i CREATE (:User {id: i})")
        result = revised_graph.run(
            "MATCH (u:User {id: 42}) RETURN u.id AS id"
        )
        assert result.values("id") == [42]

    def test_repr(self, revised_graph):
        assert "dialect=revised" in repr(revised_graph)

    def test_workers_accepts_only_one(self):
        assert Graph(workers=1).run("RETURN 1 AS x").values("x") == [1]
        with pytest.raises(ValueError, match="parallel execution"):
            Graph(workers=2)

    def test_parallel_option_is_gone(self):
        with pytest.raises(TypeError):
            Graph(parallel="thread")

    @pytest.mark.parametrize("derive", ["copy", "with_dialect"])
    def test_derived_graph_keeps_engine_settings(self, derive):
        graph = Graph(
            Dialect.CYPHER9,
            extended_merge=True,
            match_mode="homomorphism",
            use_planner=True,
        )
        derived = (
            graph.copy()
            if derive == "copy"
            else graph.with_dialect(Dialect.CYPHER9)
        )
        engine = derived.engine
        assert engine.dialect is Dialect.CYPHER9
        assert engine.extended_merge is True
        assert engine.match_mode is MatchMode.HOMOMORPHISM
        assert engine.use_planner is True


class TestTransactions:
    def test_commit_keeps_changes(self, revised_graph):
        with revised_graph.transaction():
            revised_graph.run("CREATE (:N)")
            revised_graph.run("CREATE (:N)")
        assert revised_graph.node_count() == 2

    def test_exception_rolls_back(self, revised_graph):
        with pytest.raises(RuntimeError):
            with revised_graph.transaction():
                revised_graph.run("CREATE (:N)")
                raise RuntimeError("boom")
        assert revised_graph.node_count() == 0

    def test_explicit_rollback(self, revised_graph):
        tx = revised_graph.transaction()
        revised_graph.run("CREATE (:N)")
        tx.rollback()
        assert revised_graph.node_count() == 0

    def test_statement_error_inside_transaction(self, revised_graph):
        # A failing statement rolls itself back; the transaction can
        # continue and commit the rest.
        revised_graph.run("CREATE (:P {v: 1}), (:P {v: 2})")
        with revised_graph.transaction():
            revised_graph.run("CREATE (:Extra)")
            with pytest.raises(PropertyConflictError):
                revised_graph.run("MATCH (a:P), (b:P) SET a.v = b.v")
        assert revised_graph.node_count() == 3

    def test_closed_transaction_rejects_reuse(self, revised_graph):
        tx = revised_graph.transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.commit()
        with pytest.raises(TransactionError):
            tx.rollback()

    def test_nested_transactions(self, revised_graph):
        with revised_graph.transaction():
            revised_graph.run("CREATE (:Outer)")
            inner = revised_graph.transaction()
            revised_graph.run("CREATE (:Inner)")
            inner.rollback()
        assert revised_graph.node_count() == 1
        labels = revised_graph.nodes()[0].labels
        assert labels == frozenset({"Outer"})

    def test_transaction_type(self, revised_graph):
        assert isinstance(revised_graph.transaction(), Transaction)
