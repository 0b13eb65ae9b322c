"""Unit tests for the EXPLAIN-style plan descriptions."""

import pytest

from repro import Dialect, Graph


@pytest.fixture
def planned_graph():
    g = Graph(Dialect.REVISED, use_planner=True)
    g.run("UNWIND range(0, 99) AS i CREATE (:User {id: i})")
    g.run("CREATE (:Product {id: 1})")
    g.create_index("Product", "id")
    return g


class TestExplain:
    def test_mentions_dialect_and_planner(self, planned_graph):
        plan = planned_graph.explain("MATCH (n) RETURN n")
        assert "dialect: revised" in plan
        assert "planner: on" in plan

    def test_planner_reorients_path(self, planned_graph):
        plan = planned_graph.explain(
            "MATCH (u:User)-[:ORDERED]->(p:Product {id: 1}) RETURN u"
        )
        # The Product end anchors the walk (index-backed, 1 candidate).
        assert "index :Product(id)" in plan
        assert "est. 1 candidates" in plan

    def test_unplanned_keeps_order(self):
        g = Graph(Dialect.REVISED)
        g.run("CREATE (:Product {id: 1})")
        plan = g.explain(
            "MATCH (u:User)-[:ORDERED]->(p:Product {id: 1}) RETURN u"
        )
        assert "planner: off" in plan
        assert "(u:User)" in plan.split("\n")[2]

    def test_update_executor_names_by_dialect(self, planned_graph):
        revised = planned_graph.explain("MATCH (n) SET n.x = 1 DELETE n")
        assert "AtomicSet" in revised
        assert "StrictDelete" in revised
        legacy = planned_graph.with_dialect(Dialect.CYPHER9).explain(
            "MATCH (n) SET n.x = 1 DELETE n"
        )
        assert "LegacySet" in legacy
        assert "LegacyDelete" in legacy

    def test_merge_executors(self, planned_graph):
        plan = planned_graph.explain("MERGE SAME (a:A {x: 1})-[:T]->(b)")
        assert "MergeSame" in plan and "Strong Collapse" in plan
        plan = planned_graph.explain("MERGE ALL (a:A {x: 1})-[:T]->(b)")
        assert "MergeAll" in plan
        legacy = planned_graph.with_dialect(Dialect.CYPHER9).explain(
            "MERGE (a:A {x: 1})"
        )
        assert "reads own writes" in legacy

    def test_where_filter_shown(self, planned_graph):
        # `<>` is never pushed onto the pattern: it stays a filter.
        plan = planned_graph.explain("MATCH (n) WHERE n.x <> 1 RETURN n")
        assert "filter n.x <> 1" in plan

    def test_foreach_nested(self, planned_graph):
        plan = planned_graph.explain(
            "FOREACH (x IN [1, 2] | CREATE (:N {v: x}))"
        )
        assert "Foreach" in plan and "Create" in plan

    def test_union_branches(self, planned_graph):
        plan = planned_graph.explain(
            "MATCH (n) RETURN n.x AS x UNION MATCH (m) RETURN m.x AS x"
        )
        assert "union branch 1" in plan and "union branch 2" in plan

    def test_explain_does_not_execute(self, planned_graph):
        before = planned_graph.node_count()
        planned_graph.explain("CREATE (:Side {effect: true})")
        assert planned_graph.node_count() == before

    def test_shell_explain(self):
        import io

        from repro.tools.shell import Shell

        out = io.StringIO()
        shell = Shell(Graph(Dialect.REVISED), out=out)
        shell.feed(":explain MATCH (n) RETURN n;")
        assert "Match" in out.getvalue()
        shell.feed(":explain")
        assert "usage" in out.getvalue()
