"""Unit tests for the engine: atomicity, unions, parameters, results."""

import pytest

from repro import (
    CypherEngine,
    Dialect,
    DrivingTable,
    Graph,
    PropertyConflictError,
)
from repro.errors import CypherError, ParameterMissingError


class TestStatementAtomicity:
    def test_error_rolls_back_everything(self, revised_graph):
        revised_graph.run("CREATE (:P {v: 1}), (:P {v: 2})")
        with pytest.raises(PropertyConflictError):
            revised_graph.run(
                "MATCH (p:P) CREATE (:Log {of: p.v}) "
                "WITH p MATCH (a:P), (b:P) SET a.v = b.v"
            )
        # The CREATE from the failed statement is gone.
        assert revised_graph.node_count() == 2

    def test_runtime_error_mid_statement_rolls_back(self, revised_graph):
        with pytest.raises(CypherError):
            revised_graph.run("CREATE (:N) WITH 1 AS one RETURN 1 / 0 AS x")
        assert revised_graph.node_count() == 0

    def test_successful_statement_commits(self, revised_graph):
        revised_graph.run("CREATE (:N)")
        assert revised_graph.node_count() == 1


class TestParameters:
    def test_parameters_flow(self, revised_graph):
        revised_graph.run("CREATE (:U {id: $uid})", uid=7)
        result = revised_graph.run(
            "MATCH (u:U {id: $uid}) RETURN u.id AS id", {"uid": 7}
        )
        assert result.values("id") == [7]

    def test_missing_parameter(self, revised_graph):
        with pytest.raises(ParameterMissingError):
            revised_graph.run("RETURN $nope AS x")

    def test_map_and_keyword_parameters_merge(self, revised_graph):
        result = revised_graph.run(
            "RETURN $a + $b AS s", {"a": 1}, b=2
        )
        assert result.values("s") == [3]


class TestInitialTables:
    def test_initial_table_feeds_pipeline(self, revised_graph):
        table = DrivingTable(("x",), [{"x": 1}, {"x": 2}])
        result = revised_graph.run("RETURN x * 10 AS y", table=table)
        assert result.values("y") == [10, 20]

    def test_initial_table_is_not_mutated(self, revised_graph):
        table = DrivingTable(("x",), [{"x": 1}])
        revised_graph.run("CREATE (:N {v: x})", table=table)
        assert table.records == [{"x": 1}]


class TestUnions:
    def test_union_distinct(self, revised_graph):
        result = revised_graph.run(
            "RETURN 1 AS x UNION RETURN 1 AS x UNION RETURN 2 AS x"
        )
        assert sorted(result.values("x")) == [1, 2]

    def test_union_all_keeps_duplicates(self, revised_graph):
        result = revised_graph.run(
            "RETURN 1 AS x UNION ALL RETURN 1 AS x"
        )
        assert result.values("x") == [1, 1]

    def test_union_requires_same_columns(self, revised_graph):
        with pytest.raises(CypherError):
            revised_graph.run("RETURN 1 AS x UNION RETURN 1 AS y")

    def test_union_updates_are_side_effects_left_to_right(self, revised_graph):
        result = revised_graph.run(
            "CREATE (:A {v: 1}) WITH 1 AS one MATCH (n) RETURN count(n) AS c "
            "UNION ALL "
            "CREATE (:B {v: 2}) WITH 1 AS one MATCH (n) RETURN count(n) AS c"
        )
        # The second branch sees the first branch's creation.
        assert result.values("c") == [1, 2]
        assert revised_graph.node_count() == 2


class TestResults:
    def test_statement_without_return_yields_empty_table(self, revised_graph):
        result = revised_graph.run("CREATE (:N)")
        assert len(result) == 0
        assert result.columns == ()

    def test_single(self, revised_graph):
        assert revised_graph.run("RETURN 5 AS x").single() == {"x": 5}
        with pytest.raises(CypherError):
            revised_graph.run("UNWIND [1, 2] AS x RETURN x").single()

    def test_iteration(self, revised_graph):
        rows = list(revised_graph.run("UNWIND [1, 2] AS x RETURN x"))
        assert rows == [{"x": 1}, {"x": 2}]

    def test_pretty(self, revised_graph):
        text = revised_graph.run("RETURN 1 AS x").pretty()
        assert "x" in text and "1" in text

    def test_counters_for_mixed_statement(self, revised_graph):
        revised_graph.run("CREATE (:A {x: 1})-[:T]->(:B)")
        result = revised_graph.run(
            "MATCH (a:A)-[r:T]->(b:B) SET a.x = 2 DELETE r"
        )
        counters = result.counters
        assert counters.properties_set == 1
        assert counters.relationships_deleted == 1
        assert not counters.nodes_created


class TestEngineConfig:
    def test_dialect_strings(self):
        assert CypherEngine(dialect="cypher9").dialect is Dialect.CYPHER9
        assert CypherEngine(dialect="revised").dialect is Dialect.REVISED
        with pytest.raises(ValueError):
            CypherEngine(dialect="nope")

    def test_ast_cache_reuse(self, revised_graph):
        engine = revised_graph.engine
        one = engine.prepare("RETURN 1 AS x")
        two = engine.prepare("RETURN 1 AS x")
        assert one is two

    def test_shared_store_across_dialects(self):
        g = Graph(Dialect.CYPHER9)
        g.run("CREATE (:N {v: 1})")
        revised_view = g.with_dialect(Dialect.REVISED)
        assert revised_view.run("MATCH (n:N) RETURN n.v AS v").values("v") == [1]
        assert revised_view.store is g.store


class TestResultSerialization:
    def test_to_json(self, revised_graph):
        revised_graph.run("CREATE (:U {id: 1, name: 'Bob'})")
        result = revised_graph.run("MATCH (u:U) RETURN u, u.id AS id")
        import json

        data = json.loads(result.to_json())
        assert data == [{"u": {"id": 1, "name": "Bob"}, "id": 1}]

    def test_to_csv(self, revised_graph):
        result = revised_graph.run(
            "UNWIND [1, 2] AS x RETURN x, null AS empty"
        )
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "x,empty"
        assert lines[1] == "1,"
        assert lines[2] == "2,"

    def test_to_json_with_list_of_entities(self, revised_graph):
        revised_graph.run("CREATE (:U {id: 1})")
        result = revised_graph.run("MATCH (u:U) RETURN collect(u) AS us")
        import json

        assert json.loads(result.to_json()) == [{"us": [{"id": 1}]}]
