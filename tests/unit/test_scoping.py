"""Unit tests for static scope checking."""

import pytest

from repro import Dialect, Graph
from repro.errors import CypherSemanticError, UnknownVariableError


@pytest.fixture
def g():
    return Graph(Dialect.REVISED)


class TestTyposCaughtEagerly:
    def test_typo_in_return_with_empty_match(self, g):
        # No :User nodes exist, so the runtime would never evaluate the
        # RETURN; the static check still catches the typo.
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (user:User) RETURN usr.name AS n")

    def test_typo_in_where(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (n) WHERE m.x = 1 RETURN n")

    def test_typo_in_set(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (n) SET m.x = 1")

    def test_typo_in_delete(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (n) DELETE m")

    def test_typo_in_order_by(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (n) RETURN n.x AS x ORDER BY y")

    def test_typo_inside_foreach(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("FOREACH (x IN [1] | CREATE (:N {v: y}))")

    def test_typo_in_merge_property(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("MERGE ALL (:User {id: cid})")


class TestScopeNarrowing:
    def test_with_drops_unprojected_variables(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (n)-[r]->(m) WITH n RETURN r")

    def test_with_star_keeps_everything(self, g):
        g.run("CREATE (:A)-[:T]->(:B)")
        result = g.run("MATCH (n)-[r]->(m) WITH * RETURN n, r, m")
        assert len(result) == 1

    def test_order_by_in_with_may_use_old_scope(self, g):
        g.run("CREATE (:A {v: 1})")
        g.run("MATCH (n) WITH n.v AS v ORDER BY n.v RETURN v")

    def test_where_in_with_sees_only_new_scope(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (n) WITH n.v AS v WHERE n.v > 1 RETURN v")

    def test_return_ends_scope_per_branch(self, g):
        # Each UNION branch checks independently.
        with pytest.raises(UnknownVariableError):
            g.run("MATCH (n) RETURN n UNION MATCH (m) RETURN n")


class TestRebinding:
    def test_unwind_rebinding_rejected(self, g):
        with pytest.raises(CypherSemanticError):
            g.run("UNWIND [1] AS x UNWIND [2] AS x RETURN x")

    def test_foreach_rebinding_rejected(self, g):
        with pytest.raises(CypherSemanticError):
            g.run("UNWIND [1] AS x FOREACH (x IN [2] | CREATE (:N))")

    def test_path_variable_rebinding_rejected(self, g):
        with pytest.raises(CypherSemanticError):
            g.run("MATCH p = (a)-[:T]->(b) MATCH p = (c)-[:S]->(d) RETURN p")

    def test_foreach_variable_scoped_to_body(self, g):
        with pytest.raises(UnknownVariableError):
            g.run("FOREACH (x IN [1] | CREATE (:N)) CREATE (:M {v: x})")


class TestLegitimatePatternsStillPass:
    def test_bound_variable_reuse_in_pattern(self, g):
        g.run("CREATE (:A)-[:T]->(:B)")
        g.run("MATCH (a:A) MATCH (a)-[:T]->(b) RETURN b")

    def test_existential_pattern_predicate(self, g):
        g.run("CREATE (:A)-[:T]->(:B)")
        # `m` is unbound in the predicate: existential, not an error.
        result = g.run("MATCH (n:A) WHERE (n)-[:T]->(m) RETURN n")
        assert len(result) == 1

    def test_comprehension_locals(self, g):
        g.run("RETURN [x IN [1, 2] WHERE x > 1 | x] AS xs")

    def test_quantifier_locals(self, g):
        g.run("RETURN all(x IN [1] WHERE x = 1) AS ok")

    def test_initial_table_columns_are_in_scope(self, g):
        from repro import DrivingTable

        table = DrivingTable(("cid",), [{"cid": 1}])
        result = g.run("RETURN cid * 2 AS x", table=table)
        assert result.values("x") == [2]

    def test_parameters_are_not_variables(self, g):
        result = g.run("RETURN $p AS x", p=1)
        assert result.values("x") == [1]

    def test_merge_on_create_sees_pattern_variables(self):
        g = Graph(Dialect.CYPHER9)
        g.run("MERGE (n:User {id: 1}) ON CREATE SET n.new = true")

    def test_explain_rejects_what_run_rejects(self, g):
        # explain() describes the statement run() would execute, so it
        # goes through the same scope check.
        with pytest.raises(UnknownVariableError, match="typo_var"):
            g.explain("MATCH (n) RETURN typo_var")
