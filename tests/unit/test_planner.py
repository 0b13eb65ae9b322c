"""Unit tests for the planner's cost model, path mirroring and choices.

These predate :mod:`repro.runtime.match_planner` (they were written
against the endpoint planner it replaced) and now pin the same
behaviours on the surviving cost model (:func:`estimate_element`),
mirroring routine (:func:`mirror_elements`) and planner
(:func:`plan_paths`).
"""

import pytest

from repro import Dialect, Graph
from repro.parser import ast, parse
from repro.runtime.context import EvalContext
from repro.runtime.match_planner import estimate_element, plan_paths
from repro.runtime.match_planner import mirror_elements


def pattern_of(source):
    statement = parse(f"MATCH {source} RETURN 1 AS one", Dialect.REVISED)
    return statement.branches()[0].clauses[0].pattern


def reverse_path(path):
    return ast.PathPattern(
        variable=path.variable, elements=mirror_elements(path.elements)
    )


def estimate_node_cost(ctx, element, bound):
    return estimate_element(ctx, element, bound)[0]


@pytest.fixture
def market():
    g = Graph(Dialect.REVISED)
    g.run("UNWIND range(0, 199) AS i CREATE (:User {id: i})")
    g.run("UNWIND range(0, 9) AS i CREATE (:Product {id: i})")
    g.run(
        "MATCH (u:User), (p:Product {id: u.id % 10}) "
        "CREATE (u)-[:ORDERED]->(p)"
    )
    return g


class TestReversePath:
    def test_mirror_is_involutive(self):
        path = pattern_of("(a:A)-[:T]->(b)<-[:S]-(c:C {x: 1})").paths[0]
        assert reverse_path(reverse_path(path)) == path

    def test_directions_flip(self):
        path = pattern_of("(a)-[:T]->(b)").paths[0]
        mirrored = reverse_path(path)
        assert mirrored.elements[0].variable == "b"
        assert mirrored.relationships[0].direction == ast.IN

    def test_undirected_stays_undirected(self):
        path = pattern_of("(a)-[:T]-(b)").paths[0]
        assert reverse_path(path).relationships[0].direction == ast.BOTH

    def test_mirror_matches_the_same_subgraphs(self, market):
        from repro.runtime.matcher import match_paths

        ctx = EvalContext(store=market.store)
        path = pattern_of("(u:User {id: 5})-[:ORDERED]->(p:Product)").paths[0]
        forward = {
            (m["u"].id, m["p"].id) for m in match_paths(ctx, (path,), {})
        }
        backward = {
            (m["u"].id, m["p"].id)
            for m in match_paths(ctx, (reverse_path(path),), {})
        }
        assert forward == backward and forward


class TestCostEstimates:
    def test_bound_variable_is_free(self, market):
        ctx = EvalContext(store=market.store)
        element = pattern_of("(u:User)").paths[0].elements[0]
        assert estimate_node_cost(ctx, element, {"u"}) == 0.0

    def test_label_count_used(self, market):
        ctx = EvalContext(store=market.store)
        user = pattern_of("(u:User)").paths[0].elements[0]
        product = pattern_of("(p:Product)").paths[0].elements[0]
        assert estimate_node_cost(
            ctx, product, set()
        ) < estimate_node_cost(ctx, user, set())

    def test_property_index_beats_label_scan(self, market):
        ctx = EvalContext(store=market.store)
        element = pattern_of("(u:User {id: 7})").paths[0].elements[0]
        without_index = estimate_node_cost(ctx, element, set())
        market.create_index("User", "id")
        with_index = estimate_node_cost(ctx, element, set())
        assert with_index < without_index
        # one index hit; the un-indexed property-filter discount is
        # what made the estimate 0.9 * 200 before the index existed
        assert without_index == pytest.approx(180.0)
        assert with_index == 1.0

    def test_unlabeled_costs_node_count(self, market):
        ctx = EvalContext(store=market.store)
        element = pattern_of("(x)").paths[0].elements[0]
        assert estimate_node_cost(ctx, element, set()) == float(
            market.node_count()
        )


class TestPlanChoices:
    def test_anchors_at_the_cheap_end(self, market):
        ctx = EvalContext(store=market.store, use_planner=True)
        pattern = pattern_of("(u:User)-[:ORDERED]->(p:Product {id: 3})")
        plan = plan_paths(ctx, pattern.paths, {}).ordered[0]
        assert plan.path.nodes[plan.anchor_index].labels == ("Product",)

    def test_keeps_orientation_when_first_is_cheap(self, market):
        ctx = EvalContext(store=market.store, use_planner=True)
        pattern = pattern_of("(p:Product {id: 3})-[:ORDERED]-(u:User)")
        plan = plan_paths(ctx, pattern.paths, {}).ordered[0]
        assert plan.anchor_index == 0

    def test_named_var_length_keeps_its_start(self, market):
        ctx = EvalContext(store=market.store, use_planner=True)
        pattern = pattern_of("(u:User)-[rs:ORDERED*1..2]->(p:Product {id: 3})")
        plan = plan_paths(ctx, pattern.paths, {}).ordered[0]
        assert plan.anchor_index == 0

    def test_paths_reordered_by_cost(self, market):
        ctx = EvalContext(store=market.store, use_planner=True)
        pattern = pattern_of("(u:User), (p:Product)")
        planned = plan_paths(ctx, pattern.paths, {})
        assert planned.ordered[0].path.elements[0].labels == ("Product",)

    def test_bound_path_runs_first(self, market):
        ctx = EvalContext(store=market.store, use_planner=True)
        node = market.store.node(0)
        pattern = pattern_of("(p:Product), (u)")
        planned = plan_paths(ctx, pattern.paths, {"u": node})
        assert planned.ordered[0].path.elements[0].variable == "u"


class TestPlannerEndToEnd:
    def test_same_results_with_and_without_planner(self, market):
        query = (
            "MATCH (u:User)-[:ORDERED]->(p:Product {id: 3}) "
            "RETURN u.id AS uid ORDER BY uid"
        )
        baseline = market.run(query).values("uid")
        planned_graph = Graph(
            Dialect.REVISED, use_planner=True, store=market.store
        )
        assert planned_graph.run(query).values("uid") == baseline
        assert len(baseline) == 20

    def test_planner_with_parameters_and_where(self, market):
        market.create_index("Product", "id")
        query = (
            "MATCH (u:User)-[:ORDERED]->(p:Product {id: $pid}) "
            "WHERE u.id < 50 RETURN count(*) AS c"
        )
        planned_graph = Graph(
            Dialect.REVISED, use_planner=True, store=market.store
        )
        assert (
            planned_graph.run(query, pid=3).records
            == market.run(query, pid=3).records
        )

    def test_planner_optional_match(self, market):
        query = (
            "MATCH (p:Product {id: 3}) "
            "OPTIONAL MATCH (u:User {id: 9999})-[:ORDERED]->(p) "
            "RETURN u"
        )
        planned_graph = Graph(
            Dialect.REVISED, use_planner=True, store=market.store
        )
        assert planned_graph.run(query).records == [{"u": None}]
