"""Unit tests for the selectivity-driven match planner and its statistics."""

import io

import pytest

from repro import Dialect, Graph
from repro.graph.indexes import UNKNOWN
from repro.graph.store import GraphStore
from repro.parser import parse
from repro.runtime.context import EvalContext
from repro.runtime.match_planner import (
    PatternPlan,
    PreparedPattern,
    estimate_element,
    plan_paths,
)


def paths_of(source, dialect=Dialect.REVISED):
    statement = parse(f"MATCH {source} RETURN 1 AS one", dialect)
    return statement.branches()[0].clauses[0].pattern.paths


class TestStoreStatistics:
    def test_counts_track_mutations_and_rollback(self):
        store = GraphStore()
        a = store.create_node(["A"])
        b = store.create_node(["B"])
        rel = store.create_relationship("T", a, b)
        assert (store.node_count(), store.relationship_count()) == (2, 1)
        mark = store.mark()
        store.delete_relationship(rel)
        store.delete_node(a)
        assert (store.node_count(), store.relationship_count()) == (1, 0)
        store.rollback_to(mark)
        assert (store.node_count(), store.relationship_count()) == (2, 1)
        # Rolling back creations decrements too.
        mark = store.mark()
        store.create_node(["A"])
        store.create_relationship("T", a, b)
        store.rollback_to(mark)
        assert (store.node_count(), store.relationship_count()) == (2, 1)

    def test_counts_match_recomputation(self):
        store = GraphStore()
        ids = [store.create_node(["A"]) for _ in range(5)]
        for i in range(4):
            store.create_relationship("T", ids[i], ids[i + 1])
        store.delete_relationship(0)
        store.delete_node(ids[0])
        assert store.node_count() == sum(1 for _ in store.nodes())
        assert store.relationship_count() == sum(
            1 for _ in store.relationships()
        )

    def test_degrees_per_direction_and_type(self):
        store = GraphStore()
        a = store.create_node()
        b = store.create_node()
        store.create_relationship("T", a, b)
        store.create_relationship("S", a, b)
        store.create_relationship("T", b, a)
        assert store.out_degree(a) == 2
        assert store.in_degree(a) == 1
        assert store.degree(a) == 3
        assert store.out_degree(a, ("T",)) == 1
        assert store.out_degree(a, ("T", "S")) == 2
        assert store.in_degree(a, ("S",)) == 0
        assert store.degree(a, ("T",)) == 2

    def test_degree_ignores_deleted(self):
        store = GraphStore()
        a = store.create_node()
        b = store.create_node()
        rel = store.create_relationship("T", a, b)
        store.delete_relationship(rel)
        assert store.degree(a) == 0
        assert store.out_degree(a, ("T",)) == 0

    def test_adjacent_rel_ids_sorted_and_deduped(self):
        store = GraphStore()
        a = store.create_node()
        b = store.create_node()
        r_out = store.create_relationship("T", a, b)
        r_in = store.create_relationship("S", b, a)
        loop = store.create_relationship("T", a, a)
        # The self-loop appears in both adjacency sets but only once here.
        assert store.adjacent_rel_ids(a) == [r_out, r_in, loop]
        assert store.adjacent_rel_ids(a, incoming=False) == [r_out, loop]
        assert store.adjacent_rel_ids(a, outgoing=False) == [r_in, loop]
        assert store.adjacent_rel_ids(a, types=("T",)) == [r_out, loop]
        assert store.adjacent_rel_ids(a, types=("S",)) == [r_in]
        assert store.adjacent_rel_ids(a, types=("T", "S")) == [
            r_out,
            r_in,
            loop,
        ]

    def test_label_count_and_access_sizes(self):
        store = GraphStore()
        for i in range(6):
            store.create_node(["P"], {"k": i % 3})
        assert store.label_count("P") == 6
        assert store.label_count("Q") == 0
        unknown = [("k", UNKNOWN)]
        assert store.node_access(("P",), unknown) == (6, "label scan :P", None)
        store.create_index("P", "k")
        assert store.node_access(("P",), unknown) == (
            pytest.approx(2.0),
            "index :P(k)",
            None,
        )
        index = store.property_index("P", "k")
        assert index.bucket_count() == 3
        assert index.bucket_size(0) == 2
        assert index.bucket_size(99) == 0


@pytest.fixture
def shop_store():
    store = GraphStore()
    for i in range(100):
        store.create_node(["User"], {"id": i})
    for i in range(5):
        store.create_node(["Product"], {"id": i})
    store.create_index("Product", "id")
    return store


class TestPlanChoices:
    def test_index_anchor_in_last_position(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        paths = paths_of("(u:User)-[:ORDERED]->(p:Product {id: 3})")
        plan = plan_paths(ctx, paths, {})
        assert plan.ordered[0].anchor_index == 1
        assert plan.ordered[0].access == "index :Product(id)"
        assert plan.ordered[0].cost == 1.0
        assert "p via index :Product(id)" in plan.anchor_summary()

    def test_bound_variable_beats_everything(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        paths = paths_of("(u:User)-[:ORDERED]->(p)")
        node = shop_store.node(0)
        plan = plan_paths(ctx, paths, {"p": node})
        assert plan.ordered[0].anchor_index == 1
        assert plan.ordered[0].access == "bound(p)"
        assert plan.ordered[0].cost == 0.0

    def test_selective_path_runs_first(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        paths = paths_of("(u:User), (p:Product {id: 3})-[:T]->(q)")
        plan = plan_paths(ctx, paths, {})
        assert plan.ordered[0].written_index == 1
        assert plan.moved_count() == 2
        assert not plan.trivial

    def test_var_length_pins_anchor(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        paths = paths_of("(u:User)-[:T*1..3]->(p:Product {id: 3})")
        plan = plan_paths(ctx, paths, {})
        assert plan.ordered[0].anchor_index == 0

    def test_own_property_reference_pins_anchor(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        paths = paths_of("(u:User)-[:T]->(p:Product {id: u.id})")
        plan = plan_paths(ctx, paths, {})
        assert plan.ordered[0].anchor_index == 0

    def test_cross_path_reference_keeps_written_order(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        paths = paths_of("(u:User), (p:Product {id: u.id})")
        plan = plan_paths(ctx, paths, {})
        # Path 2's property map reads path 1's variable, so the written
        # order stands even though path 2's anchor is far cheaper.
        assert [p.written_index for p in plan.ordered] == [0, 1]
        assert plan.moved_count() == 0

    def test_estimate_ladder(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        def est(source):
            element = paths_of(source)[0].nodes[0]
            return estimate_element(ctx, element, set(), {})
        all_cost, all_access = est("(n)")
        label_cost, label_access = est("(n:User)")
        index_cost, index_access = est("(n:Product {id: 3})")
        assert all_access == "all nodes" and all_cost == 105.0
        assert label_access == "label scan :User" and label_cost == 100.0
        assert index_access == "index :Product(id)" and index_cost == 1.0
        assert index_cost < label_cost < all_cost

    def test_unknown_index_value_uses_average_bucket(self, shop_store):
        ctx = EvalContext(store=shop_store, use_planner=True)
        cost, access = estimate_element(
            ctx,
            paths_of("(p:Product {id: zzz.id})")[0].nodes[0],
            set(),
            {},
        )
        assert access == "index :Product(id)"
        assert cost == pytest.approx(1.0)  # average bucket of a unique index

    def test_sort_spec_shapes(self):
        def spec(source):
            ctx = EvalContext(store=GraphStore())
            return PreparedPattern(ctx, paths_of(source)).paths[0].sort_spec

        assert spec("(a)-[:T]->(b)") == ("fixed",)
        assert spec("(a)-[:T*1..2]->(b)") == ("var",)
        assert spec("(a)-[:T]->(b)-[:S*0..2]->(c)") == ("fixed", "var")
        assert spec("(a)-[:T*1..2]->(b)-[:S*1..2]->(c)") is None


class TestPlannerOff:
    def test_disabled_matching_still_correct(self, shop_store):
        query = "MATCH (p:Product {id: 3}) RETURN count(p) AS c"
        for use_planner in (True, False):
            g = Graph(Dialect.REVISED, store=shop_store, use_planner=use_planner)
            assert g.run(query).single()["c"] == 1

    def test_planner_off_is_the_written_plan(self, shop_store):
        paths = paths_of("(u:User)-[:ORDERED]->(p:Product {id: 3}), (q:Product)")
        ctx = EvalContext(store=shop_store, use_planner=False)
        plan = plan_paths(ctx, paths, {})
        assert plan.trivial and plan.moved_count() == 0
        # Pinned, but still announcing what the store will enumerate.
        assert plan.anchor_summary() == (
            "u via label scan :User, q via label scan :Product"
        )


class TestObservability:
    @pytest.fixture
    def graph(self, shop_store):
        return Graph(Dialect.REVISED, store=shop_store, use_planner=True)

    def test_profile_reports_anchor(self, graph):
        profile = graph.profile(
            "MATCH (u:User), (p:Product {id: 3}) RETURN count(*) AS c"
        )
        match = profile.clauses[0]
        assert match.anchor == "p via index :Product(id), u via label scan :User"
        assert match.paths_reordered == 2
        rendered = profile.render()
        assert "anchor p via index :Product(id)" in rendered
        assert "2 paths reordered" in rendered
        as_dict = match.to_dict()
        assert as_dict["anchor"] == match.anchor
        assert as_dict["paths_reordered"] == 2

    def test_profile_fields_default_empty(self, graph):
        profile = graph.profile("RETURN 1 AS one")
        entry = profile.clauses[0]
        assert entry.anchor is None
        assert entry.paths_reordered == 0
        assert "anchor" not in profile.render()

    def test_graph_plan_forces_planner_on(self, shop_store):
        g = Graph(Dialect.REVISED, store=shop_store)  # planner off
        plan = g.plan("MATCH (u:User)-[:ORDERED]->(p:Product {id: 3}) RETURN u")
        assert "index :Product(id)" in plan
        assert "est. 1 candidates" in plan

    def test_shell_plan_command(self, shop_store):
        from repro.tools.shell import Shell

        out = io.StringIO()
        shell = Shell(Graph(Dialect.REVISED, store=shop_store), out=out)
        shell.feed(":plan MATCH (u:User), (p:Product {id: 3}) RETURN u;")
        text = out.getvalue()
        assert "index :Product(id)" in text
        assert "paths reordered" in text
        shell.feed(":plan")
        assert "usage: :plan STATEMENT" in out.getvalue()
        shell.feed(":help")
        assert ":plan STATEMENT" in out.getvalue()


class TestAnchoredEquivalence:
    """Direct checks that anchored expansion reassembles written order."""

    def test_named_path_binds_written_orientation(self, shop_store):
        store = shop_store
        u, p = 0, 100  # first User, first Product
        store.create_relationship("ORDERED", u, p)
        g = Graph(Dialect.REVISED, store=store, use_planner=True)
        record = g.run(
            "MATCH q = (u:User)-[:ORDERED]->(p:Product {id: 0}) RETURN q"
        ).single()
        path = record["q"]
        assert [n.id for n in path.nodes] == [u, p]
        assert path.relationships[0].start.id == u

    def test_mid_path_anchor_full_result(self):
        g = Graph(Dialect.REVISED, use_planner=True)
        g.run(
            "CREATE (a:L {n: 'a'})-[:T]->(b:M {n: 'b'})-[:T]->(c:R {n: 'c'})"
        )
        g.run("UNWIND range(0, 49) AS i CREATE (:L {n: 'x'})")
        g.create_index("M", "n")
        rows = g.run(
            "MATCH (x:L)-[:T]->(y:M {n: 'b'})-[:T]->(z:R) "
            "RETURN x.n AS x, y.n AS y, z.n AS z"
        ).records
        assert rows == [{"x": "a", "y": "b", "z": "c"}]

    def test_legacy_var_length_order(self):
        on = Graph(Dialect.CYPHER9, use_planner=True)
        off = Graph(Dialect.CYPHER9)
        for g in (on, off):
            g.run(
                "CREATE (s:S {i: 0})-[:T]->(m {i: 1})-[:T]->(e {i: 2}), "
                "(s)-[:T]->(e)"
            )
            g.run("CREATE (:Z {id: 0})")
            g.create_index("Z", "id")
        # Reordering puts the indexed path first; results must still
        # stream in naive order, including the var-length segments.
        query = (
            "MATCH (a:S)-[rs:T*1..2]->(b), (z:Z {id: 0}) "
            "RETURN a.i AS a, b.i AS b, size(rs) AS hops"
        )
        assert on.run(query).records == off.run(query).records
