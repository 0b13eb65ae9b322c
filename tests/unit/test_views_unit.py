"""Unit tests for ``repro.views``: analysis, registry, Graph facade.

The heavier equivalence guarantees live in
``tests/properties/test_view_maintenance.py`` and the ``--views``
fuzzer; this file pins the sharp edges -- shape classification, the
footprint's precision rules, the ``reverted_to`` snapshot-read guard,
registration rules, and the maintenance statistics surface.
"""

import pytest

from repro.dialect import Dialect
from repro.engine import CypherEngine
from repro.errors import CypherError, TransactionError
from repro.graph.store import GraphStore
from repro.parser.parser import parse
from repro.session import Graph
from repro.views import ViewRegistry, analyse


def analyse_source(source, dialect=Dialect.REVISED):
    return analyse(parse(source, dialect))


class TestAnalysis:
    """Shape classification: delta-maintained vs full-refresh."""

    @pytest.mark.parametrize(
        "source",
        [
            "MATCH (n:A) RETURN n AS n",
            "MATCH (a:A)-[r:T]->(b:B) RETURN a AS a, r.w AS w",
            "MATCH (a)-[r:T]->(a) RETURN a AS a",  # repeated variable
            "MATCH (n:A) WHERE n.i > 0 WITH n.i AS i RETURN i AS i",
            "MATCH (n:A) UNWIND [1, 2] AS x RETURN n.i AS i, x AS x",
            "MATCH (n:A) RETURN n.i AS i ORDER BY i DESC LIMIT 3",
            "MATCH (n:A) RETURN DISTINCT n.i AS i",
        ],
    )
    def test_delta_supported(self, source):
        assert analyse_source(source) is not None

    @pytest.mark.parametrize(
        "source",
        [
            "MATCH (n:A) RETURN count(*) AS c",  # aggregate
            "MATCH (a)-[:T*1..3]->(b) RETURN a AS a",  # var-length
            "MATCH p = (a)-[:T]->(b) RETURN p AS p",  # path variable
            "OPTIONAL MATCH (n:A) RETURN n AS n",
            "MATCH (a:A) MATCH (b:B) RETURN a AS a, b AS b",
            "UNWIND [1] AS x MATCH (n) RETURN n AS n, x AS x",
            "MATCH (n) WHERE (n)-[:T]->() RETURN n AS n",  # pattern expr
            "RETURN 1 AS one",  # no MATCH at all
        ],
    )
    def test_fallback_shapes(self, source):
        assert analyse_source(source) is None

    def test_footprint_create_node_needs_matching_label(self):
        plan = analyse_source("MATCH (n:A) RETURN n AS n")
        footprint = plan.footprint
        assert footprint.op_relevant(
            ("create_node", 9, ("A",), {}), set(), set()
        )
        assert not footprint.op_relevant(
            ("create_node", 9, ("Z",), {}), set(), set()
        )

    def test_footprint_lone_node_cannot_extend_a_path(self):
        """A pattern with relationship steps ignores bare node creates:
        the enabling ``create_rel`` is its own (relevant) op."""
        plan = analyse_source("MATCH (a:A)-[r:T]->(b) RETURN a AS a")
        footprint = plan.footprint
        assert not footprint.op_relevant(
            ("create_node", 9, ("A",), {}), set(), set()
        )
        assert footprint.op_relevant(
            ("create_rel", 9, "T", 0, 1, {}), set(), set()
        )
        assert not footprint.op_relevant(
            ("create_rel", 9, "Z", 0, 1, {}), set(), set()
        )

    def test_footprint_prop_ops_use_provenance(self):
        plan = analyse_source(
            "MATCH (n:A) WHERE n.i > 0 RETURN n.i AS i"
        )
        footprint = plan.footprint
        # key "i" on a node the view's rows touch: relevant
        assert footprint.op_relevant(
            ("set_node_prop", 4, "i", 1), {4}, set()
        )
        # same key on an untouched node: only relevant if the node
        # could *join* the view (label gate decides)
        assert not footprint.op_relevant(
            ("delete_node", 7), {4}, set()
        )


class TestRegistry:
    def setup_method(self):
        self.store = GraphStore()
        self.engine = CypherEngine(self.store, dialect=Dialect.REVISED)
        self.engine.execute("CREATE (:A {i: 1})-[:T]->(:B {i: 2})")
        self.registry = ViewRegistry(self.store)

    def teardown_method(self):
        self.registry.close()

    def test_register_rejects_writes_and_schema(self):
        with pytest.raises(CypherError):
            self.registry.register("CREATE (:A)")
        with pytest.raises(CypherError):
            self.registry.register("CREATE INDEX ON :A(i)")

    def test_register_inside_transaction_rejected(self):
        mark = self.store.begin_transaction()
        try:
            with pytest.raises(TransactionError):
                self.registry.register("MATCH (n:A) RETURN n AS n")
        finally:
            self.store.rollback_transaction(mark)

    def test_semantic_dedup_keys_on_query_and_parameters(self):
        one = self.registry.register(
            "MATCH (n:A) WHERE n.i = $x RETURN n AS n",
            parameters={"x": 1},
        )
        same = self.registry.register(
            "MATCH (n:A) WHERE n.i = $x RETURN n AS n",
            parameters={"x": 1},
        )
        other = self.registry.register(
            "MATCH (n:A) WHERE n.i = $x RETURN n AS n",
            parameters={"x": 2},
        )
        assert one is same
        assert other is not one
        assert len(self.registry) == 2

    def test_stats_counters_split_delta_and_skipped(self):
        view = self.registry.register(
            "MATCH (a:A)-[r:T]->(b:B) RETURN b.i AS i"
        )
        view.result()
        self.engine.execute("CREATE (:Z {z: 1})")  # irrelevant
        view.result()
        self.engine.execute(
            "MATCH (b:B) SET b.i = 9"
        )  # relevant: touches a bound node's key
        view.result()
        assert view.stats.batches_skipped >= 1
        assert view.stats.delta_refreshes >= 1
        assert view.result().to_dicts() == [{"i": 9}]

    def test_reverted_to_snapshot_read_serves_published_state(self):
        """The regression this PR fixes: a snapshot read bracketing a
        pending view refresh must see fully-published view state."""
        view = self.registry.register(
            "MATCH (n:A) RETURN n.i AS i"
        )
        published = view.result()
        mark = self.store.mark()
        self.engine.execute("MATCH (n:A) SET n.i = 42")
        # The commit is enqueued but not yet refreshed (lazy); a
        # snapshot reader rewinds the store to before the commit.
        with self.store.reverted_to(mark):
            assert self.store.in_reverted_read
            inside = view.result()
            # Served result is the last *published* one -- never a
            # half-applied refresh against the rewound store.
            assert inside is published
            assert inside.to_dicts() == [{"i": 1}]
        # After the bracket the pending batch is still there and the
        # refresh now sees the restored (committed) state.
        assert view.result().to_dicts() == [{"i": 42}]

    def test_refresh_inside_bracket_does_not_lose_batches(self):
        view = self.registry.register(
            "MATCH (n:A) RETURN n.i AS i"
        )
        view.result()
        mark = self.store.mark()
        self.engine.execute("MATCH (n:A) SET n.i = 7")
        self.engine.execute("CREATE (:A {i: 8})")
        with self.store.reverted_to(mark):
            view.result()  # guarded no-op
            view.result()
        rows = sorted(view.result().to_dicts(), key=lambda r: r["i"])
        assert rows == [{"i": 7}, {"i": 8}]


class TestGraphFacade:
    def test_register_view_result_stats_drop(self):
        graph = Graph()
        graph.run("CREATE (:User {name: 'ada'})")
        view = graph.register_view(
            "MATCH (n:User) RETURN n.name AS name"
        )
        assert graph.view_result(view.id).to_dicts() == [
            {"name": "ada"}
        ]
        graph.run("CREATE (:User {name: 'bob'})")
        assert sorted(
            row["name"] for row in graph.view_result(view.id).to_dicts()
        ) == ["ada", "bob"]
        stats = graph.views()
        assert stats and stats[0]["id"] == view.id
        graph.drop_view(view.id)
        assert graph.views() == []
        graph.close()

    def test_views_empty_without_registry(self):
        graph = Graph()
        assert graph.views() == []
        graph.close()

    def test_transaction_rollback_leaves_view_untouched(self):
        graph = Graph()
        graph.run("CREATE (:User {name: 'ada'})")
        view = graph.register_view(
            "MATCH (n:User) RETURN n.name AS name"
        )
        before = view.result()
        with pytest.raises(RuntimeError):
            with graph.transaction():
                graph.run("CREATE (:User {name: 'eve'})")
                raise RuntimeError("abort")
        assert view.result() is before
        graph.close()

    def test_schema_commits_advance_lsn_but_keep_the_result(self):
        graph = Graph()
        graph.run("CREATE (:User {name: 'ada'})")
        delta = graph.register_view("MATCH (n:User) RETURN n.name AS name")
        fallback = graph.register_view(
            "MATCH (n:User) RETURN count(n) AS c"
        )
        assert (delta.stats.mode, fallback.stats.mode) == ("delta", "full")
        results = delta.result(), fallback.result()
        covered = delta.covered_lsn
        graph.run("CREATE INDEX ON :User(name)")
        graph.run("CREATE CONSTRAINT ON (u:User) ASSERT u.name IS UNIQUE")
        assert (delta.result(), fallback.result()) == results
        assert delta.result() is results[0]
        assert fallback.result() is results[1]
        assert delta.covered_lsn == fallback.covered_lsn == graph.store.lsn
        assert graph.store.lsn > covered
        # A data commit queued behind a schema commit still repairs.
        graph.run("CREATE INDEX ON :User(age)")
        graph.run("CREATE (:User {name: 'bob'})")
        assert fallback.result().records == ({"c": 2},)
        assert len(delta.result().records) == 2
        assert delta.result().lsn == graph.store.lsn
        graph.close()
