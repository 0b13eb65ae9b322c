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
from repro.views import Fallback, ViewPlan, ViewRegistry, analyse
from repro.views.analysis import EVERYTHING, is_record_local


def analyse_source(source, dialect=Dialect.REVISED):
    return analyse(parse(source, dialect))


def record_local(source, dialect=Dialect.REVISED):
    """``is_record_local`` of each clause of *source*, in order."""
    clauses = parse(source, dialect).branches()[0].clauses
    return [is_record_local(clause) for clause in clauses]


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
            "MATCH (n:A) RETURN count(*) AS c",  # aggregating RETURN
            "MATCH (n:A) RETURN n.k AS k, collect(DISTINCT n.i) AS l",
            "MATCH (n:A) WITH DISTINCT n.i AS i RETURN sum(i) AS s",
        ],
    )
    def test_delta_supported(self, source):
        assert isinstance(analyse_source(source), ViewPlan)

    @pytest.mark.parametrize(
        "source, reason",
        [
            (
                "MATCH (n:A) WITH count(*) AS c RETURN c AS c",
                "aggregating WITH",
            ),
            (
                "MATCH (a)-[:T*1..3]->(b) RETURN a AS a",
                "variable-length relationship",
            ),
            ("MATCH p = (a)-[:T]->(b) RETURN p AS p", "path variable"),
            ("OPTIONAL MATCH (n:A) RETURN n AS n", "OPTIONAL MATCH"),
            (
                "MATCH (a:A) MATCH (b:B) RETURN a AS a, b AS b",
                "more than one MATCH clause",
            ),
            (
                "UNWIND [1] AS x MATCH (n) RETURN n AS n, x AS x",
                "the first clause is not a MATCH",
            ),
            (
                "MATCH (n) WHERE (n)-[:T]->() RETURN n AS n",
                "pattern predicate",
            ),
            ("RETURN 1 AS one", "the first clause is not a MATCH"),
            ("MATCH (n) RETURN n AS n UNION MATCH (n) RETURN n AS n", "UNION"),
        ],
    )
    def test_fallback_shapes(self, source, reason):
        analysis = analyse_source(source)
        assert isinstance(analysis, Fallback)
        assert analysis.reason == reason

    def test_plan_splits_the_post_match_clauses_at_the_first_barrier(self):
        plan = analyse_source(
            "MATCH (n:A) UNWIND [1, 2] AS x WITH DISTINCT n.i AS i, x AS x "
            "RETURN i + x AS s"
        )
        assert [type(clause).__name__ for clause in plan.prefix] == [
            "UnwindClause"
        ]
        assert type(plan.publish).__name__ == "WithClause"
        assert [type(clause).__name__ for clause in plan.suffix] == [
            "ReturnClause"
        ]
        plain = analyse_source("MATCH (n:A) WITH n.i AS i RETURN i AS i")
        assert len(plain.prefix) == 1 and plain.suffix == ()
        assert type(plain.publish).__name__ == "ReturnClause"

    def test_fallback_footprint_names_what_the_statement_names(self):
        """No provenance, so deletes are always relevant -- but labels,
        types and keys the statement never names are not."""
        footprint = analyse_source(
            "MATCH (a:A) OPTIONAL MATCH (b:B)-[:T]->(c:B) "
            "RETURN a.i AS i, count(c) AS c"
        ).footprint
        everything = EVERYTHING

        def relevant(op):
            return footprint.op_relevant(op, everything, everything)

        assert relevant(("create_node", 9, ("A",), {}))  # OPTIONAL: no rel needed
        assert not relevant(("create_node", 9, ("Z",), {}))
        assert relevant(("create_rel", 9, "T", 0, 1, {}))
        assert not relevant(("create_rel", 9, "Z", 0, 1, {}))
        assert relevant(("set_node_prop", 4, "i", 1))
        assert not relevant(("set_node_prop", 4, "z", 1))
        assert relevant(("add_label", 4, "B"))
        assert not relevant(("add_label", 4, "Z"))
        assert relevant(("delete_node", 4))
        assert relevant(("delete_rel", 4))

    def test_fallback_footprint_widens_on_what_it_cannot_read(self):
        for source in (
            "MATCH (n) WHERE (n)-[:T]->() RETURN n.i AS i",
            "OPTIONAL MATCH (n:A) RETURN labels(n) AS l",
            "LOAD CSV FROM 'file:///x.csv' AS row RETURN row AS row",
            "MATCH (a:A), (b:B) RETURN a[b.k] AS v",  # a computed key
            "MATCH (a:A), (b:B) RETURN a[$k] AS v",
        ):
            footprint = analyse_source(source).footprint
            assert footprint.match_all
            assert footprint.op_relevant(
                ("set_node_prop", 4, "z", 1), EVERYTHING, EVERYTHING
            )

    def test_footprint_reads_a_literal_subscript_as_a_property(self):
        footprint = analyse_source(
            "MATCH (a:A)-[r:T*1..2]->(b) RETURN a['x'] AS x, r[0]['w'] AS w"
        ).footprint
        assert not footprint.match_all
        assert footprint.keys == {"x", "w"}
        # a delta plan re-projects its rows: a computed key widens the
        # output side only
        plan = analyse_source("MATCH (a:A) RETURN a[$k] AS v")
        assert plan.footprint.output_all and not plan.footprint.match_all

    def test_fallback_footprint_keeps_each_position_its_own_labels(self):
        """``(a:B)`` in an OPTIONAL MATCH does not make ``a`` a ``:B``:
        the rows it cannot extend are still rows."""
        footprint = analyse_source(
            "MATCH (a:A) OPTIONAL MATCH (a:B)-[:T]->(c:C) RETURN a.i AS i"
        ).footprint
        assert footprint.label_sets == (
            frozenset({"A"}),
            frozenset({"B"}),
            frozenset({"C"}),
        )
        assert footprint.op_relevant(
            ("create_node", 9, ("A",), {}), EVERYTHING, EVERYTHING
        )
        assert not footprint.op_relevant(
            ("create_node", 9, ("Z",), {}), EVERYTHING, EVERYTHING
        )
        # ... and a bare position admits every created node
        bare = analyse_source(
            "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(c:C) RETURN a.i AS i"
        ).footprint
        assert bare.op_relevant(
            ("create_node", 9, ("Z",), {}), EVERYTHING, EVERYTHING
        )

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


class TestRecordLocal:
    """Which clauses a view may cache per binding row."""

    def test_reads_and_plain_projections_are_record_local(self):
        assert record_local(
            "MATCH (a) OPTIONAL MATCH (a)-[r:T]->(b) "
            "UNWIND [1, 2] AS k WITH a, k WHERE k > 1 "
            "RETURN a.i AS i, k"
        ) == [True] * 5

    def test_updates_are_not(self):
        for source in (
            "MATCH (a) SET a.x = 1",
            "MATCH (a) CREATE (a)-[:R]->(:B)",
            "MATCH (a) DELETE a",
        ):
            assert record_local(source) == [True, False], source

    def test_aggregating_projection_is_not(self):
        assert record_local("MATCH (a) RETURN count(a) AS c") == [
            True,
            False,
        ]

    def test_distinct_order_skip_limit_are_not(self):
        for suffix in (
            "RETURN DISTINCT a.i AS i",
            "RETURN a.i AS i ORDER BY i",
            "RETURN a.i AS i SKIP 1",
            "RETURN a.i AS i LIMIT 2",
            "WITH DISTINCT a RETURN a.i AS i",
        ):
            assert record_local(f"MATCH (a) {suffix}")[:2] == [
                True,
                False,
            ], suffix

    def test_reads_after_a_mutation_stay_record_local(self):
        assert record_local(
            "MATCH (a) SET a.x = 1 WITH a MATCH (b) RETURN a.x, b.x"
        ) == [True, False, True, True, True]

    def test_merge_and_foreach_are_not(self):
        for source in (
            "MERGE ALL (a:A)",
            "FOREACH (k IN [1] | CREATE (:B {i: k}))",
        ):
            assert record_local(source) == [False], source

    def test_load_csv_is_not(self):
        assert record_local(
            "LOAD CSV FROM 'file:///x.csv' AS row RETURN row"
        ) == [False, True]


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


class TestProportionality:
    """A refresh costs what the commit touched, not what the view
    holds -- counted (``rows_recomputed``), not timed."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            # the CREATE and the SET n.i: one binding re-matched + one
            # row re-evaluated each
            ("MATCH (n:A) RETURN n.i AS i", 4),
            # the CREATE: one binding re-matched; the count folds, and
            # n.i is not its business
            ("MATCH (n:A) RETURN count(n) AS c", 1),
        ],
    )
    def test_the_same_commit_costs_the_same_at_200_and_2000_rows(
        self, source, expected
    ):
        costs = []
        for size in (200, 2000):
            graph = Graph()
            graph.run(
                "UNWIND range(1, $n) AS i CREATE (:A {i: i})", {"n": size}
            )
            graph.run("CREATE (:Z {z: 0})")
            view = graph.register_view(source)
            assert view.stats.mode == "delta"
            built = view.stats.rows_recomputed
            assert built >= size
            published = view.result()
            graph.run("MATCH (z:Z) SET z.z = 1")  # irrelevant
            graph.run("CREATE (:Z {z: 2})")
            assert view.result() is published
            assert view.stats.rows_recomputed == built
            graph.run("CREATE (:A {i: 0})")
            view.result()
            graph.run("MATCH (n:A {i: 7}) REMOVE n:A")
            view.result()
            graph.run("MATCH (n:A {i: 8}) SET n.i = -8, n:Z")
            view.result()
            graph.run("MATCH (n:A {i: 9}) DETACH DELETE n")
            assert len(view.result().records) in (1, size - 1)
            costs.append(view.stats.rows_recomputed - built)
            assert view.stats.full_refreshes == 1
            graph.close()
        assert costs == [expected, expected]

    def test_a_refresh_never_reprojects_untouched_rows(self):
        """ORDER BY / LIMIT run over the cached output rows."""
        graph = Graph()
        graph.run("UNWIND range(1, 50) AS i CREATE (:A {i: i})")
        view = graph.register_view(
            "MATCH (n:A) RETURN n.i AS i ORDER BY i DESC LIMIT 2"
        )
        built = view.stats.rows_recomputed
        graph.run("CREATE (:A {i: 99})")
        assert view.result().to_dicts() == [{"i": 99}, {"i": 50}]
        assert view.stats.rows_recomputed - built == 2
        graph.close()


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
        assert stats[0]["fallback_reason"] is None
        assert stats[0]["lag"] == 0 and stats[0]["rows_recomputed"] > 0
        fallback = graph.register_view(
            "OPTIONAL MATCH (n:User) RETURN n.name AS name"
        )
        assert graph.views()[1]["fallback_reason"] == "OPTIONAL MATCH"
        with graph.transaction():
            graph.run("CREATE (:User {name: 'eve'})")
        # enqueued, not yet read: one commit behind
        assert fallback.stats.lag == 1
        assert graph.views()[1]["lag"] == 0  # views() catches up
        graph.drop_view(fallback.id)
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
            "OPTIONAL MATCH (n:User) RETURN count(n) AS c"
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
