"""Unit tests for the PROFILE observability layer.

Covers the counter hooks (zero-overhead no-op by default), the
per-clause profile tree, db-hit attribution, the acceptance criterion
that an index shrinks the hits of a filtered MATCH, and the three
surfaces: ``Graph.profile``, ``CypherEngine.execute(profile=True)``,
and the shell's ``:profile`` command.
"""

import io

import pytest

from repro import Graph, NO_COUNTERS, QueryProfile
from repro.errors import CypherEvaluationError
from repro.graph.counters import DbHits, HitCounters
from repro.graph.store import GraphStore
from repro.graph.values import cypher_eq


@pytest.fixture
def graph():
    return Graph()


class TestDbHits:
    def test_arithmetic(self):
        a = DbHits(node_reads=2, property_reads=1)
        b = DbHits(node_reads=1, writes=3)
        assert (a + b).node_reads == 3
        assert (a + b).writes == 3
        assert (a + b - b) == a
        assert a.total == 3

    def test_to_dict_has_total(self):
        hits = DbHits(index_lookups=2, rel_reads=1)
        data = hits.to_dict()
        assert data["index_lookups"] == 2
        assert data["total"] == 3

    def test_compact_rendering(self):
        text = DbHits(node_reads=5, property_reads=7).compact()
        assert text.startswith("12 ")
        assert "node 5" in text and "prop 7" in text


class TestCounterHooks:
    def test_fresh_store_shares_the_noop_singleton(self):
        # The "profiling off" regime must not allocate per store.
        assert GraphStore().counters is NO_COUNTERS
        assert GraphStore().counters is GraphStore().counters
        assert NO_COUNTERS.active is False

    def test_noop_counters_never_accumulate(self):
        NO_COUNTERS.node_read()
        NO_COUNTERS.write(5)
        assert NO_COUNTERS.snapshot() == DbHits()

    def test_install_and_reset(self):
        store = GraphStore()
        counters = HitCounters()
        store.install_counters(counters)
        assert store.counters is counters
        store.create_node(("L",), {})
        assert counters.snapshot().writes == 1
        store.reset_counters()
        assert store.counters is NO_COUNTERS

    def test_index_lookups_counted(self):
        store = GraphStore()
        store.create_index("L", "k")
        counters = HitCounters()
        store.install_counters(counters)
        node = store.create_node(("L",), {"k": 1})
        assert store.property_index("L", "k").ids(1) == [node]
        assert counters.snapshot().index_lookups == 1

    def test_rollback_is_not_a_write(self):
        store = GraphStore()
        counters = HitCounters()
        store.install_counters(counters)
        mark = store.mark()
        store.create_node(("L",), {})
        before = counters.snapshot().writes
        store.rollback_to(mark)
        assert counters.snapshot().writes == before


class TestGraphProfile:
    def test_returns_a_clause_tree(self, graph):
        graph.run("CREATE (:L {k: 1})")
        profile = graph.profile("MATCH (n:L {k: 1}) RETURN n")
        assert isinstance(profile, QueryProfile)
        labels = [entry.label for entry in profile.clauses]
        assert labels[0].startswith("Match ")
        assert labels[1].startswith("Return ")
        assert profile.result.values("n")[0].get("k") == 1

    def test_rows_in_and_out(self, graph):
        graph.run("CREATE (:L), (:L), (:L)")
        profile = graph.profile("MATCH (n:L) RETURN n LIMIT 2")
        match = profile.clauses[0]
        assert match.rows_in == 1
        assert match.rows_out == 3

    def test_index_shrinks_db_hits(self):
        # The ISSUE's acceptance criterion.
        def build():
            g = Graph()
            for i in range(50):
                g.run("CREATE (:L {k: $i})", {"i": i})
            return g

        unindexed = build()
        indexed = build()
        indexed.create_index("L", "k")
        query = "MATCH (n:L {k: 1}) RETURN n"
        slow = unindexed.profile(query)
        fast = indexed.profile(query)
        assert [dict(r["n"].properties) for r in slow.result.records] == [
            dict(r["n"].properties) for r in fast.result.records
        ]
        assert fast.total_db_hits < slow.total_db_hits
        assert fast.hits.index_lookups >= 1

    def test_writes_attributed_to_create(self, graph):
        profile = graph.profile("CREATE (:A {x: 1})-[:R]->(:B)")
        create = profile.clauses[0]
        assert create.label.startswith("Create ")
        # two nodes + one relationship (property maps ride along)
        assert create.hits.writes == 3

    def test_foreach_children_nest(self, graph):
        profile = graph.profile(
            "FOREACH (x IN [1, 2, 3] | CREATE (:N {v: x}))"
        )
        foreach = profile.clauses[0]
        assert foreach.label.startswith("Foreach x IN")
        assert len(foreach.children) == 1
        assert foreach.children[0].label.startswith("Create ")
        # parent metrics are inclusive of the child's
        assert foreach.hits.writes == foreach.children[0].hits.writes == 3

    def test_counters_reset_after_profiling(self, graph):
        graph.profile("RETURN 1 AS x")
        assert graph.store.counters is NO_COUNTERS

    def test_counters_reset_after_error(self, graph):
        with pytest.raises(CypherEvaluationError):
            graph.profile("RETURN 1 / 0 AS x")
        assert graph.store.counters is NO_COUNTERS

    def test_plain_run_attaches_no_profile(self, graph):
        result = graph.run("RETURN 1 AS x")
        assert result.profile is None
        assert graph.store.counters is NO_COUNTERS

    def test_engine_flag_attaches_profile_to_result(self, graph):
        result = graph.engine.execute("RETURN 1 AS x", profile=True)
        assert result.profile is not None
        assert result.profile.result is result

    def test_schema_statement_profiles(self, graph):
        profile = graph.profile("CREATE INDEX ON :L(k)")
        assert profile.clauses[0].label.startswith("SchemaCommand")

    def test_to_dict_round_trips_to_json(self, graph):
        import json

        graph.run("CREATE (:L {k: 1})")
        profile = graph.profile("MATCH (n:L) RETURN n")
        data = json.loads(json.dumps(profile.to_dict()))
        assert data["statement"] == "MATCH (n:L) RETURN n"
        assert data["db_hits"]["total"] == profile.total_db_hits
        assert data["clauses"][0]["label"].startswith("Match ")


class TestAccessPathPins:
    """The announced access path is the enumerated one: one lookup each."""

    @pytest.fixture
    def people(self):
        store = GraphStore()
        for i in range(1000):
            store.create_node(("Person",), {"id": i, "name": f"p{i}"})
        store.create_index("Person", "id")
        return store

    def test_indexed_point_read_is_one_index_lookup(self, people):
        query = "MATCH (p:Person {id: $i}) RETURN p.name AS name"
        planned = Graph(store=people, use_planner=True).profile(query, {"i": 7})
        match = planned.clauses[0]
        assert match.anchor == "p via index :Person(id)"
        assert "anchor p via index :Person(id)" in planned.render()
        # One probe, one candidate (its handle and its label fetch):
        # nothing scales with :Person.
        assert (match.hits.index_lookups, match.hits.node_reads) == (1, 2)
        unplanned = Graph(store=people).profile(query, {"i": 7})
        assert unplanned.clauses[0].anchor is None
        assert unplanned.clauses[0].hits == match.hits
        assert unplanned.result.records == planned.result.records
        assert planned.result.records == [{"name": "p7"}]

    @pytest.mark.parametrize(
        "p_count, q_count, index, announced, bucket",
        [
            (50, 3, None, "n via label scan :Q", 4),
            (3, 50, None, "n via label scan :P", 4),
            (50, 3, ("P", "k"), "n via index :P(k)", 3),
            (50, 3, ("Q", "j"), "n via label scan :Q", 4),
        ],
    )
    def test_multi_label_pattern_probes_the_source_it_announces(
        self, p_count, q_count, index, announced, bucket
    ):
        store = GraphStore()
        for i in range(p_count):
            store.create_node(("P",), {"k": i % 25})
        for i in range(q_count):
            store.create_node(("Q",), {"k": 1})
        store.create_node(("P", "Q"), {"k": 1})
        if index is not None:
            store.create_index(*index)
        profile = Graph(store=store, use_planner=True).profile(
            "MATCH (n:P:Q {k: 1}) RETURN count(n) AS c"
        )
        match = profile.clauses[0]
        assert profile.result.records == [{"c": 1}]
        assert match.anchor == announced
        assert match.hits.index_lookups == 1
        # One handle and one label fetch per id of the announced bucket
        # (which holds the :P:Q node too) -- and of no other.
        assert match.hits.node_reads == 2 * bucket

    def test_point_read_memory_does_not_scale_with_the_label(self):
        import tracemalloc

        def peak(people: int) -> int:
            store = GraphStore()
            for i in range(people):
                store.create_node(("Person",), {"id": i, "name": "x"})
            store.create_index("Person", "id")
            graph = Graph(store=store, use_planner=True)
            query = "MATCH (p:Person {id: $i}) RETURN p.name"
            graph.run(query, {"i": 1})  # warm the statement caches
            tracemalloc.start()
            try:
                graph.run(query, {"i": 2})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_000) <= 2 * peak(1_000)


class TestPlannerChargesNothing:
    """Planning reads statistics only; a pattern property expression is
    evaluated once per record, before any candidate, whatever the plan."""

    QUERY = "MATCH (a:A) MATCH (b:B {k: a.k}) RETURN count(*) AS c"

    @pytest.fixture
    def store(self):
        store = GraphStore()
        store.create_index("B", "k")
        for i in range(5):
            store.create_node(("A",), {"k": i})
            store.create_node(("B",), {"k": i})
        return store

    def test_planner_on_and_off_profile_to_the_same_db_hits(self, store):
        planned = Graph(store=store, use_planner=True).profile(self.QUERY)
        written = Graph(store=store).profile(self.QUERY)
        assert planned.result.records == written.result.records == [{"c": 5}]
        assert planned.clauses[1].anchor == "b via index :B(k)"
        # Per driving row: a.k is read once, then one indexed candidate
        # is fetched (its handle, its label set) and its k compared.
        for profile in (planned, written):
            probe = profile.clauses[1].hits
            assert (probe.property_reads, probe.index_lookups) == (10, 5)
            assert probe.node_reads == 10
        assert [c.hits for c in planned.clauses] == [
            c.hits for c in written.clauses
        ]
        assert planned.total_db_hits == written.total_db_hits == 36

    def test_the_exception_a_sized_path_the_matcher_never_reaches(self, store):
        # Once the one exception (docs/semantics.md): x runs first in the
        # planned order and matches nothing, so only the planner's sizing
        # read a.k.  Now every plan evaluates b's map once per record,
        # before either path enumerates a candidate, and sizing reads no
        # value, so both plans charge the same five a.k reads.
        query = (
            "MATCH (a:A) MATCH (x:Missing), (b:B {k: a.k}) "
            "RETURN count(*) AS c"
        )
        planned = Graph(store=store, use_planner=True).profile(query)
        written = Graph(store=store).profile(query)
        assert planned.result.records == written.result.records == [{"c": 0}]
        assert planned.clauses[1].hits.property_reads == 5
        assert [c.hits for c in planned.clauses] == [
            c.hits for c in written.clauses
        ]
        assert planned.total_db_hits == written.total_db_hits

    def test_an_erroring_expression_surfaces_from_the_matcher(self, store):
        # The estimate reads no value; the matcher evaluates the map
        # before it enumerates, in both plans, and raises the same.
        query = "MATCH (a:A) MATCH (b:B {k: 1 / (a.k - a.k)}) RETURN b"
        errors = []
        for use_planner in (True, False):
            with pytest.raises(CypherEvaluationError) as raised:
                Graph(store=store, use_planner=use_planner).run(query)
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1]

    def test_kernels_charge_per_record_touched(self, store):
        counters = HitCounters()
        store.install_counters(counters)
        try:
            size, description, ids = store.node_access(
                ("B",), (("k", 3),), fetch=True
            )
            assert (size, description, len(ids)) == (1, "index :B(k)", 1)
            mask = store.label_mask(("B",))
            assert list(
                store.match_nodes(ids, mask, (("k", cypher_eq, 3),))
            ) == ids
            # one probe; the candidate's fetch and its label set; one key
            assert counters.snapshot() == DbHits(
                node_reads=2, property_reads=1, index_lookups=1
            )
            assert not store.node_matches(
                ids[0], mask, (("k", cypher_eq, 4), ("j", cypher_eq, 1))
            )
            # the label set again, and only the key that differed
            assert counters.snapshot() == DbHits(
                node_reads=3, property_reads=2, index_lookups=1
            )
        finally:
            store.reset_counters()


class TestMergeProfile:
    """PROFILE says what MERGE did: rows matched / rows created."""

    #: the Example 5 table: a duplicate row and null keys
    ROWS = [
        {"cid": 98, "pid": 125},
        {"cid": 98, "pid": 125},
        {"cid": 98, "pid": None},
        {"cid": 98, "pid": None},
        {"cid": 99, "pid": 125},
        {"cid": 99, "pid": None},
    ]
    QUERY = (
        "UNWIND $rows AS r MERGE {variant} "
        "(:User {{id: r.cid}})-[:ORDERED]->(:Product {{id: r.pid}})"
    )

    @pytest.mark.parametrize("variant", ["ALL", "SAME"])
    def test_annotations(self, graph, variant):
        graph.run("CREATE (:User {id: 98})-[:ORDERED]->(:Product {id: 125})")
        profile = graph.profile(
            self.QUERY.format(variant=variant), {"rows": self.ROWS}
        )
        merge = profile.clauses[1]
        assert (merge.rows_in, merge.rows_out) == (6, 6)
        # (98,125) x2 matches; (98,null) x2, (99,125), (99,null) create.
        assert (merge.rows_matched, merge.rows_created) == (2, 4)
        assert "; 2 rows matched, 4 rows created]" in profile.render()
        entry = profile.to_dict()["clauses"][1]
        assert (entry["rows_matched"], entry["rows_created"]) == (2, 4)
        # Other clauses carry no MERGE annotation.
        assert profile.clauses[0].rows_matched is None
        assert "rows matched" not in profile.render().splitlines()[1]


class TestRenderProfile:
    def test_render_contains_metrics(self, graph):
        graph.run("CREATE (:L {k: 1})")
        profile = graph.profile("MATCH (n:L {k: 1}) RETURN n AS m")
        text = profile.render()
        assert "profile: dialect revised" in text
        assert "db hits" in text
        assert "rows 1 -> 1" in text
        assert "total:" in text

    def test_render_indents_foreach_children(self, graph):
        text = graph.profile(
            "FOREACH (x IN [1] | CREATE (:N))"
        ).render()
        lines = text.splitlines()
        foreach = next(l for l in lines if "Foreach" in l)
        create = next(l for l in lines if "Create" in l)
        indent = len(create) - len(create.lstrip())
        assert indent > len(foreach) - len(foreach.lstrip())


class TestShellProfile:
    def test_profile_command(self):
        out = io.StringIO()
        from repro.tools.shell import Shell

        shell = Shell(out=out)
        shell.feed("CREATE (:L {k: 1});")
        shell.feed(":profile MATCH (n:L) RETURN n.k AS k")
        text = out.getvalue()
        assert "db hits" in text
        assert "total:" in text

    def test_profile_command_reports_errors(self):
        out = io.StringIO()
        from repro.tools.shell import Shell

        shell = Shell(out=out)
        shell.feed(":profile RETURN 1 / 0 AS x")
        assert "CypherEvaluationError" in out.getvalue()

    def test_profile_command_usage(self):
        out = io.StringIO()
        from repro.tools.shell import Shell

        shell = Shell(out=out)
        shell.feed(":profile")
        assert "usage" in out.getvalue()
