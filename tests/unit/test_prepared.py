"""One prepared statement: counted, not timed.

``CypherEngine.prepare`` is the only place a statement is parsed,
scope-checked, rewritten or given closures; everything that executes or
describes a statement takes it from there.  These tests count what the
warm path enters, check that the one statement cache bounds everything
derived from a text, and that every surface observes the same
``Prepared`` object.
"""

import asyncio
import gc
import weakref

import pytest

import repro.engine as engine_module
from repro import Dialect, Graph
from repro.engine import CypherEngine, Prepared
from repro.errors import UpdateError
from repro.graph.counters import HitCounters
from repro.graph.store import GraphStore
from repro.parser import ast
from repro.runtime import compiler
from repro.server.sessions import SessionManager


@pytest.fixture
def graph():
    graph = Graph(Dialect.REVISED, use_planner=True)
    graph.run("CREATE INDEX ON :P(id)")
    graph.run("UNWIND range(0, 50) AS i CREATE (:P {id: i, name: 'n'})")
    return graph


def _count_calls(monkeypatch, name):
    """Replace ``repro.engine.<name>`` by a counting pass-through."""
    calls = []
    original = getattr(engine_module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_module, name, counting)
    return calls


def _count_ast_hashes(monkeypatch):
    """Count ``hash()`` calls on AST nodes of every class."""
    hashed = []
    for value in vars(ast).values():
        if isinstance(value, type) and "__hash__" in vars(value):
            original = value.__hash__

            def counting(self, _original=original):
                hashed.append(type(self).__name__)
                return _original(self)

            monkeypatch.setattr(value, "__hash__", counting)
    return hashed


class TestWarmPath:
    SOURCE = "MATCH (p:P) WHERE p.id = $id RETURN p.name AS name"

    def test_second_run_prepares_nothing(self, graph, monkeypatch):
        assert graph.run(self.SOURCE, id=7).records == [{"name": "n"}]
        checks = _count_calls(monkeypatch, "check_statement")
        rewrites = _count_calls(monkeypatch, "rewrite_statement")
        parses = _count_calls(monkeypatch, "parse")
        hashed = _count_ast_hashes(monkeypatch)
        compiled = compiler.STATS.snapshot()
        cache = graph.engine.ast_cache_info()

        assert graph.run(self.SOURCE, id=9).records == [{"name": "n"}]

        assert checks == [] and rewrites == [] and parses == []
        assert hashed == []
        assert compiler.STATS.snapshot() == compiled
        after = graph.engine.ast_cache_info()
        assert after["hits"] == cache["hits"] + 1
        assert after["misses"] == cache["misses"]

    def test_a_cold_text_is_checked_and_rewritten_once(
        self, graph, monkeypatch
    ):
        checks = _count_calls(monkeypatch, "check_statement")
        rewrites = _count_calls(monkeypatch, "rewrite_statement")
        for key in (1, 2, 3):
            graph.run(self.SOURCE, id=key)
        graph.explain(self.SOURCE, {"id": 4})
        graph.profile(self.SOURCE, id=5)
        assert len(checks) == 1 and len(rewrites) == 1

    def test_new_parameter_names_or_columns_prepare_again(self, graph):
        prepared = graph.engine.prepare(self.SOURCE)
        with_id = prepared.executable((), {"id": 1}, True)
        assert prepared.executable((), {"id": 2}, True) is with_id
        # $id not supplied: the conjunct may raise, so it is not pushed
        without = prepared.executable((), {}, True)
        assert without is not with_id
        assert without.branches()[0].clauses[0].where is not None
        assert with_id.branches()[0].clauses[0].where is None

    def test_the_memo_of_one_statement_is_bounded(self, graph):
        prepared = graph.engine.prepare(self.SOURCE)
        for index in range(10 * Prepared.MEMO_LIMIT):
            prepared.executable((), {"id": 1, f"p{index}": 0}, True)
        assert len(prepared._executables) <= Prepared.MEMO_LIMIT

    def test_a_scope_error_is_raised_on_every_run(self, graph):
        for __ in range(3):
            with pytest.raises(Exception) as raised:
                graph.run("MATCH (p:P) RETURN q.name")
            assert type(raised.value).__name__ == "UnknownVariableError"

    def test_bare_asts_are_prepared_but_not_cached(self, graph):
        statement = graph.engine.prepare("RETURN 1 AS one").statement
        before = graph.engine.ast_cache_info()
        first = graph.engine.prepare(statement)
        assert first is not graph.engine.prepare(statement)
        assert first.statement is statement
        assert graph.engine.prepare(first) is first
        assert graph.engine.ast_cache_info() == before
        assert graph.engine.execute(statement).records == [{"one": 1}]


class TestOneBound:
    def test_eviction_frees_ast_rewrites_and_closures(self):
        engine = CypherEngine(GraphStore(), use_planner=True)
        capacity = engine.ast_cache_info()["capacity"]
        assert capacity == 1024
        first = engine.prepare("UNWIND [1, 2] AS x RETURN x + 0 AS y")
        engine.execute(first)
        probes = [
            weakref.ref(first.statement),
            weakref.ref(first.executable((), {}, True)),
            weakref.ref(
                first.statement.query.clauses[1].body.items[0].expression
            ),
            weakref.ref(
                compiler.compile_expression(
                    first.statement.query.clauses[1].body.items[0].expression
                )
            ),
        ]
        del first
        for index in range(1, 3000):
            engine.execute(f"UNWIND [1, 2] AS x RETURN x + {index} AS y")
        info = engine.ast_cache_info()
        assert info["size"] == capacity
        assert info["evictions"] == 3000 - capacity
        gc.collect()
        assert [probe() for probe in probes] == [None] * len(probes)


class TestOnePrepared:
    SOURCE = "MATCH (p:P) WHERE p.id < 3 RETURN p.id AS id"

    def test_every_surface_executes_the_same_object(self, graph, monkeypatch):
        prepared = graph.engine.prepare(self.SOURCE)
        seen = []
        executable = Prepared.executable

        def spying(self, columns, parameters, rewrite):
            seen.append((self, rewrite))
            return executable(self, columns, parameters, rewrite)

        monkeypatch.setattr(Prepared, "executable", spying)
        graph.run(self.SOURCE)
        graph.profile(self.SOURCE)
        graph.explain(self.SOURCE)
        graph.plan(self.SOURCE)
        manager = SessionManager(graph)
        result, __ = asyncio.run(manager.execute(None, self.SOURCE))
        assert sorted(result.values("id")) == [0, 1, 2]
        view = graph.register_view(self.SOURCE)
        assert {id(which) for which, __ in seen} == {id(prepared)}
        assert view.prepared is prepared
        # the optimised surfaces ran the rewritten statement, the view's
        # order-defining re-execution the written one
        assert [rewrite for __, rewrite in seen] == [True] * 5 + [False]
        assert view.statement is prepared.statement
        graph.run("CREATE (:P {id: -1})")
        assert len(view.result().records) == 4

    def test_a_fallback_view_reexecutes_the_prepared_statement(self, graph):
        source = "MATCH (p:P) OPTIONAL MATCH (p)-[:X]->(q) RETURN count(q) AS c"
        ran = graph.run(source).records
        view = graph.register_view(source)
        assert view.stats.mode == "full"
        assert view.prepared is graph.engine.prepare(source)
        assert view.statement is view.prepared.statement
        assert list(view.result().records) == ran == [{"c": 0}]
        graph.run("MATCH (p:P {id: 1}) CREATE (p)-[:X]->(:Q)")
        assert list(view.result().records) == [{"c": 1}]
        assert view.stats.full_refreshes == 2

    def test_the_server_decides_from_the_prepared_verdicts(self, graph):
        engine = graph.engine
        assert engine.prepare(self.SOURCE).read_only
        assert not engine.prepare("CREATE (:P)").read_only
        assert not engine.prepare("CREATE INDEX ON :P(name)").read_only
        assert not engine.prepare(
            "MATCH (p:P) RETURN p UNION MATCH (p:P) DELETE p RETURN p"
        ).read_only
        assert not engine.prepare(
            "FOREACH (x IN [1] | CREATE (:P))"
        ).read_only
        load = engine.prepare("LOAD CSV FROM 'f.csv' AS row RETURN row")
        assert load.uses_load_csv and load.read_only
        assert not engine.prepare(self.SOURCE).uses_load_csv

    def test_a_view_of_another_dialect_prepares_on_its_own_engine(
        self, graph
    ):
        view = graph.view_registry.register(
            self.SOURCE, dialect=Dialect.CYPHER9
        )
        assert view.prepared is not graph.engine.prepare(self.SOURCE)
        assert view.prepared.dialect is Dialect.CYPHER9
        again = graph.view_registry.register(
            self.SOURCE + " ", dialect=Dialect.CYPHER9
        )
        assert again.prepared.dialect is Dialect.CYPHER9
        assert len(graph.view_registry._engines) == 2

    def test_a_view_is_scope_checked_at_registration(self, graph):
        with pytest.raises(Exception) as raised:
            graph.register_view("MATCH (p:Nothing) RETURN q.id AS id")
        assert type(raised.value).__name__ == "UnknownVariableError"


class TestLegacyStatementBoundary:
    """The commit-time well-formedness check looks only where a dangling
    relationship can have come from: at the nodes the statement deleted."""

    @pytest.fixture
    def legacy(self):
        graph = Graph(Dialect.CYPHER9)
        graph.run(
            "UNWIND range(1, 200) AS i "
            "CREATE (:L {k: i})-[:R]->(:M {k: i})"
        )
        return graph

    def _boundary_hits(self, graph, source):
        """Db-hits of the check alone: whole statement minus clauses."""
        profile = graph.profile(source)
        total = profile.hits.to_dict()
        for clause in profile.clauses:
            for name, count in clause.hits.to_dict().items():
                total[name] -= count
        return total

    def test_a_read_touches_no_relationship(self, legacy, monkeypatch):
        touched = []
        monkeypatch.setattr(
            HitCounters,
            "rel_read",
            lambda self, count=1: touched.append(count),
        )
        legacy.profile("MATCH (n:L {k: 7}) RETURN n.k AS k")
        assert touched == []
        hits = self._boundary_hits(
            legacy, "MATCH (n:L {k: 7}) RETURN n.k AS k"
        )
        assert not any(hits.values()), hits

    def test_a_write_that_deletes_no_node_touches_none(self, legacy):
        hits = self._boundary_hits(legacy, "MATCH (n:L {k: 7}) SET n.k = 0")
        assert not any(hits.values()), hits
        hits = self._boundary_hits(
            legacy, "MATCH (:L {k: 8})-[r:R]->() DELETE r"
        )
        assert not any(hits.values()), hits

    def test_a_node_delete_inspects_only_its_own_relationships(
        self, legacy, monkeypatch
    ):
        asked = []
        adjacent = GraphStore.adjacent_rel_ids

        def spying(self, node_id, **kwargs):
            asked.append(node_id)
            return adjacent(self, node_id, **kwargs)

        deleted = legacy.run("MATCH (n:L {k: 9}) RETURN n").single()["n"].id
        monkeypatch.setattr(GraphStore, "adjacent_rel_ids", spying)
        with pytest.raises(UpdateError) as raised:
            legacy.run("MATCH (n:L {k: 9}) DELETE n")
        assert asked == [deleted]
        assert "dangling relationship" in str(raised.value)
        assert "(R)" in str(raised.value)
        # rolled back, exactly as before
        assert legacy.run("MATCH (n:L {k: 9}) RETURN count(n) AS c").single()[
            "c"
        ] == 1

    def test_the_lowest_dangling_id_is_reported(self, legacy):
        rels = sorted(
            rel.id
            for rel in legacy.relationships()
            if rel.start.get("k") in (20, 21)
        )
        with pytest.raises(UpdateError) as raised:
            legacy.run("MATCH (n:L) WHERE n.k IN [21, 20] DELETE n")
        assert f"relationship {rels[0]} (R)" in str(raised.value)

    def test_deleting_both_ends_and_the_relationship_commits(self, legacy):
        legacy.run("MATCH (n:L {k: 30})-[r:R]->(m) DELETE n, r, m")
        assert legacy.node_count() == 398
