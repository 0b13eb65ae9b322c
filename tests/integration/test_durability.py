"""End-to-end durability: the ``Graph`` path API and crash injection.

A durable graph must come back byte-identical (canonical graph JSON)
after close/reopen, across checkpoints, transactions, rollbacks and
schema changes -- and after a crash at any WAL record boundary.
"""

import pytest

from repro.errors import (
    ConstraintViolationError,
    CypherEvaluationError,
    PersistenceError,
)
from repro.graph.store import GraphStore
from repro.persistence.checkpoint import WAL_NAME
from repro.session import Graph
from repro.testing.crash import run_crash_scenario
from repro.testing.invariants import canonical_graph_json, check_invariants


def reopened(path):
    graph = Graph.open(path)
    try:
        return canonical_graph_json(graph.store)
    finally:
        graph.close()


class TestGraphPathApi:
    def test_reopen_is_byte_identical(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            graph.run("CREATE (:User {id: 1, name: 'Ann'})")
            graph.run("CREATE (:User {id: 2, name: 'Bob'})")
            graph.run(
                "MATCH (a:User {id: 1}), (b:User {id: 2}) "
                "CREATE (a)-[:KNOWS {since: 1999}]->(b)"
            )
            before = canonical_graph_json(graph.store)
        assert reopened(tmp_path) == before

    def test_failed_statement_leaves_no_trace(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            graph.run("CREATE (:A {k: 1})")
            with pytest.raises(CypherEvaluationError):
                graph.run("MATCH (n:A) SET n.bad = 1 / 0")
            before = canonical_graph_json(graph.store)
        assert reopened(tmp_path) == before

    def test_transaction_commit_and_rollback(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            with graph.transaction():
                graph.run("CREATE (:A {k: 1})")
                graph.run("CREATE (:B {k: 2})")
            tx = graph.transaction()
            graph.run("CREATE (:C {k: 3})")
            tx.rollback()
            before = canonical_graph_json(graph.store)
            assert graph.node_count() == 2
        assert reopened(tmp_path) == before

    def test_one_lsn_line_across_wal_views_and_reopen(self, tmp_path):
        from repro.persistence import iter_records

        def wal_lsn():
            with open(tmp_path / WAL_NAME, "rb") as handle:
                return [record.lsn for record, __ in iter_records(handle)][-1]

        query = "MATCH (a:A) RETURN a.k AS k"
        with Graph.open(tmp_path) as graph:
            graph.run("CREATE (:A {k: 1})")
            graph.run("CREATE INDEX ON :A(k)")
            view = graph.register_view(query)
            graph.run("CREATE (:A {k: 2})")
            with graph.transaction():
                graph.run("CREATE (:A {k: 3})")
                graph.run("CREATE (:A {k: 4})")
            graph.sync()
            assert graph.store.lsn == wal_lsn() == 4
            assert view.result().lsn == view.covered_lsn == 4
        with Graph.open(tmp_path) as graph:
            assert graph.store.lsn == wal_lsn() == 4
            view = graph.register_view(query)
            assert view.result().lsn == view.covered_lsn == 4
            graph.run("CREATE (:A {k: 5})")
            graph.sync()
            assert graph.store.lsn == wal_lsn() == 5
            assert view.result().lsn == view.covered_lsn == 5

    def test_schema_survives_reopen(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            graph.run("CREATE INDEX ON :A(k)")
            graph.create_unique_constraint("B", "id")
            graph.run("CREATE (:A {k: 1})")
        graph = Graph.open(tmp_path)
        try:
            assert ("A", "k") in graph.store._property_indexes
            assert ("B", "id") in graph.store.unique_constraints()
            # The recovered index is live, not just registered.
            assert graph.store.property_index("A", "k").ids(1)
        finally:
            graph.close()

    def test_refused_index_drop_leaves_wal_and_reopens(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            graph.create_unique_constraint("P", "k")
            graph.run("CREATE (:P {k: 1})")
            graph.sync()
            wal_size = (tmp_path / WAL_NAME).stat().st_size
            with pytest.raises(ConstraintViolationError, match=r":P\(k\)"):
                graph.run("DROP INDEX ON :P(k)")
            graph.sync()
            assert (tmp_path / WAL_NAME).stat().st_size == wal_size
            graph.run("MATCH (p:P) SET p.k = 2")  # no KeyError afterwards
        with Graph.open(tmp_path) as graph:
            assert graph.store.index_keys() == [("P", "k")]
            assert graph.store.unique_constraints() == {("P", "k")}
            with pytest.raises(ConstraintViolationError):
                graph.run("CREATE (:P {k: 2})")

    def test_checkpoint_compacts_and_preserves(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            for i in range(10):
                graph.run("CREATE (:A {k: $k})", {"k": i})
            graph.checkpoint()
            assert (tmp_path / WAL_NAME).stat().st_size == 0
            graph.run("CREATE (:B {k: 99})")
            before = canonical_graph_json(graph.store)
        assert reopened(tmp_path) == before

    def test_direct_api_writes_are_logged(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            a = graph.create_node("A", k=1)
            b = graph.create_node("B")
            graph.create_relationship(a, "T", b)
            before = canonical_graph_json(graph.store)
        assert reopened(tmp_path) == before

    def test_id_allocation_is_safe_after_reopen(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            graph.run("CREATE (:A {k: 1})")
            first_ids = {n.id for n in graph.nodes()}
        with Graph.open(tmp_path) as graph:
            graph.run("CREATE (:B {k: 2})")
            ids = [n.id for n in graph.nodes()]
            assert len(ids) == len(set(ids)) == 2
            assert set(ids) > first_ids
            check_invariants(graph.store)

    def test_prepopulated_store_plus_existing_dir_rejected(self, tmp_path):
        with Graph.open(tmp_path) as graph:
            graph.run("CREATE (:A {k: 1})")
        populated = GraphStore()
        populated.create_node(("X",), {})
        with pytest.raises(PersistenceError, match="pre-populated"):
            Graph(store=populated, path=tmp_path)

    def test_prepopulated_store_checkpoints_into_fresh_dir(self, tmp_path):
        populated = GraphStore()
        populated.create_node(("X",), {"k": 1})
        with Graph(store=populated, path=tmp_path) as graph:
            before = canonical_graph_json(graph.store)
        assert reopened(tmp_path) == before

    def test_checkpoint_without_persistence_raises(self):
        graph = Graph()
        with pytest.raises(PersistenceError):
            graph.checkpoint()

    def test_close_is_idempotent(self, tmp_path):
        graph = Graph.open(tmp_path)
        graph.close()
        graph.close()


class TestShell:
    def test_shell_path_roundtrip(self, tmp_path, capsys):
        from repro.tools.shell import main

        script = tmp_path / "setup.cypher"
        script.write_text("CREATE (:A {k: 1});\n")
        data = tmp_path / "data"
        assert main([str(script), "--path", str(data)]) == 0
        script2 = tmp_path / "check.cypher"
        script2.write_text("MATCH (n:A) RETURN n.k AS k;\n")
        assert main([str(script2), "--path", str(data)]) == 0
        out = capsys.readouterr().out
        assert "recovered:" in out
        assert "1 row(s)" in out

    def test_checkpoint_command(self, tmp_path):
        import io

        from repro.tools.shell import Shell

        out = io.StringIO()
        shell = Shell(Graph.open(tmp_path / "data"), out=out)
        shell.feed("CREATE (:A {k: 1});")
        shell.feed(":checkpoint")
        assert "checkpoint written (lsn 1)" in out.getvalue()
        shell.graph.close()
        assert (tmp_path / "data" / WAL_NAME).stat().st_size == 0

    def test_checkpoint_on_ephemeral_graph_is_an_error(self):
        import io

        from repro.tools.shell import Shell

        out = io.StringIO()
        shell = Shell(Graph(), out=out)
        shell.feed(":checkpoint")
        assert "not durable" in out.getvalue()


class TestCrashInjection:
    def test_seeded_scenario_survives_every_kill_point(self, tmp_path):
        report = run_crash_scenario(0, tmp_path)
        assert report.kill_points > 10
        assert report.ok, report.failures[:5]

    def test_short_handcrafted_scenario(self, tmp_path):
        statements = [
            "CREATE (:A {k: 1})",
            "CREATE INDEX ON :A(k)",
            "MATCH (n:A) SET n.k = 2",
            "MATCH (n:A) SET n.boom = 1 / 0",  # must never hit the log
            "MERGE ALL (:A {k: 2})",
            "MATCH (n:A) DETACH DELETE n",
        ]
        report = run_crash_scenario(
            1, tmp_path, statements=statements, fsync="always"
        )
        assert report.ok, report.failures[:5]
        assert report.statements_run == len(statements)
