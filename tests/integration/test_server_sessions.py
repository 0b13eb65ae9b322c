"""The networked session surface, exercised without sockets.

A :class:`~repro.client.MockTransport` runs the full
:class:`~repro.server.service.GraphService` stack -- routing,
sessions, the write lock, snapshot reads, limits, durability -- on a
private event loop, so these tests cover everything the HTTP listener
serves except the socket framing itself.

The parity classes mirror the embedded ``tests/unit/test_session.py``
transaction semantics: whatever holds for ``Graph.transaction()``
must hold for a remote session.  The isolation classes then cover
what only exists on the server: *concurrent* sessions.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.client import Client, MockTransport, ServerError
from repro.errors import (
    CypherSyntaxError,
    ResourceLimitError,
    TransactionError,
)
from repro.server.limits import RequestLimits
from repro.server.service import GraphService, ServerConfig
from repro.server.wire import WireNode, WirePath, WireRelationship


@pytest.fixture
def client():
    service = GraphService(ServerConfig())
    client = Client.in_process(service)
    yield client
    client.close()


def count_users(runner) -> int:
    return runner.run("MATCH (u:User) RETURN count(u) AS c").single()[
        "c"
    ]


class TestSessionParity:
    """Remote sessions behave like ``Graph.transaction()``."""

    def test_commit_keeps_changes(self, client):
        with client.session() as session:
            session.begin()
            session.run("CREATE (:User {name: 'ada'})")
            session.commit()
        assert count_users(client) == 1

    def test_rollback_discards_changes(self, client):
        with client.session() as session:
            session.begin()
            session.run("CREATE (:User {name: 'ada'})")
            session.rollback()
        assert count_users(client) == 0

    def test_close_rolls_back_open_transaction(self, client):
        session = client.session()
        session.begin()
        session.run("CREATE (:User {name: 'ada'})")
        session.close()
        assert count_users(client) == 0

    def test_statement_error_keeps_transaction_alive(self, client):
        with client.session() as session:
            session.begin()
            session.run("CREATE (:User {name: 'ada'})")
            with pytest.raises(CypherSyntaxError):
                session.run("MATCH (")
            # the failed statement rolled back alone; the
            # transaction's earlier write survives to the commit
            session.run("CREATE (:User {name: 'bob'})")
            session.commit()
        assert count_users(client) == 2

    def test_transaction_context_manager(self, client):
        session = client.session()
        with session.transaction():
            session.run("CREATE (:User {name: 'ada'})")
        assert count_users(client) == 1
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.run("CREATE (:User {name: 'bob'})")
                raise RuntimeError("boom")
        assert count_users(client) == 1
        session.close()

    def test_begin_twice_rejected(self, client):
        with client.session() as session:
            session.begin()
            with pytest.raises(TransactionError):
                session.begin()
            session.rollback()

    def test_commit_without_begin_rejected(self, client):
        with client.session() as session:
            with pytest.raises(TransactionError):
                session.commit()

    def test_read_only_transaction_commits_cleanly(self, client):
        with client.session() as session:
            session.begin()
            assert count_users(session) == 0
            session.commit()

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/sessions/deadbeef/query", {
                "statement": "RETURN 1",
            })
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "UnknownSessionError"

    def test_autocommit_inside_session(self, client):
        with client.session() as session:
            session.run("CREATE (:User {name: 'ada'})")
        assert count_users(client) == 1


class TestIsolation:
    """Visibility rules between concurrent sessions."""

    def test_uncommitted_writes_invisible(self, client):
        writer = client.session()
        reader = client.session()
        writer.begin()
        writer.run("CREATE (:User {name: 'ada'})")
        assert count_users(writer) == 1  # read-own-writes
        assert count_users(reader) == 0
        assert count_users(client) == 0  # sessionless read too
        writer.commit()
        assert count_users(reader) == 1
        writer.close()
        reader.close()

    def test_commit_is_atomic_across_statements(self, client):
        writer = client.session()
        reader = client.session()
        writer.begin()
        for name in ("ada", "bob", "cy"):
            writer.run(
                "CREATE (:User {name: $n})", {"n": name}
            )
            # mid-transaction: all or nothing, never a prefix
            assert count_users(reader) == 0
        writer.commit()
        assert count_users(reader) == 3
        writer.close()
        reader.close()

    def test_rollback_restores_for_everyone(self, client):
        client.run("CREATE (:User {name: 'base'})")
        writer = client.session()
        writer.begin()
        writer.run("MATCH (u:User) DETACH DELETE u")
        writer.run("CREATE (:User {name: 'other'})")
        assert count_users(client) == 1  # snapshot: still 'base'
        names = client.run(
            "MATCH (u:User) RETURN u.name AS n"
        ).values()
        assert names == ["base"]
        writer.rollback()
        assert count_users(client) == 1
        writer.close()

    def test_snapshot_read_does_not_disturb_writer(self, client):
        writer = client.session()
        writer.begin()
        writer.run("CREATE (:User {name: 'ada'})")
        # a snapshot read rewinds and restores the store; the
        # writer's uncommitted state must survive it bit-for-bit
        assert count_users(client) == 0
        assert count_users(writer) == 1
        writer.run("MATCH (u:User {name: 'ada'}) SET u.age = 36")
        writer.commit()
        row = client.run(
            "MATCH (u:User) RETURN u.name AS n, u.age AS a"
        ).single()
        assert row == {"n": "ada", "a": 36}
        writer.close()

    def test_second_writer_times_out_while_tx_open(self):
        service = GraphService(
            ServerConfig(
                limits=RequestLimits(write_lock_timeout_s=0.1)
            )
        )
        client = Client.in_process(service)
        try:
            first = client.session()
            second = client.session()
            first.begin()
            first.run("CREATE (:User {name: 'ada'})")
            with pytest.raises(ServerError) as excinfo:
                second.run("CREATE (:User {name: 'bob'})")
            assert excinfo.value.status == 409
            assert excinfo.value.error_type == "WriteBusyError"
            first.commit()
            # lock released: the blocked writer can proceed now
            second.run("CREATE (:User {name: 'bob'})")
            assert count_users(client) == 2
        finally:
            client.close()

    def test_concurrent_threaded_writers_all_land(self, client):
        errors: list[Exception] = []

        def write(i: int) -> None:
            try:
                client.run(
                    "CREATE (:User {name: $n})", {"n": f"u{i}"}
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=write, args=(i,))
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert count_users(client) == 16

    def test_interleaved_transactions_never_tear(self, client):
        """Property test: randomly interleaved reader statements
        against a writer committing fixed-size batches never observe
        a count that is not a multiple of the batch size."""
        rng = random.Random(0xC0FFEE)
        writer = client.session()
        reader = client.session()
        batch = 3
        committed = 0
        for _ in range(20):
            writer.begin()
            for i in range(batch):
                writer.run("CREATE (:Pair)")
                if rng.random() < 0.7:
                    seen = reader.run(
                        "MATCH (p:Pair) RETURN count(p) AS c"
                    ).single()["c"]
                    assert seen == committed, (
                        f"reader saw {seen} mid-transaction, "
                        f"committed is {committed}"
                    )
            if rng.random() < 0.25:
                writer.rollback()
            else:
                writer.commit()
                committed += batch
            seen = reader.run(
                "MATCH (p:Pair) RETURN count(p) AS c"
            ).single()["c"]
            assert seen == committed
        writer.close()
        reader.close()


class TestWireRoundTrip:
    def test_entities_come_back_typed(self, client):
        client.run(
            "CREATE (:User {name: 'ada'})-[:KNOWS {since: 1843}]->"
            "(:User {name: 'bob'})"
        )
        row = client.run(
            "MATCH p = (a:User)-[k:KNOWS]->(b:User) "
            "RETURN a, k, b, p"
        ).single()
        assert isinstance(row["a"], WireNode)
        assert row["a"].labels == ("User",)
        assert row["a"].properties["name"] == "ada"
        assert isinstance(row["k"], WireRelationship)
        assert row["k"].type == "KNOWS"
        assert row["k"].start == row["a"].id
        assert row["k"].end == row["b"].id
        assert isinstance(row["p"], WirePath)
        assert len(row["p"]) == 1

    def test_collections_and_tilde_maps(self, client):
        row = client.run(
            "RETURN [1, 2.5, 'x', null] AS xs, "
            "{a: 1, b: {c: [true]}} AS m, "
            "{`~kind`: 'node'} AS evil"
        ).single()
        assert row["xs"] == [1, 2.5, "x", None]
        assert row["m"] == {"a": 1, "b": {"c": [True]}}
        assert row["evil"] == {"~kind": "node"}

    def test_counters_cross_the_wire(self, client):
        result = client.run(
            "CREATE (:User {name: 'ada'})-[:KNOWS]->(:User)"
        )
        assert result.counters.nodes_created == 2
        assert result.counters.relationships_created == 1


class TestLimitsOverTheWire:
    def test_range_cap_applies_remotely(self, client):
        with pytest.raises(ResourceLimitError):
            client.run("RETURN range(0, 4611686018427387904) AS xs")

    def test_request_limit_tighter_than_default(self):
        service = GraphService(
            ServerConfig(limits=RequestLimits(max_list_length=10))
        )
        client = Client.in_process(service)
        try:
            with pytest.raises(ResourceLimitError):
                client.run("RETURN range(1, 11) AS xs")
            assert client.run("RETURN range(1, 10) AS xs").single()[
                "xs"
            ] == list(range(1, 11))
        finally:
            client.close()

    def test_statement_length_cap(self):
        service = GraphService(
            ServerConfig(
                limits=RequestLimits(max_statement_chars=64)
            )
        )
        client = Client.in_process(service)
        try:
            with pytest.raises(ResourceLimitError):
                client.run("RETURN " + "1 + " * 32 + "1")
        finally:
            client.close()

    def test_result_row_cap(self):
        service = GraphService(
            ServerConfig(limits=RequestLimits(max_result_rows=5))
        )
        client = Client.in_process(service)
        try:
            with pytest.raises(ResourceLimitError):
                client.run("UNWIND range(1, 6) AS x RETURN x")
            assert (
                len(client.run("UNWIND range(1, 5) AS x RETURN x"))
                == 5
            )
        finally:
            client.close()

    def test_load_csv_disabled_by_default(self, client):
        with pytest.raises(ResourceLimitError):
            client.run(
                "LOAD CSV FROM 'file:///etc/passwd' AS row RETURN row"
            )

    def test_session_cap(self):
        service = GraphService(
            ServerConfig(limits=RequestLimits(max_sessions=2))
        )
        client = Client.in_process(service)
        try:
            first = client.session()
            client.session()
            with pytest.raises(ResourceLimitError):
                client.session()
            first.close()
            client.session()  # freed slot is reusable
        finally:
            client.close()


class TestAdminSurface:
    def test_health_and_stats(self, client):
        assert client.health()["status"] == "ok"
        client.run("CREATE (:User)")
        stats = client.stats()
        assert stats["nodes"] == 1
        assert stats["statements"] >= 1
        assert "wal_lsn" not in stats  # in-memory service

    def test_schema_lists_indexes_and_constraints(self, client):
        client.run("CREATE INDEX ON :User(name)")
        client.run(
            "CREATE CONSTRAINT ON (u:User) ASSERT u.email IS UNIQUE"
        )
        schema = client.schema()
        assert {"label": "User", "key": "name"} in schema["indexes"]
        assert any(
            c["label"] == "User" and c["key"] == "email"
            for c in schema["constraints"]
        )

    def test_checkpoint_requires_durability(self, client):
        with pytest.raises(Exception) as excinfo:
            client.checkpoint()
        assert "checkpoint" in str(excinfo.value)

    def test_bad_json_body_is_400(self, client):
        status, payload = client._transport.request(
            "POST", "/query", None
        )
        assert status == 400  # missing statement field
        status, _ = client._transport.request(
            "GET", "/nope/nothing"
        )
        assert status == 404


class TestDurableService:
    def test_group_commit_survives_reopen(self, tmp_path):
        from repro.session import Graph

        directory = tmp_path / "graph"
        service = GraphService(
            ServerConfig(
                path=str(directory), fsync="always", group_commit=True
            )
        )
        client = Client.in_process(service)
        try:
            for i in range(8):
                client.run(
                    "CREATE (:User {name: $n})", {"n": f"u{i}"}
                )
            with client.session() as session:
                session.begin()
                session.run("CREATE (:User {name: 'tx'})")
                session.commit()
            stats = client.stats()
            assert stats["wal_lsn"] >= 9
            assert stats["group_commit"]["durable_lsn"] >= 9
        finally:
            client.close()
        graph = Graph.open(directory)
        try:
            assert count_users(graph) == 9
        finally:
            graph.close()

    def test_rolled_back_transaction_not_in_wal(self, tmp_path):
        from repro.session import Graph

        directory = tmp_path / "graph"
        service = GraphService(
            ServerConfig(
                path=str(directory), fsync="always", group_commit=True
            )
        )
        client = Client.in_process(service)
        try:
            with client.session() as session:
                session.begin()
                session.run("CREATE (:User {name: 'ghost'})")
                session.rollback()
            client.run("CREATE (:User {name: 'real'})")
        finally:
            client.close()
        graph = Graph.open(directory)
        try:
            names = graph.run(
                "MATCH (u:User) RETURN u.name AS n"
            ).values("n")
        finally:
            graph.close()
        assert names == ["real"]

    def test_remote_checkpoint(self, tmp_path):
        service = GraphService(
            ServerConfig(path=str(tmp_path / "graph"))
        )
        client = Client.in_process(service)
        try:
            client.run("CREATE (:User)")
            payload = client.checkpoint()
            assert payload["checkpointed"] is True
            # A new directory has no base yet; the next one is a delta.
            assert payload["kind"] == "full" and payload["bytes"] > 0
            client.run("CREATE (:User)")
            payload = client.checkpoint()
            assert payload["kind"] == "delta" and payload["bytes"] > 0
            assert payload["lsn"] == 2
        finally:
            client.close()
