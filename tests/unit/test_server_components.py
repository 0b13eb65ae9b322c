"""Unit tests for the server's building blocks: the route table, the
wire format, the snapshot-read store primitive, and the group
committer's batching logic.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence import GroupCommitter, PersistenceManager
from repro.server.routers import ROUTES, match_route
from repro.server.wire import from_wire, to_wire
from repro.session import Graph


class TestRouter:
    def test_static_routes(self):
        assert match_route("GET", "/health") == ("handle_health", {})
        assert match_route("POST", "/query") == ("handle_query", {})
        assert match_route("POST", "/admin/checkpoint") == (
            "handle_checkpoint",
            {},
        )

    def test_path_parameters(self):
        handler, params = match_route("POST", "/sessions/abc123/query")
        assert handler == "handle_session_query"
        assert params == {"id": "abc123"}
        handler, params = match_route("DELETE", "/sessions/abc123")
        assert handler == "handle_session_close"
        assert params == {"id": "abc123"}

    def test_query_strings_ignored(self):
        assert match_route("GET", "/health?probe=1") == (
            "handle_health",
            {},
        )

    def test_method_mismatch(self):
        with pytest.raises(LookupError):
            match_route("DELETE", "/query")

    def test_unknown_path(self):
        with pytest.raises(LookupError):
            match_route("GET", "/sessions/abc/unknown")

    def test_every_route_names_a_real_handler(self):
        from repro.server.service import GraphService

        for _method, _pattern, handler in ROUTES:
            assert callable(getattr(GraphService, handler))


class TestWireScalars:
    def test_scalars_pass_through(self):
        for value in (None, True, 1, 2.5, "x", [1, [2]], {"a": 1}):
            assert from_wire(to_wire(value)) == value

    def test_tilde_map_escape_roundtrip(self):
        value = {"~kind": "node", "nested": {"~kind": "map"}}
        assert from_wire(to_wire(value)) == value


class TestRevertedTo:
    def test_rewinds_and_restores_uncommitted_work(self):
        graph = Graph()
        graph.run("CREATE (:A {v: 1})")
        store = graph.store
        mark = store.begin_transaction()
        graph.run("CREATE (:A {v: 2})")
        graph.run("MATCH (a:A {v: 1}) SET a.v = 10")
        with store.reverted_to(mark):
            values = sorted(
                graph.run("MATCH (x:A) RETURN x.v").values("x.v")
            )
            assert values == [1]
        # uncommitted work restored exactly
        values = sorted(
            graph.run("MATCH (x:A) RETURN x.v").values("x.v")
        )
        assert values == [2, 10]
        store.commit_transaction(mark)

    def test_rejects_future_mark(self):
        store = GraphStore()
        with pytest.raises(PersistenceError):
            with store.reverted_to(99):
                pass

    def test_writes_inside_revert_are_undone(self):
        graph = Graph()
        graph.run("CREATE (:A)")
        store = graph.store
        mark = store.begin_transaction()
        graph.run("CREATE (:A)")
        with store.reverted_to(mark):
            # a (buggy) write during a snapshot read must not leak
            graph.run("CREATE (:B)")
        assert store.node_count() == 2
        count = graph.run("MATCH (b:B) RETURN count(b) AS c")
        assert count.values("c") == [0]
        store.rollback_transaction(mark)


class TestGroupCommitter:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_immediate_return_for_durable_lsn(self, tmp_path):
        manager = PersistenceManager(tmp_path, fsync="off")
        manager.attach(GraphStore())
        committer = GroupCommitter(manager)

        async def scenario():
            await committer.wait_durable(0)  # nothing to wait for
            assert committer.batches == 0

        self._run(scenario())
        manager.close()

    def test_one_fsync_covers_many_waiters(self, tmp_path):
        graph = Graph(path=tmp_path, fsync="off")
        manager = graph.persistence
        committer = GroupCommitter(manager)

        async def writer(i: int) -> None:
            graph.run("CREATE (:N {i: $i})", {"i": i})
            await committer.wait_durable(graph.store.lsn)

        async def scenario():
            await asyncio.gather(*(writer(i) for i in range(10)))

        self._run(scenario())
        assert committer.synced_waiters == 10
        assert committer.durable_lsn == graph.store.lsn == 10
        # batching happened: far fewer fsyncs than waiters
        assert committer.batches < 10
        assert committer.max_batch > 1
        graph.close()

    def test_stats_shape(self, tmp_path):
        manager = PersistenceManager(tmp_path, fsync="off")
        manager.attach(GraphStore())
        committer = GroupCommitter(manager)
        stats = committer.stats()
        assert set(stats) == {
            "batches",
            "synced_waiters",
            "max_batch",
            "durable_lsn",
            "pending_waiters",
        }
        manager.close()

    def test_waiters_released_in_lsn_order_semantics(self, tmp_path):
        graph = Graph(path=tmp_path, fsync="off")
        manager = graph.persistence
        committer = GroupCommitter(manager)
        released: list[int] = []

        async def writer(i: int) -> None:
            graph.run("CREATE (:N {i: $i})", {"i": i})
            lsn = graph.store.lsn
            await committer.wait_durable(lsn)
            assert committer.durable_lsn >= lsn
            released.append(i)

        async def scenario():
            await asyncio.gather(*(writer(i) for i in range(6)))

        self._run(scenario())
        assert sorted(released) == list(range(6))
        graph.close()
