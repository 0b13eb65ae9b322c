"""Failure injection: crashes mid-statement must never corrupt state.

A fault-injecting store wrapper makes a chosen low-level mutation fail
after N successes; whatever the failure point, the engine must roll the
statement back to a bit-identical graph and all indexes must agree with
a full rescan.  On a durable graph the same helper fails the commit
itself -- the commit hook, or the WAL file write halfway through a
frame -- and memory must keep matching what a reopen recovers.
"""

import errno

import pytest

from repro import Dialect, Graph
from repro.graph.comparison import assert_isomorphic
from repro.testing.invariants import canonical_graph_json, check_invariants


class _InjectedFault(RuntimeError):
    """The synthetic fault raised by the wrapper."""


def inject(target, point: str, fail_after: int):
    """Make ``target.<point>`` raise after *fail_after* successful calls.

    *target* is a store and *point* one of its methods, or one of the
    two commit-time fault points:

    * ``"commit_hook"`` (target: the store) -- the installed hook
      raises ``OSError(ENOSPC)`` instead of logging;
    * ``"wal_write"`` (target: the ``WalWriter``) -- the log file takes
      half of the frame, then raises ``OSError(ENOSPC)``.

    Returns the function that removes the fault.
    """
    state = {"calls": 0}

    def failing(original, fail):
        """*original* until *fail_after* calls succeeded, then *fail*."""

        def wrapper(*args, **kwargs):
            if state["calls"] >= fail_after:
                fail(*args, **kwargs)
            state["calls"] += 1
            return original(*args, **kwargs)

        return wrapper

    def disk_full(*args):
        raise OSError(errno.ENOSPC, f"{point} failed (injected)")

    if point == "commit_hook":
        hook = target.commit_hook()
        target.set_commit_hook(failing(hook, disk_full))
        return lambda: target.set_commit_hook(hook)
    if point == "wal_write":
        real = target._file

        def torn_then_full(data):
            real.write(data[: len(data) // 2])
            disk_full()

        class FaultyFile:
            write = staticmethod(failing(real.write, torn_then_full))

            def __getattr__(self, name):
                return getattr(real, name)

        target._file = FaultyFile()
        return lambda: setattr(target, "_file", real)

    def crash(*args, **kwargs):
        raise _InjectedFault(
            f"{point} failed (injected after {fail_after})"
        )

    original = getattr(target, point)
    setattr(target, point, failing(original, crash))
    return lambda: setattr(target, point, original)


BIG_STATEMENT = (
    "UNWIND range(0, 19) AS i "
    "CREATE (:A {v: i})-[:T {w: i}]->(:B {v: i}) "
    "SET i = i"  # placeholder, replaced below
)


@pytest.fixture
def seeded():
    graph = Graph(Dialect.REVISED)
    graph.run(
        "UNWIND range(0, 9) AS i CREATE (:Seed {v: i})-[:S]->(:Seed2 {v: i})"
    )
    graph.create_index("Seed", "v")
    return graph


FAULTS = [
    ("create_node", 3),
    ("create_node", 0),
    ("create_relationship", 5),
    ("set_node_property", 2),
    ("delete_relationship", 1),
]


class TestMidStatementCrashes:
    @pytest.mark.parametrize("method, after", FAULTS)
    def test_graph_restored_exactly(self, seeded, method, after):
        before = seeded.snapshot()
        restore = inject(seeded.store, method, after)
        try:
            with pytest.raises(_InjectedFault):
                seeded.run(
                    "MATCH (s:Seed)-[r:S]->(t) "
                    "SET s.touched = true "
                    "DELETE r "
                    "WITH s CREATE (s)-[:S2]->(:Fresh {v: s.v})"
                )
        finally:
            restore()
        assert_isomorphic(seeded.snapshot(), before)

    @pytest.mark.parametrize("method, after", FAULTS)
    def test_index_consistent_after_crash(self, seeded, method, after):
        restore = inject(seeded.store, method, after)
        try:
            with pytest.raises(_InjectedFault):
                seeded.run(
                    "MATCH (s:Seed)-[r:S]->(t) "
                    "SET s.v = s.v + 100 "
                    "DELETE r "
                    "WITH s, t CREATE (s)-[:S]->(t), (:Seed {v: s.v})"
                )
        finally:
            restore()
        index = seeded.store.property_index("Seed", "v")
        for value in range(10):
            expected = [
                node.id
                for node in seeded.store.nodes()
                if node.has_label("Seed") and node.get("v") == value
            ]
            assert index.ids(value) == expected

    def test_crash_inside_transaction_then_continue(self, seeded):
        before_count = seeded.node_count()
        with seeded.transaction():
            seeded.run("CREATE (:Kept {v: 1})")
            restore = inject(seeded.store, "create_node", 0)
            try:
                with pytest.raises(_InjectedFault):
                    seeded.run("CREATE (:Lost)")
            finally:
                restore()
            seeded.run("CREATE (:Kept {v: 2})")
        kept = seeded.run("MATCH (k:Kept) RETURN count(k) AS c")
        assert kept.values("c") == [2]
        assert seeded.node_count() == before_count + 2

    def test_crash_during_merge_same(self, seeded):
        before = seeded.snapshot()
        restore = inject(seeded.store, "create_relationship", 2)
        try:
            with pytest.raises(_InjectedFault):
                seeded.run(
                    "UNWIND range(0, 9) AS i "
                    "MERGE SAME (:U {id: i})-[:R]->(:P {id: i % 3})"
                )
        finally:
            restore()
        assert_isomorphic(seeded.snapshot(), before)

    def test_crash_during_legacy_delete(self):
        graph = Graph(Dialect.CYPHER9)
        graph.run(
            "UNWIND range(0, 5) AS i CREATE (:A {v: i})-[:T]->(:B {v: i})"
        )
        before = graph.snapshot()
        restore = inject(graph.store, "delete_node", 2)
        try:
            with pytest.raises(_InjectedFault):
                graph.run("MATCH (a:A)-[r:T]->(b:B) DELETE r, a, b")
        finally:
            restore()
        assert_isomorphic(graph.snapshot(), before)


class TestCommitFaults:
    """A commit that cannot be logged must not happen in memory either."""

    @pytest.fixture(params=["commit_hook", "wal_write"])
    def faulty(self, request, tmp_path):
        graph = Graph(path=tmp_path, fsync="off")
        graph.create_index("Event", "k")
        graph.run("UNWIND range(0, 4) AS i CREATE (:Event {k: i})")

        def arm(fail_after=0):
            if request.param == "commit_hook":
                return inject(graph.store, "commit_hook", fail_after)
            return inject(graph.persistence._writer, "wal_write", fail_after)

        yield graph, arm, tmp_path
        if graph.persistence is not None:
            graph.close()

    def _assert_memory_equals_disk(self, graph, directory):
        check_invariants(graph.store)
        memory = canonical_graph_json(graph.store)
        lsn = graph.store.lsn
        graph.close()
        reopened = Graph.open(directory)
        try:
            assert canonical_graph_json(reopened.store) == memory
            # A vetoed commit consumed no LSN: memory and log agree.
            assert reopened.store.lsn == lsn
            assert reopened.recovery.torn_bytes == 0
            return reopened.run(
                "MATCH (e:Event) RETURN e.k AS k ORDER BY k"
            ).values("k")
        finally:
            reopened.close()

    def test_failed_statement_is_invisible_and_later_ones_survive(
        self, faulty
    ):
        graph, arm, directory = faulty
        before = canonical_graph_json(graph.store)
        lsn = graph.store.lsn
        disarm = arm()
        try:
            with pytest.raises(OSError):
                graph.run("CREATE (:Event {k: 100})-[:NEXT]->(:Event {k: 101})")
        finally:
            disarm()
        assert canonical_graph_json(graph.store) == before
        assert graph.store.lsn == lsn
        assert graph.node_count() == 5
        assert graph.run(
            "MATCH (e:Event {k: 100}) RETURN count(e) AS c"
        ).values("c") == [0]
        # Acknowledged after the fault: must all be there after reopen.
        for k in (200, 201, 202):
            graph.run("CREATE (:Event {k: $k})", k=k)
        graph.run("MATCH (e:Event {k: 0}) SET e.seen = true")
        keys = self._assert_memory_equals_disk(graph, directory)
        assert keys == [0, 1, 2, 3, 4, 200, 201, 202]

    def test_failed_transaction_commit_rolls_back_every_statement(
        self, faulty
    ):
        graph, arm, directory = faulty
        before = canonical_graph_json(graph.store)
        disarm = arm()
        try:
            with pytest.raises(OSError):
                with graph.transaction():
                    graph.run("CREATE (:Event {k: 100})")
                    graph.run("MATCH (e:Event {k: 1}) DETACH DELETE e")
        finally:
            disarm()
        assert canonical_graph_json(graph.store) == before
        assert not graph.store.in_transaction()
        graph.run("CREATE (:Event {k: 300})")
        keys = self._assert_memory_equals_disk(graph, directory)
        assert keys == [0, 1, 2, 3, 4, 300]

    def test_fault_on_a_later_commit(self, faulty):
        # Two commits succeed, the third fails: only the third is undone.
        graph, arm, directory = faulty
        disarm = arm(fail_after=2)
        try:
            graph.run("CREATE (:Event {k: 10})")
            graph.run("CREATE (:Event {k: 11})")
            with pytest.raises(OSError):
                graph.run("CREATE (:Event {k: 12})")
        finally:
            disarm()
        graph.run("CREATE (:Event {k: 13})")
        keys = self._assert_memory_equals_disk(graph, directory)
        assert keys == [0, 1, 2, 3, 4, 10, 11, 13]
