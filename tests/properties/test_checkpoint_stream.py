"""Streaming checkpoint round trips against the source store.

A graph checkpointed and restored has to come back byte-identical
under ``canonical_graph_json``, schema and allocators included.
Hypothesis drives the store through random update scripts (creates,
deletes, property/label churn, holes from deleted ids, schema objects)
so the column iterators see every tombstone shape; the suite then
checks the record stream's shape and integrity failures, plus the
crash-injection scenario at every streaming-record boundary.  (The
format-1 blob reader is pinned by the checked-in fixture in
``tests/unit/test_persistence.py``.)

Restoring goes through the store's batch loader; ``TestBatchRestore``
holds it to the row-by-row replay of the same records through
``apply_redo``, over stores carrying every storable value kind.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence import PersistenceManager
from repro.persistence.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_NAME,
    DELTA_NAME,
    DELTA_SHARE,
    WAL_NAME,
    checkpoint_format,
    checkpoint_record_boundaries,
    read_checkpoint_records,
    read_delta_log,
    restore_checkpoint_file,
    write_checkpoint,
)
from repro.testing.invariants import canonical_graph_json, check_invariants

LABELS = ("Person", "Item", "Tag")
TYPES = ("KNOWS", "OWNS")

#: (op, a, b) decoded against current store state
OPS = (
    "create_node",
    "create_rel",
    "delete_rel",
    "delete_node",
    "set_prop",
    "add_label",
    "schema",
)

scripts = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    ),
    max_size=40,
)


def build_store(script) -> GraphStore:
    """Drive a store through *script*, leaving holes and tombstones."""
    store = GraphStore()
    nodes: list[int] = []
    rels: list[int] = []
    for op, a, b in script:
        if op == "create_node":
            nodes.append(
                store.create_node(
                    labels=[LABELS[a % len(LABELS)]],
                    properties={"k": a, "s": f"v{b}"} if b % 3 else {},
                )
            )
        elif op == "create_rel" and nodes:
            rels.append(
                store.create_relationship(
                    TYPES[(a + b) % len(TYPES)],
                    nodes[a % len(nodes)],
                    nodes[b % len(nodes)],
                    {"w": b} if b % 2 else {},
                )
            )
        elif op == "delete_rel" and rels:
            rel_id = rels.pop(a % len(rels))
            store.delete_relationship(rel_id)
        elif op == "delete_node" and nodes:
            node_id = nodes[a % len(nodes)]
            if not store.adjacent_rel_ids(node_id):
                nodes.remove(node_id)
                store.delete_node(node_id)
        elif op == "set_prop" and nodes:
            store.set_node_property(
                nodes[a % len(nodes)], "p", [1, "x", None][b % 3]
            )
        elif op == "add_label" and nodes:
            store.add_label(nodes[a % len(nodes)], LABELS[b % len(LABELS)])
        elif op == "schema":
            store.create_index(LABELS[a % len(LABELS)], "k")
    return store


def roundtrip(directory, store: GraphStore) -> GraphStore:
    write_checkpoint(directory, store)
    recovered = GraphStore()
    info = restore_checkpoint_file(
        recovered, directory / CHECKPOINT_NAME
    )
    assert info == {
        "lsn": store.lsn,
        "format": CHECKPOINT_FORMAT,
        "base_lsn": store.lsn,
        "segments": 0,
        "delta_rows": 0,
    }
    assert recovered.lsn == store.lsn
    return recovered


class TestStreamRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scripts)
    def test_stream_roundtrip_is_byte_identical(self, tmp_path_factory, script):
        directory = tmp_path_factory.mktemp("ckpt")
        store = build_store(script)
        recovered = roundtrip(directory, store)
        assert canonical_graph_json(recovered) == canonical_graph_json(store)
        check_invariants(recovered)
        assert recovered.index_keys() == store.index_keys()
        assert recovered.unique_constraints() == store.unique_constraints()
        # allocators survive so later ids never collide
        assert recovered.next_ids() == store.next_ids()

    @settings(max_examples=40, deadline=None)
    @given(scripts)
    def test_header_carries_schema_and_allocators(
        self, tmp_path_factory, script
    ):
        store = build_store(script)
        directory = tmp_path_factory.mktemp("ckpt")
        write_checkpoint(directory, store)
        header = next(
            read_checkpoint_records(directory / CHECKPOINT_NAME)
        )
        assert header["lsn"] == store.lsn
        assert header["indexes"] == [list(k) for k in store.index_keys()]
        assert header["constraints"] == sorted(
            list(pair) for pair in store.unique_constraints()
        )
        assert (header["next_node_id"], header["next_rel_id"]) == (
            store.next_ids()
        )


class TestStreamIntegrity:
    def populated(self, tmp_path) -> GraphStore:
        store = build_store(
            [("create_node", i, i) for i in range(8)]
            + [("create_rel", i, i + 1) for i in range(6)]
            + [("schema", 0, 0)]
        )
        store.restore_lsn(3)
        write_checkpoint(tmp_path, store)
        return store

    def test_sniffed_formats(self, tmp_path):
        self.populated(tmp_path)
        path = tmp_path / CHECKPOINT_NAME
        assert checkpoint_format(path) == CHECKPOINT_FORMAT
        path.write_text('{"format": 1}')
        assert checkpoint_format(path) == 1
        path.write_bytes(b"garbage!")
        with pytest.raises(PersistenceError, match="unrecognised"):
            checkpoint_format(path)

    def test_record_stream_shape(self, tmp_path):
        self.populated(tmp_path)
        records = list(
            read_checkpoint_records(tmp_path / CHECKPOINT_NAME)
        )
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "header"
        assert kinds[-1] == "end"
        assert set(kinds[1:-1]) <= {"nodes", "rels"}
        header = records[0]
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["lsn"] == 3
        end = records[-1]
        assert end["nodes"] == 8
        assert end["rels"] == 6

    def test_every_truncation_fails_loudly(self, tmp_path):
        self.populated(tmp_path)
        path = tmp_path / CHECKPOINT_NAME
        data = path.read_bytes()
        torn = tmp_path / "torn.bin"
        cuts = set(checkpoint_record_boundaries(path)) - {len(data)}
        cuts |= {0, 4, len(data) - 1}
        for cut in sorted(cuts):
            torn.write_bytes(data[:cut])
            with pytest.raises(PersistenceError):
                list(read_checkpoint_records(torn))

    def test_corrupt_record_fails_loudly(self, tmp_path):
        self.populated(tmp_path)
        path = tmp_path / CHECKPOINT_NAME
        data = bytearray(path.read_bytes())
        boundaries = checkpoint_record_boundaries(path)
        data[boundaries[1] + 8] ^= 0xFF
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(bytes(data))
        with pytest.raises(PersistenceError, match="CRC"):
            list(read_checkpoint_records(corrupt))


class TestCheckpointCrashScenario:
    def test_streaming_boundary_kills_recover_cleanly(self, tmp_path):
        from repro.testing.crash import (
            run_checkpoint_crash_scenario,
            scenario_statements,
        )

        report = run_checkpoint_crash_scenario(
            0, tmp_path, statements=scenario_statements(0, 16)
        )
        assert report.ok, report.failures
        assert report.kill_points > 5


# -- the batch restore path against a row-by-row replay ----------------

#: every storable value kind, the awkward floats and unicode included
VALUES = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0]),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=3),
    st.lists(st.floats(allow_nan=True), max_size=3),
    st.lists(st.booleans(), max_size=3),
    st.lists(st.text(max_size=3), max_size=3),
)

RICH_LABELS = ("Person", "Item", "Étiquette")
RICH_TYPES = ("KNOWS", "OWNS", "ÄHNELT")

rich_scripts = st.lists(
    st.tuples(
        st.sampled_from(
            ("create_node", "create_rel", "delete_rel", "delete_node",
             "gap", "set_prop", "schema")
        ),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
        VALUES,
    ),
    max_size=40,
)


def build_rich_store(script, constrained: bool) -> GraphStore:
    """Id gaps, tombstones, indexes, a constraint and every value kind."""
    store = GraphStore()
    nodes: list[int] = []
    rels: list[int] = []
    for uid, (op, a, b, value) in enumerate(script):
        if op == "create_node":
            nodes.append(
                store.create_node(
                    labels=RICH_LABELS[: a % 4],
                    properties={"uid": uid, "v": value} if b % 3 else {},
                )
            )
        elif op == "create_rel" and nodes:
            rels.append(
                store.create_relationship(
                    RICH_TYPES[(a + b) % len(RICH_TYPES)],
                    nodes[a % len(nodes)],
                    nodes[b % len(nodes)],
                    {"v": value} if b % 2 else {},
                )
            )
        elif op == "delete_rel" and rels:
            store.delete_relationship(rels.pop(a % len(rels)))
        elif op == "delete_node" and nodes:
            node_id = nodes.pop(a % len(nodes))
            for rel_id in store.adjacent_rel_ids(node_id):
                store.delete_relationship(rel_id)
                rels.remove(rel_id)
            store.delete_node(node_id)
        elif op == "gap":
            mark = store.mark()
            store.create_node(("Gone",), {"v": value})
            store.rollback_to(mark)
        elif op == "set_prop" and nodes:
            store.set_node_property(nodes[a % len(nodes)], "v", value)
        elif op == "schema":
            store.create_index(RICH_LABELS[a % 3], "v" if b % 2 else "uid")
    if constrained:
        store.create_unique_constraint("Person", "uid")
    return store


def replay_rows(path) -> GraphStore:
    """The checkpoint's records applied one ``apply_redo`` per row."""
    store = GraphStore()
    header = None
    for record in read_checkpoint_records(path):
        if record["kind"] == "header":
            header = record
        elif record["kind"] in ("nodes", "rels"):
            op = "create_node" if record["kind"] == "nodes" else "create_rel"
            for row in record["rows"]:
                store.apply_redo((op, *row))
    for label, key in header.get("indexes", ()):
        store.apply_redo(("create_index", label, key))
    for label, key in header.get("constraints", ()):
        store.apply_redo(("create_constraint", label, key))
    store.reserve_ids(
        header.get("next_node_id", 0), header.get("next_rel_id", 0)
    )
    store.restore_lsn(header["lsn"])
    return store


def assert_same_restore(path) -> GraphStore:
    batch = GraphStore()
    restore_checkpoint_file(batch, path)
    replayed = replay_rows(path)
    assert canonical_graph_json(batch) == canonical_graph_json(replayed)
    assert batch.next_ids() == replayed.next_ids()
    assert batch.lsn == replayed.lsn
    assert batch.index_keys() == replayed.index_keys()
    assert batch.unique_constraints() == replayed.unique_constraints()
    check_invariants(batch)
    return batch


class TestBatchRestore:
    @settings(max_examples=80, deadline=None)
    @given(rich_scripts, st.booleans())
    def test_batch_restore_equals_row_replay(
        self, tmp_path_factory, script, constrained
    ):
        store = build_rich_store(script, constrained)
        directory = tmp_path_factory.mktemp("ckpt")
        path = write_checkpoint(directory, store)
        restored = assert_same_restore(path)
        assert canonical_graph_json(restored) == canonical_graph_json(store)
        assert restored.next_ids() == store.next_ids()

    def test_format1_fixture_restores_through_the_batch_path(self):
        from pathlib import Path

        fixture = (
            Path(__file__).parent.parent
            / "data"
            / "format1_checkpoint"
            / "checkpoint.json"
        )
        assert checkpoint_format(fixture) == 1
        assert assert_same_restore(fixture).lsn == 17


# -- delta checkpoints: base + segments + WAL tail -----------------------

#: (op, a, b): write steps against a durable graph, checkpoints between
DELTA_OPS = (
    "create_node",
    "create_rel",
    "delete_node",
    "delete_rel",
    "relabel",
    "set_prop",
    "set_rel_prop",
    "create_then_delete",
    "bulk",
    "index",
    "constraint",
    "checkpoint",
)

delta_scripts = st.lists(
    st.tuples(
        # checkpoints and volume weighted up, so streams compact
        st.sampled_from(DELTA_OPS + ("bulk", "checkpoint", "checkpoint")),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
    ),
    min_size=1,
    max_size=50,
)


def durable_graph(directory, base_nodes: int = 40):
    """A graph on *directory* whose format-3 base holds *base_nodes*."""
    from repro.session import Graph

    graph = Graph(path=directory, fsync="off")
    store = graph.store
    mark = store.mark()
    for i in range(base_nodes):
        store.create_node(("Person",), {"uid": i, "k": i % 7})
    for i in range(base_nodes - 1):
        store.create_relationship("KNOWS", i, i + 1, {"w": i})
    store.commit_statement(mark)
    graph.checkpoint()
    return graph


def apply_delta_step(graph, op: str, a: int, b: int, kinds: list) -> None:
    """One committed statement (or checkpoint) of a delta script."""
    store = graph.store
    if op == "checkpoint":
        graph.checkpoint()
        written = graph.persistence.last_checkpoint
        kinds.append((written["kind"], written["bytes"]))
        return
    if op == "index":
        label = LABELS[a % len(LABELS)]
        if b % 2 and (label, "k") in store.index_keys():
            store.drop_index(label, "k")
        elif not b % 2:
            store.create_index(label, "k")
        return
    if op == "constraint":
        if ("Person", "uid") in store.unique_constraints():
            store.drop_unique_constraint("Person", "uid")
        else:
            store.create_unique_constraint("Person", "uid")
        return
    nodes = [record[0] for record in store.iter_node_records()]
    rels = [record[0] for record in store.iter_rel_records()]
    uid = 1000 + store.next_ids()[0]
    mark = store.mark()
    if op == "create_node":
        store.create_node((LABELS[a % len(LABELS)],), {"uid": uid, "k": b})
    elif op == "create_rel" and nodes:
        # Endpoints anywhere: base nodes, new nodes, or one of each.
        store.create_relationship(
            TYPES[b % len(TYPES)],
            nodes[a % len(nodes)],
            nodes[b % len(nodes)],
            {"w": a},
        )
    elif op == "delete_node" and nodes:
        node_id = nodes[a % len(nodes)]
        for rel_id in store.adjacent_rel_ids(node_id):
            store.delete_relationship(rel_id)
        store.delete_node(node_id)
    elif op == "delete_rel" and rels:
        store.delete_relationship(rels[a % len(rels)])
    elif op == "relabel" and nodes:
        node_id = nodes[a % len(nodes)]
        label = LABELS[b % len(LABELS)]
        if label in store.node_labels(node_id):
            store.remove_label(node_id, label)
        else:
            store.add_label(node_id, label)
    elif op == "set_prop" and nodes:
        store.set_node_property(
            nodes[a % len(nodes)], "k", [b, None, f"s{b}"][a % 3]
        )
    elif op == "set_rel_prop" and rels:
        store.set_rel_property(rels[a % len(rels)], "w", [b, None][a % 2])
    elif op == "create_then_delete":
        # Born and gone inside one checkpoint interval: its tomb names
        # an id no base holds.
        node_id = store.create_node(("Item",), {"uid": uid})
        store.commit_statement(mark)
        mark = store.mark()
        if nodes:
            rel_id = store.create_relationship(
                "OWNS", nodes[a % len(nodes)], node_id, {}
            )
            store.commit_statement(mark)
            mark = store.mark()
            store.delete_relationship(rel_id)
        store.delete_node(node_id)
    elif op == "bulk":
        # Volume: enough of these cross the compaction threshold.
        for i in range(25):
            store.create_node(("Tag",), {"uid": uid + i, "k": "x" * 20})
    store.commit_statement(mark)


def durable_state(store: GraphStore) -> tuple:
    return (
        canonical_graph_json(store),
        store.lsn,
        store.next_ids(),
        store.index_keys(),
        store.unique_constraints(),
    )


class TestDeltaCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(delta_scripts)
    def test_reopen_equals_the_live_store(self, tmp_path_factory, script):
        from repro.session import Graph

        directory = tmp_path_factory.mktemp("delta")
        graph = durable_graph(directory)
        kinds: list[tuple[str, int]] = []
        for op, a, b in script:
            apply_delta_step(graph, op, a, b, kinds)
        live = durable_state(graph.store)
        graph.close()
        compacted = any(kind == "full" for kind, __ in kinds)
        event("compacted" if compacted else "no compaction")
        reopened = Graph.open(directory)
        try:
            assert durable_state(reopened.store) == live
            segments = 0
            for kind, written in kinds:
                segments = segments + bool(written) if kind == "delta" else 0
            assert reopened.recovery.delta_segments == segments
        finally:
            reopened.close()

    def test_scripted_stream_crosses_the_threshold(self, tmp_path):
        # The property's shapes in one fixed stream long enough to
        # compact, reopened after every checkpoint.
        from repro.session import Graph

        graph = durable_graph(tmp_path)
        kinds: list[tuple[str, int]] = []
        script = [
            ("delete_node", 3, 0),
            ("relabel", 5, 1),
            ("create_rel", 2, 41),
            ("create_then_delete", 4, 0),
            ("index", 0, 0),
            ("checkpoint", 0, 0),
            ("constraint", 0, 0),
            ("set_rel_prop", 1, 7),
            ("create_node", 1, 2),
            ("checkpoint", 0, 0),
        ] + [("bulk", 0, 0), ("relabel", 6, 2), ("checkpoint", 0, 0)] * 8
        for op, a, b in script:
            apply_delta_step(graph, op, a, b, kinds)
            if op == "checkpoint":
                live = durable_state(graph.store)
                reopened = GraphStore()
                PersistenceManager(tmp_path).recover(reopened)
                assert durable_state(reopened) == live
        graph.close()
        names = [kind for kind, __ in kinds]
        assert names[:2] == ["delta", "delta"]
        assert "full" in names[2:]


class TestDeltaRules:
    def test_format2_base_gets_a_full_checkpoint_first(self, tmp_path):
        from repro.persistence import STREAM_MAGIC, encode_frame
        from repro.session import Graph

        graph = durable_graph(tmp_path)
        graph.close()
        path = tmp_path / CHECKPOINT_NAME
        records = list(read_checkpoint_records(path))
        records[0]["format"] = 2
        path.write_bytes(
            STREAM_MAGIC + b"".join(encode_frame(r) for r in records)
        )
        assert checkpoint_format(path) == 2
        graph = Graph.open(tmp_path, fsync="off")
        assert graph.recovery.checkpoint_format == 2
        graph.run("CREATE (:Person {uid: -1})")
        graph.checkpoint()
        assert graph.persistence.last_checkpoint["kind"] == "full"
        assert checkpoint_format(path) == CHECKPOINT_FORMAT
        graph.run("CREATE (:Person {uid: -2})")
        graph.checkpoint()
        assert graph.persistence.last_checkpoint["kind"] == "delta"
        live = durable_state(graph.store)
        graph.close()
        reopened = Graph.open(tmp_path)
        assert durable_state(reopened.store) == live
        assert reopened.recovery.delta_segments == 1
        reopened.close()

    def test_compaction_happens_at_the_threshold(self, tmp_path):
        graph = durable_graph(tmp_path)
        base = tmp_path / CHECKPOINT_NAME
        delta = tmp_path / DELTA_NAME
        seen = []
        for step in range(30):
            graph.run(
                "UNWIND range(1, 10) AS i CREATE (:Tag {step: $s, i: i})",
                {"s": step},
            )
            logged = delta.stat().st_size if delta.exists() else 0
            due = logged > DELTA_SHARE * base.stat().st_size
            graph.checkpoint()
            kind = graph.persistence.last_checkpoint["kind"]
            assert kind == ("full" if due else "delta"), step
            if kind == "full":
                assert not delta.exists()
            seen.append(kind)
        graph.close()
        assert seen.count("full") >= 2, seen

    def test_segment_with_a_stale_base_lsn_is_ignored(self, tmp_path):
        # A kill between the base rename and the delta log's deletion
        # leaves segments written against the previous base.
        graph = durable_graph(tmp_path)
        graph.run("CREATE (:Person {uid: -1})")
        graph.checkpoint()
        delta = tmp_path / DELTA_NAME
        stale = delta.read_bytes()
        graph.run("MATCH (n:Person {uid: 0}) DETACH DELETE n")
        graph.persistence.compact(graph.store)
        live = durable_state(graph.store)
        graph.close()
        assert not delta.exists()
        delta.write_bytes(stale)
        store = GraphStore()
        report = PersistenceManager(tmp_path).recover(store)
        assert durable_state(store) == live
        assert report.delta_segments == 0
        assert len(read_delta_log(delta).segments) == 1

    def _two_segments(self, tmp_path):
        graph = durable_graph(tmp_path)
        graph.run("CREATE (:Person {uid: -1})")
        graph.checkpoint()
        graph.run("MATCH (n:Person {uid: 2}) SET n.k = 99")
        wal_before = (tmp_path / WAL_NAME).read_bytes()
        graph.checkpoint()
        live = durable_state(graph.store)
        graph.close()
        return live, wal_before

    def test_torn_tail_without_wal_continuation_raises(self, tmp_path):
        self._two_segments(tmp_path)
        delta = tmp_path / DELTA_NAME
        data = delta.read_bytes()
        delta.write_bytes(data[:-5])
        assert (tmp_path / WAL_NAME).stat().st_size == 0
        with pytest.raises(PersistenceError, match="does not continue"):
            PersistenceManager(tmp_path).recover(GraphStore())

    def test_torn_tail_with_wal_continuation_recovers(self, tmp_path):
        from repro.session import Graph

        live, wal_before = self._two_segments(tmp_path)
        delta = tmp_path / DELTA_NAME
        clean = len(delta.read_bytes())
        delta.write_bytes(delta.read_bytes()[:-5])
        (tmp_path / WAL_NAME).write_bytes(wal_before)
        graph = Graph.open(tmp_path, fsync="off")
        assert durable_state(graph.store) == live
        assert graph.recovery.delta_segments == 1
        # attach cut the torn segment; the next one follows the first
        assert delta.stat().st_size < clean
        graph.run("CREATE (:Person {uid: -3})")
        graph.checkpoint()
        live = durable_state(graph.store)
        graph.close()
        reopened = Graph.open(tmp_path)
        assert durable_state(reopened.store) == live
        assert reopened.recovery.delta_segments == 2
        reopened.close()

    def test_failed_delta_append_rewrites_the_base_next(
        self, tmp_path, monkeypatch
    ):
        import errno

        from repro.persistence import manager

        graph = durable_graph(tmp_path)
        graph.run("CREATE (:Person {uid: -1})")

        def torn_then_full(directory, store, **segment):
            with open(directory / DELTA_NAME, "ab") as handle:
                handle.write(b"\x00\x00\x01")
            raise OSError(errno.ENOSPC, "delta append failed (injected)")

        real = manager.append_delta
        monkeypatch.setattr(manager, "append_delta", torn_then_full)
        with pytest.raises(OSError):
            graph.checkpoint()
        live = durable_state(graph.store)
        # A crash now: the torn segment goes, the WAL still has it all.
        store = GraphStore()
        PersistenceManager(tmp_path).recover(store)
        assert durable_state(store) == live
        monkeypatch.setattr(manager, "append_delta", real)
        graph.checkpoint()
        assert graph.persistence.last_checkpoint["kind"] == "full"
        assert not (tmp_path / DELTA_NAME).exists()
        graph.close()
        store = GraphStore()
        PersistenceManager(tmp_path).recover(store)
        assert durable_state(store) == live

    def test_delta_log_without_a_base_raises(self, tmp_path):
        self._two_segments(tmp_path)
        (tmp_path / CHECKPOINT_NAME).unlink()
        with pytest.raises(PersistenceError, match="no base"):
            PersistenceManager(tmp_path).recover(GraphStore())

    def test_prepopulated_store_refuses_a_directory_with_deltas(
        self, tmp_path
    ):
        from repro.session import Graph

        self._two_segments(tmp_path)
        (tmp_path / CHECKPOINT_NAME).unlink()
        (tmp_path / WAL_NAME).unlink()
        store = GraphStore()
        store.create_node(("A",), {})
        with pytest.raises(PersistenceError, match="already holds"):
            Graph(store=store, path=tmp_path)


class TestDeltaCrashScenario:
    def test_delta_kill_points_recover_cleanly(self, tmp_path):
        from repro.testing.crash import (
            run_delta_crash_scenario,
            scenario_statements,
        )

        report = run_delta_crash_scenario(
            0, tmp_path, statements=scenario_statements(0, 16)
        )
        assert report.ok, report.failures
        assert report.kill_points > 10
