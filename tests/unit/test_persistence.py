"""Unit tests for the persistence subsystem.

WAL framing (checksums, torn tails), the fsync-policy writer, redo
derivation and replay on the store, atomic checkpoints, and the
manager's recover/attach/log/checkpoint lifecycle.
"""

import errno
import io
import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence import (
    PersistenceManager,
    WalWriter,
    encode_record,
    iter_records,
)
from repro.persistence.checkpoint import (
    CHECKPOINT_NAME,
    WAL_NAME,
    restore_checkpoint_file,
    write_checkpoint,
)
from repro.testing.invariants import canonical_graph_json, check_invariants

#: a format-1 (JSON blob) checkpoint written by the last build that
#: still had a format-1 writer; see ``format1_store`` for its contents
FORMAT1_FIXTURE = (
    Path(__file__).parent.parent / "data" / "format1_checkpoint"
)


def format1_store() -> GraphStore:
    """The store the checked-in format-1 fixture was written from."""
    store = GraphStore()
    a = store.create_node(("A", "Extra"), {"k": 1, "tags": ["x", 2.5, True]})
    b = store.create_node(("B",), {"k": "two"})
    gone = store.create_node(("A",), {"k": 3})
    c = store.create_node((), {})
    store.create_relationship("T", a, b, {"w": 3})
    dead = store.create_relationship("T", b, c)
    store.create_relationship("LOOP", c, c)
    store.delete_relationship(dead)
    store.delete_node(gone)
    store.create_index("A", "k")
    store.create_unique_constraint("B", "k")
    return store


def decode_records(data: bytes):
    """All intact records in *data*, plus the clean byte length."""
    records, clean = [], 0
    for record, clean in iter_records(io.BytesIO(data)):
        records.append(record)
    return records, clean


def read_wal(path):
    """Decode a WAL file: ``(records, clean_length, file_length)``."""
    data = Path(path).read_bytes()
    return (*decode_records(data), len(data))


class TestFraming:
    def test_roundtrip(self):
        ops = [["create_node", 0, ["A"], {"k": 1}], ["delete_node", 3]]
        data = encode_record(7, ops) + encode_record(8, [])
        records, clean = decode_records(data)
        assert clean == len(data)
        assert [r.lsn for r in records] == [7, 8]
        assert records[0].ops == (("create_node", 0, ["A"], {"k": 1}),
                                  ("delete_node", 3))
        assert records[1].ops == ()

    def test_torn_tail_is_discarded(self):
        whole = encode_record(1, [["delete_node", 0]])
        torn = encode_record(2, [["delete_node", 1]])[:-3]
        records, clean = decode_records(whole + torn)
        assert [r.lsn for r in records] == [1]
        assert clean == len(whole)

    def test_corrupt_checksum_stops_decoding(self):
        first = encode_record(1, [])
        second = bytearray(encode_record(2, [["delete_node", 1]]))
        second[10] ^= 0xFF  # flip a payload byte; CRC no longer matches
        third = encode_record(3, [])
        records, clean = decode_records(first + bytes(second) + third)
        # Everything after the corrupt record is unreachable: without a
        # trustworthy length we cannot resynchronise.
        assert [r.lsn for r in records] == [1]
        assert clean == len(first)

    def test_short_header_is_torn(self):
        records, clean = decode_records(b"\x00\x00")
        assert records == [] and clean == 0

    def test_checksummed_non_record_ends_the_log(self):
        from repro.persistence import encode_frame

        data = encode_record(1, []) + encode_frame({"not": "a record"})
        records, clean = decode_records(data + encode_record(2, []))
        assert [r.lsn for r in records] == [1]
        assert clean == len(encode_record(1, []))

    def test_garbage_length_is_torn_not_allocated(self):
        # a 4 GiB length field must read as a torn tail, not as a
        # request to allocate 4 GiB
        whole = encode_record(1, [])
        records, clean = decode_records(whole + b"\xff\xff\xff\xff" * 2)
        assert [r.lsn for r in records] == [1]
        assert clean == len(whole)

    def test_missing_log_recovers_empty(self, tmp_path):
        report = PersistenceManager(tmp_path).recover(GraphStore())
        assert report.records_total == 0 and report.torn_bytes == 0


class TestWalWriter:
    @pytest.mark.parametrize("policy", ["always", "batch", "off"])
    def test_append_and_read_back(self, tmp_path, policy):
        path = tmp_path / WAL_NAME
        with WalWriter(path, fsync=policy, batch_size=2) as writer:
            for lsn in range(1, 6):
                writer.append(lsn, [["delete_node", lsn]])
        records, clean, total = read_wal(path)
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert clean == total

    def test_truncate_cuts_a_torn_tail(self, tmp_path):
        path = tmp_path / WAL_NAME
        writer = WalWriter(path, fsync="off")
        writer.append(1, [])
        writer.close()
        clean_length = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00\x01garbage")
        with WalWriter(path, fsync="off") as writer:
            writer.truncate(clean_length)
            writer.append(2, [])
        records, clean, total = read_wal(path)
        assert [r.lsn for r in records] == [1, 2]
        assert clean == total

    def test_failed_append_is_cut_back(self, tmp_path):
        # The disk fills up halfway through a frame: the partial frame
        # must not stay in front of later records.
        path = tmp_path / WAL_NAME
        writer = WalWriter(path, fsync="off")
        writer.append(1, [["delete_node", 1]])
        real = writer._file

        class FullDisk:
            def write(self, data):
                real.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "disk full")

            def __getattr__(self, name):
                return getattr(real, name)

        writer._file = FullDisk()
        with pytest.raises(OSError):
            writer.append(2, [["delete_node", 2]])
        writer._file = real
        writer.append(3, [["delete_node", 3]])
        writer.close()
        records, clean, total = read_wal(path)
        assert [r.lsn for r in records] == [1, 3]
        assert clean == total

    def test_uncuttable_tail_refuses_further_appends(self, tmp_path):
        path = tmp_path / WAL_NAME
        writer = WalWriter(path, fsync="off")
        writer.append(1, [])
        real = writer._file

        class DeadDisk:
            def write(self, data):
                real.write(data[:3])
                raise OSError(errno.EIO, "I/O error")

            def truncate(self, length):
                raise OSError(errno.EIO, "I/O error")

            def __getattr__(self, name):
                return getattr(real, name)

        writer._file = DeadDisk()
        with pytest.raises(OSError):
            writer.append(2, [])
        writer._file = real
        with pytest.raises(PersistenceError, match="torn tail"):
            writer.append(3, [])
        writer.close()
        # nothing acknowledged sits behind the torn frame
        records, clean, total = read_wal(path)
        assert [r.lsn for r in records] == [1]
        assert total - clean == 3

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="fsync policy"):
            WalWriter(tmp_path / WAL_NAME, fsync="sometimes")
        with pytest.raises(PersistenceError, match="batch_size"):
            WalWriter(tmp_path / WAL_NAME, batch_size=0)


def _replay(source: GraphStore) -> GraphStore:
    """Run the full redo stream through a fresh store."""
    target = GraphStore()
    for op in source.redo_ops(0):
        target.apply_redo(op)
    return target


class TestRedo:
    def test_creates_and_sets_roundtrip(self):
        store = GraphStore()
        a = store.create_node(("A", "B"), {"k": 1})
        b = store.create_node((), {})
        store.create_relationship("T", a, b, {"w": 2.5})
        store.set_node_property(a, "k", [1, "x"])
        store.set_node_property(a, "k", None)  # removal
        store.add_label(b, "C")
        store.remove_label(a, "B")
        replayed = _replay(store)
        assert canonical_graph_json(replayed) == canonical_graph_json(store)
        check_invariants(replayed)

    def test_deletes_roundtrip(self):
        store = GraphStore()
        a = store.create_node(("A",), {})
        b = store.create_node(("A",), {})
        r = store.create_relationship("T", a, b)
        store.delete_relationship(r)
        store.delete_node(b)
        replayed = _replay(store)
        assert canonical_graph_json(replayed) == canonical_graph_json(store)
        check_invariants(replayed)

    def test_redo_is_absolute_not_delta(self):
        # Every write to a key is logged with its *final* value, not a
        # delta, so re-applying a set op is a no-op.
        store = GraphStore()
        a = store.create_node(("A",), {})
        store.set_node_property(a, "k", 1)
        store.set_node_property(a, "k", 2)
        ops = store.redo_ops(0)
        sets = [op for op in ops if op[0] == "set_node_prop"]
        assert all(op[3] == 2 for op in sets)  # current value, no history
        target = GraphStore()
        for op in ops:
            target.apply_redo(op)
        for op in sets:  # re-applying the data writes changes nothing
            target.apply_redo(op)
        assert canonical_graph_json(target) == canonical_graph_json(store)
        check_invariants(target)

    def test_rolled_back_slice_produces_no_ops(self):
        store = GraphStore()
        store.create_node(("A",), {})
        mark = store.mark()
        store.create_node(("B",), {})
        store.rollback_to(mark)
        assert store.redo_ops(mark) == []

    def test_apply_redo_bumps_id_allocators(self):
        store = GraphStore()
        store.apply_redo(("create_node", 7, ["A"], {}))
        assert store.create_node((), {}) > 7

    def test_apply_redo_maintains_property_indexes(self):
        store = GraphStore()
        store.create_index("A", "k")
        store.apply_redo(("create_node", 0, ["A"], {"k": 5}))
        store.apply_redo(("set_node_prop", 0, "k", 6))
        check_invariants(store)
        assert store.property_index("A", "k").ids(6) == [0]

    def test_unknown_redo_op_rejected(self):
        with pytest.raises(PersistenceError):
            GraphStore().apply_redo(("warp_core_breach", 1))


class TestCommitHook:
    def test_hook_sees_committed_statements_only(self):
        logged = []
        store = GraphStore()
        store.set_commit_hook(logged.append)
        mark = store.mark()
        store.create_node(("A",), {})
        store.commit_statement(mark)
        mark = store.mark()
        store.create_node(("B",), {})
        store.rollback_to(mark)
        assert len(logged) == 1
        assert logged[0][0][0] == "create_node"
        # The journal is truncated at commit: nothing left to undo.
        assert store.journal_length() == 0

    def test_transaction_batches_statements(self):
        logged = []
        store = GraphStore()
        store.set_commit_hook(logged.append)
        tx = store.begin_transaction()
        mark = store.mark()
        store.create_node(("A",), {})
        store.commit_statement(mark)  # inside a transaction: deferred
        assert logged == []
        store.commit_transaction(tx)
        assert len(logged) == 1

    def test_rolled_back_transaction_logs_nothing(self):
        logged = []
        store = GraphStore()
        store.set_commit_hook(logged.append)
        tx = store.begin_transaction()
        store.create_node(("A",), {})
        store.rollback_transaction(tx)
        assert logged == []
        assert store.node_count() == 0

    def test_empty_commit_writes_no_record(self):
        logged = []
        store = GraphStore()
        store.set_commit_hook(logged.append)
        store.commit_statement(store.mark())
        assert logged == []

    def test_schema_changes_are_logged_once(self):
        logged = []
        store = GraphStore()
        store.set_commit_hook(logged.append)
        store.create_index("A", "k")
        store.create_index("A", "k")  # no-op: already exists
        store.drop_index("A", "k")
        store.drop_index("A", "k")  # no-op: already gone
        assert [ops[0][0] for ops in logged] == [
            "create_index",
            "drop_index",
        ]


class TestCheckpoint:
    def _store(self):
        store = GraphStore()
        a = store.create_node(("A",), {"k": 1})
        b = store.create_node(("B",), {"k": "two"})
        store.create_relationship("T", a, b, {"w": None if False else 3})
        store.create_index("A", "k")
        store.create_unique_constraint("B", "k")
        return store

    def test_write_restore(self, tmp_path):
        store = self._store()
        store.restore_lsn(41)
        path = write_checkpoint(tmp_path, store)
        restored = GraphStore()
        info = restore_checkpoint_file(restored, path)
        assert info == {
            "lsn": 41,
            "format": 3,
            "base_lsn": 41,
            "segments": 0,
            "delta_rows": 0,
        }
        assert restored.lsn == 41
        assert canonical_graph_json(restored) == canonical_graph_json(store)
        assert restored.index_keys() == store.index_keys()
        assert restored.unique_constraints() == store.unique_constraints()
        assert restored.next_ids() == store.next_ids()
        check_invariants(restored)

    def test_format1_fixture_restores(self):
        # Format 1 is no longer written, but older directories are
        # outside input: the checked-in blob must keep restoring.
        wanted = format1_store()
        restored = GraphStore()
        info = restore_checkpoint_file(
            restored, FORMAT1_FIXTURE / CHECKPOINT_NAME
        )
        assert info == {
            "lsn": 17,
            "format": 1,
            "base_lsn": 17,
            "segments": 0,
            "delta_rows": 0,
        }
        assert canonical_graph_json(restored) == canonical_graph_json(wanted)
        assert restored.index_keys() == wanted.index_keys()
        assert restored.unique_constraints() == wanted.unique_constraints()
        # ids of entities deleted before the snapshot are not reused
        assert restored.next_ids() == wanted.next_ids() == (4, 3)
        check_invariants(restored)

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="corrupt"):
            restore_checkpoint_file(GraphStore(), path)

    def test_unsupported_format_raises(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"format": 99, "lsn": 0}))
        with pytest.raises(PersistenceError, match="format"):
            restore_checkpoint_file(GraphStore(), path)

    def test_blob_without_lsn_raises(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"format": 1, "graph": {}}))
        with pytest.raises(PersistenceError, match="lsn"):
            restore_checkpoint_file(GraphStore(), path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        write_checkpoint(tmp_path, self._store())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.json"
        ]


class TestMalformedCheckpointRows:
    """A row the bulk loader rejects makes the whole checkpoint corrupt.

    The files are framed by hand, so each holds exactly one bad row;
    restoring must raise ``PersistenceError`` naming the file, and the
    recovery CLI must refuse it even without invariant verification.
    """

    def _refused(self, directory, nodes, rels, detail, trailing=()):
        from repro.persistence import encode_frame
        from repro.persistence.checkpoint import STREAM_MAGIC
        from repro.recover import main

        records = [
            {
                "kind": "header",
                "format": 2,
                "lsn": 1,
                "next_node_id": 8,
                "next_rel_id": 8,
                "indexes": [],
                "constraints": [],
            },
            {"kind": "nodes", "rows": nodes},
            {"kind": "rels", "rows": rels},
            *trailing,
            {"kind": "end", "nodes": len(nodes), "rels": len(rels)},
        ]
        path = directory / CHECKPOINT_NAME
        path.write_bytes(
            STREAM_MAGIC + b"".join(encode_frame(record) for record in records)
        )
        with pytest.raises(PersistenceError) as info:
            restore_checkpoint_file(GraphStore(), path)
        message = str(info.value)
        assert message.startswith(f"corrupt checkpoint {path}: "), message
        assert detail in message, message
        assert main([str(directory), "--no-verify"]) == 1

    def test_negative_node_id(self, tmp_path):
        self._refused(
            tmp_path, [[-1, ["A"], {}]], [], "negative node id -1"
        )

    def test_relationship_without_type(self, tmp_path):
        self._refused(
            tmp_path,
            [[0, [], {}], [1, [], {}]],
            [[0, "", 0, 1, {}]],
            "relationship 0 has no type",
        )

    def test_map_property_value(self, tmp_path):
        self._refused(
            tmp_path,
            [[0, ["A"], {"k": {"nested": 1}}]],
            [],
            "cannot store value of type Map under property key 'k'",
        )

    def test_null_property_value(self, tmp_path):
        self._refused(
            tmp_path,
            [[0, ["A"], {"k": None}]],
            [],
            "cannot store value of type Null under property key 'k'",
        )

    def test_duplicate_node_id(self, tmp_path):
        self._refused(
            tmp_path,
            [[0, ["A"], {}], [0, ["B"], {}]],
            [],
            "duplicate node id 0",
        )

    def test_duplicate_relationship_id(self, tmp_path):
        self._refused(
            tmp_path,
            [[0, [], {}], [1, [], {}]],
            [[0, "T", 0, 1, {}], [0, "T", 1, 0, {}]],
            "duplicate relationship id 0",
        )

    def test_relationship_to_absent_node(self, tmp_path):
        self._refused(
            tmp_path,
            [[0, [], {}]],
            [[0, "T", 0, 5, {}]],
            "relationship 0 references unknown target node 5",
        )

    def test_node_record_after_relationships(self, tmp_path):
        self._refused(
            tmp_path,
            [[0, [], {}]],
            [[0, "T", 0, 0, {}]],
            "nodes record after the relationship records",
            trailing=[{"kind": "nodes", "rows": []}],
        )


class TestManager:
    def _run_statements(self, directory, statements):
        from repro.session import Graph

        graph = Graph(path=directory, fsync="off")
        for statement in statements:
            graph.run(statement)
        snapshot = canonical_graph_json(graph.store)
        graph.close()
        return snapshot

    def test_recover_replays_the_log(self, tmp_path):
        before = self._run_statements(
            tmp_path,
            [
                "CREATE (:A {k: 1})",
                "CREATE (:B {k: 2})",
                "MATCH (a:A), (b:B) CREATE (a)-[:T {w: 1}]->(b)",
            ],
        )
        store = GraphStore()
        report = PersistenceManager(tmp_path).recover(store)
        assert canonical_graph_json(store) == before
        assert report.records_applied == 3
        assert report.nodes == 2 and report.relationships == 1

    def test_recover_refuses_a_hooked_store(self, tmp_path):
        store = GraphStore()
        store.set_commit_hook(lambda ops: None)
        with pytest.raises(PersistenceError, match="commit hook"):
            PersistenceManager(tmp_path).recover(store)

    def test_log_without_attach_raises(self, tmp_path):
        manager = PersistenceManager(tmp_path)
        with pytest.raises(PersistenceError, match="not attached"):
            manager.log_commit([("delete_node", 0)])

    def test_checkpoint_truncates_and_recovery_skips(self, tmp_path):
        before = self._run_statements(tmp_path, ["CREATE (:A {k: 1})"])
        store = GraphStore()
        manager = PersistenceManager(tmp_path)
        manager.recover(store)
        manager.checkpoint(store)
        assert (tmp_path / WAL_NAME).stat().st_size == 0
        fresh = GraphStore()
        report = PersistenceManager(tmp_path).recover(fresh)
        assert canonical_graph_json(fresh) == before
        assert report.records_total == 0
        assert report.checkpoint_lsn == 1

    def test_stale_wal_after_checkpoint_is_skipped(self, tmp_path):
        # A crash between "checkpoint renamed" and "WAL truncated"
        # leaves covered records behind; the LSN stamp must make the
        # replay skip them instead of double-applying creates.
        before = self._run_statements(
            tmp_path, ["CREATE (:A {k: 1})", "CREATE (:B {k: 2})"]
        )
        stale_wal = (tmp_path / WAL_NAME).read_bytes()
        store = GraphStore()
        manager = PersistenceManager(tmp_path)
        manager.recover(store)
        manager.checkpoint(store)
        (tmp_path / WAL_NAME).write_bytes(stale_wal)  # simulated crash
        fresh = GraphStore()
        report = PersistenceManager(tmp_path).recover(fresh)
        assert canonical_graph_json(fresh) == before
        assert report.records_skipped == 2
        assert report.records_applied == 0
        check_invariants(fresh)

    def test_store_lsn_is_the_wal_record_lsn(self, tmp_path):
        from repro.session import Graph

        def last_wal_lsn():
            with open(tmp_path / WAL_NAME, "rb") as handle:
                return [record.lsn for record, __ in iter_records(handle)][-1]

        graph = Graph(path=tmp_path, fsync="off")
        for expected, statement in enumerate(
            [
                "CREATE (:A {k: 1})",
                "CREATE INDEX ON :A(k)",  # schema: one record, one LSN
                "MATCH (a:A) SET a.k = 2",
                "CREATE (:B)",
            ],
            start=1,
        ):
            graph.run(statement)
            assert graph.store.lsn == last_wal_lsn() == expected
        graph.run("MATCH (a:A) RETURN a")
        assert graph.store.lsn == last_wal_lsn() == 4
        graph.close()

        graph = Graph(path=tmp_path, fsync="off")
        assert graph.store.lsn == 4  # restored from the replayed records
        graph.run("CREATE (:C)")
        assert graph.store.lsn == last_wal_lsn() == 5
        graph.checkpoint()
        graph.close()

        graph = Graph(path=tmp_path, fsync="off")
        assert graph.recovery.checkpoint_lsn == 5
        assert graph.store.lsn == 5  # restored from the checkpoint header
        graph.run("CREATE (:D)")
        assert graph.store.lsn == last_wal_lsn() == 6
        graph.close()

    def test_attach_truncates_the_torn_tail(self, tmp_path):
        self._run_statements(tmp_path, ["CREATE (:A {k: 1})"])
        wal = tmp_path / WAL_NAME
        clean_length = wal.stat().st_size
        wal.write_bytes(wal.read_bytes() + b"torn!")
        store = GraphStore()
        manager = PersistenceManager(tmp_path, fsync="off")
        report = manager.recover(store)
        assert report.torn_bytes == 5
        manager.attach(store)
        assert wal.stat().st_size == clean_length
        manager.close()

    def test_invariant_violation_fails_verification(self, tmp_path):
        manager = PersistenceManager(tmp_path, fsync="off")
        store = GraphStore()
        manager.recover(store)
        manager.attach(store)
        # A dangling relationship: target node never created.
        manager.log_commit([("create_node", 0, ["A"], {}),
                            ("create_rel", 0, "T", 0, 99, {})])
        manager.close()
        with pytest.raises(PersistenceError, match="invariants"):
            PersistenceManager(tmp_path).recover(GraphStore())


class TestRecoveryMemory:
    def _peak(self, directory, records):
        """tracemalloc peak of recovering a WAL of *records* records."""
        with WalWriter(directory / WAL_NAME, fsync="off") as writer:
            writer.append(1, [("create_node", 0, ["A"], {"k": 0})])
            for lsn in range(2, records + 1):
                writer.append(lsn, [("set_node_prop", 0, "k", lsn)])
        store = GraphStore()
        manager = PersistenceManager(directory)
        tracemalloc.start()
        try:
            report = manager.recover(store, verify=False)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.records_applied == records
        assert store.node_properties(0) == {"k": records}
        return peak

    def test_replay_memory_does_not_grow_with_the_log(self, tmp_path):
        # Records are applied as they are decoded; a log ten times as
        # long (every record rewriting one property, so the store
        # stays the same size) must not need ten times the memory.
        (tmp_path / "small").mkdir()
        (tmp_path / "large").mkdir()
        small = self._peak(tmp_path / "small", 2_000)
        large = self._peak(tmp_path / "large", 20_000)
        assert large < 2 * small + 64 * 1024, (small, large)


class TestStreamingCheckpointManager:
    """Format-2 wiring through the manager: sniffing, compat, tmp."""

    def _populate(self, directory):
        from repro.session import Graph

        graph = Graph(path=directory, fsync="off")
        graph.run("CREATE (:A {k: 1})-[:T]->(:B {k: 2})")
        snapshot = canonical_graph_json(graph.store)
        graph.close()
        return snapshot

    def test_manager_checkpoint_is_streaming(self, tmp_path):
        from repro.persistence.checkpoint import (
            STREAM_MAGIC,
            checkpoint_format,
        )

        before = self._populate(tmp_path)
        store = GraphStore()
        manager = PersistenceManager(tmp_path)
        manager.recover(store)
        path = manager.checkpoint(store)
        assert path.read_bytes()[:8] == STREAM_MAGIC
        assert checkpoint_format(path) == 3
        fresh = GraphStore()
        report = PersistenceManager(tmp_path).recover(fresh)
        assert canonical_graph_json(fresh) == before
        assert report.checkpoint_format == 3
        assert report.records_total == 0

    def test_legacy_blob_still_recovers(self, tmp_path):
        shutil.copy(FORMAT1_FIXTURE / CHECKPOINT_NAME, tmp_path)
        fresh = GraphStore()
        report = PersistenceManager(tmp_path).recover(fresh)
        assert canonical_graph_json(fresh) == canonical_graph_json(
            format1_store()
        )
        assert report.checkpoint_format == 1
        assert report.checkpoint_lsn == 17

    def test_blob_and_stream_recover_identically(self, tmp_path):
        # Recover the blob, re-checkpoint (always format 3), recover
        # that: the same graph either way, and new commits continue
        # the blob's LSN sequence.
        shutil.copy(FORMAT1_FIXTURE / CHECKPOINT_NAME, tmp_path)
        store = GraphStore()
        manager = PersistenceManager(tmp_path)
        manager.recover(store)
        via_blob = canonical_graph_json(store)
        manager.checkpoint(store)
        fresh = GraphStore()
        report = PersistenceManager(tmp_path).recover(fresh)
        assert report.checkpoint_format == 3
        assert report.checkpoint_lsn == 17
        assert canonical_graph_json(fresh) == via_blob
        assert fresh.next_ids() == store.next_ids()

    def test_torn_tmp_file_is_ignored(self, tmp_path):
        before = self._populate(tmp_path)
        (tmp_path / "checkpoint.json.tmp").write_bytes(b"RGCHKPT2\x00\x00")
        fresh = GraphStore()
        report = PersistenceManager(tmp_path).recover(fresh)
        assert canonical_graph_json(fresh) == before
        assert report.checkpoint_format == 0  # WAL replay only

    def test_no_checkpoint_reports_format_zero(self, tmp_path):
        report = PersistenceManager(tmp_path).recover(GraphStore())
        assert report.checkpoint_format == 0
        assert report.checkpoint_lsn == 0

    def test_report_times_each_phase(self, tmp_path):
        self._populate(tmp_path)
        PersistenceManager(tmp_path).checkpoint(self._reopened(tmp_path))
        report = PersistenceManager(tmp_path).recover(GraphStore())
        assert report.restore_s > 0 and report.verify_s > 0
        assert report.replay_s >= 0
        unverified = PersistenceManager(tmp_path).recover(
            GraphStore(), verify=False
        )
        assert unverified.verify_s == 0.0
        assert "/ verify 0.000s" in unverified.summary()

    @staticmethod
    def _reopened(directory):
        store = GraphStore()
        PersistenceManager(directory).recover(store)
        return store


class TestRecoverCli:
    def test_recover_and_compact(self, tmp_path, capsys):
        from repro.recover import main
        from repro.session import Graph

        graph = Graph(path=tmp_path, fsync="off")
        graph.run("CREATE (:A {k: 1})")
        graph.close()
        assert main([str(tmp_path), "--checkpoint", "--json"]) == 0
        out = capsys.readouterr().out
        assert "recovered:" in out and "invariants: ok" in out
        assert "restore " in out and " / verify " in out
        assert "checkpoint written" in out
        assert (tmp_path / WAL_NAME).stat().st_size == 0

    def test_cli_upgrades_a_format1_directory(self, tmp_path, capsys):
        from repro.persistence.checkpoint import checkpoint_format
        from repro.recover import main

        shutil.copy(FORMAT1_FIXTURE / CHECKPOINT_NAME, tmp_path)
        path = tmp_path / "checkpoint.json"
        assert checkpoint_format(path) == 1
        assert main([str(tmp_path), "--checkpoint"]) == 0
        assert checkpoint_format(path) == 3
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint format: 1 (blob)" in out
        assert "checkpoint format: 3 (stream)" in out
        assert "checkpoint written (format 3, lsn 17)" in out

    def test_cli_labels_every_format_and_counts_deltas(
        self, tmp_path, capsys
    ):
        from repro.persistence import STREAM_MAGIC, encode_frame
        from repro.persistence.checkpoint import read_checkpoint_records
        from repro.recover import main
        from repro.session import Graph

        blob = tmp_path / "blob"
        blob.mkdir()
        shutil.copy(FORMAT1_FIXTURE / CHECKPOINT_NAME, blob)
        assert main([str(blob)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint format: 1 (blob), 0 delta segments" in out

        stream = tmp_path / "stream"
        graph = Graph(path=stream, fsync="off")
        graph.run("UNWIND range(1, 30) AS i CREATE (:A {k: i})")
        graph.checkpoint()
        graph.close()
        records = list(read_checkpoint_records(stream / CHECKPOINT_NAME))
        records[0]["format"] = 2
        (stream / CHECKPOINT_NAME).write_bytes(
            STREAM_MAGIC + b"".join(encode_frame(r) for r in records)
        )
        assert main([str(stream)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint format: 2 (stream), 0 delta segments" in out

        deltas = tmp_path / "deltas"
        graph = Graph(path=deltas, fsync="off")
        graph.run("UNWIND range(1, 300) AS i CREATE (:A {k: i})")
        graph.checkpoint()
        graph.run("MATCH (a:A {k: 1}) SET a.k = 0")
        graph.checkpoint()
        graph.run("MATCH (a:A {k: 2}) DELETE a")
        graph.checkpoint()
        graph.close()
        assert main([str(deltas), "--checkpoint"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint lsn 3, 2 delta segments (2 rows)" in out
        assert "checkpoint format: 3 (stream), 2 delta segments (2 rows)" in out
        assert "delta log deleted" in out
        assert not (deltas / "checkpoint.delta").exists()
        assert main([str(deltas)]) == 0
        assert "0 delta segments" in capsys.readouterr().out

    def test_failure_exit_code(self, tmp_path, capsys):
        (tmp_path / "checkpoint.json").write_text("{broken")
        from repro.recover import main

        assert main([str(tmp_path)]) == 1
        assert "recovery failed" in capsys.readouterr().err
