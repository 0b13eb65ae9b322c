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
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError
from repro.graph.store import GraphStore
from repro.persistence.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_NAME,
    checkpoint_format,
    checkpoint_record_boundaries,
    read_checkpoint_records,
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
    assert info == {"lsn": store.lsn, "format": CHECKPOINT_FORMAT}
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
