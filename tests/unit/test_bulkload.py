"""The offline bulk loader: readers, load_store, CLI, checkpoint."""

import json

import pytest

from repro import Graph
from repro.bulkload import (
    emit_checkpoint,
    iter_nodes_csv,
    iter_nodes_csv_parallel,
    iter_nodes_jsonl,
    iter_rels_csv,
    iter_rels_csv_parallel,
    iter_rels_jsonl,
    load_store,
    main,
    write_synthetic_csv,
)
from repro.errors import LoadError, PersistenceError
from repro.graph.store import GraphStore
from repro.io.csv_io import write_csv
from repro.testing.invariants import canonical_graph_json, check_invariants


def write_nodes(path, rows):
    write_csv(path, ("id", "labels", "properties"), rows)


def write_rels(path, rows):
    write_csv(path, ("id", "type", "start", "end", "properties"), rows)


def small_files(tmp_path):
    nodes_path = tmp_path / "nodes.csv"
    rels_path = tmp_path / "rels.csv"
    write_nodes(
        nodes_path,
        [
            (0, "Person;Admin", json.dumps({"id": 0, "name": "a"})),
            (1, "Person", json.dumps({"id": 1, "name": "b"})),
            (2, "", "{}"),
        ],
    )
    write_rels(
        rels_path,
        [
            (0, "KNOWS", 0, 1, json.dumps({"w": 2})),
            (1, "KNOWS", 1, 0, "{}"),
            (2, "FOLLOWS", 1, 2, "{}"),
            (3, "FOLLOWS", 2, 2, "{}"),  # self-loop
        ],
    )
    return nodes_path, rels_path


class TestReaders:
    def test_csv_rows_roundtrip(self, tmp_path):
        nodes_path, rels_path = small_files(tmp_path)
        nodes = list(iter_nodes_csv(nodes_path))
        assert nodes[0][0] == 0
        assert tuple(nodes[0][1]) == ("Person", "Admin")
        assert nodes[0][2] == {"id": 0, "name": "a"}
        assert tuple(nodes[2][1]) == ()
        assert nodes[2][2] == {}
        rels = list(iter_rels_csv(rels_path))
        assert rels[0] == (0, "KNOWS", 0, 1, {"w": 2})
        assert rels[3] == (3, "FOLLOWS", 2, 2, {})

    def test_csv_shared_payloads_are_not_aliased_in_store(self, tmp_path):
        """Rows with identical property cells share parsed dicts, but
        the loaded store must keep independent per-entity maps."""
        nodes_path = tmp_path / "nodes.csv"
        rels_path = tmp_path / "rels.csv"
        write_nodes(nodes_path, [(0, "P", '{"k": 1}'), (1, "P", '{"k": 1}')])
        write_rels(rels_path, [])
        store = load_store(iter_nodes_csv(nodes_path), iter_rels_csv(rels_path))
        store.set_node_property(0, "k", 99)
        assert store.node_properties(1)["k"] == 1

    def test_csv_malformed_row(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        write_nodes(nodes_path, [("zero", "P", "{}")])
        with pytest.raises(LoadError, match="malformed node row"):
            list(iter_nodes_csv(nodes_path))

    def test_csv_invalid_properties_json(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        write_nodes(nodes_path, [(0, "P", "{nope")])
        with pytest.raises(LoadError, match="invalid properties JSON"):
            list(iter_nodes_csv(nodes_path))

    def test_csv_non_object_properties(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        write_nodes(nodes_path, [(0, "P", "[1, 2]")])
        with pytest.raises(LoadError, match="must be a JSON object"):
            list(iter_nodes_csv(nodes_path))

    def test_csv_missing_column(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        write_csv(nodes_path, ("id", "labels"), [(0, "P")])
        with pytest.raises(LoadError, match="missing column"):
            list(iter_nodes_csv(nodes_path))

    def test_csv_untyped_relationship(self, tmp_path):
        rels_path = tmp_path / "rels.csv"
        write_rels(rels_path, [(0, "", 0, 1, "{}")])
        with pytest.raises(LoadError, match="no type"):
            list(iter_rels_csv(rels_path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="cannot read CSV file"):
            list(iter_nodes_csv(tmp_path / "absent.csv"))

    def test_jsonl_readers(self, tmp_path):
        nodes_path = tmp_path / "nodes.jsonl"
        rels_path = tmp_path / "rels.jsonl"
        nodes_path.write_text(
            '{"id": 0, "labels": ["P"], "properties": {"k": 1}}\n'
            '{"id": 1}\n'
        )
        rels_path.write_text(
            '{"id": 0, "type": "T", "start": 0, "end": 1}\n'
        )
        assert list(iter_nodes_jsonl(nodes_path)) == [
            (0, ["P"], {"k": 1}),
            (1, [], {}),
        ]
        assert list(iter_rels_jsonl(rels_path)) == [(0, "T", 0, 1, {})]

    def test_jsonl_missing_field(self, tmp_path):
        rels_path = tmp_path / "rels.jsonl"
        rels_path.write_text('{"id": 0, "type": "T", "start": 0}\n')
        with pytest.raises(LoadError, match="no end"):
            list(iter_rels_jsonl(rels_path))


class TestLoadStore:
    def test_load_and_verify(self, tmp_path):
        nodes_path, rels_path = small_files(tmp_path)
        store = load_store(
            iter_nodes_csv(nodes_path),
            iter_rels_csv(rels_path),
            indexes=[("Person", "id")],
        )
        assert store.node_count() == 3
        assert store.relationship_count() == 4
        assert store.node_access(("Admin",), fetch=True)[2] == [0]
        assert store.adjacent_rel_ids(1, incoming=False) == [1, 2]
        assert store.adjacent_rel_ids(2, types=("FOLLOWS",)) == [2, 3]
        index = store.property_index("Person", "id")
        assert index is not None
        assert index.ids(1) == [1]
        check_invariants(store)

    def test_requires_empty_store(self):
        store = GraphStore()
        store.create_node(["P"], {})
        with pytest.raises(PersistenceError, match="empty store"):
            store.bulk_load(iter(()), iter(()))

    def test_duplicate_node_id(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        write_nodes(nodes_path, [(0, "P", "{}"), (0, "P", "{}")])
        with pytest.raises(LoadError, match="duplicate node id 0"):
            load_store(iter_nodes_csv(nodes_path), iter(()))

    def test_negative_node_id(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        write_nodes(nodes_path, [(-4, "P", "{}")])
        with pytest.raises(LoadError, match="negative node id -4"):
            load_store(iter_nodes_csv(nodes_path), iter(()))

    def test_unknown_endpoint(self, tmp_path):
        nodes_path, __ = small_files(tmp_path)
        rels_path = tmp_path / "bad_rels.csv"
        write_rels(rels_path, [(0, "KNOWS", 0, 9, "{}")])
        with pytest.raises(LoadError, match="unknown target node 9"):
            load_store(iter_nodes_csv(nodes_path), iter_rels_csv(rels_path))

    def test_duplicate_rel_id(self, tmp_path):
        nodes_path, __ = small_files(tmp_path)
        rels_path = tmp_path / "bad_rels.csv"
        write_rels(
            rels_path,
            [(0, "KNOWS", 0, 1, "{}"), (0, "KNOWS", 1, 0, "{}")],
        )
        with pytest.raises(LoadError, match="duplicate relationship id 0"):
            load_store(iter_nodes_csv(nodes_path), iter_rels_csv(rels_path))

    def test_sparse_ids_leave_holes(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        rels_path = tmp_path / "rels.csv"
        write_nodes(nodes_path, [(5, "P", "{}"), (2, "P", "{}")])
        write_rels(rels_path, [(7, "T", 5, 2, "{}")])
        store = load_store(iter_nodes_csv(nodes_path), iter_rels_csv(rels_path))
        assert store.node_count() == 2
        assert store.relationship_count() == 1
        assert sorted(n.id for n in store.nodes()) == [2, 5]
        # Fresh ids continue past the sparse maximum.
        new = store.create_node([], {})
        assert new > 5
        check_invariants(store)

    def test_matches_statement_pipeline_output(self, tmp_path):
        nodes_path, rels_path = small_files(tmp_path)
        loaded = load_store(iter_nodes_csv(nodes_path), iter_rels_csv(rels_path))
        built = GraphStore()
        built.create_node(["Person", "Admin"], {"id": 0, "name": "a"})
        built.create_node(["Person"], {"id": 1, "name": "b"})
        built.create_node([], {})
        built.create_relationship("KNOWS", 0, 1, {"w": 2})
        built.create_relationship("KNOWS", 1, 0, {})
        built.create_relationship("FOLLOWS", 1, 2, {})
        built.create_relationship("FOLLOWS", 2, 2, {})
        assert canonical_graph_json(loaded) == canonical_graph_json(built)


class TestCheckpointAndCli:
    def test_emitted_checkpoint_opens_cleanly(self, tmp_path):
        nodes_path, rels_path = small_files(tmp_path)
        store = load_store(iter_nodes_csv(nodes_path), iter_rels_csv(rels_path))
        out = tmp_path / "db"
        out.mkdir()
        emit_checkpoint(out, store)
        graph = Graph.open(out)
        try:
            report = graph.recovery
            assert report.records_applied == 0
            assert report.torn_bytes == 0
            rows = graph.run(
                "MATCH (a:Person)-[:KNOWS]->(b:Person) "
                "RETURN a.name, b.name ORDER BY a.name"
            ).records
            assert rows == [
                {"a.name": "a", "b.name": "b"},
                {"a.name": "b", "b.name": "a"},
            ]
            check_invariants(graph.store)
        finally:
            graph.close()

    def test_emit_into_a_used_directory_replaces_its_history(self, tmp_path):
        # The directory's old WAL and delta log would replay over the
        # new base: emitting must leave exactly a base and an empty WAL.
        out = tmp_path / "db"
        graph = Graph.open(out, fsync="off")
        graph.run("UNWIND range(1, 40) AS i CREATE (:Old {i: i})")
        graph.checkpoint()
        for i in range(3):
            graph.run(f"CREATE (:Old {{i: {100 + i}}})")
        graph.checkpoint()  # a delta segment
        for i in range(3):
            graph.run(f"CREATE (:Old {{i: {200 + i}}})")
        graph.close()
        assert (out / "checkpoint.delta").stat().st_size > 0
        assert (out / "wal.log").stat().st_size > 0
        store = load_store(iter([(0, ["New"], {"k": 1})]), iter(()))
        emit_checkpoint(out, store)
        assert sorted(path.name for path in out.iterdir()) == [
            "checkpoint.json",
            "wal.log",
        ]
        assert (out / "wal.log").stat().st_size == 0
        reopened = Graph.open(out)
        try:
            assert reopened.recovery.records_total == 0
            assert canonical_graph_json(reopened.store) == (
                canonical_graph_json(store)
            )
        finally:
            reopened.close()

    def test_cli_synthetic_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "db"
        code = main(
            [
                "--synthetic", "200",
                "--out", str(out),
                "--index", "Person:id",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == 200
        assert report["relationships"] == 400
        assert report["verified"] is True
        graph = Graph.open(out)
        try:
            assert graph.recovery.records_applied == 0
            count = graph.run(
                "MATCH (p:Person {id: 7})-[:FOLLOWS]->(q) RETURN q.id"
            ).records
            assert count == [{"q.id": 8}]
            check_invariants(graph.store)
        finally:
            graph.close()

    def test_cli_explicit_files(self, tmp_path, capsys):
        nodes_path, rels_path = small_files(tmp_path)
        out = tmp_path / "db"
        code = main(
            [
                "--nodes", str(nodes_path),
                "--rels", str(rels_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "loaded 3 nodes / 4 relationships" in printed
        assert "invariants: ok" in printed

    def test_cli_load_error_is_reported(self, tmp_path, capsys):
        nodes_path = tmp_path / "nodes.csv"
        write_nodes(nodes_path, [(0, "P", "{}"), (0, "P", "{}")])
        code = main(
            ["--nodes", str(nodes_path), "--out", str(tmp_path / "db")]
        )
        assert code == 1
        assert "bulk load failed" in capsys.readouterr().err

    def test_cli_bad_schema_pair(self, tmp_path, capsys):
        code = main(
            [
                "--synthetic", "10",
                "--out", str(tmp_path / "db"),
                "--index", "PersonOnly",
            ]
        )
        assert code == 1
        assert "LABEL:KEY" in capsys.readouterr().err

    def test_cli_constraint_flag(self, tmp_path, capsys):
        out = tmp_path / "db"
        code = main(
            [
                "--synthetic", "50",
                "--out", str(out),
                "--constraint", "Person:id",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["constraints"] == 1
        graph = Graph.open(out)
        try:
            assert graph.store.unique_constraints() == frozenset({("Person", "id")})
        finally:
            graph.close()

    def test_synthetic_writer_is_deterministic(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        n1, r1 = write_synthetic_csv(first, 100)
        n2, r2 = write_synthetic_csv(second, 100)
        assert n1.read_bytes() == n2.read_bytes()
        assert r1.read_bytes() == r2.read_bytes()


class TestParallelCsv:
    """Forked-chunk CSV parsing must be row-identical to the serial
    readers, in file order, for any chunk alignment."""

    def test_nodes_rows_identical_to_serial(self, tmp_path):
        nodes_path, __ = write_synthetic_csv(tmp_path, 500)
        serial = list(iter_nodes_csv(nodes_path))
        # tiny chunks force many ranges, workers > chunks included
        for chunk_bytes in (256, 1024, 1 << 20):
            parallel = list(
                iter_nodes_csv_parallel(
                    nodes_path, workers=3, chunk_bytes=chunk_bytes
                )
            )
            assert parallel == serial

    def test_rels_rows_identical_to_serial(self, tmp_path):
        __, rels_path = write_synthetic_csv(tmp_path, 500)
        serial = list(iter_rels_csv(rels_path))
        parallel = list(
            iter_rels_csv_parallel(rels_path, workers=4, chunk_bytes=512)
        )
        assert parallel == serial

    def test_quoted_cells_survive_chunking(self, tmp_path):
        # JSON property cells full of commas and quotes; boundaries
        # land mid-row and must re-align on the next newline
        nodes_path = tmp_path / "nodes.csv"
        rows = [
            (
                i,
                "Person",
                json.dumps({"name": f'x,"y",{i}', "tags": ["a", "b"]}),
            )
            for i in range(200)
        ]
        write_nodes(nodes_path, rows)
        serial = list(iter_nodes_csv(nodes_path))
        parallel = list(
            iter_nodes_csv_parallel(nodes_path, workers=2, chunk_bytes=128)
        )
        assert parallel == serial

    def test_single_chunk_falls_back_to_serial(self, tmp_path):
        nodes_path, __ = small_files(tmp_path)
        rows = list(
            iter_nodes_csv_parallel(
                nodes_path, workers=8, chunk_bytes=1 << 20
            )
        )
        assert rows == list(iter_nodes_csv(nodes_path))

    def test_malformed_row_raises_load_error(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        nodes_path.write_text(
            "id,labels,properties\n"
            + "".join(f"{i},Person,{{}}\n" for i in range(50))
            + "not-an-int,Person,{}\n"
        )
        with pytest.raises(LoadError):
            list(
                iter_nodes_csv_parallel(
                    nodes_path, workers=2, chunk_bytes=128
                )
            )

    def test_missing_header_column_raises(self, tmp_path):
        nodes_path = tmp_path / "nodes.csv"
        nodes_path.write_text("id,labels\n0,Person\n")
        with pytest.raises(LoadError, match="properties"):
            list(iter_nodes_csv_parallel(nodes_path, workers=2))

    def test_untyped_relationship_raises(self, tmp_path):
        rels_path = tmp_path / "rels.csv"
        rels_path.write_text(
            "id,type,start,end,properties\n"
            + "".join(f"{i},KNOWS,0,1,{{}}\n" for i in range(40))
            + "40,,0,1,{}\n"
        )
        with pytest.raises(LoadError, match="no type"):
            list(
                iter_rels_csv_parallel(rels_path, workers=2, chunk_bytes=64)
            )

    def test_cli_parallel_matches_serial_graph(self, tmp_path, capsys):
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        assert main(["--synthetic", "300", "--out", str(serial_out)]) == 0
        assert (
            main(
                [
                    "--synthetic", "300",
                    "--out", str(parallel_out),
                    "--parallel", "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        first = Graph.open(serial_out)
        second = Graph.open(parallel_out)
        try:
            assert canonical_graph_json(first.store) == canonical_graph_json(
                second.store
            )
        finally:
            first.close()
            second.close()

    def test_cli_parallel_requires_csv(self, tmp_path):
        nodes_path = tmp_path / "nodes.jsonl"
        nodes_path.write_text('{"id": 0}\n')
        with pytest.raises(SystemExit):
            main(
                [
                    "--nodes", str(nodes_path),
                    "--format", "jsonl",
                    "--out", str(tmp_path / "db"),
                    "--parallel", "2",
                ]
            )
