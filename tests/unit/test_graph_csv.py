"""Whole-graph io round-trips: graph_json and csv export -> import.

Every round-trip must produce a store that (a) passes the fuzzer's
invariant oracle and (b) compares equal to the original via
``graph/comparison.py`` -- both isomorphic and, because entity ids are
preserved, identical in canonical JSON form.
"""

import pytest

from repro.errors import LoadError
from repro.graph.comparison import assert_isomorphic, isomorphic
from repro.graph.store import GraphStore
from repro.io.csv_io import read_graph_csv, write_graph_csv
from repro.io.graph_json import (
    dict_to_store,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.testing.generator import build_store, case_for
from repro.testing.invariants import canonical_graph_json, check_invariants


def _example_store():
    store = GraphStore()
    a = store.create_node(("A",), {"i": 1, "name": "ann"})
    b = store.create_node(("A", "B"), {"i": 2.5, "flag": True})
    c = store.create_node((), {})
    store.create_relationship("T", a, b, {"w": 1})
    store.create_relationship("S", b, c)
    store.create_relationship("T", c, a, {"list": [1, 2, "x"]})
    return store


def _assert_same_graph(original, restored):
    check_invariants(restored)
    assert_isomorphic(restored.snapshot(), original.snapshot())
    assert canonical_graph_json(restored) == canonical_graph_json(original)


class TestGraphJsonRoundTrip:
    def test_example_store(self, tmp_path):
        store = _example_store()
        path = tmp_path / "graph.json"
        save_graph(store, path)
        _assert_same_graph(store, load_graph(path))

    def test_dict_round_trip(self):
        store = _example_store()
        _assert_same_graph(store, dict_to_store(graph_to_dict(store)))

    def test_empty_store(self, tmp_path):
        store = GraphStore()
        path = tmp_path / "empty.json"
        save_graph(store, path)
        restored = load_graph(path)
        check_invariants(restored)
        assert isomorphic(restored.snapshot(), store.snapshot())

    @pytest.mark.parametrize("index", range(0, 12, 3))
    def test_fuzz_generated_graphs(self, index, tmp_path):
        store = build_store(case_for(3, index))
        path = tmp_path / "fuzz.json"
        save_graph(store, path)
        _assert_same_graph(store, load_graph(path))


class TestGraphCsvRoundTrip:
    def test_example_store(self, tmp_path):
        store = _example_store()
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        write_graph_csv(store, nodes, rels)
        _assert_same_graph(store, read_graph_csv(nodes, rels))

    def test_empty_store(self, tmp_path):
        store = GraphStore()
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        write_graph_csv(store, nodes, rels)
        restored = read_graph_csv(nodes, rels)
        check_invariants(restored)
        assert restored.snapshot().order() == 0
        assert restored.snapshot().size() == 0

    @pytest.mark.parametrize("index", range(0, 12, 3))
    def test_fuzz_generated_graphs(self, index, tmp_path):
        store = build_store(case_for(4, index))
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        write_graph_csv(store, nodes, rels)
        _assert_same_graph(store, read_graph_csv(nodes, rels))

    def test_id_gaps_survive_like_the_bulk_loader(self, tmp_path):
        """Deleted entities leave id gaps; the import keeps every id."""
        from repro import bulkload

        store = _example_store()
        store.delete_relationship(0)
        store.delete_relationship(1)
        store.delete_node(1)
        store.create_relationship("U", 0, 2, {"w": 2})
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        write_graph_csv(store, nodes, rels)
        restored = read_graph_csv(nodes, rels)
        assert [n.id for n in restored.nodes()] == [0, 2]
        assert [r.id for r in restored.relationships()] == [2, 3]
        check_invariants(restored)
        assert canonical_graph_json(restored) == canonical_graph_json(store)
        loaded = bulkload.load_store(
            bulkload.iter_nodes_csv(nodes), bulkload.iter_rels_csv(rels)
        )
        assert canonical_graph_json(loaded) == canonical_graph_json(restored)

    def test_csv_and_json_agree(self, tmp_path):
        """Both io paths restore the same canonical graph."""
        store = build_store(case_for(5, 3))
        json_path = tmp_path / "g.json"
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        save_graph(store, json_path)
        write_graph_csv(store, nodes, rels)
        assert canonical_graph_json(
            load_graph(json_path)
        ) == canonical_graph_json(read_graph_csv(nodes, rels))

    def test_rejects_bad_property_json(self, tmp_path):
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        nodes.write_text('id,labels,properties\n0,A,"{broken"\n')
        rels.write_text("id,type,start,end,properties\n")
        with pytest.raises(LoadError):
            read_graph_csv(nodes, rels)

    def test_rejects_non_integer_id(self, tmp_path):
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        nodes.write_text("id,labels,properties\nzero,A,{}\n")
        rels.write_text("id,type,start,end,properties\n")
        with pytest.raises(LoadError):
            read_graph_csv(nodes, rels)

    def test_rejects_unknown_endpoint(self, tmp_path):
        nodes, rels = tmp_path / "nodes.csv", tmp_path / "rels.csv"
        nodes.write_text("id,labels,properties\n0,A,{}\n")
        rels.write_text("id,type,start,end,properties\n0,T,0,7,{}\n")
        with pytest.raises(LoadError):
            read_graph_csv(nodes, rels)
