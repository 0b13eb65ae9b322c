"""Unit tests for the driving table."""

import pytest

from repro.errors import CypherError
from repro.runtime.table import DrivingTable


class TestConstruction:
    def test_unit_table(self):
        table = DrivingTable.unit()
        assert len(table) == 1
        assert table.records == [{}]
        assert table.columns == ()

    def test_empty(self):
        table = DrivingTable.empty(("a", "b"))
        assert len(table) == 0
        assert table.columns == ("a", "b")

    def test_from_records(self):
        table = DrivingTable.from_records([{"a": 1}, {"a": 2}])
        assert table.columns == ("a",)
        assert table.column_values("a") == [1, 2]

    def test_records_must_be_consistent(self):
        with pytest.raises(CypherError):
            DrivingTable(("a",), [{"b": 1}])
        table = DrivingTable(("a",), [{"a": 1}])
        with pytest.raises(CypherError):
            table.add({"a": 1, "b": 2})

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CypherError):
            DrivingTable(("a", "a"))

    def test_add_infers_columns_when_empty(self):
        table = DrivingTable()
        table.add({"x": 1})
        assert table.columns == ("x",)


class TestBagSemantics:
    def test_duplicates_are_kept(self):
        table = DrivingTable(("a",), [{"a": 1}, {"a": 1}])
        assert len(table) == 2

    def test_bag_equality_ignores_order(self):
        one = DrivingTable(("a",), [{"a": 1}, {"a": 2}])
        two = DrivingTable(("a",), [{"a": 2}, {"a": 1}])
        assert one == two

    def test_bag_equality_counts_multiplicity(self):
        one = DrivingTable(("a",), [{"a": 1}, {"a": 1}])
        two = DrivingTable(("a",), [{"a": 1}])
        assert one != two

    def test_concat_adds_multiplicities(self):
        one = DrivingTable(("a",), [{"a": 1}])
        two = DrivingTable(("a",), [{"a": 1}, {"a": 2}])
        assert len(one.concat(two)) == 3

    def test_concat_requires_same_columns(self):
        with pytest.raises(CypherError):
            DrivingTable(("a",)).concat(DrivingTable(("b",)))

    def test_distinct(self):
        table = DrivingTable(
            ("a", "b"), [{"a": 1, "b": None}, {"a": 1, "b": None}, {"a": 2, "b": 0}]
        )
        assert len(table.distinct()) == 2

    def test_distinct_treats_equivalent_numbers_alike(self):
        table = DrivingTable(("a",), [{"a": 1}, {"a": 1.0}])
        assert len(table.distinct()) == 1


class TestOrderControls:
    def test_reversed(self):
        table = DrivingTable(("a",), [{"a": 1}, {"a": 2}, {"a": 3}])
        assert table.reversed().column_values("a") == [3, 2, 1]

    def test_shuffled_is_deterministic_per_seed(self):
        table = DrivingTable(("a",), [{"a": i} for i in range(10)])
        one = table.shuffled(seed=3).column_values("a")
        two = table.shuffled(seed=3).column_values("a")
        assert one == two
        assert sorted(one) == list(range(10))

    def test_copy_is_independent(self):
        table = DrivingTable(("a",), [{"a": 1}])
        clone = table.copy()
        clone.add({"a": 2})
        assert len(table) == 1


class TestTransforms:
    def test_filter(self):
        table = DrivingTable(("a",), [{"a": i} for i in range(5)])
        assert len(table.filter(lambda r: r["a"] % 2 == 0)) == 3

    def test_map(self):
        table = DrivingTable(("a",), [{"a": 1}])
        mapped = table.map(lambda r: {"b": r["a"] * 2})
        assert mapped.columns == ("b",)
        assert mapped.records == [{"b": 2}]


class TestPresentation:
    def test_pretty_contains_headers_and_nulls(self):
        table = DrivingTable(("name", "id"), [{"name": "x", "id": None}])
        text = table.pretty()
        assert "name" in text and "null" in text

    def test_pretty_truncates(self):
        table = DrivingTable(("a",), [{"a": i} for i in range(30)])
        assert "more rows" in table.pretty(max_rows=5)

    def test_repr(self):
        assert "2 records" in repr(DrivingTable(("a",), [{"a": 1}, {"a": 2}]))


class TestFromTrusted:
    def test_from_trusted_skips_validation(self):
        table = DrivingTable.from_trusted(("a",), [{"a": 1}, {"a": 2}])
        assert table.columns == ("a",)
        assert len(table) == 2
        assert table == DrivingTable(("a",), [{"a": 1}, {"a": 2}])


class TestExtendAndEquality:
    def test_extend_validates_every_record(self):
        table = DrivingTable(("a",), [{"a": 1}])
        with pytest.raises(CypherError):
            table.extend([{"a": 2}, {"b": 3}])

    def test_extend_infers_columns_from_first_record(self):
        table = DrivingTable()
        table.extend([{"x": 1}, {"x": 2}])
        assert table.columns == ("x",)
        assert len(table) == 2

    def test_extend_accepts_literal_none_values(self):
        table = DrivingTable(("a",))
        table.extend(iter([{"a": None}, {"a": 1}]))
        assert table.column_values("a") == [None, 1]

    def test_bag_equality_with_unhashable_values(self):
        # Lists and maps are not hashable; equality must not crash.
        one = DrivingTable(("a",), [{"a": [1, {"k": 2}]}, {"a": []}])
        two = DrivingTable(("a",), [{"a": []}, {"a": [1, {"k": 2}]}])
        assert one == two
        assert one != DrivingTable(("a",), [{"a": []}, {"a": [1]}])

    def test_bag_equality_with_entities(self):
        from repro.graph.store import GraphStore

        store = GraphStore()
        x = store.create_node(("A",), {})
        y = store.create_node(("A",), {})
        one = DrivingTable(
            ("n",), [{"n": store.node(x)}, {"n": store.node(y)}]
        )
        two = DrivingTable(
            ("n",), [{"n": store.node(y)}, {"n": store.node(x)}]
        )
        assert one == two
