"""Direct unit tests for LabelIndex and PropertyIndex."""

from repro.graph.indexes import LabelIndex, PropertyIndex


class TestLabelIndex:
    def test_add_and_lookup(self):
        index = LabelIndex()
        index.add(1, ("A", "B"))
        index.add(2, ("A",))
        assert index.ids("A") == [1, 2]
        assert index.ids("B") == [1]
        assert index.ids("Z") == []

    def test_remove(self):
        index = LabelIndex()
        index.add(1, ("A",))
        index.remove(1, ("A",))
        assert index.ids("A") == []
        # removing again is a no-op
        index.remove(1, ("A",))

    def test_counts_and_labels(self):
        index = LabelIndex()
        index.add(1, ("A",))
        index.add(2, ("A", "B"))
        assert index.count("A") == 2
        assert index.count("B") == 1
        assert sorted(index.labels()) == ["A", "B"]

    def test_empty_buckets_are_pruned(self):
        index = LabelIndex()
        index.add(1, ("A",))
        index.remove(1, ("A",))
        assert list(index.labels()) == []


class TestPropertyIndex:
    def test_add_and_lookup(self):
        index = PropertyIndex("User", "id")
        index.add(1, 42)
        index.add(2, 42)
        index.add(3, 7)
        assert index.ids(42) == [1, 2]
        assert index.ids(7) == [3]
        assert len(index) == 3

    def test_numeric_equivalence(self):
        index = PropertyIndex("User", "id")
        index.add(1, 1)
        assert index.ids(1.0) == [1]

    def test_re_add_moves_bucket(self):
        index = PropertyIndex("User", "id")
        index.add(1, 10)
        index.add(1, 20)
        assert index.ids(10) == []
        assert index.ids(20) == [1]
        assert len(index) == 1

    def test_discard(self):
        index = PropertyIndex("User", "id")
        index.add(1, 10)
        index.discard(1)
        assert index.ids(10) == []
        assert len(index) == 0
        index.discard(1)  # idempotent

    def test_null_and_unstorable_not_indexed(self):
        index = PropertyIndex("User", "id")
        index.add(1, None)
        index.add(2, {"nested": "map"})
        assert len(index) == 0

    def test_null_lookup_empty(self):
        index = PropertyIndex("User", "id")
        index.add(1, 10)
        assert index.ids(None) == []

    def test_peers(self):
        index = PropertyIndex("User", "id")
        index.add(1, 5)
        index.add(2, 5)
        index.add(3, 6)
        assert index.peers(1) == [2]
        assert index.peers(3) == []
        assert index.peers(99) == []

    def test_duplicate_buckets(self):
        index = PropertyIndex("User", "id")
        index.add(1, 5)
        index.add(2, 5)
        index.add(3, 6)
        duplicates = index.duplicate_buckets()
        assert duplicates == [[1, 2]]

    def test_list_values_indexable(self):
        index = PropertyIndex("User", "tags")
        index.add(1, ["a", "b"])
        assert index.ids(["a", "b"]) == [1]

    def test_repr(self):
        index = PropertyIndex("User", "id")
        assert ":User(id)" in repr(index)
