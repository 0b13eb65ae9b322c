"""Secondary indexes over the graph store.

Two index kinds back :meth:`repro.graph.store.GraphStore.node_access`,
the one place that decides where a node pattern's candidates come from:

* :class:`LabelIndex` -- label -> set of node ids.  Always maintained;
  this is what makes ``MATCH (n:Product)`` skip unlabeled nodes.

* :class:`PropertyIndex` -- (label, key) -> value -> set of node ids.
  Created on demand via :meth:`repro.graph.store.GraphStore.create_index`,
  mirroring how a production engine would let MERGE-heavy import
  workloads avoid full label scans (the CSV-import use case the paper's
  user survey highlights).

Index value keys use :func:`repro.graph.values.grouping_key` so that
1 and 1.0 share a bucket, consistently with equivalence.

Buckets never leave this module as sets: readers get a size (a
statistic, no db-hit) or a fresh ascending id list (``ids``, one
``index_lookup`` db-hit), so no caller can alias or copy a live bucket.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.graph.counters import NO_COUNTERS, HitCounters
from repro.graph.values import grouping_key, is_storable

class LabelIndex:
    """Maps each label to the set of live node ids carrying it."""

    def __init__(self) -> None:
        self._by_label: dict[str, set[int]] = {}
        #: db-hit hooks, routed by GraphStore.install_counters
        self.counters: HitCounters = NO_COUNTERS

    def add(self, node_id: int, labels: Iterable[str]) -> None:
        """Register *node_id* under every label in *labels*."""
        for label in labels:
            self._by_label.setdefault(label, set()).add(node_id)

    def add_many(self, node_ids: Iterable[int], labels: Iterable[str]) -> None:
        """Register a batch of node ids under every label in *labels*.

        Bulk-load fast path: one C-level ``set.update`` per label
        instead of a Python-level ``add`` per (node, label) pair.
        """
        for label in labels:
            self._by_label.setdefault(label, set()).update(node_ids)

    def remove(self, node_id: int, labels: Iterable[str]) -> None:
        """Unregister *node_id* from every label in *labels*."""
        for label in labels:
            bucket = self._by_label.get(label)
            if bucket is not None:
                bucket.discard(node_id)
                if not bucket:
                    del self._by_label[label]

    def ids(self, label: str) -> list[int]:
        """Ids of live nodes carrying *label*: a fresh ascending list."""
        self.counters.index_lookup()
        return sorted(self._by_label.get(label, ()))

    def labels(self) -> Iterator[str]:
        """All labels with at least one live node."""
        return iter(self._by_label)

    def count(self, label: str) -> int:
        """Number of live nodes carrying *label* (no db-hit)."""
        return len(self._by_label.get(label, ()))


class PropertyIndex:
    """A (label, key) index: property value -> set of node ids.

    Only nodes that carry the label *and* define the key appear; a node
    whose property is absent (iota = null) is deliberately not indexed,
    since ``{key: null}`` map patterns never match anyway.
    """

    def __init__(self, label: str, key: str):
        self.label = label
        self.key = key
        self._by_value: dict[Any, set[int]] = {}
        #: reverse map so updates need not know the old value
        self._value_of: dict[int, Any] = {}
        #: db-hit hooks, routed by GraphStore.install_counters
        self.counters: HitCounters = NO_COUNTERS

    def add(self, node_id: int, value: Any) -> None:
        """Index *node_id* under *value* (no-op for unstorable values)."""
        if value is None or not is_storable(value):
            return
        self.discard(node_id)
        bucket_key = grouping_key(value)
        self._by_value.setdefault(bucket_key, set()).add(node_id)
        self._value_of[node_id] = bucket_key

    def discard(self, node_id: int) -> None:
        """Remove *node_id* from the index if present."""
        bucket_key = self._value_of.pop(node_id, None)
        if bucket_key is None:
            return
        bucket = self._by_value.get(bucket_key)
        if bucket is not None:
            bucket.discard(node_id)
            if not bucket:
                del self._by_value[bucket_key]

    def ids(self, value: Any) -> list[int]:
        """Ids of nodes whose property equals *value* (equivalence).

        A fresh ascending list; ``null`` equals nothing.
        """
        self.counters.index_lookup()
        if value is None:
            return []
        return sorted(self._by_value.get(grouping_key(value), ()))

    def peers(self, node_id: int) -> list[int]:
        """The *other* nodes sharing *node_id*'s indexed value, ascending."""
        bucket = self._by_value.get(self._value_of.get(node_id), ())
        return sorted(other for other in bucket if other != node_id)

    def bucket_size(self, value: Any) -> int:
        """Size of *value*'s bucket, without counting a db-hit.

        The selectivity estimate -- unlike :meth:`ids` this is a
        statistic read, not a probe, so it leaves the
        ``index_lookups`` counter alone.
        """
        if value is None:
            return 0
        return len(self._by_value.get(grouping_key(value), ()))

    def bucket_count(self) -> int:
        """Number of distinct indexed values."""
        return len(self._by_value)

    def average_bucket_size(self) -> float:
        """Expected candidate count of a probe with an unknown value.

        ``entries / distinct values`` -- 1.0 for a unique-ish index,
        larger when values repeat, 0.0 for an empty index.  No db-hit:
        this is a statistic, not a lookup.
        """
        if not self._by_value:
            return 0.0
        return len(self._value_of) / len(self._by_value)

    def duplicate_buckets(self) -> list[list[int]]:
        """Every value bucket holding more than one node, ids ascending."""
        return [
            sorted(bucket)
            for bucket in self._by_value.values()
            if len(bucket) > 1
        ]

    def __len__(self) -> int:
        return len(self._value_of)

    def __repr__(self) -> str:
        return f"PropertyIndex(:{self.label}({self.key}), {len(self)} entries)"
