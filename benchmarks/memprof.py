"""Memory profiling helpers for the P8 scaling experiment.

Three complementary measurements, all stdlib-only:

* :func:`deep_sizeof` -- iterative ``sys.getsizeof`` closure over an
  object graph with identity-based deduplication, so shared objects
  (interned strings, shared label ``frozenset`` instances, pooled
  property keys) are charged **once**.  This is what makes the
  before/after comparison honest: the columnar store's savings come
  precisely from sharing.
* :func:`rss_bytes` -- the process resident set from
  ``/proc/self/status`` (no psutil dependency; returns ``None`` off
  Linux), for the scaling-curve "can a 10M-node graph fit" question.
* :func:`peak_rss_bytes` -- the lifetime high-water mark (``VmHWM``),
  for the P11 "peak stays under 2x the steady-state store" criterion.
* :func:`measure_allocation` -- a ``tracemalloc`` bracket around a
  callable, reporting the net and peak allocation it caused.
* :func:`checkpoint_write_peak` -- that bracket around a checkpoint
  write, the number that separates the streaming format (O(batch)
  peak, flat across graph sizes) from the legacy blob (O(graph)).

:func:`store_memory_report` combines them into the bytes-per-entity
numbers the harness records, and :func:`naive_layout_bytes` prices the
same graph in the seed dict-of-objects layout (per-node label ``set``
and property ``dict``, ``dict[int, set[int]]`` adjacency with nested
per-type buckets) so the ≥2x reduction claim is measured against a
faithful replica rather than a remembered number.
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Any, Callable, Iterable

from repro.graph.store import GraphStore


def deep_sizeof(root: Any, *, seen: set[int] | None = None) -> int:
    """Total ``sys.getsizeof`` over *root* and everything it references.

    Iterative (no recursion limit), deduplicating by object identity:
    an object reachable through several paths is counted once.  Pass a
    shared *seen* set to charge objects across several calls only once
    (e.g. the string pool shared by every column).
    """
    if seen is None:
        seen = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        identity = id(obj)
        if identity in seen:
            continue
        seen.add(identity)
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(obj.__dict__)
        elif hasattr(obj, "__slots__"):
            for slot in obj.__slots__:
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def rss_bytes() -> int | None:
    """Current resident set size, or ``None`` where /proc is absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def peak_rss_bytes() -> int | None:
    """Lifetime peak resident set (``VmHWM``), or ``None`` off Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def measure_allocation(
    action: Callable[[], Any]
) -> tuple[Any, int, int]:
    """Run *action* under tracemalloc; returns (result, net, peak) bytes."""
    tracemalloc.start()
    try:
        before, __ = tracemalloc.get_traced_memory()
        result = action()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def checkpoint_write_peak(store: GraphStore, directory) -> int:
    """tracemalloc peak (bytes) of one checkpoint write.

    The writer serialises ``BATCH_ROWS``-sized records, so the peak is
    a small constant; P11 measures it at two graph sizes and records
    the growth ratio.
    """
    from repro.persistence.checkpoint import write_checkpoint

    __, __, peak = measure_allocation(
        lambda: write_checkpoint(directory, store)
    )
    return peak


def store_memory_report(store: GraphStore) -> dict:
    """Deep-size the store's hot structures, per entity.

    One shared ``seen`` set across all structures, so the string pool
    and the shared label frozensets are charged exactly once no matter
    how many columns reference them.
    """
    seen: set[int] = set()
    breakdown = {
        "string_pool": deep_sizeof(store._strings, seen=seen),
        "labelsets": (
            deep_sizeof(store._labelset_masks, seen=seen)
            + deep_sizeof(store._labelset_strings, seen=seen)
            + deep_sizeof(store._labelset_ids, seen=seen)
        ),
        "node_columns": (
            deep_sizeof(store._node_labelsets, seen=seen)
            + deep_sizeof(store._node_props, seen=seen)
            + deep_sizeof(store._node_deleted, seen=seen)
        ),
        "rel_columns": (
            deep_sizeof(store._rel_types, seen=seen)
            + deep_sizeof(store._rel_source, seen=seen)
            + deep_sizeof(store._rel_target, seen=seen)
            + deep_sizeof(store._rel_props, seen=seen)
            + deep_sizeof(store._rel_deleted, seen=seen)
        ),
        "adjacency": (
            deep_sizeof(store._adj_out, seen=seen)
            + deep_sizeof(store._adj_in, seen=seen)
        ),
        "label_index": deep_sizeof(store._label_index, seen=seen),
        "property_indexes": deep_sizeof(
            store._property_indexes, seen=seen
        ),
    }
    total = sum(breakdown.values())
    nodes = max(store.node_count(), 1)
    rels = max(store.relationship_count(), 1)
    return {
        "total_bytes": total,
        "breakdown": breakdown,
        "bytes_per_node": round(
            (
                breakdown["node_columns"]
                + breakdown["labelsets"]
                + breakdown["label_index"]
            )
            / nodes,
            1,
        ),
        "bytes_per_rel": round(
            (breakdown["rel_columns"] + breakdown["adjacency"]) / rels, 1
        ),
        "bytes_per_entity": round(
            total / (store.node_count() + store.relationship_count() or 1),
            1,
        ),
    }


def naive_layout_bytes(
    nodes: Iterable[tuple[Iterable[str], dict]],
    rels: Iterable[tuple[str, int, int, dict]],
) -> int:
    """Deep size of the same data in the seed dict-of-objects layout.

    Replicates what the pre-columnar store kept per entity: a record
    object with a label ``set`` and property ``dict`` per node (fresh
    strings per record, as ``json``/CSV parsing produces), a record
    with type/source/target/properties per relationship, two
    ``dict[int, set[int]]`` adjacency maps, and the nested per-type
    ``dict[int, dict[str, set[int]]]`` maps.
    """

    class _NodeRecord:
        __slots__ = ("labels", "properties", "deleted")

        def __init__(self, labels, properties):
            self.labels = labels
            self.properties = properties
            self.deleted = False

    class _RelRecord:
        __slots__ = ("type", "source", "target", "properties", "deleted")

        def __init__(self, rel_type, source, target, properties):
            self.type = rel_type
            self.source = source
            self.target = target
            self.properties = properties
            self.deleted = False

    node_records: dict[int, Any] = {}
    out: dict[int, set[int]] = {}
    inn: dict[int, set[int]] = {}
    out_by_type: dict[int, dict[str, set[int]]] = {}
    in_by_type: dict[int, dict[str, set[int]]] = {}
    for node_id, (labels, properties) in enumerate(nodes):
        # str(...) forces distinct string objects per record, matching
        # what repeated parsing allocated before interning existed.
        node_records[node_id] = _NodeRecord(
            {str(label) for label in labels},
            {str(key): value for key, value in properties.items()},
        )
        out[node_id] = set()
        inn[node_id] = set()
        out_by_type[node_id] = {}
        in_by_type[node_id] = {}
    rel_records: dict[int, Any] = {}
    for rel_id, (rel_type, source, target, properties) in enumerate(rels):
        rel_records[rel_id] = _RelRecord(
            str(rel_type),
            source,
            target,
            {str(key): value for key, value in properties.items()},
        )
        out[source].add(rel_id)
        inn[target].add(rel_id)
        out_by_type[source].setdefault(str(rel_type), set()).add(rel_id)
        in_by_type[target].setdefault(str(rel_type), set()).add(rel_id)

    seen: set[int] = set()
    return (
        deep_sizeof(node_records, seen=seen)
        + deep_sizeof(rel_records, seen=seen)
        + deep_sizeof(out, seen=seen)
        + deep_sizeof(inn, seen=seen)
        + deep_sizeof(out_by_type, seen=seen)
        + deep_sizeof(in_by_type, seen=seen)
    )
