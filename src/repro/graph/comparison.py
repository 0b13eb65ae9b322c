"""Graph comparison: equality up to id renaming.

The revised MERGE semantics is deterministic only *up to id renaming*
(Section 8: "the output graph-table pairs are the same up to id
renaming").  Verifying the paper's determinism claims -- e.g. that
Example 3 under MERGE SAME yields Figure 6b no matter how the driving
table is ordered -- therefore requires deciding property-graph
isomorphism with label/type/property-preserving bijections.

One body decides it.  *Colour refinement* (1-dimensional
Weisfeiler-Lehman): a node starts coloured by its content signature,
and each round hashes its old colour with the sorted (edge bundle,
neighbour colour) pairs of its out- and in-edges, until the number of
colours stops growing.  Colours are named by content, never by a
per-graph index, so isomorphic graphs have equal colour histograms
(:func:`fingerprint`) and unequal ones reject at once.  *Backtracking
seeded by colour* then maps nodes in a connected order -- the smallest
colour class first, then always a node adjacent to a mapped one --
trying for each only the nodes of its colour, and checking a candidate
against the node's own in- and out-bundles only.  Refinement leaves the
search only graphs it cannot split, regular ones of uniform content,
where the connected order lets those checks reject a wrong image as
soon as it is tried.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

from repro.graph.model import GraphSnapshot


def fingerprint(snapshot: GraphSnapshot) -> str:
    """A content hash invariant under id renaming.

    Two isomorphic graphs always share a fingerprint; unequal
    fingerprints prove non-isomorphism.  (Equal fingerprints are almost
    always isomorphic but are confirmed with :func:`isomorphic`.)  Like
    Python's ``hash``, it is stable within one interpreter run.
    """
    histogram = frozenset(Counter(_refined(snapshot)[3].values()).items())
    return f"{hash(histogram) & (1 << 64) - 1:016x}"


def isomorphic(left: GraphSnapshot, right: GraphSnapshot) -> bool:
    """True iff the two graphs are equal up to id renaming."""
    if left.order() != right.order() or left.size() != right.size():
        return False
    left_sigs, left_out, left_in, left_colours = _refined(left)
    right_sigs, right_out, right_in, right_colours = _refined(right)
    if Counter(left_colours.values()) != Counter(right_colours.values()):
        return False
    classes: dict[int, list[int]] = {}
    for node, colour in right_colours.items():
        classes.setdefault(colour, []).append(node)
    # Search order: each component from its node of the smallest
    # colour class, then always a node adjacent to one placed before.
    order: list[int] = []
    placed: set[int] = set()
    for start in sorted(
        left_sigs, key=lambda n: (len(classes[left_colours[n]]), n)
    ):
        queue = [] if start in placed else [start]
        placed.add(start)
        for node in queue:  # breadth first: the loop sees what it appends
            order.append(node)
            for neighbour in (*left_out[node], *left_in[node]):
                if neighbour not in placed:
                    placed.add(neighbour)
                    queue.append(neighbour)
    mapping: dict[int, int] = {}
    inverse: dict[int, int] = {}

    def extend(node: int, image: int) -> bool:
        """Map *node* to *image* if each of its bundles to a mapped
        node (itself included) has its image there."""
        if image in inverse or left_sigs[node] != right_sigs[image]:
            return False
        mapping[node] = image
        if all(
            image_bundles.get(mapping[neighbour]) == bundle
            for bundles, image_bundles in (
                (left_out[node], right_out[image]),
                (left_in[node], right_in[image]),
            )
            for neighbour, bundle in bundles.items()
            if neighbour in mapping
        ):
            inverse[image] = node
            return True
        del mapping[node]
        return False

    # Depth-first over *order*, one candidate iterator per mapped node.
    # A bijection preserving every left bundle, with equal edge counts,
    # preserves the right ones too.
    stack = [iter(classes[left_colours[order[0]]])] if order else []
    while stack:
        node = order[len(stack) - 1]
        if node in mapping:
            del inverse[mapping.pop(node)]
        for image in stack[-1]:
            if extend(node, image):
                if len(stack) == len(order):
                    return True
                stack.append(iter(classes[left_colours[order[len(stack)]]]))
                break
        else:
            stack.pop()
    return not order


def _refined(snapshot: GraphSnapshot):
    """``(node sigs, out-bundles, in-bundles, stable colours)``.

    Dangling endpoints (legacy states) become nodes with a
    ``("<deleted>",)`` signature; parallel edges bundle into a multiset
    of relationship signatures per (source, target) pair, kept under
    both endpoints: ``out[source][target]`` is ``into[target][source]``.
    Colours hash content, so equal content (``1`` and ``1.0`` included)
    gets one colour in every graph.
    """
    sigs = {
        node_id: snapshot.node_signature(node_id)
        for node_id in snapshot.nodes
    }
    bundles: dict[tuple[int, int], Counter] = {}
    for rel_id in snapshot.relationships:
        source = snapshot.source[rel_id]
        target = snapshot.target[rel_id]
        for endpoint in (source, target):
            sigs.setdefault(endpoint, ("<deleted>",))
        bundles.setdefault((source, target), Counter())[
            snapshot.rel_signature(rel_id)
        ] += 1
    out: dict[int, dict[int, Counter]] = {node: {} for node in sigs}
    into: dict[int, dict[int, Counter]] = {node: {} for node in sigs}
    # per node, (bundle name, neighbour) pairs out of it and into it
    around: dict[int, tuple[list, list]] = {node: ([], []) for node in sigs}
    for (source, target), bundle in bundles.items():
        out[source][target] = into[target][source] = bundle
        name = hash(frozenset(bundle.items()))
        around[source][0].append((name, target))
        around[target][1].append((name, source))
    colours = {node: hash(sig) for node, sig in sigs.items()}
    count = len(set(colours.values()))
    while True:
        colours = {
            node: hash((
                colours[node],
                tuple(sorted([(name, colours[n]) for name, n in outward])),
                tuple(sorted([(name, colours[n]) for name, n in inward])),
            ))
            for node, (outward, inward) in around.items()
        }
        refined = len(set(colours.values()))
        if refined == count:
            return sigs, out, into, colours
        count = refined


def signature_counts(snapshot: GraphSnapshot) -> tuple[Counter, Counter]:
    """Multisets of node and relationship content signatures.

    A cheap isomorphism invariant used both as a filter and to produce
    readable diffs in assertion messages.
    """
    node_sigs = Counter(
        snapshot.node_signature(n) for n in snapshot.nodes
    )
    rel_sigs = Counter(
        (
            snapshot.rel_signature(r),
            snapshot.node_signature(snapshot.source[r])
            if snapshot.source[r] in snapshot.nodes
            else ("<deleted>",),
            snapshot.node_signature(snapshot.target[r])
            if snapshot.target[r] in snapshot.nodes
            else ("<deleted>",),
        )
        for r in snapshot.relationships
    )
    return node_sigs, rel_sigs


def describe(snapshot: GraphSnapshot) -> str:
    """Human-readable one-line description (counts + signature summary)."""
    node_sigs, rel_sigs = signature_counts(snapshot)
    labels = Counter()
    for (label_tuple, __), count in node_sigs.items():
        labels[label_tuple or ("<none>",)] += count
    label_text = ", ".join(
        f"{'|'.join(label)}x{count}" for label, count in sorted(labels.items())
    )
    return (
        f"{snapshot.order()} nodes ({label_text}), "
        f"{snapshot.size()} relationships"
    )


def assert_isomorphic(left: GraphSnapshot, right: GraphSnapshot) -> None:
    """Assert isomorphism with a diff-style failure message."""
    if isomorphic(left, right):
        return
    left_nodes, left_rels = signature_counts(left)
    right_nodes, right_rels = signature_counts(right)
    lines = ["graphs are not isomorphic:"]
    lines.append(f"  left:  {describe(left)}")
    lines.append(f"  right: {describe(right)}")
    only_left = left_nodes - right_nodes
    only_right = right_nodes - left_nodes
    if only_left:
        lines.append(f"  node signatures only in left:  {dict(only_left)}")
    if only_right:
        lines.append(f"  node signatures only in right: {dict(only_right)}")
    only_left_rels = left_rels - right_rels
    only_right_rels = right_rels - left_rels
    if only_left_rels:
        lines.append(f"  rel signatures only in left:  {dict(only_left_rels)}")
    if only_right_rels:
        lines.append(f"  rel signatures only in right: {dict(only_right_rels)}")
    raise AssertionError("\n".join(lines))


def value_signature(value: Any) -> str:
    """A total, canonical string signature for any runtime value.

    Unlike :func:`~repro.graph.values.grouping_key`, this never raises:
    every value -- including exotic or unhashable ones -- gets a
    deterministic signature.  Numbers are normalised the way grouping
    does (``1`` and ``1.0`` coincide), entities are keyed by id, and
    containers recurse, so two values with equal grouping keys always
    share a signature.  Used by ``DrivingTable`` record keying.
    """
    from repro.graph.model import Node, Path, Relationship

    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        if isinstance(value, float):
            if math.isnan(value):
                return "num:nan"
            if math.isinf(value):
                return "num:inf" if value > 0 else "num:-inf"
            if value.is_integer():
                return f"num:{int(value)}"
        return f"num:{value!r}"
    if isinstance(value, str):
        return f"str:{value}"
    if isinstance(value, Node):
        return f"node:{value.id}"
    if isinstance(value, Relationship):
        return f"rel:{value.id}"
    if isinstance(value, Path):
        nodes = ",".join(str(n.id) for n in value.nodes)
        rels = ",".join(str(r.id) for r in value.relationships)
        return f"path:[{nodes}]/[{rels}]"
    if isinstance(value, (list, tuple)):
        return "list:[" + ",".join(value_signature(v) for v in value) + "]"
    if isinstance(value, dict):
        items = ",".join(
            f"{key!r}:{value_signature(value[key])}"
            for key in sorted(value, key=repr)
        )
        return "map:{" + items + "}"
    try:
        return f"{type(value).__name__}:{value!r}"
    except Exception:
        return f"{type(value).__name__}:<unreprable>"
