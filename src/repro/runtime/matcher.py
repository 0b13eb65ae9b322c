"""Graph pattern matching.

Implements the relation ``(p, G, u) |= pi`` of Section 8.1: given a
graph and an assignment *u* (the current record), enumerate all ways to
match a tuple of path patterns, extending *u* with bindings for the
pattern's variables.

Two regimes are supported (see Section 2 and the Example 7 discussion):

* **trail** (Cypher's default): distinct relationship patterns must map
  to distinct relationships.  The ``used`` set is shared across *all*
  path patterns of one MATCH, including the steps of variable-length
  patterns, which is what keeps ``MATCH (v)-[*]->(v)`` finite.

* **homomorphism**: relationships may be reused; variable-length
  patterns are capped by ``EvalContext.homomorphism_hop_limit`` when no
  upper bound is given (otherwise the output could be infinite).

Enumeration order is deterministic (ascending entity ids) so that the
*legacy* executor's anomalies are reproducible on demand; the revised
semantics never depends on this order.

The read path has one body per question: :func:`match_paths` runs every
path list as a plan through :func:`_run_plan` (planner off = the
written plan), :func:`_node_candidates` enumerates the access path the
store chose (``GraphStore.node_access``), and :func:`_rel_candidates`
reads the one adjacency enumerator (``GraphStore.adjacent_rel_ids``).
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import CypherTypeError
from repro.graph.model import Node, Path, Relationship
from repro.graph.values import cypher_eq, type_name
from repro.parser import ast
from repro.runtime.compiler import compile_map_items
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.match_planner import PathPlan, plan_paths


def match_pattern(
    ctx: EvalContext, pattern: ast.Pattern, record: Mapping[str, Any]
) -> Iterator[dict]:
    """All extensions of *record* matching every path in *pattern*."""
    return match_paths(ctx, pattern.paths, record)


def match_paths(
    ctx: EvalContext,
    paths: Iterable[ast.PathPattern],
    record: Mapping[str, Any],
) -> Iterator[dict]:
    """All extensions of *record* matching the given path patterns.

    Every path list runs as a plan through :func:`_run_plan` -- MERGE's
    read half, OPTIONAL MATCH and pattern predicates included.  With
    the planner off the plan is the *written* one (written order, each
    path anchored at its first node, nothing estimated): the paper's
    naive strategy and the order-defining reference.  With it on,
    :func:`~repro.runtime.match_planner.plan_paths` picks anchors and
    path order, and the result is still exactly the written plan's:
    the same multiset always, and -- when ``ctx.preserve_match_order``
    is set -- the same (ascending-id) order, by buffering one record's
    matches and re-sorting them on their naive enumeration keys.
    """
    paths = tuple(paths)
    if ctx.use_planner:
        plan = plan_paths(ctx, paths, record)
        if ctx.profile is not None:
            ctx.profile.annotate(
                anchor=plan.anchor_summary(),
                paths_reordered=plan.moved_count(),
            )
        if not ctx.preserve_match_order or plan.trivial:
            return _run_plan(ctx, plan.ordered, 0, dict(record), set())
        if all(_path_sort_spec(path) is not None for path in paths):
            return _in_written_order(ctx, plan.ordered, record)
        # A path with two or more variable-length steps has no
        # reconstructible enumeration key; reproduce the order by
        # construction instead.
    written = [PathPlan(path, index, 0) for index, path in enumerate(paths)]
    return _run_plan(ctx, written, 0, dict(record), set())


def pattern_variables(pattern: ast.Pattern) -> tuple[str, ...]:
    """All variables a pattern introduces or constrains, in order."""
    names: list[str] = []
    for path in pattern.paths:
        if path.variable is not None:
            names.append(path.variable)
        for element in path.elements:
            if element.variable is not None:
                names.append(element.variable)
    seen: set[str] = set()
    unique = []
    for name in names:
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return tuple(unique)


# ---------------------------------------------------------------------------
# Plans: the one path-list enumerator
# ---------------------------------------------------------------------------

def _in_written_order(
    ctx: EvalContext,
    ordered: Sequence[PathPlan],
    record: Mapping[str, Any],
) -> Iterator[dict]:
    """One record's matches, re-sorted on their naive enumeration keys."""
    keys: list[Any] = [None] * len(ordered)
    keyed = [
        (tuple(keys), bindings)
        for bindings in _run_plan(ctx, ordered, 0, dict(record), set(), keys)
    ]
    keyed.sort(key=itemgetter(0))
    for __, bindings in keyed:
        yield bindings


def _run_plan(
    ctx: EvalContext,
    ordered: Sequence[PathPlan],
    position: int,
    bindings: dict,
    used: set[int],
    keys: list | None = None,
) -> Iterator[dict]:
    """Enumerate matches path by path in planned order.

    Starts at ``position`` 0 with a private copy of the record as
    *bindings* and an empty *used* set.  With *keys* (one slot per
    path), slot *i* holds the sort key of written path *i*'s current
    match whenever a match is yielded -- the naive nesting order, so
    sorting on the slots reproduces naive enumeration.
    """
    if position == len(ordered):
        yield dict(bindings)
        return
    path, written_index, anchor_index, __, __ = ordered[position]
    if anchor_index == 0:
        matches = _match_single_path(ctx, path, bindings, used)
    else:
        matches = _match_from(ctx, path, anchor_index, bindings, used)
    for nodes, rels in matches:
        added_path = False
        if path.variable is not None and path.variable not in bindings:
            bindings[path.variable] = Path(nodes, rels)
            added_path = True
        if keys is not None:
            keys[written_index] = _written_key(
                _path_sort_spec(path), nodes, rels
            )
        try:
            yield from _run_plan(
                ctx, ordered, position + 1, bindings, used, keys
            )
        finally:
            if added_path:
                del bindings[path.variable]


def _match_from(
    ctx: EvalContext,
    path: ast.PathPattern,
    anchor_index: int,
    bindings: dict,
    used: set[int],
) -> Iterator[tuple[list, list]]:
    """Match one path starting at node element *anchor_index* > 0.

    Expansion runs leftwards from the anchor first (over the mirrored
    prefix, relationship directions flipped), then rightwards; nesting
    the two generators keeps the left segment's bindings and trail
    entries live while the right segment enumerates, exactly like the
    matcher's own recursion.  Yields ``(nodes, rels)`` reassembled in
    written orientation, so path-variable bindings are unaffected by
    where the walk started.
    """
    elements = path.elements
    split = 2 * anchor_index
    anchor = elements[split]
    leftward = mirror_elements(elements[: split + 1])
    rightward = elements[split:]
    for node in _node_candidates(ctx, anchor, bindings):
        added = _bind(bindings, anchor.variable, node)
        try:
            for left_nodes, left_rels in _extend(
                ctx, leftward, 1, node, [node], [], bindings, used
            ):
                for right_nodes, right_rels in _extend(
                    ctx, rightward, 1, node, [node], [], bindings, used
                ):
                    yield (
                        left_nodes[::-1] + right_nodes[1:],
                        left_rels[::-1] + right_rels,
                    )
        finally:
            _unbind(bindings, anchor.variable, added)


@lru_cache(maxsize=1024)
def mirror_elements(prefix: tuple) -> tuple:
    """*prefix* reversed with relationship directions flipped.

    The mirrored element list starts at the anchor and walks back to
    the path's written start; cached because the same pattern is
    planned once per driving record.
    """
    mirrored = []
    for element in reversed(prefix):
        if isinstance(element, ast.RelationshipPattern):
            if element.direction == ast.OUT:
                element = dataclasses.replace(element, direction=ast.IN)
            elif element.direction == ast.IN:
                element = dataclasses.replace(element, direction=ast.OUT)
        mirrored.append(element)
    return tuple(mirrored)


# ---------------------------------------------------------------------------
# Legacy-order sort keys
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _path_sort_spec(path: ast.PathPattern) -> tuple | None:
    """Step shape of *path* for key reconstruction, or None.

    A match's naive enumeration key is the anchor node id followed by
    one entry per relationship step: the relationship id for a fixed
    step, the id tuple for a variable-length segment.  With at most one
    variable-length step its segment length can be recovered from the
    match (total rels minus fixed steps); with two or more the split is
    ambiguous and the key is not reconstructible.
    """
    steps = tuple(
        "var" if rel.is_var_length else "fixed"
        for rel in path.relationships
    )
    if steps.count("var") >= 2:
        return None
    return steps


def _written_key(spec: tuple, nodes: list, rels: list) -> tuple:
    """The naive enumeration key of one matched path (see spec above).

    Tuple comparison on variable-length segments matches the matcher's
    prefix-first expansion: ``()`` < ``(5,)`` < ``(5, 3)`` < ``(9,)``.
    """
    key: list[Any] = [nodes[0].id]
    segment_length = len(rels) - spec.count("fixed")
    position = 0
    for step in spec:
        if step == "fixed":
            key.append(rels[position].id)
            position += 1
        else:
            key.append(
                tuple(rel.id for rel in rels[position:position + segment_length])
            )
            position += segment_length
    return tuple(key)


# ---------------------------------------------------------------------------
# One path from its first node: the naive reference
# ---------------------------------------------------------------------------

def _match_single_path(
    ctx: EvalContext,
    path: ast.PathPattern,
    bindings: dict,
    used: set[int],
) -> Iterator[tuple[list[Node], list[Relationship]]]:
    elements = path.elements
    first = elements[0]
    for node in _node_candidates(ctx, first, bindings):
        added = _bind(bindings, first.variable, node)
        try:
            yield from _extend(
                ctx, elements, 1, node, [node], [], bindings, used
            )
        finally:
            _unbind(bindings, first.variable, added)


def _extend(
    ctx: EvalContext,
    elements: tuple,
    index: int,
    current: Node,
    nodes_acc: list[Node],
    rels_acc: list[Relationship],
    bindings: dict,
    used: set[int],
) -> Iterator[tuple[list[Node], list[Relationship]]]:
    if index >= len(elements):
        yield list(nodes_acc), list(rels_acc)
        return
    rel_pattern = elements[index]
    node_pattern = elements[index + 1]
    if rel_pattern.is_var_length:
        yield from _extend_var_length(
            ctx,
            elements,
            index,
            current,
            nodes_acc,
            rels_acc,
            bindings,
            used,
        )
        return
    # The bindings visible to the pattern's property expressions are
    # fixed for the duration of this step (this element's own variables
    # are bound only after the property check), so each property map is
    # evaluated once here and reused for every candidate.
    rel_props = _evaluate_properties(ctx, rel_pattern.properties, bindings)
    node_props = _evaluate_properties(ctx, node_pattern.properties, bindings)
    for rel, next_node in _rel_candidates(
        ctx, rel_pattern, current, bindings, used, rel_props
    ):
        if not _node_matches(ctx, node_pattern, next_node, bindings, node_props):
            continue
        rel_added = _bind(bindings, rel_pattern.variable, rel)
        node_added = _bind(bindings, node_pattern.variable, next_node)
        track_used = ctx.match_mode is MatchMode.TRAIL
        if track_used:
            used.add(rel.id)
        nodes_acc.append(next_node)
        rels_acc.append(rel)
        try:
            yield from _extend(
                ctx,
                elements,
                index + 2,
                next_node,
                nodes_acc,
                rels_acc,
                bindings,
                used,
            )
        finally:
            nodes_acc.pop()
            rels_acc.pop()
            if track_used:
                used.discard(rel.id)
            _unbind(bindings, node_pattern.variable, node_added)
            _unbind(bindings, rel_pattern.variable, rel_added)


def _extend_var_length(
    ctx: EvalContext,
    elements: tuple,
    index: int,
    current: Node,
    nodes_acc: list[Node],
    rels_acc: list[Relationship],
    bindings: dict,
    used: set[int],
) -> Iterator[tuple[list[Node], list[Relationship]]]:
    rel_pattern = elements[index]
    node_pattern = elements[index + 1]
    lower, upper = rel_pattern.var_length
    lower = 1 if lower is None else lower
    if upper is None:
        if ctx.match_mode is MatchMode.HOMOMORPHISM:
            upper = ctx.homomorphism_hop_limit
        else:
            # Trails cannot repeat relationships, so the graph size
            # bounds the expansion.
            upper = ctx.store.relationship_count()
    track_used = ctx.match_mode is MatchMode.TRAIL
    # Bindings at every _node_matches/_rel_candidates call inside the
    # expansion equal the bindings at entry (deeper binds are scoped to
    # the recursive branch and undone before the loop resumes), so the
    # property maps are evaluated once for the whole expansion.
    rel_props = _evaluate_properties(ctx, rel_pattern.properties, bindings)
    node_props = _evaluate_properties(ctx, node_pattern.properties, bindings)

    def expand(
        node: Node,
        depth: int,
        segment: list[Relationship],
        segment_nodes: list[Node],
    ) -> Iterator[tuple[list[Node], list[Relationship]]]:
        if depth >= lower and _node_matches(
            ctx, node_pattern, node, bindings, node_props
        ):
            list_added = _bind_list(bindings, rel_pattern.variable, segment)
            node_added = _bind(bindings, node_pattern.variable, node)
            try:
                # A zero-length segment contributes no new path nodes
                # (the endpoint *is* `current`); a k-step segment
                # contributes its k visited nodes.
                yield from _extend(
                    ctx,
                    elements,
                    index + 2,
                    node,
                    nodes_acc + segment_nodes,
                    rels_acc + segment,
                    bindings,
                    used,
                )
            finally:
                _unbind(bindings, node_pattern.variable, node_added)
                _unbind(bindings, rel_pattern.variable, list_added)
        if depth >= upper:
            return
        for rel, next_node in _rel_candidates(
            ctx,
            rel_pattern,
            node,
            bindings,
            used,
            rel_props,
            ignore_bound_variable=True,
        ):
            if track_used:
                used.add(rel.id)
            segment.append(rel)
            segment_nodes.append(next_node)
            try:
                yield from expand(next_node, depth + 1, segment, segment_nodes)
            finally:
                segment_nodes.pop()
                segment.pop()
                if track_used:
                    used.discard(rel.id)

    yield from expand(current, 0, [], [])


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------

def _evaluate_properties(
    ctx: EvalContext,
    properties: ast.MapLiteral | None,
    bindings: Mapping[str, Any],
) -> tuple[tuple[str, Any], ...] | None:
    """Evaluate a pattern's property map once against *bindings*.

    The returned ``(key, value)`` pairs are reused for every candidate
    the pattern is checked against, so each property expression costs
    one evaluation (and its db-hits) per pattern per record instead of
    one per candidate.
    """
    if properties is None:
        return None
    return tuple(
        (key, fn(ctx, bindings))
        for key, fn in compile_map_items(properties)
    )


def _node_candidates(
    ctx: EvalContext, pattern: ast.NodePattern, bindings: dict
) -> Iterator[Node]:
    variable = pattern.variable
    if variable is not None and variable in bindings:
        value = bindings[variable]
        if value is None:
            return
        if not isinstance(value, Node):
            raise CypherTypeError(
                f"variable '{variable}' is bound to {type_name(value)}, "
                f"expected a Node"
            )
        props = _evaluate_properties(ctx, pattern.properties, bindings)
        if _node_matches(ctx, pattern, value, bindings, props):
            yield value
        return
    props = _evaluate_properties(ctx, pattern.properties, bindings)
    store = ctx.store
    # The store picks the one source to enumerate (a superset of the
    # matches); the check below filters the other labels and properties.
    __, __, ids = store.node_access(pattern.labels, props or (), fetch=True)
    candidates = store.nodes() if ids is None else map(store.node, ids)
    for node in candidates:
        if _node_matches(ctx, pattern, node, bindings, props):
            yield node


def _node_matches(
    ctx: EvalContext,
    pattern: ast.NodePattern,
    node: Node,
    bindings: dict,
    props: tuple[tuple[str, Any], ...] | None,
) -> bool:
    variable = pattern.variable
    if variable is not None and variable in bindings:
        bound = bindings[variable]
        if not isinstance(bound, Node) or bound.id != node.id:
            return False
    if pattern.labels:
        # One label-set fetch for the whole pattern (one db-hit, not
        # one per label in the pattern).
        labels = node.labels
        for label in pattern.labels:
            if label not in labels:
                return False
    if props is not None:
        for key, value in props:
            if cypher_eq(node.get(key), value) is not True:
                return False
    return True


def _rel_candidates(
    ctx: EvalContext,
    pattern: ast.RelationshipPattern,
    current: Node,
    bindings: dict,
    used: set[int],
    props: tuple[tuple[str, Any], ...] | None,
    *,
    ignore_bound_variable: bool = False,
) -> Iterator[tuple[Relationship, Node]]:
    store = ctx.store
    variable = pattern.variable
    if (
        not ignore_bound_variable
        and variable is not None
        and variable in bindings
    ):
        value = bindings[variable]
        if value is None:
            return
        if not isinstance(value, Relationship):
            raise CypherTypeError(
                f"variable '{variable}' is bound to {type_name(value)}, "
                f"expected a Relationship"
            )
        candidate_ids: Iterable[int] = (value.id,)
        type_checked = False
    else:
        # Typed patterns use the per-type adjacency index and skip
        # relationships of other types without touching them; the store
        # builds one ordered id list per step instead of materialising
        # and unioning per-direction sets.
        candidate_ids = store.adjacent_rel_ids(
            current.id,
            outgoing=pattern.direction != ast.IN,
            incoming=pattern.direction != ast.OUT,
            types=pattern.types or None,
        )
        type_checked = True
    for rel_id in candidate_ids:
        if ctx.match_mode is MatchMode.TRAIL and rel_id in used:
            continue
        rel = store.relationship(rel_id)
        # A bound variable's relationship was never type-filtered;
        # adjacency-derived candidates already were.
        if not type_checked and pattern.types and rel.type not in pattern.types:
            continue
        source_id = rel.start.id
        target_id = rel.end.id
        # Orient the step: the relationship must actually attach to
        # `current` in a way compatible with the pattern's direction.
        if pattern.direction == ast.OUT:
            if source_id != current.id:
                continue
            next_node = rel.end
        elif pattern.direction == ast.IN:
            if target_id != current.id:
                continue
            next_node = rel.start
        else:
            if source_id == current.id:
                next_node = rel.end
            elif target_id == current.id:
                next_node = rel.start
            else:
                continue
        if props is not None:
            matched = True
            for key, value in props:
                if cypher_eq(rel.get(key), value) is not True:
                    matched = False
                    break
            if not matched:
                continue
        yield rel, next_node
        # An undirected pattern on a self-loop matches only once.


# ---------------------------------------------------------------------------
# Binding helpers
# ---------------------------------------------------------------------------

def _bind(bindings: dict, variable: str | None, value: Any) -> bool:
    """Bind variable -> value; returns True if a new binding was added."""
    if variable is None:
        return False
    if variable in bindings:
        return False  # pre-checked for equality by the caller
    bindings[variable] = value
    return True


def _bind_list(
    bindings: dict, variable: str | None, rels: list[Relationship]
) -> bool:
    """Bind a var-length relationship variable to the relationship list."""
    if variable is None:
        return False
    if variable in bindings:
        return False
    bindings[variable] = list(rels)
    return True


def _unbind(bindings: dict, variable: str | None, added: bool) -> None:
    if added and variable is not None:
        del bindings[variable]
