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

The read path has one body per question: every path list is prepared
once per clause execution (:class:`~repro.runtime.match_planner.PreparedPattern`)
and runs as a plan through :func:`_run_plan` (planner off = the written
plan); :func:`record_values` evaluates the pattern's property maps
before any candidate is enumerated, so whether a record raises does not
depend on the plan; :func:`_node_candidates` enumerates the access path
the store chose (``GraphStore.node_access``) and :func:`_hop` steps through
the store's id-level kernels (``match_nodes`` / ``expand`` /
``node_matches``), so a candidate is an integer until it is accepted
and only a bound one becomes a ``Node`` / ``Relationship`` handle.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import CypherTypeError
from repro.graph.model import Node, Path, Relationship
from repro.graph.values import type_name
from repro.parser import ast
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.match_planner import (
    NodeStep,
    PathPlan,
    PreparedPath,
    PreparedPattern,
    RelStep,
)

#: what a homomorphism step must avoid: no relationship is ever in use
_NOTHING_USED: frozenset[int] = frozenset()

#: memo entry of a step whose property map reads variables the pattern
#: itself still has to bind for this record: evaluated at every visit
PER_VISIT = object()


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

    Prepares the pattern for this one record; a clause that matches a
    whole table prepares once and calls :func:`match_prepared` per
    record.
    """
    return match_prepared(ctx, PreparedPattern(ctx, tuple(paths)), record)


def match_prepared(
    ctx: EvalContext,
    prepared: PreparedPattern,
    record: Mapping[str, Any],
) -> Iterator[dict]:
    """All extensions of *record* matching a prepared path list.

    Every path list runs as a plan through :func:`_run_plan` -- MERGE's
    read half, OPTIONAL MATCH and pattern predicates included.  With
    the planner off the plan is the *written* one (written order, each
    path anchored at its first node, nothing estimated): the paper's
    naive strategy and the order-defining reference.  With it on,
    :meth:`~repro.runtime.match_planner.PreparedPattern.plan` picks
    anchors and path order (once per null-pattern), and the result is
    still exactly the written plan's: the same multiset always, and --
    when ``ctx.preserve_match_order`` is set -- the same (ascending-id)
    order, by buffering one record's matches and re-sorting them on
    their naive enumeration keys.  Errors are the written plan's too:
    :func:`record_values` runs before either plan enumerates anything.
    """
    values = record_values(ctx, prepared, record)
    ordered: Sequence[PathPlan] = prepared.written
    keys = None
    if ctx.use_planner:
        plan = prepared.plan(ctx, record)
        if ctx.profile is not None:
            ctx.profile.annotate(
                anchor=plan.anchor_summary(),
                paths_reordered=plan.moved_count(),
            )
        if not ctx.preserve_match_order or plan.trivial:
            ordered = plan.ordered
        elif all(path.sort_spec is not None for path in prepared.paths):
            ordered = plan.ordered
            keys = [None] * len(ordered)
        # else: a path with two or more variable-length steps has no
        # reconstructible enumeration key; reproduce the order by
        # construction (the written plan) instead.
    matches = _run_plan(
        ctx, prepared.paths, ordered, 0, dict(record), set(), values, keys
    )
    if keys is None:
        return matches
    return _in_written_order(matches, keys)


def record_values(
    ctx: EvalContext, prepared: PreparedPattern, record: Mapping[str, Any]
) -> list:
    """The record's value memo: one slot per step of *prepared*.

    Every property map that reads only the record is evaluated here,
    once, in written order, before any candidate is enumerated -- so
    planner on and off raise the same error, whichever element would
    have run out of candidates first.  MATCH denotes a bag of
    assignments with no evaluation order (Francis et al., *Formal
    Semantics of the Language Cypher*), so this order is the
    implementation's to define.  The probe and every candidate then
    compare against the same values, and the expressions cost one
    evaluation (and its db-hits) per record.  A map reading variables
    the pattern binds itself is :data:`PER_VISIT`; a step without
    checks keeps None.
    """
    values: list = [None] * prepared.slots
    for step in prepared.checked:
        if step.refs and not step.refs <= record.keys():
            values[step.slot] = PER_VISIT
        else:
            values[step.slot] = _evaluated(ctx, step, record)
    return values


def evaluate_step(
    ctx: EvalContext, step: NodeStep | RelStep, bindings: Mapping[str, Any],
    values: list,
) -> tuple[tuple[str, Any, Any], ...] | None:
    """The step's checks as ``(key, compare, value)`` entries.

    The record's entry from *values* (:func:`record_values`), or for a
    :data:`PER_VISIT` step the map evaluated against the bindings of
    this visit.
    """
    known = values[step.slot]
    if known is PER_VISIT:
        return _evaluated(ctx, step, bindings)
    return known


def _evaluated(
    ctx: EvalContext, step: NodeStep | RelStep, bindings: Mapping[str, Any]
) -> tuple[tuple[str, Any, Any], ...]:
    return tuple(
        [(key, compare, fn(ctx, bindings)) for key, compare, fn in step.items]
    )


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

def _in_written_order(matches: Iterator[dict], keys: list) -> Iterator[dict]:
    """One record's matches, re-sorted on their naive enumeration keys."""
    keyed = [(tuple(keys), bindings) for bindings in matches]
    keyed.sort(key=itemgetter(0))
    for __, bindings in keyed:
        yield bindings


def _run_plan(
    ctx: EvalContext,
    paths: Sequence[PreparedPath],
    ordered: Sequence[PathPlan],
    position: int,
    bindings: dict,
    used: set[int],
    values: list,
    keys: list | None = None,
) -> Iterator[dict]:
    """Enumerate matches path by path in planned order.

    Starts at ``position`` 0 with a private copy of the record as
    *bindings* and an empty *used* set.  With *keys* (one
    slot per path), slot *i* holds the sort key of written path *i*'s
    current match whenever a match is yielded -- the naive nesting
    order, so sorting on the slots reproduces naive enumeration.
    """
    if position == len(ordered):
        yield dict(bindings)
        return
    __, written_index, anchor_index, __, __ = ordered[position]
    path = paths[written_index]
    if anchor_index == 0:
        matches = _match_single_path(ctx, path, bindings, used, values)
    else:
        matches = _match_from(ctx, path, anchor_index, bindings, used, values)
    variable = path.path.variable
    for nodes, rels in matches:
        added_path = False
        if variable is not None and variable not in bindings:
            bindings[variable] = Path(nodes, rels)
            added_path = True
        if keys is not None:
            keys[written_index] = _written_key(path.sort_spec, nodes, rels)
        try:
            yield from _run_plan(
                ctx, paths, ordered, position + 1, bindings, used, values,
                keys,
            )
        finally:
            if added_path:
                del bindings[variable]


def _match_from(
    ctx: EvalContext,
    path: PreparedPath,
    anchor_index: int,
    bindings: dict,
    used: set[int],
    values: list,
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
    leftward, rightward = path.split_at(anchor_index)
    left_nodes: list[Node] = []
    left_rels: list[Relationship] = []
    right_nodes: list[Node] = []
    right_rels: list[Relationship] = []
    stream = _anchors(ctx, rightward[0], left_nodes, bindings, values)
    stream = _hops(
        ctx, stream, leftward, left_nodes, left_rels, bindings, used, values
    )
    stream = _restart(stream, left_nodes, right_nodes)
    stream = _hops(
        ctx, stream, rightward, right_nodes, right_rels, bindings, used,
        values,
    )
    for __ in stream:
        yield (
            left_nodes[::-1] + right_nodes[1:],
            left_rels[::-1] + right_rels,
        )


def _restart(
    stream: Iterator[Node], walked: list[Node], nodes_acc: list[Node]
) -> Iterator[Node]:
    """Start a second walk at the first node of the walk *stream* did."""
    for __ in stream:
        nodes_acc.append(walked[0])
        try:
            yield walked[0]
        finally:
            nodes_acc.pop()


# ---------------------------------------------------------------------------
# Legacy-order sort keys
# ---------------------------------------------------------------------------

def _written_key(spec: tuple, nodes: list, rels: list) -> tuple:
    """The naive enumeration key of one matched path.

    *spec* is the path's ``PreparedPath.sort_spec``.  Tuple
    comparison on variable-length segments matches the matcher's
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
    path: PreparedPath,
    bindings: dict,
    used: set[int],
    values: list,
) -> Iterator[tuple[list[Node], list[Relationship]]]:
    nodes_acc: list[Node] = []
    rels_acc: list[Relationship] = []
    stream = _anchors(ctx, path.steps[0], nodes_acc, bindings, values)
    stream = _hops(
        ctx, stream, path.steps, nodes_acc, rels_acc, bindings, used, values
    )
    for __ in stream:
        yield list(nodes_acc), list(rels_acc)


# A path is walked by a chain of generators, one per pattern element,
# each pulling its start nodes from the one before it: while a stage is
# suspended at its ``yield`` the node it yielded is bound, on the
# accumulators and (its relationship) on the trail, so the stages after
# it see exactly the state the nested loops of a recursive walk would
# -- in the same order -- without a generator per candidate.

def _anchors(
    ctx: EvalContext,
    step: NodeStep,
    nodes_acc: list[Node],
    bindings: dict,
    values: list,
) -> Iterator[Node]:
    """The nodes a walk can start at, each bound while it is current."""
    variable = step.variable
    if variable in bindings:
        variable = None  # pre-checked for equality by _node_candidates
    for node in _node_candidates(ctx, step, bindings, values):
        if variable is not None:
            bindings[variable] = node
        nodes_acc.append(node)
        try:
            yield node
        finally:
            nodes_acc.pop()
            if variable is not None:
                del bindings[variable]


def _hops(
    ctx: EvalContext,
    stream: Iterator[Node],
    steps: tuple,
    nodes_acc: list[Node],
    rels_acc: list[Relationship],
    bindings: dict,
    used: set[int],
    values: list,
) -> Iterator[Node]:
    """*stream* extended by every relationship step of *steps*."""
    for index in range(1, len(steps), 2):
        hop = _hop if steps[index].var_length is None else _var_length_hop
        stream = hop(
            ctx, stream, steps[index], steps[index + 1], nodes_acc, rels_acc,
            bindings, used, values,
        )
    return stream


def _hop(
    ctx: EvalContext,
    stream: Iterator[Node],
    rel_step: RelStep,
    node_step: NodeStep,
    nodes_acc: list[Node],
    rels_acc: list[Relationship],
    bindings: dict,
    used: set[int],
    values: list,
) -> Iterator[Node]:
    """One fixed step from every node of *stream*."""
    store = ctx.store
    track_used = ctx.match_mode is MatchMode.TRAIL
    avoid = used if track_used else _NOTHING_USED
    outgoing = rel_step.direction != ast.IN
    incoming = rel_step.direction != ast.OUT
    type_ids = rel_step.type_ids
    mask = node_step.mask
    for current in stream:
        # The bindings visible to the two patterns' property
        # expressions are fixed while this node is current (the step's
        # own variables are bound only after the check), so a per-visit
        # map is evaluated once here (a record-only one was, once, by
        # record_values) and the store compares it with every candidate.
        rel_items = evaluate_step(ctx, rel_step, bindings, values)
        node_items = evaluate_step(ctx, node_step, bindings, values)
        rel_ids = end = None
        rel_variable = rel_step.variable
        if rel_variable is not None and rel_variable in bindings:
            value = bindings[rel_variable]
            if value is None:
                continue
            if not isinstance(value, Relationship):
                raise CypherTypeError(
                    f"variable '{rel_variable}' is bound to "
                    f"{type_name(value)}, expected a Relationship"
                )
            # A bound relationship was never type-filtered or oriented;
            # adjacency-derived candidates already are.
            rel_ids = (value.id,)
            rel_variable = None
        node_variable = node_step.variable
        if node_variable is not None and node_variable in bindings:
            end = _bound_node_id(bindings[node_variable])
            node_variable = None
        for rel_id, node_id in store.expand(
            current.id, outgoing, incoming, type_ids, rel_items, avoid,
            rel_ids=rel_ids, end=end, end_mask=mask, end_items=node_items,
        ):
            # Accepted: only now do the ids become handles.
            rel = Relationship(store, rel_id)
            node = Node(store, node_id)
            if rel_variable is not None:
                bindings[rel_variable] = rel
            if node_variable is not None:
                bindings[node_variable] = node
            if track_used:
                used.add(rel_id)
            nodes_acc.append(node)
            rels_acc.append(rel)
            try:
                yield node
            finally:
                nodes_acc.pop()
                rels_acc.pop()
                if track_used:
                    used.discard(rel_id)
                if node_variable is not None:
                    del bindings[node_variable]
                if rel_variable is not None:
                    del bindings[rel_variable]


def _var_length_hop(
    ctx: EvalContext,
    stream: Iterator[Node],
    rel_step: RelStep,
    node_step: NodeStep,
    nodes_acc: list[Node],
    rels_acc: list[Relationship],
    bindings: dict,
    used: set[int],
    values: list,
) -> Iterator[Node]:
    """One variable-length step from every node of *stream*."""
    store = ctx.store
    lower, upper = rel_step.var_length
    lower = 1 if lower is None else lower
    if upper is None:
        if ctx.match_mode is MatchMode.HOMOMORPHISM:
            upper = ctx.homomorphism_hop_limit
        else:
            # Trails cannot repeat relationships, so the graph size
            # bounds the expansion.
            upper = store.relationship_count()
    track_used = ctx.match_mode is MatchMode.TRAIL
    avoid = used if track_used else _NOTHING_USED
    outgoing = rel_step.direction != ast.IN
    incoming = rel_step.direction != ast.OUT
    type_ids = rel_step.type_ids
    mask = node_step.mask

    def expand(
        node_id: int, depth: int, segment: list[int], visited: list[int]
    ) -> Iterator[Node]:
        if (
            depth >= lower
            and (end is None or end == node_id)
            and (unconstrained or store.node_matches(node_id, mask, node_items))
        ):
            # The segment becomes handles only now that it is bound.  A
            # zero-length segment contributes no new path nodes (its
            # end *is* the start); a k-step segment its k visited nodes.
            rels = [Relationship(store, rel_id) for rel_id in segment]
            node = Node(store, node_id)
            list_added = _bind(bindings, rel_step.variable, rels)
            node_added = _bind(bindings, node_step.variable, node)
            nodes_mark, rels_mark = len(nodes_acc), len(rels_acc)
            nodes_acc.extend([Node(store, n) for n in visited])
            rels_acc.extend(rels)
            try:
                yield node
            finally:
                del nodes_acc[nodes_mark:]
                del rels_acc[rels_mark:]
                _unbind(bindings, node_step.variable, node_added)
                _unbind(bindings, rel_step.variable, list_added)
        if depth >= upper:
            return
        # A bound relationship variable constrains the whole list, not
        # the single steps, so the expansion always reads the adjacency.
        for rel_id, next_id in store.expand(
            node_id, outgoing, incoming, type_ids, rel_items, avoid
        ):
            if track_used:
                used.add(rel_id)
            segment.append(rel_id)
            visited.append(next_id)
            try:
                yield from expand(next_id, depth + 1, segment, visited)
            finally:
                visited.pop()
                segment.pop()
                if track_used:
                    used.discard(rel_id)

    for current in stream:
        # Bindings at every check inside one expansion equal the
        # bindings at its start (deeper binds are undone before the
        # loop resumes), so a per-visit map is evaluated once for the
        # whole expansion.
        rel_items = evaluate_step(ctx, rel_step, bindings, values)
        node_items = evaluate_step(ctx, node_step, bindings, values)
        end = None
        if node_step.variable is not None and node_step.variable in bindings:
            end = _bound_node_id(bindings[node_step.variable])
        unconstrained = not mask and not node_items
        yield from expand(current.id, 0, [], [])


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------

def _node_candidates(
    ctx: EvalContext, step: NodeStep, bindings: dict, values: list
) -> Iterable[Node]:
    """The nodes *step* can start a path at, ascending (lazily)."""
    store = ctx.store
    variable = step.variable
    if variable is not None and variable in bindings:
        value = bindings[variable]
        if value is None:
            return ()
        if not isinstance(value, Node):
            raise CypherTypeError(
                f"variable '{variable}' is bound to {type_name(value)}, "
                f"expected a Node"
            )
        items = evaluate_step(ctx, step, bindings, values)
        if step.mask or items:
            # A handle to a node that no longer exists fails here, as
            # reading its labels would.
            store.node_is_deleted(value.id)
            if not store.node_matches(value.id, step.mask, items):
                return ()
        return (value,)
    items = evaluate_step(ctx, step, bindings, values)
    probes = items[: step.equalities] if step.equalities else ()
    # The store picks the one source to enumerate (a superset of the
    # matches) from the labels and equalities, and filters it against
    # the other labels and every property check; what passes is bound,
    # so it becomes a handle.
    __, __, ids = store.node_access(step.labels, probes, fetch=True)
    return map(
        partial(Node, store), store.match_nodes(ids, step.mask, items)
    )


def _bound_node_id(bound: Any) -> int:
    """The node id a bound variable pins a step's far end to.

    A variable bound to anything but a node matches no node (-1).
    """
    return bound.id if isinstance(bound, Node) else -1


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


def _unbind(bindings: dict, variable: str | None, added: bool) -> None:
    if added and variable is not None:
        del bindings[variable]
