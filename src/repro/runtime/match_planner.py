"""Selectivity-driven MATCH planning: start points and path order.

The naive matcher (:mod:`repro.runtime.matcher`) anchors every path
pattern at its syntactically first node and runs the paths of one MATCH
in written order.  This module plans both choices from store statistics
before enumeration starts:

* **anchor selection** -- each path starts at the node pattern with the
  smallest estimated candidate count (bound variable < property-index
  hit < label scan < full scan, per :func:`estimate_element`), and the
  matcher expands from that anchor in *both* directions;

* **path ordering** -- paths whose anchors are cheapest run first, so
  later paths see more bound variables (a greedy join order).

Statistics come from :class:`~repro.graph.store.GraphStore` counters
that every mutation and every journal undo maintain (`node_count`,
`label_count`, `index_selectivity`, degrees), so planning itself costs
O(pattern size) and no db-hits.

Correctness:

* The set of matches is enumeration-order independent in both trail
  and homomorphism mode (the trail constraint -- all relationship
  occurrences distinct -- is a property of the complete assignment),
  so planning never changes revised-dialect results.
* The *legacy* dialect can observe enumeration order through the
  anomalies the paper documents, and the matcher promises ascending-id
  order.  When ``EvalContext.preserve_match_order`` is set the planner
  therefore re-sorts each record's matches back into naive order using
  per-path sort keys (anchor node id, then relationship ids step by
  step; variable-length segments compare as id tuples, which matches
  the prefix-first expansion order).  Patterns whose keys would be
  ambiguous (two or more variable-length steps in one path) fall back
  to the naive matcher.
* Property maps may reference variables bound earlier in the same
  pattern (the scoping rules validate written order).  Such patterns
  keep their written path order, and a path whose property maps read
  its *own* earlier variables keeps anchor 0, so every property
  expression still sees the bindings it was validated against.

:func:`planner_disabled` is the escape hatch mirroring
``compiler.compilation_disabled()``: inside the context manager the
naive matcher is the executable reference, which is how the benchmark
harness measures the unplanned baseline.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Iterator, Mapping

from repro.graph.model import Path
from repro.parser import ast
from repro.runtime import matcher
from repro.runtime.compiler import compile_expression
from repro.runtime.context import EvalContext

_ENABLED = True


@contextmanager
def planner_disabled() -> Iterator[None]:
    """Temporarily route all matching through the naive matcher.

    Used by the benchmark harness (unplanned baseline) and the
    equivalence tests; nesting is allowed.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def planning_active() -> bool:
    """True unless inside :func:`planner_disabled`."""
    return _ENABLED


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PathPlan:
    """One path's planned execution: where to start, what it costs."""

    path: ast.PathPattern
    #: position of this path in the written pattern
    written_index: int
    #: node-element index of the anchor (``path.nodes[anchor_index]``)
    anchor_index: int
    #: estimated candidate count of the anchor
    cost: float
    #: human-readable access path ("index :L(key)", "label scan :L", ...)
    access: str

    def describe(self) -> str:
        """``"p via index :Product(id)"``-style anchor description."""
        element = self.path.nodes[self.anchor_index]
        name = element.variable or f"#{self.anchor_index}"
        return f"{name} via {self.access}"


@dataclasses.dataclass(frozen=True)
class PatternPlan:
    """The planned execution of one MATCH pattern (all its paths)."""

    ordered: tuple[PathPlan, ...]

    @property
    def trivial(self) -> bool:
        """True when the plan is exactly the naive strategy."""
        return all(
            plan.written_index == position and plan.anchor_index == 0
            for position, plan in enumerate(self.ordered)
        )

    def moved_count(self) -> int:
        """How many paths run at a different position than written."""
        return sum(
            1
            for position, plan in enumerate(self.ordered)
            if plan.written_index != position
        )

    def anchor_summary(self) -> str:
        """One-line anchor description, paths in planned order."""
        return ", ".join(plan.describe() for plan in self.ordered)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def estimate_element(
    ctx: EvalContext,
    element: ast.NodePattern,
    bound: set[str],
    record: Mapping[str, Any],
) -> tuple[float, str]:
    """Estimated candidate count and access path for one node pattern.

    Reads only maintained statistics (never the index buckets through
    their counted accessors), so estimation costs no db-hits.
    """
    if element.variable is not None and element.variable in bound:
        return 0.0, f"bound({element.variable})"
    store = ctx.store
    best = float(store.node_count())
    access = "all nodes"
    for label in element.labels:
        count = float(store.label_count(label))
        if count < best:
            best = count
            access = f"label scan :{label}"
    indexed = False
    if element.properties is not None:
        for label in element.labels:
            for key, expr in element.properties.items:
                index = store.property_index(label, key)
                if index is None:
                    continue
                value = _try_evaluate(ctx, expr, record, bound)
                if value is _UNKNOWN:
                    # Index exists but the value depends on unbound
                    # variables; assume an average bucket.
                    estimate = max(1.0, index.average_bucket_size())
                else:
                    estimate = float(index.bucket_size(value))
                if estimate <= best:
                    best = estimate
                    access = f"index :{label}({key})"
                    indexed = True
    if (
        not indexed
        and element.properties is not None
        and element.properties.items
    ):
        # An un-indexed property map still filters; discount mildly so
        # a property-carrying end beats a bare one with the same label.
        best *= 0.9
    return best, access


_UNKNOWN = object()


def _try_evaluate(
    ctx: EvalContext,
    expression: ast.Expression,
    record: Mapping[str, Any],
    bound: set[str],
) -> Any:
    """Evaluate a property expression if its variables are bound."""
    if not _variables_of(expression) <= bound | set(record.keys()):
        return _UNKNOWN
    try:
        return compile_expression(expression)(ctx, dict(record))
    except Exception:
        return _UNKNOWN


def _variables_of(expression: ast.Expression) -> set[str]:
    from repro.runtime.aggregation import children

    names: set[str] = set()
    if isinstance(expression, ast.Variable):
        names.add(expression.name)
    for child in children(expression):
        names |= _variables_of(child)
    return names


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def plan_paths(
    ctx: EvalContext,
    paths: tuple[ast.PathPattern, ...],
    record: Mapping[str, Any],
) -> PatternPlan:
    """Choose an anchor per path and an execution order for *paths*."""
    bound = {name for name, value in record.items() if value is not None}
    provided = set()
    for path in paths:
        provided |= _path_provides(path)
    refs = [
        _property_refs(path) & provided - set(record) for path in paths
    ]
    keep_written_order = any(refs)
    plans: list[PathPlan] = []
    remaining = list(range(len(paths)))
    while remaining:
        candidates: list[PathPlan] = []
        for index in remaining:
            path = paths[index]
            own_refs = bool(refs[index] & _path_provides(path))
            anchor, cost, access = _choose_anchor(
                ctx, path, bound, record, pin_anchor=own_refs
            )
            candidates.append(PathPlan(path, index, anchor, cost, access))
            if keep_written_order:
                break  # written order: only the earliest unplanned path
        best = min(candidates, key=lambda plan: plan.cost)
        plans.append(best)
        remaining.remove(best.written_index)
        # Later paths benefit from the variables this one binds.
        bound |= _path_provides(best.path)
    return PatternPlan(tuple(plans))


def _choose_anchor(
    ctx: EvalContext,
    path: ast.PathPattern,
    bound: set[str],
    record: Mapping[str, Any],
    *,
    pin_anchor: bool,
) -> tuple[int, float, str]:
    """Cheapest anchor position for *path* (ties keep the leftmost).

    Anchors other than the first node are ruled out for paths with
    variable-length steps (their list bindings and sort keys are
    defined by left-to-right expansion) and for paths whose property
    maps read the path's own earlier variables (*pin_anchor*).
    """
    nodes = path.nodes
    best_index = 0
    best_cost, best_access = estimate_element(ctx, nodes[0], bound, record)
    movable = not pin_anchor and not any(
        rel.is_var_length for rel in path.relationships
    )
    if movable:
        for index in range(1, len(nodes)):
            cost, access = estimate_element(
                ctx, nodes[index], bound, record
            )
            if cost < best_cost:
                best_index, best_cost, best_access = index, cost, access
    return best_index, best_cost, best_access


def _path_provides(path: ast.PathPattern) -> set[str]:
    """Variables *path* binds: its elements' plus the path variable."""
    names = {
        element.variable
        for element in path.elements
        if element.variable is not None
    }
    if path.variable is not None:
        names.add(path.variable)
    return names


@lru_cache(maxsize=1024)
def _property_refs(path: ast.PathPattern) -> frozenset[str]:
    """Variables referenced by *path*'s property-map expressions."""
    names: set[str] = set()
    for element in path.elements:
        if element.properties is None:
            continue
        for __, expr in element.properties.items:
            names |= _variables_of(expr)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Planned enumeration
# ---------------------------------------------------------------------------

def match_paths_planned(
    ctx: EvalContext,
    paths: tuple[ast.PathPattern, ...],
    record: Mapping[str, Any],
) -> Iterator[dict]:
    """Planned counterpart of :func:`repro.runtime.matcher.match_paths`.

    Yields exactly the matches the naive matcher would: the same
    multiset always, and -- when ``ctx.preserve_match_order`` is set --
    in the same (ascending-id) order, by buffering one record's matches
    and re-sorting them on their naive enumeration keys.
    """
    plan = plan_paths(ctx, paths, record)
    if ctx.profile is not None:
        ctx.profile.annotate(
            anchor=plan.anchor_summary(),
            paths_reordered=plan.moved_count(),
        )
    naive = plan.trivial
    collect_keys = False
    if ctx.preserve_match_order and not naive:
        specs = [_path_sort_spec(path) for path in paths]
        if any(spec is None for spec in specs):
            # A path with two or more variable-length steps has no
            # reconstructible enumeration key; reproduce the order by
            # construction instead.
            naive = True
        else:
            collect_keys = True
    if naive:
        yield from matcher._match_path_list(
            ctx, paths, 0, dict(record), set()
        )
        return
    if not collect_keys:
        for bindings, __ in _run_plan(ctx, plan, record, False):
            yield bindings
        return
    buffered = [
        (keys, bindings)
        for bindings, keys in _run_plan(ctx, plan, record, True)
    ]
    buffered.sort(key=lambda pair: pair[0])
    for __, bindings in buffered:
        yield bindings


def _run_plan(
    ctx: EvalContext,
    plan: PatternPlan,
    record: Mapping[str, Any],
    collect_keys: bool,
) -> Iterator[tuple[dict, tuple]]:
    """Enumerate matches path by path in planned order.

    Yields ``(bindings, keys)`` where *keys* orders the per-path sort
    keys by *written* position (the naive nesting order), so sorting on
    them reproduces naive enumeration.
    """
    ordered = plan.ordered
    bindings = dict(record)
    used: set[int] = set()
    keys: list[Any] = [None] * len(ordered)

    def run(position: int) -> Iterator[tuple[dict, tuple]]:
        if position == len(ordered):
            yield dict(bindings), tuple(keys)
            return
        path_plan = ordered[position]
        path = path_plan.path
        for nodes, rels in _match_anchored(
            ctx, path, path_plan.anchor_index, bindings, used
        ):
            added_path = False
            if path.variable is not None and path.variable not in bindings:
                bindings[path.variable] = Path(nodes, rels)
                added_path = True
            if collect_keys:
                keys[path_plan.written_index] = _written_key(
                    _path_sort_spec(path), nodes, rels
                )
            try:
                yield from run(position + 1)
            finally:
                if added_path:
                    del bindings[path.variable]

    yield from run(0)


def _match_anchored(
    ctx: EvalContext,
    path: ast.PathPattern,
    anchor_index: int,
    bindings: dict,
    used: set[int],
) -> Iterator[tuple[list, list]]:
    """Match one path starting at node element *anchor_index*.

    Expansion runs leftwards from the anchor first (over the mirrored
    prefix, relationship directions flipped), then rightwards; nesting
    the two generators keeps the left segment's bindings and trail
    entries live while the right segment enumerates, exactly like the
    matcher's own recursion.  Yields ``(nodes, rels)`` reassembled in
    written orientation, so path-variable bindings are unaffected by
    where the walk started.
    """
    if anchor_index == 0:
        yield from matcher._match_single_path(ctx, path, bindings, used)
        return
    elements = path.elements
    split = 2 * anchor_index
    anchor = elements[split]
    leftward = mirror_elements(elements[: split + 1])
    rightward = elements[split:]
    for node in matcher._node_candidates(ctx, anchor, bindings):
        added = matcher._bind(bindings, anchor.variable, node)
        try:
            for left_nodes, left_rels in matcher._extend(
                ctx, leftward, 1, node, [node], [], bindings, used
            ):
                for right_nodes, right_rels in matcher._extend(
                    ctx, rightward, 1, node, [node], [], bindings, used
                ):
                    yield (
                        left_nodes[::-1] + right_nodes[1:],
                        left_rels[::-1] + right_rels,
                    )
        finally:
            matcher._unbind(bindings, anchor.variable, added)


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
