"""MATCH planning: which node anchors each path, which path runs first.

The matcher (:mod:`repro.runtime.matcher`) runs every path list as a
plan.  With the planner off that is the written one -- paths in written
order, each anchored at its first node.  With ``use_planner`` on,
:func:`plan_paths` chooses both from statistics:

* **anchor selection** -- each path starts at the node pattern with the
  smallest estimated candidate count (bound variable < property-index
  hit < label scan < full scan, per :func:`estimate_element`), and the
  matcher expands from that anchor in *both* directions;

* **path ordering** -- paths whose anchors are cheapest run first, so
  later paths see more bound variables (a greedy join order).

Sizes and access paths come from
:meth:`~repro.graph.store.GraphStore.node_access` -- the same call the
matcher enumerates candidates from -- over counters that every mutation
and every journal undo maintain, so planning costs O(pattern size) and
no db-hits.  This module only plans: it never touches the matcher.

Correctness:

* The set of matches is enumeration-order independent in both trail
  and homomorphism mode (the trail constraint -- all relationship
  occurrences distinct -- is a property of the complete assignment),
  so planning never changes revised-dialect results.
* The *legacy* dialect can observe enumeration order through the
  anomalies the paper documents, and the matcher promises ascending-id
  order.  When ``EvalContext.preserve_match_order`` is set the matcher
  therefore re-sorts each record's matches back into naive order using
  per-path sort keys (anchor node id, then relationship ids step by
  step; variable-length segments compare as id tuples, which matches
  the prefix-first expansion order).  Patterns whose keys would be
  ambiguous (two or more variable-length steps in one path) run the
  written plan instead.
* Property maps may reference variables bound earlier in the same
  pattern (the scoping rules validate written order).  Such patterns
  keep their written path order, and a path whose property maps read
  its *own* earlier variables keeps anchor 0, so every property
  expression still sees the bindings it was validated against.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, Mapping, NamedTuple

from repro.graph.indexes import UNKNOWN
from repro.parser import ast
from repro.runtime.compiler import compile_expression
from repro.runtime.context import EvalContext

# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

class PathPlan(NamedTuple):
    """One path's planned execution: where to start, what it costs."""

    path: ast.PathPattern
    #: position of this path in the written pattern
    written_index: int
    #: node-element index of the anchor (``path.nodes[anchor_index]``)
    anchor_index: int
    #: estimated candidate count of the anchor (the written plan
    #: estimates nothing)
    cost: float = 0.0
    #: human-readable access path ("index :L(key)", "label scan :L", ...)
    access: str = ""

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

    The access path is the store's decision
    (:meth:`~repro.graph.store.GraphStore.node_access`, the same call
    the matcher enumerates from); planning adds only what the store
    cannot know: a bound variable costs nothing, a property value that
    depends on unbound variables is :data:`UNKNOWN`, and an un-indexed
    property map still filters.  Sizes are statistics: no db-hits.
    """
    if element.variable is not None and element.variable in bound:
        return 0.0, f"bound({element.variable})"
    items = element.properties.items if element.properties is not None else ()
    cost, access, __ = ctx.store.node_access(
        element.labels,
        items,
        resolve=lambda expr: _try_evaluate(ctx, expr, record, bound),
    )
    if items and not access.startswith("index "):
        # Discount mildly so a property-carrying end beats a bare one
        # with the same label.
        cost *= 0.9
    return cost, access


def _try_evaluate(
    ctx: EvalContext,
    expression: ast.Expression,
    record: Mapping[str, Any],
    bound: set[str],
) -> Any:
    """The value of a property expression, or UNKNOWN if not yet bound."""
    if not _variables_of(expression) <= bound | set(record.keys()):
        return UNKNOWN
    try:
        return compile_expression(expression)(ctx, dict(record))
    except Exception:
        return UNKNOWN


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
    """Choose an anchor per path and an execution order for *paths*.

    With ``ctx.use_planner`` off every choice is pinned -- written
    order, anchor 0, as the matcher runs it -- which leaves the
    estimates EXPLAIN prints.
    """
    pinned = not ctx.use_planner
    bound = {name for name, value in record.items() if value is not None}
    provided = set()
    for path in paths:
        provided |= _path_provides(path)
    refs = [
        _property_refs(path) & provided - set(record) for path in paths
    ]
    keep_written_order = pinned or any(refs)
    plans: list[PathPlan] = []
    remaining = list(range(len(paths)))
    while remaining:
        candidates: list[PathPlan] = []
        for index in remaining:
            path = paths[index]
            own_refs = bool(refs[index] & _path_provides(path))
            anchor, cost, access = _choose_anchor(
                ctx, path, bound, record, pin_anchor=pinned or own_refs
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
