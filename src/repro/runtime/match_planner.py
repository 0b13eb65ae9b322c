"""MATCH planning: which node anchors each path, which path runs first.

The matcher (:mod:`repro.runtime.matcher`) runs every path list as a
plan.  With the planner off that is the written one -- paths in written
order, each anchored at its first node.  With ``use_planner`` on,
:func:`plan_prepared` chooses both from statistics:

* **anchor selection** -- each path starts at the node pattern with the
  smallest estimated candidate count (bound variable < property-index
  hit < label scan < full scan, per :func:`estimate_step`), and the
  matcher expands from that anchor in *both* directions;

* **path ordering** -- paths whose anchors are cheapest run first, so
  later paths see more bound variables (a greedy join order).

A plan is a pure function of the prepared pattern, the store's
statistics and the record's *null-pattern* -- which of the columns the
plan reads are present and non-null (:meth:`PreparedPattern.null_pattern`)
-- so it is computed once per clause execution for each null-pattern
and kept on the :class:`PreparedPattern`.  Sizes and access paths come
from :meth:`~repro.graph.store.GraphStore.node_access` -- the call the
matcher enumerates candidates from -- as statistics: an index is sized
at its average bucket, never at a value.  Planning evaluates no
expression, so it costs O(pattern size), charges no db-hits and raises
nothing.  This module only plans: it never touches the matcher.

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
  pattern (the scoping rules validate written order).  Such a map is
  evaluated per visit, so which of its evaluations fails first depends
  on the enumeration: such patterns run the written plan, and every
  property expression sees the bindings it was validated against.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, NamedTuple

from repro.graph.model import Node, Path, Relationship
from repro.graph.values import cypher_eq
from repro.parser import ast
from repro.runtime.compiler import compile_map
from repro.runtime.context import EvalContext
from repro.runtime.expressions import BINARY_OPS

# ---------------------------------------------------------------------------
# The static half of a plan: one preparation per clause execution
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class NodeStep:
    """A node pattern with everything that depends only on the pattern."""

    variable: str | None
    labels: tuple[str, ...]
    #: ``GraphStore.label_mask(labels)``
    mask: int
    #: compiled property checks, ``((key, compare, fn), ...)``, or None:
    #: the property map's entries (``compare`` is ``cypher_eq``) and
    #: then the pushed comparisons (:func:`compile_checks`)
    items: tuple | None
    #: variables of the enclosing pattern that the checks read
    refs: frozenset[str]
    #: position of this step's evaluated checks in a record's value
    #: memo (see :func:`repro.runtime.matcher.record_values`)
    slot: int
    #: how many entries of *items* lead with ``=`` (the property map's):
    #: the only ones an index may serve
    equalities: int = 0


@dataclasses.dataclass(slots=True)
class RelStep:
    """A relationship pattern, resolved like :class:`NodeStep`."""

    variable: str | None
    direction: str
    #: ``GraphStore.type_ids(types)``, or None for an untyped pattern
    type_ids: list[int] | None
    var_length: tuple | None
    items: tuple | None
    refs: frozenset[str]
    slot: int


class PreparedPath:
    """One path pattern's steps and planning facts."""

    __slots__ = (
        "path", "steps", "provides", "refs", "sort_spec", "movable",
        "_mirrors",
    )

    def __init__(self, path: ast.PathPattern, steps: tuple):
        self.path = path
        #: alternating :class:`NodeStep` / :class:`RelStep`
        self.steps = steps
        #: variables the path binds: its elements' plus the path variable
        self.provides = {step.variable for step in steps}
        self.provides.add(path.variable)
        self.provides.discard(None)
        #: pattern variables read by the path's property maps
        self.refs = _NO_REFS.union(*[step.refs for step in steps])
        kinds = tuple(
            ["var" if rel.var_length else "fixed" for rel in steps[1::2]]
        )
        #: may start at another node than the first (no variable-length
        #: step: list bindings and sort keys are defined left to right)
        self.movable = "var" not in kinds
        #: step shape for reconstructing a match's naive enumeration
        #: key -- the anchor node id, then per step the relationship id
        #: (fixed) or the id tuple of the segment (variable-length).
        #: With one variable-length step its segment length is total
        #: rels minus fixed steps; with two or more the split is
        #: ambiguous and there is no key (None).
        self.sort_spec = kinds if kinds.count("var") < 2 else None
        self._mirrors: dict[int, tuple] = {}

    def split_at(self, anchor_index: int) -> tuple[tuple, tuple]:
        """The steps leftwards (mirrored) and rightwards of an anchor."""
        split = 2 * anchor_index
        leftward = self._mirrors.get(anchor_index)
        if leftward is None:
            leftward = mirror_elements(self.steps[: split + 1])
            self._mirrors[anchor_index] = leftward
        return leftward, self.steps[split:]


class PreparedPattern:
    """A path list prepared for one clause execution over one store.

    Label masks, type ids, provided and referenced variables, sort
    specs and (on first use) mirrored step lists are resolved here,
    once, and shared by the planner and the matcher for every record of
    the clause, as are the plans, one per null-pattern; none of it
    outlives the clause.  The compiled property checks depend on the
    pattern alone and live on its elements (:func:`compile_checks`),
    like every closure on its AST node.
    """

    __slots__ = (
        "paths", "written", "typed", "checked", "slots", "columns", "plans"
    )

    def __init__(self, ctx: EvalContext, paths: tuple[ast.PathPattern, ...]):
        store = ctx.store
        provided = {
            name
            for path in paths
            for name in (path.variable, *[e.variable for e in path.elements])
        }
        slot = 0
        prepared = []
        typed: dict[tuple[str, type], str | None] = {}
        binds: dict[str, type] = {}  # variable -> the kind it is bound as
        for path in paths:
            steps = []
            for position, element in enumerate(path.elements):
                if element.variable is not None:
                    kind = Node if position % 2 == 0 else (
                        list if element.var_length else Relationship
                    )
                    seen = binds.setdefault(element.variable, kind)
                    if kind is not list:  # Cypher's name: "List", "Path"...
                        clash = None if seen is kind else seen.__name__.title()
                        typed.setdefault((element.variable, kind), clash)
                items, refs, equalities = None, _NO_REFS, 0
                if element.properties is not None or element.comparisons:
                    items, equalities, variables = compile_checks(
                        ctx, element
                    )
                    refs = variables & provided
                if position % 2 == 0:
                    step = NodeStep(
                        element.variable,
                        element.labels,
                        store.label_mask(element.labels),
                        items,
                        refs,
                        slot,
                        equalities,
                    )
                else:
                    step = RelStep(
                        element.variable,
                        element.direction,
                        store.type_ids(element.types) if element.types else None,
                        element.var_length,
                        items,
                        refs,
                        slot,
                    )
                steps.append(step)
                slot += 1
            prepared.append(PreparedPath(path, tuple(steps)))
            if path.variable is not None:
                binds.setdefault(path.variable, Path)
        self.paths = tuple(prepared)
        #: the written plan: written order, each path from its first node
        self.written = tuple(
            [PathPlan(path, index, 0) for index, path in enumerate(paths)]
        )
        #: ``(variable, Node | Relationship, clash)`` in written order;
        #: *clash*: the other kind the pattern first binds it as, if any
        self.typed = tuple([(*key, clash) for key, clash in typed.items()])
        #: steps with property checks, in written order
        self.checked = tuple(
            [step for path in prepared for step in path.steps if step.items]
        )
        self.slots = slot
        #: the record columns a plan reads: node variables (bound or
        #: not) and the pattern variables property maps reference
        self.columns = tuple(sorted(
            {step.variable for path in prepared for step in path.steps[::2]}
            .union(*[path.refs for path in prepared]) - {None}
        ))
        #: plans by null-pattern, filled by :meth:`plan`
        self.plans: dict[tuple, PatternPlan] = {}

    def null_pattern(self, record: Mapping[str, Any]) -> tuple:
        """Per plan column: absent (None), null (False) or bound (True)."""
        return tuple([
            record[name] is not None if name in record else None
            for name in self.columns
        ])

    def plan(self, ctx: EvalContext, record: Mapping[str, Any]) -> PatternPlan:
        """The plan for *record*'s null-pattern, made on its first record."""
        shape = self.null_pattern(record)
        plan = self.plans.get(shape)
        if plan is None:
            plan = self.plans[shape] = plan_prepared(ctx, self, shape)
        return plan


_NO_REFS: frozenset[str] = frozenset()


def compile_checks(
    ctx: EvalContext, element: ast.NodePattern | ast.RelationshipPattern
) -> tuple[tuple, int, frozenset[str]]:
    """An element's property checks, compiled.

    Returns ``(items, equalities, variables)``: *items* are
    ``(key, compare, fn)`` entries -- the property map's first, each
    compared by ``cypher_eq``, then the pushed comparisons, each by its
    operator's body -- *equalities* is the number of map entries, and
    *variables* are the names the values read.  Built once per element
    and closure-maker, and kept on the element.
    """
    cached = element._checks
    if cached is not None and cached[0] is ctx.compile:
        return cached[1]
    items: list = []
    variables: frozenset[str] = _NO_REFS
    if element.properties is not None:
        pairs, variables = compile_map(ctx.compile, element.properties)
        items = [(key, cypher_eq, fn) for key, fn in pairs]
    equalities = len(items)
    for comparison in element.comparisons:
        value = comparison.value
        items.append(
            (comparison.key, BINARY_OPS[comparison.operator],
             ctx.compile(value))
        )
        # A pushed value is a literal, a parameter or a variable.
        if isinstance(value, ast.Variable):
            variables = variables | {value.name}
    checks = (tuple(items), equalities, variables)
    object.__setattr__(element, "_checks", (ctx.compile, checks))
    return checks


def mirror_elements(prefix: tuple) -> tuple:
    """*prefix* reversed with relationship directions flipped.

    The mirrored list starts at the anchor and walks back to the path's
    written start.  Works on pattern elements and on prepared steps.
    """
    mirrored = []
    for element in reversed(prefix):
        direction = getattr(element, "direction", None)
        if direction == ast.OUT:
            element = dataclasses.replace(element, direction=ast.IN)
        elif direction == ast.IN:
            element = dataclasses.replace(element, direction=ast.OUT)
        mirrored.append(element)
    return tuple(mirrored)


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
    ctx: EvalContext, element: ast.NodePattern, bound: set[str]
) -> tuple[float, str]:
    """:func:`estimate_step` over a pattern prepared for this one call."""
    prepared = PreparedPattern(ctx, (ast.PathPattern(elements=(element,)),))
    return estimate_step(ctx, prepared.paths[0].steps[0], bound)


def estimate_step(
    ctx: EvalContext, step: NodeStep, bound: set[str]
) -> tuple[float, str]:
    """Estimated candidate count and access path for one node step.

    The access path is the store's estimate
    (:meth:`~repro.graph.store.GraphStore.node_access` without
    ``fetch``: label counts and average index buckets, no value read,
    no db-hit); planning adds only what the store cannot know: a bound
    variable costs nothing, and property checks no index serves (a
    pushed range never is) still filter.
    """
    if step.variable is not None and step.variable in bound:
        return 0.0, f"bound({step.variable})"
    # Only the equalities may choose a bucket: a range filters the
    # candidates of whatever source the equalities and labels pick.
    probes = step.items[: step.equalities] if step.equalities else ()
    cost, access, __ = ctx.store.node_access(step.labels, probes)
    if step.items and not access.startswith("index "):
        # Discount mildly so a property-carrying end beats a bare one
        # with the same label.
        cost *= 0.9
    return cost, access


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def plan_paths(
    ctx: EvalContext,
    paths: tuple[ast.PathPattern, ...],
    record: Mapping[str, Any],
) -> PatternPlan:
    """The plan of *paths* for *record*'s null-pattern (its values are
    never read)."""
    prepared = PreparedPattern(ctx, tuple(paths))
    return plan_prepared(ctx, prepared, prepared.null_pattern(record))


def plan_prepared(
    ctx: EvalContext, prepared: PreparedPattern, null_pattern: tuple
) -> PatternPlan:
    """Choose an anchor per path and an execution order.

    A pure function of the pattern, the store's statistics and the
    null-pattern of the records it serves
    (:meth:`PreparedPattern.null_pattern`).  With ``ctx.use_planner``
    off, or for a pattern whose maps read its own variables, every
    choice is pinned -- written order, anchor 0, as the matcher runs it
    -- which leaves the estimates EXPLAIN prints.
    """
    paths = prepared.paths
    columns = prepared.columns
    present = {
        name for name, state in zip(columns, null_pattern)
        if state is not None
    }
    bound = {name for name, state in zip(columns, null_pattern) if state}
    # A map reading the pattern's own variables pins the written plan.
    pinned = not ctx.use_planner or any(path.refs - present for path in paths)
    plans: list[PathPlan] = []
    remaining = list(range(len(paths)))
    while remaining:
        candidates: list[PathPlan] = []
        for index in remaining:
            path = paths[index]
            anchor, cost, access = _choose_anchor(ctx, path, bound, pinned)
            candidates.append(PathPlan(path.path, index, anchor, cost, access))
            if pinned:
                break  # written order: only the earliest unplanned path
        best = min(candidates, key=lambda plan: plan.cost)
        plans.append(best)
        remaining.remove(best.written_index)
        # Later paths benefit from the variables this one binds.
        bound |= paths[best.written_index].provides
    return PatternPlan(tuple(plans))


def _choose_anchor(
    ctx: EvalContext, path: PreparedPath, bound: set[str], pinned: bool
) -> tuple[int, float, str]:
    """Cheapest anchor position for *path* (ties keep the leftmost).

    Anchors other than the first node are ruled out for paths with
    variable-length steps (their list bindings and sort keys are
    defined by left-to-right expansion) and for *pinned* plans.
    """
    nodes = path.steps[::2]
    best_index = 0
    best_cost, best_access = estimate_step(ctx, nodes[0], bound)
    if path.movable and not pinned:
        for index in range(1, len(nodes)):
            cost, access = estimate_step(ctx, nodes[index], bound)
            if cost < best_cost:
                best_index, best_cost, best_access = index, cost, access
    return best_index, best_cost, best_access
