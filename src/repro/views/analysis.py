"""Static analysis of registered view queries.

:func:`analyse` decides whether a read-only statement is *delta
maintainable* -- whether the registry can keep its result current by
re-evaluating only the records touched by each committed redo-op batch
-- and, if so, produces the :class:`ViewPlan` the maintenance loop
consumes.  Queries outside the supported shape fall back to full
re-execution on the next relevant commit; the registry stays correct
either way, the plan only changes the cost.

The delta-supported shape is::

    MATCH <one path, fixed length, non-OPTIONAL> [WHERE ...]
    (UNWIND ... | WITH ...)*
    RETURN ...

with no UNION, no variable-length relationships, no pattern predicates
(``exists((n)-->())`` and friends read graph structure beyond the
row's own entities), no aggregates, and no path variable.  Everything
after the MATCH is a deterministic function of the match's binding
table, so it is re-applied over the *maintained* bindings at refresh
time -- the delta rules only have to keep the binding table itself
equal to what a fresh MATCH would produce.

Anonymous pattern elements get fresh internal variables (``__view``
prefix) so every maintained binding row names all of its entities;
those columns are provenance only and are dropped before the
post-MATCH clauses run.

The :class:`Footprint` is the precise-invalidation half: a sound
over-approximation of the labels, relationship types and property
keys the view depends on.  A committed batch whose every operation is
irrelevant under the footprint advances the view's covered LSN without
recomputing anything -- the cached result object survives by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.parser import ast
from repro.runtime.aggregation import children, contains_aggregate

#: Prefix for internal variables assigned to anonymous pattern elements.
INTERNAL_PREFIX = "__view"

#: Redo kinds of schema changes: indexes and constraints change access
#: paths and which later writes are accepted, never a query's result,
#: so they lie outside every footprint.
SCHEMA_KINDS = frozenset(
    {"create_index", "drop_index", "create_constraint", "drop_constraint"}
)

#: Function names whose result depends on a property/label set we
#: cannot enumerate statically; their presence widens the footprint.
_DYNAMIC_FUNCTIONS = frozenset({"properties", "keys", "labels"})

#: Expression node types the footprint walk understands.  Anything
#: else is treated conservatively (the footprint widens to "anything").
_KNOWN_EXPRESSIONS = (
    ast.Literal,
    ast.Parameter,
    ast.Variable,
    ast.Property,
    ast.ListLiteral,
    ast.MapLiteral,
    ast.Unary,
    ast.Binary,
    ast.IsNull,
    ast.HasLabels,
    ast.FunctionCall,
    ast.CountStar,
    ast.CaseExpression,
    ast.ListComprehension,
    ast.Quantifier,
    ast.Reduce,
    ast.Subscript,
    ast.Slice,
    ast.HoistedExpression,
)


@dataclass
class Footprint:
    """What parts of the graph a view's result can depend on.

    ``match_*`` fields over-approximate the MATCH side (which rows
    exist); ``output_*`` the projection side (what the rows render
    as).  ``match_all`` / ``output_all`` mean the respective side could
    not be bounded and every operation of that flavour is relevant.
    """

    #: per node position: required label set (empty = unlabeled)
    label_sets: tuple[frozenset, ...] = ()
    #: per relationship position: allowed type set (empty = any type)
    type_sets: tuple[frozenset, ...] = ()
    #: all labels named anywhere (pattern positions + HasLabels)
    labels: frozenset = frozenset()
    #: all property keys named anywhere (pattern maps + Property)
    keys: frozenset = frozenset()
    match_all: bool = False
    output_all: bool = False

    def op_relevant(
        self,
        op: tuple,
        node_prov: Iterable[int],
        rel_prov: Iterable[int],
    ) -> bool:
        """Could *op* change this view's result?

        *node_prov* / *rel_prov* are the entity ids currently bound in
        maintained rows.  Must err toward ``True``: a ``False`` skips
        maintenance for the whole batch.
        """
        if self.match_all:
            return True
        kind = op[0]
        if kind == "create_node":
            if self.type_sets:
                # A new node alone cannot extend a path with
                # relationship steps; the enabling create_rel is its
                # own (relevant) op.
                return False
            op_labels = set(op[2])
            return any(
                required <= op_labels for required in self.label_sets
            )
        if kind == "create_rel":
            if not self.type_sets:
                return False
            return any(
                not allowed or op[2] in allowed
                for allowed in self.type_sets
            )
        if kind == "delete_node":
            return op[1] in node_prov
        if kind == "delete_rel":
            return op[1] in rel_prov
        if kind in ("add_label", "remove_label"):
            return op[2] in self.labels or op[1] in node_prov
        if kind == "set_node_prop":
            return op[2] in self.keys or (
                self.output_all and op[1] in node_prov
            )
        if kind == "set_rel_prop":
            return op[2] in self.keys or (
                self.output_all and op[1] in rel_prov
            )
        return True  # unknown op kind: never skip


@dataclass
class ViewPlan:
    """Everything delta maintenance needs, precomputed at registration."""

    #: the match clause with internal variables assigned everywhere
    match_clause: ast.MatchClause
    #: the clauses after the MATCH, ending in the RETURN (unmodified)
    post_clauses: tuple[ast.Clause, ...]
    #: node variable per node position (internal names included)
    node_vars: tuple[str, ...]
    #: relationship variable per step (internal names included)
    rel_vars: tuple[str, ...]
    #: user-visible columns fed to the post-MATCH clauses
    visible_vars: tuple[str, ...]
    footprint: Footprint = field(default_factory=Footprint)


class _Widen(Exception):
    """Raised by the footprint walk on an unanalysable construct."""


def analyse(statement: ast.Statement) -> ViewPlan | None:
    """The delta plan for *statement*, or ``None`` for full refresh."""
    query = statement.query
    if not isinstance(query, ast.SingleQuery):
        return None
    clauses = query.clauses
    if len(clauses) < 2 or not isinstance(clauses[0], ast.MatchClause):
        return None
    match = clauses[0]
    if match.optional or len(match.pattern.paths) != 1:
        return None
    path = match.pattern.paths[0]
    if path.variable is not None:
        return None
    if any(rel.is_var_length for rel in path.relationships):
        return None
    if not isinstance(clauses[-1], ast.ReturnClause):
        return None
    for clause in clauses[1:-1]:
        if not isinstance(clause, (ast.WithClause, ast.UnwindClause)):
            return None
    if any(_clause_has_aggregate(clause) for clause in clauses):
        return None
    try:
        if any(
            _has_pattern_predicate(expr)
            for expr in _clause_expressions(clauses)
        ):
            return None
    except _Widen:
        return None
    rewritten, node_vars, rel_vars, visible = _assign_internal(match)
    footprint = _footprint(rewritten, clauses[1:])
    return ViewPlan(
        match_clause=rewritten,
        post_clauses=tuple(clauses[1:]),
        node_vars=node_vars,
        rel_vars=rel_vars,
        visible_vars=visible,
        footprint=footprint,
    )


def _assign_internal(
    match: ast.MatchClause,
) -> tuple[ast.MatchClause, tuple, tuple, tuple]:
    """Give every anonymous pattern element an internal variable."""
    path = match.pattern.paths[0]
    counter = 0
    elements = []
    node_vars: list[str] = []
    rel_vars: list[str] = []
    visible: list[str] = []
    seen: set[str] = set()
    for element in path.elements:
        variable = element.variable
        if variable is None:
            variable = f"{INTERNAL_PREFIX}{counter}"
            counter += 1
            element = replace(element, variable=variable)
        elif variable not in seen:
            seen.add(variable)
            visible.append(variable)
        if isinstance(element, ast.NodePattern):
            node_vars.append(variable)
        else:
            rel_vars.append(variable)
        elements.append(element)
    rewritten = replace(
        match,
        pattern=ast.Pattern(
            paths=(replace(path, elements=tuple(elements)),)
        ),
    )
    return rewritten, tuple(node_vars), tuple(rel_vars), tuple(visible)


def _clause_has_aggregate(clause: ast.Clause) -> bool:
    body = getattr(clause, "body", None)
    if body is None:
        return False
    return any(contains_aggregate(item.expression) for item in body.items)


def _clause_expressions(
    clauses: tuple[ast.Clause, ...],
) -> Iterator[ast.Expression]:
    """Every top-level expression of the clause sequence."""
    for clause in clauses:
        if isinstance(clause, ast.MatchClause):
            for path in clause.pattern.paths:
                for element in path.elements:
                    if element.properties is not None:
                        yield element.properties
            if clause.where is not None:
                yield clause.where
        elif isinstance(clause, ast.UnwindClause):
            yield clause.expression
        elif isinstance(clause, (ast.WithClause, ast.ReturnClause)):
            body = clause.body
            for item in body.items:
                yield item.expression
            for sort in body.order_by:
                yield sort.expression
            if body.skip is not None:
                yield body.skip
            if body.limit is not None:
                yield body.limit
            where = getattr(clause, "where", None)
            if where is not None:
                yield where


def _has_pattern_predicate(expression: ast.Expression) -> bool:
    """True if the expression reads graph structure beyond the row."""
    if isinstance(expression, ast.PatternExpression):
        return True
    if isinstance(expression, ast.ExistsExpression) and not isinstance(
        expression.argument, ast.Expression
    ):
        return True
    return any(
        _has_pattern_predicate(child) for child in children(expression)
    )


def _footprint(
    match: ast.MatchClause, post: tuple[ast.Clause, ...]
) -> Footprint:
    path = match.pattern.paths[0]
    label_sets = []
    type_sets = []
    labels: set[str] = set()
    keys: set[str] = set()
    for element in path.elements:
        if isinstance(element, ast.NodePattern):
            label_sets.append(frozenset(element.labels))
            labels.update(element.labels)
        else:
            type_sets.append(frozenset(element.types))
        if element.properties is not None:
            keys.update(element.properties.keys())
    match_all = False
    output_all = False
    try:
        exprs = []
        for element in path.elements:
            if element.properties is not None:
                exprs.append(element.properties)
        if match.where is not None:
            exprs.append(match.where)
        for expr in exprs:
            _scan(expr, labels, keys)
    except _Widen:
        match_all = True
    try:
        for expr in _clause_expressions(post):
            _scan(expr, labels, keys)
        if any(
            _projects_entities(clause)
            for clause in post
            if isinstance(clause, (ast.WithClause, ast.ReturnClause))
        ):
            output_all = True
    except _Widen:
        output_all = True
    return Footprint(
        label_sets=tuple(label_sets),
        type_sets=tuple(type_sets),
        labels=frozenset(labels),
        keys=frozenset(keys),
        match_all=match_all,
        output_all=output_all,
    )


def _projects_entities(clause) -> bool:
    """True if the projection can expose a whole entity.

    A projected entity renders every property it has, so any property
    change on a bound entity invalidates the cached rows even when the
    key is named nowhere in the query.
    """
    body = clause.body
    if body.include_existing:
        return True
    return any(
        isinstance(item.expression, ast.Variable) for item in body.items
    )


def _scan(expression, labels: set[str], keys: set[str]) -> None:
    """Collect labels/keys; raise :class:`_Widen` when unboundable."""
    if isinstance(expression, ast.Property):
        keys.add(expression.key)
        # Descend past a plain-variable subject (the variable itself is
        # not "the entity rendered whole", just the property read).
        if not isinstance(expression.subject, ast.Variable):
            _scan(expression.subject, labels, keys)
        return
    if isinstance(expression, ast.HasLabels):
        labels.update(expression.labels)
        return
    if isinstance(expression, ast.MapLiteral):
        keys.update(expression.keys())
    if (
        isinstance(expression, ast.FunctionCall)
        and expression.name in _DYNAMIC_FUNCTIONS
    ):
        raise _Widen()
    if not isinstance(expression, _KNOWN_EXPRESSIONS):
        raise _Widen()
    for child in children(expression):
        _scan(child, labels, keys)
