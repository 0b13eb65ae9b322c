"""Static analysis of registered view queries.

:func:`analyse` decides whether a read-only statement is *delta
maintainable* -- whether the registry can keep its result current by
re-evaluating only the records touched by each committed redo-op batch
-- and, if so, produces the :class:`ViewPlan` the maintenance loop
consumes.  Queries outside the supported shape get a
:class:`Fallback` -- why, and a footprint -- and are re-executed on
the next relevant commit; the registry stays correct either way, the
plan only changes the cost.

The delta-supported shape is::

    MATCH <one path, fixed length, non-OPTIONAL> [WHERE ...]
    (UNWIND ... | WITH ...)*
    RETURN ...

with no UNION, no variable-length relationships, no pattern predicates
(``exists((n)-->())`` and friends read graph structure beyond the
row's own entities), no aggregating WITH, and no path variable.
Everything after the MATCH -- an aggregating RETURN included -- is a
deterministic function of the match's binding table, so the delta
rules only have to keep the binding table itself equal to what a fresh
MATCH would produce; the plan splits the rest into what is computed
once per binding row and cached (:attr:`ViewPlan.prefix` and the
projection of :attr:`ViewPlan.publish`) and what runs over the cached
rows (its DISTINCT / ORDER BY / SKIP / LIMIT and
:attr:`ViewPlan.suffix`).

Anonymous pattern elements get fresh internal variables (``__view``
prefix) so every maintained binding row names all of its entities;
those columns are provenance only and are dropped before the
post-MATCH clauses run.

The :class:`Footprint` is the precise-invalidation half: a sound
over-approximation of the labels, relationship types and property
keys the view depends on.  A committed batch whose every operation is
irrelevant under the footprint advances the view's covered LSN without
recomputing anything -- the cached result object survives by identity.
Fallback views have one too, read off every pattern and expression of
the statement; what it lacks is provenance (which entities the current
rows bind), so there every delete is relevant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Container, Iterator

from repro.parser import ast
from repro.runtime.aggregation import (
    children,
    contains_aggregate,
    is_aggregate_call,
)

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


class _Everything:
    """The provenance of a view that keeps none: any id may be bound."""

    def __contains__(self, item: object) -> bool:
        return True


EVERYTHING = _Everything()


@dataclass
class Footprint:
    """What parts of the graph a view's result can depend on.

    ``match_all`` / ``output_all`` mean the MATCH side (which rows
    exist) / the projection side (what the rows render as) could not
    be bounded: every operation, respectively every property or label
    change on a bound entity, is relevant.
    """

    #: per node position a created node can fill on its own: required
    #: label set (empty = unlabeled)
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
        node_prov: Container[int],
        rel_prov: Container[int],
    ) -> bool:
        """Could *op* change this view's result?

        *node_prov* / *rel_prov* are the entity ids currently bound in
        maintained rows (:data:`EVERYTHING` for a view that keeps no
        rows).  Must err toward ``True``: a ``False`` skips maintenance
        for the op.
        """
        if self.match_all:
            return True
        kind = op[0]
        if kind == "create_node":
            op_labels = set(op[2])
            return any(
                required <= op_labels for required in self.label_sets
            )
        if kind == "create_rel":
            return any(
                not allowed or op[2] in allowed
                for allowed in self.type_sets
            )
        if kind == "delete_node":
            return op[1] in node_prov
        if kind == "delete_rel":
            return op[1] in rel_prov
        if kind in ("add_label", "remove_label"):
            return op[2] in self.labels or (
                self.output_all and op[1] in node_prov
            )
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
    #: node variable per node position (internal names included)
    node_vars: tuple[str, ...]
    #: relationship variable per step (internal names included)
    rel_vars: tuple[str, ...]
    #: user-visible columns fed to the post-MATCH clauses
    visible_vars: tuple[str, ...]
    #: record-local clauses after the MATCH, run once per binding row
    prefix: tuple[ast.Clause, ...]
    #: the first WITH / RETURN that needs the whole table -- or the
    #: RETURN, if none does: its items are evaluated once per record
    #: (aggregates: folded), the rest of it runs over the cached rows
    publish: ast.WithClause | ast.ReturnClause
    #: what follows a publishing WITH, re-executed over its table
    suffix: tuple[ast.Clause, ...]
    footprint: Footprint = field(default_factory=Footprint)


@dataclass
class Fallback:
    """Why a statement is re-executed instead, and what can change it."""

    reason: str
    footprint: Footprint


class _Widen(Exception):
    """Raised by the footprint walk on an unanalysable construct."""


def is_record_local(clause: ast.Clause) -> bool:
    """True iff the clause maps each input record independently.

    A record-local clause produces, for each input record, zero or
    more output records derived from that record alone (and the graph,
    which it does not mutate), in input order.  That is what lets a
    view cache the output of such clauses per binding row
    (:attr:`ViewPlan.prefix`): when a commit adds or drops one binding
    row, only that row's outputs change, so the cached outputs of all
    other rows stay exact.

    Qualifiers: MATCH / OPTIONAL MATCH (with WHERE), UNWIND, and
    WITH / RETURN projections without aggregates, DISTINCT, ORDER BY,
    SKIP or LIMIT -- those four need the whole table at once.  Update
    clauses, MERGE, FOREACH and LOAD CSV (which reads a file per
    record, outside any footprint) never qualify.
    """
    if isinstance(clause, (ast.MatchClause, ast.UnwindClause)):
        return True
    if isinstance(clause, (ast.WithClause, ast.ReturnClause)):
        body = clause.body
        if body.distinct or body.order_by:
            return False
        if body.skip is not None or body.limit is not None:
            return False
        return not any(
            contains_aggregate(item.expression) for item in body.items
        )
    return False


def analyse(statement: ast.Statement) -> ViewPlan | Fallback:
    """The delta plan for *statement*, or why it has none."""
    reason = _fallback_reason(statement)
    if reason is not None:
        return Fallback(reason, _statement_footprint(statement))
    clauses = statement.query.clauses
    post = clauses[1:]
    cut = next(
        (
            index
            for index, clause in enumerate(post)
            if not is_record_local(clause)
        ),
        len(post) - 1,
    )
    rewritten, node_vars, rel_vars, visible = _assign_internal(clauses[0])
    footprint = _footprint((rewritten,), post)
    if rel_vars:
        # A new node alone cannot extend a path with relationship
        # steps; the enabling create_rel is its own (relevant) op.
        footprint = replace(footprint, label_sets=())
    return ViewPlan(
        match_clause=rewritten,
        node_vars=node_vars,
        rel_vars=rel_vars,
        visible_vars=visible,
        prefix=tuple(post[:cut]),
        publish=post[cut],
        suffix=tuple(post[cut + 1 :]),
        footprint=footprint,
    )


def _fallback_reason(statement: ast.Statement) -> str | None:
    """One line on what keeps *statement* off the delta path."""
    query = statement.query
    if not isinstance(query, ast.SingleQuery):
        return "UNION"
    clauses = query.clauses
    if not isinstance(clauses[0], ast.MatchClause):
        return "the first clause is not a MATCH"
    if not isinstance(clauses[-1], ast.ReturnClause):
        return "the statement does not end in RETURN"
    match = clauses[0]
    if match.optional:
        return "OPTIONAL MATCH"
    if len(match.pattern.paths) != 1:
        return "more than one path in the MATCH"
    path = match.pattern.paths[0]
    if path.variable is not None:
        return "path variable"
    if any(rel.is_var_length for rel in path.relationships):
        return "variable-length relationship"
    for clause in clauses[1:-1]:
        if isinstance(clause, ast.MatchClause):
            return "more than one MATCH clause"
        if not isinstance(clause, (ast.WithClause, ast.UnwindClause)):
            return f"{type(clause).__name__} after the MATCH"
        if _clause_has_aggregate(clause):
            return "aggregating WITH"
    if any(
        _has_pattern_predicate(expr)
        for expr in _clause_expressions(clauses)
    ):
        return "pattern predicate"
    return None


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
        else:  # LOAD CSV, ...: reads something the walk cannot bound
            raise _Widen()


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


def _statement_footprint(statement: ast.Statement) -> Footprint:
    """The footprint of a statement that has no delta plan.

    There are no maintained rows to re-project, so nothing is "only
    output": every clause decides what the one re-execution returns.
    """
    return _footprint(
        tuple(
            clause
            for branch in statement.branches()
            for clause in branch.clauses
        ),
        (),
    )


def _footprint(
    reads: tuple[ast.Clause, ...], renders: tuple[ast.Clause, ...]
) -> Footprint:
    """What *reads* (which rows exist) and *renders* (what the rows
    look like) name; a pattern position keeps its own labels only."""
    label_sets = []
    type_sets = []
    labels: set[str] = set()
    keys: set[str] = set()
    for clause in reads:
        if not isinstance(clause, ast.MatchClause):
            continue
        for path in clause.pattern.paths:
            for element in path.elements:
                if isinstance(element, ast.NodePattern):
                    label_sets.append(frozenset(element.labels))
                    labels.update(element.labels)
                else:
                    type_sets.append(frozenset(element.types))
                if element.properties is not None:
                    keys.update(element.properties.keys())
    match_all = _scan_clauses(reads, labels, keys)
    output_all = _scan_clauses(renders, labels, keys) or any(
        _projects_entities(clause)
        for clause in reads + renders
        if isinstance(clause, (ast.WithClause, ast.ReturnClause))
    )
    return Footprint(
        label_sets=tuple(label_sets),
        type_sets=tuple(type_sets),
        labels=frozenset(labels),
        keys=frozenset(keys),
        match_all=match_all,
        output_all=output_all,
    )


def _scan_clauses(
    clauses: tuple[ast.Clause, ...], labels: set[str], keys: set[str]
) -> bool:
    """Collect what the clauses' expressions name; ``True`` if some
    construct could not be read (the side is unbounded)."""
    try:
        for expr in _clause_expressions(clauses):
            _scan(expr, labels, keys)
    except _Widen:
        return True
    return False


def _projects_entities(clause) -> bool:
    """True if the projection can expose a whole entity.

    A projected entity renders every property it has, so any property
    change on a bound entity invalidates the cached rows even when the
    key is named nowhere in the query.  ``count(n)`` renders nothing of
    ``n``; every other aggregate of a bare variable can.
    """
    body = clause.body
    if body.include_existing:
        return True
    return any(
        isinstance(item.expression, ast.Variable)
        or any(
            isinstance(call, ast.FunctionCall)
            and call.name != "count"
            and any(isinstance(arg, ast.Variable) for arg in call.args)
            for call in _aggregate_calls(item.expression)
        )
        for item in body.items
    )


def _aggregate_calls(expression: ast.Expression) -> Iterator[ast.Expression]:
    if is_aggregate_call(expression):
        yield expression
    for child in children(expression):
        yield from _aggregate_calls(child)


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
    if isinstance(expression, ast.Subscript):
        # ``n['k']`` reads a property like ``n.k``; a computed index
        # could name any key (an integer literal only indexes a list).
        index = expression.index
        if not isinstance(index, ast.Literal):
            raise _Widen()
        if isinstance(index.value, str):
            keys.add(index.value)
        elif not isinstance(index.value, int):
            raise _Widen()
    if (
        isinstance(expression, ast.FunctionCall)
        and expression.name in _DYNAMIC_FUNCTIONS
    ):
        raise _Widen()
    if not isinstance(expression, _KNOWN_EXPRESSIONS):
        raise _Widen()
    for child in children(expression):
        _scan(child, labels, keys)
