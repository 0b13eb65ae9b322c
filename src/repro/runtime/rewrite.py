"""Equivalence-preserving plan rewrites.

Two rewrites run over read statements before execution, both verified
against the serial executor by the differential fuzzer (in the spirit
of *Proving Cypher Query Equivalence*: a candidate rule ships only with
a fuzzer-backed equivalence check):

**Predicate pushdown.**  A WHERE conjunct comparing a fresh pattern
variable's property with a value by ``=``, ``<``, ``<=``, ``>`` or
``>=`` moves onto the pattern element: ``MATCH (n:L) WHERE n.k = v``
becomes ``MATCH (n:L {k: v})``, and ``WHERE $lo <= n.k AND n.k < $hi``
becomes two :class:`~repro.parser.ast.PushedComparison` entries on
``n`` (``k >= $lo``, ``k < $hi``; a swapped side is normalised so the
property is on the left).  The store checks both kinds against its
property columns while it enumerates candidates
(``GraphStore.node_matches`` / ``match_nodes`` / ``expand``), so a
rejected candidate is never bound; only equalities may choose an
index bucket.  ``<>``, ``IN``, ``STARTS WITH`` and computed operands
stay in the WHERE.  Equivalence rests on three guarantees:

* the store's check (``compare(stored, v) is True`` with ``compare``
  the operator's one body in :mod:`repro.graph.values`, an absent key
  read as null) is exactly the WHERE filter's acceptance test: a null
  or incomparable comparison is null, never an error, and WHERE keeps
  only true;
* pushed value expressions can never raise -- a literal, a variable
  bound by an *earlier* clause (always present in the record), or a
  parameter present in the statement's actual parameters -- because
  pushed values evaluate once per record *before* enumeration while
  WHERE evaluates only on actual matches;
* the rewrite is all-or-nothing per MATCH: a WHERE is removed only if
  *every* AND-conjunct is pushable.  Removing some conjuncts would
  change how often the remainder evaluates (``AND`` evaluates both
  operands), which is observable when a remaining conjunct can raise.

**Common-subexpression hoisting.**  Record-invariant pure subtrees
(no free variables, no pattern predicates, no aggregates) inside
per-row positions -- WHERE predicates, UNWIND sources, non-aggregating
projection items -- are wrapped in
:class:`~repro.parser.ast.HoistedExpression`, which the compiler turns
into a lazy per-statement memo: ``$threshold * 100`` evaluates once
per statement instead of once per record.  Laziness preserves error
semantics (zero records => no evaluation), and the function library is
deterministic and graph-independent, so one evaluation stands for all.

Rewrites never change result rows, row order, graph effects, or error
behaviour.  They run after scope checking (they assume a valid
statement) from exactly one place, :meth:`repro.engine.Prepared.executable`,
which keeps the result with the statement it was derived from -- this
module is a pure function of ``(statement, initial columns, supplied
parameter names)`` and holds no state.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.parser import ast
from repro.runtime.aggregation import children, contains_aggregate, is_aggregate_call


def rewrite_statement(
    statement: ast.Statement,
    *,
    initial_columns: tuple[str, ...] = (),
    parameters: frozenset[str] = frozenset(),
) -> ast.Statement:
    """The statement with pushdown + hoisting applied."""
    query = _rewrite_query(
        statement.query, frozenset(initial_columns), frozenset(parameters)
    )
    if query is statement.query:
        return statement
    return replace(statement, query=query)


def _rewrite_query(query, bound: frozenset[str], parameters: frozenset[str]):
    if isinstance(query, ast.UnionQuery):
        left = _rewrite_query(query.left, bound, parameters)
        right = _rewrite_query(query.right, bound, parameters)
        if left is query.left and right is query.right:
            return query
        return replace(query, left=left, right=right)
    if isinstance(query, ast.SingleQuery):
        clauses = _rewrite_clauses(query.clauses, bound, parameters)
        if clauses is query.clauses:
            return query
        return replace(query, clauses=clauses)
    return query


def _rewrite_clauses(
    clauses: tuple[ast.Clause, ...],
    bound: frozenset[str],
    parameters: frozenset[str],
) -> tuple[ast.Clause, ...]:
    out: list[ast.Clause] = []
    changed = False
    for index, clause in enumerate(clauses):
        rewritten, next_bound = _rewrite_clause(clause, bound, parameters)
        if next_bound is None:
            # Unknown scope effect: keep the rest of the statement
            # verbatim rather than rewrite against a wrong scope.
            out.extend(clauses[index:])
            return tuple(out) if changed else clauses
        out.append(rewritten)
        changed = changed or rewritten is not clause
        bound = next_bound
    return tuple(out) if changed else clauses


def _rewrite_clause(
    clause: ast.Clause,
    bound: frozenset[str],
    parameters: frozenset[str],
) -> tuple[ast.Clause, Optional[frozenset[str]]]:
    """One clause rewritten, plus the variable scope it leaves behind.

    Returns ``(clause, None)`` when the clause's effect on scope is not
    modelled -- the caller then stops rewriting.
    """
    if isinstance(clause, ast.MatchClause):
        from repro.runtime.matcher import pattern_variables

        rewritten = _pushdown_match(clause, bound, parameters)
        if rewritten.where is not None:
            hoisted = _hoist(rewritten.where, bound)
            if hoisted is not rewritten.where:
                rewritten = replace(rewritten, where=hoisted)
        return rewritten, bound | set(pattern_variables(clause.pattern))
    if isinstance(clause, ast.UnwindClause):
        expression = _hoist(clause.expression, bound)
        rewritten = (
            clause
            if expression is clause.expression
            else replace(clause, expression=expression)
        )
        return rewritten, bound | {clause.variable}
    if isinstance(clause, (ast.WithClause, ast.ReturnClause)):
        return _rewrite_projection(clause, bound)
    if isinstance(clause, ast.LoadCsvClause):
        return clause, bound | {clause.variable}
    if isinstance(clause, (ast.CreateClause, ast.MergeClause)):
        from repro.runtime.matcher import pattern_variables

        return clause, bound | set(pattern_variables(clause.pattern))
    if isinstance(
        clause, (ast.SetClause, ast.RemoveClause, ast.DeleteClause,
                 ast.ForeachClause)
    ):
        return clause, bound
    return clause, None


def _rewrite_projection(
    clause,
    bound: frozenset[str],
) -> tuple[ast.Clause, Optional[frozenset[str]]]:
    """Hoist inside WITH / RETURN items and compute the output scope."""
    body = clause.body
    names: list[str] = list(bound) if body.include_existing else []
    items: list[ast.ProjectionItem] = []
    items_changed = False
    for item in body.items:
        names.append(_item_name(item))
        expression = item.expression
        # Grouping items of an aggregating projection still evaluate
        # per record, so hoisting them is equally sound; items that
        # contain aggregate calls are left alone.
        if not contains_aggregate(expression):
            hoisted = _hoist(expression, bound)
            if hoisted is not expression:
                item = replace(item, expression=hoisted)
                items_changed = True
        items.append(item)
    rewritten = clause
    if items_changed:
        rewritten = replace(clause, body=replace(body, items=tuple(items)))
    if isinstance(clause, ast.WithClause) and clause.where is not None:
        hoisted = _hoist(clause.where, frozenset(names))
        if hoisted is not clause.where:
            rewritten = replace(rewritten, where=hoisted)
    return rewritten, frozenset(names)


def _item_name(item: ast.ProjectionItem) -> str:
    """The output column name, mirroring projection._column_name."""
    from repro.parser.unparse import unparse

    if item.alias is not None:
        return item.alias
    if isinstance(item.expression, ast.Variable):
        return item.expression.name
    return unparse(item.expression)


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------


def _pushdown_match(
    clause: ast.MatchClause,
    bound: frozenset[str],
    parameters: frozenset[str],
) -> ast.MatchClause:
    if clause.where is None:
        return clause
    from repro.runtime.matcher import pattern_variables

    fresh = frozenset(pattern_variables(clause.pattern)) - bound
    elements = _pushable_elements(clause.pattern, fresh)
    if not elements:
        return clause
    pushes: list[tuple[str, str, str, ast.Expression]] = []
    equal_keys: dict[str, set[str]] = {}
    for conjunct in _split_and(clause.where):
        target = _pushdown_target(
            conjunct, elements, equal_keys, bound, parameters
        )
        if target is None:
            # All-or-nothing: partial pushdown would change how often
            # the remaining (possibly raising) conjuncts evaluate.
            return clause
        variable, key, operator, __ = target
        if operator == "=":
            equal_keys.setdefault(variable, set()).add(key)
        pushes.append(target)
    pattern = _apply_pushes(clause.pattern, pushes)
    return replace(clause, pattern=pattern, where=None)


def _split_and(expression: ast.Expression) -> list[ast.Expression]:
    if isinstance(expression, ast.Binary) and expression.operator == "AND":
        return _split_and(expression.left) + _split_and(expression.right)
    return [expression]


def _pushable_elements(
    pattern: ast.Pattern, fresh: frozenset[str]
) -> dict[str, object]:
    """Map fresh variable -> its single pattern element, if eligible.

    Variable-length relationships are excluded (their variable binds a
    list, so ``r.k`` in WHERE means something else than a map on the
    pattern).  A variable appearing on several elements maps to its
    first occurrence; filtering there is equivalent since all
    occurrences bind the same entity.
    """
    elements: dict[str, object] = {}
    for path in pattern.paths:
        for element in path.elements:
            variable = element.variable
            if variable is None or variable not in fresh:
                continue
            if (
                isinstance(element, ast.RelationshipPattern)
                and element.is_var_length
            ):
                elements.pop(variable, None)
                fresh = fresh - {variable}
                continue
            elements.setdefault(variable, element)
    return elements


#: the pushable comparison operators, each with the operator that says
#: the same thing with its operands swapped (``$lo <= a.id`` is
#: ``a.id >= $lo``)
_SWAPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _pushdown_target(
    conjunct: ast.Expression,
    elements: dict[str, object],
    equal_keys: dict[str, set[str]],
    bound: frozenset[str],
    parameters: frozenset[str],
) -> Optional[tuple[str, str, str, ast.Expression]]:
    """``(variable, key, operator, value)`` if *conjunct* is pushable.

    A pushable conjunct compares a fresh variable's property with a
    never-raising value (:func:`_safe_value`) by ``=``, ``<``, ``<=``,
    ``>`` or ``>=``; the result reads ``variable.key operator value``,
    whichever side the property was written on.  An equality moves into
    the element's property map, so its key must not be there already;
    a key may carry any number of range bounds.
    """
    if not isinstance(conjunct, ast.Binary):
        return None
    swapped = _SWAPPED.get(conjunct.operator)
    if swapped is None:
        return None
    for prop_side, operator, value_side in (
        (conjunct.left, conjunct.operator, conjunct.right),
        (conjunct.right, swapped, conjunct.left),
    ):
        if not isinstance(prop_side, ast.Property):
            continue
        if not isinstance(prop_side.subject, ast.Variable):
            continue
        variable = prop_side.subject.name
        element = elements.get(variable)
        if element is None:
            continue
        key = prop_side.key
        if operator == "=":
            existing = element.properties.keys() if element.properties else ()
            if key in existing or key in equal_keys.get(variable, ()):
                continue
        if not _safe_value(value_side, bound, parameters):
            continue
        return (variable, key, operator, value_side)
    return None


def _safe_value(
    expression: ast.Expression,
    bound: frozenset[str],
    parameters: frozenset[str],
) -> bool:
    """True iff evaluating *expression* can never raise.

    Property maps evaluate once per record before enumeration, while a
    WHERE evaluates only on matches -- so only expressions that cannot
    fail may move: literals, variables bound by earlier clauses
    (present in every record), and parameters actually supplied.
    """
    if isinstance(expression, ast.Literal):
        return True
    if isinstance(expression, ast.Variable):
        return expression.name in bound
    if isinstance(expression, ast.Parameter):
        return expression.name in parameters
    return False


def _apply_pushes(
    pattern: ast.Pattern, pushes: list[tuple[str, str, str, ast.Expression]]
) -> ast.Pattern:
    """Equalities into the property maps, ranges into ``comparisons``."""
    equal: dict[str, list[tuple[str, ast.Expression]]] = {}
    ranges: dict[str, list[ast.PushedComparison]] = {}
    for variable, key, operator, value in pushes:
        if operator == "=":
            equal.setdefault(variable, []).append((key, value))
        else:
            ranges.setdefault(variable, []).append(
                ast.PushedComparison(key, operator, value)
            )
    paths = []
    for path in pattern.paths:
        elements = []
        for element in path.elements:
            # A variable's pushes land on its first occurrence only.
            variable = element.variable
            additions = equal.pop(variable, None)
            if additions:
                items = (
                    element.properties.items if element.properties else ()
                ) + tuple(additions)
                element = replace(
                    element, properties=ast.MapLiteral(items=items)
                )
            comparisons = ranges.pop(variable, None)
            if comparisons:
                element = replace(
                    element,
                    comparisons=element.comparisons + tuple(comparisons),
                )
            elements.append(element)
        paths.append(replace(path, elements=tuple(elements)))
    return replace(pattern, paths=tuple(paths))


# ---------------------------------------------------------------------------
# Common-subexpression hoisting
# ---------------------------------------------------------------------------

#: Node types never worth wrapping on their own: atoms are already
#: cheap, and parameters/variables are resolved by one dict lookup.
_ATOMS = (ast.Literal, ast.Parameter, ast.Variable)


def _hoist(
    expression: ast.Expression, bound: frozenset[str]
) -> ast.Expression:
    """Wrap maximal record-invariant pure subtrees in HoistedExpression.

    *bound* is unused for invariance (a record-invariant subtree has no
    free variables at all) but kept for signature symmetry with the
    pushdown pass.
    """
    del bound
    return _hoist_walk(expression, frozenset())


def _hoist_walk(
    expression: ast.Expression, scope: frozenset[str]
) -> ast.Expression:
    if isinstance(expression, (ast.HoistedExpression, *_ATOMS)):
        return expression
    if _invariant(expression, scope) and not isinstance(
        expression, ast.MapLiteral
    ):
        return ast.HoistedExpression(expression)
    return _rebuild(expression, scope)


def _rebuild(
    expression: ast.Expression, scope: frozenset[str]
) -> ast.Expression:
    """Recurse into children, honouring comprehension binders."""
    if isinstance(expression, ast.ListComprehension):
        inner = scope | {expression.variable}
        return _replace_if_changed(
            expression,
            source=_hoist_walk(expression.source, scope),
            predicate=(
                _hoist_walk(expression.predicate, inner)
                if expression.predicate is not None
                else None
            ),
            projection=(
                _hoist_walk(expression.projection, inner)
                if expression.projection is not None
                else None
            ),
        )
    if isinstance(expression, ast.Quantifier):
        return _replace_if_changed(
            expression,
            source=_hoist_walk(expression.source, scope),
            predicate=_hoist_walk(
                expression.predicate, scope | {expression.variable}
            ),
        )
    if isinstance(expression, ast.Reduce):
        inner = scope | {expression.accumulator, expression.variable}
        return _replace_if_changed(
            expression,
            init=_hoist_walk(expression.init, scope),
            source=_hoist_walk(expression.source, scope),
            expression=_hoist_walk(expression.expression, inner),
        )
    if isinstance(expression, (ast.PatternExpression, ast.ExistsExpression)):
        return expression
    if isinstance(expression, ast.Unary):
        return _replace_if_changed(
            expression, operand=_hoist_walk(expression.operand, scope)
        )
    if isinstance(expression, ast.Binary):
        return _replace_if_changed(
            expression,
            left=_hoist_walk(expression.left, scope),
            right=_hoist_walk(expression.right, scope),
        )
    if isinstance(expression, ast.Property):
        return _replace_if_changed(
            expression, subject=_hoist_walk(expression.subject, scope)
        )
    if isinstance(expression, ast.ListLiteral):
        return _replace_if_changed(
            expression,
            items=tuple(
                _hoist_walk(item, scope) for item in expression.items
            ),
        )
    if isinstance(expression, ast.MapLiteral):
        return _replace_if_changed(
            expression,
            items=tuple(
                (key, _hoist_walk(value, scope))
                for key, value in expression.items
            ),
        )
    if isinstance(expression, ast.FunctionCall):
        return _replace_if_changed(
            expression,
            args=tuple(
                _hoist_walk(arg, scope) for arg in expression.args
            ),
        )
    if isinstance(expression, ast.Subscript):
        return _replace_if_changed(
            expression,
            subject=_hoist_walk(expression.subject, scope),
            index=_hoist_walk(expression.index, scope),
        )
    if isinstance(expression, ast.Slice):
        return _replace_if_changed(
            expression,
            subject=_hoist_walk(expression.subject, scope),
            start=(
                _hoist_walk(expression.start, scope)
                if expression.start is not None
                else None
            ),
            end=(
                _hoist_walk(expression.end, scope)
                if expression.end is not None
                else None
            ),
        )
    if isinstance(expression, ast.CaseExpression):
        return _replace_if_changed(
            expression,
            operand=(
                _hoist_walk(expression.operand, scope)
                if expression.operand is not None
                else None
            ),
            alternatives=tuple(
                (_hoist_walk(when, scope), _hoist_walk(then, scope))
                for when, then in expression.alternatives
            ),
            default=(
                _hoist_walk(expression.default, scope)
                if expression.default is not None
                else None
            ),
        )
    return expression


def _replace_if_changed(expression, **fields):
    if all(
        getattr(expression, name) == value for name, value in fields.items()
    ):
        return expression
    return replace(expression, **fields)


def _invariant(expression: ast.Expression, scope: frozenset[str]) -> bool:
    """True iff *expression* is record-invariant and safe to memoize.

    No free variables outside the comprehension-local *scope*, no
    pattern predicates or ``exists`` (graph-dependent: the graph can
    change between clauses of one statement), and no aggregate calls.
    Everything else in the expression language -- operators and the
    function library -- is deterministic and graph-independent.
    """
    if isinstance(expression, ast.Variable):
        return expression.name in scope
    if isinstance(
        expression,
        (ast.PatternExpression, ast.ExistsExpression, ast.CountStar),
    ):
        return False
    if is_aggregate_call(expression):
        return False
    if isinstance(expression, ast.ListComprehension):
        inner = scope | {expression.variable}
        return (
            _invariant(expression.source, scope)
            and (
                expression.predicate is None
                or _invariant(expression.predicate, inner)
            )
            and (
                expression.projection is None
                or _invariant(expression.projection, inner)
            )
        )
    if isinstance(expression, ast.Quantifier):
        return _invariant(expression.source, scope) and _invariant(
            expression.predicate, scope | {expression.variable}
        )
    if isinstance(expression, ast.Reduce):
        inner = scope | {expression.accumulator, expression.variable}
        return (
            _invariant(expression.init, scope)
            and _invariant(expression.source, scope)
            and _invariant(expression.expression, inner)
        )
    return all(_invariant(child, scope) for child in children(expression))
