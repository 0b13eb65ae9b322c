"""Static variable-scope checking.

The runtime evaluator reports unknown variables only when an expression
is actually evaluated -- which never happens for clauses driven by an
empty table, so a typo like ``RETURN usr.name`` after a non-matching
MATCH would silently return nothing.  This checker walks a parsed
statement *before* execution, tracking the variables each clause
introduces and the scope narrowing performed by WITH/RETURN, and raises
:class:`~repro.errors.UnknownVariableError` /
:class:`~repro.errors.CypherSemanticError` eagerly.

Scope rules implemented:

* MATCH / CREATE / MERGE patterns introduce their node, relationship
  and path variables; re-using a bound variable in a pattern is legal
  (it constrains the match or re-uses the entity);
* UNWIND and LOAD CSV introduce their row variable (re-binding a name
  already in scope is an error);
* WITH and RETURN replace the scope with their output columns; ORDER BY
  inside them may reference both the old and the new scope;
* FOREACH introduces its loop variable for the inner updates only;
* list comprehensions and quantifiers introduce a local variable for
  their own sub-expressions;
* variables inside pattern *predicates* are existential: unknown names
  there are allowed (they quantify, not reference).
"""

from __future__ import annotations

from repro.errors import CypherSemanticError, UnknownVariableError
from repro.parser import ast


def check_statement(
    statement: ast.Statement, initial: frozenset[str] = frozenset()
) -> None:
    """Validate variable usage; raises on the first violation."""
    for branch in statement.branches():
        _check_clauses(branch.clauses, set(initial))


def _check_clauses(clauses: tuple[ast.Clause, ...], scope: set[str]) -> None:
    for clause in clauses:
        scope = check_clause(clause, scope)


def check_clause(clause: ast.Clause, scope: set[str]) -> set[str]:
    """Validate one clause against *scope*; the scope it leaves."""
    if isinstance(clause, ast.MatchClause):
        scope = _check_pattern(clause.pattern, scope, allow_new=True)
        if clause.where is not None:
            _check_expression(clause.where, scope)
        return scope
    if isinstance(clause, ast.UnwindClause):
        _check_expression(clause.expression, scope)
        if clause.variable in scope:
            raise CypherSemanticError(
                f"variable '{clause.variable}' is already bound"
            )
        return scope | {clause.variable}
    if isinstance(clause, ast.LoadCsvClause):
        _check_expression(clause.source, scope)
        if clause.variable in scope:
            raise CypherSemanticError(
                f"variable '{clause.variable}' is already bound"
            )
        return scope | {clause.variable}
    if isinstance(clause, (ast.WithClause, ast.ReturnClause)):
        body = clause.body
        output: set[str] = set()
        if body.include_existing:
            output |= scope
        for item in body.items:
            _check_expression(item.expression, scope)
            name = item.alias or (
                item.expression.name
                if isinstance(item.expression, ast.Variable)
                else None
            )
            if name is not None:
                output.add(name)
        for sort_item in body.order_by:
            _check_expression(sort_item.expression, scope | output)
        if isinstance(clause, ast.WithClause) and clause.where is not None:
            _check_expression(clause.where, output)
        return output
    if isinstance(clause, ast.CreateClause):
        return _check_pattern(clause.pattern, scope, allow_new=True)
    if isinstance(clause, ast.MergeClause):
        scope = _check_pattern(clause.pattern, scope, allow_new=True)
        for item in clause.on_create + clause.on_match:
            _check_set_item(item, scope)
        return scope
    if isinstance(clause, ast.DeleteClause):
        for expression in clause.expressions:
            _check_expression(expression, scope)
        return scope
    if isinstance(clause, ast.SetClause):
        for item in clause.items:
            _check_set_item(item, scope)
        return scope
    if isinstance(clause, ast.RemoveClause):
        for item in clause.items:
            if isinstance(item, ast.RemoveProperty):
                _check_expression(item.target, scope)
            else:
                _check_expression(item.target, scope)
        return scope
    if isinstance(clause, ast.ForeachClause):
        _check_expression(clause.source, scope)
        if clause.variable in scope:
            raise CypherSemanticError(
                f"variable '{clause.variable}' is already bound"
            )
        inner = scope | {clause.variable}
        for update in clause.updates:
            inner = check_clause(update, inner)
        return scope
    return scope


def _check_set_item(item: ast.SetItem, scope: set[str]) -> None:
    if isinstance(item, ast.SetProperty):
        _check_expression(item.target, scope)
        _check_expression(item.value, scope)
    elif isinstance(item, (ast.SetAllProperties, ast.SetAdditiveProperties)):
        _check_expression(item.target, scope)
        _check_expression(item.value, scope)
    elif isinstance(item, ast.SetLabels):
        _check_expression(item.target, scope)


def _check_pattern(
    pattern: ast.Pattern, scope: set[str], *, allow_new: bool
) -> set[str]:
    scope = set(scope)
    for path in pattern.paths:
        if path.variable is not None:
            if path.variable in scope:
                raise CypherSemanticError(
                    f"path variable '{path.variable}' is already bound"
                )
            scope.add(path.variable)
        for element in path.elements:
            if element.variable is not None:
                scope.add(element.variable)
            if element.properties is not None:
                for __, expression in element.properties.items:
                    _check_expression(expression, scope)
    return scope


def _check_expression(expression: ast.Expression, scope: set[str]) -> None:
    if isinstance(expression, ast.Variable):
        if expression.name not in scope:
            raise UnknownVariableError(
                f"variable '{expression.name}' is not defined"
            )
        return
    if isinstance(expression, ast.ListComprehension):
        _check_expression(expression.source, scope)
        inner = scope | {expression.variable}
        if expression.predicate is not None:
            _check_expression(expression.predicate, inner)
        if expression.projection is not None:
            _check_expression(expression.projection, inner)
        return
    if isinstance(expression, ast.Quantifier):
        _check_expression(expression.source, scope)
        _check_expression(expression.predicate, scope | {expression.variable})
        return
    if isinstance(expression, ast.Reduce):
        _check_expression(expression.init, scope)
        _check_expression(expression.source, scope)
        _check_expression(
            expression.expression,
            scope | {expression.accumulator, expression.variable},
        )
        return
    if isinstance(expression, (ast.PatternExpression, ast.ExistsExpression)):
        # Pattern predicates quantify their unbound variables
        # existentially; only property-map expressions inside them are
        # checked (they may reference outer scope or the pattern's own
        # existential variables).
        argument = (
            expression.pattern
            if isinstance(expression, ast.PatternExpression)
            else expression.argument
        )
        if isinstance(argument, ast.PathPattern):
            local = set(scope)
            for element in argument.elements:
                if element.variable is not None:
                    local.add(element.variable)
            for element in argument.elements:
                if element.properties is not None:
                    for __, value in element.properties.items:
                        _check_expression(value, local)
            return
        _check_expression(argument, scope)
        return
    from repro.runtime.aggregation import children

    for child in children(expression):
        _check_expression(child, scope)
