"""The tree-walking reference evaluator: an oracle, not a runtime.

:func:`interpret` evaluates ``[[e]]_{G,u}`` by walking the AST,
re-dispatching on the node type at every step.  It is the original
evaluator, kept verbatim as the reference the closure compiler
(:mod:`repro.runtime.compiler`) is checked against -- form by form,
values *and* errors, by ``tests/properties/test_compiler_equivalence.py``
and statement by statement by the differential fuzzer.  The runtime
never imports it; the two share the operator kernels of
:mod:`repro.runtime.expressions`, so only the *dispatch* exists twice.

The seam is the statement's closure-maker (``ctx.compile``, taken from
the :class:`~repro.engine.Prepared` being executed): executing
``interpreted(engine.prepare(text))`` evaluates every expression of the
statement here.
"""

from __future__ import annotations

import copy
from typing import Any, Mapping

from repro.engine import Prepared
from repro.errors import (
    CypherEvaluationError,
    CypherTypeError,
    ParameterMissingError,
    UnknownVariableError,
)
from repro.graph.model import Node, Relationship
from repro.graph.values import (
    cypher_eq,
    tri_and,
    tri_or,
    tri_xor,
    type_name,
)
from repro.parser import ast
from repro.runtime.aggregation import is_aggregate_call
from repro.runtime.compiler import Compiled
from repro.runtime.context import EvalContext
from repro.runtime.expressions import (
    BINARY_OPS,
    UNARY_OPS,
    pattern_predicate,
    quantifier_outcome,
    slice_value,
    subscript_value,
)
from repro.runtime.functions import call_function


def interpreting(expression: ast.Expression) -> Compiled:
    """A closure that interprets *expression* (nothing is memoized)."""

    def interpreted_expression(
        ctx: EvalContext, record: Mapping[str, Any]
    ) -> Any:
        return interpret(ctx, expression, record)

    return interpreted_expression


def interpreted(prepared: Prepared) -> Prepared:
    """A twin of *prepared* whose expressions are all interpreted."""
    twin = copy.copy(prepared)
    twin.compile = interpreting
    return twin


def interpret(
    ctx: EvalContext, expression: ast.Expression, record: Mapping[str, Any]
) -> Any:
    """Reference interpreter: evaluate by walking the AST directly."""
    if isinstance(expression, ast.HoistedExpression):
        # The interpreter skips the memoization -- per-row evaluation of
        # a record-invariant expression is semantically identical.
        return interpret(ctx, expression.expression, record)
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Parameter):
        if expression.name not in ctx.parameters:
            raise ParameterMissingError(
                f"missing parameter ${expression.name}"
            )
        return ctx.parameters[expression.name]
    if isinstance(expression, ast.Variable):
        if expression.name not in record:
            raise UnknownVariableError(
                f"variable '{expression.name}' is not defined"
            )
        return record[expression.name]
    if isinstance(expression, ast.Property):
        return _property(ctx, expression, record)
    if isinstance(expression, ast.ListLiteral):
        return [interpret(ctx, item, record) for item in expression.items]
    if isinstance(expression, ast.MapLiteral):
        return {
            key: interpret(ctx, value, record)
            for key, value in expression.items
        }
    if isinstance(expression, ast.Unary):
        return _unary(ctx, expression, record)
    if isinstance(expression, ast.Binary):
        return _binary(ctx, expression, record)
    if isinstance(expression, ast.IsNull):
        value = interpret(ctx, expression.operand, record)
        return (value is not None) if expression.negated else (value is None)
    if isinstance(expression, ast.HasLabels):
        subject = interpret(ctx, expression.subject, record)
        if subject is None:
            return None
        if not isinstance(subject, Node):
            raise CypherTypeError(
                f"label predicate expects a Node, got {type_name(subject)}"
            )
        return all(subject.has_label(label) for label in expression.labels)
    if isinstance(expression, ast.FunctionCall):
        if is_aggregate_call(expression):
            raise CypherEvaluationError(
                f"aggregate {expression.name}() is only allowed in "
                f"RETURN and WITH projections"
            )
        args = [interpret(ctx, arg, record) for arg in expression.args]
        return call_function(ctx, expression.name, args)
    if isinstance(expression, ast.CountStar):
        raise CypherEvaluationError(
            "count(*) is only allowed in RETURN and WITH projections"
        )
    if isinstance(expression, ast.CaseExpression):
        return _case(ctx, expression, record)
    if isinstance(expression, ast.ListComprehension):
        return _list_comprehension(ctx, expression, record)
    if isinstance(expression, ast.Quantifier):
        return _quantifier(ctx, expression, record)
    if isinstance(expression, ast.Reduce):
        return _reduce(ctx, expression, record)
    if isinstance(expression, ast.Subscript):
        return _subscript(ctx, expression, record)
    if isinstance(expression, ast.Slice):
        return _slice(ctx, expression, record)
    if isinstance(expression, ast.PatternExpression):
        return pattern_predicate(ctx, expression.pattern, record)
    if isinstance(expression, ast.ExistsExpression):
        if isinstance(expression.argument, ast.PathPattern):
            return pattern_predicate(ctx, expression.argument, record)
        return interpret(ctx, expression.argument, record) is not None
    raise CypherEvaluationError(
        f"cannot evaluate expression {type(expression).__name__}"
    )


def _property(
    ctx: EvalContext, expression: ast.Property, record: Mapping[str, Any]
) -> Any:
    subject = interpret(ctx, expression.subject, record)
    if subject is None:
        return None
    if isinstance(subject, (Node, Relationship)):
        return subject.get(expression.key)
    if isinstance(subject, dict):
        return subject.get(expression.key)
    raise CypherTypeError(
        f"cannot read property '{expression.key}' of {type_name(subject)}"
    )


def _unary(
    ctx: EvalContext, expression: ast.Unary, record: Mapping[str, Any]
) -> Any:
    value = interpret(ctx, expression.operand, record)
    return UNARY_OPS[expression.operator](value)


def _binary(
    ctx: EvalContext, expression: ast.Binary, record: Mapping[str, Any]
) -> Any:
    operator = expression.operator
    # Boolean connectives do not short-circuit on nulls, but we can
    # still evaluate lazily on definite outcomes.
    if operator in ("AND", "OR", "XOR"):
        left = interpret(ctx, expression.left, record)
        right = interpret(ctx, expression.right, record)
        if operator == "AND":
            return tri_and(left, right)
        if operator == "OR":
            return tri_or(left, right)
        return tri_xor(left, right)
    left = interpret(ctx, expression.left, record)
    right = interpret(ctx, expression.right, record)
    op = BINARY_OPS.get(operator)
    if op is None:
        raise CypherEvaluationError(f"unknown operator {operator}")
    return op(left, right)


def _case(
    ctx: EvalContext, expression: ast.CaseExpression, record: Mapping[str, Any]
) -> Any:
    if expression.operand is not None:
        operand = interpret(ctx, expression.operand, record)
        for condition, result in expression.alternatives:
            if cypher_eq(operand, interpret(ctx, condition, record)) is True:
                return interpret(ctx, result, record)
    else:
        for condition, result in expression.alternatives:
            if interpret(ctx, condition, record) is True:
                return interpret(ctx, result, record)
    if expression.default is not None:
        return interpret(ctx, expression.default, record)
    return None


def _list_comprehension(
    ctx: EvalContext,
    expression: ast.ListComprehension,
    record: Mapping[str, Any],
) -> Any:
    source = interpret(ctx, expression.source, record)
    if source is None:
        return None
    if not isinstance(source, list):
        raise CypherTypeError(
            f"list comprehension expects a List, got {type_name(source)}"
        )
    result = []
    inner = dict(record)
    for element in source:
        inner[expression.variable] = element
        if expression.predicate is not None:
            if interpret(ctx, expression.predicate, inner) is not True:
                continue
        if expression.projection is not None:
            result.append(interpret(ctx, expression.projection, inner))
        else:
            result.append(element)
    return result


def _reduce(
    ctx: EvalContext, expression: ast.Reduce, record: Mapping[str, Any]
) -> Any:
    source = interpret(ctx, expression.source, record)
    if source is None:
        return None
    if not isinstance(source, list):
        raise CypherTypeError(
            f"reduce() expects a List, got {type_name(source)}"
        )
    accumulator = interpret(ctx, expression.init, record)
    inner = dict(record)
    for element in source:
        inner[expression.accumulator] = accumulator
        inner[expression.variable] = element
        accumulator = interpret(ctx, expression.expression, inner)
    return accumulator


def _quantifier(
    ctx: EvalContext, expression: ast.Quantifier, record: Mapping[str, Any]
) -> Any:
    source = interpret(ctx, expression.source, record)
    if source is None:
        return None
    if not isinstance(source, list):
        raise CypherTypeError(
            f"{expression.kind}() expects a List, got {type_name(source)}"
        )
    true_count = 0
    null_count = 0
    inner = dict(record)
    for element in source:
        inner[expression.variable] = element
        outcome = interpret(ctx, expression.predicate, inner)
        if outcome is True:
            true_count += 1
        elif outcome is None:
            null_count += 1
    false_count = len(source) - true_count - null_count
    return quantifier_outcome(
        expression.kind, true_count, null_count, false_count
    )


def _subscript(
    ctx: EvalContext, expression: ast.Subscript, record: Mapping[str, Any]
) -> Any:
    subject = interpret(ctx, expression.subject, record)
    index = interpret(ctx, expression.index, record)
    return subscript_value(subject, index)


def _slice(
    ctx: EvalContext, expression: ast.Slice, record: Mapping[str, Any]
) -> Any:
    subject = interpret(ctx, expression.subject, record)
    if subject is None:
        return None
    if not isinstance(subject, list):
        raise CypherTypeError(f"cannot slice {type_name(subject)}")
    start = (
        interpret(ctx, expression.start, record)
        if expression.start is not None
        else 0
    )
    end = (
        interpret(ctx, expression.end, record)
        if expression.end is not None
        else len(subject)
    )
    return slice_value(subject, start, end)
