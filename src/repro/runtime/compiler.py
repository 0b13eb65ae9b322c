"""The expression evaluator: AST -> nested Python closures.

:func:`compile_expression` lowers an
:class:`~repro.parser.ast.Expression` into a tree of closures, each a
direct call to its children, so the per-row cost is plain Python calls
with every compile-time decision (operator lookup, function resolution,
arity checks, aggregate detection) already taken.

Guarantees:

* **One semantics.**  Closures produce the values *and raise the
  errors* (class and message) of ``[[e]]_{G,u}``: three-valued
  AND/OR/XOR (both operands are always evaluated), null propagation,
  IEEE division edge cases and int64 overflow.  The tree-walking
  reference in :mod:`repro.testing.interpreter` is the oracle;
  ``tests/properties/test_compiler_equivalence.py`` holds the two
  together over every expression form.
* **Compile once, owned by the node.**  A node's closure is kept on the
  node itself (:attr:`~repro.parser.ast.Expression._compiled`), so it
  lives exactly as long as the statement it was compiled from -- the
  engine's statement cache bounds both -- and finding it again is one
  attribute read: no table, no hashing of AST subtrees, no lock.
* **Constant folding.**  Operator applications whose operands are
  literal scalars are evaluated at compile time; a folding step that
  *raises* (``1/0``, int64 overflow) compiles to a closure re-raising
  the same error at evaluation time, preserving error semantics.

Clauses do not call this module directly: they ask ``ctx.compile``, the
closure-maker of the statement being executed
(:attr:`repro.engine.Prepared.compile`), which is
:func:`compile_expression` everywhere outside the test oracles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.errors import (
    CypherError,
    CypherEvaluationError,
    CypherTypeError,
    ParameterMissingError,
    UnknownVariableError,
)
from repro.graph.model import Node, Relationship
from repro.graph.values import cypher_eq, type_name
from repro.parser import ast
from repro.runtime import expressions as exprs
from repro.runtime.aggregation import children, is_aggregate_call
from repro.runtime.functions import _ACCEPTS_NULL, FUNCTIONS

if TYPE_CHECKING:  # pragma: no cover - the context imports this module
    from repro.runtime.context import EvalContext

#: A compiled expression: ``(ctx, record) -> value``.
Compiled = Callable[["EvalContext", Mapping[str, Any]], Any]

#: A closure-maker: what ``ctx.compile`` is.
Compiler = Callable[[ast.Expression], Compiled]

#: Scalar types safe to bake into a constant closure (immutable, and
#: exactly the types a parsed ``ast.Literal`` can carry).
_CONST_SCALARS = (type(None), bool, int, float, str)

#: Hoisted subtrees are variable-free, so they evaluate against an
#: empty record; a mistakenly-hoisted variable fails loudly instead of
#: capturing the first record's binding.
_EMPTY_RECORD: dict = {}


class CompilerStats:
    """Process-wide compilation counters (snapshot-diffed by PROFILE)."""

    __slots__ = ("expressions_compiled", "constant_folded")

    def __init__(self) -> None:
        self.expressions_compiled = 0
        self.constant_folded = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy of the counters."""
        return {
            "expressions_compiled": self.expressions_compiled,
            "constant_folded": self.constant_folded,
        }


STATS = CompilerStats()


def compile_expression(expression: ast.Expression) -> Compiled:
    """The closure for *expression*, compiled on first request."""
    return _compiled(expression)[0]


def compile_map(
    compile: Compiler, properties: ast.MapLiteral
) -> tuple[tuple[tuple[str, Compiled], ...], frozenset[str]]:
    """A property map as ``((key, fn), ...)`` plus the variables it reads.

    Pattern property maps (node/relationship ``{k: e}`` annotations and
    CREATE/MERGE value maps) are the per-row hottest expressions; the
    pairs let the matcher and the update clauses evaluate each map
    expression exactly once per record.  The variables -- which
    bindings the map depends on -- are collected once and kept on the
    node.
    """
    variables = properties._variables
    if variables is None:
        variables = frozenset().union(
            *[_variables_of(value) for __, value in properties.items]
        )
        object.__setattr__(properties, "_variables", variables)
    return (
        tuple([(key, compile(value)) for key, value in properties.items]),
        variables,
    )


def _variables_of(expression: ast.Expression) -> set[str]:
    """The variable names *expression* reads (pattern predicates included)."""
    names: set[str] = set()
    if isinstance(expression, ast.Variable):
        names.add(expression.name)
    pattern = None
    if isinstance(expression, ast.PatternExpression):
        pattern = expression.pattern
    elif isinstance(expression, ast.ExistsExpression):
        pattern = expression.argument
    if isinstance(pattern, ast.PathPattern):
        for element in pattern.elements:
            if element.variable is not None:
                names.add(element.variable)
            if element.properties is not None:
                for __, value in element.properties.items:
                    names |= _variables_of(value)
    for child in children(expression):
        names |= _variables_of(child)
    return names


# ---------------------------------------------------------------------------
# Internal machinery
# ---------------------------------------------------------------------------


def _compiled(expression: ast.Expression) -> tuple[Compiled, bool]:
    """``(closure, is_const)`` for a node, compiled at most once."""
    entry = expression._compiled
    if entry is None:
        entry = _compile(expression)
        object.__setattr__(expression, "_compiled", entry)
    return entry


def _const(value: Any) -> tuple[Compiled, bool]:
    def constant(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        return value

    return constant, True


def _raising(error_class: type, *args: Any) -> Compiled:
    """A closure that re-raises a compile-time-detected error at runtime."""

    def refuse(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        raise error_class(*args)

    return refuse


def _try_fold(fn: Compiled) -> tuple[Compiled, bool]:
    """Fold an all-constant operator application at compile time.

    If folding raises a Cypher error (``1/0``, overflow, a type error
    on literals) the result is a closure raising the same error class
    with the same arguments -- evaluation-time semantics preserved.
    """
    try:
        value = fn(None, {})  # const operands never touch ctx/record
    except CypherError as error:
        return _raising(type(error), *error.args), False
    if isinstance(value, _CONST_SCALARS):
        STATS.constant_folded += 1
        return _const(value)
    return fn, False


def _compile(expression: ast.Expression) -> tuple[Compiled, bool]:
    """Dispatch on the node type; executed once per distinct node."""
    STATS.expressions_compiled += 1

    if isinstance(expression, ast.HoistedExpression):
        # Record-invariant subtree (rewrite pass): evaluate lazily, at
        # most once per EvalContext, and reuse the value for every
        # record.  Laziness preserves error semantics exactly -- a
        # segment with zero records never evaluates, and the first
        # record to need the value surfaces any error just as the
        # unhoisted expression would.  The cell keeps a strong ref to
        # its ctx so an id-reused context can never alias a stale value.
        inner_fn, inner_const = _compiled(expression.expression)
        if inner_const:
            return inner_fn, True
        cell: list = [None]

        def hoisted(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            cached = cell[0]
            if cached is not None and cached[0] is ctx:
                return cached[1]
            value = inner_fn(ctx, _EMPTY_RECORD)
            cell[0] = (ctx, value)
            return value

        return hoisted, False

    if isinstance(expression, ast.Literal):
        value = expression.value
        if isinstance(value, _CONST_SCALARS):
            return _const(value)

        def literal(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            return value

        return literal, False

    if isinstance(expression, ast.Parameter):
        name = expression.name
        message = f"missing parameter ${name}"

        def parameter(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            parameters = ctx.parameters
            if name not in parameters:
                raise ParameterMissingError(message)
            return parameters[name]

        return parameter, False

    if isinstance(expression, ast.Variable):
        name = expression.name
        message = f"variable '{name}' is not defined"

        def variable(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            try:
                return record[name]
            except KeyError:
                raise UnknownVariableError(message) from None

        return variable, False

    if isinstance(expression, ast.Property):
        subject_fn = _compiled(expression.subject)[0]
        key = expression.key

        def prop(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            subject = subject_fn(ctx, record)
            if subject is None:
                return None
            if isinstance(subject, (Node, Relationship, dict)):
                return subject.get(key)
            raise CypherTypeError(
                f"cannot read property '{key}' of {type_name(subject)}"
            )

        return prop, False

    if isinstance(expression, ast.ListLiteral):
        item_fns = tuple(_compiled(item)[0] for item in expression.items)

        def list_literal(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            return [fn(ctx, record) for fn in item_fns]

        return list_literal, False

    if isinstance(expression, ast.MapLiteral):
        pairs = tuple(
            (key, _compiled(value)[0]) for key, value in expression.items
        )

        def map_literal(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            return {key: fn(ctx, record) for key, fn in pairs}

        return map_literal, False

    if isinstance(expression, ast.Unary):
        op = exprs.UNARY_OPS[expression.operator]
        operand_fn, operand_const = _compiled(expression.operand)

        def unary(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            return op(operand_fn(ctx, record))

        if operand_const:
            return _try_fold(unary)
        return unary, False

    if isinstance(expression, ast.Binary):
        return _compile_binary(expression)

    if isinstance(expression, ast.IsNull):
        operand_fn, operand_const = _compiled(expression.operand)
        if expression.negated:

            def is_not_null(
                ctx: EvalContext, record: Mapping[str, Any]
            ) -> Any:
                return operand_fn(ctx, record) is not None

            checked = is_not_null
        else:

            def is_null(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
                return operand_fn(ctx, record) is None

            checked = is_null
        if operand_const:
            return _try_fold(checked)
        return checked, False

    if isinstance(expression, ast.HasLabels):
        subject_fn = _compiled(expression.subject)[0]
        labels = expression.labels

        def has_labels(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            subject = subject_fn(ctx, record)
            if subject is None:
                return None
            if not isinstance(subject, Node):
                raise CypherTypeError(
                    f"label predicate expects a Node, "
                    f"got {type_name(subject)}"
                )
            return all(subject.has_label(label) for label in labels)

        return has_labels, False

    if isinstance(expression, ast.FunctionCall):
        return _compile_function_call(expression)

    if isinstance(expression, ast.CountStar):
        return (
            _raising(
                CypherEvaluationError,
                "count(*) is only allowed in RETURN and WITH projections",
            ),
            False,
        )

    if isinstance(expression, ast.CaseExpression):
        return _compile_case(expression)

    if isinstance(expression, ast.ListComprehension):
        return _compile_list_comprehension(expression)

    if isinstance(expression, ast.Quantifier):
        return _compile_quantifier(expression)

    if isinstance(expression, ast.Reduce):
        return _compile_reduce(expression)

    if isinstance(expression, ast.Subscript):
        subscript_value = exprs.subscript_value
        subject_fn = _compiled(expression.subject)[0]
        index_fn = _compiled(expression.index)[0]

        def subscript(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            return subscript_value(
                subject_fn(ctx, record), index_fn(ctx, record)
            )

        return subscript, False

    if isinstance(expression, ast.Slice):
        return _compile_slice(expression)

    if isinstance(expression, ast.PatternExpression):
        pattern_predicate = exprs.pattern_predicate
        pattern = expression.pattern

        def pattern_expression(
            ctx: EvalContext, record: Mapping[str, Any]
        ) -> Any:
            return pattern_predicate(ctx, pattern, record)

        return pattern_expression, False

    if isinstance(expression, ast.ExistsExpression):
        if isinstance(expression.argument, ast.PathPattern):
            pattern_predicate = exprs.pattern_predicate
            pattern = expression.argument

            def exists_pattern(
                ctx: EvalContext, record: Mapping[str, Any]
            ) -> Any:
                return pattern_predicate(ctx, pattern, record)

            return exists_pattern, False
        argument_fn = _compiled(expression.argument)[0]

        def exists(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            return argument_fn(ctx, record) is not None

        return exists, False

    return (
        _raising(
            CypherEvaluationError,
            f"cannot evaluate expression {type(expression).__name__}",
        ),
        False,
    )


def _compile_binary(expression: ast.Binary) -> tuple[Compiled, bool]:
    operator = expression.operator
    left_fn, left_const = _compiled(expression.left)
    right_fn, right_const = _compiled(expression.right)
    both_const = left_const and right_const
    boolean_op = exprs.BOOLEAN_OPS.get(operator)
    if boolean_op is not None:
        # Three-valued connectives evaluate BOTH operands, exactly like
        # the interpreter: `false AND error` must still raise.

        def connective(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            return boolean_op(left_fn(ctx, record), right_fn(ctx, record))

        if both_const:
            return _try_fold(connective)
        return connective, False
    op = exprs.BINARY_OPS.get(operator)
    if op is None:
        # The interpreter evaluates operands before rejecting the
        # operator; preserve that order.
        message = f"unknown operator {operator}"

        def unknown(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            left_fn(ctx, record)
            right_fn(ctx, record)
            raise CypherEvaluationError(message)

        return unknown, False

    def binary(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        return op(left_fn(ctx, record), right_fn(ctx, record))

    if both_const:
        return _try_fold(binary)
    return binary, False


def _compile_function_call(
    expression: ast.FunctionCall,
) -> tuple[Compiled, bool]:
    name = expression.name
    arg_fns = tuple(_compiled(arg)[0] for arg in expression.args)
    if is_aggregate_call(expression):
        return (
            _raising(
                CypherEvaluationError,
                f"aggregate {name}() is only allowed in "
                f"RETURN and WITH projections",
            ),
            False,
        )

    def _evaluating_raiser(error_class: type, message: str) -> Compiled:
        # The interpreter evaluates arguments before dispatching, so
        # argument errors win over lookup/arity errors.
        def evaluate_then_raise(
            ctx: EvalContext, record: Mapping[str, Any]
        ) -> Any:
            for fn in arg_fns:
                fn(ctx, record)
            raise error_class(message)

        return evaluate_then_raise

    entry = FUNCTIONS.get(name)
    if entry is None:
        return (
            _evaluating_raiser(
                CypherEvaluationError, f"unknown function {name}()"
            ),
            False,
        )
    min_arity, max_arity, implementation = entry
    if not min_arity <= len(arg_fns) <= max_arity:
        expected = (
            str(min_arity)
            if min_arity == max_arity
            else f"{min_arity}..{max_arity}"
        )
        return (
            _evaluating_raiser(
                CypherEvaluationError,
                f"{name}() expects {expected} argument(s), "
                f"got {len(arg_fns)}",
            ),
            False,
        )
    if name in _ACCEPTS_NULL:

        def call_accepting_null(
            ctx: EvalContext, record: Mapping[str, Any]
        ) -> Any:
            return implementation(
                ctx, *[fn(ctx, record) for fn in arg_fns]
            )

        return call_accepting_null, False
    if len(arg_fns) == 1:
        arg_fn = arg_fns[0]

        def call_unary(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            arg = arg_fn(ctx, record)
            if arg is None:
                return None
            return implementation(ctx, arg)

        return call_unary, False

    def call(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        args = [fn(ctx, record) for fn in arg_fns]
        if any(arg is None for arg in args):
            return None
        return implementation(ctx, *args)

    return call, False


def _compile_case(expression: ast.CaseExpression) -> tuple[Compiled, bool]:
    alternatives = tuple(
        (_compiled(condition)[0], _compiled(result)[0])
        for condition, result in expression.alternatives
    )
    default_fn: Optional[Compiled] = (
        _compiled(expression.default)[0]
        if expression.default is not None
        else None
    )
    if expression.operand is not None:
        operand_fn = _compiled(expression.operand)[0]

        def simple_case(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
            operand = operand_fn(ctx, record)
            for condition_fn, result_fn in alternatives:
                if cypher_eq(operand, condition_fn(ctx, record)) is True:
                    return result_fn(ctx, record)
            if default_fn is not None:
                return default_fn(ctx, record)
            return None

        return simple_case, False

    def searched_case(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        for condition_fn, result_fn in alternatives:
            if condition_fn(ctx, record) is True:
                return result_fn(ctx, record)
        if default_fn is not None:
            return default_fn(ctx, record)
        return None

    return searched_case, False


def _compile_list_comprehension(
    expression: ast.ListComprehension,
) -> tuple[Compiled, bool]:
    variable = expression.variable
    source_fn = _compiled(expression.source)[0]
    predicate_fn: Optional[Compiled] = (
        _compiled(expression.predicate)[0]
        if expression.predicate is not None
        else None
    )
    projection_fn: Optional[Compiled] = (
        _compiled(expression.projection)[0]
        if expression.projection is not None
        else None
    )

    def list_comprehension(
        ctx: EvalContext, record: Mapping[str, Any]
    ) -> Any:
        source = source_fn(ctx, record)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(
                f"list comprehension expects a List, got {type_name(source)}"
            )
        result = []
        inner = dict(record)
        for element in source:
            inner[variable] = element
            if predicate_fn is not None:
                if predicate_fn(ctx, inner) is not True:
                    continue
            if projection_fn is not None:
                result.append(projection_fn(ctx, inner))
            else:
                result.append(element)
        return result

    return list_comprehension, False


def _compile_reduce(
    expression: ast.Reduce,
) -> tuple[Compiled, bool]:
    accumulator_name = expression.accumulator
    variable = expression.variable
    init_fn = _compiled(expression.init)[0]
    source_fn = _compiled(expression.source)[0]
    expression_fn = _compiled(expression.expression)[0]

    def reduce_expression(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        source = source_fn(ctx, record)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(
                f"reduce() expects a List, got {type_name(source)}"
            )
        accumulator = init_fn(ctx, record)
        inner = dict(record)
        for element in source:
            inner[accumulator_name] = accumulator
            inner[variable] = element
            accumulator = expression_fn(ctx, inner)
        return accumulator

    return reduce_expression, False


def _compile_quantifier(
    expression: ast.Quantifier,
) -> tuple[Compiled, bool]:
    quantifier_outcome = exprs.quantifier_outcome
    kind = expression.kind
    variable = expression.variable
    source_fn = _compiled(expression.source)[0]
    predicate_fn = _compiled(expression.predicate)[0]

    def quantifier(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        source = source_fn(ctx, record)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(
                f"{kind}() expects a List, got {type_name(source)}"
            )
        true_count = 0
        null_count = 0
        inner = dict(record)
        for element in source:
            inner[variable] = element
            outcome = predicate_fn(ctx, inner)
            if outcome is True:
                true_count += 1
            elif outcome is None:
                null_count += 1
        false_count = len(source) - true_count - null_count
        return quantifier_outcome(kind, true_count, null_count, false_count)

    return quantifier, False


def _compile_slice(expression: ast.Slice) -> tuple[Compiled, bool]:
    slice_value = exprs.slice_value
    subject_fn = _compiled(expression.subject)[0]
    start_fn: Optional[Compiled] = (
        _compiled(expression.start)[0]
        if expression.start is not None
        else None
    )
    end_fn: Optional[Compiled] = (
        _compiled(expression.end)[0] if expression.end is not None else None
    )

    def slice_(ctx: EvalContext, record: Mapping[str, Any]) -> Any:
        subject = subject_fn(ctx, record)
        if subject is None:
            return None
        if not isinstance(subject, list):
            raise CypherTypeError(f"cannot slice {type_name(subject)}")
        start = start_fn(ctx, record) if start_fn is not None else 0
        end = end_fn(ctx, record) if end_fn is not None else len(subject)
        return slice_value(subject, start, end)

    return slice_, False
