"""The operator kernels of expression evaluation.

``[[e]]_{G,u}`` -- the value of expression *e* on graph *G* under
assignment *u* (the current record) -- follows the paper's companion
formalization: SQL-style three-valued logic, null propagation through
operators and most functions, and entity property access via iota
(absent keys read as null).

The runtime evaluates expressions through closures
(:mod:`repro.runtime.compiler`); the tree-walking reference
(:mod:`repro.testing.interpreter`) is an oracle for tests and the
fuzzer.  Both apply the operator implementations defined *here*, so
there is exactly one definition of ``+`` on lists, IEEE zero division,
int64 overflow checking, subscripts, slices, quantifier verdicts and
pattern predicates.

Aggregates are not evaluated by either: projections (RETURN/WITH)
detect and compute them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.model import Node, Relationship
from repro.graph.values import (
    check_int64,
    cypher_eq,
    cypher_gt,
    cypher_gte,
    cypher_in,
    cypher_lt,
    cypher_lte,
    cypher_neq,
    is_number,
    tri_and,
    tri_not,
    tri_or,
    tri_xor,
    type_name,
)
from repro.parser import ast

if TYPE_CHECKING:  # pragma: no cover - the context imports the compiler
    from repro.runtime.context import EvalContext


def unary_not(value: Any) -> Any:
    """``NOT e`` under three-valued logic."""
    return tri_not(value)


def unary_minus(value: Any) -> Any:
    """Numeric negation with int64 overflow checking."""
    if value is None:
        return None
    if not is_number(value):
        raise CypherTypeError(
            f"unary - expects a number, got {type_name(value)}"
        )
    if isinstance(value, int):
        return check_int64(-value, "unary -")
    return -value


def unary_plus(value: Any) -> Any:
    """Numeric identity (type-checks its operand)."""
    if value is None:
        return None
    if not is_number(value):
        raise CypherTypeError(
            f"unary + expects a number, got {type_name(value)}"
        )
    return value


#: Unary operator implementations shared by interpreter and compiler.
UNARY_OPS: dict[str, Callable[[Any], Any]] = {
    "NOT": unary_not,
    "-": unary_minus,
    "+": unary_plus,
}


def _string_op(operator: str, impl: Callable[[str, str], bool]):
    def string_predicate(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            raise CypherTypeError(
                f"{operator} expects Strings, got "
                f"{type_name(left)} and {type_name(right)}"
            )
        return impl(left, right)

    string_predicate.__name__ = f"op_{operator.lower().replace(' ', '_')}"
    return string_predicate


def _require_numbers(operator: str, left: Any, right: Any) -> None:
    if not is_number(left) or not is_number(right):
        raise CypherTypeError(
            f"operator {operator} expects numbers, got "
            f"{type_name(left)} and {type_name(right)}"
        )


def op_add(left: Any, right: Any) -> Any:
    """``+`` on numbers, strings and lists (with null propagation)."""
    if left is None or right is None:
        return None
    if isinstance(left, list):
        return left + (right if isinstance(right, list) else [right])
    if isinstance(right, list):
        return [left] + right
    if isinstance(left, str) or isinstance(right, str):
        return _concat(left, right)
    _require_numbers("+", left, right)
    result = left + right
    if isinstance(left, int) and isinstance(right, int):
        return check_int64(result, "+")
    return result


def op_subtract(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _require_numbers("-", left, right)
    result = left - right
    if isinstance(left, int) and isinstance(right, int):
        return check_int64(result, "-")
    return result


def op_multiply(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _require_numbers("*", left, right)
    result = left * right
    if isinstance(left, int) and isinstance(right, int):
        return check_int64(result, "*")
    return result


def op_divide(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _require_numbers("/", left, right)
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise CypherEvaluationError("division by zero")
        # Truncating (toward-zero) integer division, computed
        # exactly -- ``int(left / right)`` loses precision above
        # 2**53.  INT64_MIN / -1 overflows the Integer domain.
        quotient = abs(left) // abs(right)
        if (left >= 0) != (right >= 0):
            quotient = -quotient
        return check_int64(quotient, "/")
    return _float_divide(float(left), float(right))


def op_modulo(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _require_numbers("%", left, right)
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise CypherEvaluationError("modulo by zero")
        result = abs(left) % abs(right)
        return result if left >= 0 else -result
    return _float_modulo(float(left), float(right))


def op_power(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _require_numbers("^", left, right)
    base = float(left)
    exponent = float(right)
    try:
        result = base ** exponent
    except OverflowError:
        # IEEE-754 pow saturates to infinity (Java Math.pow, which
        # Cypher's ^ follows); CPython raises instead.  The result is
        # negative only for a negative base raised to an odd integer.
        negative = (
            base < 0
            and exponent == exponent  # not NaN
            and abs(exponent) != float("inf")
            and exponent == int(exponent)
            and int(exponent) % 2 == 1
        )
        return float("-inf") if negative else float("inf")
    if isinstance(result, complex):
        # Negative base with a fractional exponent: IEEE pow says NaN.
        return float("nan")
    return result


#: Non-boolean binary operator implementations, shared by interpreter
#: and compiler.  Boolean connectives (AND/OR/XOR) are handled apart
#: because the compiler folds them differently.
BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": cypher_eq,
    "<>": cypher_neq,
    "<": cypher_lt,
    "<=": cypher_lte,
    ">": cypher_gt,
    ">=": cypher_gte,
    "IN": cypher_in,
    "STARTS WITH": _string_op("STARTS WITH", str.startswith),
    "ENDS WITH": _string_op("ENDS WITH", str.endswith),
    "CONTAINS": _string_op("CONTAINS", lambda left, right: right in left),
    "+": op_add,
    "-": op_subtract,
    "*": op_multiply,
    "/": op_divide,
    "%": op_modulo,
    "^": op_power,
}

#: Boolean connective implementations (three-valued logic).
BOOLEAN_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "AND": tri_and,
    "OR": tri_or,
    "XOR": tri_xor,
}


def _float_divide(left: float, right: float) -> float:
    """Float ``/`` with IEEE 754 zero-divisor semantics.

    Python raises ``ZeroDivisionError`` even for floats; Cypher (like
    IEEE arithmetic) yields ``±Infinity`` for a nonzero dividend and
    ``NaN`` for ``0.0 / 0.0``, honouring the sign of a signed zero.
    """
    if right != 0.0:
        return left / right
    if left == 0.0 or math.isnan(left):
        return math.nan
    sign = math.copysign(1.0, left) * math.copysign(1.0, right)
    return math.copysign(math.inf, sign)


def _float_modulo(left: float, right: float) -> float:
    """Float ``%`` as IEEE ``fmod``: dividend-signed, ``NaN`` on zero.

    ``math.fmod`` raises on the domain edges Python dislikes (zero
    divisor, infinite dividend) where IEEE says ``NaN``.
    """
    if right == 0.0 or math.isinf(left) or math.isnan(right):
        return math.nan
    if math.isinf(right):
        return left  # fmod(x, inf) = x for finite x
    return math.fmod(left, right)


def _concat(left: Any, right: Any) -> str:
    def text(value: Any) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if is_number(value):
            return str(value)
        raise CypherTypeError(
            f"cannot concatenate {type_name(value)} with a String"
        )

    return text(left) + text(right)


def quantifier_outcome(
    kind: str, true_count: int, null_count: int, false_count: int
) -> Any:
    """The three-valued verdict of an any/all/none/single quantifier."""
    if kind == "any":
        if true_count:
            return True
        return None if null_count else False
    if kind == "all":
        if false_count:
            return False
        return None if null_count else True
    if kind == "none":
        if true_count:
            return False
        return None if null_count else True
    if kind == "single":
        if true_count > 1:
            return False
        if null_count:
            return None
        return true_count == 1
    raise AssertionError(kind)


def subscript_value(subject: Any, index: Any) -> Any:
    """``subject[index]`` on lists, maps and entities."""
    if subject is None or index is None:
        return None
    if isinstance(subject, list):
        if not isinstance(index, int) or isinstance(index, bool):
            raise CypherTypeError(
                f"list index must be an Integer, got {type_name(index)}"
            )
        if -len(subject) <= index < len(subject):
            return subject[index]
        return None
    if isinstance(subject, (dict, Node, Relationship)):
        if not isinstance(index, str):
            raise CypherTypeError(
                f"map key must be a String, got {type_name(index)}"
            )
        return subject.get(index)
    raise CypherTypeError(f"cannot index into {type_name(subject)}")


def slice_value(subject: Any, start: Any, end: Any) -> Any:
    """``subject[start..end]`` on lists (bounds already evaluated)."""
    if start is None or end is None:
        return None
    for bound in (start, end):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise CypherTypeError("slice bounds must be Integers")
    return subject[start:end]


def pattern_predicate(
    ctx: EvalContext, pattern: ast.PathPattern, record: Mapping[str, Any]
) -> bool:
    """True iff the path pattern has at least one match from *record*."""
    from repro.runtime.matcher import match_paths  # circular-import guard

    stripped = _strip_unbound_variables(pattern, record)
    for __ in match_paths(ctx, (stripped,), record):
        return True
    return False


def _strip_unbound_variables(
    pattern: ast.PathPattern, record: Mapping[str, Any]
) -> ast.PathPattern:
    """Make pattern variables not bound in *record* anonymous.

    In a pattern *predicate*, unbound variables are existentially
    quantified rather than binding new columns.
    """
    elements = []
    for element in pattern.elements:
        variable = element.variable
        if variable is not None and variable not in record:
            element = replace(element, variable=None)
        elements.append(element)
    return ast.PathPattern(variable=None, elements=tuple(elements))
