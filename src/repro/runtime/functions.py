"""Built-in (non-aggregate) Cypher functions.

Functions are registered in :data:`FUNCTIONS` as
``name -> (min_arity, max_arity, implementation)``; implementations take
the :class:`~repro.runtime.context.EvalContext` and the already
evaluated argument values.  Most functions are *null-propagating*: any
null argument yields null.  Functions that deliberately accept nulls
(``coalesce``, ``size`` on null, ...) opt out via ``_ACCEPTS_NULL``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.model import Node, Path, Relationship
from repro.graph.values import check_int64, is_number, type_name
from repro.runtime.limits import check_list_length

if TYPE_CHECKING:  # pragma: no cover - the context imports the compiler
    from repro.runtime.context import EvalContext

Implementation = Callable[..., Any]


def _check_entity(value: Any, function: str) -> None:
    if not isinstance(value, (Node, Relationship)):
        raise CypherTypeError(
            f"{function}() expects a Node or Relationship, "
            f"got {type_name(value)}"
        )


def _fn_id(ctx: EvalContext, value: Any) -> Any:
    _check_entity(value, "id")
    return value.id


def _fn_labels(ctx: EvalContext, value: Any) -> Any:
    if not isinstance(value, Node):
        raise CypherTypeError(f"labels() expects a Node, got {type_name(value)}")
    return sorted(value.labels)


def _fn_type(ctx: EvalContext, value: Any) -> Any:
    if not isinstance(value, Relationship):
        raise CypherTypeError(
            f"type() expects a Relationship, got {type_name(value)}"
        )
    return value.type


def _fn_properties(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, dict):
        return dict(value)
    _check_entity(value, "properties")
    return dict(value.properties)


def _fn_keys(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, dict):
        return sorted(value)
    _check_entity(value, "keys")
    return sorted(value.properties)


def _fn_start_node(ctx: EvalContext, value: Any) -> Any:
    if not isinstance(value, Relationship):
        raise CypherTypeError(
            f"startNode() expects a Relationship, got {type_name(value)}"
        )
    return value.start


def _fn_end_node(ctx: EvalContext, value: Any) -> Any:
    if not isinstance(value, Relationship):
        raise CypherTypeError(
            f"endNode() expects a Relationship, got {type_name(value)}"
        )
    return value.end


def _fn_size(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, (list, str)):
        return len(value)
    if isinstance(value, dict):
        return len(value)
    raise CypherTypeError(f"size() expects a List or String, got {type_name(value)}")


def _fn_length(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, Path):
        return len(value)
    if isinstance(value, (list, str)):
        return len(value)
    raise CypherTypeError(f"length() expects a Path, got {type_name(value)}")


def _fn_nodes(ctx: EvalContext, value: Any) -> Any:
    if not isinstance(value, Path):
        raise CypherTypeError(f"nodes() expects a Path, got {type_name(value)}")
    return list(value.nodes)


def _fn_relationships(ctx: EvalContext, value: Any) -> Any:
    if not isinstance(value, Path):
        raise CypherTypeError(
            f"relationships() expects a Path, got {type_name(value)}"
        )
    return list(value.relationships)


def _fn_degree(ctx: EvalContext, value: Any) -> Any:
    if not isinstance(value, Node):
        raise CypherTypeError(f"degree() expects a Node, got {type_name(value)}")
    return value.degree()


def _fn_coalesce(ctx: EvalContext, *values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


def _fn_head(ctx: EvalContext, value: Any) -> Any:
    _require_list(value, "head")
    return value[0] if value else None


def _fn_last(ctx: EvalContext, value: Any) -> Any:
    _require_list(value, "last")
    return value[-1] if value else None


def _fn_tail(ctx: EvalContext, value: Any) -> Any:
    _require_list(value, "tail")
    return list(value[1:])


def _fn_reverse(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, str):
        return value[::-1]
    _require_list(value, "reverse")
    return list(reversed(value))


def _fn_range(ctx: EvalContext, start: Any, end: Any, step: Any = 1) -> Any:
    for argument in (start, end, step):
        if not isinstance(argument, int) or isinstance(argument, bool):
            raise CypherTypeError("range() expects Integer arguments")
    if step == 0:
        raise CypherEvaluationError("range() step must not be zero")
    # Compute the result size *before* materialising anything:
    # range(0, 2^62) must fail with a resource-limit error, not OOM
    # the process (a remote denial of service once a server exists).
    if step > 0:
        count = (end - start) // step + 1 if end >= start else 0
    else:
        count = (start - end) // (-step) + 1 if start >= end else 0
    check_list_length(count, "range()")
    if step > 0:
        return list(range(start, end + 1, step))
    return list(range(start, end - 1, step))


def _require_list(value: Any, function: str) -> None:
    if not isinstance(value, list):
        raise CypherTypeError(
            f"{function}() expects a List, got {type_name(value)}"
        )


# --- type conversions -------------------------------------------------------

def _fn_to_integer(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None
        result = int(value)
        check_int64(result, "toInteger()")
        return result
    if isinstance(value, str):
        try:
            result = int(value.strip())
        except ValueError:
            try:
                number = float(value.strip())
            except ValueError:
                return None
            if math.isnan(number) or math.isinf(number):
                # int() would leak OverflowError on "1e999" etc.;
                # treat like the non-finite Float input above.
                return None
            result = int(number)
        check_int64(result, "toInteger()")
        return result
    raise CypherTypeError(f"toInteger() cannot convert {type_name(value)}")


def _fn_to_float(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, bool):
        raise CypherTypeError("toFloat() cannot convert Boolean")
    if is_number(value):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    raise CypherTypeError(f"toFloat() cannot convert {type_name(value)}")


def _fn_to_string(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if is_number(value):
        if isinstance(value, float):
            if math.isnan(value):
                return "NaN"
            if math.isinf(value):
                return "Infinity" if value > 0 else "-Infinity"
            return repr(value)
        return str(value)
    raise CypherTypeError(f"toString() cannot convert {type_name(value)}")


def _fn_to_boolean(ctx: EvalContext, value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        return None
    raise CypherTypeError(f"toBoolean() cannot convert {type_name(value)}")


# --- numeric ----------------------------------------------------------------

def _numeric(function: str, value: Any) -> float | int:
    if not is_number(value):
        raise CypherTypeError(
            f"{function}() expects a number, got {type_name(value)}"
        )
    return value


def _fn_abs(ctx: EvalContext, value: Any) -> Any:
    result = abs(_numeric("abs", value))
    if isinstance(result, int):
        check_int64(result, "abs()")
    return result


def _fn_sign(ctx: EvalContext, value: Any) -> Any:
    number = _numeric("sign", value)
    return (number > 0) - (number < 0)


def _fn_ceil(ctx: EvalContext, value: Any) -> Any:
    number = _numeric("ceil", value)
    if isinstance(number, float) and not math.isfinite(number):
        # math.ceil would leak a raw ValueError/OverflowError; the
        # ceiling of a non-finite float is the float itself (round()
        # precedent above).
        return number
    return float(math.ceil(number))


def _fn_floor(ctx: EvalContext, value: Any) -> Any:
    number = _numeric("floor", value)
    if isinstance(number, float) and not math.isfinite(number):
        return number
    return float(math.floor(number))


def _fn_round(ctx: EvalContext, value: Any) -> Any:
    """Round half up, without the ``floor(x + 0.5)`` precision trap.

    ``x + 0.5`` itself rounds in binary floating point:
    ``0.49999999999999994 + 0.5`` is exactly ``1.0``, so the naive
    formula rounded the largest double below one half *up*.  It also
    broke integral huge magnitudes, where adding 0.5 rounds to the
    next representable double.  Comparing the exact fractional part
    ``x - floor(x)`` (always exactly representable for a finite
    double) against 0.5 has neither failure mode.
    """
    number = _numeric("round", value)
    if isinstance(number, int):
        return float(number)
    if not math.isfinite(number):
        # floor() would raise a raw ValueError/OverflowError on
        # NaN/Inf; rounding a non-finite float is the float itself.
        return number
    floor = math.floor(number)
    if number - floor >= 0.5:
        floor += 1
    return float(floor)


def _fn_sqrt(ctx: EvalContext, value: Any) -> Any:
    number = _numeric("sqrt", value)
    if number < 0:
        return float("nan")
    return math.sqrt(number)


def _fn_exp(ctx: EvalContext, value: Any) -> Any:
    try:
        return math.exp(_numeric("exp", value))
    except OverflowError:
        # math.exp(746.0) leaks "OverflowError: math range error";
        # IEEE-754 exp saturates to +Infinity, matching the repo's
        # float-arithmetic overflow semantics.
        return float("inf")


def _fn_log(ctx: EvalContext, value: Any) -> Any:
    number = _numeric("log", value)
    if number <= 0:
        return float("nan")
    return math.log(number)


def _fn_log10(ctx: EvalContext, value: Any) -> Any:
    number = _numeric("log10", value)
    if number <= 0:
        return float("nan")
    return math.log10(number)


# --- strings ----------------------------------------------------------------

def _require_string(value: Any, function: str) -> str:
    if not isinstance(value, str):
        raise CypherTypeError(
            f"{function}() expects a String, got {type_name(value)}"
        )
    return value


def _fn_to_upper(ctx: EvalContext, value: Any) -> Any:
    return _require_string(value, "toUpper").upper()


def _fn_to_lower(ctx: EvalContext, value: Any) -> Any:
    return _require_string(value, "toLower").lower()


def _fn_trim(ctx: EvalContext, value: Any) -> Any:
    return _require_string(value, "trim").strip()


def _fn_ltrim(ctx: EvalContext, value: Any) -> Any:
    return _require_string(value, "lTrim").lstrip()


def _fn_rtrim(ctx: EvalContext, value: Any) -> Any:
    return _require_string(value, "rTrim").rstrip()


def _fn_replace(ctx: EvalContext, value: Any, search: Any, replacement: Any) -> Any:
    return _require_string(value, "replace").replace(
        _require_string(search, "replace"),
        _require_string(replacement, "replace"),
    )


def _fn_split(ctx: EvalContext, value: Any, separator: Any) -> Any:
    text = _require_string(value, "split")
    sep = _require_string(separator, "split")
    if not sep:
        # Python's str.split raises "ValueError: empty separator",
        # which leaked out of the engine uncaught.  Neo4j splits into
        # the list of characters (and '' into the empty list).
        return list(text)
    return text.split(sep)


def _require_non_negative(value: int, function: str, role: str) -> int:
    # Guard against Python's negative-index semantics leaking through
    # slicing: openCypher requires a NegativeIntegerArgument error.
    if value < 0:
        raise CypherEvaluationError(
            f"{function}() {role} must be non-negative, got {value}"
        )
    return value


def _fn_substring(ctx: EvalContext, value: Any, start: Any, length: Any = None) -> Any:
    text = _require_string(value, "substring")
    if not isinstance(start, int) or isinstance(start, bool):
        raise CypherTypeError("substring() start must be an Integer")
    _require_non_negative(start, "substring", "start")
    if length is None:
        return text[start:]
    if not isinstance(length, int) or isinstance(length, bool):
        raise CypherTypeError("substring() length must be an Integer")
    _require_non_negative(length, "substring", "length")
    return text[start : start + length]


def _fn_left(ctx: EvalContext, value: Any, length: Any) -> Any:
    text = _require_string(value, "left")
    if not isinstance(length, int) or isinstance(length, bool):
        raise CypherTypeError("left() length must be an Integer")
    _require_non_negative(length, "left", "length")
    return text[:length]


def _fn_right(ctx: EvalContext, value: Any, length: Any) -> Any:
    text = _require_string(value, "right")
    if not isinstance(length, int) or isinstance(length, bool):
        raise CypherTypeError("right() length must be an Integer")
    _require_non_negative(length, "right", "length")
    return text[-length:] if length else ""


#: name -> (min_arity, max_arity, implementation)
FUNCTIONS: dict[str, tuple[int, int, Implementation]] = {
    "id": (1, 1, _fn_id),
    "labels": (1, 1, _fn_labels),
    "type": (1, 1, _fn_type),
    "properties": (1, 1, _fn_properties),
    "keys": (1, 1, _fn_keys),
    "startnode": (1, 1, _fn_start_node),
    "endnode": (1, 1, _fn_end_node),
    "size": (1, 1, _fn_size),
    "length": (1, 1, _fn_length),
    "nodes": (1, 1, _fn_nodes),
    "relationships": (1, 1, _fn_relationships),
    "degree": (1, 1, _fn_degree),
    "coalesce": (1, 255, _fn_coalesce),
    "head": (1, 1, _fn_head),
    "last": (1, 1, _fn_last),
    "tail": (1, 1, _fn_tail),
    "reverse": (1, 1, _fn_reverse),
    "range": (2, 3, _fn_range),
    "tointeger": (1, 1, _fn_to_integer),
    "tofloat": (1, 1, _fn_to_float),
    "tostring": (1, 1, _fn_to_string),
    "toboolean": (1, 1, _fn_to_boolean),
    "abs": (1, 1, _fn_abs),
    "sign": (1, 1, _fn_sign),
    "ceil": (1, 1, _fn_ceil),
    "floor": (1, 1, _fn_floor),
    "round": (1, 1, _fn_round),
    "sqrt": (1, 1, _fn_sqrt),
    "exp": (1, 1, _fn_exp),
    "log": (1, 1, _fn_log),
    "log10": (1, 1, _fn_log10),
    "toupper": (1, 1, _fn_to_upper),
    "tolower": (1, 1, _fn_to_lower),
    "trim": (1, 1, _fn_trim),
    "ltrim": (1, 1, _fn_ltrim),
    "rtrim": (1, 1, _fn_rtrim),
    "replace": (3, 3, _fn_replace),
    "split": (2, 2, _fn_split),
    "substring": (2, 3, _fn_substring),
    "left": (2, 2, _fn_left),
    "right": (2, 2, _fn_right),
}

#: Functions that receive null arguments instead of short-circuiting.
_ACCEPTS_NULL = frozenset({"coalesce"})


def call_function(ctx: EvalContext, name: str, args: list[Any]) -> Any:
    """Dispatch a built-in function call on evaluated arguments."""
    entry = FUNCTIONS.get(name)
    if entry is None:
        raise CypherEvaluationError(f"unknown function {name}()")
    min_arity, max_arity, implementation = entry
    if not min_arity <= len(args) <= max_arity:
        expected = (
            str(min_arity)
            if min_arity == max_arity
            else f"{min_arity}..{max_arity}"
        )
        raise CypherEvaluationError(
            f"{name}() expects {expected} argument(s), got {len(args)}"
        )
    if name not in _ACCEPTS_NULL and any(arg is None for arg in args):
        return None
    return implementation(ctx, *args)
