"""The Cypher value model.

Values manipulated by the interpreter are plain Python objects:

================  =============================================
Cypher type       Python representation
================  =============================================
null              ``None``
Boolean           ``bool``
Integer           ``int``
Float             ``float``
String            ``str``
List              ``list``
Map               ``dict`` (string keys)
Node              :class:`repro.graph.model.Node`
Relationship      :class:`repro.graph.model.Relationship`
Path              :class:`repro.graph.model.Path`
================  =============================================

Two distinct notions of equality coexist in Cypher, and the paper's
semantics relies on both:

* **Ternary equality** (:func:`cypher_eq`) is the ``=`` operator used in
  predicates.  It follows SQL-style three-valued logic: any comparison
  involving ``null`` yields ``null`` (represented as ``None``).  This is
  why a pattern map ``{id: null}`` never matches (Example 5 of the
  paper): the induced predicate ``n.id = null`` is ``null``, not true.

* **Equivalence** (:func:`equivalent`) is the reflexive equality used
  for grouping, ``DISTINCT``, and the collapsibility relations of the
  revised ``MERGE`` (Definitions 1 and 2).  Under equivalence
  ``null = null`` holds, so two created nodes that both lack a property
  agree on that key (ι(n, k) = null for both) and may collapse.

The module also defines the *global sort order* used by ``ORDER BY``
and helpers validating values that may be stored in property maps.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.errors import CypherEvaluationError, CypherTypeError

#: Values considered numbers for comparison purposes. ``bool`` is a
#: subclass of ``int`` in Python but is a distinct type in Cypher, so
#: all type dispatch below checks ``bool`` first.
NUMBER_TYPES = (int, float)

#: The Cypher Integer domain: 64-bit signed, matching the openCypher
#: TCK and Neo4j's store format.  Python integers are unbounded, so
#: arithmetic must check its results explicitly.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check_int64(value: int, operation: str) -> int:
    """Return *value* if it fits the Integer domain, else raise.

    Cypher Integers are 64-bit signed; an arithmetic result outside
    that range is an evaluation error, not a silent promotion to an
    arbitrary-precision integer.
    """
    if INT64_MIN <= value <= INT64_MAX:
        return value
    raise CypherEvaluationError(
        f"integer overflow: {operation} result is outside the 64-bit "
        f"Integer range [{INT64_MIN}, {INT64_MAX}]"
    )


def is_null(value: Any) -> bool:
    """Return True if *value* is the Cypher null."""
    return value is None


def is_number(value: Any) -> bool:
    """Return True for Cypher Integer or Float (not Boolean)."""
    return isinstance(value, NUMBER_TYPES) and not isinstance(value, bool)


def is_primitive(value: Any) -> bool:
    """Return True for storable scalar values (no entities, no null)."""
    return isinstance(value, (bool, int, float, str))


def is_entity(value: Any) -> bool:
    """Return True for Node or Relationship handles."""
    # Imported lazily to avoid a circular import with repro.graph.model.
    from repro.graph.model import Node, Relationship

    return isinstance(value, (Node, Relationship))


def type_name(value: Any) -> str:
    """A human-readable Cypher type name, for error messages."""
    from repro.graph.model import Node, Path, Relationship

    if value is None:
        return "Null"
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, int):
        return "Integer"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, str):
        return "String"
    if isinstance(value, list):
        return "List"
    if isinstance(value, dict):
        return "Map"
    if isinstance(value, Node):
        return "Node"
    if isinstance(value, Relationship):
        return "Relationship"
    if isinstance(value, Path):
        return "Path"
    return type(value).__name__


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------

def tri_not(value: Any) -> Any:
    """NOT under three-valued logic; null stays null."""
    if value is None:
        return None
    _require_boolean(value, "NOT")
    return not value


def tri_and(left: Any, right: Any) -> Any:
    """AND under three-valued logic."""
    if left is not None:
        _require_boolean(left, "AND")
    if right is not None:
        _require_boolean(right, "AND")
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def tri_or(left: Any, right: Any) -> Any:
    """OR under three-valued logic."""
    if left is not None:
        _require_boolean(left, "OR")
    if right is not None:
        _require_boolean(right, "OR")
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def tri_xor(left: Any, right: Any) -> Any:
    """XOR under three-valued logic."""
    if left is not None:
        _require_boolean(left, "XOR")
    if right is not None:
        _require_boolean(right, "XOR")
    if left is None or right is None:
        return None
    return left != right


def _require_boolean(value: Any, operator: str) -> None:
    if not isinstance(value, bool):
        raise CypherTypeError(
            f"{operator} expects a Boolean, got {type_name(value)}"
        )


# ---------------------------------------------------------------------------
# Ternary equality and comparison (the `=`, `<`, ... operators)
# ---------------------------------------------------------------------------
#
# One body per operator, shared by every expression, every pattern map
# and the store's property-check kernel.  Each of `=`, `<`
# and `<=` opens with an exact-type fast path: two ints or two strings
# compare natively.  ``type(x) is`` keeps bools (an ``int`` subclass,
# a distinct Cypher type) out of it, and floats take the general branch
# with its NaN rule.

def cypher_eq(left: Any, right: Any) -> Any:
    """The Cypher ``=`` operator: True, False, or None (unknown).

    * any operand null => None;
    * numbers compare numerically across int/float;
    * lists and maps compare element-wise, propagating unknowns;
    * entities compare by identity (their graph-assigned id);
    * values of genuinely different types compare False.
    """
    kind = type(left)
    if (kind is int or kind is str) and type(right) is kind:
        return left == right
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left == right
        return False
    if is_number(left) and is_number(right):
        if isinstance(left, float) and math.isnan(left):
            return False
        if isinstance(right, float) and math.isnan(right):
            return False
        return left == right
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, list) and isinstance(right, list):
        return _eq_lists(left, right)
    if isinstance(left, dict) and isinstance(right, dict):
        return _eq_maps(left, right)
    if is_entity(left) and is_entity(right):
        return type(left) is type(right) and left.id == right.id
    from repro.graph.model import Path

    if isinstance(left, Path) and isinstance(right, Path):
        return left == right
    return False


def _eq_lists(left: list, right: list) -> Any:
    if len(left) != len(right):
        return False
    unknown = False
    for a, b in zip(left, right):
        result = cypher_eq(a, b)
        if result is False:
            return False
        if result is None:
            unknown = True
    return None if unknown else True


def _eq_maps(left: dict, right: dict) -> Any:
    if set(left) != set(right):
        return False
    unknown = False
    for key in left:
        result = cypher_eq(left[key], right[key])
        if result is False:
            return False
        if result is None:
            unknown = True
    return None if unknown else True


def cypher_neq(left: Any, right: Any) -> Any:
    """The Cypher ``<>`` operator."""
    return tri_not(cypher_eq(left, right))


def cypher_lt(left: Any, right: Any) -> Any:
    """The Cypher ``<`` operator; None when incomparable or null."""
    kind = type(left)
    if (kind is int or kind is str) and type(right) is kind:
        return left < right
    if left is None or right is None:
        return None
    if is_number(left) and is_number(right):
        if _has_nan(left, right):
            return False
        return left < right
    if isinstance(left, str) and isinstance(right, str) and not (
        isinstance(left, bool) or isinstance(right, bool)
    ):
        return left < right
    if isinstance(left, bool) and isinstance(right, bool):
        return left < right
    # Values of incomparable types: comparison is undefined (null).
    return None


def cypher_lte(left: Any, right: Any) -> Any:
    """The Cypher ``<=`` operator."""
    kind = type(left)
    if (kind is int or kind is str) and type(right) is kind:
        return left <= right
    less = cypher_lt(left, right)
    if less is True:
        return True
    equal = cypher_eq(left, right)
    if less is None or equal is None:
        return None
    return equal


def cypher_gt(left: Any, right: Any) -> Any:
    """The Cypher ``>`` operator."""
    return cypher_lt(right, left)


def cypher_gte(left: Any, right: Any) -> Any:
    """The Cypher ``>=`` operator."""
    return cypher_lte(right, left)


def _has_nan(*values: Any) -> bool:
    return any(isinstance(v, float) and math.isnan(v) for v in values)


def cypher_in(item: Any, container: Any) -> Any:
    """The Cypher ``IN`` operator over lists, with ternary semantics."""
    if container is None:
        return None
    if not isinstance(container, list):
        raise CypherTypeError(
            f"IN expects a List on the right, got {type_name(container)}"
        )
    unknown = False
    for element in container:
        result = cypher_eq(item, element)
        if result is True:
            return True
        if result is None:
            unknown = True
    return None if unknown else False


# ---------------------------------------------------------------------------
# Equivalence (grouping / DISTINCT / collapsibility equality)
# ---------------------------------------------------------------------------

def equivalent(left: Any, right: Any) -> bool:
    """Reflexive equality: null = null, NaN = NaN, entities by id.

    This is the equality used to group records, deduplicate DISTINCT
    results, and decide collapsibility of created nodes/relationships in
    the revised MERGE (Definitions 1-2 of the paper).
    """
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if is_number(left) and is_number(right):
        if _has_nan(left):
            return _has_nan(right)
        if _has_nan(right):
            return False
        return left == right
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            equivalent(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return set(left) == set(right) and all(
            equivalent(left[k], right[k]) for k in left
        )
    if is_entity(left) and is_entity(right):
        return type(left) is type(right) and left.id == right.id
    if type(left) is not type(right):
        return False
    return left == right


def grouping_key(value: Any) -> Any:
    """A hashable canonical key such that two values share a key iff
    they are :func:`equivalent`.

    Used to bucket records during grouping, DISTINCT, and the Grouping
    MERGE semantics without quadratic pairwise comparison.
    """
    from repro.graph.model import Node, Path, Relationship

    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if is_number(value):
        if isinstance(value, float) and math.isnan(value):
            return ("nan",)
        # 1 and 1.0 are equivalent; normalise via float when exact.
        if isinstance(value, float) and value.is_integer():
            return ("num", int(value))
        return ("num", value)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, list):
        return ("list", tuple(grouping_key(v) for v in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((k, grouping_key(v)) for k, v in value.items())),
        )
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, Path):
        return ("path", value.grouping_key())
    raise CypherTypeError(f"value {value!r} cannot be grouped")


# ---------------------------------------------------------------------------
# Global sort order (ORDER BY)
# ---------------------------------------------------------------------------

#: Rank of each type in Cypher's global sort order.  Within a rank,
#: values compare by their natural order; across ranks, by rank.
_TYPE_RANK = {
    "Map": 0,
    "Node": 1,
    "Relationship": 2,
    "List": 3,
    "Path": 4,
    "String": 5,
    "Boolean": 6,
    "Number": 7,
    "Null": 8,  # nulls sort last in ascending order
}


def sort_key(value: Any) -> tuple:
    """A total-order key implementing Cypher's global sort order.

    ``ORDER BY`` must order *any* two values, including values of
    different types and nulls; this key makes Python's ``sorted``
    implement exactly that order.
    """
    from repro.graph.model import Node, Path, Relationship

    if value is None:
        return (_TYPE_RANK["Null"], 0)
    if isinstance(value, bool):
        return (_TYPE_RANK["Boolean"], value)
    if is_number(value):
        if isinstance(value, float) and math.isnan(value):
            return (_TYPE_RANK["Number"], math.inf, 1)
        return (_TYPE_RANK["Number"], value, 0)
    if isinstance(value, str):
        return (_TYPE_RANK["String"], value)
    if isinstance(value, list):
        return (_TYPE_RANK["List"], tuple(sort_key(v) for v in value))
    if isinstance(value, dict):
        return (
            _TYPE_RANK["Map"],
            tuple(sorted((k, sort_key(v)) for k, v in value.items())),
        )
    if isinstance(value, Node):
        return (_TYPE_RANK["Node"], value.id)
    if isinstance(value, Relationship):
        return (_TYPE_RANK["Relationship"], value.id)
    if isinstance(value, Path):
        return (_TYPE_RANK["Path"], value.grouping_key())
    raise CypherTypeError(f"value {value!r} is not orderable")


# ---------------------------------------------------------------------------
# Property storage validation
# ---------------------------------------------------------------------------

def is_storable(value: Any) -> bool:
    """True if *value* may be stored as a property value.

    Storable values are non-null scalars and (possibly empty) lists of
    scalars of a single type, mirroring the property-graph model where
    ι maps to values and ι(n, k) = null encodes absence.
    """
    if is_primitive(value):
        return True
    if isinstance(value, list):
        return all(is_primitive(v) for v in value)
    return False


def require_storable(value: Any, key: str) -> None:
    """Raise :class:`CypherTypeError` unless *value* is storable."""
    if not is_storable(value):
        raise CypherTypeError(
            f"cannot store value of type {type_name(value)} "
            f"under property key '{key}'"
        )


def normalize_property_map(pairs: Iterable[tuple[str, Any]]) -> dict:
    """Build a property map, dropping null values (absent keys).

    Setting a property to null removes it; a map literal with a null
    value therefore produces a map without that key, which is what makes
    nodes created from null table cells propertyless (Example 5).
    """
    result: dict[str, Any] = {}
    for key, value in pairs:
        if value is None:
            result.pop(key, None)
            continue
        require_storable(value, key)
        result[key] = value
    return result
