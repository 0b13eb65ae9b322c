"""Aggregation support for RETURN and WITH projections.

Cypher has no GROUP BY: a projection containing aggregate calls
implicitly groups by its non-aggregate items.  This module provides

* detection of aggregate expressions in an AST (:func:`contains_aggregate`),
* the aggregate function implementations themselves, with Cypher's null
  rules (nulls are skipped; ``count(*)`` counts records; aggregates over
  an empty group yield their neutral value), and
* ``DISTINCT`` handling inside aggregate calls.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Iterator

from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.values import grouping_key, is_number, sort_key, type_name
from repro.parser import ast

#: Names callable as aggregate functions (lower case).
AGGREGATE_NAMES = frozenset(
    {
        "count",
        "sum",
        "avg",
        "min",
        "max",
        "collect",
        "stdev",
        "stdevp",
        "percentiledisc",
        "percentilecont",
    }
)


def is_aggregate_call(expression: ast.Expression) -> bool:
    """True for ``count(*)`` or a call to an aggregate function."""
    if isinstance(expression, ast.CountStar):
        return True
    return (
        isinstance(expression, ast.FunctionCall)
        and expression.name in AGGREGATE_NAMES
    )


def children(expression: Any) -> Iterator[ast.Expression]:
    """Yield the direct expression children of any AST node."""
    if not dataclasses.is_dataclass(expression):
        return
    for field in dataclasses.fields(expression):
        value = getattr(expression, field.name)
        if isinstance(value, ast.Expression):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, ast.Expression):
                    yield item
                elif isinstance(item, tuple):
                    for nested in item:
                        if isinstance(nested, ast.Expression):
                            yield nested


def contains_aggregate(expression: ast.Expression) -> bool:
    """True if the expression tree contains any aggregate call."""
    if is_aggregate_call(expression):
        return True
    return any(contains_aggregate(child) for child in children(expression))


#: Aggregates fed ``(value, percentile)`` pairs rather than bare values.
PERCENTILE_NAMES = frozenset({"percentiledisc", "percentilecont"})


class AggregateAccumulator:
    """Accumulates one aggregate call over the records of one group.

    :meth:`add` is the whole ad-hoc protocol: add every record's value
    in table order, read :meth:`result`.  A maintained view keeps the
    accumulator across commits and also takes values back out:
    :meth:`commutes` says whether a value may be added or removed
    without knowing its position among the group's records, and
    :meth:`remove` undoes such an ``add``; when it may not, the view
    re-aggregates the group in order with ``add`` alone.
    """

    __slots__ = (
        "name",
        "distinct",
        "_seen",
        "_count",
        "_sum",
        "_values",
        "_extremum",
        "_percentile",
    )

    def __init__(self, name: str, distinct: bool = False):
        if name not in AGGREGATE_NAMES and name != "count(*)":
            raise CypherEvaluationError(f"unknown aggregate {name}()")
        self.name = name
        self.distinct = distinct
        self._seen: set = set()
        self._count = 0
        self._sum: Any = 0
        self._values: list[Any] = []
        #: (sort key, value) of the current min / max
        self._extremum: Any = None
        self._percentile: Any = None

    def add(self, value: Any) -> None:
        """Feed one evaluated argument value (record by record).

        Percentile aggregates are fed ``(value, percentile)``; the last
        record's percentile is the one :meth:`result` uses.
        """
        name = self.name
        if name == "count(*)":
            self._count += 1
            return
        if name in PERCENTILE_NAMES:
            value, self._percentile = value
        if value is None:
            return  # aggregates skip nulls
        if self.distinct:
            key = grouping_key(value)
            if key in self._seen:
                return
            self._seen.add(key)
        self._count += 1
        if name == "count":
            return
        if name == "collect":
            self._values.append(value)
            return
        if name == "min" or name == "max":
            key = sort_key(value)
            held = self._extremum
            if (
                held is None
                or (key < held[0] if name == "min" else key > held[0])
            ):
                self._extremum = (key, value)
            return
        if not is_number(value):
            raise CypherTypeError(
                f"{name}() expects numbers, got {type_name(value)}"
            )
        self._sum += value
        if name != "sum" and name != "avg":
            self._values.append(value)

    def commutes(self, value: Any) -> bool:
        """May *value* be added or removed at any position?

        True when the result after ``add(value)`` / ``remove(value)``
        is what adding the group's records in order would give,
        wherever this one sits among them: counts always; an integer
        into an integer ``sum`` / ``avg`` (float addition rounds by
        order); a ``min`` / ``max`` candidate that does not tie with
        the held extremum (the first of equal keys is the one
        returned, and removing the held one needs the runner-up).
        Never for ``DISTINCT`` (which duplicate was kept is positional),
        ``collect``, ``stdev*`` or ``percentile*``.
        """
        name = self.name
        if name == "count(*)":
            return True
        if name in PERCENTILE_NAMES or self.distinct:
            return False
        if value is None or name == "count":
            return True
        if name == "sum" or name == "avg":
            return type(value) is int and type(self._sum) is int
        if name == "min" or name == "max":
            held = self._extremum
            return held is None or sort_key(value) != held[0]
        return False

    def remove(self, value: Any) -> None:
        """Undo one earlier ``add(value)``; requires ``commutes(value)``."""
        if value is None and self.name != "count(*)":
            return
        self._count -= 1
        if self.name == "sum" or self.name == "avg":
            self._sum -= value

    def result(self) -> Any:
        """Final value of the aggregate for this group."""
        if self.name in ("count", "count(*)"):
            return self._count
        if self.name == "collect":
            return list(self._values)
        if self.name in ("min", "max"):
            return None if self._extremum is None else self._extremum[1]
        if self.name == "sum":
            return self._sum
        if self.name == "avg":
            return self._sum / self._count if self._count else None
        if self.name in ("stdev", "stdevp"):
            return self._stdev(sample=self.name == "stdev")
        return self._percentile_value(self._percentile)

    def _stdev(self, *, sample: bool) -> Any:
        if not self._count:
            return None
        if self._count == 1:
            return 0.0
        mean = self._sum / self._count
        variance = sum((v - mean) ** 2 for v in self._values)
        divisor = self._count - 1 if sample else self._count
        return math.sqrt(variance / divisor)

    def _percentile_value(self, percentile: Any) -> Any:
        if not is_number(percentile) or not 0 <= percentile <= 1:
            raise CypherEvaluationError(
                "percentile must be a number between 0.0 and 1.0"
            )
        if not self._values:
            return None
        ordered = sorted(self._values)
        if self.name == "percentiledisc":
            index = max(0, math.ceil(percentile * len(ordered)) - 1)
            return ordered[index]
        if len(ordered) == 1:
            return float(ordered[0])
        position = percentile * (len(ordered) - 1)
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return float(ordered[low])
        fraction = position - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction
