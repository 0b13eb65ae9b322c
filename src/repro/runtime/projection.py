"""RETURN and WITH: projection, implicit grouping, ordering.

Cypher has no GROUP BY clause; a projection that contains aggregate
calls groups implicitly by the values of its non-aggregate items.  The
processing order is: group/evaluate -> DISTINCT -> ORDER BY -> SKIP ->
LIMIT -> (for WITH) WHERE.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import CypherEvaluationError, CypherSemanticError
from repro.graph.values import grouping_key, sort_key
from repro.parser import ast
from repro.parser.unparse import unparse
from repro.runtime.aggregation import (
    PERCENTILE_NAMES,
    AggregateAccumulator,
    children,
    contains_aggregate,
    is_aggregate_call,
)
from repro.runtime.compiler import Compiled, Compiler
from repro.runtime.context import EvalContext
from repro.runtime.table import DrivingTable


def project_return(
    ctx: EvalContext, body: ast.ProjectionBody, table: DrivingTable
) -> DrivingTable:
    """Apply a RETURN body to the driving table."""
    return _project(ctx, body, table, require_aliases=False)


def project_with(
    ctx: EvalContext,
    body: ast.ProjectionBody,
    where: ast.Expression | None,
    table: DrivingTable,
) -> DrivingTable:
    """Apply a WITH body (and its optional WHERE) to the driving table."""
    return filter_where(
        ctx, where, _project(ctx, body, table, require_aliases=True)
    )


def filter_where(
    ctx: EvalContext, where: ast.Expression | None, table: DrivingTable
) -> DrivingTable:
    """The records of a projected table that pass a WITH's WHERE."""
    if where is None:
        return table
    where_fn = ctx.compile(where)
    return table.filter(lambda record: where_fn(ctx, record) is True)


# ---------------------------------------------------------------------------

def _column_name(item: ast.ProjectionItem, require_alias: bool) -> str:
    if item.alias is not None:
        return item.alias
    if isinstance(item.expression, ast.Variable):
        return item.expression.name
    if require_alias:
        raise CypherSemanticError(
            f"WITH requires an alias for expression "
            f"'{unparse(item.expression)}'"
        )
    return unparse(item.expression)


def _expand_items(
    body: ast.ProjectionBody,
    input_columns: tuple[str, ...],
    require_alias: bool,
) -> list[tuple[str, ast.Expression]]:
    """Resolve ``*`` and aliases into an ordered (name, expr) list."""
    columns: list[tuple[str, ast.Expression]] = []
    if body.include_existing:
        if not input_columns:
            raise CypherSemanticError(
                "RETURN * is not allowed when there are no variables in scope"
            )
        for column in input_columns:
            columns.append((column, ast.Variable(column)))
    for item in body.items:
        name = _column_name(item, require_alias)
        if any(existing == name for existing, __ in columns):
            raise CypherSemanticError(f"duplicate column name '{name}'")
        columns.append((name, item.expression))
    if not columns:
        raise CypherSemanticError("empty projection")
    return columns


def _project(
    ctx: EvalContext,
    body: ast.ProjectionBody,
    table: DrivingTable,
    *,
    require_aliases: bool,
) -> DrivingTable:
    projection = Projection(
        ctx.compile, body, table.columns, require_aliases
    )
    aggregation = projection.aggregation
    if aggregation is not None:
        groups: dict[tuple, Group] = {}
        for record in table:
            aggregation.add(ctx, groups, record)
        rows = aggregation.rows(ctx, groups)
    else:
        column_fns = projection.column_fns
        rows = [
            (
                {name: fn(ctx, record) for name, fn in column_fns},
                record,
            )
            for record in table
        ]
    return projection.finish(ctx, rows)


class Projection:
    """A RETURN / WITH body compiled against its input columns.

    ``_project`` runs its two steps back to back: one (output, input
    record) pair per record -- or per group, through
    :attr:`aggregation` -- then :meth:`finish`.  A maintained view
    (``repro.views``) keeps the pairs across commits, recomputes only
    those a commit touched and calls :meth:`finish` on the rest as
    cached.
    """

    def __init__(
        self,
        compile: Compiler,
        body: ast.ProjectionBody,
        input_columns: tuple[str, ...],
        require_aliases: bool,
    ):
        self.body = body
        columns = _expand_items(body, input_columns, require_aliases)
        self.output_columns = tuple(name for name, __ in columns)
        self.aggregation: Aggregation | None = None
        if any(contains_aggregate(expr) for __, expr in columns):
            self.aggregation = Aggregation(compile, columns)
        else:
            self.column_fns = [
                (name, compile(expr)) for name, expr in columns
            ]

    @property
    def has_tail(self) -> bool:
        """Does :meth:`finish` do more than collect the outputs?"""
        body = self.body
        return bool(
            body.distinct
            or body.order_by
            or body.skip is not None
            or body.limit is not None
        )

    def finish(
        self, ctx: EvalContext, rows: list[tuple[dict, dict]]
    ) -> DrivingTable:
        """DISTINCT -> ORDER BY -> SKIP -> LIMIT over the pairs."""
        body = self.body
        if body.distinct:
            rows = _distinct_rows(rows, self.output_columns)
        if body.order_by:
            rows = _order_rows(ctx, body.order_by, rows)
        rows = _skip_limit(ctx, body, rows)
        result = DrivingTable(self.output_columns)
        for output, __ in rows:
            result.add(output)
        return result


class Group:
    """One group of an aggregating projection."""

    __slots__ = ("values", "record", "accumulators")

    def __init__(
        self, values: dict, record: Mapping[str, Any], accumulators: list
    ):
        #: the grouping items as evaluated on the first record
        self.values = values
        #: the first record: what ORDER BY and the non-aggregate parts
        #: of an aggregate item read grouping variables from
        self.record = record
        #: one per aggregate call, aligned with ``Aggregation.calls``
        self.accumulators = accumulators


class Aggregation:
    """Implicit grouping, compiled once per clause.

    Groups by the non-aggregate items and folds the aggregate calls.
    Ad hoc, every record goes through :meth:`add` in table order and
    :meth:`rows` emits.  A maintained view keeps the groups instead:
    it evaluates :meth:`key_of` and :meth:`arguments` once per record,
    caches what they returned, and feeds the cached arguments to the
    same accumulators -- one at a time where
    ``AggregateAccumulator.commutes``, a whole group over again where
    not.
    """

    def __init__(
        self, compile: Compiler, columns: list[tuple[str, ast.Expression]]
    ):
        self.grouping_items = [
            (name, expr)
            for name, expr in columns
            if not contains_aggregate(expr)
        ]
        self._grouping_fns = [
            (name, compile(expr)) for name, expr in self.grouping_items
        ]
        # Aggregate calls are discovered and their argument expressions
        # compiled once per clause; each record pays only the feeds.
        self.calls: list[ast.Expression] = []
        #: the name each call's result is bound to for the items below:
        #: not an identifier, so no variable of a statement can collide
        self._result_slots: list[str] = []
        #: per aggregating item ``(name, index of its first call, fn)``:
        #: *fn* is the item with every aggregate call replaced by the
        #: variable of its result slot, compiled; :meth:`emit` evaluates
        #: it in a scope binding the slots to the group's results.
        #: ``None`` where the item *is* one call, whose result then is
        #: the value.
        self._aggregate_fns: list[tuple[str, int, Compiled | None]] = []
        for name, expr in columns:
            if not contains_aggregate(expr):
                continue
            first = len(self.calls)
            slots: dict[int, ast.Expression] = {}
            for node in _aggregate_nodes(expr):
                slot = f" aggregate {len(self.calls)}"
                slots[id(node)] = ast.Variable(slot)
                self._result_slots.append(slot)
                self.calls.append(node)
            item_fn = (
                None
                if is_aggregate_call(expr)
                else compile(_substitute(expr, slots))
            )
            self._aggregate_fns.append((name, first, item_fn))
        self._argument_fns = [
            _compile_argument(compile, node) for node in self.calls
        ]

    def key_of(
        self, ctx: EvalContext, record: Mapping[str, Any]
    ) -> tuple[tuple, dict]:
        """The record's group key and its evaluated grouping items."""
        values = {name: fn(ctx, record) for name, fn in self._grouping_fns}
        return tuple(grouping_key(value) for value in values.values()), values

    def arguments(self, ctx: EvalContext, record: Mapping[str, Any]) -> tuple:
        """What the record feeds each aggregate call, in call order."""
        return tuple(fn(ctx, record) for fn in self._argument_fns)

    def new_group(self, values: dict, record: Mapping[str, Any]) -> Group:
        return Group(
            values, record, [_make_accumulator(node) for node in self.calls]
        )

    def add(
        self,
        ctx: EvalContext,
        groups: dict[tuple, Group],
        record: Mapping[str, Any],
    ) -> None:
        """Feed one record to its group, which its first record creates."""
        key, values = self.key_of(ctx, record)
        group = groups.get(key)
        if group is None:
            group = groups[key] = self.new_group(values, record)
        for accumulator, argument_fn in zip(
            group.accumulators, self._argument_fns
        ):
            accumulator.add(argument_fn(ctx, record))

    def emit(self, ctx: EvalContext, group: Group) -> dict:
        """The group's output record."""
        output = dict(group.values)
        results = [accumulator.result() for accumulator in group.accumulators]
        scope = None
        for name, first, item_fn in self._aggregate_fns:
            if item_fn is None:
                output[name] = results[first]
                continue
            if scope is None:
                scope = dict(group.record)
                scope.update(zip(self._result_slots, results))
            output[name] = item_fn(ctx, scope)
        return output

    def rows(
        self, ctx: EvalContext, groups: Mapping[tuple, Group]
    ) -> list[tuple[dict, Mapping[str, Any]]]:
        """(output, first input record) per group, in the order given.

        An aggregation with no grouping items over an empty table still
        produces one row (count(*) = 0, collect = [] ...).
        """
        if not groups and not self.grouping_items:
            groups = {(): self.new_group({}, {})}
        return [
            (self.emit(ctx, group), group.record)
            for group in groups.values()
        ]


def _aggregate_nodes(expression: ast.Expression) -> Iterable[ast.Expression]:
    """All aggregate call nodes in an expression tree (outermost only)."""
    if is_aggregate_call(expression):
        yield expression
        return
    for child in children(expression):
        yield from _aggregate_nodes(child)


def _make_accumulator(node: ast.Expression) -> AggregateAccumulator:
    if isinstance(node, ast.CountStar):
        return AggregateAccumulator("count(*)")
    assert isinstance(node, ast.FunctionCall)
    return AggregateAccumulator(node.name, distinct=node.distinct)


def _compile_argument(compile: Compiler, node: ast.Expression):
    """``(ctx, record) -> value`` for what one aggregate call is fed.

    Argument expressions are compiled once here; arity problems still
    surface only when a record is actually fed (an aggregation over an
    empty ungrouped table never feeds).
    """
    if isinstance(node, ast.CountStar):
        return lambda ctx, record: None
    assert isinstance(node, ast.FunctionCall)
    if not node.args:
        message = f"aggregate {node.name}() requires an argument"

        def missing_argument(ctx, record):
            raise CypherEvaluationError(message)

        return missing_argument
    value_fn = compile(node.args[0])
    if node.name not in PERCENTILE_NAMES:
        return value_fn
    if len(node.args) != 2:
        message = f"{node.name}() expects 2 arguments"

        def wrong_arity(ctx, record):
            value_fn(ctx, record)
            raise CypherEvaluationError(message)

        return wrong_arity
    percentile_fn = compile(node.args[1])
    return lambda ctx, record: (
        value_fn(ctx, record),
        percentile_fn(ctx, record),
    )


def _substitute(
    expression: ast.Expression, substitutions: Mapping[int, ast.Expression]
) -> ast.Expression:
    """*expression* with the nodes in *substitutions* (by ``id``) replaced."""
    import dataclasses

    if id(expression) in substitutions:
        return substitutions[id(expression)]
    if not dataclasses.is_dataclass(expression):
        return expression
    changes = {}
    for field in dataclasses.fields(expression):
        value = getattr(expression, field.name)
        if isinstance(value, ast.Expression):
            changes[field.name] = _substitute(value, substitutions)
        elif isinstance(value, tuple) and any(
            isinstance(item, ast.Expression) for item in value
        ):
            changes[field.name] = tuple(
                _substitute(item, substitutions)
                if isinstance(item, ast.Expression)
                else item
                for item in value
            )
    if changes:
        return dataclasses.replace(expression, **changes)
    return expression


def _distinct_rows(
    rows: list[tuple[dict, dict]], columns: tuple[str, ...]
) -> list[tuple[dict, dict]]:
    seen: set = set()
    result = []
    for output, record in rows:
        key = tuple(grouping_key(output[column]) for column in columns)
        if key not in seen:
            seen.add(key)
            result.append((output, record))
    return result


def _order_rows(
    ctx: EvalContext,
    order_by: tuple[ast.SortItem, ...],
    rows: list[tuple[dict, dict]],
) -> list[tuple[dict, dict]]:
    item_fns = [
        (ctx.compile(item.expression), item.ascending) for item in order_by
    ]

    def key(row: tuple[dict, dict]) -> tuple:
        output, record = row
        # Sort expressions see the projected columns first, then any
        # still-unshadowed input variables.
        scope = {**record, **output}
        parts = []
        for item_fn, ascending in item_fns:
            item_key = sort_key(item_fn(ctx, scope))
            parts.append(item_key if ascending else _Reversed(item_key))
        return tuple(parts)

    return sorted(rows, key=key)


class _Reversed:
    """Inverts comparison for descending sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def _skip_limit(
    ctx: EvalContext,
    body: ast.ProjectionBody,
    rows: list[tuple[dict, dict]],
) -> list[tuple[dict, dict]]:
    if body.skip is not None:
        skip = ctx.compile(body.skip)(ctx, {})
        if not isinstance(skip, int) or isinstance(skip, bool) or skip < 0:
            raise CypherEvaluationError("SKIP expects a non-negative integer")
        rows = rows[skip:]
    if body.limit is not None:
        limit = ctx.compile(body.limit)(ctx, {})
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
            raise CypherEvaluationError("LIMIT expects a non-negative integer")
        rows = rows[:limit]
    return rows
