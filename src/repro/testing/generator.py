"""Seeded, schema-aware fuzz-case generation.

Every case is generated from ``random.Random(f"{seed}:{index}")``, so a
``(seed, index)`` pair names one case forever -- the CLI, the corpus
bundles and the CI smoke job all rely on that determinism.

A case bundles a random graph (over a tiny fixed schema: labels A/B/C,
relationship types T/S, integer keys ``i``/``k`` plus a string ``name``)
with either

* a pipeline of 1-2 random update statements, built directly as
  :mod:`repro.parser.ast` values (``kind="revised"`` for the free
  interleaving of Figure 10, ``kind="legacy"`` for the reading-then-
  updating shape of Figure 2), or
* a MERGE pattern plus a driving table with controlled duplicates and
  nulls (``kind="merge"``), for the five-semantics sweep.

Generation is *biased toward the paper's anomaly shapes*: self-reading
and conflicting SET items (Example 1/2), DELETE of nodes that still
have relationships (Section 4.2), and MERGE property maps that read
driving values (Example 3 / Figure 6 order dependence).

Statements are valid by construction (the builder tracks the bound
variables exactly like :mod:`repro.runtime.scoping` does) and are
re-checked with :func:`~repro.runtime.scoping.check_statement`; the
rare reject is regenerated.  The parse -> unparse -> parse round-trip
over this corpus is a separate property test
(``tests/properties/test_fuzz_roundtrip.py``) -- the generator never
filters on it, so round-trip bugs surface instead of hiding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from repro.dialect import Dialect
from repro.graph.store import GraphStore
from repro.parser import ast
from repro.runtime.scoping import check_statement

LABELS = ("A", "B", "C")
REL_TYPES = ("T", "S")
INT_KEYS = ("i", "k")
STRING_KEY = "name"
STRINGS = ("ann", "bob", "cat")
#: the relationship key
REL_KEY = "w"
#: a node key that only comparisons and projections read: its stored
#: values (and those of a fifth of the relationships' ``w``) cover every
#: branch of the comparison operators -- integers, floats, NaN, ``-0.0``,
#: strings, booleans -- and an absent key reads as null.  Arithmetic
#: never reads it, so no run can mint a NaN of its own (two NaNs are
#: equal in the oracle's row comparison only as the same object).
MIXED_KEY = "v"
MIXED_VALUES = (0, 1, 2, 3, 1.5, 2.0, -0.0, math.nan, "ann", "bob", True, False)
#: literal comparison operands beyond the small integers
MIXED_LITERALS = (1.5, "bob", True, None)
COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

#: The parameters every generated statement runs with.  A statement may
#: also name ``$absent``, which is never supplied (and raises when
#: evaluated); registered view queries never do.
PARAMETERS = {
    "lo": 1,
    "hi": 3,
    "x": 1.5,
    "s": "bob",
    "t": True,
    "nan": math.nan,
    "nil": None,
}

#: How many differential case kinds exist, in generation rotation order.
KINDS = ("revised", "legacy", "merge")


@dataclass(frozen=True)
class FuzzCase:
    """One reproducible differential test case."""

    kind: str
    seed_key: str
    #: graph in :func:`repro.io.graph_json.graph_to_dict` form
    graph: dict
    indexes: tuple[tuple[str, str], ...] = ()
    dialect: str = Dialect.REVISED.value
    statements: tuple[ast.Statement, ...] = ()
    #: merge-kind payload: pattern source text and a driving table
    merge_pattern: str | None = None
    merge_table: dict | None = None
    #: registered view queries as ``(source, dialect)`` pairs -- the
    #: views fuzz mode asserts maintained == re-executed after every
    #: statement (see ``repro.testing.differential.run_views_case``)
    views: tuple[tuple[str, str], ...] = ()

    def statement_sources(self) -> tuple[str, ...]:
        """The statements as canonical Cypher text."""
        from repro.parser.unparse import unparse

        return tuple(unparse(statement) for statement in self.statements)


def build_store(case: FuzzCase) -> GraphStore:
    """Materialise the case's base graph (plus its indexes)."""
    from repro.io.graph_json import dict_to_store

    store = dict_to_store(case.graph)
    for label, key in case.indexes:
        store.create_index(label, key)
    return store


def case_for(seed: int, index: int) -> FuzzCase:
    """The deterministic case at position *index* of stream *seed*."""
    seed_key = f"{seed}:{index}"
    rng = random.Random(seed_key)
    kind = KINDS[index % len(KINDS)]
    graph, indexes = _random_graph(rng, random.Random(f"{seed_key}:values"))
    if kind == "merge":
        pattern, table = _merge_payload(rng)
        return FuzzCase(
            kind=kind,
            seed_key=seed_key,
            graph=graph,
            indexes=indexes,
            merge_pattern=pattern,
            merge_table=table,
        )
    dialect = Dialect.REVISED if kind == "revised" else Dialect.CYPHER9
    statements = tuple(
        _statement(rng, dialect) for __ in range(rng.randint(1, 2))
    )
    return FuzzCase(
        kind=kind,
        seed_key=seed_key,
        graph=graph,
        indexes=indexes,
        dialect=dialect.value,
        statements=statements,
    )


def cases(seed: int, count: int) -> list[FuzzCase]:
    """The first *count* cases of stream *seed*."""
    return [case_for(seed, index) for index in range(count)]


def with_views(case: FuzzCase, count: int) -> FuzzCase:
    """*case* plus *count* deterministic registered read queries."""
    return replace(case, views=view_queries_for(case.seed_key, count))


def view_queries_for(
    seed_key: str, count: int
) -> tuple[tuple[str, str], ...]:
    """*count* read queries derived from *seed_key*, as (source,
    dialect) pairs.

    Biased toward the delta-maintainable shape (one fixed-length
    MATCH path, tame WHERE, property projections) but deliberately
    including fallback shapes -- var-length steps, OPTIONAL MATCH,
    second MATCH clauses, aggregates, UNWIND-first -- so both
    maintenance modes are exercised against full re-execution.
    """
    from repro.parser.unparse import unparse

    queries = []
    for index in range(count):
        rng = random.Random(f"{seed_key}:views:{index}")
        dialect = (
            Dialect.REVISED if rng.random() < 0.5 else Dialect.CYPHER9
        )
        statement = _read_statement(rng, dialect)
        queries.append((unparse(statement), dialect.value))
    return tuple(queries)


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------


def _random_graph(
    rng: random.Random, mixed: random.Random
) -> tuple[dict, tuple]:
    """A graph over the fixed schema, plus the indexes to create.

    The :data:`MIXED_KEY` values come from their own stream *mixed*, so
    they do not move what *rng* goes on to generate.
    """
    node_count = rng.randint(0, 8)
    nodes = []
    for node_id in range(node_count):
        labels = sorted(
            label for label in LABELS if rng.random() < 0.45
        )
        properties: dict = {}
        for key in INT_KEYS:
            if rng.random() < 0.6:
                properties[key] = rng.randint(0, 4)
        if rng.random() < 0.3:
            properties[STRING_KEY] = rng.choice(STRINGS)
        if mixed.random() < 0.5:
            properties[MIXED_KEY] = mixed.choice(MIXED_VALUES)
        nodes.append(
            {"id": node_id, "labels": labels, "properties": properties}
        )
    relationships = []
    if node_count:
        for rel_id in range(rng.randint(0, min(12, 2 * node_count))):
            properties = (
                {REL_KEY: rng.randint(0, 3)} if rng.random() < 0.4 else {}
            )
            if mixed.random() < 0.2:
                properties[REL_KEY] = mixed.choice(MIXED_VALUES)
            relationships.append(
                {
                    "id": rel_id,
                    "type": rng.choice(REL_TYPES),
                    "start": rng.randrange(node_count),
                    "end": rng.randrange(node_count),
                    "properties": properties,
                }
            )
    indexes = tuple(
        (label, key)
        for label in LABELS
        for key in INT_KEYS
        if rng.random() < 0.2
    )
    return {"nodes": nodes, "relationships": relationships}, indexes


# ---------------------------------------------------------------------------
# Merge-kind payloads
# ---------------------------------------------------------------------------


def _merge_payload(rng: random.Random) -> tuple[str, dict]:
    """A directed MERGE pattern plus an Example 3/5-shaped table."""
    columns = ("cid", "pid")
    length = rng.randint(1, 2)
    parts = [f"(u:{rng.choice(LABELS)} {{i: cid}})"]
    for step in range(length):
        rel_type = rng.choice(REL_TYPES)
        arrow = f"-[:{rel_type}]->" if rng.random() < 0.8 else f"<-[:{rel_type}]-"
        tail_props = "{i: pid}" if step == length - 1 else "{i: cid}"
        parts.append(f"{arrow}(n{step}:{rng.choice(LABELS)} {tail_props})")
    pattern = "".join(parts)
    if rng.random() < 0.3:
        pattern = f"(u:{rng.choice(LABELS)} {{i: cid, k: pid}})"
    rows: list[dict] = []
    seen: list[tuple] = []
    for __ in range(rng.randint(2, 9)):
        if seen and rng.random() < 0.4:
            cid, pid = rng.choice(seen)
        else:
            cid = rng.randint(0, 3)
            pid = None if rng.random() < 0.25 else rng.randint(0, 3)
            seen.append((cid, pid))
        rows.append({"cid": cid, "pid": pid})
    return pattern, {"columns": list(columns), "records": rows}


# ---------------------------------------------------------------------------
# Statement generation
# ---------------------------------------------------------------------------


@dataclass
class _Env:
    """The builder's model of the variables in scope."""

    nodes: list[str] = field(default_factory=list)
    rels: list[str] = field(default_factory=list)
    values: list[str] = field(default_factory=list)
    counter: int = 0

    def fresh(self, prefix: str) -> str:
        name = f"{prefix}{self.counter}"
        self.counter += 1
        return name

    def all_names(self) -> list[str]:
        return self.nodes + self.rels + self.values

    def copy(self) -> "_Env":
        return _Env(
            nodes=list(self.nodes),
            rels=list(self.rels),
            values=list(self.values),
            counter=self.counter,
        )


def _read_statement(
    rng: random.Random, dialect: Dialect
) -> ast.Statement:
    """One scope-valid read-only statement (retry on the rare reject)."""
    for __ in range(8):
        builder = _Builder(rng, dialect)
        statement = builder.read_statement()
        try:
            check_statement(statement)
        except Exception:
            continue
        return statement
    return ast.Statement(
        query=ast.SingleQuery(
            clauses=(
                ast.ReturnClause(
                    body=ast.ProjectionBody(
                        items=(
                            ast.ProjectionItem(ast.Literal(1), alias="one"),
                        )
                    )
                ),
            )
        )
    )


def _statement(rng: random.Random, dialect: Dialect) -> ast.Statement:
    """One scope-valid statement for *dialect* (retry on the rare reject)."""
    for __ in range(8):
        builder = _Builder(rng, dialect)
        statement = builder.statement()
        try:
            check_statement(statement)
        except Exception:
            continue
        return statement
    # Defensive fallback; the builder should essentially never get here.
    return ast.Statement(
        query=ast.SingleQuery(
            clauses=(
                ast.ReturnClause(
                    body=ast.ProjectionBody(
                        items=(
                            ast.ProjectionItem(ast.Literal(1), alias="one"),
                        )
                    )
                ),
            )
        )
    )


class _Builder:
    """Grows one statement clause by clause, tracking scope."""

    def __init__(self, rng: random.Random, dialect: Dialect):
        self.rng = rng
        self.dialect = dialect
        self.env = _Env()

    # -- expressions ----------------------------------------------------

    def int_expr(self, depth: int = 0) -> ast.Expression:
        rng = self.rng
        leafs = ["literal"]
        if self.env.nodes:
            leafs += ["prop", "prop", "prop"]
        if self.env.values:
            leafs += ["value", "value"]
        if depth < 2 and rng.random() < 0.45:
            operator = rng.choice(["+", "-", "*", "%"])
            return ast.Binary(
                operator,
                self.int_expr(depth + 1),
                self.int_expr(depth + 1),
            )
        if depth < 2 and rng.random() < 0.1:
            return ast.FunctionCall(
                "coalesce",
                (self.int_expr(depth + 1), ast.Literal(rng.randint(0, 4))),
            )
        if depth < 2 and rng.random() < 0.08:
            return self.edge_int_expr(depth)
        choice = rng.choice(leafs)
        if choice == "prop":
            return ast.Property(
                ast.Variable(rng.choice(self.env.nodes)),
                rng.choice(INT_KEYS),
            )
        if choice == "value":
            return ast.Variable(rng.choice(self.env.values))
        return ast.Literal(rng.randint(0, 5))

    def edge_int_expr(self, depth: int = 0) -> ast.Expression:
        """Integer shapes probing the fixed evaluator edges.

        ``reduce`` sums, ``abs`` (occasionally at the int64 boundary,
        where it must raise the overflow error), ``size``-of-
        ``substring``/``left``/``right`` with occasionally negative
        arguments (which must raise, not wrap around), plus the
        scalar fixes that shipped with the server: ``size(split(s,
        sep))`` with the empty separator (character explosion, not a
        leaked ``ValueError``), ``toInteger(round(x))`` at the
        half-up precision edges, and ``size(range(...))`` straddling
        the list-length cap (the oversized form must raise the
        resource-limit error, never materialise) -- every surface has
        to agree on value *and* error class.

        The overflow fixes add their own family: ``toInteger`` past
        int64 (must raise the overflow error on the float *and* the
        string path), ``exp`` saturation to Infinity (never a raw
        ``OverflowError``), ``toString``/``ceil``/``floor`` on
        non-finite floats.
        """
        rng = self.rng
        roll = rng.random()
        if roll < 0.12:
            pick = rng.randrange(4)
            if pick == 0:
                # toInteger outside int64: overflow error, not a
                # 2048-bit Python int (nor a leaked OverflowError on
                # the '1e999' -> inf string path, which is null)
                argument: ast.Expression = ast.Literal(
                    rng.choice(
                        [1e300, "1e300", "123456789012345678901234567890"]
                    )
                )
                if rng.random() < 0.3:
                    return ast.FunctionCall(
                        "coalesce",
                        (
                            ast.FunctionCall(
                                "tointeger", (ast.Literal("1e999"),)
                            ),
                            ast.Literal(0),
                        ),
                    )
                return ast.FunctionCall("tointeger", (argument,))
            inf: ast.Expression = ast.Binary(
                "/", ast.Literal(1.0), ast.Literal(0.0)
            )
            if pick == 1:
                # exp saturates to Infinity; toInteger(Infinity) is
                # null, so coalesce keeps the shape integer-typed
                inner = ast.FunctionCall(
                    "exp",
                    (ast.Literal(rng.choice([746.0, 0.0, 1.0, 1000.0])),),
                )
                return ast.FunctionCall(
                    "coalesce",
                    (
                        ast.FunctionCall("tointeger", (inner,)),
                        ast.Literal(0),
                    ),
                )
            if pick == 2:
                # Cypher spellings of non-finite floats, measured by
                # size: Infinity=8, -Infinity=9, NaN=3
                value = (
                    inf
                    if rng.random() < 0.6
                    else ast.Binary("/", ast.Literal(0.0), ast.Literal(0.0))
                )
                if rng.random() < 0.3:
                    value = ast.Unary("-", value)
                return ast.FunctionCall(
                    "size", (ast.FunctionCall("tostring", (value,)),)
                )
            # ceil/floor pass non-finite through instead of leaking a
            # raw ValueError/OverflowError from math.ceil/floor
            inner = ast.FunctionCall(rng.choice(["ceil", "floor"]), (inf,))
            return ast.FunctionCall(
                "coalesce",
                (
                    ast.FunctionCall("tointeger", (inner,)),
                    ast.Literal(0),
                ),
            )
        if roll < 0.24:
            # split with an occasionally empty separator
            separator = rng.choice(["", "", ",", "a"])
            return ast.FunctionCall(
                "size",
                (
                    ast.FunctionCall(
                        "split",
                        (
                            ast.Literal(rng.choice(STRINGS)),
                            ast.Literal(separator),
                        ),
                    ),
                ),
            )
        if roll < 0.36:
            # round at the half-up edges; toInteger keeps the shape
            # integer-typed for the surrounding expression
            value = rng.choice(
                [0.5, 2.5, -0.5, -1.5, 0.49999999999999994, 1.5, -2.5]
            )
            # negative literals must be unary-minus trees or the
            # parse(unparse(ast)) round-trip would not be identity
            argument: ast.Expression = (
                ast.Unary("-", ast.Literal(-value))
                if value < 0
                else ast.Literal(value)
            )
            return ast.FunctionCall(
                "tointeger",
                (ast.FunctionCall("round", (argument,)),),
            )
        if roll < 0.46:
            # range under or over the materialisation cap
            if rng.random() < 0.3:
                bounds = (
                    ast.Literal(0),
                    ast.Literal(10_000_000_000),
                )
            else:
                bounds = (
                    ast.Literal(rng.randint(0, 3)),
                    ast.Literal(rng.randint(0, 6)),
                )
            return ast.FunctionCall(
                "size", (ast.FunctionCall("range", bounds),)
            )
        if roll < 0.62:
            items = tuple(
                ast.Literal(rng.randint(0, 4))
                for __ in range(rng.randint(0, 3))
            )
            return ast.Reduce(
                accumulator="acc0",
                init=ast.Literal(rng.randint(0, 2)),
                variable="el0",
                source=ast.ListLiteral(items),
                expression=ast.Binary(
                    rng.choice(["+", "*"]),
                    ast.Variable("acc0"),
                    ast.Variable("el0"),
                ),
            )
        if roll < 0.8:
            if rng.random() < 0.2:
                # abs at INT64_MIN: (-9223372036854775807) - 1 is the
                # smallest legal integer; abs of it must overflow.
                argument: ast.Expression = ast.Binary(
                    "-",
                    ast.Unary("-", ast.Literal(9223372036854775807)),
                    ast.Literal(1),
                )
            else:
                argument = self.int_expr(depth + 1)
            return ast.FunctionCall("abs", (argument,))
        name = rng.choice(["substring", "left", "right"])
        length: ast.Expression = ast.Literal(rng.randint(0, 4))
        if rng.random() < 0.25:
            length = ast.Unary("-", ast.Literal(rng.randint(1, 3)))
        args: tuple[ast.Expression, ...]
        if name == "substring" and rng.random() < 0.5:
            args = (
                ast.Literal(rng.choice(STRINGS)),
                length,
                ast.Literal(rng.randint(0, 3)),
            )
        else:
            args = (ast.Literal(rng.choice(STRINGS)), length)
        return ast.FunctionCall(
            "size", (ast.FunctionCall(name, args),)
        )

    def any_expr(self) -> ast.Expression:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return self.int_expr()
        if roll < 0.7:
            return ast.Literal(rng.choice(STRINGS))
        if roll < 0.78:
            return ast.Literal(rng.choice([True, False, None]))
        if roll < 0.88 and self.env.nodes:
            return ast.Variable(rng.choice(self.env.nodes))
        if roll < 0.94:
            return ast.ListLiteral(
                tuple(
                    ast.Literal(rng.randint(0, 3))
                    for __ in range(rng.randint(0, 3))
                )
            )
        return ast.CaseExpression(
            operand=None,
            alternatives=(
                (
                    ast.Binary(">", self.int_expr(1), ast.Literal(1)),
                    self.int_expr(1),
                ),
            ),
            default=ast.Literal(0),
        )

    def predicate(self) -> ast.Expression:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            return ast.Binary(
                rng.choice(COMPARISONS),
                self.int_expr(1),
                self.int_expr(1),
            )
        if roll < 0.6 and (self.env.nodes or self.env.rels):
            return self.comparisons(tame=False)
        if roll < 0.75 and self.env.nodes:
            return ast.IsNull(
                ast.Property(
                    ast.Variable(rng.choice(self.env.nodes)),
                    rng.choice(INT_KEYS),
                ),
                negated=rng.random() < 0.5,
            )
        if roll < 0.88 and self.env.nodes:
            return ast.HasLabels(
                ast.Variable(rng.choice(self.env.nodes)),
                (rng.choice(LABELS),),
            )
        return ast.Binary(
            rng.choice(["AND", "OR"]),
            ast.Binary(">=", self.int_expr(1), ast.Literal(0)),
            ast.Binary("<", self.int_expr(1), ast.Literal(9)),
        )

    def comparisons(self, *, tame: bool) -> ast.Expression:
        """1-3 property comparisons joined by AND: the shape predicate
        pushdown moves onto pattern elements when every conjunct
        compares a variable the MATCH binds with a never-raising value.

        Subjects are node keys (the integer ones and the mixed one) and
        fixed relationship variables' ``w``; operands are literals,
        supplied parameters and earlier-bound variables, and -- unless
        *tame* -- now and then ``$absent``, which must raise exactly
        when the unrewritten WHERE would.  A third of the pairs are two
        bounds on one key.
        """
        rng = self.rng
        count = rng.randint(1, 3)
        terms: list[ast.Expression] = []
        while len(terms) < count:
            subject = self._compared_property()
            if count - len(terms) >= 2 and rng.random() < 0.35:
                terms.append(ast.Binary(">=", subject, self._operand(tame)))
                terms.append(ast.Binary("<", subject, self._operand(tame)))
                continue
            operator = rng.choice(COMPARISONS)
            operand = self._operand(tame)
            if rng.random() < 0.25:
                terms.append(ast.Binary(operator, operand, subject))
            else:
                terms.append(ast.Binary(operator, subject, operand))
        conjunction = terms[0]
        for term in terms[1:]:
            conjunction = ast.Binary("AND", conjunction, term)
        return conjunction

    def _compared_property(self) -> ast.Property:
        rng = self.rng
        if self.env.rels and (not self.env.nodes or rng.random() < 0.3):
            return ast.Property(
                ast.Variable(rng.choice(self.env.rels)), REL_KEY
            )
        return ast.Property(
            ast.Variable(rng.choice(self.env.nodes)),
            rng.choice(INT_KEYS + (MIXED_KEY,)),
        )

    def _operand(self, tame: bool) -> ast.Expression:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            return ast.Literal(rng.randint(0, 4))
        if roll < 0.5:
            return ast.Literal(rng.choice(MIXED_LITERALS))
        if roll < 0.85:
            if not tame and rng.random() < 0.1:
                return ast.Parameter("absent")
            return ast.Parameter(rng.choice(sorted(PARAMETERS)))
        if self.env.values:
            return ast.Variable(rng.choice(self.env.values))
        return ast.Literal(rng.randint(0, 4))

    def property_map(
        self, *, with_expressions: bool
    ) -> ast.MapLiteral | None:
        rng = self.rng
        if rng.random() < 0.35:
            return None
        items: list[tuple[str, ast.Expression]] = []
        for key in INT_KEYS:
            if rng.random() < 0.5:
                if with_expressions and rng.random() < 0.5:
                    items.append((key, self.int_expr(1)))
                else:
                    items.append((key, ast.Literal(rng.randint(0, 4))))
        if rng.random() < 0.15:
            items.append((STRING_KEY, ast.Literal(rng.choice(STRINGS))))
        if not items:
            return None
        return ast.MapLiteral(tuple(items))

    # -- patterns -------------------------------------------------------

    def _node_pattern(
        self, *, bind: bool, reuse_ok: bool, with_expressions: bool
    ) -> ast.NodePattern:
        rng = self.rng
        if reuse_ok and self.env.nodes and rng.random() < 0.18:
            # Re-using a bound node constrains the match / attaches the
            # entity; keep it bare, which is legal in every clause.
            return ast.NodePattern(variable=rng.choice(self.env.nodes))
        labels = tuple(
            sorted(label for label in LABELS if rng.random() < 0.3)
        )
        # Bind AFTER building the property map: in-pattern references
        # then only point backward, which the matcher resolves.  A small
        # fraction binds first, keeping the always-failing self-reference
        # shape in the corpus to exercise the error path.
        bind_first = bind and rng.random() < 0.05
        variable = None
        if bind_first:
            variable = self.env.fresh("n")
            self.env.nodes.append(variable)
        properties = self.property_map(with_expressions=with_expressions)
        if bind and not bind_first and rng.random() < 0.8:
            variable = self.env.fresh("n")
            self.env.nodes.append(variable)
        return ast.NodePattern(
            variable=variable,
            labels=labels,
            properties=properties,
        )

    def match_pattern(self) -> ast.Pattern:
        rng = self.rng
        paths = []
        for __ in range(1 if rng.random() < 0.75 else 2):
            elements: list = [
                self._node_pattern(
                    bind=True, reuse_ok=True, with_expressions=True
                )
            ]
            for __ in range(rng.randint(0, 2)):
                variable = None
                if rng.random() < 0.5:
                    variable = self.env.fresh("r")
                    self.env.rels.append(variable)
                types = tuple(
                    sorted(t for t in REL_TYPES if rng.random() < 0.45)
                )
                var_length = None
                if variable is None and rng.random() < 0.12:
                    lower = rng.randint(0, 1)
                    var_length = (lower, lower + rng.randint(0, 2))
                elements.append(
                    ast.RelationshipPattern(
                        variable=variable,
                        types=types,
                        direction=rng.choice(
                            [ast.OUT, ast.IN, ast.BOTH]
                        ),
                        var_length=var_length,
                    )
                )
                elements.append(
                    self._node_pattern(
                        bind=True, reuse_ok=True, with_expressions=True
                    )
                )
            path_variable = None
            if rng.random() < 0.1:
                path_variable = self.env.fresh("p")
                self.env.values.append(path_variable)
            paths.append(
                ast.PathPattern(
                    variable=path_variable, elements=tuple(elements)
                )
            )
        return ast.Pattern(paths=tuple(paths))

    def update_pattern(self, *, allow_undirected: bool) -> ast.Pattern:
        """A CREATE/MERGE pattern: directed, typed, no var-length."""
        rng = self.rng
        paths = []
        for __ in range(1 if rng.random() < 0.85 else 2):
            first = self._node_pattern(
                bind=True, reuse_ok=True, with_expressions=True
            )
            elements: list = [first]
            length = rng.randint(0, 2)
            if length == 0 and first.variable is None:
                # an anonymous single-node CREATE is legal but useless;
                # fine.  A *reused* single node is not a creation --
                # force a fresh variable instead.
                pass
            if length == 0 and first.variable in self.env.nodes[:-1]:
                # single-node path reusing a bound variable would
                # re-declare it; give the path one relationship.
                length = 1
            for __ in range(length):
                variable = None
                if rng.random() < 0.4:
                    variable = self.env.fresh("r")
                    self.env.rels.append(variable)
                direction = rng.choice([ast.OUT, ast.IN])
                if allow_undirected and rng.random() < 0.25:
                    direction = ast.BOTH
                elements.append(
                    ast.RelationshipPattern(
                        variable=variable,
                        types=(rng.choice(REL_TYPES),),
                        properties=self.property_map(with_expressions=True)
                        if rng.random() < 0.3
                        else None,
                        direction=direction,
                    )
                )
                elements.append(
                    self._node_pattern(
                        bind=True, reuse_ok=True, with_expressions=True
                    )
                )
            paths.append(ast.PathPattern(elements=tuple(elements)))
        return ast.Pattern(paths=tuple(paths))

    # -- clauses --------------------------------------------------------

    def match_clause(self) -> ast.MatchClause:
        pattern = self.match_pattern()
        where = self.predicate() if self.rng.random() < 0.4 else None
        return ast.MatchClause(
            pattern=pattern,
            optional=self.rng.random() < 0.2,
            where=where,
        )

    def unwind_clause(self) -> ast.UnwindClause:
        rng = self.rng
        variable = self.env.fresh("x")
        if rng.random() < 0.5:
            source: ast.Expression = ast.FunctionCall(
                "range",
                (ast.Literal(0), ast.Literal(rng.randint(0, 3))),
            )
        else:
            source = ast.ListLiteral(
                tuple(
                    ast.Literal(rng.randint(0, 4))
                    for __ in range(rng.randint(1, 4))
                )
            )
        self.env.values.append(variable)
        return ast.UnwindClause(expression=source, variable=variable)

    def create_clause(self) -> ast.CreateClause:
        return ast.CreateClause(
            pattern=self.update_pattern(allow_undirected=False)
        )

    def set_clause(self) -> ast.SetClause:
        rng = self.rng
        items: list[ast.SetItem] = []
        for __ in range(rng.randint(1, 2)):
            target = ast.Variable(rng.choice(self.env.nodes))
            roll = rng.random()
            if roll < 0.6:
                # Bias: the value reads properties of (possibly other)
                # matched nodes -- the Example 1/2 conflict shape.
                items.append(
                    ast.SetProperty(
                        target=ast.Property(target, rng.choice(INT_KEYS)),
                        value=self.int_expr()
                        if rng.random() < 0.8
                        else ast.Literal(None),
                    )
                )
            elif roll < 0.75:
                items.append(
                    ast.SetLabels(
                        target=target, labels=(rng.choice(LABELS),)
                    )
                )
            elif roll < 0.9:
                value = self.property_map(with_expressions=True)
                items.append(
                    ast.SetAdditiveProperties(
                        target=target,
                        value=value
                        if value is not None
                        else ast.MapLiteral(
                            (("i", ast.Literal(rng.randint(0, 4))),)
                        ),
                    )
                )
            else:
                value = self.property_map(with_expressions=True)
                items.append(
                    ast.SetAllProperties(
                        target=target,
                        value=value
                        if value is not None
                        else ast.MapLiteral(()),
                    )
                )
        return ast.SetClause(items=tuple(items))

    def remove_clause(self) -> ast.RemoveClause:
        rng = self.rng
        target = ast.Variable(rng.choice(self.env.nodes))
        if rng.random() < 0.5:
            item: ast.RemoveItem = ast.RemoveProperty(
                target=ast.Property(target, rng.choice(INT_KEYS))
            )
        else:
            item = ast.RemoveLabels(
                target=target, labels=(rng.choice(LABELS),)
            )
        return ast.RemoveClause(items=(item,))

    def delete_clause(self) -> ast.DeleteClause:
        rng = self.rng
        candidates = []
        if self.env.nodes:
            # Bias toward nodes: deleting a node that still has
            # relationships is the Section 4.2 anomaly shape.
            candidates += [rng.choice(self.env.nodes)] * 3
        if self.env.rels:
            candidates.append(rng.choice(self.env.rels))
        picks = sorted(
            {rng.choice(candidates) for __ in range(rng.randint(1, 2))}
        )
        return ast.DeleteClause(
            expressions=tuple(ast.Variable(name) for name in picks),
            detach=rng.random() < 0.45,
        )

    def merge_clause(self) -> ast.MergeClause:
        rng = self.rng
        if self.dialect is Dialect.CYPHER9:
            pattern = ast.Pattern(
                paths=(
                    self.update_pattern(allow_undirected=True).paths[0],
                )
            )
            on_create: tuple[ast.SetItem, ...] = ()
            on_match: tuple[ast.SetItem, ...] = ()
            merge_nodes = [
                element.variable
                for element in pattern.paths[0].elements
                if isinstance(element, ast.NodePattern)
                and element.variable is not None
            ]
            if merge_nodes and rng.random() < 0.4:
                on_create = (
                    ast.SetProperty(
                        target=ast.Property(
                            ast.Variable(rng.choice(merge_nodes)), "k"
                        ),
                        value=ast.Literal(rng.randint(0, 4)),
                    ),
                )
            if merge_nodes and rng.random() < 0.4:
                on_match = (
                    ast.SetProperty(
                        target=ast.Property(
                            ast.Variable(rng.choice(merge_nodes)), "i"
                        ),
                        value=self.int_expr(1),
                    ),
                )
            return ast.MergeClause(
                pattern=pattern,
                semantics=ast.MERGE_LEGACY,
                on_create=on_create,
                on_match=on_match,
            )
        semantics = rng.choice(
            [ast.MERGE_ALL, ast.MERGE_ALL, ast.MERGE_SAME, ast.MERGE_SAME]
            + [
                ast.MERGE_GROUPING,
                ast.MERGE_WEAK_COLLAPSE,
                ast.MERGE_COLLAPSE,
            ]
        )
        return ast.MergeClause(
            pattern=self.update_pattern(allow_undirected=False),
            semantics=semantics,
        )

    def foreach_clause(self) -> ast.ForeachClause:
        rng = self.rng
        variable = self.env.fresh("x")
        source = ast.ListLiteral(
            tuple(
                ast.Literal(rng.randint(0, 3))
                for __ in range(rng.randint(1, 3))
            )
        )
        inner = self.env.copy()
        inner.values.append(variable)
        saved, self.env = self.env, inner
        try:
            if self.env.nodes and rng.random() < 0.5:
                updates: tuple[ast.Clause, ...] = (
                    ast.SetClause(
                        items=(
                            ast.SetProperty(
                                target=ast.Property(
                                    ast.Variable(
                                        rng.choice(self.env.nodes)
                                    ),
                                    rng.choice(INT_KEYS),
                                ),
                                value=ast.Variable(variable),
                            ),
                        )
                    ),
                )
            else:
                updates = (
                    ast.CreateClause(
                        pattern=ast.Pattern(
                            paths=(
                                ast.PathPattern(
                                    elements=(
                                        ast.NodePattern(
                                            labels=(rng.choice(LABELS),),
                                            properties=ast.MapLiteral(
                                                (
                                                    (
                                                        "i",
                                                        ast.Variable(
                                                            variable
                                                        ),
                                                    ),
                                                )
                                            ),
                                        ),
                                    )
                                ),
                            )
                        )
                    ),
                )
        finally:
            self.env = saved
        return ast.ForeachClause(
            variable=variable, source=source, updates=updates
        )

    def with_clause(self) -> ast.WithClause:
        body = self._projection_body(is_with=True)
        where = None
        if self.rng.random() < 0.25:
            where = self.predicate()
        return ast.WithClause(body=body, where=where)

    def return_clause(self) -> ast.ReturnClause:
        return ast.ReturnClause(body=self._projection_body(is_with=False))

    def _projection_body(self, *, is_with: bool) -> ast.ProjectionBody:
        rng = self.rng
        items: list[ast.ProjectionItem] = []
        new_env = _Env(counter=self.env.counter)
        keep = [
            name
            for name in self.env.all_names()
            if rng.random() < (0.8 if is_with else 0.6)
        ]
        if is_with and not keep and self.env.all_names():
            keep = [rng.choice(self.env.all_names())]
        for name in keep:
            items.append(
                ast.ProjectionItem(ast.Variable(name), alias=name)
            )
            if name in self.env.nodes:
                new_env.nodes.append(name)
            elif name in self.env.rels:
                new_env.rels.append(name)
            else:
                new_env.values.append(name)
        for __ in range(rng.randint(0, 2)):
            alias = new_env.fresh("v")
            items.append(
                ast.ProjectionItem(self.any_expr(), alias=alias)
            )
            new_env.values.append(alias)
        if not is_with and rng.random() < 0.25:
            alias = new_env.fresh("c")
            items.append(ast.ProjectionItem(ast.CountStar(), alias=alias))
            new_env.values.append(alias)
        if not items:
            alias = new_env.fresh("v")
            items.append(
                ast.ProjectionItem(ast.Literal(1), alias=alias)
            )
            new_env.values.append(alias)
        order_by: tuple[ast.SortItem, ...] = ()
        aggregated = any(
            isinstance(item.expression, ast.CountStar) for item in items
        )
        if rng.random() < 0.25 and not aggregated:
            target = rng.choice(items)
            if not isinstance(target.expression, ast.CountStar):
                order_by = (
                    ast.SortItem(
                        ast.Variable(target.alias),
                        ascending=rng.random() < 0.7,
                    ),
                )
        limit = None
        if order_by and rng.random() < 0.5:
            limit = ast.Literal(rng.randint(1, 5))
        body = ast.ProjectionBody(
            items=tuple(items),
            distinct=rng.random() < 0.15,
            order_by=order_by,
            limit=limit,
        )
        self.env = new_env
        return body

    # -- whole statements ----------------------------------------------

    def statement(self) -> ast.Statement:
        if self.dialect is Dialect.CYPHER9:
            clauses = self._legacy_clauses()
        else:
            clauses = self._revised_clauses()
        return ast.Statement(query=ast.SingleQuery(clauses=tuple(clauses)))

    def _revised_clauses(self) -> list[ast.Clause]:
        rng = self.rng
        clauses: list[ast.Clause] = []
        for __ in range(rng.randint(1, 5)):
            choices = ["match", "unwind", "create", "merge"]
            if self.env.nodes:
                choices += ["set", "set", "remove", "delete", "foreach"]
            if self.env.all_names() and rng.random() < 0.2:
                choices.append("with")
            clauses.append(self._clause_named(rng.choice(choices)))
        # Figure 10 requires a query to end with RETURN or an update
        # clause; a trailing reading clause is a syntax error.
        if rng.random() < 0.7 or ast.is_reading_clause(clauses[-1]) \
                or isinstance(clauses[-1], ast.WithClause):
            clauses.append(self.return_clause())
        return clauses

    def _legacy_clauses(self) -> list[ast.Clause]:
        """Figure 2 shape: (reading* update*)+ with WITH separators."""
        rng = self.rng
        clauses: list[ast.Clause] = []
        for segment in range(rng.randint(1, 2)):
            if segment:
                clauses.append(self.with_clause())
            for __ in range(rng.randint(0, 2)):
                clauses.append(
                    self.match_clause()
                    if rng.random() < 0.75
                    else self.unwind_clause()
                )
            update_choices = ["create", "merge"]
            if self.env.nodes:
                update_choices += ["set", "set", "remove", "delete", "foreach"]
            for __ in range(rng.randint(0, 3)):
                clauses.append(
                    self._clause_named(rng.choice(update_choices))
                )
        if not clauses:
            clauses.append(self.match_clause())
        if rng.random() < 0.7 or ast.is_reading_clause(clauses[-1]) \
                or isinstance(clauses[-1], ast.WithClause):
            clauses.append(self.return_clause())
        return clauses

    # -- read-only statements (registered views) ------------------------

    def read_statement(self) -> ast.Statement:
        """A read-only MATCH/WHERE/WITH/RETURN statement.

        Expressions stay *total* (comparisons, IS NULL, label checks,
        literal property maps): a registered view is re-evaluated after
        every committed statement, so a predicate that can raise (say
        ``% 0``) would turn graph evolution into spurious errors
        instead of result divergence.
        """
        rng = self.rng
        clauses: list[ast.Clause] = []
        if rng.random() < 0.1:
            clauses.append(self.unwind_clause())
        clauses.append(self._read_match())
        if rng.random() < 0.15:
            # An OPTIONAL MATCH over bound variables keeps the rows it
            # cannot extend: the shape a footprint must not narrow.
            clauses.append(self._read_match(optional_share=0.5))
        if rng.random() < 0.2 and self.env.all_names():
            where = self._tame_predicate() if rng.random() < 0.4 else None
            clauses.append(
                ast.WithClause(
                    body=self._tame_body(is_with=True), where=where
                )
            )
        clauses.append(
            ast.ReturnClause(body=self._tame_body(is_with=False))
        )
        return ast.Statement(
            query=ast.SingleQuery(clauses=tuple(clauses))
        )

    def _read_node(self) -> ast.NodePattern:
        """A node pattern that, more often than not, has no property
        map: on graphs of at most eight nodes a map per position leaves
        most views empty, and an empty view exercises no maintenance.
        Half the re-used variables carry a label of their own."""
        bound = set(self.env.nodes)
        pattern = self._node_pattern(
            bind=True, reuse_ok=True, with_expressions=False
        )
        if self.rng.random() < 0.6:
            pattern = replace(pattern, properties=None)
        if pattern.variable in bound and self.rng.random() < 0.5:
            # A MATCH may label a variable it rebinds: the position
            # filters on labels the binding occurrence never named.
            pattern = replace(pattern, labels=(self.rng.choice(LABELS),))
        return pattern

    def _read_match(self, optional_share: float = 0.12) -> ast.MatchClause:
        rng = self.rng
        elements: list = [self._read_node()]
        for __ in range(rng.randint(0, 2)):
            variable = None
            if rng.random() < 0.6:
                variable = self.env.fresh("r")
                self.env.rels.append(variable)
            var_length = None
            if variable is None and rng.random() < 0.25:
                lower = rng.randint(0, 1)
                var_length = (lower, lower + rng.randint(0, 2))
            elements.append(
                ast.RelationshipPattern(
                    variable=variable,
                    types=tuple(
                        sorted(
                            t for t in REL_TYPES if rng.random() < 0.45
                        )
                    ),
                    direction=rng.choice([ast.OUT, ast.IN, ast.BOTH]),
                    var_length=var_length,
                )
            )
            elements.append(self._read_node())
        where = self._tame_predicate() if rng.random() < 0.45 else None
        return ast.MatchClause(
            pattern=ast.Pattern(
                paths=(ast.PathPattern(elements=tuple(elements)),)
            ),
            optional=rng.random() < optional_share,
            where=where,
        )

    def _tame_predicate(self) -> ast.Expression:
        rng = self.rng
        roll = rng.random()
        if (self.env.nodes or self.env.rels) and roll < 0.55:
            return self.comparisons(tame=True)
        if self.env.nodes and roll < 0.78:
            return ast.IsNull(
                ast.Property(
                    ast.Variable(rng.choice(self.env.nodes)),
                    rng.choice(INT_KEYS),
                ),
                negated=rng.random() < 0.5,
            )
        if self.env.nodes:
            return ast.HasLabels(
                ast.Variable(rng.choice(self.env.nodes)),
                (rng.choice(LABELS),),
            )
        return ast.Literal(True)

    def _tame_body(self, *, is_with: bool) -> ast.ProjectionBody:
        rng = self.rng
        items: list[ast.ProjectionItem] = []
        new_env = _Env(counter=self.env.counter)
        names = self.env.all_names()
        keep = [name for name in names if rng.random() < 0.7]
        if not keep and names:
            keep = [rng.choice(names)]
        for name in keep:
            items.append(
                ast.ProjectionItem(ast.Variable(name), alias=name)
            )
            if name in self.env.nodes:
                new_env.nodes.append(name)
            elif name in self.env.rels:
                new_env.rels.append(name)
            else:
                new_env.values.append(name)
        for __ in range(rng.randint(0, 2)):
            if self.env.nodes and rng.random() < 0.8:
                alias = new_env.fresh("v")
                items.append(
                    ast.ProjectionItem(
                        ast.Property(
                            ast.Variable(rng.choice(self.env.nodes)),
                            rng.choice(INT_KEYS + (STRING_KEY,)),
                        ),
                        alias=alias,
                    )
                )
                new_env.values.append(alias)
        aggregates: set[str] = set()
        if not is_with and rng.random() < 0.3:
            # Grouping by an entity makes every group one record; by
            # its values, or by nothing, groups have members to fold.
            roll = rng.random()
            if roll < 0.35:
                items.clear()
            elif roll < 0.7:
                items = [
                    item
                    for item in items
                    if not isinstance(item.expression, ast.Variable)
                ]
            for __ in range(rng.randint(1, 2)):
                alias = new_env.fresh("c")
                items.append(
                    ast.ProjectionItem(self._tame_aggregate(), alias=alias)
                )
                new_env.values.append(alias)
                aggregates.add(alias)
        if not items:
            alias = new_env.fresh("v")
            items.append(ast.ProjectionItem(ast.Literal(1), alias=alias))
            new_env.values.append(alias)
        order_by: tuple[ast.SortItem, ...] = ()
        sortable = [
            item.alias
            for item in items
            if item.alias in new_env.values
            and item.alias not in aggregates
        ]
        if sortable and rng.random() < 0.3:
            order_by = (
                ast.SortItem(
                    ast.Variable(rng.choice(sortable)),
                    ascending=rng.random() < 0.7,
                ),
            )
        limit = None
        # Which of two rows tied under ORDER BY a LIMIT keeps depends
        # on match order, which only the legacy dialect defines.
        if (
            order_by
            and self.dialect is Dialect.CYPHER9
            and rng.random() < 0.6
        ):
            limit = ast.Literal(rng.randint(1, 5))
        body = ast.ProjectionBody(
            items=tuple(items),
            distinct=rng.random() < 0.15,
            order_by=order_by,
            limit=limit,
        )
        self.env = new_env
        return body

    def _tame_aggregate(self) -> ast.Expression:
        """An aggregate call that cannot raise on the fuzz graphs.

        ``sum`` / ``avg`` read the integer keys only (null or integer
        on every node); the rest take any property.  ``collect`` is
        left to the legacy dialect: its list is in match order, which
        only that dialect defines.
        """
        rng = self.rng
        names = ["count", "sum", "avg", "min", "max"]
        if self.dialect is Dialect.CYPHER9:
            names.append("collect")
        if not self.env.nodes or rng.random() < 0.2:
            return ast.CountStar()
        name = rng.choice(names)
        keys = INT_KEYS if name in ("sum", "avg") else INT_KEYS + (STRING_KEY,)
        return ast.FunctionCall(
            name,
            (
                ast.Property(
                    ast.Variable(rng.choice(self.env.nodes)),
                    rng.choice(keys),
                ),
            ),
            distinct=rng.random() < 0.25,
        )

    def _clause_named(self, name: str) -> ast.Clause:
        if name == "match":
            return self.match_clause()
        if name == "unwind":
            return self.unwind_clause()
        if name == "create":
            return self.create_clause()
        if name == "merge":
            return self.merge_clause()
        if name == "set":
            return self.set_clause()
        if name == "remove":
            return self.remove_clause()
        if name == "delete":
            return self.delete_clause()
        if name == "foreach":
            return self.foreach_clause()
        if name == "with":
            return self.with_clause()
        raise AssertionError(f"unknown clause kind {name}")
