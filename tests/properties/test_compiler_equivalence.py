"""Interpreter/compiler equivalence.

The expression compiler -- the runtime's only evaluator -- must be
observationally identical to the reference interpreter
(``repro.testing.interpreter``, an oracle the runtime never imports):
same values *and* same errors (class and message) for every expression
form, including null propagation, division by zero, int64 overflow,
unknown variables and missing parameters.  Checked four ways:

* a hand-written corpus covering every ``ast.Expression`` node type
  and every documented error condition;
* hypothesis-generated random operator trees over a mixed-type record;
* every expression (and sub-expression) of the statements the fuzzer's
  generator emits, evaluated on the records that really reach its
  clause;
* whole statements executed through the seam the fuzzer uses: a
  prepared statement whose closure-maker is the interpreter.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dataclasses

from repro import Graph
from repro.dialect import Dialect
from repro.errors import CypherError
from repro.graph.model import Node, Path, Relationship
from repro.graph.store import GraphStore
from repro.parser import ast, parse_expression
from repro.runtime import compiler
from repro.runtime.aggregation import children
from repro.runtime.context import EvalContext
from repro.runtime.pipeline import execute_clause
from repro.runtime.table import DrivingTable
from repro.testing.generator import PARAMETERS, build_store, case_for
from repro.testing.interpreter import interpret, interpreted, interpreting
from repro.testing.invariants import check_invariants


def _make_context():
    store = GraphStore()
    a = store.create_node(("Person",), {"name": "Ann", "age": 30})
    b = store.create_node(("Person",), {"name": "Bob", "age": 25})
    store.create_relationship("KNOWS", a, b, {"since": 1999})
    ctx = EvalContext(store=store, parameters={"p": 7, "s": "abc"})
    record = {
        "n": store.node(a),
        "o": store.node(b),
        "m": None,
        "x": 5,
        "big": 9223372036854775807,
        "small": -9223372036854775808,
        "f": 2.5,
        "b": True,
        "s": "hello",
        "lst": [1, 2, 3],
        "mp": {"a": 1, "b": None},
    }
    return ctx, record


def canonical(value):
    """Type-aware, comparison-safe form of a result value.

    Distinguishes ``True``/``1``/``1.0`` (Python conflates them under
    ``==``), normalizes NaN (equal to itself here) and keeps float
    zero signs apart.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return (type(value).__name__, value)
    if isinstance(value, float):
        if math.isnan(value):
            return ("float", "nan")
        return ("float", value, math.copysign(1.0, value))
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, list):
        return ("list", tuple(canonical(item) for item in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(
                (key, canonical(item))
                for key, item in sorted(value.items())
            ),
        )
    if isinstance(value, (Node, Relationship)):
        return (type(value).__name__, value.id)
    if isinstance(value, Path):
        return ("path", tuple(n.id for n in value.nodes))
    return ("other", repr(value))


def outcome(thunk):
    """(tag, payload) summary of a computation: its value or its error."""
    try:
        return ("value", canonical(thunk()))
    except CypherError as error:
        return ("error", type(error).__name__, str(error))


def assert_equivalent(source):
    ctx, record = _make_context()
    expression = parse_expression(source)
    interpreted = outcome(lambda: interpret(ctx, expression, record))
    compiled_fn = compiler.compile_expression(expression)
    compiled = outcome(lambda: compiled_fn(ctx, record))
    assert compiled == interpreted, (
        f"{source!r}: interpreter {interpreted}, compiler {compiled}"
    )
    # Expression evaluation is read-only: neither evaluation strategy
    # may corrupt the store's cached structures.
    check_invariants(ctx.store)


CORPUS = [
    # literals
    "42",
    "2.5",
    "'hi'",
    "true",
    "false",
    "null",
    "[1, 'a', null, [2]]",
    "{a: 1, b: null, c: [2]}",
    # parameters (present / missing)
    "$p",
    "$s",
    "$does_not_exist",
    # variables (bound / unknown)
    "x",
    "never_bound",
    # property access
    "n.name",
    "n.missing",
    "m.name",
    "mp.a",
    "x.name",
    "s.name",
    # unary operators
    "-x",
    "+x",
    "-f",
    "-s",
    "+s",
    "NOT b",
    "NOT x",
    "NOT m",
    "-m",
    # arithmetic, null propagation, overflow, zero division
    "1 + 2",
    "x + f",
    "x + m",
    "m * 2",
    "big + 1",
    "big * 2",
    "small - 1",
    "0 - small",
    "7 / 2",
    "-7 / 2",
    "7 % 3",
    "-7 % 3",
    "1 / 0",
    "1 % 0",
    "1.0 / 0.0",
    "-1.0 / 0.0",
    "0.0 / 0.0",
    "1.0 % 0.0",
    "2 ^ 10",
    "2 ^ 0.5",
    "x + 'a'",
    "'a' + x",
    "'a' + 'b'",
    "true + 1",
    "lst + 4",
    "4 + lst",
    "lst + lst",
    "s - 1",
    "small / -1",
    # comparisons and membership
    "1 < 2",
    "2 <= 2",
    "3 > f",
    "x >= null",
    "1 = 1.0",
    "1 <> 'a'",
    "'a' < 'b'",
    "x IN lst",
    "9 IN lst",
    "null IN lst",
    "x IN null",
    "x IN s",
    # string predicates
    "'abc' STARTS WITH 'a'",
    "'abc' ENDS WITH 'c'",
    "'abc' CONTAINS 'b'",
    "'abc' CONTAINS x",
    "m STARTS WITH 'a'",
    "'abc' ENDS WITH m",
    # boolean connectives (both operands always evaluated)
    "true AND null",
    "false AND null",
    "true OR null",
    "false OR null",
    "null XOR true",
    "b AND x",
    "false AND 1 / 0 = 1",
    "true OR 1 / 0 = 1",
    # IS NULL
    "m IS NULL",
    "m IS NOT NULL",
    "x IS NULL",
    "null IS NULL",
    # label predicates
    "n:Person",
    "n:Person:Robot",
    "m:Person",
    "x:Person",
    # function calls
    "size('abc')",
    "size(lst)",
    "size(null)",
    "toUpper(s)",
    "abs(-3)",
    "coalesce(null, m, x)",
    "coalesce(null, null)",
    "range(1, 4)",
    "no_such_function(1)",
    "size()",
    "size('a', 'b')",
    "toInteger('12')",
    "split('a,b', ',')",
    # aggregates are rejected outside projections
    "count(x)",
    "sum(lst)",
    # CASE
    "CASE x WHEN 5 THEN 'five' WHEN 6 THEN 'six' ELSE 'other' END",
    "CASE x WHEN 99 THEN 'no' END",
    "CASE WHEN x > 1 THEN 'big' WHEN x > 0 THEN 'small' END",
    "CASE WHEN m THEN 'yes' ELSE 'no' END",
    "CASE m WHEN null THEN 'null' ELSE 'other' END",
    # list comprehensions
    "[i IN lst WHERE i > 1 | i * 2]",
    "[i IN lst | i + x]",
    "[i IN lst WHERE i > 99]",
    "[i IN m | i]",
    "[i IN x | i]",
    "[i IN lst WHERE i.name = 1 | i]",
    # quantifiers
    "any(i IN lst WHERE i = 2)",
    "all(i IN lst WHERE i > 0)",
    "none(i IN lst WHERE i > 99)",
    "single(i IN lst WHERE i = 2)",
    "any(i IN [1, null] WHERE i = 9)",
    "all(i IN [m] WHERE i = 1)",
    "single(i IN m WHERE i = 1)",
    "any(i IN x WHERE i = 1)",
    # subscripts
    "lst[0]",
    "lst[-1]",
    "lst[9]",
    "lst['a']",
    "mp['a']",
    "mp[x]",
    "n['name']",
    "x[0]",
    "lst[m]",
    # slices
    "lst[1..2]",
    "lst[..2]",
    "lst[1..]",
    "lst[-2..99]",
    "s[1..2]",
    "lst[m..2]",
    "lst['a'..2]",
    # reduce
    "reduce(acc = 0, i IN lst | acc + i)",
    "reduce(acc = 1, i IN lst | acc * i)",
    "reduce(acc = '', i IN lst | acc + i)",
    "reduce(acc = 0, i IN [] | acc + i)",
    "reduce(acc = 0, i IN m | acc + i)",
    "reduce(acc = 0, i IN x | acc + i)",
    "reduce(acc = x, i IN lst | acc + i * acc)",
    "reduce(acc = 0, i IN lst | acc + reduce(a2 = i, j IN lst | a2 + j))",
    # negative string-function positions raise, not index from the end
    "substring(s, -1)",
    "substring(s, 1, -1)",
    "substring(s, 1, 2)",
    "left(s, -2)",
    "left(s, 2)",
    "right(s, -2)",
    "right(s, 2)",
    # abs at the int64 boundary overflows
    "abs(small)",
    "abs(-9223372036854775807 - 1)",
    "abs(big)",
    "abs(-f)",
    # pattern predicates and EXISTS
    "(n)-[:KNOWS]->()",
    "(n)<-[:KNOWS]-()",
    "(n)-[:HATES]->()",
    "exists(n.name)",
    "exists(n.missing)",
    "exists((n)-[:KNOWS]->(o))",
]


@pytest.mark.parametrize("source", CORPUS)
def test_corpus_equivalence(source):
    assert_equivalent(source)


@pytest.mark.parametrize(
    "source",
    [
        "1 / 0",
        "big + 1",
        "never_bound",
        "$does_not_exist",
        "substring(s, -1)",
        "left(s, -2)",
        "right(s, -2)",
        "abs(small)",
        "reduce(acc = 0, i IN x | acc + i)",
    ],
)
def test_error_cases_compare_class_and_message(source):
    """The headline error conditions stay identical, class and text."""
    ctx, record = _make_context()
    expression = parse_expression(source)
    with pytest.raises(CypherError) as interpreted:
        interpret(ctx, expression, record)
    with pytest.raises(CypherError) as compiled:
        compiler.compile_expression(expression)(ctx, record)
    assert type(compiled.value) is type(interpreted.value)
    assert str(compiled.value) == str(interpreted.value)


# -- random operator trees --------------------------------------------------

_ATOMS = st.sampled_from(
    [
        "0",
        "1",
        "2",
        "null",
        "true",
        "false",
        "1.5",
        "0.0",
        "'a'",
        "x",
        "f",
        "m",
        "big",
        "lst",
        "9223372036854775807",
    ]
)

_BINARY = st.sampled_from(
    ["+", "-", "*", "/", "%", "^", "=", "<>", "<", "<=", ">", ">=",
     "AND", "OR", "XOR", "IN"]
)


def _combine(parts):
    left, op, right = parts
    return f"({left} {op} {right})"


_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda children: st.one_of(
        st.tuples(children, _BINARY, children).map(_combine),
        children.map(lambda e: f"(-{e})"),
        children.map(lambda e: f"(NOT {e})"),
        children.map(lambda e: f"({e} IS NULL)"),
        children.map(lambda e: f"size({e})"),
        st.tuples(children, children).map(
            lambda pair: f"coalesce({pair[0]}, {pair[1]})"
        ),
    ),
    max_leaves=12,
)


@given(_EXPRESSIONS)
def test_random_trees_equivalent(source):
    assert_equivalent(source)


@given(_EXPRESSIONS)
def test_interpreted_statement_matches_compiled(source):
    """The seam the fuzzer uses: the same prepared statement, once with
    the compiler and once with the interpreter as its closure-maker,
    through the engine and a projection."""
    __, record = _make_context()
    graph = Graph()
    prepared = graph.engine.prepare(f"RETURN {source} AS v")
    assert interpreted(prepared).compile is interpreting
    assert interpreted(prepared).statement is prepared.statement

    def run(statement):
        table = DrivingTable(tuple(record), [record])
        return graph.engine.execute(statement, table=table).single()["v"]

    assert outcome(lambda: run(interpreted(prepared))) == outcome(
        lambda: run(prepared)
    )


# -- every expression the statement generator emits -------------------------


def _top_level_expressions(node):
    """The expressions a clause evaluates, found by walking its fields."""
    if isinstance(node, ast.Expression):
        yield node
        return
    if dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from _top_level_expressions(getattr(node, field.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from _top_level_expressions(item)


def _subtrees(expression):
    yield expression
    for child in children(expression):
        yield from _subtrees(child)


#: generated cases harvested (every third is a merge case, skipped)
GENERATED_CASES = 300
#: records of the table reaching a clause its expressions are evaluated on
RECORDS_PER_CLAUSE = 4


def test_generated_expressions_equivalent():
    """Each clause of each generated statement runs for real; every
    expression and sub-expression of the *next* clause is evaluated by
    both evaluators on the records that reach it."""
    forms: set[str] = set()
    compared = bound = 0
    for index in range(GENERATED_CASES):
        case = case_for(7, index)
        if case.kind == "merge":
            continue
        dialect = Dialect.parse(case.dialect)
        for statement in case.statements:
            store = build_store(case)
            ctx = EvalContext(
                store=store,
                parameters=dict(PARAMETERS),
                preserve_match_order=dialect is Dialect.CYPHER9,
            )
            for branch in statement.branches():
                table = DrivingTable.unit()
                for clause in branch.clauses:
                    records = table.records[:RECORDS_PER_CLAUSE] or [{}]
                    for top in _top_level_expressions(clause):
                        for expression in _subtrees(top):
                            forms.add(type(expression).__name__)
                            for record in records:
                                compared += 1
                                bound += bool(record)
                                assert outcome(
                                    lambda: interpret(ctx, expression, record)
                                ) == outcome(
                                    lambda: compiler.compile_expression(
                                        expression
                                    )(ctx, record)
                                ), (case.seed_key, expression)
                    try:
                        table = execute_clause(ctx, clause, table, dialect)
                    except CypherError:
                        break
            check_invariants(store)
    assert compared > 5000 and bound > compared // 2
    # The generator's whole expression vocabulary was reached.
    assert forms >= {
        "Literal",
        "Variable",
        "Property",
        "Binary",
        "FunctionCall",
        "IsNull",
        "HasLabels",
        "ListLiteral",
        "MapLiteral",
        "CaseExpression",
        "Reduce",
    }, forms
