"""Unit tests for the expression evaluator."""

import math

import pytest

from repro.graph.values import INT64_MAX, INT64_MIN

from repro.errors import (
    CypherEvaluationError,
    CypherTypeError,
    ParameterMissingError,
    UnknownVariableError,
)
from repro.graph.store import GraphStore
from repro.parser import parse_expression
from repro.runtime.context import EvalContext


@pytest.fixture
def ctx():
    return EvalContext(store=GraphStore())


def ev(ctx, source, record=None, parameters=None):
    if parameters:
        ctx = EvalContext(store=ctx.store, parameters=parameters)
    return ctx.compile(parse_expression(source))(ctx, record or {})


class TestLiteralsAndVariables:
    def test_literals(self, ctx):
        assert ev(ctx, "42") == 42
        assert ev(ctx, "2.5") == 2.5
        assert ev(ctx, "'hi'") == "hi"
        assert ev(ctx, "true") is True
        assert ev(ctx, "null") is None
        assert ev(ctx, "[1, 'a', null]") == [1, "a", None]
        assert ev(ctx, "{a: 1, b: [2]}") == {"a": 1, "b": [2]}

    def test_variables(self, ctx):
        assert ev(ctx, "x", {"x": 7}) == 7
        with pytest.raises(UnknownVariableError):
            ev(ctx, "missing")

    def test_parameters(self, ctx):
        assert ev(ctx, "$p", parameters={"p": 3}) == 3
        with pytest.raises(ParameterMissingError):
            ev(ctx, "$q")


class TestArithmetic:
    def test_basic(self, ctx):
        assert ev(ctx, "1 + 2 * 3") == 7
        assert ev(ctx, "7 - 2") == 5
        assert ev(ctx, "2 ^ 10") == 1024.0

    def test_integer_division_truncates(self, ctx):
        assert ev(ctx, "7 / 2") == 3
        assert ev(ctx, "-7 / 2") == -3
        assert ev(ctx, "7.0 / 2") == 3.5

    def test_modulo(self, ctx):
        assert ev(ctx, "7 % 3") == 1
        assert ev(ctx, "-7 % 3") == -1

    def test_division_by_zero(self, ctx):
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "1 / 0")
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "1 % 0")

    def test_float_division_by_zero_is_ieee(self, ctx):
        # Floats follow IEEE 754: ±Infinity and NaN, never an error.
        assert ev(ctx, "1.0 / 0.0") == math.inf
        assert ev(ctx, "-1.0 / 0.0") == -math.inf
        assert math.isnan(ev(ctx, "0.0 / 0.0"))
        # Mixed operands are float division.
        assert ev(ctx, "1 / 0.0") == math.inf
        assert ev(ctx, "1.0 / 0") == math.inf
        assert ev(ctx, "-3 / 0.0") == -math.inf
        # The sign of a signed zero divisor matters.
        assert ev(ctx, "1.0 / -0.0") == -math.inf
        assert ev(ctx, "-1.0 / -0.0") == math.inf

    def test_float_modulo_by_zero_is_nan(self, ctx):
        assert math.isnan(ev(ctx, "1.0 % 0.0"))
        assert math.isnan(ev(ctx, "7 % 0.0"))
        assert math.isnan(ev(ctx, "7.5 % 0"))
        # Finite cases keep the dividend's sign (fmod semantics).
        assert ev(ctx, "-7.5 % 2") == -1.5
        assert ev(ctx, "7.5 % -2") == 1.5

    def test_integer_division_is_exact(self, ctx):
        # int(a / b) via floats loses precision above 2**53.
        assert ev(ctx, "9007199254740993 / 1") == 9007199254740993
        assert (
            ev(ctx, "9223372036854775807 / 3") == 3074457345618258602
        )

    def test_integer_overflow_errors(self, ctx):
        with pytest.raises(CypherEvaluationError, match="overflow"):
            ev(ctx, "9223372036854775807 + 1")
        with pytest.raises(CypherEvaluationError, match="overflow"):
            ev(ctx, "-9223372036854775807 - 2")
        with pytest.raises(CypherEvaluationError, match="overflow"):
            ev(ctx, "3037000500 * 3037000500")
        with pytest.raises(CypherEvaluationError, match="overflow"):
            ev(ctx, "-(-9223372036854775807 - 1)")
        with pytest.raises(CypherEvaluationError, match="overflow"):
            ev(ctx, "(-9223372036854775807 - 1) / -1")

    def test_integer_boundaries_are_legal(self, ctx):
        assert ev(ctx, "9223372036854775806 + 1") == INT64_MAX
        assert ev(ctx, "-9223372036854775807 - 1") == INT64_MIN
        assert ev(ctx, "-(9223372036854775807)") == -INT64_MAX

    def test_overflow_does_not_apply_to_floats(self, ctx):
        assert ev(ctx, "9223372036854775807 + 1.0") == float(2**63)
        assert ev(ctx, "2.0 ^ 100") == 2.0**100

    def test_null_propagation(self, ctx):
        assert ev(ctx, "1 + null") is None
        assert ev(ctx, "null * 3") is None
        assert ev(ctx, "-x", {"x": None}) is None

    def test_string_concatenation(self, ctx):
        assert ev(ctx, "'a' + 'b'") == "ab"
        assert ev(ctx, "'a' + 1") == "a1"
        assert ev(ctx, "1 + 'a'") == "1a"

    def test_list_concatenation(self, ctx):
        assert ev(ctx, "[1] + [2]") == [1, 2]
        assert ev(ctx, "[1] + 2") == [1, 2]
        assert ev(ctx, "0 + [1]") == [0, 1]

    def test_type_errors(self, ctx):
        with pytest.raises(CypherTypeError):
            ev(ctx, "true + 1")
        with pytest.raises(CypherTypeError):
            ev(ctx, "{a: 1} - 1")


class TestPredicates:
    def test_comparisons(self, ctx):
        assert ev(ctx, "1 < 2") is True
        assert ev(ctx, "1 >= 2") is False
        assert ev(ctx, "null = null") is None
        assert ev(ctx, "1 <> 2") is True

    def test_chained_comparison(self, ctx):
        assert ev(ctx, "1 < 2 < 3") is True
        assert ev(ctx, "1 < 2 > 5") is False

    def test_boolean_operators(self, ctx):
        assert ev(ctx, "true AND false") is False
        assert ev(ctx, "true OR null") is True
        assert ev(ctx, "null AND true") is None
        assert ev(ctx, "true XOR true") is False
        assert ev(ctx, "NOT null") is None

    def test_string_predicates(self, ctx):
        assert ev(ctx, "'hello' STARTS WITH 'he'") is True
        assert ev(ctx, "'hello' ENDS WITH 'lo'") is True
        assert ev(ctx, "'hello' CONTAINS 'ell'") is True
        assert ev(ctx, "'hello' CONTAINS null") is None
        with pytest.raises(CypherTypeError):
            ev(ctx, "'a' CONTAINS 1")

    def test_in(self, ctx):
        assert ev(ctx, "2 IN [1, 2]") is True
        assert ev(ctx, "3 IN [1, null]") is None

    def test_is_null(self, ctx):
        assert ev(ctx, "null IS NULL") is True
        assert ev(ctx, "1 IS NOT NULL") is True
        assert ev(ctx, "null IS NOT NULL") is False


class TestPropertyAccess:
    def test_node_property(self, ctx):
        node_id = ctx.store.create_node(("User",), {"name": "Bob"})
        node = ctx.store.node(node_id)
        assert ev(ctx, "n.name", {"n": node}) == "Bob"
        assert ev(ctx, "n.missing", {"n": node}) is None

    def test_map_property(self, ctx):
        assert ev(ctx, "m.a", {"m": {"a": 1}}) == 1
        assert ev(ctx, "m.z", {"m": {"a": 1}}) is None

    def test_null_subject(self, ctx):
        assert ev(ctx, "n.x", {"n": None}) is None

    def test_nested_access(self, ctx):
        assert ev(ctx, "m.a.b", {"m": {"a": {"b": 2}}}) == 2

    def test_non_map_subject_raises(self, ctx):
        with pytest.raises(CypherTypeError):
            ev(ctx, "x.a", {"x": 5})

    def test_label_predicate(self, ctx):
        node = ctx.store.node(ctx.store.create_node(("User", "Admin")))
        assert ev(ctx, "n:User:Admin", {"n": node}) is True
        assert ev(ctx, "n:Vendor", {"n": node}) is False
        assert ev(ctx, "n:User", {"n": None}) is None


class TestCollections:
    def test_subscript(self, ctx):
        assert ev(ctx, "xs[1]", {"xs": [10, 20]}) == 20
        assert ev(ctx, "xs[-1]", {"xs": [10, 20]}) == 20
        assert ev(ctx, "xs[9]", {"xs": [10]}) is None
        assert ev(ctx, "m['a']", {"m": {"a": 1}}) == 1
        assert ev(ctx, "xs[null]", {"xs": [1]}) is None

    def test_slice(self, ctx):
        xs = {"xs": [0, 1, 2, 3]}
        assert ev(ctx, "xs[1..3]", xs) == [1, 2]
        assert ev(ctx, "xs[..2]", xs) == [0, 1]
        assert ev(ctx, "xs[2..]", xs) == [2, 3]

    def test_list_comprehension(self, ctx):
        assert ev(ctx, "[x IN [1,2,3] WHERE x > 1 | x * 10]") == [20, 30]
        assert ev(ctx, "[x IN [1,2] | x]") == [1, 2]
        assert ev(ctx, "[x IN [1,2,3] WHERE x <> 2]") == [1, 3]
        assert ev(ctx, "[x IN null | x]") is None

    def test_quantifiers(self, ctx):
        assert ev(ctx, "any(x IN [1,2] WHERE x = 2)") is True
        assert ev(ctx, "all(x IN [1,2] WHERE x > 0)") is True
        assert ev(ctx, "none(x IN [1,2] WHERE x = 3)") is True
        assert ev(ctx, "single(x IN [1,2] WHERE x = 2)") is True
        assert ev(ctx, "single(x IN [2,2] WHERE x = 2)") is False
        assert ev(ctx, "any(x IN [null] WHERE x = 1)") is None
        assert ev(ctx, "all(x IN [1, null] WHERE x = 1)") is None

    def test_reduce(self, ctx):
        assert ev(ctx, "reduce(acc = 0, x IN [1,2,3] | acc + x)") == 6
        assert ev(ctx, "reduce(acc = 1, x IN [2,3,4] | acc * x)") == 24
        assert ev(ctx, "reduce(acc = '', x IN [1,2] | acc + x)") == "12"
        assert ev(ctx, "reduce(acc = 9, x IN [] | acc + x)") == 9

    def test_reduce_shadowing_and_nesting(self, ctx):
        # The accumulator and element shadow outer bindings.
        assert (
            ev(ctx, "reduce(x = 0, y IN xs | x + y)", {"xs": [1, 2]}) == 3
        )
        nested = (
            "reduce(acc = 0, x IN [1,2] | "
            "acc + reduce(a2 = x, y IN [10] | a2 + y))"
        )
        assert ev(ctx, nested) == 23  # (1 + 10) + (2 + 10)

    def test_reduce_null_and_type_errors(self, ctx):
        assert ev(ctx, "reduce(acc = 0, x IN null | acc + x)") is None
        with pytest.raises(CypherTypeError):
            ev(ctx, "reduce(acc = 0, x IN 1 | acc + x)")
        with pytest.raises(CypherTypeError):
            ev(ctx, "reduce(acc = 0, x IN 'abc' | acc + x)")


class TestCase:
    def test_simple_case(self, ctx):
        source = "CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END"
        assert ev(ctx, source, {"x": 1}) == "one"
        assert ev(ctx, source, {"x": 2}) == "two"
        assert ev(ctx, source, {"x": 9}) == "many"

    def test_searched_case(self, ctx):
        source = "CASE WHEN x > 1 THEN 'big' END"
        assert ev(ctx, source, {"x": 5}) == "big"
        assert ev(ctx, source, {"x": 0}) is None

    def test_null_operand_matches_nothing(self, ctx):
        source = "CASE x WHEN 1 THEN 'one' ELSE 'other' END"
        assert ev(ctx, source, {"x": None}) == "other"


class TestPatternPredicates:
    def test_exists_pattern(self, ctx):
        a = ctx.store.create_node(("User",))
        b = ctx.store.create_node(("Product",))
        ctx.store.create_relationship("ORDERED", a, b)
        node = ctx.store.node(a)
        assert ev(ctx, "exists((n)-[:ORDERED]->())", {"n": node}) is True
        assert ev(ctx, "exists((n)<-[:ORDERED]-())", {"n": node}) is False

    def test_bare_pattern_predicate(self, ctx):
        a = ctx.store.create_node(("User",))
        b = ctx.store.create_node(("Product",))
        ctx.store.create_relationship("ORDERED", a, b)
        node = ctx.store.node(a)
        assert ev(ctx, "(n)-[:ORDERED]->(:Product)", {"n": node}) is True
        assert ev(ctx, "(n)-[:ORDERED]->(:Vendor)", {"n": node}) is False

    def test_exists_property(self, ctx):
        node = ctx.store.node(ctx.store.create_node((), {"x": 1}))
        assert ev(ctx, "exists(n.x)", {"n": node}) is True
        assert ev(ctx, "exists(n.y)", {"n": node}) is False


class TestAggregateRejection:
    def test_aggregate_outside_projection_raises(self, ctx):
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "count(*)")
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "sum(x)", {"x": 1})
