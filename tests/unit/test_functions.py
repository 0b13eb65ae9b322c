"""Unit tests for built-in scalar functions."""

import math

import pytest

from repro.errors import CypherEvaluationError, CypherTypeError
from repro.graph.model import Path
from repro.graph.store import GraphStore
from repro.parser import parse_expression
from repro.runtime.context import EvalContext


@pytest.fixture
def ctx():
    return EvalContext(store=GraphStore())


def ev(ctx, source, record=None):
    return ctx.compile(parse_expression(source))(ctx, record or {})


class TestGraphFunctions:
    def test_id_labels_properties_keys(self, ctx):
        node_id = ctx.store.create_node(("B", "A"), {"x": 1, "y": 2})
        node = ctx.store.node(node_id)
        record = {"n": node}
        assert ev(ctx, "id(n)", record) == node_id
        assert ev(ctx, "labels(n)", record) == ["A", "B"]
        assert ev(ctx, "properties(n)", record) == {"x": 1, "y": 2}
        assert ev(ctx, "keys(n)", record) == ["x", "y"]

    def test_type_start_end(self, ctx):
        a = ctx.store.create_node()
        b = ctx.store.create_node()
        r = ctx.store.create_relationship("KNOWS", a, b)
        record = {"r": ctx.store.relationship(r)}
        assert ev(ctx, "type(r)", record) == "KNOWS"
        assert ev(ctx, "id(startNode(r))", record) == a
        assert ev(ctx, "id(endNode(r))", record) == b

    def test_degree(self, ctx):
        a = ctx.store.create_node()
        b = ctx.store.create_node()
        ctx.store.create_relationship("T", a, b)
        assert ev(ctx, "degree(n)", {"n": ctx.store.node(a)}) == 1

    def test_path_functions(self, ctx):
        a = ctx.store.create_node()
        b = ctx.store.create_node()
        r = ctx.store.create_relationship("T", a, b)
        path = Path(
            [ctx.store.node(a), ctx.store.node(b)],
            [ctx.store.relationship(r)],
        )
        record = {"p": path}
        assert ev(ctx, "length(p)", record) == 1
        assert [n.id for n in ev(ctx, "nodes(p)", record)] == [a, b]
        assert [x.id for x in ev(ctx, "relationships(p)", record)] == [r]

    def test_wrong_types_raise(self, ctx):
        with pytest.raises(CypherTypeError):
            ev(ctx, "labels(1)")
        with pytest.raises(CypherTypeError):
            ev(ctx, "type('x')")


class TestListFunctions:
    def test_size(self, ctx):
        assert ev(ctx, "size([1, 2, 3])") == 3
        assert ev(ctx, "size('abcd')") == 4

    def test_head_last_tail(self, ctx):
        assert ev(ctx, "head([1, 2])") == 1
        assert ev(ctx, "last([1, 2])") == 2
        assert ev(ctx, "tail([1, 2, 3])") == [2, 3]
        assert ev(ctx, "head([])") is None

    def test_reverse(self, ctx):
        assert ev(ctx, "reverse([1, 2])") == [2, 1]
        assert ev(ctx, "reverse('ab')") == "ba"

    def test_range(self, ctx):
        assert ev(ctx, "range(1, 4)") == [1, 2, 3, 4]
        assert ev(ctx, "range(0, 10, 5)") == [0, 5, 10]
        assert ev(ctx, "range(3, 1, -1)") == [3, 2, 1]
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "range(1, 2, 0)")

    def test_coalesce(self, ctx):
        assert ev(ctx, "coalesce(null, null, 3)") == 3
        assert ev(ctx, "coalesce(null)") is None
        assert ev(ctx, "coalesce(1, 2)") == 1


class TestConversions:
    def test_to_integer(self, ctx):
        assert ev(ctx, "toInteger('42')") == 42
        assert ev(ctx, "toInteger(3.9)") == 3
        assert ev(ctx, "toInteger('3.9')") == 3
        assert ev(ctx, "toInteger('nope')") is None
        assert ev(ctx, "toInteger(true)") == 1

    def test_to_float(self, ctx):
        assert ev(ctx, "toFloat('2.5')") == 2.5
        assert ev(ctx, "toFloat(2)") == 2.0
        assert ev(ctx, "toFloat('x')") is None

    def test_to_string(self, ctx):
        assert ev(ctx, "toString(42)") == "42"
        assert ev(ctx, "toString(true)") == "true"
        assert ev(ctx, "toString(2.5)") == "2.5"

    def test_to_boolean(self, ctx):
        assert ev(ctx, "toBoolean('TRUE')") is True
        assert ev(ctx, "toBoolean('false')") is False
        assert ev(ctx, "toBoolean('x')") is None

    def test_null_propagates(self, ctx):
        assert ev(ctx, "toInteger(null)") is None
        assert ev(ctx, "size(null)") is None


class TestNumeric:
    def test_abs_sign(self, ctx):
        assert ev(ctx, "abs(-3)") == 3
        assert ev(ctx, "sign(-2)") == -1
        assert ev(ctx, "sign(0)") == 0

    def test_abs_int64_min_overflows(self, ctx):
        # abs(INT64_MIN) is 2^63, which is not a 64-bit integer.
        with pytest.raises(CypherEvaluationError, match="overflow"):
            ev(ctx, "abs(-9223372036854775807 - 1)")

    def test_abs_boundaries_are_legal(self, ctx):
        assert ev(ctx, "abs(-9223372036854775807)") == 9223372036854775807
        assert ev(ctx, "abs(9223372036854775807)") == 9223372036854775807
        # Floats are IEEE 754 and never overflow this way.
        assert ev(ctx, "abs(-9223372036854775808.0)") == float(2**63)

    def test_rounding(self, ctx):
        assert ev(ctx, "ceil(2.1)") == 3.0
        assert ev(ctx, "floor(2.9)") == 2.0
        assert ev(ctx, "round(2.5)") == 3.0
        assert ev(ctx, "round(2.4)") == 2.0

    def test_roots_and_logs(self, ctx):
        assert ev(ctx, "sqrt(16)") == 4.0
        assert math.isnan(ev(ctx, "sqrt(-1)"))
        assert ev(ctx, "log(exp(1.0))") == pytest.approx(1.0)
        assert ev(ctx, "log10(100)") == pytest.approx(2.0)


class TestStrings:
    def test_case_functions(self, ctx):
        assert ev(ctx, "toUpper('ab')") == "AB"
        assert ev(ctx, "toLower('AB')") == "ab"

    def test_trim_family(self, ctx):
        assert ev(ctx, "trim('  x  ')") == "x"
        assert ev(ctx, "lTrim('  x')") == "x"
        assert ev(ctx, "rTrim('x  ')") == "x"

    def test_replace_split(self, ctx):
        assert ev(ctx, "replace('a-b', '-', '+')") == "a+b"
        assert ev(ctx, "split('a,b,c', ',')") == ["a", "b", "c"]

    def test_substring_left_right(self, ctx):
        assert ev(ctx, "substring('hello', 1)") == "ello"
        assert ev(ctx, "substring('hello', 1, 3)") == "ell"
        assert ev(ctx, "left('hello', 2)") == "he"
        assert ev(ctx, "right('hello', 2)") == "lo"

    def test_substring_past_the_end_is_empty(self, ctx):
        assert ev(ctx, "substring('hello', 9)") == ""
        assert ev(ctx, "substring('hello', 0, 0)") == ""
        assert ev(ctx, "left('hello', 99)") == "hello"
        assert ev(ctx, "right('hello', 99)") == "hello"

    def test_negative_positions_raise(self, ctx):
        # Regression: these used to fall through to Python's negative
        # indexing (substring('hello', -1) returned 'o').
        for source in (
            "substring('hello', -1)",
            "substring('hello', 1, -1)",
            "left('hello', -2)",
            "right('hello', -2)",
        ):
            with pytest.raises(
                CypherEvaluationError, match="non-negative"
            ):
                ev(ctx, source)

    def test_list_slices_keep_negative_indexing(self, ctx):
        # Only the string functions reject negatives; list slicing's
        # documented from-the-end semantics are unchanged.
        assert ev(ctx, "[1, 2, 3][-2..]") == [2, 3]
        assert ev(ctx, "[1, 2, 3][..-1]") == [1, 2]


class TestDispatch:
    def test_unknown_function(self, ctx):
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "frobnicate(1)")

    def test_arity_errors(self, ctx):
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "abs(1, 2)")
        with pytest.raises(CypherEvaluationError):
            ev(ctx, "range(1)")

    def test_function_names_case_insensitive(self, ctx):
        assert ev(ctx, "TOUPPER('x')") == "X"
