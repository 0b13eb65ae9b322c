"""Regression tests for the scalar-function fixes that shipped with
the server: ``split(s, '')``, exact round-half-up, and the ``range()``
materialisation cap.  Every case runs in both execution modes --
compiled closures and the tree-walking interpreter -- because the two
paths share :mod:`repro.runtime.functions` and must not drift.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import CypherEvaluationError, ResourceLimitError
from repro.graph.store import GraphStore
from repro.parser import parse_expression
from repro.runtime import compiler
from repro.runtime.context import EvalContext
from repro.testing.interpreter import interpreting
from repro.runtime.limits import (
    DEFAULT_MAX_LIST_LENGTH,
    list_length_limit,
    max_list_length,
)


#: the two closure-makers a statement can be prepared with
EVALUATORS = {
    "compiled": compiler.compile_expression,
    "interpreted": interpreting,
}


@pytest.fixture(params=list(EVALUATORS))
def ctx(request):
    return EvalContext(
        store=GraphStore(), compile=EVALUATORS[request.param]
    )


@pytest.fixture
def ev(ctx):
    """Evaluate one expression with the context's evaluator -- the seam
    clauses use (``ctx.compile``)."""

    def run(source, record=None):
        return ctx.compile(parse_expression(source))(ctx, record or {})

    return run


class TestSplitEmptySeparator:
    def test_empty_separator_splits_into_characters(self, ev):
        assert ev("split('abc', '')") == ["a", "b", "c"]

    def test_empty_string_empty_separator(self, ev):
        assert ev("split('', '')") == []

    def test_empty_string_nonempty_separator(self, ev):
        assert ev("split('', ',')") == [""]

    def test_unicode_characters(self, ev):
        assert ev("split('héllo', '')") == ["h", "é", "l", "l", "o"]

    def test_normal_split_unchanged(self, ev):
        assert ev("split('a,b,c', ',')") == ["a", "b", "c"]

    def test_null_propagates(self, ev):
        assert ev("split(null, '')") is None
        assert ev("split('abc', null)") is None

    def test_never_leaks_value_error(self, ev):
        # the original bug: str.split('') raised a raw ValueError
        try:
            ev("split('xyz', '')")
        except ValueError as error:  # pragma: no cover - the regression
            pytest.fail(f"raw ValueError leaked: {error}")


class TestRoundHalfUp:
    def test_basic_half_up(self, ev):
        assert ev("round(2.5)") == 3.0
        assert ev("round(0.5)") == 1.0
        assert ev("round(1.4)") == 1.0
        assert ev("round(1.6)") == 2.0

    def test_negative_half_rounds_toward_positive(self, ev):
        # round-half-up on negatives: -0.5 -> 0.0, -1.5 -> -1.0
        assert ev("round(-0.5)") == 0.0
        assert ev("round(-1.5)") == -1.0
        assert ev("round(-2.5)") == -2.0
        assert ev("round(-1.6)") == -2.0

    def test_prior_double_rounding_bug(self, ev):
        # 0.49999999999999994 + 0.5 rounds *up* to 1.0 in IEEE 754,
        # so floor(x + 0.5) wrongly produced 1.0; the true value is
        # below one half and must round down.
        assert ev("round(0.49999999999999994)") == 0.0

    def test_huge_magnitudes_keep_integrality(self, ev):
        # at 1e16 adding 0.5 can perturb the value; integral floats
        # must round to themselves exactly
        assert ev("round(10000000000000000.0)") == 1e16
        assert ev("round(-10000000000000000.0)") == -1e16

    def test_integer_input_passes_through(self, ev):
        assert ev("round(7)") == 7.0
        assert ev("round(-3)") == -3.0

    def test_non_finite_passthrough(self, ev):
        assert math.isnan(ev("round(0.0 / 0.0)"))
        assert ev("round(1.0 / 0.0)") == math.inf
        assert ev("round(-1.0 / 0.0)") == -math.inf

    def test_null_propagates(self, ev):
        assert ev("round(null)") is None


class TestRangeCap:
    def test_unbounded_range_is_rejected(self, ev):
        with pytest.raises(ResourceLimitError) as excinfo:
            ev("range(0, 4611686018427387904)")
        assert "range()" in str(excinfo.value)
        assert str(DEFAULT_MAX_LIST_LENGTH) in str(excinfo.value)

    def test_limit_error_is_an_evaluation_error(self, ev):
        # servers map ResourceLimitError specially, but embedded
        # callers catching CypherEvaluationError keep working
        with pytest.raises(CypherEvaluationError):
            ev("range(0, 4611686018427387904)")

    def test_negative_step_huge_range_rejected(self, ev):
        with pytest.raises(ResourceLimitError):
            ev("range(4611686018427387904, 0, -1)")

    def test_normal_ranges_unchanged(self, ev):
        assert ev("range(1, 5)") == [1, 2, 3, 4, 5]
        assert ev("range(5, 1, -2)") == [5, 3, 1]
        assert ev("range(3, 1)") == []

    def test_scoped_limit_tightens_and_restores(self, ev):
        assert max_list_length() == DEFAULT_MAX_LIST_LENGTH
        with list_length_limit(10):
            assert max_list_length() == 10
            with pytest.raises(ResourceLimitError):
                ev("range(1, 11)")
            assert ev("range(1, 10)") == list(range(1, 11))
            with list_length_limit(3):
                assert max_list_length() == 3
                with pytest.raises(ResourceLimitError):
                    ev("range(1, 4)")
            assert max_list_length() == 10
        assert max_list_length() == DEFAULT_MAX_LIST_LENGTH

    def test_empty_range_never_trips_cap(self, ev):
        with list_length_limit(1):
            assert ev("range(10, 1)") == []


class TestPowerOverflow:
    """``^`` follows IEEE-754 pow: saturate to infinity, NaN for
    negative base with fractional exponent -- CPython's ``float **
    float`` instead raises OverflowError / returns complex."""

    def test_huge_exponent_saturates_to_inf(self, ev):
        assert ev("2 ^ 9223372036854775807") == math.inf

    def test_huge_base_saturates_to_inf(self, ev):
        assert ev("1e308 ^ 2") == math.inf

    def test_negative_base_odd_exponent_saturates_negative(self, ev):
        assert ev("(-2.0) ^ 9999999999999.0") == -math.inf

    def test_negative_base_even_exponent_saturates_positive(self, ev):
        assert ev("(-2.0) ^ 10000000000000.0") == math.inf

    def test_negative_base_fractional_exponent_is_nan(self, ev):
        assert math.isnan(ev("(-2.0) ^ 0.5"))

    def test_tiny_result_underflows_to_zero(self, ev):
        assert ev("2 ^ (-9223372036854775807)") == 0.0

    def test_normal_powers_unchanged(self, ev):
        assert ev("2 ^ 10") == 1024.0
        assert ev("(-2.0) ^ 3") == -8.0
        assert ev("9 ^ 0.5") == 3.0

    def test_null_propagates(self, ev):
        assert ev("null ^ 2") is None
        assert ev("2 ^ null") is None
