"""Regression tests for the numeric-function overflow fixes:
``toInteger`` results outside int64, ``exp`` overflow leaking a raw
Python ``OverflowError``, and ``toString`` rendering non-finite floats
with Python's names instead of Cypher's.  Every case runs in both
execution modes -- compiled closures and the tree-walking interpreter
-- because the two paths share :mod:`repro.runtime.functions` and must
not drift.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import CypherEvaluationError
from repro.graph.store import GraphStore
from repro.parser import parse_expression
from repro.runtime import compiler
from repro.runtime.context import EvalContext
from repro.testing.interpreter import interpreting


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


class TestToIntegerOverflow:
    """``toInteger`` must stay inside the 64-bit Integer domain, the
    same guard ``abs(INT64_MIN)`` already has."""

    def test_huge_float_raises_overflow(self, ev):
        with pytest.raises(CypherEvaluationError) as excinfo:
            ev("toInteger(1e300)")
        assert "integer overflow" in str(excinfo.value)
        assert "toInteger()" in str(excinfo.value)

    def test_huge_negative_float_raises_overflow(self, ev):
        with pytest.raises(CypherEvaluationError):
            ev("toInteger(-1e300)")

    def test_just_past_int64_max_raises(self, ev):
        # 2^63 as a float (the first value past INT64_MAX)
        with pytest.raises(CypherEvaluationError):
            ev("toInteger(9223372036854775808.0)")

    def test_huge_integer_string_raises_overflow(self, ev):
        with pytest.raises(CypherEvaluationError):
            ev("toInteger('123456789012345678901234567890')")

    def test_huge_float_string_raises_overflow(self, ev):
        # the int(float(...)) string path the original fix missed
        with pytest.raises(CypherEvaluationError):
            ev("toInteger('1e300')")

    def test_overflowing_float_string_is_null_not_raw_error(self, ev):
        # float('1e999') is +inf; int(inf) leaked a raw OverflowError
        assert ev("toInteger('1e999')") is None
        assert ev("toInteger('-1e999')") is None

    def test_non_finite_float_is_null(self, ev):
        assert ev("toInteger(0.0 / 0.0)") is None
        assert ev("toInteger(1.0 / 0.0)") is None

    def test_boundaries_still_convert(self, ev):
        assert ev("toInteger('9223372036854775807')") == 2**63 - 1
        assert ev("toInteger('-9223372036854775808')") == -(2**63)
        # INT64_MIN is exactly representable as a double
        assert ev("toInteger(-9223372036854775808.0)") == -(2**63)

    def test_normal_conversions_unchanged(self, ev):
        assert ev("toInteger(3.9)") == 3
        assert ev("toInteger(-3.9)") == -3
        assert ev("toInteger('42')") == 42
        assert ev("toInteger('3.7')") == 3
        assert ev("toInteger('nope')") is None
        assert ev("toInteger(true)") == 1
        assert ev("toInteger(null)") is None


class TestExpOverflow:
    """``exp(746.0)`` leaked ``OverflowError: math range error``;
    IEEE-754 exp saturates to +Infinity."""

    def test_overflow_saturates_to_infinity(self, ev):
        assert ev("exp(746.0)") == math.inf

    def test_int_argument_overflow_saturates(self, ev):
        assert ev("exp(1000)") == math.inf

    def test_never_leaks_overflow_error(self, ev):
        try:
            ev("exp(100000.0)")
        except OverflowError as error:  # pragma: no cover - regression
            pytest.fail(f"raw OverflowError leaked: {error}")

    def test_non_finite_inputs(self, ev):
        assert ev("exp(1.0 / 0.0)") == math.inf
        assert ev("exp(-1.0 / 0.0)") == 0.0
        assert math.isnan(ev("exp(0.0 / 0.0)"))

    def test_normal_values_unchanged(self, ev):
        assert ev("exp(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(math.e)
        assert ev("exp(null)") is None


class TestCeilFloorNonFinite:
    """Audit finding from the exp fix: ``math.ceil``/``math.floor``
    raise raw ValueError/OverflowError on non-finite floats."""

    def test_ceil_non_finite_passthrough(self, ev):
        assert ev("ceil(1.0 / 0.0)") == math.inf
        assert ev("ceil(-1.0 / 0.0)") == -math.inf
        assert math.isnan(ev("ceil(0.0 / 0.0)"))

    def test_floor_non_finite_passthrough(self, ev):
        assert ev("floor(1.0 / 0.0)") == math.inf
        assert ev("floor(-1.0 / 0.0)") == -math.inf
        assert math.isnan(ev("floor(0.0 / 0.0)"))

    def test_normal_values_unchanged(self, ev):
        assert ev("ceil(1.1)") == 2.0
        assert ev("floor(1.9)") == 1.0
        assert ev("ceil(-1.1)") == -1.0
        assert ev("floor(-1.1)") == -2.0


class TestSqrtLogAudit:
    """``sqrt``/``log``/``log10`` guard their domains already; pin the
    non-finite behaviour so the audit stays true."""

    def test_sqrt_domain_and_non_finite(self, ev):
        assert math.isnan(ev("sqrt(-1.0)"))
        assert ev("sqrt(1.0 / 0.0)") == math.inf
        assert math.isnan(ev("sqrt(0.0 / 0.0)"))

    def test_log_domain_and_non_finite(self, ev):
        assert math.isnan(ev("log(0.0)"))
        assert math.isnan(ev("log(-1.0)"))
        assert ev("log(1.0 / 0.0)") == math.inf
        assert math.isnan(ev("log10(-1.0)"))
        assert ev("log10(1.0 / 0.0)") == math.inf


class TestToStringNonFinite:
    """Cypher spells non-finite floats ``Infinity`` / ``-Infinity`` /
    ``NaN``, not Python's ``inf`` / ``nan``."""

    def test_positive_infinity(self, ev):
        assert ev("toString(1.0 / 0.0)") == "Infinity"

    def test_negative_infinity(self, ev):
        assert ev("toString(-1.0 / 0.0)") == "-Infinity"

    def test_nan(self, ev):
        assert ev("toString(0.0 / 0.0)") == "NaN"

    def test_via_exp_overflow(self, ev):
        # composition with the exp fix: a saturated result renders
        # with the Cypher name
        assert ev("toString(exp(746.0))") == "Infinity"

    def test_finite_floats_unchanged(self, ev):
        assert ev("toString(1.5)") == "1.5"
        assert ev("toString(-0.0)") == "-0.0"
        assert ev("toString(1e300)") == "1e+300"

    def test_other_types_unchanged(self, ev):
        assert ev("toString(42)") == "42"
        assert ev("toString(true)") == "true"
        assert ev("toString('s')") == "s"
        assert ev("toString(null)") is None
