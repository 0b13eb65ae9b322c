"""Direct unit tests for AggregateAccumulator and aggregate detection."""

import math

import pytest

from repro.errors import CypherEvaluationError, CypherTypeError
from repro.parser import parse_expression
from repro.runtime.aggregation import (
    AggregateAccumulator,
    contains_aggregate,
    is_aggregate_call,
)


def feed(name, values, distinct=False, percentile=None):
    accumulator = AggregateAccumulator(name, distinct=distinct)
    for value in values:
        # percentile aggregates are fed (value, percentile) pairs
        accumulator.add(
            (value, percentile) if name.startswith("percentile") else value
        )
    return accumulator.result()


class TestAccumulators:
    def test_count_star_counts_everything(self):
        accumulator = AggregateAccumulator("count(*)")
        for value in (1, None, "x"):
            accumulator.add(value)
        assert accumulator.result() == 3

    def test_count_skips_nulls(self):
        assert feed("count", [1, None, 2]) == 2

    def test_count_distinct(self):
        assert feed("count", [1, 1.0, 2, None], distinct=True) == 2

    def test_sum_and_avg(self):
        assert feed("sum", [1, 2, 3]) == 6
        assert feed("avg", [1, 2, 3]) == 2.0
        assert feed("sum", []) == 0
        assert feed("avg", []) is None

    def test_sum_rejects_non_numbers(self):
        with pytest.raises(CypherTypeError):
            feed("sum", ["a"])

    def test_min_max_mixed_orderable(self):
        assert feed("min", [3, 1, 2]) == 1
        assert feed("max", [3, 1, 2]) == 3
        assert feed("min", []) is None
        # strings order before numbers in the global sort order
        assert feed("min", [1, "a"]) == "a"

    def test_collect_preserves_order_and_skips_nulls(self):
        assert feed("collect", [1, None, 2]) == [1, 2]

    def test_collect_distinct(self):
        assert feed("collect", [1, 1, 2], distinct=True) == [1, 2]

    def test_stdev(self):
        assert feed("stdev", [1]) == 0.0
        assert feed("stdev", []) is None
        sample = feed("stdev", [2, 4, 4, 4, 5, 5, 7, 9])
        population = feed("stdevp", [2, 4, 4, 4, 5, 5, 7, 9])
        assert population == pytest.approx(2.0)
        assert sample > population

    def test_percentiles(self):
        values = [1, 2, 3, 4]
        assert feed("percentiledisc", values, percentile=0.5) == 2
        assert feed("percentilecont", values, percentile=0.5) == 2.5
        assert feed("percentiledisc", values, percentile=1.0) == 4
        assert feed("percentiledisc", values, percentile=0.0) == 1
        assert feed("percentilecont", [7], percentile=0.3) == 7.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(CypherEvaluationError):
            feed("percentiledisc", [1], percentile=1.5)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(CypherEvaluationError):
            AggregateAccumulator("median")


class TestDetection:
    def test_is_aggregate_call(self):
        assert is_aggregate_call(parse_expression("count(*)"))
        assert is_aggregate_call(parse_expression("sum(x)"))
        assert not is_aggregate_call(parse_expression("size(x)"))

    def test_contains_aggregate_nested(self):
        assert contains_aggregate(parse_expression("1 + count(x) * 2"))
        assert contains_aggregate(
            parse_expression("coalesce(max(x), 0)")
        )
        assert not contains_aggregate(parse_expression("a + b"))

    def test_contains_aggregate_in_case(self):
        assert contains_aggregate(
            parse_expression("CASE WHEN count(*) > 0 THEN 1 ELSE 0 END")
        )
