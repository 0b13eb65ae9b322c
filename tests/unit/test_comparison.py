"""Unit tests for isomorphism-up-to-id-renaming and the comparison
operators' one bodies."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.comparison import (
    assert_isomorphic,
    describe,
    fingerprint,
    isomorphic,
    signature_counts,
)
from repro.graph.store import GraphStore
from repro.graph.values import (
    cypher_eq,
    cypher_gt,
    cypher_gte,
    cypher_lt,
    cypher_lte,
)

import pytest


def build(edges, node_attrs=None):
    """Tiny helper: build a graph from (src, type, dst) triples."""
    store = GraphStore()
    node_attrs = node_attrs or {}
    ids = {}

    def ensure(name):
        if name not in ids:
            labels, props = node_attrs.get(name, ((), {}))
            ids[name] = store.create_node(labels, dict(props))
        return ids[name]

    for source, rel_type, target in edges:
        store.create_relationship(rel_type, ensure(source), ensure(target))
    return store.snapshot()


class TestIsomorphic:
    def test_identical_up_to_renaming(self):
        left = build([("a", "T", "b"), ("b", "T", "c")])
        right = build([("x", "T", "y"), ("y", "T", "z")])
        assert isomorphic(left, right)
        assert fingerprint(left) == fingerprint(right)

    def test_different_shapes(self):
        chain = build([("a", "T", "b"), ("b", "T", "c")])
        fan = build([("a", "T", "b"), ("a", "T", "c")])
        assert not isomorphic(chain, fan)

    def test_direction_matters(self):
        left = build([("a", "T", "b")])
        right = build([("b", "T", "a")])
        # With no content on nodes these ARE isomorphic (swap a/b).
        assert isomorphic(left, right)

    def test_direction_with_content(self):
        attrs = {"a": (("A",), {}), "b": (("B",), {})}
        left = build([("a", "T", "b")], attrs)
        right = build([("b", "T", "a")], attrs)
        assert not isomorphic(left, right)

    def test_labels_and_properties_distinguish(self):
        one = build([], {"a": (("User",), {"id": 1})})
        # build() only creates nodes reachable from edges; use store directly
        store = GraphStore()
        store.create_node(("User",), {"id": 2})
        two = store.snapshot()
        store2 = GraphStore()
        store2.create_node(("User",), {"id": 1})
        one = store2.snapshot()
        assert not isomorphic(one, two)

    def test_parallel_edges_as_multisets(self):
        double = build([("a", "T", "b"), ("a", "T", "b")])
        single = build([("a", "T", "b")])
        assert not isomorphic(double, single)
        double2 = build([("x", "T", "y"), ("x", "T", "y")])
        assert isomorphic(double, double2)

    def test_parallel_edges_different_types(self):
        one = build([("a", "T", "b"), ("a", "S", "b")])
        two = build([("a", "T", "b"), ("a", "T", "b")])
        assert not isomorphic(one, two)

    def test_empty_graphs(self):
        assert isomorphic(GraphStore().snapshot(), GraphStore().snapshot())


class TestDiagnostics:
    def test_describe_mentions_counts(self):
        snapshot = build([("a", "T", "b")])
        text = describe(snapshot)
        assert "2 nodes" in text and "1 relationships" in text

    def test_assert_isomorphic_passes(self):
        left = build([("a", "T", "b")])
        right = build([("c", "T", "d")])
        assert_isomorphic(left, right)

    def test_assert_isomorphic_message(self):
        left = build([("a", "T", "b")])
        right = build([("a", "S", "b")])
        with pytest.raises(AssertionError) as excinfo:
            assert_isomorphic(left, right)
        assert "not isomorphic" in str(excinfo.value)

    def test_signature_counts_invariant(self):
        left = build([("a", "T", "b"), ("b", "T", "c")])
        right = build([("z", "T", "y"), ("y", "T", "x")])
        assert signature_counts(left) == signature_counts(right)


class TestValueSignature:
    """Total canonical signatures: record keying must never raise."""

    def test_scalars(self):
        from repro.graph.comparison import value_signature

        assert value_signature(None) == "null"
        assert value_signature(True) == "true"
        assert value_signature(False) == "false"
        assert value_signature("x") != value_signature(1)

    def test_numbers_normalise_across_int_and_float(self):
        from repro.graph.comparison import value_signature

        assert value_signature(1) == value_signature(1.0)
        assert value_signature(0.5) != value_signature(1)
        assert value_signature(float("nan")) == value_signature(float("nan"))
        assert value_signature(float("inf")) != value_signature(
            float("-inf")
        )

    def test_true_is_not_one(self):
        from repro.graph.comparison import value_signature

        assert value_signature(True) != value_signature(1)

    def test_containers_recurse_and_never_raise(self):
        from repro.graph.comparison import value_signature

        nested = [1, {"k": [None, "s"]}, [[2.0]]]
        assert value_signature(nested) == value_signature(
            [1.0, {"k": [None, "s"]}, [[2]]]
        )
        assert value_signature({"a": 1, "b": 2}) == value_signature(
            {"b": 2, "a": 1}
        )

    def test_entities_keyed_by_id(self):
        from repro.graph.comparison import value_signature

        store = GraphStore()
        x = store.create_node(("A",), {"p": 1})
        y = store.create_node(("A",), {"p": 1})
        assert value_signature(store.node(x)) != value_signature(
            store.node(y)
        )
        assert value_signature(store.node(x)) == value_signature(
            store.node(x)
        )

    def test_unrepresentable_fallback(self):
        from repro.graph.comparison import value_signature

        class Hostile:
            def __repr__(self):
                raise RuntimeError("no repr for you")

        assert "<unreprable>" in value_signature(Hostile())


class TestBacktrackingFallback:
    """The no-networkx isomorphism path must agree with VF2."""

    def test_fallback_accepts_renamings(self):
        from repro.graph.comparison import _isomorphic_backtracking

        left = build([("a", "T", "b"), ("b", "S", "c")])
        right = build([("z", "T", "y"), ("y", "S", "x")])
        assert _isomorphic_backtracking(left, right)

    def test_fallback_rejects_different_wiring(self):
        from repro.graph.comparison import _isomorphic_backtracking

        left = build([("a", "T", "b"), ("b", "T", "c")])
        right = build([("a", "T", "b"), ("a", "T", "c")])
        assert not _isomorphic_backtracking(left, right)

    def test_fallback_handles_parallel_edges_and_self_loops(self):
        from repro.graph.comparison import _isomorphic_backtracking

        left = build([("a", "T", "a"), ("a", "T", "b"), ("a", "T", "b")])
        right = build([("x", "T", "x"), ("x", "T", "y"), ("x", "T", "y")])
        assert _isomorphic_backtracking(left, right)
        skew = build([("x", "T", "x"), ("x", "T", "y"), ("y", "T", "x")])
        assert not _isomorphic_backtracking(left, skew)

    def test_fallback_agrees_with_vf2_on_random_graphs(self):
        import random

        from repro.graph.comparison import (
            _isomorphic_backtracking,
            isomorphic,
        )

        for trial in range(60):
            rng = random.Random(trial)
            n = rng.randint(1, 5)
            edges = [
                (
                    f"n{rng.randrange(n)}",
                    rng.choice(["T", "S"]),
                    f"n{rng.randrange(n)}",
                )
                for _ in range(rng.randint(0, 6))
            ]
            mutated = list(edges)
            if mutated and rng.random() < 0.5:
                source, __, target = mutated[0]
                mutated[0] = (source, "X", target)
            left = build(edges)
            for right in (build(list(reversed(edges))), build(mutated)):
                assert isomorphic(left, right) == _isomorphic_backtracking(
                    left, right
                )


# ---------------------------------------------------------------------------
# The comparison operators against a table written from the semantics
# ---------------------------------------------------------------------------
#
# Francis et al., *Formal Semantics of the Language Cypher*: a
# comparison involving null is null; values of different types are
# unequal, and ordering them is undefined (null); numbers compare
# numerically across Integer and Float, and NaN is neither equal to nor
# ordered with any number.  Booleans are their own type (false < true),
# strings order lexicographically, lists are equal element-wise under
# ternary logic and are not ordered by ``<`` (null).  The table below
# restates that by hand -- it calls nothing in ``repro.graph.values`` --
# so it judges the exact-type fast paths and the general branches alike.


def _kind(value):
    if value is None:
        return "null"
    if type(value) is bool:
        return "boolean"
    if type(value) in (int, float):
        return "number"
    if type(value) is str:
        return "string"
    return "list"


#: kinds ``<`` orders, when both operands have the same one
ORDERED_KINDS = {"number", "string", "boolean"}


def _is_nan(value):
    return type(value) is float and math.isnan(value)


def expected_eq(left, right):
    kinds = (_kind(left), _kind(right))
    if "null" in kinds:
        return None
    if kinds[0] != kinds[1]:
        return False
    if kinds[0] == "list":
        if len(left) != len(right):
            return False
        outcomes = [expected_eq(a, b) for a, b in zip(left, right)]
        if False in outcomes:
            return False
        return None if None in outcomes else True
    if _is_nan(left) or _is_nan(right):
        return False
    return left == right


def expected_lt(left, right):
    kinds = (_kind(left), _kind(right))
    if "null" in kinds or kinds[0] != kinds[1]:
        return None
    if kinds[0] not in ORDERED_KINDS:
        return None
    if _is_nan(left) or _is_nan(right):
        return False
    return left < right


def expected_lte(left, right):
    less = expected_lt(left, right)
    if less is True:
        return True
    equal = expected_eq(left, right)
    if less is None or equal is None:
        return None
    return equal


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan]),
    st.text(alphabet="ab", max_size=2),
)
VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))


class TestComparisonOperators:
    @settings(max_examples=600, deadline=None)
    @given(VALUES, VALUES)
    def test_operators_follow_the_table(self, left, right):
        assert cypher_eq(left, right) is expected_eq(left, right)
        assert cypher_lt(left, right) is expected_lt(left, right)
        assert cypher_lte(left, right) is expected_lte(left, right)
        assert cypher_gt(left, right) is expected_lt(right, left)
        assert cypher_gte(left, right) is expected_lte(right, left)

    @pytest.mark.parametrize(
        "left, right, eq, lt, lte",
        [
            (1, 1, True, False, True),
            (1, 1.0, True, False, True),
            (True, 1, False, None, None),
            (1, True, False, None, None),
            (False, True, False, True, True),
            ("a", "b", False, True, True),
            ("a", 1, False, None, None),
            (math.nan, math.nan, False, False, False),
            (math.nan, 1, False, False, False),
            (-math.inf, 2**63, False, True, True),
            (None, None, None, None, None),
            (1, None, None, None, None),
            ([1, None], [1, 2], None, None, None),
            ([1, 2], [1, 3], False, None, None),
            ([1], [1.0], True, None, None),
        ],
    )
    def test_named_corners(self, left, right, eq, lt, lte):
        assert (
            cypher_eq(left, right),
            cypher_lt(left, right),
            cypher_lte(left, right),
        ) == (eq, lt, lte)
        assert (eq, lt, lte) == (
            expected_eq(left, right),
            expected_lt(left, right),
            expected_lte(left, right),
        )
