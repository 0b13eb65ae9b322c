"""Unit tests for isomorphism-up-to-id-renaming and the comparison
operators' one bodies."""

import itertools
import math
import random
import time
from collections import Counter

from hypothesis import assume, given, settings
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


def build_ordered(node_sigs, edges, creation_order):
    """A graph whose node *i* has ``node_sigs[i]`` and whose store ids
    follow *creation_order*; edges are ``(source, type, target)``."""
    store = GraphStore()
    ids = {}
    for index in creation_order:
        labels, props = node_sigs[index]
        ids[index] = store.create_node(labels, dict(props))
    for source, rel_type, target in edges:
        store.create_relationship(rel_type, ids[source], ids[target])
    return store.snapshot()


def brute_force_isomorphic(left, right):
    """Try every node bijection: the oracle for graphs of a few nodes."""
    left_nodes, right_nodes = sorted(left.nodes), sorted(right.nodes)
    if len(left_nodes) != len(right_nodes):
        return False
    right_rels = Counter(
        (right.rel_signature(r), right.source[r], right.target[r])
        for r in right.relationships
    )
    for images in itertools.permutations(right_nodes):
        image = dict(zip(left_nodes, images))
        if all(
            left.node_signature(n) == right.node_signature(image[n])
            for n in left_nodes
        ) and right_rels == Counter(
            (left.rel_signature(r), image[left.source[r]],
             image[left.target[r]])
            for r in left.relationships
        ):
            return True
    return False


#: few distinct signatures, so that many nodes share one
NODE_SIGS = st.sampled_from(
    [((), ()), ((), ()), (("A",), ()), ((), (("k", 1),))]
)


@st.composite
def small_graphs(draw):
    count = draw(st.integers(1, 6))
    node_sigs = draw(st.lists(NODE_SIGS, min_size=count, max_size=count))
    node = st.integers(0, count - 1)
    edges = draw(st.lists(
        st.tuples(node, st.sampled_from(["T", "S"]), node), max_size=9
    ))
    if draw(st.booleans()):
        # Both directions of every edge: regular undirected shapes are
        # where colour refinement sees least.
        edges += [(target, rel_type, source) for source, rel_type, target
                  in edges]
    return node_sigs, edges


def cycles(count, length):
    """Disjoint directed cycles of *length* over nodes ``0..count-1``."""
    return [
        (start + i, start + (i + 1) % length)
        for start in range(0, count, length)
        for i in range(length)
    ]


def circulant(count, *steps):
    """An edge from every node to its *step*-th next, for each step."""
    return [(i, (i + step) % count) for i in range(count) for step in steps]


def both(edges):
    """Every edge in both directions: an undirected graph."""
    return edges + [(target, source) for source, target in edges]


#: (id, left edges, right edges): non-isomorphic pairs of uniform graphs
UNIFORM_PAIRS = [
    ("C20-vs-5xC4", cycles(20, 20), cycles(20, 4)),
    ("5xC4-vs-C20", cycles(20, 4), cycles(20, 20)),
    ("C30(1,4)-vs-C30(1,7)", circulant(30, 1, 4), circulant(30, 1, 7)),
    ("2xK3-vs-C6", both(cycles(6, 3)), both(cycles(6, 6))),
    (
        "wagner-vs-cube",
        both(cycles(8, 8) + [(i, i + 4) for i in range(4)]),
        both([
            (i, i ^ bit) for i in range(8) for bit in (1, 2, 4) if i < i ^ bit
        ]),
    ),
]


def uniform(edges, seed):
    """*edges* over contentless nodes, with ids and edge order shuffled."""
    count = 1 + max(max(edge) for edge in edges)
    rng = random.Random(seed)
    edges = list(edges)
    rng.shuffle(edges)
    order = list(range(count))
    rng.shuffle(order)
    return build_ordered(
        [((), ())] * count, [(a, "T", b) for a, b in edges], order
    )


class TestSearch:
    """The one isomorphism body against oracles that share no code with
    it: a brute-force search over bijections, and cycle types."""

    def test_accepts_renamings(self):
        left = build([("a", "T", "b"), ("b", "S", "c")])
        right = build([("z", "T", "y"), ("y", "S", "x")])
        assert isomorphic(left, right)

    def test_rejects_different_wiring(self):
        left = build([("a", "T", "b"), ("b", "T", "c")])
        right = build([("a", "T", "b"), ("a", "T", "c")])
        assert not isomorphic(left, right)

    def test_handles_parallel_edges_and_self_loops(self):
        left = build([("a", "T", "a"), ("a", "T", "b"), ("a", "T", "b")])
        right = build([("x", "T", "x"), ("x", "T", "y"), ("x", "T", "y")])
        assert isomorphic(left, right)
        skew = build([("x", "T", "x"), ("x", "T", "y"), ("y", "T", "x")])
        assert not isomorphic(left, skew)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_renamed_graphs_are_isomorphic(self, graph, data):
        node_sigs, edges = graph
        order = data.draw(st.permutations(range(len(node_sigs))))
        left = build_ordered(node_sigs, edges, range(len(node_sigs)))
        right = build_ordered(
            node_sigs, data.draw(st.permutations(edges)), order
        )
        assert brute_force_isomorphic(left, right)
        assert isomorphic(left, right)
        assert fingerprint(left) == fingerprint(right)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_single_edits_agree_with_brute_force(self, graph, data):
        """Move one edge's target to another node of the same signature:
        ``signature_counts`` stays equal, so that filter cannot decide."""
        node_sigs, edges = graph
        assume(edges)
        index = data.draw(st.integers(0, len(edges) - 1))
        source, rel_type, target = edges[index]
        twins = [
            n for n, sig in enumerate(node_sigs)
            if sig == node_sigs[target] and n != target
        ]
        assume(twins)
        edited = list(edges)
        edited[index] = (source, rel_type, data.draw(st.sampled_from(twins)))
        order = data.draw(st.permutations(range(len(node_sigs))))
        left = build_ordered(node_sigs, edges, range(len(node_sigs)))
        right = build_ordered(node_sigs, edited, order)
        assert signature_counts(left) == signature_counts(right)
        assert isomorphic(left, right) == brute_force_isomorphic(left, right)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(*[st.permutations(range(n))] * 2)
        ),
        st.booleans(),
    )
    def test_permutation_graphs_agree_with_cycle_types(self, pair, both_ways):
        """Edges ``i -> perm[i]``: every node has one edge out and one
        in, so colour refinement sees nothing and the search decides.
        Two such graphs are isomorphic iff their permutations have the
        same cycle lengths -- also with every edge in both directions."""

        def graph(perm):
            edges = list(enumerate(perm))
            if both_ways:
                edges = both(edges)
            return build_ordered(
                [((), ())] * len(perm), [(a, "T", b) for a, b in edges],
                range(len(perm)),
            )

        def cycle_type(perm):
            seen, lengths = set(), []
            for start in perm:
                length = 0
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
                    length += 1
                if length:
                    lengths.append(length)
            return sorted(lengths)

        left, right = pair
        assert isomorphic(graph(left), graph(right)) == (
            cycle_type(left) == cycle_type(right)
        )

    @pytest.mark.parametrize(
        "left, right",
        [pair[1:] for pair in UNIFORM_PAIRS],
        ids=[pair[0] for pair in UNIFORM_PAIRS],
    )
    def test_uniform_graphs_are_decided_fast(self, left, right):
        """Every node alike and of one degree: colour refinement cannot
        split them, so the search alone decides, in bounded time."""
        started = time.perf_counter()
        assert not isomorphic(uniform(left, 0), uniform(right, 1))
        assert isomorphic(uniform(left, 0), uniform(left, 1))
        assert isomorphic(uniform(right, 0), uniform(right, 1))
        assert time.perf_counter() - started < 1.0


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
