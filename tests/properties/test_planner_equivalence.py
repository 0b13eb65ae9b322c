"""Planner-on vs planner-off equivalence of pattern matching.

The match planner may change the anchor and the path order of every
MATCH, so these tests hold it to the only contracts that matter:

* **revised dialects**: the same *multiset* of matches as the naive
  matcher, on a fixed pattern corpus and on hypothesis-generated
  graphs;
* **legacy dialect** (``preserve_match_order``): the same matches in
  the same *order* -- the naive matcher's ascending-id enumeration is
  observable through the legacy anomalies, so the planner must re-sort
  (or fall back) to it exactly;
* **planner off**: the written plan through the shared enumerator is
  the nested naive enumeration over ``matcher._match_single_path`` --
  same matches, same order;
* **errors**: a property map that reads only the record, or a pattern
  variable bound to the wrong kind of value, raises with either plan,
  compiled or interpreted, even behind an element with no candidates,
  and the first failing check in written order decides (variables
  before maps).

The corpus deliberately includes the planner's interesting cases:
selective anchors in non-leading position, multi-path patterns worth
reordering, variable-length steps (anchor pinned, order still
sortable), named paths (bindings must stay written-oriented), and
property maps referencing same-pattern variables (plan must keep the
validated evaluation order).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialect import Dialect
from repro.errors import CypherError
from repro.graph.model import Node, Path, Relationship
from repro.graph.store import GraphStore
from repro.testing.invariants import check_invariants
from repro.parser import parse
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.match_planner import PreparedPattern
from repro.runtime.matcher import (
    _match_single_path,
    match_paths,
    record_values,
)
from repro.session import Graph
from repro.testing.interpreter import interpreted

#: Random small graphs: up to 6 nodes labeled A/B, up to 10 typed edges.
graphs = st.builds(
    lambda node_specs, edge_specs: (node_specs, edge_specs),
    st.lists(st.sampled_from(["A", "B"]), min_size=1, max_size=6),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.sampled_from(["T", "S"]),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=10,
    ),
)

PATTERNS = [
    # single paths, anchors in every position
    "(a)-[r1:T]->(b)",
    "(a)-[r1:T]->(b:B {i: 0})",
    "(a:A {i: 1})-[r1]->(b)",
    "(a)-[r1]->(b)<-[r2:T]-(c:B {i: 0})",
    "(a)-[r1]-(b)",
    "(a)-[r1:T]->(a)",
    # multi-path patterns worth reordering
    "(a), (b:B {i: 0})-[r1:T]->(c)",
    "(a:A), (b:B)",
    "(a)-[r1:T]->(b), (c:A {i: 1})",
    "(x)-[r1:T]->(y), (y)-[r2:S]->(z)",
    # variable-length (anchor pinned to 0, order still reconstructible)
    "(a)-[rs:T*0..2]->(b)",
    "(a)-[rs:T*1..2]->(b:B {i: 0})",
    "(a), (b)-[rs:T*1..2]->(c:B {i: 0})",
    # ... reordered ahead of a scan: var-length sort keys are exercised
    "(a), (b:B {i: 0})-[rs:T*1..2]->(c)",
    "(a), (b:B {i: 0})-[r1:T]->(c)-[rs:S*0..2]->(d)",
    # named path: bindings must stay written-oriented
    "p = (a)-[r1:T]->(b:B {i: 0})",
    # property map referencing a same-pattern variable
    "(a:A)-[r1:T]->(b), (c {i: a.i})",
    "(a)-[r1:T]->(b {i: a.i})",
]


def build_store(spec):
    node_specs, edge_specs = spec
    store = GraphStore()
    ids = [
        store.create_node((label,), {"i": index})
        for index, label in enumerate(node_specs)
    ]
    for source, rel_type, target in edge_specs:
        if source < len(ids) and target < len(ids):
            store.create_relationship(rel_type, ids[source], ids[target])
    # Indexes make the planner actually prefer non-leading anchors.
    store.create_index("A", "i")
    store.create_index("B", "i")
    return store


def paths_of(source):
    statement = parse(f"MATCH {source} RETURN 1 AS one", Dialect.REVISED)
    return statement.branches()[0].clauses[0].pattern.paths


def canon(value):
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, Path):
        return (
            "path",
            tuple(n.id for n in value.nodes),
            tuple(r.id for r in value.relationships),
        )
    if isinstance(value, list):
        return ("list", tuple(canon(item) for item in value))
    return ("value", value)


def canon_bindings(bindings):
    return tuple(sorted((name, canon(value)) for name, value in bindings.items()))


def enumerate_matches(
    store,
    paths,
    *,
    planned,
    preserve=False,
    mode=MatchMode.TRAIL,
):
    ctx = EvalContext(
        store=store,
        match_mode=mode,
        use_planner=planned,
        preserve_match_order=preserve,
    )
    return [canon_bindings(b) for b in match_paths(ctx, paths, {})]


def nested_naive_matches(store, paths):
    """The order-defining reference: written order, first-node anchors,
    one nested loop per path over the naive single-path matcher."""
    ctx = EvalContext(store=store)
    bindings, used, found = {}, set(), []
    prepared = PreparedPattern(ctx, tuple(paths))
    values = record_values(ctx, prepared, bindings)

    def run(index):
        if index == len(paths):
            found.append(canon_bindings(bindings))
            return
        path = paths[index]
        for nodes, rels in _match_single_path(
            ctx, prepared.paths[index], bindings, used, values
        ):
            named = path.variable is not None and path.variable not in bindings
            if named:
                bindings[path.variable] = Path(nodes, rels)
            run(index + 1)
            if named:
                del bindings[path.variable]

    run(0)
    return found


class TestCorpusEquivalence:
    """Fixed corpus over a deterministic graph, all three contracts."""

    def fixture_store(self):
        return build_store(
            (
                ["A", "B", "A", "B", "A", "B"],
                [
                    (0, "T", 1),
                    (1, "T", 2),
                    (2, "S", 3),
                    (3, "T", 0),
                    (4, "T", 4),
                    (0, "S", 5),
                    (5, "T", 1),
                    (2, "T", 1),
                ],
            )
        )

    def test_same_multiset_revised(self):
        store = self.fixture_store()
        for pattern in PATTERNS:
            paths = paths_of(pattern)
            naive = enumerate_matches(store, paths, planned=False)
            planned = enumerate_matches(store, paths, planned=True)
            assert Counter(planned) == Counter(naive), pattern

    def test_same_order_legacy(self):
        store = self.fixture_store()
        for pattern in PATTERNS:
            paths = paths_of(pattern)
            naive = enumerate_matches(store, paths, planned=False)
            planned = enumerate_matches(
                store, paths, planned=True, preserve=True
            )
            assert planned == naive, pattern

    def test_same_multiset_homomorphism(self):
        store = self.fixture_store()
        for pattern in PATTERNS:
            paths = paths_of(pattern)
            naive = enumerate_matches(
                store, paths, planned=False, mode=MatchMode.HOMOMORPHISM
            )
            planned = enumerate_matches(
                store, paths, planned=True, mode=MatchMode.HOMOMORPHISM
            )
            assert Counter(planned) == Counter(naive), pattern

    def test_planner_off_is_the_nested_naive_enumeration(self):
        store = self.fixture_store()
        for pattern in PATTERNS:
            paths = paths_of(pattern)
            naive = enumerate_matches(store, paths, planned=False)
            # Not just the same multiset: identical enumeration order.
            assert naive == nested_naive_matches(store, paths), pattern


class TestHypothesisEquivalence:
    @given(spec=graphs, pattern=st.sampled_from(PATTERNS))
    @settings(max_examples=120, deadline=None)
    def test_same_multiset_revised(self, spec, pattern):
        store = build_store(spec)
        paths = paths_of(pattern)
        naive = enumerate_matches(store, paths, planned=False)
        planned = enumerate_matches(store, paths, planned=True)
        assert Counter(planned) == Counter(naive)
        # Matching is read-only: the store must come out uncorrupted.
        check_invariants(store)

    @given(spec=graphs, pattern=st.sampled_from(PATTERNS))
    @settings(max_examples=120, deadline=None)
    def test_same_order_legacy(self, spec, pattern):
        store = build_store(spec)
        paths = paths_of(pattern)
        naive = enumerate_matches(store, paths, planned=False)
        planned = enumerate_matches(
            store, paths, planned=True, preserve=True
        )
        assert planned == naive
        check_invariants(store)


class TestEndToEndLegacy:
    """The legacy executor's anomalies stay bit-for-bit reproducible."""

    @staticmethod
    def _seeded(use_planner):
        g = Graph(Dialect.CYPHER9, use_planner=use_planner)
        g.run("UNWIND range(0, 9) AS i CREATE (:A {i: i})")
        g.run("CREATE (:K {id: 0})")
        g.run("MATCH (a:A), (k:K) CREATE (k)-[:T]->(a)")
        g.create_index("K", "id")
        return g

    @staticmethod
    def _graph_fingerprint(g):
        return [
            (node.id, tuple(sorted(node.labels)), tuple(sorted(node.properties.items())))
            for node in g.store.nodes()
        ]

    def test_row_order_preserved(self):
        on, off = self._seeded(True), self._seeded(False)
        # The selective anchor is in second position: the planner wants
        # to run the (k)->(a) path first, so order preservation is
        # actually exercised.
        query = "MATCH (m:A), (k:K {id: 0})-[:T]->(a:A) RETURN m.i AS m, a.i AS a"
        assert on.run(query).records == off.run(query).records
        check_invariants(on.store)
        check_invariants(off.store)

    def test_legacy_merge_creation_order_preserved(self):
        on, off = self._seeded(True), self._seeded(False)
        # Legacy MERGE reads its own writes record by record, so which
        # node each record sees -- and therefore every created node id
        # -- depends on the driving-record order.
        query = (
            "MATCH (m:A), (k:K {id: 0})-[:T]->(a:A) "
            "MERGE (x:M {v: a.i})"
        )
        on.run(query)
        off.run(query)
        assert self._graph_fingerprint(on) == self._graph_fingerprint(off)
        check_invariants(on.store)
        check_invariants(off.store)

    def test_legacy_set_last_write_preserved(self):
        on, off = self._seeded(True), self._seeded(False)
        # Legacy SET applies per record in order; the surviving value
        # is the last record's, so it is order-observable.
        query = (
            "MATCH (m:A), (k:K {id: 0})-[:T]->(a:A) "
            "SET k.last = m.i * 100 + a.i"
        )
        on.run(query)
        off.run(query)
        assert self._graph_fingerprint(on) == self._graph_fingerprint(off)
        check_invariants(on.store)
        check_invariants(off.store)


#: (id, statement, error class): record-only maps that fail, each
#: before and after an element with no candidates (a missing label, a
#: missing type), on either side of an index the planner anchors at.
ERRORING_MAPS = [
    ("mod-before", "MATCH ({k: 2 % 0}), (n:Missing) RETURN 1 AS v",
     "CypherEvaluationError"),
    ("mod-after", "MATCH (n:Missing), ({k: 2 % 0}) RETURN 1 AS v",
     "CypherEvaluationError"),
    ("mod-after-in-path",
     "MATCH (n:Missing)-[:T]->({k: 2 % 0}) RETURN 1 AS v",
     "CypherEvaluationError"),
    ("mod-after-missing-type",
     "MATCH (b:B {i: 0})-[:NONE]->(c {k: 2 % 0}) RETURN 1 AS v",
     "CypherEvaluationError"),
    ("record-before",
     "MATCH (a:A) MATCH (b:B {i: 1 / (a.k - a.k)}), (n:Missing) "
     "RETURN 1 AS v",
     "CypherEvaluationError"),
    ("record-after",
     "MATCH (a:A) MATCH (n:Missing), (b:B {i: 1 / (a.k - a.k)}) "
     "RETURN 1 AS v",
     "CypherEvaluationError"),
    ("record-after-index",
     "MATCH (a:A) MATCH (b:B {i: 0})-[:NONE]->({k: 1 / (a.k - a.k)}) "
     "RETURN 1 AS v",
     "CypherEvaluationError"),
    # Two failing maps: the first in written order decides.
    ("written-order",
     "MATCH (n:Missing {k: 2 % 0}), (m:B {i: 1 - 'x'}) RETURN 1 AS v",
     "CypherEvaluationError"),
    ("written-order-reversed",
     "MATCH (m:B {i: 1 - 'x'}), (n:Missing {k: 2 % 0}) RETURN 1 AS v",
     "CypherTypeError"),
    # A pattern variable bound to a non-entity: checked per record
    # before any candidate, at an anchor or a far end alike, and before
    # the record-only maps.
    ("bound-non-node-after-empty",
     "WITH 1 AS m MATCH (n {k: 5}), (m) RETURN n", "CypherTypeError"),
    ("bound-non-node-far-end",
     "WITH 1 AS m MATCH (a:A)-->(m) RETURN a", "CypherTypeError"),
    ("bound-non-relationship",
     "WITH 1 AS r MATCH (a:A {k: 5})-[r]->(b) RETURN a", "CypherTypeError"),
    ("bound-non-node-before-map",
     "WITH 1 AS m MATCH ({k: 2 % 0}), (m) RETURN 1 AS v", "CypherTypeError"),
    ("pattern-binds-other-kind",
     "MATCH (a)-[r]->(b), (x)-[r2]->(r) RETURN r", "CypherTypeError"),
]


@pytest.mark.parametrize(
    "statement, error",
    [(statement, error) for __, statement, error in ERRORING_MAPS],
    ids=[name for name, __, __ in ERRORING_MAPS],
)
def test_record_only_maps_raise_whatever_the_plan(statement, error):
    raised = []
    for use_planner in (True, False):
        graph = Graph(Dialect.REVISED, use_planner=use_planner)
        graph.run("CREATE (:A {k: 1}), (:A {k: 2}), (:B {i: 0})")
        graph.create_index("B", "i")
        prepared = graph.engine.prepare(statement)
        for twin in (prepared, interpreted(prepared)):
            with pytest.raises(CypherError) as caught:
                graph.run(twin)
            raised.append(type(caught.value).__name__)
    assert raised == [error] * 4
