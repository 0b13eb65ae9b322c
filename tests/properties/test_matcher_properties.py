"""Property-based tests of the pattern matcher.

Invariants checked on random small graphs:

* mirroring a path pattern (the planner's rewrite) preserves the match
  set exactly;
* trail matches never bind two relationship patterns to the same
  relationship;
* the homomorphism match set contains the trail match set;
* matching is insensitive to node creation order (determinism of the
  result *bag* given a graph).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialect import Dialect
from repro.graph.store import GraphStore
from repro.parser import ast, parse
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.match_planner import mirror_elements
from repro.runtime.matcher import match_paths

#: A random small graph: up to 5 nodes with one of two labels, up to 8
#: edges with one of two types.
graphs = st.builds(
    lambda node_specs, edge_specs: (node_specs, edge_specs),
    st.lists(st.sampled_from(["A", "B"]), min_size=1, max_size=5),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from(["T", "S"]),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=8,
    ),
)

PATTERNS = [
    "(a)-[r1:T]->(b)",
    "(a:A)-[r1]->(b)<-[r2:T]-(c)",
    "(a)-[r1:T]->(b)-[r2:S]->(c)",
    "(a)-[r1]->(a)",
    "(a:A)-[r1:T]-(b:B)",
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
    return store


def path_of(source):
    statement = parse(f"MATCH {source} RETURN 1 AS one", Dialect.REVISED)
    return statement.branches()[0].clauses[0].pattern.paths[0]


def match_set(store, path, mode=MatchMode.TRAIL):
    ctx = EvalContext(store=store, match_mode=mode)
    result = set()
    for bindings in match_paths(ctx, (path,), {}):
        result.add(
            tuple(
                sorted(
                    (name, value.id, type(value).__name__)
                    for name, value in bindings.items()
                )
            )
        )
    return result


class TestMirrorInvariance:
    @given(spec=graphs, pattern=st.sampled_from(PATTERNS))
    @settings(max_examples=120)
    def test_reversed_pattern_same_matches(self, spec, pattern):
        store = build_store(spec)
        path = path_of(pattern)
        mirrored = ast.PathPattern(
            variable=path.variable, elements=mirror_elements(path.elements)
        )
        assert match_set(store, path) == match_set(store, mirrored)


class TestTrailInvariants:
    @given(spec=graphs, pattern=st.sampled_from(PATTERNS[:3]))
    @settings(max_examples=120)
    def test_relationship_patterns_bind_distinct_relationships(
        self, spec, pattern
    ):
        store = build_store(spec)
        path = path_of(pattern)
        ctx = EvalContext(store=store)
        for bindings in match_paths(ctx, (path,), {}):
            rel_ids = [
                value.id
                for name, value in bindings.items()
                if name.startswith("r")
            ]
            assert len(rel_ids) == len(set(rel_ids))

    @given(spec=graphs, pattern=st.sampled_from(PATTERNS))
    @settings(max_examples=120)
    def test_homomorphism_contains_trail(self, spec, pattern):
        store = build_store(spec)
        path = path_of(pattern)
        trail = match_set(store, path, MatchMode.TRAIL)
        hom = match_set(store, path, MatchMode.HOMOMORPHISM)
        assert trail <= hom


class TestDeterminism:
    @given(spec=graphs, pattern=st.sampled_from(PATTERNS))
    @settings(max_examples=60)
    def test_two_runs_identical(self, spec, pattern):
        store = build_store(spec)
        path = path_of(pattern)
        ctx = EvalContext(store=store)
        first = [
            sorted((k, v.id) for k, v in m.items())
            for m in match_paths(ctx, (path,), {})
        ]
        second = [
            sorted((k, v.id) for k, v in m.items())
            for m in match_paths(ctx, (path,), {})
        ]
        assert first == second
