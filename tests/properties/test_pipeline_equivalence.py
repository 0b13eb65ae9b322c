"""The serial clause pipeline against the reference interpreter.

Statements run on one executor: the clause pipeline, left to right
over one driving table, with every expression compiled to a closure.
These tests hold whole statements on it to the reference interpreter
(``repro.testing.interpreter``, which the runtime never imports) and to
its own row order:

* a query corpus covering the read clause shapes (MATCH, OPTIONAL
  MATCH, UNWIND, WITH, variable-length and named paths), the
  projections that see the whole table (aggregation, DISTINCT,
  ORDER BY, SKIP, LIMIT) and updates behind a read prefix, on
  hypothesis-generated graphs, both dialects, planner on and off:
  same records in the same order, same errors, same graph;
* byte-identical ``to_json()`` output across reruns;
* error order: a statement raises the error of the first failing
  record in table order, and a failed update leaves the graph as it
  was.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialect import Dialect
from repro.errors import CypherError
from repro.session import Graph
from repro.testing.interpreter import interpreted
from repro.testing.invariants import canonical_graph_json

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

#: (id, query): the read clause shapes, then the projections that see
#: the whole table, then updates behind a read prefix.
QUERIES = [
    ("match", "MATCH (a) RETURN a.i AS i"),
    ("match-typed", "MATCH (a:A)-[r:T]->(b) RETURN a.i AS x, b.i AS y"),
    (
        "match-where",
        "MATCH (a)-[r]->(b) WHERE a.i < b.i RETURN a.i AS x, b.i AS y",
    ),
    (
        "optional-match",
        "MATCH (a) OPTIONAL MATCH (a)-[r:T]->(b) RETURN a.i AS x, b.i AS y",
    ),
    (
        "optional-match-where",
        "MATCH (a) OPTIONAL MATCH (a)-[r]->(b) WHERE b.i > 1 "
        "RETURN a.i AS x, b.i AS y",
    ),
    ("unwind", "MATCH (a) UNWIND [1, 2, 3] AS k RETURN a.i + k AS v"),
    (
        "unwind-then-match",
        "UNWIND range(0, 9) AS k MATCH (a) WHERE a.i >= k RETURN k, a.i AS i",
    ),
    ("with-where", "MATCH (a) WITH a.i AS i WHERE i > 0 RETURN i"),
    (
        "with-then-match",
        "MATCH (a) WITH a, a.i * 2 AS d MATCH (a)-[r]->(b) "
        "RETURN d, b.i AS y",
    ),
    (
        "var-length",
        "MATCH (a)-[rs:T*0..2]->(b) RETURN a.i AS x, b.i AS y, size(rs) AS n",
    ),
    (
        "named-path",
        "MATCH p = (a)-[r:T]->(b) RETURN length(p) AS n, a.i AS x",
    ),
    ("count", "MATCH (a)-[r]->(b) RETURN count(*) AS c"),
    ("grouped-count", "MATCH (a) RETURN a.i AS i, count(*) AS c"),
    ("distinct", "MATCH (a)-[r]->(b) RETURN DISTINCT a.i AS i"),
    (
        "order-skip-limit",
        "MATCH (a) RETURN a.i AS i ORDER BY i DESC SKIP 1 LIMIT 3",
    ),
    (
        "with-order-limit-collect",
        "MATCH (a) WITH a.i AS i ORDER BY i LIMIT 4 RETURN collect(i) AS c",
    ),
    ("create", "MATCH (a:A) CREATE (a)-[:MADE]->(:C {j: a.i})"),
    ("set", "MATCH (a) SET a.seen = true"),
]


def build(spec, dialect, use_planner) -> Graph:
    node_specs, edge_specs = spec
    graph = Graph(dialect, use_planner=use_planner)
    nodes = [
        graph.store.create_node((label,), {"i": index})
        for index, label in enumerate(node_specs)
    ]
    for source, rel_type, target in edge_specs:
        if source < len(nodes) and target < len(nodes):
            graph.store.create_relationship(
                rel_type, nodes[source], nodes[target]
            )
    return graph


def run_one(spec, query, *, dialect, use_planner, interpret):
    """Execute *query* on a fresh build of *spec*; normalise the outcome."""
    graph = build(spec, dialect, use_planner)
    prepared = graph.engine.prepare(query)
    if interpret:
        prepared = interpreted(prepared)
    try:
        result = graph.run(prepared)
    except CypherError as error:
        outcome = ("error", type(error).__name__, str(error))
    else:
        outcome = ("ok", result.to_json())
    return outcome, canonical_graph_json(graph.store)


@pytest.mark.parametrize(
    "query",
    [query for __, query in QUERIES],
    ids=[name for name, __ in QUERIES],
)
@settings(max_examples=15, deadline=None)
@given(
    spec=graphs,
    dialect=st.sampled_from([Dialect.CYPHER9, Dialect.REVISED]),
    use_planner=st.booleans(),
)
def test_pipeline_matches_interpreter(query, spec, dialect, use_planner):
    compiled = run_one(
        spec, query, dialect=dialect, use_planner=use_planner, interpret=False
    )
    reference = run_one(
        spec, query, dialect=dialect, use_planner=use_planner, interpret=True
    )
    assert compiled == reference, f"diverged on {query!r}"


def test_reruns_are_byte_identical():
    graph = Graph(Dialect.REVISED)
    for index in range(40):
        graph.run(
            "CREATE (:U {id: $i, name: $n})",
            i=index,
            n=f"user{index:02d}",
        )
    query = (
        "MATCH (u:U) WHERE u.id % 3 <> 1 "
        "RETURN u.name AS name, u.id * 7 AS k ORDER BY k DESC"
    )
    first = graph.run(query).to_json()
    for _ in range(3):
        assert graph.run(query).to_json() == first


@pytest.mark.parametrize(
    "values, expected",
    [
        ("[9, 3, 'x', 1, 0]", ("CypherTypeError", "Integer and String")),
        ("[9, 3, 0, 1, 'x']", ("CypherEvaluationError", "division by zero")),
    ],
    ids=["type-error-first", "division-by-zero-first"],
)
def test_first_failing_record_decides_the_error(values, expected):
    graph = Graph(Dialect.REVISED)
    query = f"UNWIND {values} AS d RETURN 10 / d AS q"
    for prepared in (
        graph.engine.prepare(query),
        interpreted(graph.engine.prepare(query)),
    ):
        with pytest.raises(CypherError) as raised:
            graph.run(prepared)
        name, fragment = expected
        assert type(raised.value).__name__ == name
        assert fragment in str(raised.value)


def test_failed_update_leaves_the_graph_unchanged():
    graph = Graph(Dialect.REVISED)
    graph.run("CREATE (:X {q: 0})")
    before = canonical_graph_json(graph.store)
    with pytest.raises(CypherError, match="division by zero"):
        graph.run("UNWIND [1, 2, 0, 5] AS d CREATE (:X {q: 10 / d})")
    assert canonical_graph_json(graph.store) == before
