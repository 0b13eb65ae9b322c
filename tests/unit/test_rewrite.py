"""Unit tests for the rewrite pass: pushdown shapes and hoisting.

Equivalence with the serial executor is enforced end-to-end by the
differential fuzzer (a ``rewrites=on`` variant compared exactly) and
the planner suites (rewrites ride along with ``use_planner``); these
tests pin the *shapes*: which WHERE conjuncts move into pattern maps or
onto pattern elements as pushed comparisons, which stay, and which
subtrees get hoisted.
"""

import re

import pytest

from repro.dialect import Dialect
from repro.errors import CypherError, UnknownVariableError
from repro.parser import ast
from repro.parser.parser import parse
from repro.parser.unparse import unparse
from repro.runtime.aggregation import children
from repro.runtime.rewrite import rewrite_statement
from repro.session import Graph


def rewritten_clauses(source, *, parameters=(), columns=()):
    statement = parse(source, Dialect.REVISED)
    result = rewrite_statement(
        statement,
        initial_columns=tuple(columns),
        parameters=frozenset(parameters),
    )
    return result.branches()[0].clauses


def first_match(clauses):
    return next(c for c in clauses if isinstance(c, ast.MatchClause))


def map_keys(element):
    return tuple(element.properties.keys()) if element.properties else ()


def hoisted_nodes(expression):
    found = []
    if isinstance(expression, ast.HoistedExpression):
        found.append(expression)
    for child in children(expression):
        found.extend(hoisted_nodes(child))
    return found


class TestPredicatePushdown:
    def test_literal_equality_moves_into_the_map(self):
        clauses = rewritten_clauses(
            "MATCH (p:P) WHERE p.id = 3 RETURN p"
        )
        match = first_match(clauses)
        assert match.where is None
        node = match.pattern.paths[0].elements[0]
        assert map_keys(node) == ("id",)

    def test_reversed_equality_also_moves(self):
        match = first_match(
            rewritten_clauses("MATCH (p:P) WHERE 3 = p.id RETURN p")
        )
        assert match.where is None
        assert map_keys(match.pattern.paths[0].elements[0]) == ("id",)

    def test_conjunction_of_pushable_equalities_moves_whole(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (a:A)-[r:T]->(b) "
                "WHERE a.x = 1 AND b.y = 2 AND r.z = 3 RETURN a"
            )
        )
        assert match.where is None
        path = match.pattern.paths[0]
        assert map_keys(path.elements[0]) == ("x",)
        assert map_keys(path.elements[1]) == ("z",)
        assert map_keys(path.elements[2]) == ("y",)

    def test_supplied_parameter_is_pushable(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (p:P) WHERE p.id = $v RETURN p", parameters=("v",)
            )
        )
        assert match.where is None

    def test_missing_parameter_is_not_pushable(self):
        match = first_match(
            rewritten_clauses("MATCH (p:P) WHERE p.id = $v RETURN p")
        )
        assert match.where is not None
        assert map_keys(match.pattern.paths[0].elements[0]) == ()

    def test_variable_bound_by_earlier_clause_is_pushable(self):
        clauses = rewritten_clauses(
            "WITH 3 AS x MATCH (p:P) WHERE p.id = x RETURN p"
        )
        assert first_match(clauses).where is None

    def test_same_clause_variable_is_not_pushable(self):
        # b is fresh in the same MATCH: b.y may be evaluated before b
        # binds, so the conjunct must stay a WHERE.
        match = first_match(
            rewritten_clauses(
                "MATCH (a:A), (b:B) WHERE a.x = b.y RETURN a"
            )
        )
        assert match.where is not None

    def test_partial_conjunction_stays_whole(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (p:P) WHERE p.id = 3 AND p.id % 2 = 0 RETURN p"
            )
        )
        assert match.where is not None
        assert map_keys(match.pattern.paths[0].elements[0]) == ()

    def test_var_length_relationship_is_not_a_target(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (a)-[rs:T*1..2]->(b) WHERE rs.k = 1 RETURN a"
            )
        )
        assert match.where is not None

    def test_existing_map_key_is_not_overwritten(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (p:P {id: 1}) WHERE p.id = 2 RETURN p"
            )
        )
        assert match.where is not None
        assert map_keys(match.pattern.paths[0].elements[0]) == ("id",)

    def test_already_bound_pattern_variable_is_not_a_target(self):
        clauses = rewritten_clauses(
            "MATCH (a:A) MATCH (a)-[r:T]->(b) WHERE a.x = 1 RETURN b"
        )
        second = [
            c for c in clauses if isinstance(c, ast.MatchClause)
        ][1]
        assert second.where is not None

    def test_pushdown_result_still_executes(self):
        graph = Graph(Dialect.REVISED, use_planner=True)
        for index in range(6):
            graph.run("CREATE (:P {id: $i, v: $i})", i=index)
        rows = graph.run(
            "MATCH (p:P) WHERE p.id = 4 RETURN p.v AS v"
        ).records
        assert rows == [{"v": 4}]


#: Range statements whose rewrite moves comparisons onto the pattern,
#: run over a graph with every comparable and incomparable value kind.
RANGE_CORPUS = [
    ("MATCH (p:P) WHERE p.id < 3 RETURN p.id AS id ORDER BY id", {}),
    ("MATCH (p:P) WHERE 3 <= p.id RETURN p.id AS id ORDER BY id", {}),
    (
        "MATCH (p:P) WHERE p.id >= $lo AND p.id < $hi "
        "RETURN p.id AS id ORDER BY id",
        {"lo": 2, "hi": 6.5},
    ),
    (
        "MATCH (p:P) WHERE p.id > $lo RETURN count(p) AS c",
        {"lo": None},
    ),
    (
        "MATCH (p:P)-[k:T]->(q) WHERE k.w >= $w AND p.v < 3 "
        "RETURN p.id AS a, q.id AS b ORDER BY a",
        {"w": 4},
    ),
    (
        "WITH 5 AS x MATCH (p:P) WHERE p.id <= x AND p.v = 1 "
        "RETURN p.id AS id ORDER BY id",
        {},
    ),
    (
        "MATCH (p:P) WHERE p.id < 3 WITH p "
        "OPTIONAL MATCH (p)-[k:T]->(q) WHERE k.w > 9 "
        "RETURN p.id AS a, q.id AS b ORDER BY a",
        {},
    ),
]


def comparisons(element):
    return [
        (c.key, c.operator, unparse(c.value)) for c in element.comparisons
    ]


class TestComparisonPushdown:
    @pytest.mark.parametrize("operator", ["<", "<=", ">", ">="])
    def test_range_conjunct_moves_onto_the_element(self, operator):
        match = first_match(
            rewritten_clauses(f"MATCH (p:P) WHERE p.id {operator} 3 RETURN p")
        )
        assert match.where is None
        node = match.pattern.paths[0].elements[0]
        assert comparisons(node) == [("id", operator, "3")]
        assert map_keys(node) == ()

    @pytest.mark.parametrize(
        "written, normalised",
        [("<", ">"), ("<=", ">="), (">", "<"), (">=", "<="), ("=", "=")],
    )
    def test_swapped_side_moves_normalised(self, written, normalised):
        match = first_match(
            rewritten_clauses(
                f"MATCH (p:P) WHERE $lo {written} p.id RETURN p",
                parameters=("lo",),
            )
        )
        assert match.where is None
        node = match.pattern.paths[0].elements[0]
        if normalised == "=":
            assert map_keys(node) == ("id",)
        else:
            assert comparisons(node) == [("id", normalised, "$lo")]

    def test_two_bounds_on_one_key_move_whole(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (a:Admin) WHERE a.id >= $lo AND a.id < $hi RETURN a",
                parameters=("lo", "hi"),
            )
        )
        assert match.where is None
        assert comparisons(match.pattern.paths[0].elements[0]) == [
            ("id", ">=", "$lo"),
            ("id", "<", "$hi"),
        ]

    def test_relationship_comparison_moves(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (a)-[k:KNOWS]->(f) WHERE k.w >= $w RETURN f",
                parameters=("w",),
            )
        )
        assert match.where is None
        assert comparisons(match.pattern.paths[0].elements[1]) == [
            ("w", ">=", "$w")
        ]

    def test_equality_and_range_on_one_key_both_move(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (p:P) WHERE p.id = 3 AND p.id < 9 RETURN p"
            )
        )
        node = match.pattern.paths[0].elements[0]
        assert map_keys(node) == ("id",)
        assert comparisons(node) == [("id", "<", "9")]

    @pytest.mark.parametrize(
        "where",
        [
            "p.id <> 3",
            "p.id IN [1, 2]",
            "p.name STARTS WITH 'n'",
            "p.id < $missing",
            "p.id < q.id",
            "p.id + 1 < 3",
            "p.id < 3 + 1",
            "p.id < 3 AND p.id <> 1",
        ],
    )
    def test_unpushable_comparisons_stay(self, where):
        match = first_match(
            rewritten_clauses(f"MATCH (p:P), (q:P) WHERE {where} RETURN p")
        )
        assert match.where is not None
        for element in match.pattern.paths[0].elements:
            assert element.comparisons == ()
            assert map_keys(element) == ()

    def test_range_on_an_indexed_key_stays_a_label_scan(self):
        graph = Graph(Dialect.REVISED, use_planner=True)
        graph.run("CREATE INDEX ON :P(id)")
        graph.run("UNWIND range(0, 30) AS i CREATE (:P {id: i})")
        source = "MATCH (p:P) WHERE p.id >= 3 AND p.id < 5 RETURN p.id AS id"
        explained = graph.explain(source)
        assert "anchor: p via label scan :P" in explained
        assert "column check p.id >= 3 AND p.id < 5" in explained
        assert "filter" not in explained
        profile = graph.profile(source)
        assert profile.clauses[0].anchor == "p via label scan :P"
        assert [row["id"] for row in profile.result.records] == [3, 4]

    def test_kernel_stops_at_the_first_failing_bound(self):
        graph = Graph(Dialect.REVISED, use_planner=True)
        graph.run("UNWIND range(0, 9) AS i CREATE (:P {id: i})")
        source = "MATCH (p:P) WHERE p.id >= 8 AND p.id < 9 RETURN p.id AS id"
        pushed = graph.profile(source)
        written = Graph(store=graph.store).profile(source)
        assert (
            pushed.result.records == written.result.records == [{"id": 8}]
        )
        # WHERE reads both keys of every candidate; the kernel stops at
        # the first bound that fails (eight candidates fail the first).
        assert written.clauses[0].hits.property_reads == 20
        assert pushed.clauses[0].hits.property_reads == 12

    @pytest.mark.parametrize("source, parameters", RANGE_CORPUS)
    def test_unparsed_rewrite_reparses_to_the_same_results(
        self, source, parameters
    ):
        graph = Graph(Dialect.REVISED, use_planner=True)
        graph.run(
            "UNWIND range(0, 11) AS i "
            "CREATE (:P {id: i, v: i % 4})-[:T {w: 10 - i}]->(:P {id: 100 + i})"
        )
        graph.run(
            "CREATE (:P {id: 2.5, v: 'two'}), (:P {id: 0.0 / 0.0}), "
            "(:P {id: 'x'}), (:P {id: true}), (:P {v: 1}), (:P {id: [1]})"
        )
        rewritten = graph.engine.prepare(source).executable(
            (), parameters, True
        )
        assert rewritten != graph.engine.prepare(source).statement
        text = unparse(rewritten)
        naive = Graph(store=graph.store)
        expected = naive.run(source, parameters).records
        assert graph.run(source, parameters).records == expected
        assert naive.run(text, parameters).records == expected


class TestHoisting:
    def test_record_invariant_call_is_hoisted(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (a) WHERE a.i < size([1, 2, 3]) RETURN a"
            )
        )
        hoisted = hoisted_nodes(match.where)
        assert len(hoisted) == 1
        assert isinstance(hoisted[0].expression, ast.FunctionCall)

    def test_hoisting_is_unparse_transparent(self):
        clauses = rewritten_clauses(
            "MATCH (a) RETURN a.i + abs(-2) AS v"
        )
        projected = clauses[-1].body.items[0]
        assert hoisted_nodes(projected.expression)
        assert unparse(projected.expression) == "a.i + abs(-2)"

    def test_record_dependent_subtrees_stay_put(self):
        match = first_match(
            rewritten_clauses("MATCH (a) WHERE a.i + 1 > 2 RETURN a")
        )
        assert hoisted_nodes(match.where) == []

    def test_comprehension_binder_counts_as_local(self):
        clauses = rewritten_clauses(
            "UNWIND [1] AS k RETURN [x IN [1, 2] | x * 10] AS l"
        )
        item = clauses[-1].body.items[0]
        assert isinstance(item.expression, ast.HoistedExpression)

    def test_comprehension_over_record_values_hoists_only_invariants(
        self,
    ):
        clauses = rewritten_clauses(
            "MATCH (a) RETURN [x IN [1, 2] | x * a.i] AS l"
        )
        item = clauses[-1].body.items[0]
        assert not isinstance(item.expression, ast.HoistedExpression)
        inner = hoisted_nodes(item.expression)
        assert len(inner) == 1
        assert isinstance(inner[0].expression, ast.ListLiteral)

    def test_aggregating_items_are_left_alone(self):
        clauses = rewritten_clauses(
            "MATCH (a) RETURN count(a) + size([1]) AS c"
        )
        assert hoisted_nodes(clauses[-1].body.items[0].expression) == []

    def test_pattern_predicates_are_never_hoisted(self):
        match = first_match(
            rewritten_clauses(
                "MATCH (a) WHERE exists((a)-[:T]->()) RETURN a"
            )
        )
        assert hoisted_nodes(match.where) == []

    def test_unwind_source_is_hoisted(self):
        clauses = rewritten_clauses(
            "UNWIND range(1, 3) AS k RETURN k"
        )
        unwind = clauses[0]
        assert isinstance(unwind.expression, ast.HoistedExpression)

    def test_hoisted_expression_evaluates_lazily_per_statement(self):
        graph = Graph(Dialect.REVISED, use_planner=True)
        graph.run("CREATE (:A {i: 1}), (:A {i: 2})")
        rows = graph.run(
            "MATCH (a:A) RETURN a.i + size([0, 0]) AS v ORDER BY v"
        ).records
        assert rows == [{"v": 3}, {"v": 4}]
        # Zero input records: the invariant subtree never evaluates,
        # so an always-raising hoisted expression must not raise.
        assert (
            graph.run(
                "MATCH (z:Missing) RETURN z.i / 0 + 1 AS v"
            ).records
            == []
        )


class TestWiring:
    def test_rewrites_follow_the_planner(self):
        """One switch: a planner-on engine executes the rewritten
        statement, a planner-off engine the written one -- both kept by
        the same prepared statement."""
        source = "MATCH (p:P) WHERE p.id = 3 RETURN p"
        on = Graph(Dialect.REVISED, use_planner=True)
        prepared = on.engine.prepare(source)
        written = prepared.executable((), {}, False)
        rewritten = prepared.executable((), {}, True)
        assert written is prepared.statement
        assert first_match(rewritten.branches()[0].clauses).where is None
        assert prepared.executable((), {}, True) is rewritten
        assert "{id: 3}" in on.profile(source).render()
        off = Graph(Dialect.REVISED, use_planner=False)
        assert "{id: 3}" not in off.profile(source).render()

    def test_unknown_scope_stops_rewriting_downstream(self):
        # FOREACH does not change scope but a clause the rewriter does
        # not model must freeze the rest of the statement verbatim;
        # CALL-like clauses do not exist here, so exercise the bail via
        # a mutating clause followed by a pushable MATCH (scope *is*
        # modelled, the downstream MATCH still rewrites).
        clauses = rewritten_clauses(
            "MATCH (a:A) SET a.x = 1 WITH a "
            "MATCH (b:B) WHERE b.id = 3 RETURN b"
        )
        second = [
            c for c in clauses if isinstance(c, ast.MatchClause)
        ][1]
        assert second.where is None

    def test_invalid_parallel_mode_is_rejected(self):
        with pytest.raises(ValueError):
            Graph(Dialect.REVISED, parallel="rocket")


#: The statements whose rewritten shapes the classes above pin, with
#: the parameters they are run with.
CORPUS = [
    ("MATCH (p:P) WHERE p.id = 3 RETURN p", {}),
    ("MATCH (p:P) WHERE 3 = p.id RETURN p", {}),
    (
        "MATCH (a:A)-[r:T]->(b) "
        "WHERE a.x = 1 AND b.y = 2 AND r.z = 3 RETURN a",
        {},
    ),
    ("MATCH (p:P) WHERE p.id = $v RETURN p", {"v": 3}),
    ("MATCH (p:P) WHERE p.id = $v RETURN p", {}),
    ("WITH 3 AS x MATCH (p:P) WHERE p.id = x RETURN p", {}),
    ("MATCH (a:A), (b:B) WHERE a.x = b.y RETURN a", {}),
    ("MATCH (p:P) WHERE p.id = 3 AND p.id % 2 = 0 RETURN p", {}),
    ("MATCH (a)-[rs:T*1..2]->(b) WHERE rs.k = 1 RETURN a", {}),
    ("MATCH (p:P {id: 1}) WHERE p.id = 2 RETURN p", {}),
    ("MATCH (a:A) MATCH (a)-[r:T]->(b) WHERE a.x = 1 RETURN b", {}),
    ("MATCH (p:P) WHERE p.id = 4 RETURN p.v AS v", {}),
    ("MATCH (a) WHERE a.i < size([1, 2, 3]) RETURN a", {}),
    ("MATCH (a) RETURN a.i + abs(-2) AS v", {}),
    ("MATCH (a) WHERE a.i + 1 > 2 RETURN a", {}),
    ("UNWIND [1] AS k RETURN [x IN [1, 2] | x * 10] AS l", {}),
    ("MATCH (a) RETURN [x IN [1, 2] | x * a.i] AS l", {}),
    ("MATCH (a) RETURN count(a) + size([1]) AS c", {}),
    ("MATCH (a) WHERE exists((a)-[:T]->()) RETURN a", {}),
    ("UNWIND range(1, 3) AS k RETURN k", {}),
    ("MATCH (a:A) RETURN a.i + size([0, 0]) AS v ORDER BY v", {}),
    ("MATCH (z:Missing) RETURN z.i / 0 + 1 AS v", {}),
    (
        "MATCH (a:A) SET a.x = 1 WITH a "
        "MATCH (b:B) WHERE b.id = 3 RETURN b",
        {},
    ),
]

#: The analytic benchmark's statement shapes: a range-filtered label
#: scan, then a MATCH that expands from the variable it bound.
SCAN_CORPUS = [
    (
        "MATCH (a:Admin) WHERE a.id < $hi WITH a "
        "MATCH (a)-[k:KNOWS]->(f:Person) WHERE k.w >= $w "
        "RETURN count(*) AS c, avg(k.w) AS m",
        {"hi": 30, "w": 10},
    ),
    (
        "MATCH (a:Admin) WHERE a.id >= $lo AND a.id < $hi WITH a "
        "MATCH (a)-[:KNOWS]->(:Person)-[k:KNOWS]->(h:Person) "
        "WHERE k.w >= $w "
        "RETURN count(DISTINCT h) AS c",
        {"lo": 4, "hi": 30, "w": 6},
    ),
    (
        "MATCH (a:Admin) WHERE a.id >= $lo AND a.id < $hi WITH a "
        "MATCH (a)-[k:KNOWS]->(f:Person) "
        "RETURN k.w % 10 AS bucket, count(*) AS c, avg(f.id) AS m "
        "ORDER BY bucket",
        {"lo": 4, "hi": 30},
    ),
    (
        "MATCH (p:Admin) WHERE p.id % $m = $r "
        "RETURN count(p) AS c, min(p.id) AS lo, max(p.id) AS hi",
        {"m": 3, "r": 1},
    ),
]


def _explained_anchors(text):
    """Per Match block of an EXPLAIN text, its anchors in plan order."""
    blocks = re.split(r"\n  (?=Match|OptionalMatch)", text)[1:]
    return [
        ", ".join(re.findall(r"\[anchor: (.*?), est\.", block))
        for block in blocks
    ]


class TestExplainDescribesWhatRuns:
    """EXPLAIN, PLAN and PROFILE prepare a statement the way ``run``
    does: one scope check, one rewrite pass, one prepared statement."""

    @pytest.fixture
    def graph(self):
        graph = Graph(Dialect.REVISED, use_planner=True)
        graph.run("CREATE INDEX ON :P(id)")
        graph.run("CREATE INDEX ON :A(x)")
        graph.run(
            "UNWIND range(0, 30) AS i "
            "CREATE (:P {id: i, name: 'n' + toString(i), v: i})"
        )
        graph.run(
            "UNWIND range(0, 20) AS i "
            "CREATE (:A {x: i % 3, i: i})-[:T {z: 3}]->(:B {y: 2, id: 3})"
        )
        graph.run(
            "UNWIND range(0, 39) AS i "
            "CREATE (:Person:Admin {id: i})-[:KNOWS {w: i % 20}]->"
            "(:Person {id: 100 + i})-[:KNOWS {w: i % 10}]->"
            "(:Person {id: 200 + i})"
        )
        return graph

    def test_the_reproduction_of_the_issue(self):
        graph = Graph(Dialect.REVISED, use_planner=True)
        graph.run("CREATE INDEX ON :A(x)")
        graph.run("UNWIND range(1, 100) AS i CREATE (:A {x: i})")
        source = "MATCH (n:A) WHERE n.x = 1 RETURN n.x AS x"
        explained = graph.explain(source)
        assert "anchor: n via index :A(x)" in explained
        assert "filter" not in explained
        assert graph.profile(source).clauses[0].anchor == "n via index :A(x)"

    @pytest.mark.parametrize("source, parameters", CORPUS + SCAN_CORPUS)
    def test_explain_names_the_anchor_profile_records(
        self, graph, source, parameters
    ):
        explained = _explained_anchors(graph.explain(source, parameters))
        if "exists((" in source:
            # A pattern predicate plans its own pattern per record and
            # PROFILE keeps a clause's *last* annotation: the predicate's.
            return
        try:
            profile = graph.profile(source, parameters)
        except CypherError:
            return  # fails on this data; nothing ran to compare with
        recorded = [
            clause.anchor
            for clause in profile.clauses
            if clause.label.startswith(("Match", "OptionalMatch"))
        ]
        # Every MATCH: EXPLAIN plans each from the scope the clauses
        # before it leave, so a variable they bound is bound there too.
        assert len(explained) == len(recorded)
        for described, anchor in zip(explained, recorded):
            if anchor is not None:  # None: the clause matched no record
                assert described == anchor

    def test_explain_raises_what_run_raises(self, graph):
        for source in (
            "MATCH (n:A) RETURN m.x",
            "MATCH (n:A) WHERE q.x = 1 RETURN n",
            "UNWIND [1] AS n UNWIND [2] AS n RETURN n",
        ):
            with pytest.raises(CypherError) as ran:
                graph.run(source)
            for describe in (graph.explain, graph.plan, graph.profile):
                with pytest.raises(type(ran.value)) as described:
                    describe(source)
                assert str(described.value) == str(ran.value)
        with pytest.raises(UnknownVariableError):
            graph.explain("MATCH (n:A) RETURN m.x")
