"""Property-based tests of the MERGE semantics.

The heavy artillery of the reproduction: random driving tables are fed
through (a) the engine's cache-based implementation and (b) the literal
Section 8 create-then-quotient reference, and the resulting graphs must
agree up to id renaming -- for every one of the five variants, under
arbitrary record shuffles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dialect, DrivingTable, Graph, MergeSemantics
from repro.core.merge import merge
from repro.formal import semantics as F
from repro.graph.comparison import isomorphic
from repro.parser import parse
from repro.runtime.context import EvalContext

PATTERNS = {
    "order": "MERGE ALL (:User {id: cid})-[:ORDERED]->(:Product {id: pid})",
    "triple": (
        "MERGE ALL (:User {id: cid})-[:ORDERED]->(:Product {id: pid})"
        "<-[:OFFERS]-(:User {id: vid})"
    ),
    "twin": "MERGE ALL (:N {id: cid})-[:T]->(:N {id: pid})",
    "named": (
        "MERGE ALL (u:User {id: cid})-[r:ORDERED]->(p:Product {id: pid})"
    ),
}


def pattern_of(name):
    statement = parse(PATTERNS[name], Dialect.REVISED)
    return statement.branches()[0].clauses[0].pattern


#: Small value pools make collisions (and therefore collapses) likely.
small_id = st.one_of(st.none(), st.integers(min_value=0, max_value=3))

rows = st.lists(
    st.fixed_dictionaries(
        {"cid": small_id, "pid": small_id, "vid": small_id}
    ),
    min_size=0,
    max_size=8,
)

semantics_strategy = st.sampled_from(list(MergeSemantics))
pattern_names = st.sampled_from(sorted(PATTERNS))


def run_engine(pattern_name, table_rows, semantics):
    graph = Graph(Dialect.REVISED)
    table = DrivingTable(("cid", "pid", "vid"), table_rows)
    ctx = EvalContext(store=graph.store)
    merge(ctx, pattern_of(pattern_name), table, semantics)
    return graph.snapshot()


def run_formal(pattern_name, table_rows, semantics):
    outcome = F.merge_variant(
        F.empty_graph(),
        pattern_of(pattern_name),
        tuple(dict(r) for r in table_rows),
        semantics.value,
    )
    return outcome.graph


class TestEngineMatchesFormalReference:
    @given(table_rows=rows, semantics=semantics_strategy, name=pattern_names)
    @settings(max_examples=120)
    def test_same_graph_up_to_id_renaming(self, table_rows, semantics, name):
        engine_graph = run_engine(name, table_rows, semantics)
        formal_graph = run_formal(name, table_rows, semantics)
        assert isomorphic(engine_graph, formal_graph)


class TestOrderInsensitivity:
    @given(
        table_rows=rows,
        semantics=semantics_strategy,
        name=pattern_names,
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=80)
    def test_shuffle_invariance(self, table_rows, semantics, name, seed):
        import random

        shuffled = list(table_rows)
        random.Random(seed).shuffle(shuffled)
        assert isomorphic(
            run_engine(name, table_rows, semantics),
            run_engine(name, shuffled, semantics),
        )


class TestVariantLattice:
    @given(table_rows=rows, name=pattern_names)
    @settings(max_examples=60)
    def test_sizes_decrease_along_the_proposals(self, table_rows, name):
        """Atomic >= Grouping >= Weak >= Collapse >= Strong, elementwise."""
        order = [
            MergeSemantics.ATOMIC,
            MergeSemantics.GROUPING,
            MergeSemantics.WEAK_COLLAPSE,
            MergeSemantics.COLLAPSE,
            MergeSemantics.STRONG_COLLAPSE,
        ]
        node_counts = []
        rel_counts = []
        for semantics in order:
            snapshot = run_engine(name, table_rows, semantics)
            node_counts.append(snapshot.order())
            rel_counts.append(snapshot.size())
        assert node_counts == sorted(node_counts, reverse=True)
        assert rel_counts == sorted(rel_counts, reverse=True)


class TestIdempotenceOfCollapse:
    @given(table_rows=rows, name=pattern_names)
    @settings(max_examples=60)
    def test_rerunning_merge_same_adds_nothing_for_nonnull_rows(
        self, table_rows, name
    ):
        non_null = [
            r
            for r in table_rows
            if r["cid"] is not None
            and r["pid"] is not None
            and r["vid"] is not None
        ]
        graph = Graph(Dialect.REVISED)
        table = DrivingTable(("cid", "pid", "vid"), non_null)
        ctx = EvalContext(store=graph.store)
        merge(ctx, pattern_of(name), table, MergeSemantics.STRONG_COLLAPSE)
        first = graph.snapshot()
        merge(
            ctx,
            pattern_of(name),
            DrivingTable(("cid", "pid", "vid"), non_null),
            MergeSemantics.STRONG_COLLAPSE,
        )
        second = graph.snapshot()
        assert isomorphic(first, second)


class TestMergeAllTableLaw:
    @given(table_rows=rows, name=pattern_names)
    @settings(max_examples=60)
    def test_output_has_at_least_input_cardinality(self, table_rows, name):
        # Every input record yields >= 1 output record (its matches or
        # its creation), per the MERGE ALL equation.
        graph = Graph(Dialect.REVISED)
        table = DrivingTable(("cid", "pid", "vid"), table_rows)
        ctx = EvalContext(store=graph.store)
        out = merge(ctx, pattern_of(name), table, MergeSemantics.ATOMIC)
        assert len(out) >= len(table_rows)


def _engine_table_signature(graph_snapshot, table):
    """Multiset of rows with entities replaced by content signatures."""
    from repro.graph.model import Node, Relationship

    rows = []
    for record in table:
        row = []
        for column in sorted(table.columns):
            value = record[column]
            if isinstance(value, Node):
                row.append(("node", graph_snapshot.node_signature(value.id)))
            elif isinstance(value, Relationship):
                row.append(("rel", graph_snapshot.rel_signature(value.id)))
            else:
                from repro.graph.values import grouping_key

                row.append(("val", repr(grouping_key(value))))
        rows.append(tuple(row))
    return sorted(map(repr, rows))


def _formal_table_signature(outcome):
    from repro.graph.values import grouping_key

    rows = []
    for record in outcome.table:
        row = []
        for column in sorted(record):
            value = record[column]
            if isinstance(value, tuple) and len(value) == 2 and value[0] in (
                "node",
                "rel",
            ):
                kind, entity_id = value
                if kind == "node":
                    row.append(("node", outcome.graph.node_signature(entity_id)))
                else:
                    row.append(("rel", outcome.graph.rel_signature(entity_id)))
            else:
                row.append(("val", repr(grouping_key(value))))
        rows.append(tuple(row))
    return sorted(map(repr, rows))


class TestOutputTablesAgree:
    """The MERGE output *tables* also agree, up to entity renaming.

    Rows are compared after replacing entities by their content
    signatures -- a necessary condition for the formal table equality
    that is insensitive to id choice.
    """

    @given(table_rows=rows, semantics=semantics_strategy, name=pattern_names)
    @settings(max_examples=80)
    def test_row_signatures_match(self, table_rows, semantics, name):
        graph = Graph(Dialect.REVISED)
        table = DrivingTable(("cid", "pid", "vid"), table_rows)
        ctx = EvalContext(store=graph.store)
        out = merge(ctx, pattern_of(name), table, semantics)
        engine_sig = _engine_table_signature(graph.snapshot(), out)

        outcome = F.merge_variant(
            F.empty_graph(),
            pattern_of(name),
            tuple(dict(r) for r in table_rows),
            semantics.value,
        )
        formal_sig = _formal_table_signature(outcome)
        assert engine_sig == formal_sig


# ---------------------------------------------------------------------------
# The read half over tables with repeated and equivalent keys
# ---------------------------------------------------------------------------

#: 1 and 1.0 are equivalent keys (one index bucket); null never matches
KEY_VALUES = (None, 0, 1, 1.0, 2)

seed_paths = st.lists(
    st.tuples(
        st.sampled_from(KEY_VALUES[1:]), st.sampled_from(KEY_VALUES[1:])
    ),
    min_size=1,
    max_size=4,
)
key_rows = st.lists(
    st.tuples(
        st.sampled_from(KEY_VALUES),
        st.sampled_from(KEY_VALUES),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=6,
)

KEYED_PATTERNS = {
    "order": "MERGE ALL (:User {id: cid})-[:ORDERED]->(:Product {id: pid})",
    "named": "MERGE ALL (c:User {id: cid})-[r:ORDERED]->(p:Product {id: pid})",
    # a bound variable in the pattern
    "bound": "MERGE ALL (u)-[:ORDERED]->(p:Product {id: pid})",
}


def keyed_pattern(name):
    statement = parse(KEYED_PATTERNS[name], Dialect.REVISED)
    return statement.branches()[0].clauses[0].pattern


def seeded_graph(paths, indexed):
    graph = Graph(Dialect.REVISED)
    store = graph.store
    for cid, pid in paths:
        user = store.create_node(("User",), {"id": cid})
        product = store.create_node(("Product",), {"id": pid})
        store.create_relationship("ORDERED", user, product)
    if indexed:
        store.create_index("User", "id")
        store.create_index("Product", "id")
    return graph


def keyed_tables(graph, specs):
    """The same rows for the engine (handles) and the reference (tags);
    every row is repeated, so every key occurs at least twice."""
    users = [n.id for n in graph.store.nodes() if n.has_label("User")]
    engine_rows, formal_rows = [], []
    for cid, pid, pick in specs * 2:
        user = users[pick % len(users)]
        engine_rows.append(
            {"cid": cid, "pid": pid, "u": graph.store.node(user)}
        )
        formal_rows.append({"cid": cid, "pid": pid, "u": F.node_tag(user)})
    return engine_rows, formal_rows


def tagged(record):
    from repro.graph.model import Node, Relationship

    row = {}
    for name, value in record.items():
        if isinstance(value, Node):
            value = F.node_tag(value.id)
        elif isinstance(value, Relationship):
            value = F.rel_tag(value.id)
        row[name] = value
    return row


class TestReadHalfOnRepeatedKeys:
    """Duplicate rows, equivalent-but-not-identical keys (1 / 1.0), null
    keys and bound variables: the engine's read half and the
    reference's per-row match + create-then-quotient give the same
    table and the same graph, for all five variants.
    """

    @given(
        paths=seed_paths,
        specs=key_rows,
        semantics=semantics_strategy,
        name=st.sampled_from(sorted(KEYED_PATTERNS)),
        indexed=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_table_ids_and_graph_as_the_reference(
        self, paths, specs, semantics, name, indexed
    ):
        import json

        from repro.io.graph_json import graph_to_dict
        from repro.runtime.matcher import match_pattern
        from repro.testing.invariants import canonical_graph_json

        graph = seeded_graph(paths, indexed)
        before = graph.snapshot()
        pattern = keyed_pattern(name)
        engine_rows, formal_rows = keyed_tables(graph, specs)
        ctx = EvalContext(store=graph.store)
        # T_match, row by row, through the per-record entry point.
        per_record = [
            tagged({**row, **bindings})
            for row in engine_rows
            for bindings in match_pattern(ctx, pattern, row)
        ]
        table = DrivingTable(("cid", "pid", "u"), engine_rows)
        out = merge(ctx, pattern, table, semantics)
        outcome = F.merge_variant(
            before, pattern, tuple(formal_rows), semantics.value
        )
        # The read half: same matches, same ids, same (table) order.
        engine_table = [tagged(record) for record in out]
        assert engine_table[: len(per_record)] == per_record
        assert list(outcome.table[: len(per_record)]) == per_record
        # The whole outcome, up to renaming of created entities ...
        assert isomorphic(graph.snapshot(), outcome.graph)
        assert _engine_table_signature(
            graph.snapshot(), out
        ) == _formal_table_signature(outcome)
        # ... and exactly, where both allocate one instance per failing
        # row (or group) in table order.
        if semantics in (MergeSemantics.ATOMIC, MergeSemantics.GROUPING):
            order = lambda row: repr(sorted(row.items()))
            assert sorted(engine_table, key=order) == sorted(
                (dict(row) for row in outcome.table), key=order
            )
            assert canonical_graph_json(graph.store) == json.dumps(
                graph_to_dict(outcome.graph), sort_keys=True
            )
