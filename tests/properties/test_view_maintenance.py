"""Incremental view maintenance == re-execution, as a property.

Three promises from ``repro.views`` under random write scripts:

* **Equivalence**: after every committed statement, each registered
  view's maintained result equals a fresh execution of its query on
  the same store -- exactly (rows, order, entity ids) for Cypher 9
  views, as a row multiset for revised ones.
* **Invalidation precision**: commits whose redo ops are provably
  irrelevant to a view's footprint return the *same cached object*
  from :meth:`View.result` -- callers may use identity as a
  no-change fast path.
* **Rollback isolation**: statements inside a rolled-back transaction
  never reach a view; the published result object is untouched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialect import Dialect
from repro.engine import CypherEngine
from repro.errors import CypherError
from repro.graph.store import GraphStore
from repro.testing.differential import canonical_rows
from repro.views import ViewRegistry

#: (source, dialect) pairs mixing row-wise, folded and fallback shapes.
VIEWS = (
    ("MATCH (a:A)-[r:T]->(b) RETURN a AS a, r AS r, b AS b", "revised"),
    ("MATCH (n:A) RETURN n AS n, n.i AS i, n.k AS k", "cypher9"),
    ("MATCH (n:B) RETURN count(*) AS c", "revised"),
    ("MATCH (a:A)-[:T]->(b:B) WHERE b.i > 1 RETURN b.i AS i", "cypher9"),
    # grouped, legacy: exact group order; collect: exact list order
    (
        "MATCH (n:A) RETURN n.k AS k, count(*) AS c, collect(n.i) AS l, "
        "count(DISTINCT n.i) AS d",
        "cypher9",
    ),
    # the same with aggregates that fold in O(1): a group still moves
    # when its first record does
    ("MATCH (n:A) RETURN n.k AS k, count(*) AS c, sum(n.i) AS s", "cypher9"),
    # the extremum is deleted or overwritten; ties between 1 and 1.5
    ("MATCH (n:B) RETURN min(n.i) AS lo, max(n.i) AS hi", "cypher9"),
    # float sums round by order: only a re-aggregation in key order
    # reproduces re-execution to the last bit
    (
        "MATCH (a:A)-[r:T]->(b) RETURN a.i AS i, sum(r.w) AS s, "
        "avg(r.w) AS m ORDER BY i DESC",
        "revised",
    ),
    # integer sum / avg: O(1) both ways; the first record's a.k shows
    (
        "MATCH (a:A)-[r:T]->(b:B) "
        "RETURN a.i AS i, sum(b.i) + a.k AS s, avg(b.i) AS m",
        "cypher9",
    ),
    # a DISTINCT barrier first, an aggregate over its table after
    ("MATCH (n:A) WITH DISTINCT n.k AS k RETURN count(k) AS c", "revised"),
    ("OPTIONAL MATCH (n:B) RETURN count(n) AS c, max(n.i) AS hi", "revised"),
    # fallback footprints: an OPTIONAL MATCH that rebinds a variable
    # under another label keeps the rows it cannot extend ...
    (
        "MATCH (a:A) OPTIONAL MATCH (a:B)-[:T]->(b:B) "
        "RETURN a.i AS i, b.i AS j",
        "cypher9",
    ),
    ("MATCH (a:A) OPTIONAL MATCH (a:B) RETURN a.i AS i", "revised"),
    # ... and a subscript reads a property like a dot does
    ("MATCH (a:A), (b:B) RETURN a['k'] AS k, b.i AS i", "cypher9"),
    ("MATCH (a:A)-[r:T*1..2]->(b) RETURN r[0]['w'] AS w", "cypher9"),
    ("MATCH (n:A) RETURN n['k'] AS k", "revised"),
)

#: op templates, instantiated with two small integers (x, y)
WRITES = (
    "CREATE (:A {{i: {x}}})",
    "CREATE (:B {{i: {x}}})",
    "MATCH (a:A {{i: {x}}}) MATCH (b:B) CREATE (a)-[:T {{w: {y}}}]->(b)",
    "MATCH (n:A {{i: {x}}}) SET n.k = {y}",
    "MATCH (n:A {{i: {x}}}) SET n:B",
    "MATCH (n:B {{i: {x}}}) REMOVE n:B",
    "MATCH (n {{i: {x}}}) DETACH DELETE n",
    "MATCH ()-[r:T]->() WHERE r.w = {y} DELETE r",
    "MATCH (a:A {{i: {x}}}) MATCH (b:B) CREATE (a)-[:T {{w: {y}.1}}]->(b)",
    "MATCH (n:B {{i: {x}}}) SET n.i = {y}.5",
    "MATCH (n:B {{i: {x}}}) SET n.i = {y}",
)

scripts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(WRITES) - 1),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=14,
)


def _setup(views=VIEWS):
    store = GraphStore()
    engine = CypherEngine(
        store, dialect=Dialect.REVISED, extended_merge=True
    )
    for statement in (
        "CREATE (:A {i: 0})-[:T {w: 0}]->(:B {i: 1})",
        "CREATE (:A {i: 1, k: 2})",
        "CREATE (:B {i: 2})",
    ):
        engine.execute(statement)
    registry = ViewRegistry(store)
    registered = [
        registry.register(source, dialect=dialect)
        for source, dialect in views
    ]
    return store, engine, registry, registered


def _recompute(store, view):
    engine = CypherEngine(
        store,
        dialect=view.dialect,
        extended_merge=True,
        use_planner=False,
    )
    return engine.execute(view.statement, view.parameters)


def _assert_equivalent(store, view):
    maintained = view.result()
    recomputed = _recompute(store, view)
    assert tuple(recomputed.columns) == tuple(maintained.columns)
    want = canonical_rows(recomputed.records, with_ids=True)
    got = canonical_rows(list(maintained.records), with_ids=True)
    if view.dialect is Dialect.CYPHER9:
        assert got == want
    else:
        assert sorted(map(repr, got)) == sorted(map(repr, want))


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_maintained_equals_recomputed_after_every_commit(script):
    store, engine, registry, views = _setup()
    try:
        for op, x, y in script:
            try:
                engine.execute(WRITES[op].format(x=x, y=y))
            except CypherError:
                continue
            for view in views:
                _assert_equivalent(store, view)
    finally:
        registry.close()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_irrelevant_commits_preserve_object_identity(script):
    """Writes touching only :Z never invalidate an :A-:B path view."""
    irrelevant = (
        "CREATE (:Z {{z: {x}}})",
        "MATCH (n:Z) SET n.z = {x}",
        "MATCH (n:Z {{z: {x}}}) DETACH DELETE n",
    )
    store, engine, registry, views = _setup(
        views=(
            (
                "MATCH (a:A)-[:T]->(b:B) RETURN a.i AS ai, b.i AS bi",
                "revised",
            ),
        )
    )
    view = views[0]
    try:
        baseline = view.result()
        for op, x in script:
            try:
                engine.execute(irrelevant[op].format(x=x))
            except CypherError:
                continue
            current = view.result()
            assert current is baseline
            assert current.lsn >= baseline.lsn
        # ...and the cached result is still the true one.
        _assert_equivalent(store, view)
    finally:
        registry.close()


@settings(max_examples=25, deadline=None)
@given(scripts)
def test_rollback_leaves_views_untouched(script):
    store, engine, registry, views = _setup()
    try:
        before = [view.result() for view in views]
        mark = store.begin_transaction()
        try:
            for op, x, y in script:
                try:
                    engine.execute(WRITES[op].format(x=x, y=y))
                except CypherError:
                    continue
                # Mid-transaction reads serve the last published
                # result; uncommitted effects must stay invisible.
                for view, published in zip(views, before):
                    assert view.result() is published
        finally:
            store.rollback_transaction(mark)
        for view, published in zip(views, before):
            assert view.result() is published
            _assert_equivalent(store, view)
    finally:
        registry.close()


def _run(engine, store, views, *statements):
    for statement in statements:
        engine.execute(statement)
        for view in views:
            _assert_equivalent(store, view)


def test_grouped_aggregate_keeps_exact_group_order_in_the_legacy_dialect():
    """Groups appear in the order of their first record; a group whose
    first record goes away moves, one that empties disappears and one
    that refills reappears at its new first record -- whether its
    aggregates fold in O(1) (count) or re-aggregate (collect)."""
    store, engine, registry, (view, counts) = _setup(
        views=(
            (
                "MATCH (n:A) RETURN n.k AS k, count(*) AS c, "
                "collect(n.i) AS l",
                "cypher9",
            ),
            ("MATCH (n:A) RETURN n.k AS k, count(*) AS c", "cypher9"),
        )
    )
    try:
        assert view.stats.mode == counts.stats.mode == "delta"
        _run(
            engine,
            store,
            [view, counts],
            "CREATE (:A {i: 2, k: 7})",
            "CREATE (:A {i: 3, k: 2})",
            "CREATE (:A {i: 4})",  # null key: its own group
            "MATCH (n:A {i: 1}) SET n.k = 7",  # k=2's first record leaves
            "MATCH (n:A {i: 3}) DETACH DELETE n",  # k=2 empties ...
            "MATCH (n:A {i: 0}) SET n.k = 2",  # ... and refills, first
            "MATCH (n:A) SET n.k = 1",  # one group
            "MATCH (n:A) DETACH DELETE n",  # none
            "CREATE (:A {i: 9, k: 9})",
        )
        assert view.result().to_dicts() == [{"k": 9, "c": 1, "l": [9]}]
        assert counts.result().to_dicts() == [{"k": 9, "c": 1}]
        assert view.stats.full_refreshes == 1
        assert counts.stats.full_refreshes == 1
    finally:
        registry.close()


def test_min_max_survive_losing_their_extremum():
    store, engine, registry, (view,) = _setup(
        views=(("MATCH (n:B) RETURN min(n.i) AS lo, max(n.i) AS hi", "revised"),)
    )
    try:
        _run(
            engine,
            store,
            [view],
            "CREATE (:B {i: 5})",
            "CREATE (:B {i: 0})",
            "MATCH (n:B {i: 5}) DETACH DELETE n",  # the max
            "MATCH (n:B {i: 0}) SET n.i = 3",  # the min, overwritten
            "CREATE (:B {i: 1.0})",  # ties with {i: 1} by value
            "MATCH (n:B) WHERE n.i = 1 AND id(n) < 3 DETACH DELETE n",
            "MATCH (n:B) DETACH DELETE n",  # empty: nulls
        )
        assert view.result().to_dicts() == [{"lo": None, "hi": None}]
        assert view.stats.full_refreshes == 1
    finally:
        registry.close()


def test_float_sum_is_bit_equal_to_reexecution():
    store, engine, registry, (view,) = _setup(
        views=(("MATCH (n:B) RETURN sum(n.w) AS s, avg(n.w) AS m", "cypher9"),)
    )
    try:
        _run(
            engine,
            store,
            [view],
            # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 in floats
            "MATCH (n:B {i: 1}) SET n.w = 0.1",
            "CREATE (:B {i: 7, w: 0.3})",
            "MATCH (n:B {i: 2}) SET n.w = 0.2",
            "MATCH (n:B {i: 1}) SET n.w = 1e16",
            "MATCH (n:B {i: 1}) REMOVE n.w",
            "MATCH (n:B {i: 7}) SET n.w = 3",  # an integer among floats
            "MATCH (n:B {i: 2}) REMOVE n.w",  # integers only again
            "MATCH (n:B {i: 1}) SET n.w = 4",
        )
        assert view.result().to_dicts() == [{"s": 7, "m": 3.5}]
    finally:
        registry.close()


def test_a_refresh_that_raises_keeps_its_backlog():
    """Every read raises what re-execution raises until a later commit
    repairs the data -- for a fallback view, a row-wise delta view, a
    folded aggregate and the clauses after a publishing WITH alike --
    and only a refresh that published counts as one."""
    store, engine, registry, views = _setup(
        views=(
            ("OPTIONAL MATCH (n:A) RETURN sum(n.k) AS s", "revised"),
            ("MATCH (n:A) RETURN 10 / n.k AS q", "revised"),
            ("MATCH (n:A) RETURN sum(n.k) AS s", "revised"),
            ("MATCH (n:A) WITH DISTINCT n.k AS k RETURN 10 / k AS q", "revised"),
        )
    )
    try:
        assert [view.stats.mode for view in views] == [
            "full",
            "delta",
            "delta",
            "delta",
        ]
        before = [view.result() for view in views]
        refreshes = [view.stats.full_refreshes for view in views]
        assert before[2].to_dicts() == [{"s": 2}]
        lsn = store.lsn
        engine.execute("MATCH (n:A {i: 0}) SET n.k = 'oops'")
        for view, published in zip(views, before):
            errors = []
            for __ in range(2):  # the second read must not serve stale
                try:
                    view.result()
                except CypherError as error:
                    errors.append((type(error), str(error)))
            try:
                _recompute(store, view)
            except CypherError as error:
                expected = (type(error), str(error))
            assert errors == [expected, expected]
            assert view.covered_lsn == lsn and view.stats.lag == 1
            assert view._result is published
        # stats() reports instead of raising
        assert [row["lag"] for row in registry.stats()] == [1, 1, 1, 1]
        assert [view.stats.full_refreshes for view in views] == refreshes
        engine.execute("MATCH (n:A {i: 0}) SET n.k = 5")
        for view in views:
            _assert_equivalent(store, view)
            assert view.stats.lag == 0
        assert [view.stats.full_refreshes for view in views] == [
            count + 1 for count in refreshes
        ]
        assert views[2].result().to_dicts() == [{"s": 7}]
        # ... and delta maintenance resumes on the rebuilt state
        refreshes = views[2].stats.full_refreshes
        engine.execute("MATCH (n:A {i: 0}) SET n.k = 6")
        _assert_equivalent(store, views[2])
        assert views[2].stats.full_refreshes == refreshes
    finally:
        registry.close()


def test_fallback_footprint_keeps_the_rows_an_optional_match_cannot_extend():
    """``(a:B)`` in the OPTIONAL MATCH filters its own position only: a
    created ``:A`` is a row whether or not it is also a ``:B``."""
    store, engine, registry, views = _setup(
        views=(
            (
                "MATCH (a:A) OPTIONAL MATCH (a:B)-[:T]->(c:B) "
                "RETURN a.i AS i, c.i AS j",
                "cypher9",
            ),
            ("MATCH (a:A) OPTIONAL MATCH (a:B) RETURN a.i AS i", "cypher9"),
        )
    )
    try:
        assert [view.stats.mode for view in views] == ["full", "full"]
        _run(
            engine,
            store,
            views,
            "CREATE (:A {i: 7})",
            "MATCH (a:A {i: 7}) SET a:B",
            "MATCH (a:A {i: 7}), (b:B {i: 2}) CREATE (a)-[:T]->(b)",
            "MATCH (a:A {i: 7}) REMOVE a:B",
        )
        assert {"i": 7} in views[1].result().to_dicts()
    finally:
        registry.close()


def test_a_subscript_read_is_a_property_read():
    store, engine, registry, views = _setup(
        views=(
            ("MATCH (a:A), (b:B) RETURN a['k'] AS k, b.i AS i", "cypher9"),
            ("MATCH (a:A)-[r:T*1..2]->(b) RETURN r[0]['w'] AS w", "cypher9"),
            ("MATCH (n:A) RETURN n['k'] AS k", "cypher9"),
        )
    )
    try:
        assert [view.stats.mode for view in views] == ["full", "full", "delta"]
        _run(
            engine,
            store,
            views,
            "MATCH (a:A) SET a.k = 9",
            "MATCH ()-[r:T]->() SET r.w = 9",
        )
        assert views[1].result().to_dicts() == [{"w": 9}]
        assert views[2].result().to_dicts() == [{"k": 9}, {"k": 9}]
    finally:
        registry.close()
