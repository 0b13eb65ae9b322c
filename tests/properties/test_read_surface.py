"""The store's read surface vs brute force over ``nodes()`` / ``relationships()``.

Two questions, one body each:

* *which nodes can this pattern element match?* --
  :meth:`GraphStore.node_access` picks one bucket (a label's, an
  index's, or none) and the matcher filters it; whatever the choice,
  the candidates must be exactly the brute-force filter over
  ``store.nodes()``, in ascending id order, planner on or off, in both
  match modes;
* *which relationships are at this node?* --
  :meth:`GraphStore.adjacent_rel_ids` must equal a scan of
  ``store.relationships()`` for every direction / type filter, with
  self-loops and repeated type names emitted once, at tombstoned
  endpoints (the legacy dialect's dangling state) and after a journal
  rollback.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CypherError
from repro.graph.store import GraphStore
from repro.graph.values import cypher_eq
from repro.parser import ast
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.match_planner import PreparedPattern
from repro.runtime.matcher import _node_candidates, match_paths, record_values
from repro.testing.invariants import check_invariants

LABELS = ("A", "B", "C")
KEYS = ("k", "j")
#: 1 and 1.0 share an index bucket; "1" does not
VALUES = (0, 1, 1.0, 2, "1")

label_sets = st.lists(st.sampled_from(LABELS), max_size=3, unique=True)
property_maps = st.dictionaries(
    st.sampled_from(KEYS), st.sampled_from(VALUES), max_size=2
)
node_specs = st.lists(st.tuples(label_sets, property_maps), max_size=12)
index_specs = st.lists(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(KEYS)),
    max_size=3,
    unique=True,
)
#: mutations applied after the build, half of them rolled back
mutations = st.lists(
    st.tuples(
        st.sampled_from(
            ["delete", "relabel", "unlabel", "set", "unset", "create"]
        ),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    ),
    max_size=10,
)
#: pattern maps may also ask for null (matches nothing)
pattern_maps = st.dictionaries(
    st.sampled_from(KEYS), st.sampled_from(VALUES + (None,)), max_size=2
)


def mutate(store, script):
    for op, a, b in script:
        live = [node.id for node in store.nodes()]
        if op == "create":
            store.create_node((LABELS[a % 3],), {KEYS[b % 2]: VALUES[a % 5]})
        elif not live:
            continue
        elif op == "delete":
            # Legacy-style: the tombstone stays, relationships or not.
            store.delete_node(live[a % len(live)], allow_dangling=True)
        elif op == "relabel":
            store.add_label(live[a % len(live)], LABELS[b % 3])
        elif op == "unlabel":
            store.remove_label(live[a % len(live)], LABELS[b % 3])
        elif op == "set":
            store.set_node_property(
                live[a % len(live)], KEYS[b % 2], VALUES[(a + b) % 5]
            )
        elif op == "unset":
            store.set_node_property(live[a % len(live)], KEYS[b % 2], None)


def build(nodes, indexes, kept, undone):
    store = GraphStore()
    for labels, properties in nodes:
        store.create_node(labels, properties)
    for label, key in indexes:
        store.create_index(label, key)
    mutate(store, kept)
    mark = store.mark()
    mutate(store, undone)
    store.rollback_to(mark)
    return store


def node_pattern(labels, properties):
    items = tuple(
        (key, ast.Literal(value)) for key, value in properties.items()
    )
    return ast.NodePattern(
        variable="n",
        labels=tuple(labels),
        properties=ast.MapLiteral(items) if items else None,
    )


def brute_force(store, labels, properties):
    return [
        node.id
        for node in store.nodes()
        if all(node.has_label(label) for label in labels)
        and all(
            cypher_eq(node.get(key), value) is True
            for key, value in properties.items()
        )
    ]


class TestNodeAccess:
    @given(
        nodes=node_specs,
        indexes=index_specs,
        kept=mutations,
        undone=mutations,
        labels=label_sets,
        properties=pattern_maps,
    )
    @settings(max_examples=150, deadline=None)
    def test_candidates_equal_the_brute_force_filter(
        self, nodes, indexes, kept, undone, labels, properties
    ):
        store = build(nodes, indexes, kept, undone)
        check_invariants(store, allow_dangling=True)
        pattern = node_pattern(labels, properties)
        expected = brute_force(store, labels, properties)
        path = ast.PathPattern(variable=None, elements=(pattern,))
        for mode in MatchMode:
            ctx = EvalContext(store=store, match_mode=mode)
            prepared = PreparedPattern(ctx, (path,))
            found = [
                node.id
                for node in _node_candidates(
                    ctx,
                    prepared.paths[0].steps[0],
                    {},
                    record_values(ctx, prepared, {}),
                )
            ]
            assert found == expected  # same nodes, ascending
            for use_planner in (False, True):
                ctx = EvalContext(
                    store=store, match_mode=mode, use_planner=use_planner
                )
                matched = [
                    bindings["n"].id
                    for bindings in match_paths(ctx, (path,), {})
                ]
                assert matched == expected

    @given(
        nodes=node_specs,
        indexes=index_specs,
        kept=mutations,
        labels=label_sets,
        properties=pattern_maps,
    )
    @settings(max_examples=150, deadline=None)
    def test_the_chosen_bucket_is_the_smallest_and_a_superset(
        self, nodes, indexes, kept, labels, properties
    ):
        store = build(nodes, indexes, kept, [])
        items = tuple(properties.items())
        size, description, ids = store.node_access(labels, items, fetch=True)
        expected = brute_force(store, labels, properties)
        if ids is None:
            assert description == "all nodes" and not labels
            assert size == store.node_count()
            return
        assert ids == sorted(set(ids)) and len(ids) == size
        assert set(expected) <= set(ids)
        sizes = [store.label_count(label) for label in labels]
        for label in labels:
            for key, value in items:
                index = store.property_index(label, key)
                if index is not None:
                    sizes.append(index.bucket_size(value))
        assert size == min(sizes)
        # The estimate reads no value: an index counts its average bucket.
        estimates = [store.label_count(label) for label in labels]
        for label in labels:
            for key, __ in items:
                index = store.property_index(label, key)
                if index is not None:
                    estimates.append(max(1.0, index.average_bucket_size()))
        assert store.node_access(labels, items)[0] == min(estimates)
        # The list is the caller's own: mutating it touches no bucket.
        ids.clear()
        assert store.node_access(labels, items, fetch=True)[0] == size


TYPES = ("T", "S")

rel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(TYPES),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=14,
)
rel_mutations = st.lists(
    st.tuples(
        st.sampled_from(["delete_rel", "bury_node", "create_rel", "loop"]),
        st.integers(min_value=0, max_value=13),
        st.integers(min_value=0, max_value=13),
    ),
    max_size=8,
)
type_filters = st.one_of(
    st.none(),
    # repeated and never-seen type names included
    st.lists(st.sampled_from(TYPES + ("X",)), max_size=3).map(tuple),
)


def mutate_rels(store, script):
    for op, a, b in script:
        live_nodes = [node.id for node in store.nodes()]
        live_rels = [rel.id for rel in store.relationships()]
        try:
            if op == "delete_rel" and live_rels:
                store.delete_relationship(live_rels[a % len(live_rels)])
            elif op == "bury_node" and live_nodes:
                store.delete_node(
                    live_nodes[a % len(live_nodes)], allow_dangling=True
                )
            elif op == "create_rel" and live_nodes:
                store.create_relationship(
                    TYPES[b % 2],
                    live_nodes[a % len(live_nodes)],
                    live_nodes[b % len(live_nodes)],
                )
            elif op == "loop" and live_nodes:
                node = live_nodes[a % len(live_nodes)]
                store.create_relationship(TYPES[b % 2], node, node)
        except CypherError:
            pass


class TestAdjacentRelIds:
    @given(
        rels=rel_specs,
        kept=rel_mutations,
        undone=rel_mutations,
        types=type_filters,
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_a_scan_of_relationships(self, rels, kept, undone, types):
        store = GraphStore()
        for __ in range(6):
            store.create_node()
        for source, rel_type, target in rels:
            store.create_relationship(rel_type, source, target)
        mutate_rels(store, kept)
        mark = store.mark()
        mutate_rels(store, undone)
        store.rollback_to(mark)
        check_invariants(store, allow_dangling=True)
        live = list(store.relationships())
        # Every node id ever allocated, tombstones included: a dangling
        # relationship is still enumerated at its deleted endpoint.
        for node_id in range(store.next_ids()[0]):
            for outgoing, incoming in ((True, True), (True, False), (False, True)):
                expected = [
                    rel.id
                    for rel in live
                    if (types is None or rel.type in types)
                    and (
                        (outgoing and rel.start.id == node_id)
                        or (incoming and rel.end.id == node_id)
                    )
                ]
                found = store.adjacent_rel_ids(
                    node_id, outgoing=outgoing, incoming=incoming, types=types
                )
                assert found == expected
