"""Property-based tests of the store: rollback is a perfect inverse,
and the three routes through the transition kernels (public mutators,
redo replay, journal undo) agree."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import CypherError
from repro.graph.comparison import isomorphic
from repro.graph.store import GraphStore
from repro.testing.invariants import canonical_graph_json, check_invariants

#: Small pools of labels / keys / values keep collisions frequent.
labels = st.lists(
    st.sampled_from(["A", "B", "C"]), max_size=2, unique=True
)
keys = st.sampled_from(["x", "y", "z"])
prop_values = st.one_of(
    st.integers(min_value=0, max_value=5), st.sampled_from(["s", "t"])
)

#: A random mutation script: list of (op, args) tuples interpreted
#: against whatever entities exist at that point.
operations = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "create_node",
                "create_rel",
                "delete_rel",
                "delete_node",
                "set_prop",
                "add_label",
                "remove_label",
            ]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=25,
)


def label_ids(store, label):
    """The label's bucket, as the access-path chooser enumerates it."""
    return store.node_access((label,), fetch=True)[2]


def apply_script(store, script):
    """Drive the store through a mutation script, ignoring misses."""
    for op, a, b in script:
        node_ids = [n.id for n in store.nodes()]
        rel_ids = [r.id for r in store.relationships()]
        try:
            if op == "create_node":
                store.create_node(("A",) if a % 2 else (), {"x": a})
            elif op == "create_rel" and len(node_ids) >= 1:
                store.create_relationship(
                    "T",
                    node_ids[a % len(node_ids)],
                    node_ids[b % len(node_ids)],
                    {"w": b},
                )
            elif op == "delete_rel" and rel_ids:
                store.delete_relationship(rel_ids[a % len(rel_ids)])
            elif op == "delete_node" and node_ids:
                store.delete_node(
                    node_ids[a % len(node_ids)], allow_dangling=bool(b % 2)
                )
            elif op == "set_prop" and node_ids:
                store.set_node_property(
                    node_ids[a % len(node_ids)],
                    "xyz"[b % 3],
                    a if a % 3 else None,
                )
            elif op == "add_label" and node_ids:
                store.add_label(node_ids[a % len(node_ids)], "ABC"[b % 3])
            elif op == "remove_label" and node_ids:
                store.remove_label(node_ids[a % len(node_ids)], "ABC"[b % 3])
        except CypherError:
            pass  # strict deletes of attached nodes etc.


class TestThreeRoutes:
    @given(setup=operations, mutations=operations, indexed=st.booleans())
    @settings(max_examples=120)
    def test_mutate_replay_and_rollback_agree(
        self, setup, mutations, indexed
    ):
        # Route 1: the public mutators.  (Scripts delete nodes with
        # allow_dangling, so the oracle must tolerate dangling rels.)
        mutated = GraphStore()
        if indexed:
            mutated.create_index("A", "x")
        apply_script(mutated, setup)
        before = canonical_graph_json(mutated)
        mark = mutated.mark()
        apply_script(mutated, mutations)
        check_invariants(mutated, allow_dangling=True)
        # Route 2: the redo stream of route 1, replayed on a fresh
        # store (what recovery and a replica do).
        replayed = GraphStore()
        if indexed:
            replayed.create_index("A", "x")
        for op in mutated.redo_ops(0):
            replayed.apply_redo(op)
        assert canonical_graph_json(replayed) == canonical_graph_json(
            mutated
        )
        assert replayed.next_ids() == mutated.next_ids()
        check_invariants(replayed, allow_dangling=True)
        # Route 3: journal undo takes route 1 back to the setup state.
        mutated.rollback_to(mark)
        assert canonical_graph_json(mutated) == before
        check_invariants(mutated, allow_dangling=True)


class TestRollbackInverse:
    @given(setup=operations, mutations=operations)
    @settings(max_examples=80)
    def test_rollback_restores_snapshot(self, setup, mutations):
        store = GraphStore()
        apply_script(store, setup)
        before = store.snapshot()
        mark = store.mark()
        apply_script(store, mutations)
        store.rollback_to(mark)
        assert isomorphic(store.snapshot(), before)

    @given(setup=operations, mutations=operations)
    @settings(max_examples=40)
    def test_rollback_restores_label_index(self, setup, mutations):
        store = GraphStore()
        apply_script(store, setup)
        before = {label: label_ids(store, label) for label in ("A", "B", "C")}
        mark = store.mark()
        apply_script(store, mutations)
        store.rollback_to(mark)
        after = {label: label_ids(store, label) for label in ("A", "B", "C")}
        assert before == after

    @given(setup=operations)
    @settings(max_examples=40)
    def test_copy_round_trip(self, setup):
        store = GraphStore()
        apply_script(store, setup)
        # copy() skips dangling relationships, so compare against the
        # dangling-free projection of the original.
        assert isomorphic(
            store.copy().snapshot(),
            store.snapshot(include_dangling=False),
        )


class PropertyIndexMachine(RuleBasedStateMachine):
    """Stateful test: the property index always agrees with a rescan."""

    def __init__(self):
        super().__init__()
        self.store = GraphStore()
        self.index = self.store.create_index("A", "x")

    @initialize()
    def seed(self):
        self.store.create_node(("A",), {"x": 0})

    @rule(value=st.integers(min_value=0, max_value=3), labeled=st.booleans())
    def create(self, value, labeled):
        self.store.create_node(("A",) if labeled else (), {"x": value})

    @rule(pick=st.integers(min_value=0, max_value=30))
    def delete(self, pick):
        nodes = [n.id for n in self.store.nodes()]
        if nodes:
            self.store.delete_node(nodes[pick % len(nodes)])

    @rule(
        pick=st.integers(min_value=0, max_value=30),
        value=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    )
    def set_x(self, pick, value):
        nodes = [n.id for n in self.store.nodes()]
        if nodes:
            self.store.set_node_property(nodes[pick % len(nodes)], "x", value)

    @rule(pick=st.integers(min_value=0, max_value=30), add=st.booleans())
    def toggle_label(self, pick, add):
        nodes = [n.id for n in self.store.nodes()]
        if nodes:
            node_id = nodes[pick % len(nodes)]
            if add:
                self.store.add_label(node_id, "A")
            else:
                self.store.remove_label(node_id, "A")

    @invariant()
    def index_agrees_with_scan(self):
        for value in range(4):
            expected = [
                node.id
                for node in self.store.nodes()
                if node.has_label("A") and node.get("x") == value
            ]
            assert self.index.ids(value) == expected


TestPropertyIndexMachine = PropertyIndexMachine.TestCase


class TestTypedAdjacencyInvariant:
    @given(setup=operations, mutations=operations)
    @settings(max_examples=60)
    def test_typed_maps_agree_with_scans(self, setup, mutations):
        store = GraphStore()
        apply_script(store, setup)
        mark = store.mark()
        apply_script(store, mutations)
        store.rollback_to(mark)
        for node in store.nodes():
            for rel_type in ("T", "S"):
                for outgoing in (True, False):
                    direction = {"outgoing": outgoing, "incoming": not outgoing}
                    expected = [
                        r
                        for r in store.adjacent_rel_ids(node.id, **direction)
                        if store.rel_type(r) == rel_type
                    ]
                    typed = store.adjacent_rel_ids(
                        node.id, types=(rel_type,), **direction
                    )
                    assert typed == expected
