"""The id-level matcher vs two independent oracles and its own reference.

Random small graphs (label sets, property maps with ``1`` / ``1.0`` /
strings / lists, self-loops, parallel relationships, indexes on or
off, legacy tombstones with dangling relationships, and a batch of
mutations undone by a journal rollback) are matched against random
path lists (fixed and variable-length steps, every direction, shared
variables, named paths, property maps asking for ``null``), in both
match modes, planner on and off.  Three judges:

* a **brute force** written here from the definition of
  ``(p, G, u) |= pi`` over an immutable snapshot -- it scans every
  relationship at every step and knows nothing of indexes, adjacency
  or plans -- must produce the same bindings as a multiset;
* **repro.formal**'s matcher (the Section 8 transcription) must agree
  on the fragment it covers: fixed-length, directed, trail mode,
  scalar property values, no bound tombstone;
* the nested enumeration over ``matcher._match_single_path`` -- the
  order-defining reference -- must be reproduced *in order* by the
  written plan and by the planner under ``preserve_match_order`` (the
  planner only where no relationship dangles, see the note in the test).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialect import Dialect
from repro.formal import semantics as F
from repro.graph.model import Node, Path, Relationship
from repro.graph.store import GraphStore
from repro.graph.values import cypher_eq
from repro.parser import ast, parse
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.match_planner import PreparedPattern
from repro.runtime.matcher import _match_single_path, match_paths
from repro.testing.invariants import check_invariants

LABELS = ("A", "B")
TYPES = ("T", "S")
#: 1 and 1.0 are equal (and share an index bucket); "1" and [1] are not
STORED = (0, 1, 1.0, "1", [1, 2], [1.0, 2])

label_sets = st.lists(st.sampled_from(LABELS), max_size=2, unique=True)
node_props = st.dictionaries(
    st.sampled_from(("k", "j")), st.sampled_from(STORED), max_size=2
)
rel_props = st.dictionaries(
    st.just("w"), st.sampled_from((1, 1.0, 2)), max_size=1
)
graphs = st.tuples(
    st.lists(st.tuples(label_sets, node_props), min_size=1, max_size=6),
    st.lists(
        st.tuples(
            st.integers(0, 5), st.sampled_from(TYPES), st.integers(0, 5),
            rel_props,
        ),
        max_size=9,
    ),
    st.lists(
        st.sampled_from([("A", "k"), ("B", "k"), ("A", "j")]),
        max_size=3,
        unique=True,
    ),
)
#: mutations: the first batch stays, the second is rolled back
scripts = st.lists(
    st.tuples(
        st.sampled_from(
            ["bury", "cut", "link", "set", "label", "unlabel", "node"]
        ),
        st.integers(0, 9),
        st.integers(0, 9),
    ),
    max_size=6,
)

# -- patterns, as Cypher text ------------------------------------------------

LITERALS = ("0", "1", "1.0", "'1'", "[1, 2]", "null")


@st.composite
def node_texts(draw):
    variable = draw(st.sampled_from(("a", "b", "c", "")))
    labels = "".join(f":{label}" for label in draw(label_sets))
    props = ""
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(("k", "j")))
        props = f" {{{key}: {draw(st.sampled_from(LITERALS))}}}"
    return f"({variable}{labels}{props})"


@st.composite
def path_texts(draw, number):
    text = draw(node_texts())
    for step in range(draw(st.integers(0, 2))):
        variable = draw(st.sampled_from((f"r{number}{step}", "")))
        types = draw(st.sampled_from(("", ":T", ":S", ":T|S", ":T|T")))
        length = draw(
            st.sampled_from(("", "", "", "*0..1", "*1..2", "*2..3", "*..2"))
        )
        props = draw(st.sampled_from(("", "", " {w: 1}", " {w: null}")))
        left, right = draw(st.sampled_from((("-", "->"), ("<-", "-"), ("-", "-"))))
        text += f"{left}[{variable}{types}{length}{props}]{right}"
        text += draw(node_texts())
    name = draw(st.sampled_from(("", "", f"p{number} = ")))
    return name + text


@st.composite
def pattern_texts(draw):
    count = draw(st.integers(1, 2))
    return ", ".join(draw(path_texts(number)) for number in range(count))


def paths_of(text):
    statement = parse(f"MATCH {text} RETURN 1 AS one", Dialect.REVISED)
    return statement.branches()[0].clauses[0].pattern.paths


# -- graphs ------------------------------------------------------------------

def mutate(store, script):
    for op, a, b in script:
        live = [node.id for node in store.nodes()]
        rels = [rel.id for rel in store.relationships()]
        if op == "node":
            store.create_node((LABELS[a % 2],), {"k": STORED[b % 6]})
        elif not live:
            continue
        elif op == "bury":
            # Legacy-style: the tombstone stays, relationships dangle.
            store.delete_node(live[a % len(live)], allow_dangling=True)
        elif op == "link":
            store.create_relationship(
                TYPES[(a + b) % 2], live[a % len(live)], live[b % len(live)]
            )
        elif op == "set":
            store.set_node_property(
                live[a % len(live)], "k", STORED[b % 6] if b % 3 else None
            )
        elif op == "label":
            store.add_label(live[a % len(live)], LABELS[b % 2])
        elif op == "unlabel":
            store.remove_label(live[a % len(live)], LABELS[b % 2])
        elif op == "cut" and rels:
            store.delete_relationship(rels[a % len(rels)])


def build(spec, kept, undone):
    nodes, rels, indexes = spec
    store = GraphStore()
    for labels, properties in nodes:
        store.create_node(labels, properties)
    for source, rel_type, target, properties in rels:
        store.create_relationship(
            rel_type, source % len(nodes), target % len(nodes), properties
        )
    for label, key in indexes:
        store.create_index(label, key)
    mutate(store, kept)
    mark = store.mark()
    mutate(store, undone)
    store.rollback_to(mark)
    check_invariants(store, allow_dangling=True)
    return store


def buried(store):
    """Ids of tombstones: the endpoints dangling relationships keep."""
    snapshot = store.snapshot()
    ends = set(snapshot.source.values()) | set(snapshot.target.values())
    return ends - snapshot.nodes


# -- canonical bindings --------------------------------------------------------

def canon(value):
    if isinstance(value, Node):
        return ("n", value.id)
    if isinstance(value, Relationship):
        return ("r", value.id)
    if isinstance(value, list):
        return ("rs", tuple(rel.id for rel in value))
    if isinstance(value, Path):
        return (
            "p",
            tuple(node.id for node in value.nodes),
            tuple(rel.id for rel in value.relationships),
        )
    return value


def canon_bindings(bindings):
    return tuple(sorted((name, canon(v)) for name, v in bindings.items()))


# -- judge 1: brute force from the definition -----------------------------------

def brute_force(snapshot, paths, record, mode, hop_limit):
    """Every assignment satisfying the path list, by exhaustive scan."""
    trail = mode is MatchMode.TRAIL
    rel_ids = sorted(snapshot.relationships)
    found = []

    def holds(properties, stored):
        if properties is None:
            return True
        return all(
            cypher_eq(stored.get(key), literal_value(expr)) is True
            for key, expr in properties.items
        )

    def node_ok(pattern, node_id, row):
        if pattern.variable in row and row[pattern.variable] != ("n", node_id):
            return False
        labels = snapshot.labels.get(node_id, frozenset())
        stored = snapshot.node_properties.get(node_id, {})
        return set(pattern.labels) <= labels and holds(
            pattern.properties, stored
        )

    def hops(pattern, node_id):
        for rel_id in rel_ids:
            if pattern.types and snapshot.types[rel_id] not in pattern.types:
                continue
            source, target = snapshot.source[rel_id], snapshot.target[rel_id]
            if pattern.direction != ast.IN and source == node_id:
                other = target
            elif pattern.direction != ast.OUT and target == node_id:
                other = source
            else:
                continue
            if holds(pattern.properties, snapshot.rel_properties.get(rel_id, {})):
                yield rel_id, other

    def segments(pattern, node_id, used, lower, upper):
        """Walks of lower..upper hops from node_id: (rels, nodes)."""
        frontier = [((), (), node_id)]
        for depth in range(upper + 1):
            if depth >= lower:
                for rels, nodes, end in frontier:
                    yield rels, nodes, end
            frontier = [
                (rels + (rel_id,), nodes + (other,), other)
                for rels, nodes, end in frontier
                for rel_id, other in hops(pattern, end)
                if not trail or (rel_id not in used and rel_id not in rels)
            ]

    def walk(elements, index, current, nodes, rels, row, used, done):
        if index >= len(elements):
            yield from done(nodes, rels, row, used)
            return
        rel_p, node_p = elements[index], elements[index + 1]
        if rel_p.var_length is None:
            options = (
                ((rel_id,), (other,), other, ("r", rel_id))
                for rel_id, other in hops(rel_p, current)
                if not trail or rel_id not in used
            )
        else:
            lower, upper = rel_p.var_length
            lower = 1 if lower is None else lower
            upper = hop_limit if upper is None else upper
            options = (
                (seg_rels, seg_nodes, end, ("rs", seg_rels))
                for seg_rels, seg_nodes, end in segments(
                    rel_p, current, used, lower, upper
                )
            )
        for seg_rels, seg_nodes, end, rel_value in options:
            if rel_p.variable in row and row[rel_p.variable] != rel_value:
                continue
            if not node_ok(node_p, end, row):
                continue
            extended = dict(row)
            if rel_p.variable is not None:
                extended[rel_p.variable] = rel_value
            if node_p.variable is not None:
                extended[node_p.variable] = ("n", end)
            yield from walk(
                elements, index + 2, end, nodes + seg_nodes, rels + seg_rels,
                extended, used | set(seg_rels) if trail else used, done,
            )

    def match_path(index, row, used):
        if index == len(paths):
            found.append(tuple(sorted(row.items())))
            return
        path = paths[index]
        first = path.elements[0]

        def done(nodes, rels, row, used):
            if path.variable is not None and path.variable not in row:
                row = dict(row, **{path.variable: ("p", nodes, rels)})
            match_path(index + 1, row, used)
            return ()

        if first.variable in row:
            bound = row[first.variable]
            starts = [bound[1]] if bound is not None and bound[0] == "n" else []
        else:
            starts = sorted(snapshot.nodes)
        for start in starts:
            if not node_ok(first, start, row):
                continue
            extended = dict(row)
            if first.variable is not None:
                extended[first.variable] = ("n", start)
            for __ in walk(
                path.elements, 1, start, (start,), (), extended, used, done
            ):
                pass

    match_path(0, {name: canon(v) for name, v in record.items()}, frozenset())
    return found


def literal_value(expression):
    if isinstance(expression, ast.Literal):
        return expression.value
    assert isinstance(expression, ast.ListLiteral), expression
    return [literal_value(item) for item in expression.items]


# -- judge 2: repro.formal, on the fragment it covers ---------------------------

def in_formal_fragment(paths, record, store):
    for path in paths:
        if path.variable is not None:
            return False
        for element in path.elements:
            if isinstance(element, ast.RelationshipPattern) and (
                element.var_length is not None or element.direction == ast.BOTH
            ):
                return False
            if element.properties is not None and not all(
                isinstance(expr, ast.Literal)
                for __, expr in element.properties.items
            ):
                return False
    return all(not node.is_deleted for node in record.values())


def formal_matches(store, paths, record):
    row = {name: F.node_tag(node.id) for name, node in record.items()}
    found = []
    for match in F.match_rows(store.snapshot(), ast.Pattern(paths), row):
        found.append(
            tuple(
                sorted(
                    (name, ("n" if tag[0] == "node" else "r", tag[1]))
                    for name, tag in match.items()
                )
            )
        )
    return found


# -- judge 3: the order-defining reference --------------------------------------

def nested_reference(ctx, paths, record):
    prepared = PreparedPattern(ctx, tuple(paths))
    values = prepared.fresh_values(record)
    bindings, used, found = dict(record), set(), []

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


class TestMatcherAgainstItsOracles:
    @given(
        spec=graphs,
        kept=scripts,
        undone=scripts,
        text=pattern_texts(),
        bind=st.integers(0, 11),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_bindings_every_way(self, spec, kept, undone, text, bind):
        store = build(spec, kept, undone)
        paths = paths_of(text)
        # Half of the cases run from a record that already binds `a` --
        # to any node record, tombstones included.
        record = {}
        records = [
            node_id
            for node_id in range(store.next_ids()[0])
            if store.has_node(node_id) or node_id in buried(store)
        ]
        if bind % 2 and records:
            record["a"] = Node(store, records[(bind // 2) % len(records)])
        snapshot = store.snapshot()
        for mode in MatchMode:
            expected = brute_force(snapshot, paths, record, mode, hop_limit=3)
            reference_ctx = EvalContext(
                store=store, match_mode=mode, homomorphism_hop_limit=3
            )
            reference = nested_reference(reference_ctx, paths, record)
            assert Counter(reference) == Counter(expected)
            if mode is MatchMode.TRAIL and in_formal_fragment(
                paths, record, store
            ):
                assert Counter(formal_matches(store, paths, record)) == (
                    Counter(expected)
                )
            for planned, preserve in (
                (False, False), (True, False), (True, True)
            ):
                ctx = EvalContext(
                    store=store,
                    match_mode=mode,
                    homomorphism_hop_limit=3,
                    use_planner=planned,
                    preserve_match_order=preserve,
                )
                found = [
                    canon_bindings(b) for b in match_paths(ctx, paths, record)
                ]
                if planned and snapshot.has_dangling():
                    # Known, older than this test: a tombstone is
                    # reached by expansion but never anchored at, so
                    # with dangling relationships the result depends on
                    # where a path starts.  The written plan is the
                    # definition; the planner is held to it on
                    # well-formed graphs only (ROADMAP item 5).
                    continue
                if planned and not preserve:
                    assert Counter(found) == Counter(reference)
                else:
                    assert found == reference  # same matches, same order
