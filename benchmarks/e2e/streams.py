"""Operation streams: a pure function of ``(workload, seed, nodes, client)``.

The program under test only ever sees the generated statements; every
random choice comes from one ``random.Random`` seeded with a string, so
two generator instances with the same arguments yield the same ops and
another seed yields others.  Streams are endless -- the runner decides
how many ops a run takes -- and each op carries what the generator
expects of it, so an op whose outcome differs counts as failed.

The ids are those of ``repro.bulkload.write_synthetic_csv``: node ``i``
is ``:Person {id: i, name: 'p<i>'}``, every tenth is also ``:Admin``,
each has one outgoing ``FOLLOWS`` and ``KNOWS_PER_NODE`` outgoing
``KNOWS {w}`` relationships.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

RELS_PER_NODE = 4
KNOWS_PER_NODE = RELS_PER_NODE - 1


@dataclass(frozen=True)
class Op:
    """One operation and what the generator expects of it.

    ``expect`` maps ``rows`` to a row count, ``error`` to the name of
    the error class a must-abort statement raises, and any
    ``UpdateCounters`` field to its value.  A non-empty ``steps`` makes
    the op one explicit transaction: begin, each ``(text, params)``
    write, commit.
    """

    kind: str
    text: str = ""
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    steps: tuple = ()


class Zipf:
    """Zipf(1.0) draws over a seed-permuted id space ``0..n-1``."""

    def __init__(self, rng: random.Random, n: int):
        self._rng = rng
        self._ids = list(range(n))
        rng.shuffle(self._ids)
        self._cumulative = list(
            itertools.accumulate(1.0 / rank for rank in range(1, n + 1))
        )

    def draw(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return self._ids[bisect.bisect_left(self._cumulative, point)]


def _deck(rng: random.Random, mix: tuple) -> Iterator[str]:
    """Op kinds dealt from reshuffled decks of ``((cards, kind), ...)``.

    Any run of whole decks holds every kind in exactly its share, so
    blocks sized in whole decks all do the same mix of work and differ
    only in order and parameters.
    """
    deck = [kind for cards, kind in mix for __ in range(cards)]
    while True:
        rng.shuffle(deck)
        yield from deck


def _inline(text: str, params: dict) -> tuple[str, dict]:
    """Write integer parameters into the text, making it unique."""
    for name in sorted(params, key=len, reverse=True):
        text = text.replace("$" + name, repr(params[name]))
    return text, {}


# ----------------------------------------------------------------------
# oltp_read
# ----------------------------------------------------------------------

POINT_NAME = "MATCH (p:Person {id:$id}) RETURN p.id AS id, p.name AS name"
POINT_LABELS = (
    "MATCH (p:Person {id:$id}) RETURN labels(p) AS labels, p.name AS name"
)
HOP_KNOWS = (
    "MATCH (p:Person {id:$id})-[k:KNOWS]->(f:Person) "
    "RETURN f.id AS id, k.w AS w"
)
HOP_FOLLOWS = (
    "MATCH (p:Person {id:$id})-[:FOLLOWS]->(f:Person) "
    "RETURN f.id AS id, f.name AS name"
)
TWO_HOP_KNOWS = (
    "MATCH (p:Person {id:$id})-[:KNOWS]->(:Person)-[:KNOWS]->(f:Person) "
    "RETURN count(DISTINCT f) AS c"
)
TWO_HOP_FOLLOWS = (
    "MATCH (p:Person {id:$id})-[:FOLLOWS]->(:Person)-[:KNOWS]->(f:Person) "
    "RETURN count(DISTINCT f) AS c"
)

_OLTP_MIX = (
    (30, "point_name"),
    (30, "point_labels"),
    (15, "hop_knows"),
    (10, "hop_follows"),
    (8, "two_hop_knows"),
    (7, "two_hop_follows"),
)
_OLTP_TEXT = {
    "point_name": ("point", POINT_NAME, 1),
    "point_labels": ("point", POINT_LABELS, 1),
    "hop_knows": ("one_hop", HOP_KNOWS, KNOWS_PER_NODE),
    "hop_follows": ("one_hop", HOP_FOLLOWS, 1),
    "two_hop_knows": ("two_hop", TWO_HOP_KNOWS, 1),
    "two_hop_follows": ("two_hop", TWO_HOP_FOLLOWS, 1),
}


def _oltp_read(rng: random.Random, nodes: int, client: int) -> Iterator[Op]:
    keys = Zipf(rng, nodes)
    for name in _deck(rng, _OLTP_MIX):
        kind, text, rows = _OLTP_TEXT[name]
        yield Op(kind, text, {"id": keys.draw()}, {"rows": rows})


# ----------------------------------------------------------------------
# analytic_scan
# ----------------------------------------------------------------------

SCAN_EXPAND = (
    "MATCH (a:Admin) WHERE a.id < $hi WITH a "
    "MATCH (a)-[k:KNOWS]->(f:Person) WHERE k.w >= $w "
    "RETURN count(*) AS c, avg(k.w) AS m"
)
SCAN_TWO_HOP = (
    "MATCH (a:Admin) WHERE a.id >= $lo AND a.id < $hi WITH a "
    "MATCH (a)-[:KNOWS]->(:Person)-[k:KNOWS]->(h:Person) WHERE k.w >= $w "
    "RETURN count(DISTINCT h) AS c"
)
SCAN_GROUPED = (
    "MATCH (a:Admin) WHERE a.id >= $lo AND a.id < $hi WITH a "
    "MATCH (a)-[k:KNOWS]->(f:Person) "
    "RETURN k.w % 10 AS bucket, count(*) AS c, avg(f.id) AS m "
    "ORDER BY bucket"
)
SCAN_FILTER = (
    "MATCH (p:Admin) WHERE p.id % $m = $r "
    "RETURN count(p) AS c, min(p.id) AS lo, max(p.id) AS hi"
)

_SCAN_MIX = ((6, "expand"), (5, "two_hop"), (5, "grouped"), (4, "filter"))


def _analytic_scan(
    rng: random.Random, nodes: int, client: int
) -> Iterator[Op]:
    # Every op scans the 10% :Admin label set and expands a window of
    # it, so the rows examined (and the time) grow with the dataset.
    # Window sizes are drawn from a range, so the slowest twentieth of
    # the ops are the widest windows -- a property of the stream -- and
    # not whichever ops the machine happened to disturb.
    def window(smallest: int, largest: int) -> tuple[int, int]:
        size = rng.randrange(smallest, largest)
        lo = rng.randrange(0, nodes - size)
        return lo, lo + size

    for kind in _deck(rng, _SCAN_MIX):
        if kind == "expand":
            hi = rng.randrange(nodes // 40, nodes * 6 // 40)
            params = {"hi": hi, "w": rng.randrange(20, 80)}
            yield Op(kind, SCAN_EXPAND, params, {"rows": 1})
        elif kind == "two_hop":
            lo, hi = window(nodes // 80, nodes // 20)
            params = {"lo": lo, "hi": hi, "w": rng.randrange(50)}
            yield Op(kind, SCAN_TWO_HOP, params, {"rows": 1})
        elif kind == "grouped":
            lo, hi = window(nodes // 40, nodes * 6 // 40)
            yield Op(kind, SCAN_GROUPED, {"lo": lo, "hi": hi})
        else:
            modulus = rng.randrange(3, 12)
            params = {"m": modulus, "r": rng.randrange(modulus)}
            yield Op(kind, SCAN_FILTER, params, {"rows": 1})


# ----------------------------------------------------------------------
# update_mix (and durable_update_mix, which runs the same stream)
# ----------------------------------------------------------------------

#: indexes the update statements rely on, created during set-up
UPDATE_INDEXES = (
    ("Customer", "cid"),
    ("Product", "pid"),
    ("Post", "k"),
    ("Event", "k"),
)

SET_PROP = "MATCH (p:Person {id:$id}) SET p.score = $v"
SET_SWAP = (  # paper Example 1: both sides read the pre-clause graph
    "MATCH (a:Person {id:$a}), (b:Person {id:$b}) "
    "SET a.name = b.name, b.name = a.name"
)
CREATE_POST = (
    "MATCH (p:Person {id:$id}) CREATE (p)-[:POSTED {at:$k}]->(:Post {k:$k})"
)
CREATE_EVENT_PATH = "CREATE (:Event {k:$k})-[:AT]->(:Place {k:$k})"
REMOVE_PROP = "MATCH (p:Person {id:$id}) REMOVE p.score"
SET_LABEL = "MATCH (p:Person {id:$id}) SET p:Flagged"
REMOVE_LABEL = "MATCH (p:Person {id:$id}) REMOVE p:Flagged"
DELETE_POST = "MATCH (n:Post {k:$k}) DETACH DELETE n"
DELETE_EVENT = "MATCH (n:Event {k:$k}) DETACH DELETE n"
MERGE_SAME = (  # paper Example 5 over a driving table with duplicates
    "UNWIND $rows AS r MERGE SAME "
    "(c:Customer {cid:r.cid})-[:ORDERED]->(p:Product {pid:r.pid})"
)
MERGE_ALL = (
    "UNWIND $rows AS r MERGE ALL "
    "(c:Customer {cid:r.cid})-[:ORDERED]->(p:Product {pid:r.pid})"
)
FOREACH_CREATE = "FOREACH (i IN range(1, $n) | CREATE (:Tick {k:$k, i:i}))"
ABORT_CONFLICT = (  # paper Example 2: two rows set one property differently
    "MATCH (p:Person {id:$id}) UNWIND [1, 2] AS v SET p.score = v"
)
ABORT_DANGLING = "MATCH (p:Person {id:$id}) DELETE p"  # paper section 4.2

_UPDATE_MIX = (
    (20, "set_prop"),
    (15, "set_swap"),
    (15, "create_path"),
    (10, "remove_label"),
    (10, "detach_delete"),
    (12, "merge_same"),
    (8, "merge_all"),
    (5, "foreach"),
    (5, "abort"),
)
#: rows per MERGE driving table; the key space is small enough to fill up
#: during the first blocks, so MERGE mostly matches (the null keys and the
#: rest still create) and its cost stays level over a run
MERGE_ROWS = 20
_CUSTOMERS = 50
_PRODUCTS = 20


def _merge_rows(rng: random.Random, count: int) -> list[dict]:
    rows = [
        {
            # one key in 25 is null: MERGE can never match it
            "cid": None if rng.random() < 0.04 else rng.randrange(_CUSTOMERS),
            "pid": rng.randrange(_PRODUCTS),
        }
        for __ in range(count)
    ]
    rows[-1] = dict(rows[0])  # at least one duplicate row
    return rows


def _update_mix(rng: random.Random, nodes: int, client: int) -> Iterator[Op]:
    keys = Zipf(rng, nodes)
    fresh = itertools.count(1)
    turn = itertools.count()
    deletable: deque[tuple[str, int]] = deque()  # (delete text, key)

    def single(kind: str, text: str, params: dict, expect: dict) -> Op:
        # Half of the single-row statements carry their literals in the
        # text, so the distinct texts outgrow the engine's AST cache.
        if rng.random() < 0.5:
            text, params = _inline(text, params)
        return Op(kind, text, params, expect)

    def create_path() -> Op:
        key = next(fresh)
        if key % 2:
            deletable.append((DELETE_POST, key))
            return single(
                "create_path",
                CREATE_POST,
                {"id": keys.draw(), "k": key},
                {"nodes_created": 1, "relationships_created": 1},
            )
        deletable.append((DELETE_EVENT, key))
        return single(
            "create_path",
            CREATE_EVENT_PATH,
            {"k": key},
            {"nodes_created": 2, "relationships_created": 1},
        )

    for kind in _deck(rng, _UPDATE_MIX):
        if kind == "set_prop":
            yield single(
                kind,
                SET_PROP,
                {"id": keys.draw(), "v": rng.randrange(1000)},
                {"properties_set": 1},
            )
        elif kind == "set_swap":
            a = keys.draw()
            b = keys.draw()
            while b == a:
                b = keys.draw()
            yield single(
                kind, SET_SWAP, {"a": a, "b": b}, {"properties_set": 2}
            )
        elif kind == "create_path":
            yield create_path()
        elif kind == "remove_label":
            text = (REMOVE_PROP, SET_LABEL, REMOVE_LABEL)[next(turn) % 3]
            yield single(kind, text, {"id": keys.draw()}, {})
        elif kind == "detach_delete":
            if not deletable:
                yield create_path()
                continue
            text, key = deletable.popleft()
            yield single(
                kind,
                text,
                {"k": key},
                {"nodes_deleted": 1, "relationships_deleted": 1},
            )
        elif kind == "merge_same":
            yield Op(kind, MERGE_SAME, {"rows": _merge_rows(rng, MERGE_ROWS)})
        elif kind == "merge_all":
            yield Op(kind, MERGE_ALL, {"rows": _merge_rows(rng, MERGE_ROWS)})
        elif kind == "foreach":
            yield Op(
                kind,
                FOREACH_CREATE,
                {"n": 5, "k": next(fresh)},
                {"nodes_created": 5},
            )
        elif next(turn) % 2:
            yield single(
                "abort",
                ABORT_CONFLICT,
                {"id": keys.draw()},
                {"error": "PropertyConflictError"},
            )
        else:
            yield single(
                "abort",
                ABORT_DANGLING,
                {"id": keys.draw()},
                {"error": "DanglingRelationshipError"},
            )


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------

#: indexes the service's MERGE statements rely on, created during set-up
SERVICE_INDEXES = (("Customer", "cid"), ("Product", "pid"))

CREATE_EVENT = "CREATE (:Event {client:$c, seq:$n, half:$h})"

_SERVICE_MIX = (
    (45, "point"),
    (25, "one_hop"),
    (8, "set_prop"),
    (7, "create_event"),
    (5, "merge_same"),
    (10, "tx"),
)


def _service_mixed(
    rng: random.Random, nodes: int, client: int
) -> Iterator[Op]:
    keys = Zipf(rng, nodes)
    sequence = itertools.count(1)

    def event(half: int, seq: int) -> tuple[str, dict]:
        return CREATE_EVENT, {"c": client, "n": seq, "h": half}

    for kind in _deck(rng, _SERVICE_MIX):
        if kind == "point":
            yield Op(kind, POINT_NAME, {"id": keys.draw()}, {"rows": 1})
        elif kind == "one_hop":
            yield Op(
                kind, HOP_KNOWS, {"id": keys.draw()}, {"rows": KNOWS_PER_NODE}
            )
        elif kind == "set_prop":
            yield Op(
                kind,
                SET_PROP,
                {"id": keys.draw(), "v": rng.randrange(1000)},
                {"properties_set": 1},
            )
        elif kind == "create_event":
            text, params = event(0, next(sequence))
            yield Op(kind, text, params, {"nodes_created": 1})
        elif kind == "merge_same":
            yield Op(kind, MERGE_SAME, {"rows": _merge_rows(rng, 5)})
        else:
            seq = next(sequence)
            yield Op(kind, steps=(event(1, seq), event(2, seq)))


# ----------------------------------------------------------------------
# view_maintenance
# ----------------------------------------------------------------------

VIEW_DELTA = (
    "MATCH (a:Admin)-[k:KNOWS]->(f:Person) WHERE k.w >= 95 "
    "RETURN a.id AS a, f.id AS f"
)
VIEW_AGGREGATE = "MATCH (p:Admin) RETURN count(p) AS c"

CREATE_KNOWS = (
    "MATCH (a:Person {id:$a}), (b:Person {id:$b}) "
    "CREATE (a)-[:KNOWS {w:$w}]->(b)"
)
DELETE_KNOWS = (
    "MATCH (a:Person {id:$a})-[k:KNOWS {w:$w}]->(b:Person {id:$b}) DELETE k"
)
SET_ADMIN = "MATCH (p:Person {id:$id}) SET p:Admin"
REMOVE_ADMIN = "MATCH (p:Person {id:$id}) REMOVE p:Admin"

_VIEW_MIX = ((5, "irrelevant"), (3, "relevant"), (2, "promote"))
#: relevant changes the stream keeps in the graph before undoing the
#: oldest, so both views stay the size they start with over a long run
_VIEW_WINDOW = 20


def _view_maintenance(
    rng: random.Random, nodes: int, client: int
) -> Iterator[Op]:
    # Each created relationship carries its own w >= 95, so the delete
    # that later undoes it removes exactly that one.
    weight = itertools.count(100)
    created: deque[dict] = deque()
    promoted: deque[int] = deque()
    for kind in _deck(rng, _VIEW_MIX):
        if kind == "irrelevant":
            yield Op(
                kind,
                SET_PROP,
                {"id": rng.randrange(nodes), "v": rng.randrange(1000)},
                {"properties_set": 1},
            )
        elif kind == "relevant":
            if len(created) > _VIEW_WINDOW:
                yield Op(
                    kind,
                    DELETE_KNOWS,
                    created.popleft(),
                    {"relationships_deleted": 1},
                )
                continue
            params = {
                "a": rng.randrange(nodes // 10) * 10,  # an :Admin
                "b": rng.randrange(nodes),
                "w": next(weight),
            }
            created.append(params)
            yield Op(kind, CREATE_KNOWS, params, {"relationships_created": 1})
        elif len(promoted) > _VIEW_WINDOW:
            yield Op(
                kind,
                REMOVE_ADMIN,
                {"id": promoted.popleft()},
                {"labels_removed": 1},
            )
        else:
            # never a born :Admin, so the undo cannot demote one
            node = 0
            while node % 10 == 0 or node in promoted:
                node = rng.randrange(nodes)
            promoted.append(node)
            yield Op(kind, SET_ADMIN, {"id": node}, {"labels_added": 1})


_STREAMS: dict[str, Callable[[random.Random, int, int], Iterator[Op]]] = {
    "oltp_read": _oltp_read,
    "analytic_scan": _analytic_scan,
    "update_mix": _update_mix,
    "service_mixed": _service_mixed,
    "view_maintenance": _view_maintenance,
}


def op_stream(
    stream: str, seed: int, nodes: int, client: int = 0
) -> Iterator[Op]:
    """The endless op stream of *stream* for *seed* over *nodes* ids."""
    rng = random.Random(f"{stream}/{seed}/{client}")
    return _STREAMS[stream](rng, nodes, client)
