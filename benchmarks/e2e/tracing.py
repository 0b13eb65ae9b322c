"""Outside-in tracing: spans around the calls into each layer.

Every span is recorded by this package around a public call of the
program (``Graph.profile``, the store's commit hook, ``Graph.open``,
``Client.run`` ...); nothing inside ``src/`` is instrumented.  Spans
stay in memory until the run ends.  A layer's self time is its spans'
duration minus what their child spans cover.

Span names are layer names: ``op`` (the generator's own loop),
``engine.run`` (a ``Graph.profile`` call; its self time is statement
overhead: AST cache, scoping, rewrite, commit), ``runtime.match`` /
``runtime.project`` / ``core.update`` (PROFILE clause entries, laid
end to end from their parent's start because the profile publishes
durations, not positions), ``persistence.log_commit`` (the shim around
the manager's commit hook), ``persistence.checkpoint``,
``persistence.restore``, ``graph.load_store``, ``views.read``,
``client.run`` and ``service.run``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import CypherError

from .measure import clock

_MATCH = ("Match", "OptionalMatch")
_UPDATE_PREFIXES = (
    "AtomicSet",
    "LegacySet",
    "StrictDelete",
    "LegacyDelete",
    "Remove",
    "Create",
    "Foreach",
    "Merge",
    "LegacyMerge",
)


def clause_layer(label: str) -> str:
    """The layer a PROFILE clause entry belongs to."""
    name = label.split(" ", 1)[0]
    if name in _MATCH:
        return "runtime.match"
    if name.startswith(_UPDATE_PREFIXES):
        return "core.update"
    return "runtime.project"


class Tracer:
    """In-memory span and count recorder (thread-safe appends)."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or None, op id or None)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        #: counts as they stood when the first traced block ended; a
        #: fixed prefix of the stream, so they repeat exactly per seed
        self.first_block_counts: dict[str, int] | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op_id: int | None = None) -> Iterator[int]:
        """Record a span around the body; nests under the open span."""
        stack = self._stack()
        parent, parent_op = stack[-1] if stack else (None, None)
        if op_id is None:
            op_id = parent_op
        span_id = next(self._ids)
        stack.append((span_id, op_id))
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, op_id))

    def add_child(
        self, name: str, start: float, seconds: float, parent: int
    ) -> int:
        """Record a span measured by the program itself (clause entry)."""
        span_id = next(self._ids)
        stack = self._stack()
        op_id = stack[-1][1] if stack else None
        self.spans.append(
            (span_id, name, start, start + seconds, parent, op_id)
        )
        return span_id

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def end_block(self) -> None:
        if self.first_block_counts is None:
            self.first_block_counts = dict(self.counts)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name (duration minus children)."""
        children: dict[int, float] = {}
        for __, __, start, end, parent, __ in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, name, start, end, __, __ in self.spans:
            own = (end - start) - children.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def to_json(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "op_id")
        return [dict(zip(keys, span)) for span in self.spans]


def traced_run(tracer: Tracer, graph: Any) -> Callable[[str, dict], Any]:
    """``graph.run`` replaced by a spanned ``graph.profile`` call.

    Returns the statement's ``QueryResult``.  A statement that aborts
    raises as usual; its profile is lost with it, so it contributes an
    ``engine.run`` span and an abort count but no clause entries.
    """

    def run(text: str, params: dict) -> Any:
        tracer.count("statements")
        with tracer.span("engine.run") as span_id:
            start = clock()
            try:
                profile = graph.profile(text, params)
            except CypherError:
                tracer.count("aborts")
                raise
        _add_clauses(tracer, profile.clauses, start, span_id)
        hits = profile.hits
        tracer.count("read_hits", hits.total - hits.writes)
        tracer.count("write_hits", hits.writes)
        tracer.count("rows", len(profile.result.records))
        return profile.result

    return run


def _add_clauses(
    tracer: Tracer, clauses: list, start: float, parent: int
) -> None:
    for clause in clauses:
        seconds = clause.time_ms / 1000
        span_id = tracer.add_child(
            clause_layer(clause.label), start, seconds, parent
        )
        _add_clauses(tracer, clause.children, start, span_id)
        start += seconds


def shim_commit_hook(tracer: Tracer, store: Any) -> None:
    """Interpose a timing shim around the store's installed commit hook."""
    hook = store.commit_hook()

    def shim(ops: list) -> None:
        tracer.count("commits")
        with tracer.span("persistence.log_commit"):
            hook(ops)

    store.set_commit_hook(shim)
