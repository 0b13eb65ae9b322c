"""Materialized views maintained from the committed redo-op stream.

A :class:`ViewRegistry` attaches to one :class:`GraphStore` as a commit
observer.  Registered read-only queries are materialized once and then
kept current *incrementally*: every committed statement's redo ops are
queued per view, and on the next read the view either

* proves the whole backlog irrelevant under its :class:`Footprint` and
  keeps the cached result **by object identity** (precise
  invalidation),
* replays the delta rules -- re-matching only the records whose bound
  entities were touched -- and re-projects (delta-maintainable
  shapes), or
* re-executes from scratch (conservative fallback for aggregates,
  var-length paths, OPTIONAL MATCH, unions, ...).

Maintenance is *lazy*: commits only enqueue (O(ops) per view), reads
pay for catching up.  That keeps the write path unslowed and means a
burst of writes between two reads is coalesced into one refresh.

Equivalence with full re-execution is the contract -- exact record
order under the legacy dialect (planner-off naive enumeration order),
bag equality under the revised dialect -- and is enforced end to end
by ``python -m repro.fuzz --views N`` and the Hypothesis suite in
``tests/properties/test_view_maintenance.py``.

Consistency with transactions and snapshot reads:

* ops are observed only at *commit* (statement-level autocommit,
  ``commit_transaction`` or a schema change), stamped with the store's
  one LSN; rolled-back work never reaches a view;
* while a multi-statement transaction is open, or while the store is
  rewound inside a :meth:`GraphStore.reverted_to` bracket, refresh is
  suspended and reads serve the last published (fully consistent)
  result -- a snapshot reader can never observe half-applied view
  state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from threading import RLock
from typing import Any, Callable, Mapping, Optional

from repro.dialect import Dialect
from repro.engine import CypherEngine, statement_is_read_only
from repro.errors import CypherError, TransactionError
from repro.graph.store import GraphStore
from repro.parser import ast
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.pipeline import execute_clauses
from repro.runtime.table import DrivingTable
from repro.views.analysis import SCHEMA_KINDS, ViewPlan, analyse


@dataclass(frozen=True)
class ViewResult:
    """One published materialization of a view."""

    columns: tuple[str, ...]
    records: tuple[dict, ...]
    #: store LSN this result was computed at
    lsn: int

    def to_dicts(self) -> list[dict]:
        return [dict(record) for record in self.records]


@dataclass
class ViewStats:
    """Per-view maintenance accounting (the ``:views`` surface)."""

    view_id: str
    source: str
    dialect: str
    mode: str  # "delta" or "full"
    registered_lsn: int
    covered_lsn: int = 0
    rows: int = 0
    #: commit batches enqueued since registration
    batches_seen: int = 0
    #: batches proven irrelevant (cache kept by identity)
    batches_skipped: int = 0
    #: delta refreshes performed (delta mode only)
    delta_refreshes: int = 0
    #: full recomputations (initial materialization included)
    full_refreshes: int = 0
    #: cumulative seconds spent maintaining (delta + full)
    maintenance_s: float = 0.0
    #: seconds of the most recent full re-execution (the cost a
    #: non-maintained reader would pay per read)
    reexec_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "id": self.view_id,
            "source": self.source,
            "dialect": self.dialect,
            "mode": self.mode,
            "registered_lsn": self.registered_lsn,
            "covered_lsn": self.covered_lsn,
            "rows": self.rows,
            "batches_seen": self.batches_seen,
            "batches_skipped": self.batches_skipped,
            "delta_refreshes": self.delta_refreshes,
            "full_refreshes": self.full_refreshes,
            "maintenance_s": self.maintenance_s,
            "reexec_s": self.reexec_s,
        }


@dataclass
class _Entry:
    """One maintained binding row of a delta view.

    ``key`` reproduces the naive matcher's enumeration order for a
    single fixed-length path: anchor node id, then relationship ids in
    step order.  Keeping the entry list sorted by it keeps delta
    results byte-equal to planner-off re-execution in *both* dialects.
    """

    key: tuple
    node_ids: tuple[int, ...]
    rel_ids: tuple[int, ...]
    bindings: dict


class View:
    """A registered query plus its maintained state."""

    def __init__(
        self,
        view_id: str,
        source: str,
        statement: ast.Statement,
        dialect: Dialect,
        parameters: Mapping[str, Any],
        store: GraphStore,
        match_mode: MatchMode,
        extended_merge: bool = False,
    ):
        self.id = view_id
        self.source = source
        self.statement = statement
        self.dialect = dialect
        self.parameters = dict(parameters)
        self._store = store
        self._match_mode = match_mode
        self.plan: Optional[ViewPlan] = analyse(statement)
        #: fallback executor; planner off = the order-defining naive
        #: reference surface in both dialects
        self._engine = CypherEngine(
            store,
            dialect,
            extended_merge=extended_merge,
            match_mode=match_mode,
            use_planner=False,
            workers=1,
        )
        self._entries: list[_Entry] = []
        self._pending: list[tuple[int, tuple]] = []
        self._result: Optional[ViewResult] = None
        self.stats = ViewStats(
            view_id=view_id,
            source=source,
            dialect=dialect.value,
            mode="delta" if self.plan is not None else "full",
            registered_lsn=store.lsn,
        )
        self._materialize()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def covered_lsn(self) -> int:
        """Highest store LSN this view is known current through."""
        return self.stats.covered_lsn

    def result(self) -> ViewResult:
        """The current result, catching up on pending commits first.

        Unchanged (or provably irrelevant) backlogs return the cached
        :class:`ViewResult` *object* -- callers can use identity as a
        no-change fast path.
        """
        self._refresh()
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _enqueue(self, lsn: int, ops: tuple) -> None:
        self._pending.append((lsn, ops))
        self.stats.batches_seen += 1

    def _refresh(self) -> None:
        store = self._store
        if store.in_transaction() or store.in_reverted_read:
            # The store is mid-transaction or rewound to an older
            # snapshot: pending batches describe state we must not read
            # right now.  Serve the last published result untouched.
            return
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        covered = pending[-1][0]
        ops = [
            op
            for _, batch in pending
            for op in batch
            if op[0] not in SCHEMA_KINDS
        ]
        if not self._any_relevant(ops):
            self.stats.batches_skipped += len(pending)
            self.stats.covered_lsn = covered
            return
        started = time.perf_counter()
        if self.plan is None:
            self._full_refresh(covered)
        else:
            self._delta_refresh(ops, covered)
        self.stats.maintenance_s += time.perf_counter() - started

    def _any_relevant(self, ops: list[tuple]) -> bool:
        if self.plan is None:
            # Fallback views have no footprint model beyond "did any
            # data change": any data operation invalidates.
            return bool(ops)
        footprint = self.plan.footprint
        node_prov: set[int] = set()
        rel_prov: set[int] = set()
        for entry in self._entries:
            node_prov.update(entry.node_ids)
            rel_prov.update(entry.rel_ids)
        return any(
            footprint.op_relevant(op, node_prov, rel_prov) for op in ops
        )

    def _materialize(self) -> None:
        started = time.perf_counter()
        self._full_refresh(self._store.lsn)
        self.stats.maintenance_s += time.perf_counter() - started

    def _full_refresh(self, covered: int) -> None:
        started = time.perf_counter()
        if self.plan is not None:
            # Rebuild the binding table too, so delta maintenance can
            # resume from the fresh state.
            self._entries = self._match_entries()
            self._publish(covered)
        else:
            result = self._engine.execute(self.statement, self.parameters)
            self._result = ViewResult(
                columns=result.columns,
                records=tuple(result.records),
                lsn=covered,
            )
            self.stats.covered_lsn = covered
            self.stats.rows = len(self._result.records)
        self.stats.full_refreshes += 1
        self.stats.reexec_s = time.perf_counter() - started

    def _match_entries(self) -> list[_Entry]:
        plan = self.plan
        assert plan is not None
        ctx = self._eval_context()
        out = execute_clauses(
            ctx, (plan.match_clause,), DrivingTable.unit(), self.dialect
        )
        entries = [
            self._entry_for(record) for record in out.to_dicts()
        ]
        entries.sort(key=lambda entry: entry.key)
        return entries

    def _entry_for(self, bindings: dict) -> _Entry:
        plan = self.plan
        assert plan is not None
        node_ids = tuple(bindings[v].id for v in plan.node_vars)
        rel_ids = tuple(bindings[v].id for v in plan.rel_vars)
        return _Entry(
            key=(node_ids[0],) + rel_ids,
            node_ids=node_ids,
            rel_ids=rel_ids,
            bindings=bindings,
        )

    def _delta_refresh(self, ops: list[tuple], covered: int) -> None:
        plan = self.plan
        assert plan is not None
        store = self._store
        affected: set[int] = set()
        dead_nodes: set[int] = set()
        dead_rels: set[int] = set()
        for op in ops:
            kind = op[0]
            if kind == "create_node":
                affected.add(op[1])
            elif kind == "create_rel":
                affected.add(op[3])
                affected.add(op[4])
            elif kind == "delete_node":
                dead_nodes.add(op[1])
            elif kind == "delete_rel":
                dead_rels.add(op[1])
            elif kind in ("add_label", "remove_label", "set_node_prop"):
                affected.add(op[1])
            elif kind == "set_rel_prop":
                # A changed relationship invalidates every row binding
                # it; re-driving both endpoints regenerates those rows
                # with fresh values.  If the relationship was deleted
                # later in the same backlog, delete_rel covers it.
                if store.has_relationship(op[1]):
                    affected.add(store.rel_source(op[1]))
                    affected.add(store.rel_target(op[1]))
                else:
                    dead_rels.add(op[1])
            else:  # unknown op kind: stay correct, not fast
                self._full_refresh(covered)
                return
        stale = affected | dead_nodes
        kept = [
            entry
            for entry in self._entries
            if not (
                stale.intersection(entry.node_ids)
                or dead_rels.intersection(entry.rel_ids)
            )
        ]
        live = sorted(
            i for i in affected - dead_nodes if store.has_node(i)
        )
        fresh: list[_Entry] = []
        if live:
            live_set = set(live)
            starts = self._seed_starts(live_set)
            var0 = plan.node_vars[0]
            table = DrivingTable(
                (var0,), [{var0: store.node(i)} for i in starts]
            )
            out = execute_clauses(
                self._eval_context(),
                (plan.match_clause,),
                table,
                self.dialect,
            )
            for record in out.to_dicts():
                entry = self._entry_for(record)
                # Rows with no affected node survive in ``kept``; only
                # touched rows are regenerated (each exactly once --
                # one driving row per distinct start node).
                if live_set.intersection(entry.node_ids):
                    fresh.append(entry)
        self._entries = sorted(
            kept + fresh, key=lambda entry: entry.key
        )
        self._publish(covered)
        self.stats.delta_refreshes += 1

    def _seed_starts(self, live_set: set[int]) -> list[int]:
        """Candidate position-0 nodes for rows touching a live node.

        A row binding an affected node at position *k* starts at a
        node reachable by walking the pattern's first *k* steps
        backwards from it.  One backward dynamic-programming pass
        computes the union over every *k*: ``C_j`` is the node set
        that could occupy position *j* on a row passing through an
        affected node at position >= *j*; stepping ``C_{j+1}`` back
        through step *j* (ignoring labels and property maps -- the
        forward re-match filters exactly) and adding the affected set
        yields ``C_j``.  The result is proportional to the affected
        neighbourhood, never to the store.
        """
        store = self._store
        frontier = set(live_set)
        for step in reversed(self._rel_steps()):
            types = step.types or None
            outgoing = step.direction in (ast.IN, ast.BOTH)
            incoming = step.direction in (ast.OUT, ast.BOTH)
            previous: set[int] = set()
            for node_id in frontier:
                if not store.has_node(node_id):
                    continue
                for rel_id in store.adjacent_rel_ids(
                    node_id,
                    outgoing=outgoing,
                    incoming=incoming,
                    types=types,
                ):
                    source = store.rel_source(rel_id)
                    target = store.rel_target(rel_id)
                    previous.add(source if target == node_id else target)
            frontier = previous | live_set
        return sorted(i for i in frontier if store.has_node(i))

    def _rel_steps(self) -> list[ast.RelationshipPattern]:
        assert self.plan is not None
        path = self.plan.match_clause.pattern.paths[0]
        return [
            element
            for element in path.elements
            if isinstance(element, ast.RelationshipPattern)
        ]

    def _publish(self, covered: int) -> None:
        """Re-project the maintained binding table into the result."""
        plan = self.plan
        assert plan is not None
        rows = [
            {v: entry.bindings[v] for v in plan.visible_vars}
            for entry in self._entries
        ]
        table = DrivingTable(plan.visible_vars, rows)
        out = execute_clauses(
            self._eval_context(), plan.post_clauses, table, self.dialect
        )
        self._result = ViewResult(
            columns=out.columns,
            records=tuple(out.to_dicts()),
            lsn=covered,
        )
        self.stats.covered_lsn = covered
        self.stats.rows = len(self._result.records)

    def _eval_context(self) -> EvalContext:
        return EvalContext(
            store=self._store,
            parameters=self.parameters,
            match_mode=self._match_mode,
            use_planner=False,
            preserve_match_order=self.dialect is Dialect.CYPHER9,
            workers=1,
        )


class ViewRegistry:
    """All views over one store, fed from its commit-observer stream."""

    def __init__(
        self,
        store: GraphStore,
        *,
        match_mode: MatchMode | str = MatchMode.TRAIL,
        extended_merge: bool = False,
    ):
        self._store = store
        self._match_mode = (
            match_mode
            if isinstance(match_mode, MatchMode)
            else MatchMode(match_mode)
        )
        self._extended_merge = extended_merge
        self._views: dict[str, View] = {}
        #: semantic cache: identical (source, dialect, params) share
        #: one maintained materialization
        self._by_query: dict[tuple, str] = {}
        self._counter = 0
        self._lock = RLock()
        self._listeners: list[Callable[[int], None]] = []
        self._closed = False
        store.add_commit_observer(self._on_commit)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        source: str,
        *,
        dialect: Dialect | str = Dialect.REVISED,
        parameters: Mapping[str, Any] | None = None,
    ) -> View:
        """Register (or share) a read-only query as a maintained view."""
        dialect = Dialect.parse(dialect)
        parameters = dict(parameters or {})
        with self._lock:
            if self._closed:
                raise CypherError("view registry is closed")
            if (
                self._store.in_transaction()
                or self._store.in_reverted_read
            ):
                raise TransactionError(
                    "cannot register a view inside an open transaction"
                )
            key = self._query_key(source, dialect, parameters)
            existing = self._by_query.get(key)
            if existing is not None and existing in self._views:
                return self._views[existing]
            engine = CypherEngine(
                self._store,
                dialect,
                extended_merge=self._extended_merge,
                match_mode=self._match_mode,
            )
            statement = engine.parse(source)
            if isinstance(
                statement, ast.SchemaStatement
            ) or not statement_is_read_only(statement):
                raise CypherError(
                    "only read-only queries can be registered as views"
                )
            self._counter += 1
            view_id = f"v{self._counter}"
            view = View(
                view_id,
                source,
                statement,
                dialect,
                parameters,
                self._store,
                self._match_mode,
                self._extended_merge,
            )
            self._views[view_id] = view
            self._by_query[key] = view_id
            return view

    @staticmethod
    def _query_key(
        source: str, dialect: Dialect, parameters: dict
    ) -> tuple:
        try:
            param_sig = tuple(sorted(parameters.items(), key=repr))
            hash(param_sig)
        except TypeError:
            param_sig = repr(sorted(parameters.items(), key=repr))
        return (source, dialect, param_sig)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, view_id: str) -> View:
        with self._lock:
            view = self._views.get(view_id)
        if view is None:
            raise CypherError(f"unknown view {view_id!r}")
        return view

    def views(self) -> list[View]:
        with self._lock:
            return list(self._views.values())

    def result(self, view_id: str) -> ViewResult:
        view = self.get(view_id)
        with self._lock:
            return view.result()

    def drop(self, view_id: str) -> None:
        with self._lock:
            view = self._views.pop(view_id, None)
            if view is None:
                raise CypherError(f"unknown view {view_id!r}")
            self._by_query = {
                key: vid
                for key, vid in self._by_query.items()
                if vid != view_id
            }

    def stats(self) -> list[dict]:
        """Per-view maintenance accounting, refreshed to now."""
        with self._lock:
            rows = []
            for view in self._views.values():
                view._refresh()
                rows.append(view.stats.as_dict())
            return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    # ------------------------------------------------------------------
    # Commit stream
    # ------------------------------------------------------------------

    def _on_commit(self, lsn: int, ops: tuple) -> None:
        with self._lock:
            if self._closed:
                return
            for view in self._views.values():
                view._enqueue(lsn, ops)
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(lsn)

    def add_change_listener(
        self, listener: Callable[[int], None]
    ) -> None:
        """Call *listener(lsn)* after every committed batch (cheap;
        used by the server to wake long-polling subscribers)."""
        with self._lock:
            self._listeners.append(listener)

    def remove_change_listener(
        self, listener: Callable[[int], None]
    ) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._views.clear()
            self._by_query.clear()
            self._listeners.clear()
        self._store.remove_commit_observer(self._on_commit)
