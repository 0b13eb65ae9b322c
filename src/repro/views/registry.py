"""Materialized views maintained from the committed redo-op stream.

A :class:`ViewRegistry` attaches to one :class:`GraphStore` as a commit
observer.  Registered read-only queries are materialized once and then
kept current *incrementally*: every committed statement's redo ops are
queued per view, and on the next read the view either

* proves the whole backlog irrelevant under its :class:`Footprint` and
  keeps the cached result **by object identity** (precise
  invalidation),
* replays the delta rules -- dropping the rows that bind a touched
  entity, found through a provenance index, re-matching from the
  touched entities' neighbourhood, and re-evaluating (or, under an
  aggregating RETURN, folding into the group state) only those rows
  (delta-maintainable shapes), or
* re-executes from scratch (conservative fallback for var-length
  paths, OPTIONAL MATCH, unions, ...).

A delta refresh costs O(ops in the backlog + entities they touch): no
step of it loops over the maintained rows (the published tuple and the
slice edits of the ordered row lists are single C-level copies).

Maintenance is *lazy*: commits only enqueue (O(ops) per view), reads
pay for catching up.  That keeps the write path unslowed and means a
burst of writes between two reads is coalesced into one refresh.  The
backlog is given up only when a refresh succeeds: while the data makes
the query raise, every read raises what re-execution raises.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from threading import RLock
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.dialect import Dialect
from repro.engine import CypherEngine, Prepared, run_query
from repro.errors import CypherError, TransactionError
from repro.graph.store import GraphStore
from repro.parser import ast
from repro.runtime.context import EvalContext, MatchMode
from repro.runtime.pipeline import execute_clauses
from repro.runtime.projection import Group, Projection, filter_where
from repro.runtime.table import DrivingTable
from repro.views.analysis import (
    EVERYTHING,
    SCHEMA_KINDS,
    ViewPlan,
    analyse,
)


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
    #: why ``mode`` is "full" (``None`` for a delta view)
    fallback_reason: Optional[str] = None
    covered_lsn: int = 0
    #: LSN of the latest commit enqueued (the store's, since every
    #: commit reaches every view)
    seen_lsn: int = 0
    rows: int = 0
    #: commit batches enqueued since registration
    batches_seen: int = 0
    #: batches proven irrelevant (cache kept by identity)
    batches_skipped: int = 0
    #: delta refreshes performed (delta mode only)
    delta_refreshes: int = 0
    #: full recomputations (initial materialization included)
    full_refreshes: int = 0
    #: bindings re-matched + output rows re-evaluated + records fed to
    #: a re-aggregated group (+ rows put through clauses that follow a
    #: publishing WITH): a count of the work proportional to a change
    rows_recomputed: int = 0
    #: cumulative seconds spent maintaining (delta + full)
    maintenance_s: float = 0.0
    #: seconds of the most recent full re-execution (the cost a
    #: non-maintained reader would pay per read)
    reexec_s: float = 0.0

    @property
    def lag(self) -> int:
        """Commits the published result is behind the store."""
        return max(0, self.seen_lsn - self.covered_lsn)

    def as_dict(self) -> dict:
        return {
            "id": self.view_id,
            "source": self.source,
            "dialect": self.dialect,
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "registered_lsn": self.registered_lsn,
            "covered_lsn": self.covered_lsn,
            "lag": self.lag,
            "rows": self.rows,
            "batches_seen": self.batches_seen,
            "batches_skipped": self.batches_skipped,
            "delta_refreshes": self.delta_refreshes,
            "full_refreshes": self.full_refreshes,
            "rows_recomputed": self.rows_recomputed,
            "maintenance_s": self.maintenance_s,
            "reexec_s": self.reexec_s,
        }


class _Entry:
    """One maintained binding row of a delta view.

    ``key`` reproduces the naive matcher's enumeration order for a
    single fixed-length path: anchor node id, then relationship ids in
    step order.  It also determines the row (each next node is the
    other end of the next relationship), so keys are unique; keeping
    what a view publishes in key order keeps delta results byte-equal
    to planner-off re-execution in *both* dialects.
    """

    __slots__ = ("key", "node_ids", "rel_ids", "feeds")

    def __init__(self, key: tuple, node_ids: tuple, rel_ids: tuple):
        self.key = key
        self.node_ids = node_ids
        self.rel_ids = rel_ids
        #: under an aggregating RETURN, one ``(group key, arguments,
        #: record)`` per record the row feeds it (the key, not the
        #: :class:`_Fold`: no reference cycle, so dropping a view frees
        #: its rows -- and the store their node handles pin -- at once);
        #: a row-wise view keeps the row's output in :class:`_Rows`
        self.feeds: tuple = ()


class _Provenance(dict):
    """Entity id -> the set of entries binding it, one kind of entity."""

    def bind(self, entity_id: int, entry: _Entry) -> None:
        bound = self.get(entity_id)
        if bound is None:
            self[entity_id] = {entry}
        else:
            bound.add(entry)

    def unbind(self, entity_id: int, entry: _Entry) -> None:
        bound = self.get(entity_id)  # None: a row binding it twice
        if bound is not None:
            bound.discard(entry)
            if not bound:
                del self[entity_id]

    def entries(self, entity_id: int) -> Iterable[_Entry]:
        return self.get(entity_id, ())


class _Rows:
    """What a view publishes, in key order: parallel lists.

    Rows of one key sit together, so a key's rows are found by
    bisection and put or dropped by one slice edit per list.
    """

    __slots__ = ("keys", "outputs", "inputs")

    def __init__(self):
        self.keys: list[tuple] = []
        #: the projected record per row
        self.outputs: list[dict] = []
        #: the record it was projected from -- the scope ORDER BY reads
        #: unprojected variables from (``None`` where nothing reads it)
        self.inputs: list[Optional[Mapping[str, Any]]] = []

    def put(self, key: tuple, outputs: list, inputs: list) -> None:
        at = bisect_left(self.keys, key)
        self.keys[at:at] = [key] * len(outputs)
        self.outputs[at:at] = outputs
        self.inputs[at:at] = inputs

    def drop(self, key: tuple) -> None:
        low = bisect_left(self.keys, key)
        high = bisect_right(self.keys, key, low)
        del self.keys[low:high]
        del self.outputs[low:high]
        del self.inputs[low:high]


class _Fold:
    """One group of an aggregating RETURN, kept across commits."""

    __slots__ = ("key", "group", "first", "members")

    def __init__(self, key: tuple):
        self.key = key
        #: the state ``Aggregation`` builds; ``None`` = to be
        #: re-aggregated from the members' cached arguments
        self.group: Optional[Group] = None
        #: ``(entry key, record index)`` of the group's first record,
        #: which places its row and is its representative record
        self.first: Optional[tuple] = None
        #: the entries feeding it
        self.members: set[_Entry] = set()

    def fold(self, position: tuple, arguments: tuple, *, remove: bool) -> None:
        """Add or take back the record at *position*, in O(1) if the
        group's result stays what its records in order give -- else
        leave the group to be re-aggregated."""
        group = self.group
        if group is None:
            return
        keeps_first = (
            position != self.first if remove else position > self.first
        )
        if keeps_first and all(
            accumulator.commutes(argument)
            for accumulator, argument in zip(group.accumulators, arguments)
        ):
            for accumulator, argument in zip(group.accumulators, arguments):
                if remove:
                    accumulator.remove(argument)
                else:
                    accumulator.add(argument)
        else:
            self.group = None


class View:
    """A registered query plus its maintained state."""

    def __init__(
        self,
        view_id: str,
        prepared: Prepared,
        parameters: Mapping[str, Any],
        store: GraphStore,
        match_mode: MatchMode,
    ):
        self.id = view_id
        self.source = source = prepared.statement.source
        #: the registered statement -- the very object an ad-hoc run of
        #: the same text on the owning graph executes
        self.prepared = prepared
        self.dialect = dialect = prepared.dialect
        self.parameters = dict(parameters)
        # Scope-checked like any run of it (a typo fails here, not at
        # the first commit that makes a row); planner, and so rewrites,
        # off: the order-defining naive reference surface of both
        # dialects.
        self.statement = prepared.executable((), self.parameters, False)
        self._store = store
        self._match_mode = match_mode
        analysis = analyse(self.statement)
        self.plan: Optional[ViewPlan] = (
            analysis if isinstance(analysis, ViewPlan) else None
        )
        self.footprint = analysis.footprint
        #: the publishing clause compiled (delta plans, on first build)
        self._projection: Optional[Projection] = None
        #: maintained state of a delta plan; ``_rows is None`` = none
        #: (a fallback view, or dropped by a refresh that raised)
        self._rows: Optional[_Rows] = None
        self._by_node = _Provenance()
        self._by_rel = _Provenance()
        self._folds: dict[tuple, _Fold] = {}
        self._pending: list[tuple[int, tuple]] = []
        self._result: Optional[ViewResult] = None
        self.stats = ViewStats(
            view_id=view_id,
            source=source,
            dialect=dialect.value,
            mode="delta" if self.plan is not None else "full",
            registered_lsn=store.lsn,
            fallback_reason=None if self.plan else analysis.reason,
            seen_lsn=store.lsn,
        )
        self._catch_up([], store.lsn)

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
        no-change fast path.  Raises what re-executing the query would
        raise, on every read until a later commit repairs the data.
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
        self.stats.seen_lsn = lsn

    def _refresh(self) -> None:
        store = self._store
        if store.in_transaction() or store.in_reverted_read:
            # The store is mid-transaction or rewound to an older
            # snapshot: pending batches describe state we must not read
            # right now.  Serve the last published result untouched.
            return
        pending = len(self._pending)
        if not pending:
            return
        covered = self._pending[pending - 1][0]
        if self._rows is not None:
            nodes, rels = self._by_node, self._by_rel
        else:
            nodes = rels = EVERYTHING
        relevant = self.footprint.op_relevant
        ops = [
            op
            for _, batch in self._pending[:pending]
            for op in batch
            if op[0] not in SCHEMA_KINDS and relevant(op, nodes, rels)
        ]
        if ops:
            # Raises with the backlog, the published result and the
            # covered LSN as they were.
            self._catch_up(ops, covered)
        else:
            self.stats.batches_skipped += pending
            self.stats.covered_lsn = covered
        del self._pending[:pending]

    def _catch_up(self, ops: list[tuple], covered: int) -> None:
        """Publish the result as of *covered*, *ops* being what changed."""
        started = time.perf_counter()
        try:
            if self.plan is None:
                self._reexecute(covered)
                return
            try:
                ctx = self._eval_context()
                if self._rows is not None and self._delta_refresh(ctx, ops):
                    self._publish(ctx, covered)
                    self.stats.delta_refreshes += 1
                else:
                    self._rebuild(ctx)
                    self._publish(ctx, covered)
                    self._count_full_refresh(started)
            except BaseException as error:
                # The maintained state may be half-applied: drop it, so
                # the next relevant refresh rebuilds it.
                self._rows = None
                if not isinstance(error, CypherError):
                    raise
                # Which error a statement raises depends on evaluation
                # order; re-execution defines it.
                self._reexecute(covered)
        finally:
            self.stats.maintenance_s += time.perf_counter() - started

    def _reexecute(self, covered: int) -> None:
        started = time.perf_counter()
        table = run_query(
            self._eval_context(),
            self.statement.query,
            DrivingTable.unit(),
            self.dialect,
        )
        self._set_result(table.columns, tuple(table.to_dicts()), covered)
        self._count_full_refresh(started)

    def _count_full_refresh(self, started: float) -> None:
        """One full recomputation was published (a failed one is not
        counted: the read raised and the backlog is still there)."""
        self.stats.full_refreshes += 1
        self.stats.reexec_s = time.perf_counter() - started

    def _set_result(
        self, columns: tuple[str, ...], records: tuple, covered: int
    ) -> None:
        self._result = ViewResult(columns, records, covered)
        self.stats.covered_lsn = covered
        self.stats.rows = len(records)

    def _rebuild(self, ctx: EvalContext) -> None:
        """Match everything and rebuild the maintained state from it."""
        plan = self.plan
        assert plan is not None
        if self._projection is None:
            columns = execute_clauses(
                ctx,
                plan.prefix,
                DrivingTable.empty(plan.visible_vars),
                self.dialect,
            ).columns
            self._projection = Projection(
                ctx.compile,
                plan.publish.body,
                columns,
                isinstance(plan.publish, ast.WithClause),
            )
        self._rows = _Rows()
        self._by_node, self._by_rel = _Provenance(), _Provenance()
        self._folds = {}
        out = execute_clauses(
            ctx, (plan.match_clause,), DrivingTable.unit(), self.dialect
        )
        touched: dict[_Fold, None] = {}
        # In key order every put lands at the end of the row lists.
        for entry, binding in sorted(
            ((self._entry_for(binding), binding) for binding in out.records),
            key=lambda pair: pair[0].key,
        ):
            self._admit(ctx, entry, binding, touched)
        self._settle(ctx, touched)
        self.stats.rows_recomputed += len(out)

    def _entry_for(self, binding: dict) -> _Entry:
        plan = self.plan
        assert plan is not None
        node_ids = tuple(binding[v].id for v in plan.node_vars)
        rel_ids = tuple(binding[v].id for v in plan.rel_vars)
        key = (node_ids[0],) + rel_ids if rel_ids else node_ids
        return _Entry(key, node_ids, rel_ids)

    def _delta_refresh(self, ctx: EvalContext, ops: list[tuple]) -> bool:
        """Apply *ops* to the maintained rows; ``False`` (nothing
        touched yet) if one of them is of a kind the rules do not know."""
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
            else:  # stay correct, not fast: the caller rebuilds
                return False
        stale: set[_Entry] = set()
        for node_id in affected | dead_nodes:
            stale.update(self._by_node.entries(node_id))
        for rel_id in dead_rels:
            stale.update(self._by_rel.entries(rel_id))
        touched: dict[_Fold, None] = {}
        for entry in stale:
            self._evict(entry, touched)
        live_set = {
            i for i in affected - dead_nodes if store.has_node(i)
        }
        if live_set:
            var0 = plan.node_vars[0]
            table = DrivingTable(
                (var0,),
                [{var0: store.node(i)} for i in self._seed_starts(live_set)],
            )
            out = execute_clauses(
                ctx, (plan.match_clause,), table, self.dialect
            )
            self.stats.rows_recomputed += len(out)
            for binding in out.records:
                entry = self._entry_for(binding)
                # Rows with no affected node were not evicted; only
                # touched rows are regenerated (each exactly once --
                # one driving row per distinct start node).
                if live_set.intersection(entry.node_ids):
                    self._admit(ctx, entry, binding, touched)
        self._settle(ctx, touched)
        return True

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

    # -- one binding row in, one out ------------------------------------

    def _admit(
        self,
        ctx: EvalContext,
        entry: _Entry,
        binding: dict,
        touched: dict[_Fold, None],
    ) -> None:
        """Index a fresh binding row and compute what it publishes."""
        plan = self.plan
        projection = self._projection
        assert plan is not None and projection is not None
        for node_id in entry.node_ids:
            self._by_node.bind(node_id, entry)
        for rel_id in entry.rel_ids:
            self._by_rel.bind(rel_id, entry)
        visible = plan.visible_vars
        if len(binding) != len(visible):  # drop the internal variables
            binding = {v: binding[v] for v in visible}
        records = [binding]
        if plan.prefix:
            records = execute_clauses(
                ctx,
                plan.prefix,
                DrivingTable.from_trusted(visible, records),
                self.dialect,
            ).records
        aggregation = projection.aggregation
        if aggregation is None:
            column_fns = projection.column_fns
            self._rows.put(
                entry.key,
                [
                    {name: fn(ctx, record) for name, fn in column_fns}
                    for record in records
                ],
                records
                if projection.body.order_by
                else [None] * len(records),
            )
            self.stats.rows_recomputed += len(records)
            return
        feeds = []
        for index, record in enumerate(records):
            key, __ = aggregation.key_of(ctx, record)
            arguments = aggregation.arguments(ctx, record)
            fold = self._folds.get(key)
            if fold is None:
                fold = self._folds[key] = _Fold(key)
            fold.members.add(entry)
            touched[fold] = None
            feeds.append((fold.key, arguments, record))
            fold.fold((entry.key, index), arguments, remove=False)
        entry.feeds = tuple(feeds)

    def _evict(self, entry: _Entry, touched: dict[_Fold, None]) -> None:
        """Forget a binding row and what it published."""
        for node_id in entry.node_ids:
            self._by_node.unbind(node_id, entry)
        for rel_id in entry.rel_ids:
            self._by_rel.unbind(rel_id, entry)
        if self._projection.aggregation is None:
            self._rows.drop(entry.key)
            return
        for index, (key, arguments, __) in enumerate(entry.feeds):
            fold = self._folds[key]
            fold.members.discard(entry)
            touched[fold] = None
            fold.fold((entry.key, index), arguments, remove=True)

    def _settle(self, ctx: EvalContext, touched: dict[_Fold, None]) -> None:
        """Re-emit the touched groups, re-aggregating those that need it.

        A group is re-aggregated -- its members' cached arguments fed
        in key order to fresh accumulators -- when an argument did not
        commute or its first record changed; otherwise the accumulators
        were already folded one record at a time.
        """
        aggregation = self._projection.aggregation
        rows = self._rows
        for fold in touched:
            if fold.first is not None:
                rows.drop(fold.first)
            if not fold.members:
                del self._folds[fold.key]
                continue
            if fold.group is None:
                feeds = sorted(
                    (
                        ((entry.key, index), arguments, record)
                        for entry in fold.members
                        for index, (key, arguments, record) in enumerate(
                            entry.feeds
                        )
                        if key is fold.key
                    ),
                    key=itemgetter(0),
                )
                fold.first, __, record = feeds[0]
                __, values = aggregation.key_of(ctx, record)
                fold.group = aggregation.new_group(values, record)
                for __, arguments, __ in feeds:
                    for accumulator, argument in zip(
                        fold.group.accumulators, arguments
                    ):
                        accumulator.add(argument)
                self.stats.rows_recomputed += len(feeds)
            rows.put(
                fold.first,
                [aggregation.emit(ctx, fold.group)],
                [fold.group.record],
            )

    def _publish(self, ctx: EvalContext, covered: int) -> None:
        """Turn the maintained rows into the result."""
        plan = self.plan
        projection = self._projection
        rows = self._rows
        aggregation = projection.aggregation
        if aggregation is not None and not rows.keys:
            # no group: an ungrouped aggregate still has its one row
            pairs = aggregation.rows(ctx, {})
        elif projection.has_tail or isinstance(plan.publish, ast.WithClause):
            pairs = list(zip(rows.outputs, rows.inputs))
        else:
            self._set_result(
                projection.output_columns, tuple(rows.outputs), covered
            )
            return
        table = projection.finish(ctx, pairs)
        if isinstance(plan.publish, ast.WithClause):
            table = filter_where(ctx, plan.publish.where, table)
            self.stats.rows_recomputed += len(table)
            table = execute_clauses(ctx, plan.suffix, table, self.dialect)
        self._set_result(table.columns, tuple(table.records), covered)

    def _eval_context(self) -> EvalContext:
        return EvalContext(
            store=self._store,
            parameters=self.parameters,
            match_mode=self._match_mode,
            use_planner=False,
            preserve_match_order=self.dialect is Dialect.CYPHER9,
            workers=1,
            compile=self.prepared.compile,
        )


class ViewRegistry:
    """All views over one store, fed from its commit-observer stream."""

    def __init__(
        self,
        store: GraphStore,
        *,
        match_mode: MatchMode | str = MatchMode.TRAIL,
        extended_merge: bool = False,
        engine: CypherEngine | None = None,
    ):
        """*engine*, when given, is the owning graph's: statements of its
        dialect are prepared in its statement cache, so a view and an
        ad-hoc run of one text share one :class:`Prepared`."""
        self._store = store
        self._match_mode = (
            match_mode
            if isinstance(match_mode, MatchMode)
            else MatchMode(match_mode)
        )
        self._extended_merge = extended_merge
        #: where statements are prepared, one engine per dialect
        self._engines: dict[Dialect, CypherEngine] = (
            {} if engine is None else {engine.dialect: engine}
        )
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
            engine = self._engines.get(dialect)
            if engine is None:
                engine = self._engines[dialect] = CypherEngine(
                    self._store,
                    dialect,
                    extended_merge=self._extended_merge,
                    match_mode=self._match_mode,
                )
            prepared = engine.prepare(source)
            if not prepared.read_only:
                raise CypherError(
                    "only read-only queries can be registered as views"
                )
            self._counter += 1
            view_id = f"v{self._counter}"
            view = View(
                view_id,
                prepared,
                parameters,
                self._store,
                self._match_mode,
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
                try:
                    view._refresh()
                except CypherError:
                    pass  # the query raises on this data; `lag` says so
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
