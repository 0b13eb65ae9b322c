"""User-facing façade: :class:`Graph` and :class:`Transaction`.

``Graph`` bundles a store with one engine per use and offers the
ergonomic entry points the examples and benchmarks use::

    from repro import Graph, Dialect

    g = Graph(dialect=Dialect.REVISED)
    g.run("CREATE (:User {id: 89, name: 'Bob'})")
    result = g.run("MATCH (u:User) RETURN u.name AS name")

Multi-statement transactions bracket several statements in one
rollback scope on top of the engine's per-statement atomicity::

    with g.transaction():
        g.run(...)
        g.run(...)        # an exception rolls back both

A graph opened with ``path=...`` (or :meth:`Graph.open`) is durable:
every committed statement is appended to a write-ahead log, recovery
replays it on reopen, and :meth:`Graph.checkpoint` compacts the log
into an atomic snapshot (see :mod:`repro.persistence`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from repro.dialect import Dialect
from repro.engine import CypherEngine, QueryResult
from repro.errors import PersistenceError, TransactionError
from repro.graph.model import GraphSnapshot, Node, Relationship
from repro.graph.statistics import GraphStatistics, collect_statistics
from repro.graph.store import GraphStore
from repro.runtime.context import MatchMode
from repro.runtime.table import DrivingTable

_T = TypeVar("_T")


class Transaction:
    """A rollback scope over multiple statements.

    On a durable graph nothing reaches the write-ahead log until
    :meth:`commit`; a rolled-back transaction leaves no trace on disk.
    """

    def __init__(self, store: GraphStore):
        self._store = store
        self._mark = store.begin_transaction()
        self._closed = False

    @property
    def mark(self) -> int:
        """Journal position at transaction begin.

        The committed state is everything before this mark; the server
        session layer passes it to
        :meth:`~repro.graph.store.GraphStore.reverted_to` so reads
        from other sessions can observe the pre-transaction snapshot.
        """
        return self._mark

    @property
    def closed(self) -> bool:
        """True once the transaction committed or rolled back."""
        return self._closed

    def commit(self) -> None:
        """Keep all changes made inside the transaction."""
        if self._closed:
            raise TransactionError("transaction already closed")
        self._closed = True
        self._store.commit_transaction(self._mark)

    def rollback(self) -> None:
        """Undo all changes made inside the transaction."""
        if self._closed:
            raise TransactionError("transaction already closed")
        self._closed = True
        self._store.rollback_transaction(self._mark)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._closed:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        return False


class Graph:
    """A property graph plus a Cypher engine."""

    def __init__(
        self,
        dialect: Dialect | str = Dialect.REVISED,
        *,
        extended_merge: bool = False,
        match_mode: MatchMode | str = MatchMode.TRAIL,
        use_planner: bool = False,
        # Kept only for benchmarks/e2e/workloads.py's workers=1.
        workers: int = 1,
        store: GraphStore | None = None,
        path: str | Path | None = None,
        fsync: str = "batch",
    ):
        if workers != 1:
            raise ValueError(
                f"workers must be 1, got {workers!r}: parallel execution "
                "was removed and statements always run serially"
            )
        self.store = store if store is not None else GraphStore()
        self.persistence = None
        self.recovery = None
        self._views = None
        if path is not None:
            from repro.persistence import (
                CHECKPOINT_NAME,
                DELTA_NAME,
                PersistenceManager,
            )

            self.persistence = PersistenceManager(path, fsync=fsync)
            had_data = bool(
                self.store.has_records() or self.store.index_keys()
            )
            if had_data and (
                self.persistence.wal_path.exists()
                or (Path(path) / CHECKPOINT_NAME).exists()
                or (Path(path) / DELTA_NAME).exists()
            ):
                raise PersistenceError(
                    "cannot attach a pre-populated store to a directory "
                    "that already holds persisted data; pass a fresh "
                    "store or an empty directory"
                )
            self.recovery = self.persistence.recover(self.store)
            self.persistence.attach(self.store)
            if had_data:
                # A pre-populated store attached to a directory: take
                # an immediate checkpoint so the base state is on disk
                # (the WAL only covers statements from here on).
                self.persistence.checkpoint(self.store)
        self.engine = CypherEngine(
            self.store,
            dialect,
            extended_merge=extended_merge,
            match_mode=match_mode,
            use_planner=use_planner,
        )

    @classmethod
    def open(
        cls, path: str | Path, *, fsync: str = "batch", **kwargs: Any
    ) -> "Graph":
        """Open (or create) a durable graph backed by *path*."""
        return cls(path=path, fsync=fsync, **kwargs)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    @property
    def dialect(self) -> Dialect:
        """The dialect this graph's engine speaks."""
        return self.engine.dialect

    def run(
        self,
        statement: str,
        parameters: Mapping[str, Any] | None = None,
        *,
        table: DrivingTable | None = None,
        **kw_parameters: Any,
    ) -> QueryResult:
        """Execute one statement (parameters via mapping or keywords)."""
        merged = dict(parameters or {})
        merged.update(kw_parameters)
        return self.engine.execute(statement, merged, table=table)

    def profile(
        self,
        statement: str,
        parameters: Mapping[str, Any] | None = None,
        *,
        table: DrivingTable | None = None,
        **kw_parameters: Any,
    ):
        """Execute *statement* and return its per-clause runtime profile.

        The returned :class:`~repro.runtime.profile.QueryProfile` is a
        tree of per-clause metrics (rows in/out, wall time, db-hits);
        the query's :class:`~repro.engine.QueryResult` is available as
        ``profile.result``.  Profiling installs real hit counters for
        the duration of this one statement only -- other statements on
        the same graph keep the zero-overhead no-op counters.
        """
        merged = dict(parameters or {})
        merged.update(kw_parameters)
        result = self.engine.execute(
            statement, merged, table=table, profile=True
        )
        return result.profile

    def explain(
        self, statement: str, parameters: Mapping[str, Any] | None = None
    ) -> str:
        """Describe how *statement* would execute, without running it.

        What is described is what :meth:`run` would execute with the
        same *parameters* (which decide, for one, whether ``WHERE n.k =
        $p`` becomes an index probe); what it would reject is rejected.
        """
        return self.engine.explain(statement, parameters)

    def plan(
        self, statement: str, parameters: Mapping[str, Any] | None = None
    ) -> str:
        """Show the match planner's anchor and ordering choices.

        Like :meth:`explain` but as a graph constructed with
        ``use_planner=True`` would execute the statement.  Nothing is
        executed.
        """
        return self.engine.plan(statement, parameters)

    def transaction(self) -> Transaction:
        """Open a multi-statement rollback scope."""
        return Transaction(self.store)

    # ------------------------------------------------------------------
    # Materialized views
    # ------------------------------------------------------------------

    @property
    def view_registry(self):
        """The lazily-created :class:`~repro.views.ViewRegistry`."""
        if self._views is None:
            from repro.views import ViewRegistry

            self._views = ViewRegistry(
                self.store,
                match_mode=self.engine.match_mode,
                extended_merge=self.engine.extended_merge,
                engine=self.engine,
            )
        return self._views

    def register_view(
        self,
        statement: str,
        parameters: Mapping[str, Any] | None = None,
        **kw_parameters: Any,
    ):
        """Register a read-only query as an incrementally maintained view.

        Returns the :class:`~repro.views.View`; read it with
        :meth:`view_result` (or ``view.result()``).  Identical
        registrations share one materialization.
        """
        merged = dict(parameters or {})
        merged.update(kw_parameters)
        return self.view_registry.register(
            statement, dialect=self.engine.dialect, parameters=merged
        )

    def view_result(self, view_id: str):
        """Current :class:`~repro.views.ViewResult` of a registered view."""
        return self.view_registry.result(view_id)

    def views(self) -> list[dict]:
        """Per-view maintenance statistics (the ``:views`` surface)."""
        if self._views is None:
            return []
        return self._views.stats()

    def drop_view(self, view_id: str) -> None:
        """Unregister a view."""
        self.view_registry.drop(view_id)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot the graph atomically and truncate the WAL."""
        if self.persistence is None:
            raise PersistenceError(
                "graph has no persistence directory; "
                "open it with Graph(path=...)"
            )
        self.persistence.checkpoint(self.store)

    def sync(self) -> None:
        """Force pending WAL records to disk (any fsync policy)."""
        if self.persistence is not None:
            self.persistence.sync()

    def close(self) -> None:
        """Flush and detach the persistence layer (idempotent)."""
        if self._views is not None:
            self._views.close()
            self._views = None
        if self.persistence is not None:
            self.persistence.close()
            self.store.set_commit_hook(None)
            self.persistence = None

    def __enter__(self) -> "Graph":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _direct(self, mutate: Callable[[], _T]) -> _T:
        """Run one direct store mutation as its own committed statement."""
        mark = self.store.mark()
        try:
            result = mutate()
        except Exception:
            self.store.rollback_to(mark)
            raise
        self.store.commit_statement(mark)
        return result

    def with_dialect(
        self, dialect: Dialect | str, *, extended_merge: bool | None = None
    ) -> "Graph":
        """A second view of the *same* store under another dialect."""
        return Graph(
            dialect,
            extended_merge=(
                self.engine.extended_merge
                if extended_merge is None
                else extended_merge
            ),
            match_mode=self.engine.match_mode,
            use_planner=self.engine.use_planner,
            store=self.store,
        )

    # ------------------------------------------------------------------
    # Direct graph access
    # ------------------------------------------------------------------

    def create_node(
        self, *labels: str, **properties: Any
    ) -> Node:
        """Create a node directly (bypassing Cypher)."""
        node_id = self._direct(
            lambda: self.store.create_node(labels, properties)
        )
        return self.store.node(node_id)

    def create_relationship(
        self,
        source: Node | int,
        rel_type: str,
        target: Node | int,
        **properties: Any,
    ) -> Relationship:
        """Create a relationship directly (bypassing Cypher)."""
        source_id = source.id if isinstance(source, Node) else source
        target_id = target.id if isinstance(target, Node) else target
        rel_id = self._direct(
            lambda: self.store.create_relationship(
                rel_type, source_id, target_id, properties
            )
        )
        return self.store.relationship(rel_id)

    def nodes(self) -> list[Node]:
        """All live nodes."""
        return list(self.store.nodes())

    def relationships(self) -> list[Relationship]:
        """All live relationships."""
        return list(self.store.relationships())

    def node_count(self) -> int:
        """Number of live nodes."""
        return self.store.node_count()

    def relationship_count(self) -> int:
        """Number of live relationships."""
        return self.store.relationship_count()

    def snapshot(self) -> GraphSnapshot:
        """Immutable copy of the current graph."""
        return self.store.snapshot()

    def statistics(self) -> GraphStatistics:
        """Descriptive statistics of the current graph."""
        return collect_statistics(self.store)

    def create_index(self, label: str, key: str) -> None:
        """Create a property index on ``:label(key)``."""
        self.store.create_index(label, key)

    def create_unique_constraint(self, label: str, key: str) -> None:
        """Require ``:label(key)`` to be unique (index-backed)."""
        self.store.create_unique_constraint(label, key)

    def drop_unique_constraint(self, label: str, key: str) -> None:
        """Drop a uniqueness constraint."""
        self.store.drop_unique_constraint(label, key)

    def copy(self) -> "Graph":
        """Deep copy (same dialect, fresh store)."""
        return Graph(
            self.engine.dialect,
            extended_merge=self.engine.extended_merge,
            match_mode=self.engine.match_mode,
            use_planner=self.engine.use_planner,
            store=self.store.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"Graph({self.store.node_count()} nodes, "
            f"{self.store.relationship_count()} relationships, "
            f"dialect={self.engine.dialect.value})"
        )
