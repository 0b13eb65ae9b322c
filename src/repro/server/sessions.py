"""Concurrent client sessions over one shared :class:`Graph`.

The engine executes statements synchronously on the event loop, so
statements never interleave *within* their execution -- what the
session layer adds is correct visibility *between* statements of
concurrent sessions:

* **Single writer.**  An asyncio write lock serialises mutation.  An
  autocommit write holds it for one statement; a declared transaction
  holds it from its first write statement until COMMIT/ROLLBACK, so
  no other session's write can interleave with an open transaction
  (the store's undo journal is a single stack -- interleaved writers
  would make rollback undo a bystander's committed work).

* **Lazy transaction scopes.**  ``begin`` only flags the session; the
  store-level :class:`~repro.session.Transaction` (and the write
  lock) is acquired at the transaction's *first write statement*.
  Read-only transactions therefore never block writers or other
  readers, and statements inside them see the same statement-level
  snapshot consistency as autocommit reads.

* **Snapshot reads.**  While a writer session holds an open
  transaction with uncommitted changes, read statements from every
  other session run inside
  :meth:`~repro.graph.store.GraphStore.reverted_to`, which rewinds
  the store to the transaction's start mark (the last committed
  state) and restores the uncommitted changes afterwards.  Readers
  never see uncommitted writes and never block; the writer's own
  reads run live and see its writes.

The isolation level is *read committed with statement-level snapshot
consistency*: each read statement observes one consistent committed
state, uncommitted changes are invisible, and a committed transaction
becomes visible atomically (all statements of the transaction at
once, never a prefix).
"""

from __future__ import annotations

import asyncio
import secrets
import time
from typing import Any, Mapping

from repro.engine import Prepared, QueryResult
from repro.errors import (
    CypherError,
    ResourceLimitError,
    TransactionError,
)
from repro.runtime.limits import list_length_limit
from repro.server.limits import RequestLimits
from repro.session import Graph, Transaction


class UnknownSessionError(CypherError):
    """A request referenced a session id that does not exist."""


class WriteBusyError(CypherError):
    """The write lock was not acquired within the configured timeout."""


class Session:
    """One client's scope: identity, liveness, transaction state."""

    def __init__(self, session_id: str):
        self.id = session_id
        self.created = time.monotonic()
        self.last_used = self.created
        #: client declared BEGIN (the store scope may not exist yet)
        self.tx_declared = False
        #: the store-level scope, opened at the first write statement
        self.transaction: Transaction | None = None
        self.statements = 0

    def touch(self) -> None:
        self.last_used = time.monotonic()

    @property
    def in_transaction(self) -> bool:
        return self.tx_declared


class SessionManager:
    """Session table + the write lock + the snapshot read path."""

    def __init__(self, graph: Graph, limits: RequestLimits | None = None):
        self.graph = graph
        self.limits = limits if limits is not None else RequestLimits()
        self._sessions: dict[str, Session] = {}
        self._write_lock = asyncio.Lock()
        #: the session holding the write lock across requests (open tx)
        self._writer: Session | None = None
        # counters for /stats
        self.statements_executed = 0
        self.snapshot_reads = 0
        self.write_waits = 0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def create(self) -> Session:
        """Open a session (reaping idle ones, enforcing the cap)."""
        self._reap_idle()
        if len(self._sessions) >= self.limits.max_sessions:
            raise ResourceLimitError(
                f"session limit of {self.limits.max_sessions} reached"
            )
        session = Session(secrets.token_hex(8))
        self._sessions[session.id] = session
        return session

    def get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(
                f"no session {session_id!r} (expired or never created)"
            )
        session.touch()
        return session

    def close(self, session_id: str) -> None:
        """Close a session, rolling back any open transaction."""
        session = self.get(session_id)
        if session.tx_declared:
            self.rollback(session)
        del self._sessions[session_id]

    def session_count(self) -> int:
        return len(self._sessions)

    def _reap_idle(self) -> None:
        deadline = time.monotonic() - self.limits.session_idle_timeout_s
        for session_id, session in list(self._sessions.items()):
            if session.last_used < deadline:
                self.close(session_id)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self, session: Session) -> None:
        if session.tx_declared:
            raise TransactionError(
                f"session {session.id} already has an open transaction"
            )
        session.tx_declared = True

    def commit(self, session: Session) -> int | None:
        """Commit; returns the store LSN to await for durability."""
        transaction = self._end_transaction(session)
        if transaction is None:
            return None
        try:
            transaction.commit()
        finally:
            self._release_writer(session)
        return self.graph.store.lsn

    def rollback(self, session: Session) -> None:
        transaction = self._end_transaction(session)
        if transaction is None:
            return
        try:
            transaction.rollback()
        finally:
            self._release_writer(session)

    def _end_transaction(self, session: Session) -> Transaction | None:
        if not session.tx_declared:
            raise TransactionError(
                f"session {session.id} has no open transaction"
            )
        session.tx_declared = False
        transaction = session.transaction
        session.transaction = None
        return transaction

    def _release_writer(self, session: Session) -> None:
        if self._writer is session:
            self._writer = None
            self._write_lock.release()

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    async def execute(
        self,
        session: Session | None,
        source: str,
        parameters: Mapping[str, Any] | None = None,
    ) -> tuple[QueryResult, int | None]:
        """Run one statement for *session* (``None`` = sessionless).

        Returns ``(result, lsn)`` where *lsn* is the store LSN the
        caller must make durable before acknowledging, or ``None``
        when nothing needs syncing (reads, and statements inside an
        open transaction -- their durability point is the COMMIT).
        """
        self.limits.check_statement_length(source)
        prepared = self.graph.engine.prepare(source)
        if prepared.uses_load_csv and not self.limits.allow_load_csv:
            raise ResourceLimitError(
                "LOAD CSV is disabled on this server"
            )
        if session is not None:
            session.statements += 1
        self.statements_executed += 1

        if prepared.read_only:
            return self._execute_read(session, prepared, parameters), None
        return await self._execute_write(session, prepared, parameters)

    def _execute_read(
        self,
        session: Session | None,
        statement: Prepared,
        parameters: Mapping[str, Any] | None,
    ) -> QueryResult:
        writer = self._writer
        if (
            writer is not None
            and writer is not session
            and writer.transaction is not None
        ):
            # Another session has uncommitted writes: rewind to its
            # transaction's start mark (the last committed state).
            self.snapshot_reads += 1
            with self.graph.store.reverted_to(writer.transaction.mark):
                result = self._run(statement, parameters)
        else:
            result = self._run(statement, parameters)
        self.limits.check_result_rows(len(result.table))
        return result

    async def _execute_write(
        self,
        session: Session | None,
        statement: Prepared,
        parameters: Mapping[str, Any] | None,
    ) -> tuple[QueryResult, int | None]:
        if session is not None and self._writer is session:
            # This session already holds the lock via its open scope.
            return self._run(statement, parameters), None
        await self._acquire_write_lock()
        try:
            if session is not None and session.tx_declared:
                # First write of a declared transaction: open the
                # store scope and keep the lock until COMMIT/ROLLBACK.
                session.transaction = Transaction(self.graph.store)
                self._writer = session
                return self._run(statement, parameters), None
            return self._run(statement, parameters), self.graph.store.lsn
        finally:
            if self._writer is not session or session is None:
                self._write_lock.release()

    async def _acquire_write_lock(self) -> None:
        if self._write_lock.locked():
            self.write_waits += 1
        try:
            await asyncio.wait_for(
                self._write_lock.acquire(),
                timeout=self.limits.write_lock_timeout_s,
            )
        except asyncio.TimeoutError:
            raise WriteBusyError(
                f"write lock not acquired within "
                f"{self.limits.write_lock_timeout_s}s (another "
                f"session's transaction is still open)"
            ) from None

    def _run(
        self,
        statement: Prepared,
        parameters: Mapping[str, Any] | None,
    ) -> QueryResult:
        with list_length_limit(self.limits.max_list_length):
            return self.graph.engine.execute(statement, parameters)
