"""The graph service: one shared :class:`Graph` behind request handlers.

:class:`GraphService` is transport-agnostic -- it maps
``(method, path, JSON body)`` to ``(status, JSON body)``.  The real
HTTP listener (:mod:`repro.server.http`) and the in-process mock
transport used by the test suite both call :meth:`GraphService.handle`,
so everything above the socket -- routing, sessions, isolation, limits,
durability -- is exercised identically in both.

Durability wiring: when the graph is durable and group commit is
enabled (the default), the persistence manager is opened with the
``off`` fsync policy and a :class:`~repro.persistence.GroupCommitter`
supplies the ``fsync=always`` guarantee -- each write statement (or
COMMIT) is acknowledged only after its WAL LSN is on disk, but
concurrent writers share one fsync per batch instead of paying one
each.  With group commit disabled the manager's own policy applies
per statement, exactly as the embedded API behaves.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    CypherError,
    PersistenceError,
    ResourceLimitError,
    TransactionError,
)
from repro.persistence import GroupCommitter
from repro.server.limits import RequestLimits
from repro.server.routers import match_route
from repro.server.sessions import (
    SessionManager,
    UnknownSessionError,
    WriteBusyError,
)
from repro.server.wire import result_to_wire, to_wire
from repro.session import Graph

#: wire name -> HTTP status for error responses
_STATUS_FOR = (
    (ResourceLimitError, 413),
    (UnknownSessionError, 404),
    (WriteBusyError, 409),
    (TransactionError, 409),
    (PersistenceError, 409),
    (CypherError, 400),
)


def error_status(error: Exception) -> int:
    for cls, status in _STATUS_FOR:
        if isinstance(error, cls):
            return status
    return 500


@dataclass
class ServerConfig:
    """Everything ``python -m repro.server`` accepts."""

    host: str = "127.0.0.1"
    port: int = 7688
    #: durability directory; ``None`` serves an in-memory graph
    path: str | None = None
    #: fsync policy the *service* guarantees ("always"/"batch"/"off")
    fsync: str = "always"
    #: batch concurrent writers' fsyncs (only matters for "always")
    group_commit: bool = True
    dialect: str = "revised"
    limits: RequestLimits = field(default_factory=RequestLimits)


class GraphService:
    """Request handlers over one :class:`Graph` and its sessions."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        self.committer: GroupCommitter | None = None
        if self.config.path is None:
            self.graph = Graph(dialect=self.config.dialect)
        elif self.config.group_commit and self.config.fsync == "always":
            self.graph = Graph(
                path=self.config.path,
                fsync="off",
                dialect=self.config.dialect,
            )
            self.committer = GroupCommitter(self.graph.persistence)
        else:
            self.graph = Graph(
                path=self.config.path,
                fsync=self.config.fsync,
                dialect=self.config.dialect,
            )
        self.sessions = SessionManager(self.graph, self.config.limits)
        self.started = time.monotonic()
        self.requests = 0
        self.errors = 0
        #: open view subscriptions by subscription id
        self._subscriptions: dict[str, _Subscription] = {}
        self._views_wired = False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict]:
        """Serve one request; always returns ``(status, json_body)``."""
        self.requests += 1
        try:
            handler, params = match_route(method, path)
        except LookupError:
            self.errors += 1
            return 404, _error_body(
                "NotFound", f"no route for {method} {path}"
            )
        try:
            payload = _decode_body(body)
            result = await getattr(self, handler)(params, payload)
            return 200, result
        except Exception as error:  # noqa: BLE001 - boundary
            self.errors += 1
            status = error_status(error)
            if status == 500:
                message = f"internal error: {type(error).__name__}: {error}"
                return 500, _error_body("InternalError", message)
            return status, _error_body(type(error).__name__, str(error))

    async def close(self) -> None:
        """Roll back open transactions and release the graph."""
        for subscription in self._subscriptions.values():
            subscription.event.set()
        self._subscriptions.clear()
        for session_id in list(self.sessions._sessions):
            self.sessions.close(session_id)
        if self.committer is not None:
            await self.committer.close()
            if self.graph.persistence is not None:
                self.graph.persistence.sync()
        self.graph.close()

    async def _wait_durable(self, lsn: int | None) -> None:
        if lsn is not None and self.committer is not None:
            await self.committer.wait_durable(lsn)
        # Without a committer the manager's own fsync policy already
        # ran inside log_commit; nothing further to await.

    # ------------------------------------------------------------------
    # Handlers (named by routers.ROUTES)
    # ------------------------------------------------------------------

    async def handle_health(self, params: dict, body: dict) -> dict:
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started, 3),
            "durable": self.graph.persistence is not None,
        }

    async def handle_stats(self, params: dict, body: dict) -> dict:
        store = self.graph.store
        stats: dict[str, Any] = {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "requests": self.requests,
            "errors": self.errors,
            "sessions": self.sessions.session_count(),
            "statements": self.sessions.statements_executed,
            # hits / misses / evictions / size / capacity of the engine's
            # statement cache: one lookup per statement request
            "statement_cache": self.graph.engine.ast_cache_info(),
            "snapshot_reads": self.sessions.snapshot_reads,
            "write_waits": self.sessions.write_waits,
            "nodes": store.node_count(),
            "relationships": store.relationship_count(),
            "dialect": self.graph.dialect.value,
        }
        if self.graph.persistence is not None:
            stats["wal_lsn"] = store.lsn
        if self.committer is not None:
            stats["group_commit"] = self.committer.stats()
        return stats

    async def handle_query(self, params: dict, body: dict) -> dict:
        source, parameters = _statement_from(body)
        result, lsn = await self.sessions.execute(
            None, source, parameters
        )
        await self._wait_durable(lsn)
        return result_to_wire(result)

    async def handle_session_create(
        self, params: dict, body: dict
    ) -> dict:
        session = self.sessions.create()
        return {"session": session.id}

    async def handle_session_close(
        self, params: dict, body: dict
    ) -> dict:
        self.sessions.close(params["id"])
        return {"closed": params["id"]}

    async def handle_session_query(
        self, params: dict, body: dict
    ) -> dict:
        session = self.sessions.get(params["id"])
        source, parameters = _statement_from(body)
        result, lsn = await self.sessions.execute(
            session, source, parameters
        )
        await self._wait_durable(lsn)
        payload = result_to_wire(result)
        payload["in_transaction"] = session.in_transaction
        return payload

    async def handle_begin(self, params: dict, body: dict) -> dict:
        session = self.sessions.get(params["id"])
        self.sessions.begin(session)
        return {"session": session.id, "in_transaction": True}

    async def handle_commit(self, params: dict, body: dict) -> dict:
        session = self.sessions.get(params["id"])
        lsn = self.sessions.commit(session)
        await self._wait_durable(lsn)
        return {"session": session.id, "in_transaction": False}

    async def handle_rollback(self, params: dict, body: dict) -> dict:
        session = self.sessions.get(params["id"])
        self.sessions.rollback(session)
        return {"session": session.id, "in_transaction": False}

    async def handle_schema(self, params: dict, body: dict) -> dict:
        store = self.graph.store
        return {
            "indexes": [
                {"label": label, "key": key}
                for label, key in store.index_keys()
            ],
            "constraints": [
                {"label": label, "key": key, "type": "unique"}
                for label, key in sorted(store.unique_constraints())
            ],
        }

    # ------------------------------------------------------------------
    # Materialized views and live subscriptions
    # ------------------------------------------------------------------

    def _views_registry(self):
        """The graph's view registry, wired for subscriber wakeups."""
        registry = self.graph.view_registry
        if not self._views_wired:
            registry.add_change_listener(self._on_view_commit)
            self._views_wired = True
        return registry

    def _on_view_commit(self, lsn: int) -> None:
        # Runs synchronously inside statement execution on the event
        # loop thread; waking subscribers is just flipping events.
        for subscription in self._subscriptions.values():
            subscription.event.set()

    def _view_payload(self, view) -> dict:
        result = view.result()
        self.config.limits.check_result_rows(len(result.records))
        return {
            "view": view.id,
            "mode": view.stats.mode,
            "columns": list(result.columns),
            "records": _wire_rows(result),
            "lsn": result.lsn,
            "covered_lsn": view.covered_lsn,
        }

    async def handle_views_list(self, params: dict, body: dict) -> dict:
        if self.graph._views is None:
            return {"views": []}
        return {"views": self._views_registry().stats()}

    async def handle_view_register(
        self, params: dict, body: dict
    ) -> dict:
        source, parameters = _statement_from(body)
        self.config.limits.check_statement_length(source)
        registry = self._views_registry()
        if len(registry) >= self.config.limits.max_views:
            raise ResourceLimitError(
                f"view limit of {self.config.limits.max_views} reached"
            )
        dialect = body.get("dialect") or self.graph.dialect.value
        view = registry.register(
            source, dialect=dialect, parameters=parameters
        )
        return self._view_payload(view)

    async def handle_view_result(self, params: dict, body: dict) -> dict:
        view = self._views_registry().get(params["id"])
        return self._view_payload(view)

    async def handle_view_drop(self, params: dict, body: dict) -> dict:
        registry = self._views_registry()
        registry.drop(params["id"])
        for sid, subscription in list(self._subscriptions.items()):
            if subscription.view_id == params["id"]:
                del self._subscriptions[sid]
                subscription.event.set()
        return {"dropped": params["id"]}

    async def handle_view_subscribe(
        self, params: dict, body: dict
    ) -> dict:
        limits = self.config.limits
        if len(self._subscriptions) >= limits.max_view_subscriptions:
            raise ResourceLimitError(
                f"subscription limit of "
                f"{limits.max_view_subscriptions} reached"
            )
        view = self._views_registry().get(params["id"])
        payload = self._view_payload(view)
        subscription = _Subscription(
            id=secrets.token_hex(8),
            view_id=view.id,
            baseline=payload["records"],
            delivered_lsn=payload["covered_lsn"],
        )
        self._subscriptions[subscription.id] = subscription
        payload["subscription"] = subscription.id
        return payload

    async def handle_view_changes(
        self, params: dict, body: dict
    ) -> dict:
        registry = self._views_registry()
        subscription = self._subscription_from(params, body)
        timeout = self.config.limits.clamp_poll_timeout(
            body.get("timeout_s")
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            view = registry.get(subscription.view_id)
            result = view.result()
            covered = view.covered_lsn
            if covered > subscription.delivered_lsn:
                rows = _wire_rows(result)
                added, removed = _diff_rows(subscription.baseline, rows)
                # Update the baseline *before* any await: the diff and
                # the delivered LSN move together atomically, so a
                # subscriber can never observe a result at an LSN newer
                # than its latest change notification (no torn diffs).
                subscription.baseline = rows
                subscription.delivered_lsn = covered
                if added or removed:
                    return {
                        "view": view.id,
                        "subscription": subscription.id,
                        "columns": list(result.columns),
                        "added": added,
                        "removed": removed,
                        "lsn": covered,
                        "timed_out": False,
                    }
                # Covered LSN advanced without a visible change
                # (irrelevant commits): keep waiting silently.
            remaining = deadline - loop.time()
            if remaining <= 0:
                return {
                    "view": subscription.view_id,
                    "subscription": subscription.id,
                    "added": [],
                    "removed": [],
                    "lsn": subscription.delivered_lsn,
                    "timed_out": True,
                }
            subscription.event.clear()
            try:
                await asyncio.wait_for(
                    subscription.event.wait(), remaining
                )
            except asyncio.TimeoutError:
                pass
            if subscription.id not in self._subscriptions:
                raise CypherError(
                    f"subscription {subscription.id!r} was closed"
                )

    async def handle_view_unsubscribe(
        self, params: dict, body: dict
    ) -> dict:
        subscription = self._subscriptions.pop(params["sid"], None)
        if subscription is None or subscription.view_id != params["id"]:
            raise CypherError(
                f"no subscription {params['sid']!r} on view "
                f"{params['id']!r}"
            )
        subscription.event.set()
        return {"unsubscribed": subscription.id}

    def _subscription_from(self, params: dict, body: dict):
        sid = body.get("subscription")
        subscription = (
            self._subscriptions.get(sid) if isinstance(sid, str) else None
        )
        if subscription is None or subscription.view_id != params["id"]:
            raise CypherError(
                f"no subscription {sid!r} on view {params['id']!r}"
            )
        return subscription

    async def handle_checkpoint(self, params: dict, body: dict) -> dict:
        if self.graph.persistence is None:
            raise PersistenceError(
                "graph has no persistence directory; nothing to checkpoint"
            )
        await self._wait_durable(self.graph.store.lsn)
        self.graph.checkpoint()
        written = self.graph.persistence.last_checkpoint
        return {
            "checkpointed": True,
            "kind": written["kind"],
            "bytes": written["bytes"],
            "lsn": self.graph.store.lsn,
        }


@dataclass
class _Subscription:
    """Server-side long-poll state for one view subscriber."""

    id: str
    view_id: str
    #: wire rows last delivered to (or seeded for) this subscriber
    baseline: list
    #: covered LSN of the baseline
    delivered_lsn: int
    event: asyncio.Event = field(default_factory=asyncio.Event)


def _wire_rows(result) -> list:
    """Wire form of a :class:`~repro.views.ViewResult`'s records."""
    columns = result.columns
    return [
        [to_wire(record[column]) for column in columns]
        for record in result.records
    ]


def _diff_rows(old: list, new: list) -> tuple[list, list]:
    """Multiset diff of wire rows: ``(added, removed)``.

    Rows are compared by canonical JSON; order of first appearance is
    preserved so diffs are deterministic.
    """

    def key(row) -> str:
        return json.dumps(row, sort_keys=True, default=str)

    counts: dict[str, int] = {}
    for row in old:
        k = key(row)
        counts[k] = counts.get(k, 0) + 1
    added = []
    for row in new:
        k = key(row)
        if counts.get(k, 0) > 0:
            counts[k] -= 1
        else:
            added.append(row)
    removed = []
    leftovers = dict(counts)
    for row in old:
        k = key(row)
        if leftovers.get(k, 0) > 0:
            leftovers[k] -= 1
            removed.append(row)
    return added, removed


def _error_body(error_type: str, message: str) -> dict:
    return {"error": {"type": error_type, "message": message}}


def _decode_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        payload = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        raise CypherError("request body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise CypherError("request body must be a JSON object")
    return payload


def _statement_from(body: dict) -> tuple[str, dict]:
    source = body.get("statement")
    if not isinstance(source, str):
        raise CypherError(
            'request body must carry a string "statement" field'
        )
    parameters = body.get("parameters") or {}
    if not isinstance(parameters, dict):
        raise CypherError('"parameters" must be a JSON object')
    return source, parameters
