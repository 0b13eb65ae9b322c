"""Per-request resource limits for the graph service.

Every request handler enforces these caps *before* committing
resources: body size during transport framing, statement length
before parsing, the evaluator's list-length cap (wired into
:mod:`repro.runtime.limits` for the duration of the statement -- the
same guard that stops ``range(0, 2^62)`` in-process stops it
remotely), result-row counts after execution, and session-table
growth on session creation.  Violations surface as
:class:`~repro.errors.ResourceLimitError`, which the HTTP layer maps
to ``413 Payload Too Large``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ResourceLimitError


@dataclass(frozen=True)
class RequestLimits:
    """Caps applied to every request (a frozen config object)."""

    #: largest accepted HTTP request body
    max_body_bytes: int = 1 << 20
    #: longest accepted statement text
    max_statement_chars: int = 100_000
    #: evaluator list-materialisation cap (range() and friends)
    max_list_length: int = 250_000
    #: most rows a single statement may return
    max_result_rows: int = 100_000
    #: most concurrently open sessions
    max_sessions: int = 1024
    #: seconds of inactivity before a session may be reaped
    session_idle_timeout_s: float = 3600.0
    #: seconds a writer waits for the write lock before giving up
    write_lock_timeout_s: float = 30.0
    #: whether LOAD CSV (server-side file reads!) is allowed
    allow_load_csv: bool = False
    #: most concurrently registered materialized views
    max_views: int = 64
    #: most concurrent view subscriptions (across all views)
    max_view_subscriptions: int = 256
    #: longest honoured ``/views/{id}/changes`` long-poll timeout
    max_poll_timeout_s: float = 30.0

    def clamp_poll_timeout(self, requested: float | None) -> float:
        """The effective long-poll wait for a requested timeout."""
        if requested is None:
            return self.max_poll_timeout_s
        return max(0.0, min(float(requested), self.max_poll_timeout_s))

    def check_statement_length(self, source: str) -> None:
        if len(source) > self.max_statement_chars:
            raise ResourceLimitError(
                f"statement of {len(source)} characters exceeds the "
                f"limit of {self.max_statement_chars}"
            )

    def check_result_rows(self, rows: int) -> None:
        if rows > self.max_result_rows:
            raise ResourceLimitError(
                f"result of {rows} rows exceeds the limit of "
                f"{self.max_result_rows} rows per statement"
            )
