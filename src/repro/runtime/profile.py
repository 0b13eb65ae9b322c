"""Runtime query profiles: the ``PROFILE`` observability layer.

Where :mod:`repro.runtime.explain` describes how a statement *would*
execute, this module records how one *did*: a :class:`QueryProfile` is
a tree of :class:`ClauseProfile` entries, one per executed clause (the
paper's ``(G, T) -> (G', T')`` step), each carrying

* wall-clock time,
* rows in / rows out (driving-table cardinalities), and
* **db-hits** -- the storage accesses attributed to the clause, broken
  down by the taxonomy of :mod:`repro.graph.counters`.

The engine installs the profile's :class:`~repro.graph.counters.HitCounters`
on the store for the duration of one statement; the pipeline brackets
each clause with :meth:`QueryProfile.begin` / :meth:`QueryProfile.end`,
attributing the counter delta.  Nested update clauses (FOREACH bodies)
become children of their enclosing clause, whose own metrics are
*inclusive* of the children -- totals are read off the root entries.

Entry points: ``Graph.profile(query)``, ``CypherEngine.execute(...,
profile=True)`` (which attaches the profile to the ``QueryResult``),
and the shell's ``:profile`` command.
"""

from __future__ import annotations

import time
from typing import Any

from repro.graph.counters import DbHits, HitCounters
from repro.parser import ast

#: Short executor names for MERGE, matching the explain renderer.
_MERGE_NAMES = {
    ast.MERGE_LEGACY: "LegacyMerge",
    ast.MERGE_ALL: "MergeAll",
    ast.MERGE_SAME: "MergeSame",
    ast.MERGE_GROUPING: "MergeGrouping",
    ast.MERGE_WEAK_COLLAPSE: "MergeWeakCollapse",
    ast.MERGE_COLLAPSE: "MergeCollapse",
}

_MAX_DETAIL = 60


def clause_label(clause: ast.Clause, dialect) -> str:
    """Short, stable label for one clause (executor name + source)."""
    from repro.dialect import Dialect
    from repro.parser.unparse import unparse

    legacy = dialect is Dialect.CYPHER9
    if isinstance(clause, ast.MatchClause):
        name = "OptionalMatch" if clause.optional else "Match"
        detail = unparse(clause.pattern)
    elif isinstance(clause, ast.SetClause):
        name = "LegacySet" if legacy else "AtomicSet"
        detail = _strip_keyword(unparse(clause), "SET")
    elif isinstance(clause, ast.DeleteClause):
        name = "LegacyDelete" if legacy else "StrictDelete"
        detail = _strip_keyword(unparse(clause), "DELETE", "DETACH DELETE")
    elif isinstance(clause, ast.MergeClause):
        name = _MERGE_NAMES[clause.semantics]
        detail = unparse(clause.pattern)
    elif isinstance(clause, ast.CreateClause):
        name = "Create"
        detail = unparse(clause.pattern)
    elif isinstance(clause, ast.ForeachClause):
        name = "Foreach"
        detail = f"{clause.variable} IN {unparse(clause.source)}"
    else:
        name = type(clause).__name__.replace("Clause", "")
        detail = _strip_keyword(unparse(clause), name.upper())
    if len(detail) > _MAX_DETAIL:
        detail = detail[: _MAX_DETAIL - 3] + "..."
    return f"{name} {detail}".rstrip()


def _strip_keyword(text: str, *keywords: str) -> str:
    """Drop a leading clause keyword the label name already conveys."""
    for keyword in keywords:
        if text.upper().startswith(keyword + " "):
            return text[len(keyword) + 1 :]
    return text


class ClauseProfile:
    """Metrics of one executed clause (inclusive of its children)."""

    __slots__ = (
        "label",
        "rows_in",
        "rows_out",
        "time_ms",
        "hits",
        "children",
        "anchor",
        "paths_reordered",
        "rows_matched",
        "rows_created",
        "workers",
        "morsels",
        "morsel_ms",
        "_started",
        "_before",
    )

    def __init__(self, label: str, rows_in: int):
        self.label = label
        self.rows_in = rows_in
        self.rows_out = 0
        self.time_ms = 0.0
        self.hits = DbHits()
        self.children: list[ClauseProfile] = []
        #: match-planner annotations (None / 0 when the clause did not
        #: plan a pattern): the chosen anchor description and how many
        #: paths ran out of written order
        self.anchor: str | None = None
        self.paths_reordered = 0
        #: MERGE annotations (None on other clauses): how many driving
        #: rows found a match / went on to create
        self.rows_matched: int | None = None
        self.rows_created: int | None = None
        #: morsel-executor annotations (None / 0 on serial clauses):
        #: worker count, morsel count, and per-morsel wall times
        self.workers: int | None = None
        self.morsels = 0
        self.morsel_ms: list[float] | None = None
        self._started = 0.0
        self._before = DbHits()

    @property
    def db_hits(self) -> int:
        """Total db-hits of this clause (children included)."""
        return self.hits.total

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (harness JSON, tooling)."""
        return {
            "label": self.label,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "time_ms": round(self.time_ms, 3),
            "db_hits": self.hits.to_dict(),
            "anchor": self.anchor,
            "paths_reordered": self.paths_reordered,
            "rows_matched": self.rows_matched,
            "rows_created": self.rows_created,
            "workers": self.workers,
            "morsels": self.morsels,
            "morsel_ms": (
                [round(ms, 3) for ms in self.morsel_ms]
                if self.morsel_ms is not None
                else None
            ),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"ClauseProfile({self.label!r}, rows {self.rows_in}->"
            f"{self.rows_out}, hits {self.hits.total})"
        )


class QueryProfile:
    """The per-statement profile tree built while executing."""

    def __init__(
        self, statement: str, dialect: str, planner: bool
    ):
        self.statement = statement
        self.dialect = dialect
        self.planner = planner
        self.counters = HitCounters()
        self.clauses: list[ClauseProfile] = []
        self.time_ms = 0.0
        #: statement preparation during this statement, filled in by
        #: the engine: whether the statement cache held the text
        #: (``prepared_hit``) and the compiler's counter deltas
        #: (``expressions_compiled``, ``constant_folded``)
        self.compiler: dict[str, int] = {}
        #: the QueryResult this profile belongs to (set by the engine)
        self.result = None
        self._stack: list[list[ClauseProfile]] = [self.clauses]
        #: open entries, innermost last (annotation target)
        self._open: list[ClauseProfile] = []

    # -- recording ------------------------------------------------------

    def begin(self, label: str, rows_in: int) -> ClauseProfile:
        """Open a clause entry; subsequent entries nest under it."""
        entry = ClauseProfile(label, rows_in)
        entry._before = self.counters.snapshot()
        entry._started = time.perf_counter()
        self._stack[-1].append(entry)
        self._stack.append(entry.children)
        self._open.append(entry)
        return entry

    def end(self, entry: ClauseProfile, rows_out: int) -> None:
        """Close a clause entry, attributing time and db-hit deltas."""
        entry.time_ms = (time.perf_counter() - entry._started) * 1000
        entry.hits = self.counters.snapshot() - entry._before
        entry.rows_out = rows_out
        self._stack.pop()
        self._open.pop()

    def annotate(self, **fields: object) -> None:
        """Attach planner metadata to the innermost open clause entry.

        Called from inside pattern matching (e.g. the match planner
        reporting its anchor choice); a no-op between clauses.
        """
        if not self._open:
            return
        entry = self._open[-1]
        for name, value in fields.items():
            setattr(entry, name, value)

    # -- totals ---------------------------------------------------------

    @property
    def hits(self) -> DbHits:
        """Whole-statement db-hit totals."""
        return self.counters.snapshot()

    @property
    def total_db_hits(self) -> int:
        """Whole-statement db-hit count."""
        return self.counters.snapshot().total

    # -- output ---------------------------------------------------------

    def render(self) -> str:
        """PROFILE-style rendering (see ``repro.runtime.explain``)."""
        from repro.runtime.explain import render_profile

        return render_profile(self)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: statement, totals, per-clause tree."""
        return {
            "statement": self.statement,
            "dialect": self.dialect,
            "planner": self.planner,
            "time_ms": round(self.time_ms, 3),
            "db_hits": self.hits.to_dict(),
            "compiler": dict(self.compiler),
            "clauses": [clause.to_dict() for clause in self.clauses],
        }

    def __repr__(self) -> str:
        return (
            f"QueryProfile({self.statement!r}, "
            f"{len(self.clauses)} clauses, {self.total_db_hits} db hits)"
        )
