"""Shared evaluation context threaded through the runtime.

A single :class:`EvalContext` carries everything expression evaluation
and pattern matching need: the graph store, statement parameters, the
closure-maker and the pattern-matching mode (trail vs homomorphism,
Section 6 discussion of Example 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.graph.store import GraphStore
from repro.runtime.compiler import Compiler, compile_expression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.profile import QueryProfile


class MatchMode(enum.Enum):
    """Which pattern-matching regime MATCH (and MERGE's read) uses."""

    #: Cypher's standard semantics: distinct relationship patterns must
    #: be mapped to distinct relationships ("each edge traversed at most
    #: once"), guaranteeing finite outputs for ``[*]`` patterns.
    TRAIL = "trail"

    #: Homomorphism-based matching: relationships may be reused.  The
    #: paper notes (end of Section 6) that under this regime a pattern
    #: inserted by Strong Collapse MERGE can always be re-matched.
    HOMOMORPHISM = "homomorphism"


@dataclass
class EvalContext:
    """Evaluation state for one statement execution."""

    store: GraphStore
    parameters: Mapping[str, Any] = field(default_factory=dict)
    match_mode: MatchMode = MatchMode.TRAIL

    #: Cap on variable-length path hops when no upper bound is given in
    #: homomorphism mode, where unbounded patterns would otherwise admit
    #: infinitely many matches on cyclic graphs.
    homomorphism_hop_limit: int = 16

    #: Enable the selectivity-driven match planner
    #: (repro.runtime.match_planner) for pattern matching.  Off by
    #: default so the default pipeline stays a literal transcription of
    #: the paper's matcher.
    use_planner: bool = False

    #: The legacy dialect's anomalies are order-reproducible, so its
    #: executor sets this and the planner re-sorts (or falls back to)
    #: the naive ascending-id enumeration order per record.
    preserve_match_order: bool = False

    #: When set, the pipeline brackets every clause with begin/end on
    #: this profile, attributing db-hits and wall time (PROFILE mode).
    profile: Optional["QueryProfile"] = None

    #: Morsel workers for read-only pipeline segments.  1 (the default)
    #: keeps the serial row-at-a-time executor; >1 lets the pipeline
    #: partition the driving table and run read-only segments in
    #: parallel (see repro.runtime.parallel).
    workers: int = 1

    #: Executor backing the morsel workers: "thread" (default; the
    #: columnar store is read-shared safely) or "process" (fork-based
    #: pool, opt-in for CPU-bound predicates that the GIL serialises).
    parallel_executor: str = "thread"

    #: The closure-maker every clause obtains its ``(ctx, record) ->
    #: value`` closures from -- that of the statement being executed
    #: (:attr:`repro.engine.Prepared.compile`).
    compile: Compiler = compile_expression
