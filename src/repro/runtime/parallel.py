"""Morsel-parallel execution of read-only pipeline segments.

The clause pipeline is row-at-a-time Python; this module batches it.
:func:`execute_clauses_morsel` splits a clause sequence into maximal
record-local runs (see :func:`repro.runtime.pipeline.analyze_segments`),
partitions the driving table into *morsels* (chunked views that share
the record dicts), runs each morsel through the run's clauses on a
worker pool, and concatenates the outputs in morsel order.

Why that is exact
-----------------
Every clause in a parallel run is *record-local*: for each input record
it emits zero or more output records derived from that record alone, in
input order, without touching the graph.  Composition preserves the
property, so the run as a whole maps record ``i``'s descendants ahead
of record ``j``'s whenever ``i < j`` -- concatenating per-morsel
outputs in morsel order is byte-identical to the serial executor, for
both dialects.  No extra ordering work is needed: the legacy dialect's
exact record order and the revised dialect's multiset semantics both
fall out of the concatenation.

Errors are reproduced exactly as well: the serial executor runs one
clause over the *whole* table before the next clause, so the first
serial error is the one at the minimal ``(clause index, record index)``
pair.  Each worker processes its morsel's records in order, so within a
clause the earliest failing record lives in the earliest failing
morsel.  The scheduler therefore lets every morsel run to completion,
collects per-morsel ``(clause index, error)`` outcomes, and re-raises
the error minimal under ``(clause index, morsel index)``.

Executors
---------
``thread`` (default): the columnar store is read-shared safely and the
per-clause Python overhead overlaps with any C-level work, but the GIL
bounds CPU-bound speedup.  ``process``: a fork-based pool (opt-in;
falls back to threads where fork is unavailable) copies the store into
workers for true CPU parallelism; entity values are exchanged as id
markers and rehydrated against the parent's store, which is sound
because the segment is read-only, so ids are stable across the fork.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator

from repro.dialect import Dialect
from repro.errors import CypherError
from repro.parser import ast
from repro.runtime.context import EvalContext
from repro.runtime.table import DrivingTable

#: Peel clauses serially until the driving table has at least this many
#: records -- below it, morsel overhead swamps any win (queries start
#: from the one-record unit table, so the first MATCH/UNWIND usually
#: runs serially and *its output* is what gets partitioned).
DEFAULT_MIN_PARALLEL_ROWS = 8

#: Morsels per worker: small enough to amortise dispatch, large enough
#: that an unlucky skewed morsel cannot serialise the whole segment.
MORSELS_PER_WORKER = 4

#: Ceiling on workers any single statement may use, scoped per request
#: on the server (see :func:`worker_limit`).
DEFAULT_MAX_WORKERS = 64

_max_workers = DEFAULT_MAX_WORKERS
_min_parallel_rows = DEFAULT_MIN_PARALLEL_ROWS


def max_workers() -> int:
    """The worker-count cap active in the current scope."""
    return _max_workers


@contextmanager
def worker_limit(limit: int) -> Iterator[None]:
    """Scoped override of the worker-count cap (nestable).

    Mirrors :func:`repro.runtime.limits.list_length_limit`: the server
    wraps each request so one client cannot monopolise the host's
    cores regardless of the session's ``workers=`` setting.
    """
    global _max_workers
    if limit < 1:
        raise ValueError("worker limit must be >= 1")
    previous = _max_workers
    _max_workers = limit
    try:
        yield
    finally:
        _max_workers = previous


@contextmanager
def parallel_min_rows(rows: int) -> Iterator[None]:
    """Scoped override of the minimum table size worth partitioning.

    Tests and the differential fuzzer lower it so tiny tables still
    exercise the morsel path.
    """
    global _min_parallel_rows
    if rows < 1:
        raise ValueError("minimum parallel rows must be >= 1")
    previous = _min_parallel_rows
    _min_parallel_rows = rows
    try:
        yield
    finally:
        _min_parallel_rows = previous


def execute_clauses_morsel(
    ctx: EvalContext,
    clauses: tuple[ast.Clause, ...],
    table: DrivingTable,
    dialect: Dialect,
) -> DrivingTable:
    """Run a clause sequence, parallelising its record-local runs."""
    from repro.runtime.pipeline import analyze_segments, execute_clause

    for kind, segment in analyze_segments(clauses):
        if kind == "parallel":
            table = _execute_parallel_segment(ctx, segment, table, dialect)
        else:
            for clause in segment:
                table = execute_clause(ctx, clause, table, dialect)
    return table


def _execute_parallel_segment(
    ctx: EvalContext,
    segment: tuple[ast.Clause, ...],
    table: DrivingTable,
    dialect: Dialect,
) -> DrivingTable:
    from repro.runtime.pipeline import execute_clause

    workers = min(ctx.workers, _max_workers)
    # Peel leading clauses serially while the table is too small to
    # split -- typically the anchoring MATCH or UNWIND that fans the
    # unit table out into real cardinality.
    index = 0
    while index < len(segment) and (
        workers <= 1 or len(table) < _min_parallel_rows
    ):
        table = execute_clause(ctx, segment[index], table, dialect)
        index += 1
    clauses = segment[index:]
    if not clauses:
        return table

    size = -(-len(table) // (workers * MORSELS_PER_WORKER))
    morsels = table.chunks(max(1, size))
    workers = min(workers, len(morsels))
    worker_ctx = replace(ctx, profile=None, workers=1)
    _warm_compile(worker_ctx, clauses, table.columns, dialect)

    profile = ctx.profile
    entry = None
    if profile is not None:
        label = "ParallelSegment[" + " ".join(
            type(clause).__name__.replace("Clause", "") for clause in clauses
        ) + "]"
        entry = profile.begin(label, len(table))
    result = None
    try:
        if ctx.parallel_executor == "process" and _fork_available():
            outcomes = _run_process(
                worker_ctx, clauses, morsels, dialect, workers
            )
        else:
            outcomes = _run_threads(
                worker_ctx, clauses, morsels, dialect, workers
            )
        result = _merge(outcomes)
        if entry is not None:
            profile.annotate(
                workers=workers,
                morsels=len(morsels),
                morsel_ms=[outcome[0] for outcome in outcomes],
            )
        return result
    finally:
        if entry is not None:
            profile.end(entry, len(result) if result is not None else 0)


def _merge(
    outcomes: list[tuple[float, tuple[str, ...], list[dict], Any]],
) -> DrivingTable:
    """Concatenate morsel outputs in order; re-raise the minimal error.

    An outcome is ``(elapsed_ms, columns, records, error)`` where
    *error* is ``None`` or ``(clause_index, exception)``.  All morsels
    ran to completion, so the error raised is the one the serial
    executor would have hit first: minimal ``(clause_index,
    morsel_index)``.
    """
    first_error = None
    first_key = None
    for morsel_index, (_, __, ___, error) in enumerate(outcomes):
        if error is None:
            continue
        key = (error[0], morsel_index)
        if first_key is None or key < first_key:
            first_key = key
            first_error = error[1]
    if first_error is not None:
        raise first_error
    columns = outcomes[0][1]
    records: list[dict] = []
    for _, __, morsel_records, ___ in outcomes:
        records.extend(morsel_records)
    return DrivingTable.from_trusted(columns, records)


def _warm_compile(
    ctx: EvalContext,
    clauses: tuple[ast.Clause, ...],
    columns: tuple[str, ...],
    dialect: Dialect,
) -> None:
    """Compile the segment's expressions before dispatching workers.

    Running the clauses over an empty table compiles every expression
    (compilation happens before the row loops) without touching a
    record or the store, so workers find the closures on the nodes
    they share -- and, in process mode, inherit them through the fork.
    Errors are swallowed: this only warms up, and letting a
    table-independent error from a *later* clause surface here would
    pre-empt an earlier clause's data-dependent error, diverging from
    serial error order.
    """
    from repro.runtime.pipeline import _dispatch_clause

    try:
        table = DrivingTable.empty(columns)
        for clause in clauses:
            table = _dispatch_clause(ctx, clause, table, dialect)
    except Exception:
        pass


def _run_morsel(
    ctx: EvalContext,
    clauses: tuple[ast.Clause, ...],
    morsel: DrivingTable,
    dialect: Dialect,
) -> tuple[float, tuple[str, ...], list[dict], Any]:
    """Run one morsel to completion; never raises."""
    from repro.runtime.pipeline import _dispatch_clause

    started = time.perf_counter()
    table = morsel
    for clause_index, clause in enumerate(clauses):
        try:
            table = _dispatch_clause(ctx, clause, table, dialect)
        except Exception as error:  # noqa: BLE001 - re-raised by _merge
            elapsed = (time.perf_counter() - started) * 1000
            return (elapsed, (), [], (clause_index, error))
    elapsed = (time.perf_counter() - started) * 1000
    return (elapsed, tuple(table.columns), table.records, None)


def _run_threads(
    ctx: EvalContext,
    clauses: tuple[ast.Clause, ...],
    morsels: list[DrivingTable],
    dialect: Dialect,
    workers: int,
) -> list[tuple[float, tuple[str, ...], list[dict], Any]]:
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_morsel, ctx, clauses, morsel, dialect)
            for morsel in morsels
        ]
        return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# Process executor (fork-based, opt-in)
# ---------------------------------------------------------------------------

#: State handed to forked workers by inheritance rather than pickling:
#: (ctx, clauses, dialect, morsels).  Set immediately before the pool
#: forks, cleared after; workers receive only a morsel index.
_FORK_STATE: tuple | None = None

_NODE_TAG = "__repro.node__"
_REL_TAG = "__repro.rel__"
_PATH_TAG = "__repro.path__"


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _run_process(
    ctx: EvalContext,
    clauses: tuple[ast.Clause, ...],
    morsels: list[DrivingTable],
    dialect: Dialect,
    workers: int,
) -> list[tuple[float, tuple[str, ...], list[dict], Any]]:
    import multiprocessing

    global _FORK_STATE
    _FORK_STATE = (ctx, clauses, dialect, morsels)
    try:
        # A fresh pool per segment: the children's store copies go
        # stale the moment the parent mutates, and read-only segments
        # fork cheaply (copy-on-write).
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            raw = pool.map(_process_morsel, range(len(morsels)))
    finally:
        _FORK_STATE = None
    store = ctx.store
    return [
        (
            elapsed,
            columns,
            [
                {name: _rehydrate(value, store) for name, value in record.items()}
                for record in records
            ],
            error,
        )
        for elapsed, columns, records, error in raw
    ]


def _process_morsel(
    morsel_index: int,
) -> tuple[float, tuple[str, ...], list[dict], Any]:
    """Worker-side morsel runner (executes in a forked child)."""
    ctx, clauses, dialect, morsels = _FORK_STATE
    elapsed, columns, records, error = _run_morsel(
        ctx, clauses, morsels[morsel_index], dialect
    )
    if error is not None:
        clause_index, exception = error
        try:
            pickle.dumps(exception)
        except Exception:
            exception = CypherError(
                f"{type(exception).__name__}: {exception}"
            )
        return (elapsed, columns, [], (clause_index, exception))
    sanitized = [
        {name: _sanitize(value) for name, value in record.items()}
        for record in records
    ]
    return (elapsed, columns, sanitized, None)


def _sanitize(value: Any) -> Any:
    """Replace entity handles with id markers for the trip home.

    Tuples are not Cypher values, so tagged tuples cannot collide with
    user data.
    """
    from repro.graph.model import Node, Path, Relationship

    if isinstance(value, Node):
        return (_NODE_TAG, value.id)
    if isinstance(value, Relationship):
        return (_REL_TAG, value.id)
    if isinstance(value, Path):
        return (
            _PATH_TAG,
            tuple(node.id for node in value.nodes),
            tuple(rel.id for rel in value.relationships),
        )
    if isinstance(value, list):
        return [_sanitize(item) for item in value]
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    return value


def _rehydrate(value: Any, store: Any) -> Any:
    """Rebind id markers to entity handles on the parent's store.

    Handles are constructed directly (not via ``store.node``) so
    rehydration neither perturbs db-hit counters nor re-validates ids
    that the read-only segment could not have changed.
    """
    from repro.graph.model import Node, Path, Relationship

    if isinstance(value, tuple):
        if value[0] == _NODE_TAG:
            return Node(store, value[1])
        if value[0] == _REL_TAG:
            return Relationship(store, value[1])
        if value[0] == _PATH_TAG:
            return Path(
                [Node(store, node_id) for node_id in value[1]],
                [Relationship(store, rel_id) for rel_id in value[2]],
            )
        raise AssertionError(f"unexpected tuple from worker: {value!r}")
    if isinstance(value, list):
        return [_rehydrate(item, store) for item in value]
    if isinstance(value, dict):
        return {key: _rehydrate(item, store) for key, item in value.items()}
    return value
