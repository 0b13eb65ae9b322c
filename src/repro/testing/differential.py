"""Differential execution of fuzz cases across the engine's surfaces.

Each :class:`~repro.testing.generator.FuzzCase` runs under every
combination of the independent execution toggles:

* the selectivity-driven match planner on / off,
* compiled vs interpreted expression evaluation,

and, for merge-kind cases, under all five revised MERGE semantics plus
the legacy Cypher 9 MERGE.

Agreement obligations differ by dialect, exactly as the paper promises:

* **Compiled vs interpreted** must agree *exactly* (same records in the
  same order, same entity ids, same final graph dict) -- compilation is
  a pure evaluation-strategy change.
* **Planner on vs off, legacy dialect**: the planner contract preserves
  the naive enumeration order for Cypher 9 (its anomalies are order-
  dependent), so agreement is again exact.
* **Planner on vs off, revised dialect**: the revised semantics are
  order-independent, so the obligation is the content multiset of the
  result records plus graph isomorphism (entity ids may differ when
  creation order differs).
* **MERGE semantics**: every revised variant must be deterministic
  under driving-table shuffling (up to isomorphism) and the collapse
  chain ALL >= GROUPING >= WEAK >= COLLAPSE >= SAME must be
  monotonically non-increasing in created entities; the legacy MERGE is
  only required to be deterministic for a *fixed* order.

Errors must agree too: the same :class:`~repro.errors.CypherError`
class at the same statement index.  Any non-Cypher exception is a
``crash`` -- always a failure.  After every variant the store-invariant
oracle (:func:`~repro.testing.invariants.check_invariants`) runs on the
post-state, and the journal is rolled back and must restore the base
graph byte-identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.dialect import Dialect
from repro.engine import CypherEngine
from repro.errors import CypherError
from repro.graph.comparison import isomorphic
from repro.graph.model import Node, Path, Relationship
from repro.io.graph_json import graph_to_dict
from repro.testing.generator import PARAMETERS, FuzzCase, build_store
from repro.testing.interpreter import interpreted
from repro.testing.invariants import (
    InvariantViolation,
    canonical_graph_json,
    check_invariants,
)

#: Revised MERGE keywords in collapse-refinement order: each successive
#: collapse key is coarser, so created-entity counts may only shrink.
MERGE_CHAIN = ("all", "grouping", "weak_collapse", "collapse", "same")


@dataclass
class VariantOutcome:
    """What one execution variant produced."""

    name: str
    status: str  # "ok" | "error" | "crash"
    error_type: str | None = None
    error_message: str | None = None
    error_statement: int | None = None
    #: canonical rows with entity ids (exact comparisons)
    rows_exact: tuple = ()
    #: canonical rows without entity ids (multiset comparisons)
    rows_content: tuple = ()
    graph: dict = field(default_factory=dict)

    @property
    def rows_multiset(self) -> dict:
        counts: dict = {}
        for row in self.rows_content:
            counts[row] = counts.get(row, 0) + 1
        return counts


@dataclass
class CaseResult:
    """The verdict on one fuzz case."""

    case: FuzzCase
    ok: bool
    failures: list[str] = field(default_factory=list)
    outcomes: list[VariantOutcome] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Row canonicalisation
# ---------------------------------------------------------------------------


def canonical_value(value: Any, *, with_ids: bool) -> Any:
    """A hashable, order-stable rendering of a result value.

    Entity handles read the live store, so canonicalise rows *before*
    any rollback.  With ``with_ids=False`` entities are reduced to
    their content (structure is separately checked via isomorphism).
    """
    if isinstance(value, Node):
        content = (
            "node",
            tuple(sorted(value.labels)),
            tuple(sorted(value.properties.items())),
        )
        return content + (value.id,) if with_ids else content
    if isinstance(value, Relationship):
        content = (
            "rel",
            value.type,
            tuple(sorted(value.properties.items())),
        )
        if with_ids:
            return content + (value.id, value.start.id, value.end.id)
        return content
    if isinstance(value, Path):
        return (
            "path",
            tuple(
                canonical_value(node, with_ids=with_ids)
                for node in value.nodes
            ),
            tuple(
                canonical_value(rel, with_ids=with_ids)
                for rel in value.relationships
            ),
        )
    if isinstance(value, list):
        return tuple(
            canonical_value(item, with_ids=with_ids) for item in value
        )
    if isinstance(value, dict):
        return tuple(
            sorted(
                (key, canonical_value(item, with_ids=with_ids))
                for key, item in value.items()
            )
        )
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    return repr(value)


def canonical_rows(result_records: list[dict], *, with_ids: bool) -> tuple:
    return tuple(
        tuple(
            sorted(
                (column, canonical_value(value, with_ids=with_ids))
                for column, value in record.items()
            )
        )
        for record in result_records
    )


# ---------------------------------------------------------------------------
# Running one variant
# ---------------------------------------------------------------------------


def _run_variant(
    case: FuzzCase,
    name: str,
    *,
    use_planner: bool,
    compiled: bool,
    statements=None,
    dialect=None,
    parameters: dict | None = None,
    failures: list[str] | None = None,
    rewrites_alone: bool = False,
) -> VariantOutcome:
    """Execute the case's statements under one toggle combination.

    ``compiled=False`` hands each prepared statement the reference
    interpreter as its closure-maker; ``rewrites_alone`` has a
    planner-off engine run what a planner-on engine would have
    rewritten the statement to.

    The store-invariant oracle and the journal-restore check run here,
    appending to *failures*; differential comparisons happen later in
    :func:`run_case`.
    """
    store = build_store(case)
    base = canonical_graph_json(store)
    # A transaction scope keeps the journal across the statements'
    # commits, so the whole run can be undone below.
    mark = store.begin_transaction()
    engine = CypherEngine(
        store,
        dialect=dialect if dialect is not None else case.dialect,
        extended_merge=True,
        use_planner=use_planner,
    )
    outcome = VariantOutcome(name=name, status="ok")
    todo = statements if statements is not None else case.statements
    try:
        result_rows = _execute_all(
            engine,
            todo,
            parameters,
            outcome,
            compiled=compiled,
            rewrites_alone=rewrites_alone,
        )
    except CypherError as error:
        outcome.status = "error"
        outcome.error_type = type(error).__name__
        outcome.error_message = str(error)
    except InvariantViolation:
        raise
    except Exception as error:  # noqa: BLE001 -- crashes are findings
        outcome.status = "crash"
        outcome.error_type = type(error).__name__
        outcome.error_message = str(error)
    else:
        outcome.rows_exact = canonical_rows(result_rows, with_ids=True)
        outcome.rows_content = canonical_rows(result_rows, with_ids=False)
    outcome.graph = graph_to_dict(store)

    sink = failures if failures is not None else []
    try:
        check_invariants(store)
    except InvariantViolation as violation:
        sink.append(f"[{name}] post-state invariants: {violation}")
    store.rollback_transaction(mark)
    if canonical_graph_json(store) != base:
        sink.append(
            f"[{name}] journal rollback did not restore the base graph"
        )
    try:
        check_invariants(store)
    except InvariantViolation as violation:
        sink.append(f"[{name}] post-rollback invariants: {violation}")
    return outcome


def _execute_all(
    engine, statements, parameters, outcome, *, compiled, rewrites_alone
) -> list[dict]:
    rows: list[dict] = []
    for index, statement in enumerate(statements):
        outcome.error_statement = index
        prepared = engine.prepare(statement)
        if rewrites_alone:
            prepared = engine.prepare(
                prepared.executable((), parameters or {}, True)
            )
        if not compiled:
            prepared = interpreted(prepared)
        result = engine.execute(prepared, parameters)
        rows = result.records
    outcome.error_statement = None
    return rows


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _errors_agree(left: VariantOutcome, right: VariantOutcome) -> bool:
    return (
        left.status == right.status
        and left.error_type == right.error_type
        and left.error_statement == right.error_statement
    )


def _compare_exact(
    left: VariantOutcome, right: VariantOutcome, failures: list[str]
) -> None:
    label = f"{left.name} vs {right.name}"
    if not _errors_agree(left, right):
        failures.append(
            f"[{label}] outcome mismatch: "
            f"{left.status}/{left.error_type} (stmt {left.error_statement})"
            f" != {right.status}/{right.error_type} "
            f"(stmt {right.error_statement})"
        )
        return
    if left.status == "ok" and left.rows_exact != right.rows_exact:
        failures.append(f"[{label}] result rows differ (exact comparison)")
    if left.graph != right.graph:
        failures.append(f"[{label}] final graphs differ (exact comparison)")


def _compare_isomorphic(
    left: VariantOutcome, right: VariantOutcome, failures: list[str]
) -> None:
    label = f"{left.name} vs {right.name}"
    if not _errors_agree(left, right):
        failures.append(
            f"[{label}] outcome mismatch: "
            f"{left.status}/{left.error_type} (stmt {left.error_statement})"
            f" != {right.status}/{right.error_type} "
            f"(stmt {right.error_statement})"
        )
        return
    if left.status == "ok" and left.rows_multiset != right.rows_multiset:
        failures.append(
            f"[{label}] result-row multisets differ (content comparison)"
        )
    if not _graphs_isomorphic(left.graph, right.graph):
        failures.append(f"[{label}] final graphs are not isomorphic")


def _graphs_isomorphic(left: dict, right: dict) -> bool:
    from repro.io.graph_json import dict_to_store

    return isomorphic(
        dict_to_store(left).snapshot(), dict_to_store(right).snapshot()
    )


# ---------------------------------------------------------------------------
# Case drivers
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase) -> CaseResult:
    """Run one case across every variant and collect disagreements."""
    if case.kind == "merge":
        return _run_merge_case(case)
    return _run_pipeline_case(case)


def _run_pipeline_case(case: FuzzCase) -> CaseResult:
    failures: list[str] = []
    outcomes: dict[tuple[bool, bool], VariantOutcome] = {}
    for use_planner, compiled in itertools.product(
        (True, False), (True, False)
    ):
        name = (
            f"planner={'on' if use_planner else 'off'},"
            f"{'compiled' if compiled else 'interpreted'}"
        )
        outcomes[(use_planner, compiled)] = _run_variant(
            case,
            name,
            use_planner=use_planner,
            compiled=compiled,
            parameters=PARAMETERS,
            failures=failures,
        )
    # The rewrite pass alone (planner off, so enumeration order is the
    # naive one): pushdown + hoisting must be *exactly* order- and
    # error-preserving, in both dialects.
    rewritten = _run_variant(
        case,
        "rewrites=on,planner=off,compiled",
        use_planner=False,
        compiled=True,
        rewrites_alone=True,
        parameters=PARAMETERS,
        failures=failures,
    )
    _compare_exact(outcomes[(False, True)], rewritten, failures)
    ran = [*outcomes.values(), rewritten]
    for outcome in ran:
        if outcome.status == "crash":
            failures.append(
                f"[{outcome.name}] crashed at statement "
                f"{outcome.error_statement}: {outcome.error_type}: "
                f"{outcome.error_message}"
            )
    # Compiled vs interpreted: exact agreement for each planner setting.
    for use_planner in (True, False):
        _compare_exact(
            outcomes[(use_planner, True)],
            outcomes[(use_planner, False)],
            failures,
        )
    # Planner on vs off: exact for legacy, isomorphic for revised.
    if case.dialect == Dialect.CYPHER9.value:
        _compare_exact(
            outcomes[(True, True)], outcomes[(False, True)], failures
        )
    else:
        _compare_isomorphic(
            outcomes[(True, True)], outcomes[(False, True)], failures
        )
    return CaseResult(
        case=case,
        ok=not failures,
        failures=failures,
        outcomes=ran,
    )


def run_views_case(case: FuzzCase) -> CaseResult:
    """Differential oracle for incremental view maintenance.

    The case's ``views`` queries are registered up front on one
    maintained store; the case's statements then run on that store,
    and after **every** successful statement each view's maintained
    result must equal a full re-execution of its query on a copy of
    the current graph, across the engine's surfaces (planner on/off,
    compiled/interpreted).

    Re-execution runs on the maintained store itself -- registration
    guarantees the queries are read-only, and sharing the store keeps
    entity ids comparable.  The agreement obligation mirrors the
    dialect contract: Cypher 9 views compare **exactly** (same rows,
    same order, same entity ids); revised views compare as row
    multisets, since revised results are order-independent.
    """
    failures: list[str] = []
    store = build_store(case)
    from repro.views import ViewRegistry

    registry = ViewRegistry(store, extended_merge=True)
    views = []
    for source, view_dialect in case.views:
        try:
            views.append(
                registry.register(
                    source, dialect=view_dialect, parameters=PARAMETERS
                )
            )
        except CypherError:
            continue  # unregisterable query -- not a finding
    if case.kind == "merge":
        statement, dialect = _merge_statement(case, "all")
        todo: tuple = (statement,)
        parameters = {"rows": list(case.merge_table["records"])}
    else:
        todo = case.statements
        dialect = Dialect.parse(case.dialect)
        parameters = PARAMETERS
    engine = CypherEngine(
        store,
        dialect=dialect,
        extended_merge=True,
        use_planner=False,
    )
    surfaces: list[tuple[str, bool, bool]] = [
        ("planner=off,compiled", True, False),
        ("planner=off,interpreted", False, False),
        ("planner=on,compiled", True, True),
    ]
    for index, write in enumerate(todo):
        try:
            engine.execute(write, parameters)
        except CypherError:
            # The statement rolled back atomically: nothing was
            # committed, so the views must simply be unaffected --
            # which the check after the *next* success verifies.
            continue
        except Exception as error:  # noqa: BLE001 -- findings
            failures.append(
                f"[views] statement {index} crashed: "
                f"{type(error).__name__}: {error}"
            )
            break
        _check_views(store, views, index, surfaces, failures)
        if failures:
            break  # report the first divergent statement only
    try:
        check_invariants(store)
    except InvariantViolation as violation:
        failures.append(f"[views] post-run invariants: {violation}")
    registry.close()
    return CaseResult(
        case=case, ok=not failures, failures=failures, outcomes=[]
    )


def _check_views(
    store,
    views,
    statement_index: int,
    surfaces,
    failures: list[str],
) -> None:
    """Maintained result == full re-execution, for every view/surface."""
    if not views:
        return
    maintained: dict[str, tuple] = {}
    for view in views:
        try:
            result = view.result()
        except Exception as error:  # noqa: BLE001 -- findings
            failures.append(
                f"[views:{view.id}] refresh crashed after statement "
                f"{statement_index}: {type(error).__name__}: {error}"
            )
            return
        maintained[view.id] = (
            tuple(result.columns),
            canonical_rows(list(result.records), with_ids=True),
        )
    for name, compiled, use_planner in surfaces:
        for view in views:
            fresh_engine = CypherEngine(
                store,
                dialect=view.dialect,
                extended_merge=True,
                use_planner=use_planner,
            )
            prepared = fresh_engine.prepare(view.prepared.statement)
            if not compiled:
                prepared = interpreted(prepared)
            try:
                reexec = fresh_engine.execute(prepared, view.parameters)
            except Exception as error:  # noqa: BLE001 -- findings
                failures.append(
                    f"[views:{view.id}:{name}] re-execution raised after "
                    f"statement {statement_index}: "
                    f"{type(error).__name__}: {error}"
                )
                continue
            columns, rows = maintained[view.id]
            if tuple(reexec.columns) != columns:
                failures.append(
                    f"[views:{view.id}:{name}] columns differ after "
                    f"statement {statement_index}: maintained "
                    f"{columns} != re-executed {tuple(reexec.columns)}"
                )
                continue
            fresh_rows = canonical_rows(reexec.records, with_ids=True)
            if view.dialect is Dialect.CYPHER9:
                agree = rows == fresh_rows
                mode = "exact"
            else:
                agree = _row_multiset(rows) == _row_multiset(fresh_rows)
                mode = "multiset"
            if not agree:
                failures.append(
                    f"[views:{view.id}:{name}] maintained result "
                    f"diverged from re-execution after statement "
                    f"{statement_index} ({mode} comparison, "
                    f"{len(rows)} maintained vs {len(fresh_rows)} "
                    f"re-executed rows): {view.source!r}"
                )


def _row_multiset(rows: tuple) -> dict:
    counts: dict = {}
    for row in map(repr, rows):  # a list-valued column does not hash
        counts[row] = counts.get(row, 0) + 1
    return counts


def _merge_statement(case: FuzzCase, keyword: str):
    """The UNWIND-driven merge statement for one semantics keyword."""
    from repro.parser.parser import parse

    columns = case.merge_table["columns"]
    projections = ", ".join(
        f"row.{column} AS {column}" for column in columns
    )
    surface = {
        "all": "MERGE ALL",
        "grouping": "MERGE GROUPING",
        "weak_collapse": "MERGE WEAK COLLAPSE",
        "collapse": "MERGE COLLAPSE",
        "same": "MERGE SAME",
        "legacy": "MERGE",
    }
    merge = surface[keyword]
    source = (
        f"UNWIND $rows AS row WITH {projections} "
        f"{merge} {case.merge_pattern}"
    )
    dialect = Dialect.CYPHER9 if keyword == "legacy" else Dialect.REVISED
    return (
        parse(source, dialect, extended_merge=True),
        dialect,
    )


def _graph_size(graph: dict) -> tuple[int, int]:
    return (len(graph.get("nodes", ())), len(graph.get("relationships", ())))


def _run_merge_case(case: FuzzCase) -> CaseResult:
    import random

    failures: list[str] = []
    outcomes: list[VariantOutcome] = []
    rows = list(case.merge_table["records"])
    shuffled = list(rows)
    random.Random(case.seed_key).shuffle(shuffled)
    results: dict[str, VariantOutcome] = {}
    for keyword in MERGE_CHAIN + ("legacy",):
        statement, dialect = _merge_statement(case, keyword)
        run = lambda tag, records, **kw: _run_variant(  # noqa: E731
            case,
            f"merge:{keyword}:{tag}",
            statements=(statement,),
            dialect=dialect,
            parameters={"rows": records},
            failures=failures,
            **kw,
        )
        base = run("base", rows, use_planner=False, compiled=True)
        results[keyword] = base
        outcomes.append(base)
        for outcome in (base,):
            if outcome.status == "crash":
                failures.append(
                    f"[{outcome.name}] crashed: {outcome.error_type}: "
                    f"{outcome.error_message}"
                )
        # Determinism for a fixed order -- required even of legacy MERGE.
        again = run("again", rows, use_planner=False, compiled=True)
        _compare_exact(base, again, failures)
        # Evaluation strategy must not matter.
        interpreted = run(
            "interpreted", rows, use_planner=False, compiled=False
        )
        _compare_exact(base, interpreted, failures)
        if keyword != "legacy":
            # Revised MERGE matches the input graph only: the driving
            # table is a multiset, so shuffling must not matter.
            shuffled_run = run(
                "shuffled", shuffled, use_planner=False, compiled=True
            )
            _compare_isomorphic(base, shuffled_run, failures)
            planner_run = run(
                "planner", rows, use_planner=True, compiled=True
            )
            _compare_isomorphic(base, planner_run, failures)
    # Collapse-chain monotonicity: each key refines the previous, so
    # created-entity counts may only shrink along the chain.
    chain_ok = [
        results[keyword]
        for keyword in MERGE_CHAIN
        if results[keyword].status == "ok"
    ]
    if len(chain_ok) == len(MERGE_CHAIN):
        sizes = [_graph_size(outcome.graph) for outcome in chain_ok]
        for (coarser, finer), (left, right) in zip(
            itertools.pairwise(MERGE_CHAIN), itertools.pairwise(sizes)
        ):
            if right[0] > left[0] or right[1] > left[1]:
                failures.append(
                    f"[merge chain] {finer} produced a larger graph "
                    f"{right} than {coarser} {left}"
                )
    elif chain_ok and len(chain_ok) != len(MERGE_CHAIN):
        statuses = {
            keyword: results[keyword].status for keyword in MERGE_CHAIN
        }
        failures.append(
            f"[merge chain] revised semantics disagree on success: "
            f"{statuses}"
        )
    return CaseResult(
        case=case, ok=not failures, failures=failures, outcomes=outcomes
    )
