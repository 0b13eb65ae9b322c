"""Crash-injection testing for the write-ahead log.

Runs a seeded update workload against a durable graph while recording,
for every WAL record, the canonical graph JSON of the committed state
it completes.  Then it simulates a crash at **every record boundary**
-- recovery sees only the first *k* records -- plus *torn-tail*
variants where a partial (or corrupt) record follows the boundary, and
asserts three oracles on every recovered store:

* **byte identity** -- the recovered graph's canonical JSON equals the
  last committed pre-crash state (statement atomicity survives the
  crash: a half-written record never happened);
* **invariants** -- the full store-invariant oracle
  (:func:`repro.testing.invariants.check_invariants`) passes;
* **LSN** -- the recovered ``store.lsn`` is the LSN of the last intact
  WAL record (the checkpoint's stamp when none survives), so the next
  commit continues the one sequence.

The workload mixes the shapes the journal can produce: creates,
property sets and removals, label changes, deletes (plain and DETACH),
MERGE, schema commands, rolled-back statements (which must never reach
the log) and multi-statement transactions (committed and rolled back).

:func:`run_checkpoint_crash_scenario` extends the same treatment to
the **streaming checkpoint**: the workload checkpoints mid-stream,
then the scenario kills the checkpoint *write* at every streaming-
record boundary (a torn ``checkpoint.json.tmp`` next to the full WAL
-- recovery must ignore it and replay the log) and, separately,
presents a torn or corrupt ``checkpoint.json`` (which the atomic
rename makes impossible, so recovery must fail loudly rather than
return a silently wrong graph).

:func:`run_delta_crash_scenario` does the same for **delta
checkpoints**: it kills each delta append at every frame boundary (and
mid-frame) beside the full pre-checkpoint WAL, after the complete
segment but before the WAL truncation, and between a base rename and
the deletion of the delta log it supersedes; and it corrupts a middle
segment once the WAL it covered is gone, which must raise.
"""

from __future__ import annotations

import io
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CypherError, PersistenceError
from repro.graph.store import GraphStore
from repro.persistence import PersistenceManager, iter_frames, iter_records
from repro.persistence.checkpoint import (
    CHECKPOINT_NAME,
    DELTA_NAME,
    WAL_NAME,
    checkpoint_record_boundaries,
)
from repro.session import Graph
from repro.testing.invariants import (
    InvariantViolation,
    canonical_graph_json,
    check_invariants,
)


@dataclass
class CrashReport:
    """Outcome of one crash-injection scenario."""

    seed: int
    statements_run: int = 0
    records_written: int = 0
    kill_points: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def scenario_statements(seed: int, count: int = 20) -> list[str]:
    """A deterministic update workload for crash injection."""
    rng = random.Random(f"crash:{seed}")
    labels = ["Person", "Item", "Tag"]
    statements: list[str] = []
    for index in range(count):
        roll = rng.random()
        label = rng.choice(labels)
        if roll < 0.30 or index < 3:
            statements.append(
                f"CREATE (:{label} {{k: {index}, "
                f"v: {rng.randint(0, 9)}}})"
            )
        elif roll < 0.45:
            statements.append(
                f"MATCH (n:{label}) SET n.v = n.k + {rng.randint(1, 5)}, "
                f"n.w = {rng.random():.3f}"
            )
        elif roll < 0.55:
            statements.append(f"MATCH (n:{label}) REMOVE n.w SET n:Extra")
        elif roll < 0.65:
            other = rng.choice(labels)
            statements.append(
                f"MATCH (a:{label}), (b:{other}) WHERE a.k < b.k "
                f"CREATE (a)-[:REL {{d: a.k}}]->(b)"
            )
        elif roll < 0.72:
            statements.append(
                f"MATCH (n:{label}) WHERE n.k = {rng.randint(0, count)} "
                f"DETACH DELETE n"
            )
        elif roll < 0.80:
            statements.append(
                f"MERGE ALL (:{label} {{k: {rng.randint(0, 5)}}})"
            )
        elif roll < 0.88:
            statements.append(f"CREATE INDEX ON :{label}(k)")
        else:
            # Guaranteed failure: must roll back and never hit the log.
            statements.append(
                f"MATCH (n:{label}) SET n.bad = n.k / 0"
            )
    return statements


def _recover_prefix(
    source_wal: bytes, directory: Path, length: int
) -> GraphStore:
    """Recover a store from the first *length* bytes of the WAL."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / WAL_NAME).write_bytes(source_wal[:length])
    store = GraphStore()
    manager = PersistenceManager(directory)
    manager.recover(store, verify=False)
    return store


def run_crash_scenario(
    seed: int,
    directory: Path | str,
    *,
    statements: list[str] | None = None,
    fsync: str = "off",
    torn_variants: bool = True,
) -> CrashReport:
    """Execute one workload, then kill recovery at every boundary."""
    base = Path(directory)
    live = base / "live"
    if live.exists():
        shutil.rmtree(live)
    report = CrashReport(seed=seed)
    todo = (
        statements if statements is not None else scenario_statements(seed)
    )

    graph = Graph(path=live, fsync=fsync, extended_merge=True)
    wal_path = live / WAL_NAME
    # canonical JSON of the committed state after each statement, paired
    # with the WAL record count at that point
    timeline: list[tuple[int, str]] = [(0, canonical_graph_json(graph.store))]
    for statement in todo:
        try:
            graph.run(statement)
        except CypherError:
            pass  # rolled back; must not have logged anything
        report.statements_run += 1
        written = len(_record_boundaries(wal_path.read_bytes())) - 1
        timeline.append((written, canonical_graph_json(graph.store)))
    graph.close()

    wal_bytes = wal_path.read_bytes()
    boundaries = _record_boundaries(wal_bytes)
    records = len(boundaries) - 1
    report.records_written = records
    if boundaries[-1] != len(wal_bytes):
        report.failures.append(
            f"live WAL has a dirty tail "
            f"({len(wal_bytes) - boundaries[-1]} bytes) without any crash"
        )

    def expected_json(record_count: int) -> str:
        # The committed state a prefix of record_count records encodes:
        # the last statement whose records all fit in the prefix.
        # (Data statements are single-record; only schema statements
        # can emit several records, and those never change the graph
        # JSON, so the straddling case is covered too.)
        best = timeline[0][1]
        for count, snapshot in timeline:
            if count <= record_count:
                best = snapshot
        return best

    scratch = base / "scratch"
    for k, boundary in enumerate(boundaries):
        cut_points = [(f"boundary[{k}]", boundary)]
        if torn_variants and k < records:
            next_boundary = boundaries[k + 1]
            torn = boundary + max(1, (next_boundary - boundary) // 2)
            if torn < next_boundary:
                cut_points.append((f"torn[{k}]", torn))
        for name, cut in cut_points:
            if scratch.exists():
                shutil.rmtree(scratch)
            report.kill_points += 1
            try:
                store = _recover_prefix(wal_bytes, scratch, cut)
            except Exception as error:  # noqa: BLE001 -- findings
                report.failures.append(
                    f"[{name}] recovery crashed: "
                    f"{type(error).__name__}: {error}"
                )
                continue
            recovered = canonical_graph_json(store)
            wanted = expected_json(k)
            if recovered != wanted:
                report.failures.append(
                    f"[{name}] recovered graph differs from the last "
                    f"committed pre-crash state"
                )
            _check_lsn(report, name, store, _last_lsn(wal_bytes[:cut]))
            try:
                check_invariants(store)
            except InvariantViolation as violation:
                report.failures.append(
                    f"[{name}] recovered store invariants: {violation}"
                )

    # Corrupt-checksum variant: flip one byte inside the last record's
    # payload; recovery must treat everything from there on as torn.
    if records and torn_variants:
        report.kill_points += 1
        corrupt = bytearray(wal_bytes)
        corrupt[boundaries[-2] + 8] ^= 0xFF
        if scratch.exists():
            shutil.rmtree(scratch)
        try:
            store = _recover_prefix(bytes(corrupt), scratch, len(corrupt))
        except Exception as error:  # noqa: BLE001 -- findings
            report.failures.append(
                f"[corrupt] recovery crashed: "
                f"{type(error).__name__}: {error}"
            )
        else:
            if canonical_graph_json(store) != expected_json(records - 1):
                report.failures.append(
                    "[corrupt] corrupt record was not discarded"
                )
            _check_lsn(
                report, "corrupt", store, _last_lsn(bytes(corrupt))
            )
    return report


def run_checkpoint_crash_scenario(
    seed: int,
    directory: Path | str,
    *,
    statements: list[str] | None = None,
    fsync: str = "off",
) -> CrashReport:
    """Kill the streaming checkpoint at every record boundary.

    Runs half the workload, checkpoints (streaming format 2), runs the
    rest, then asserts:

    * full recovery (checkpoint + WAL suffix) is byte-identical to the
      final committed state;
    * a crash *during* the checkpoint write -- a torn ``.tmp`` file
      truncated at every streaming-record boundary (and mid-record)
      beside the full pre-checkpoint WAL -- recovers the exact
      checkpoint-time state, ignoring the temp file;
    * a torn or corrupt ``checkpoint.json`` itself (impossible under
      the atomic-rename contract) raises :class:`PersistenceError`
      instead of silently recovering a wrong graph.
    """
    base = Path(directory)
    live = base / "live"
    if live.exists():
        shutil.rmtree(live)
    report = CrashReport(seed=seed)
    todo = (
        statements if statements is not None else scenario_statements(seed)
    )
    half = max(1, len(todo) // 2)

    graph = Graph(path=live, fsync=fsync, extended_merge=True)
    for statement in todo[:half]:
        try:
            graph.run(statement)
        except CypherError:
            pass
        report.statements_run += 1
    # WAL as it stands the instant before the checkpoint: a crash
    # before the atomic rename leaves exactly this plus a torn .tmp.
    pre_checkpoint_wal = (live / WAL_NAME).read_bytes()
    graph.checkpoint()
    checkpoint_state = canonical_graph_json(graph.store)
    checkpoint_lsn = graph.store.lsn
    for statement in todo[half:]:
        try:
            graph.run(statement)
        except CypherError:
            pass
        report.statements_run += 1
    final_state = canonical_graph_json(graph.store)
    graph.close()

    checkpoint_path = live / CHECKPOINT_NAME
    checkpoint_bytes = checkpoint_path.read_bytes()
    wal_suffix = (live / WAL_NAME).read_bytes()
    report.records_written = len(_record_boundaries(wal_suffix)) - 1
    boundaries = checkpoint_record_boundaries(checkpoint_path)

    scratch = base / "scratch"

    def recover_dir(
        checkpoint: bytes | None,
        wal: bytes,
        tmp: bytes | None = None,
    ) -> GraphStore:
        if scratch.exists():
            shutil.rmtree(scratch)
        scratch.mkdir(parents=True)
        if checkpoint is not None:
            (scratch / CHECKPOINT_NAME).write_bytes(checkpoint)
        if tmp is not None:
            (scratch / (CHECKPOINT_NAME + ".tmp")).write_bytes(tmp)
        (scratch / WAL_NAME).write_bytes(wal)
        store = GraphStore()
        PersistenceManager(scratch).recover(store, verify=False)
        return store

    # Oracle 1: the intact pair replays to the final committed state.
    report.kill_points += 1
    try:
        store = recover_dir(checkpoint_bytes, wal_suffix)
        if canonical_graph_json(store) != final_state:
            report.failures.append(
                "[intact] checkpoint + WAL suffix differs from the "
                "final committed state"
            )
        _check_lsn(
            report, "intact", store, _last_lsn(wal_suffix, checkpoint_lsn)
        )
        check_invariants(store)
    except (Exception, InvariantViolation) as error:  # noqa: BLE001
        report.failures.append(
            f"[intact] recovery crashed: {type(error).__name__}: {error}"
        )

    # Oracle 2: crash during the write -- torn .tmp at every streaming
    # record boundary (plus a mid-record cut), full WAL still present.
    for k, boundary in enumerate(boundaries):
        cuts = [(f"tmp-boundary[{k}]", boundary)]
        if k + 1 < len(boundaries):
            middle = boundary + max(
                1, (boundaries[k + 1] - boundary) // 2
            )
            if middle < boundaries[k + 1]:
                cuts.append((f"tmp-torn[{k}]", middle))
        for name, cut in cuts:
            report.kill_points += 1
            try:
                store = recover_dir(
                    None, pre_checkpoint_wal, tmp=checkpoint_bytes[:cut]
                )
            except Exception as error:  # noqa: BLE001 -- findings
                report.failures.append(
                    f"[{name}] recovery crashed: "
                    f"{type(error).__name__}: {error}"
                )
                continue
            if canonical_graph_json(store) != checkpoint_state:
                report.failures.append(
                    f"[{name}] torn .tmp changed the recovered state"
                )
            _check_lsn(report, name, store, checkpoint_lsn)
            try:
                check_invariants(store)
            except InvariantViolation as violation:
                report.failures.append(
                    f"[{name}] recovered store invariants: {violation}"
                )

    # Oracle 3: a torn checkpoint.json must fail loudly, never recover
    # a silently wrong graph (every proper prefix, boundary and torn).
    for k, boundary in enumerate(boundaries):
        cuts = []
        if boundary < len(checkpoint_bytes):
            cuts.append((f"checkpoint-boundary[{k}]", boundary))
        if k + 1 < len(boundaries):
            middle = boundary + max(
                1, (boundaries[k + 1] - boundary) // 2
            )
            if middle < boundaries[k + 1]:
                cuts.append((f"checkpoint-torn[{k}]", middle))
        for name, cut in cuts:
            report.kill_points += 1
            try:
                recover_dir(checkpoint_bytes[:cut], wal_suffix)
            except PersistenceError:
                continue  # the loud failure we demand
            except Exception as error:  # noqa: BLE001 -- findings
                report.failures.append(
                    f"[{name}] wrong error class: "
                    f"{type(error).__name__}: {error}"
                )
            else:
                report.failures.append(
                    f"[{name}] torn checkpoint accepted silently"
                )

    # Oracle 4: a corrupt record payload must fail loudly too.
    if len(boundaries) >= 2:
        report.kill_points += 1
        corrupt = bytearray(checkpoint_bytes)
        corrupt[boundaries[-2] + 8] ^= 0xFF
        try:
            recover_dir(bytes(corrupt), wal_suffix)
        except PersistenceError:
            pass
        except Exception as error:  # noqa: BLE001 -- findings
            report.failures.append(
                f"[corrupt-checkpoint] wrong error class: "
                f"{type(error).__name__}: {error}"
            )
        else:
            report.failures.append(
                "[corrupt-checkpoint] corrupt record accepted silently"
            )
    return report


#: run before the base is written: it makes the base large next to the
#: scenario's segments, so its checkpoints stay deltas
_PADDING = "UNWIND range(1, 1000) AS i CREATE (:Pad {i: i})"


def _base_churn(number: int) -> list[str]:
    """Statements that change, link and delete entities of the base."""
    return [
        f"MATCH (n:Pad {{i: {10 + number}}}) DETACH DELETE n",
        f"MATCH (n:Pad {{i: {20 + number}}}) SET n:Seen, n.v = {number}",
        f"MATCH (p:Pad {{i: {30 + number}}}) "
        f"CREATE (p)-[:LINK {{w: 0}}]->(:New {{k: {number}}})",
        f"MATCH (:Pad)-[r:LINK]->() SET r.w = {number + 1}",
        "MATCH (n:Pad {i: 31})-[r:LINK]->() DELETE r",
    ]


@dataclass
class _DeltaPoint:
    """One delta checkpoint of the scenario, as the disk saw it."""

    delta_before: bytes
    wal_before: bytes
    segment: bytes
    state: str
    lsn: int


def run_delta_crash_scenario(
    seed: int,
    directory: Path | str,
    *,
    statements: list[str] | None = None,
    fsync: str = "off",
) -> CrashReport:
    """Kill delta checkpoints at every frame and around the base rewrite.

    Writes a base, then runs the workload in three parts with a delta
    checkpoint after each, compacts, and checkpoints once more.  Each
    recovered store must be byte-identical to the state the checkpoint
    being killed would have written, with its LSN:

    * a delta append cut at every frame boundary and mid-frame, beside
      the full pre-checkpoint WAL (the complete segment is the kill
      between the append and the WAL truncation);
    * the new base beside the old delta log and WAL (a kill between the
      base rename and the delta log's deletion), and that directory
      reopened, written and checkpointed again;
    * a corrupt middle segment whose WAL was already truncated must
      raise :class:`PersistenceError`;
    * the intact final directory must reproduce the final state.
    """
    base = Path(directory)
    live = base / "live"
    if live.exists():
        shutil.rmtree(live)
    report = CrashReport(seed=seed)
    todo = (
        statements if statements is not None else scenario_statements(seed)
    )
    wal_path = live / WAL_NAME
    delta_path = live / DELTA_NAME

    def read(path: Path) -> bytes:
        return path.read_bytes() if path.exists() else b""

    graph = Graph(path=live, fsync=fsync, extended_merge=True)
    graph.run(_PADDING)
    graph.checkpoint()
    first_base = read(live / CHECKPOINT_NAME)
    points: list[_DeltaPoint] = []
    third = max(1, len(todo) // 3)
    chunks = (todo[:third], todo[third : 2 * third], todo[2 * third :])
    for number, chunk in enumerate(chunks):
        for statement in [*chunk, *_base_churn(number)]:
            try:
                graph.run(statement)
            except CypherError:
                pass
            report.statements_run += 1
        delta_before, wal_before = read(delta_path), read(wal_path)
        graph.checkpoint()
        if graph.persistence.last_checkpoint["kind"] != "delta":
            report.failures.append(
                "[setup] a checkpoint rewrote the base; the padding no "
                "longer keeps the scenario's checkpoints deltas"
            )
            graph.close()
            return report
        points.append(
            _DeltaPoint(
                delta_before,
                wal_before,
                read(delta_path)[len(delta_before) :],
                canonical_graph_json(graph.store),
                graph.store.lsn,
            )
        )
    # The base rewrite, then one more segment on top of it.
    stale_delta, compact_wal = read(delta_path), read(wal_path)
    graph.persistence.compact(graph.store)
    compacted = canonical_graph_json(graph.store)
    compacted_lsn = graph.store.lsn
    second_base = read(live / CHECKPOINT_NAME)
    graph.run("MATCH (n:Pad) WHERE n.i <= 3 SET n.touched = true")
    graph.checkpoint()
    graph.run("MATCH (n:Pad {i: 4}) DELETE n")
    final_state = canonical_graph_json(graph.store)
    final_lsn = graph.store.lsn
    graph.close()
    final_files = {
        CHECKPOINT_NAME: second_base,
        DELTA_NAME: read(delta_path),
        WAL_NAME: read(wal_path),
    }

    scratch = base / "scratch"

    def lay_out(files: dict[str, bytes]) -> None:
        if scratch.exists():
            shutil.rmtree(scratch)
        scratch.mkdir(parents=True)
        for name, data in files.items():
            (scratch / name).write_bytes(data)

    def expect(name: str, files: dict[str, bytes], state: str, lsn: int):
        report.kill_points += 1
        lay_out(files)
        store = GraphStore()
        try:
            PersistenceManager(scratch).recover(store, verify=False)
        except Exception as error:  # noqa: BLE001 -- findings
            report.failures.append(
                f"[{name}] recovery crashed: {type(error).__name__}: {error}"
            )
            return
        if canonical_graph_json(store) != state:
            report.failures.append(
                f"[{name}] recovered graph differs from the checkpointed "
                f"state"
            )
        _check_lsn(report, name, store, lsn)
        try:
            check_invariants(store)
        except InvariantViolation as violation:
            report.failures.append(
                f"[{name}] recovered store invariants: {violation}"
            )

    expect("delta-intact", final_files, final_state, final_lsn)

    # A delta append killed at every frame boundary and mid-frame,
    # with the WAL it was about to supersede still whole.
    for number, point in enumerate(points):
        ends = [0] + [
            end for __, end in iter_frames(
                io.BytesIO(point.segment), strict=False
            )
        ]
        cuts = []
        for k, end in enumerate(ends):
            cuts.append((f"delta[{number}]-boundary[{k}]", end))
            if k + 1 < len(ends) and ends[k + 1] - end > 1:
                cuts.append(
                    (f"delta[{number}]-torn[{k}]", (end + ends[k + 1]) // 2)
                )
        for name, cut in cuts:
            expect(
                name,
                {
                    CHECKPOINT_NAME: first_base,
                    DELTA_NAME: point.delta_before + point.segment[:cut],
                    WAL_NAME: point.wal_before,
                },
                point.state,
                point.lsn,
            )

    # Killed between the base rename and the delta log's deletion: the
    # stale segments name the old base and must be ignored ...
    stale_files = {
        CHECKPOINT_NAME: second_base,
        DELTA_NAME: stale_delta,
        WAL_NAME: compact_wal,
    }
    expect("base-renamed", stale_files, compacted, compacted_lsn)
    # ... also once the reopened graph appended a segment after them.
    report.kill_points += 1
    lay_out(stale_files)
    try:
        reopened = Graph(path=scratch, fsync=fsync)
        reopened.run("CREATE (:Pad {i: -1})")
        reopened.checkpoint()
        wanted = canonical_graph_json(reopened.store)
        wanted_lsn = reopened.store.lsn
        reopened.close()
        store = GraphStore()
        PersistenceManager(scratch).recover(store)
        if canonical_graph_json(store) != wanted:
            report.failures.append(
                "[base-renamed-then-append] reopen differs from the "
                "checkpointed state"
            )
        _check_lsn(report, "base-renamed-then-append", store, wanted_lsn)
    except Exception as error:  # noqa: BLE001 -- findings
        report.failures.append(
            f"[base-renamed-then-append] {type(error).__name__}: {error}"
        )

    # A corrupt middle segment after the WAL it covered was truncated:
    # the later segments are unreachable, so recovery must refuse.
    written = [point for point in points if point.segment]
    if len(written) >= 2:
        report.kill_points += 1
        corrupt = bytearray(stale_delta)
        corrupt[len(written[-2].delta_before) + 8] ^= 0xFF
        lay_out(
            {
                CHECKPOINT_NAME: first_base,
                DELTA_NAME: bytes(corrupt),
                WAL_NAME: b"",
            }
        )
        try:
            PersistenceManager(scratch).recover(GraphStore(), verify=False)
        except PersistenceError:
            pass
        except Exception as error:  # noqa: BLE001 -- findings
            report.failures.append(
                f"[delta-corrupt-middle] wrong error class: "
                f"{type(error).__name__}: {error}"
            )
        else:
            report.failures.append(
                "[delta-corrupt-middle] corrupt segment accepted silently"
            )
    return report


def _last_lsn(wal: bytes, checkpoint_lsn: int = 0) -> int:
    """LSN of the last intact record of *wal*, else *checkpoint_lsn*."""
    lsn = checkpoint_lsn
    for record, __ in iter_records(io.BytesIO(wal)):
        lsn = max(lsn, record.lsn)
    return lsn


def _check_lsn(
    report: CrashReport, name: str, store: GraphStore, wanted: int
) -> None:
    if store.lsn != wanted:
        report.failures.append(
            f"[{name}] recovered store.lsn {store.lsn}, the last intact "
            f"record carries {wanted}"
        )


def _record_boundaries(data: bytes) -> list[int]:
    """Byte offsets of every intact record boundary, starting at 0."""
    return [0] + [end for __, end in iter_records(io.BytesIO(data))]
