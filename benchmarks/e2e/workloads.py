"""The six workloads: set-up, timed blocks, correctness checks.

A workload is driven by :mod:`.run` through one protocol:

``prepare()``   make the run's inputs from the seed (CSV, checkpoint)
``stage()``     untimed housekeeping before a set-up (fresh directory)
``setup()``     every pre-timing call into the program; timed as
                ``setup_s`` (load / restore / boot, indexes, views,
                warm-up)
``run_block()`` a fixed number of ops, each timed; returns (ops, wall)
``after_block()`` untimed work between blocks (digests, view checks)
``check()``     the correctness checks, name -> passed
``teardown()``  release what ``setup()`` built

Layers are only ever touched through their public functions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import Graph, bulkload
from repro.client import Client, ServerError
from repro.errors import CypherError
from repro.testing.invariants import (
    InvariantViolation,
    canonical_graph_json,
    check_invariants,
)

from . import streams
from .measure import Recorder, clock
from .streams import Op, op_stream
from .tracing import Tracer, shim_commit_hook, traced_run

#: nodes of the shared social dataset at ``--scale 1``
FULL_NODES = 20_000
PERSON_INDEX = [("Person", "id")]


class Env:
    """What one run of one workload is given."""

    def __init__(
        self,
        root: Path,
        work: Path,
        seed: int,
        scale: float,
        tracer: Tracer | None,
    ):
        self.root = root  #: the checkout
        self.work = work  #: scratch directory inside the checkout
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.nodes = max(1000, int(FULL_NODES * scale))

    def scaled(self, ops: int) -> int:
        return max(10, int(ops * self.scale))


def mismatch(op: Op, result: Any, error: Exception | None) -> str | None:
    """Why the op's outcome differs from its expectation, if it does."""
    expected_error = op.expect.get("error")
    if error is not None:
        if type(error).__name__ != expected_error:
            return f"{op.kind}: {type(error).__name__}: {error}"
        return None
    if expected_error is not None:
        return f"{op.kind}: expected {expected_error}, statement succeeded"
    for key, want in op.expect.items():
        if key == "rows":
            got = len(result.records)
        else:
            got = getattr(result.counters, key)
        if got != want:
            return f"{op.kind}: {key} is {got}, expected {want}: {op.text}"
    return None


def canonical_rows(result: Any) -> list[str]:
    """A result's rows as a sorted multiset of canonical JSON."""
    return sorted(
        json.dumps(record, sort_keys=True, default=repr)
        for record in result.records
    )


def graph_digest(store: Any) -> str:
    return hashlib.sha256(canonical_graph_json(store).encode()).hexdigest()


def cache_hit_rate(before: dict, after: dict) -> float:
    """AST-cache hit rate between two ``engine.ast_cache_info()`` reads."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / max(hits + misses, 1)


def bytes_per_entity(store: Any) -> float:
    """Deep size of the store per node or relationship (``graph`` layer)."""
    from benchmarks.memprof import store_memory_report

    return store_memory_report(store)["bytes_per_entity"]


class Workload:
    """Shared machinery of the embedded (in-process) workloads."""

    name = ""
    stream = ""  #: name of the op stream (several workloads may share one)
    #: ops before and per timed block, both in whole decks of the
    #: stream's mix (see ``streams._deck``) so every block does the
    #: same mix of work
    warmup_ops = 0
    block_ops = 0
    #: runs inside each op's timed interval, after its statement
    then: Callable[[], None] | None = None

    def __init__(self, env: Env):
        self.env = env
        self.warmup_ops = env.scaled(self.warmup_ops)
        self.block_ops = env.scaled(self.block_ops)
        #: set by the runner for each block: traced or not
        self.trace_ops = False
        #: distinct statement texts seen while tracing
        self.texts: set[str] = set()
        #: when a list, ``drive`` appends every ``(op, result)`` to it
        self.keep: list | None = None
        self.details: dict[str, Any] = {}
        self.graph: Graph | None = None
        self._ops: Iterator[Op] = iter(())
        self._op_ids = itertools.count(1)
        self._blocks = 0

    # -- protocol -------------------------------------------------------

    def prepare(self) -> None:
        started = clock()
        self.csv = bulkload.write_synthetic_csv(
            self.env.work / "csv",
            self.env.nodes,
            rels_per_node=streams.RELS_PER_NODE,
            seed=self.env.seed,
        )
        self.details["datagen_s"] = clock() - started

    def stage(self) -> None:
        pass

    def setup(self) -> None:
        self.graph = self.build_graph()
        self.configure()
        self._ops = op_stream(self.stream, self.env.seed, self.env.nodes)
        self._blocks = 0
        self.drive(self.take(self.warmup_ops), Recorder())

    def build_graph(self) -> Graph:
        raise NotImplementedError

    def configure(self) -> None:
        """Indexes and views: part of set-up, before the warm-up."""

    def run_block(self, recorder: Recorder) -> tuple[int, float]:
        ops = self.take(self.block_ops)
        started = clock()
        self.drive(ops, recorder)
        self._blocks += 1
        return len(ops), clock() - started

    def after_block(self) -> None:
        pass

    def check(self) -> dict[str, bool]:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.graph is not None:
            self.graph.close()
            self.graph = None

    def store_pid(self) -> int:
        """The process holding the store (``peak_rss_mib`` is its)."""
        return os.getpid()

    def layer_extras(self) -> dict[str, float]:
        """Per-layer numbers only this workload can supply."""
        return {}

    # -- helpers --------------------------------------------------------

    def take(self, count: int) -> list[Op]:
        return list(itertools.islice(self._ops, count))

    def span(self, name: str):
        tracer = self.env.tracer
        return tracer.span(name) if tracer is not None else nullcontext()

    def load_store(self):
        """Bulk-load the run's CSV pair (the ``graph`` layer)."""
        nodes_csv, rels_csv = self.csv
        started = clock()
        with self.span("graph.load_store"):
            store = bulkload.load_store(
                bulkload.iter_nodes_csv(nodes_csv),
                bulkload.iter_rels_csv(rels_csv),
                indexes=PERSON_INDEX,
            )
        self.details["load_store_s"] = clock() - started
        return store

    def drive(self, ops: list[Op], recorder: Recorder) -> None:
        """Run *ops* one after another, timing and checking each."""
        tracer = self.env.tracer if self.trace_ops else None
        run = (
            traced_run(tracer, self.graph)
            if tracer is not None
            else self.graph.run
        )
        then, keep = self.then, self.keep
        store = self.graph.store
        for op in ops:
            must_abort = "error" in op.expect
            if must_abort:
                before = (store.node_count(), store.relationship_count())
            if tracer is not None:
                self.texts.add(op.text)
                span = tracer.span("op", next(self._op_ids))
            else:
                span = nullcontext()
            result = error = None
            with span:
                started = clock()
                try:
                    result = run(op.text, op.params)
                    if then is not None:
                        then()
                except CypherError as caught:
                    error = caught
                seconds = clock() - started
            recorder.add(op.kind, seconds)
            problem = mismatch(op, result, error)
            if problem is None and must_abort:
                after = (store.node_count(), store.relationship_count())
                if after != before:
                    problem = f"{op.kind}: aborted statement changed the graph"
            if problem is not None:
                recorder.fail(problem)
            if keep is not None:
                keep.append((op, result))


# ----------------------------------------------------------------------
# Read workloads
# ----------------------------------------------------------------------


class ReadWorkload(Workload):
    """Embedded reads on the planner; the naive matcher is the oracle."""

    oracle_ops = 0  #: how many first-block ops the oracle re-runs

    def build_graph(self) -> Graph:
        return Graph(store=self.load_store(), use_planner=True, workers=1)

    def setup(self) -> None:
        super().setup()
        self.keep = self._first_block = []

    def after_block(self) -> None:
        self.keep = None

    def check(self) -> dict[str, bool]:
        # The digest covers the first block: a fixed prefix of the
        # stream, so it is the same on every run of a seed.
        digest = hashlib.sha256()
        for __, result in self._first_block:
            digest.update("\n".join(canonical_rows(result)).encode())
        self.details["result_digest"] = digest.hexdigest()
        oracle = Graph(store=self.graph.store, use_planner=False)
        checked = self._first_block[: self.env.scaled(self.oracle_ops)]
        agree = all(
            canonical_rows(oracle.run(op.text, op.params))
            == canonical_rows(result)
            for op, result in checked
        )
        self.details["oracle_ops"] = len(checked)
        return {"planner_agrees_with_naive_matcher": agree}


class OltpRead(ReadWorkload):
    name = "oltp_read"
    stream = "oltp_read"
    warmup_ops = 600
    block_ops = 1000
    oracle_ops = 200


class AnalyticScan(ReadWorkload):
    name = "analytic_scan"
    stream = "analytic_scan"
    warmup_ops = 40
    block_ops = 40
    oracle_ops = 40


# ----------------------------------------------------------------------
# Update workloads
# ----------------------------------------------------------------------


class UpdateMix(Workload):
    name = "update_mix"
    stream = "update_mix"
    warmup_ops = 100
    block_ops = 300

    def build_graph(self) -> Graph:
        return Graph(store=self.load_store(), use_planner=True)

    def configure(self) -> None:
        for label, key in streams.UPDATE_INDEXES:
            self.graph.create_index(label, key)

    def after_block(self) -> None:
        # Taken at a fixed point of the stream (warm-up plus one
        # block), so it is the same on every run of a seed and the
        # same for update_mix and durable_update_mix.
        if self._blocks == 1:
            self.details["graph_digest"] = graph_digest(self.graph.store)

    def check(self) -> dict[str, bool]:
        try:
            check_invariants(self.graph.store)
        except InvariantViolation as violation:
            self.details["invariant_violation"] = str(violation)
            return {"store_invariants_hold": False}
        return {"store_invariants_hold": True}


class FromCheckpoint(Workload):
    """Inputs of the durable workloads: the bulk-loaded checkpoint.

    ``prepare`` writes it once to ``pristine``; every set-up starts
    from a fresh copy in ``live``.
    """

    def prepare(self) -> None:
        super().prepare()
        self.pristine = self.env.work / "pristine"
        self.live = self.env.work / "live"
        store = self.load_store()
        with self.span("persistence.checkpoint"):
            path = bulkload.emit_checkpoint(self.pristine, store)
        self.details["checkpoint_bytes_per_entity"] = path.stat().st_size / (
            store.node_count() + store.relationship_count()
        )

    def stage(self) -> None:
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.pristine, self.live)


class DurableUpdateMix(FromCheckpoint, UpdateMix):
    name = "durable_update_mix"
    #: fixed flush policy of this workload
    fsync = "batch"

    def prepare(self) -> None:
        super().prepare()
        self.details["flush_policy"] = f"fsync={self.fsync}"

    def build_graph(self) -> Graph:
        started = clock()
        with self.span("persistence.restore"):
            graph = Graph.open(self.live, fsync=self.fsync, use_planner=True)
        self.details["restore_s"] = clock() - started
        if self.env.tracer is not None:
            shim_commit_hook(self.env.tracer, graph.store)
        return graph

    def run_block(self, recorder: Recorder) -> tuple[int, float]:
        ops = self.take(self.block_ops)
        started = clock()
        self.drive(ops, recorder)
        self._blocks += 1
        if self.trace_ops and self._blocks == 1:
            self.graph.sync()
            wal = self.graph.persistence.wal_path
            self.details["wal_bytes"] = wal.stat().st_size
            self.details["wal_commits"] = self.env.tracer.counts["commits"]
        checkpoint_started = clock()
        with self.span("persistence.checkpoint"):
            self.graph.checkpoint()
        recorder.add("checkpoint", clock() - checkpoint_started)
        return len(ops), clock() - started

    def check(self) -> dict[str, bool]:
        checks = super().check()
        final = graph_digest(self.graph.store)
        self.graph.close()
        self.graph = Graph.open(self.live, fsync=self.fsync)
        checks["reopen_reproduces_graph"] = (
            graph_digest(self.graph.store) == final
        )
        # The same prefix of the stream on a plain in-memory graph --
        # exactly what update_mix does -- must give the same graph.
        memory = UpdateMix(self.env)
        memory.csv = self.csv
        memory.setup()
        memory.run_block(Recorder())
        checks["matches_in_memory_graph"] = (
            graph_digest(memory.graph.store) == self.details["graph_digest"]
        )
        return checks

    def layer_extras(self) -> dict[str, float]:
        details = self.details
        return {
            "persistence.restore_s": details["restore_s"],
            "persistence.checkpoint_bytes_per_entity": details[
                "checkpoint_bytes_per_entity"
            ],
            "persistence.wal_bytes_per_commit": (
                details["wal_bytes"] / details["wal_commits"]
            ),
        }


# ----------------------------------------------------------------------
# View maintenance
# ----------------------------------------------------------------------


class ViewMaintenance(Workload):
    name = "view_maintenance"
    stream = "view_maintenance"
    warmup_ops = 20
    block_ops = 50

    def build_graph(self) -> Graph:
        return Graph(store=self.load_store(), use_planner=True)

    def configure(self) -> None:
        self.views = [
            self.graph.register_view(streams.VIEW_DELTA),
            self.graph.register_view(streams.VIEW_AGGREGATE),
        ]
        self._views_agree = True

    def setup(self) -> None:
        super().setup()
        self._stats_before = self.graph.views()

    def then(self) -> None:
        """Read both maintained views (maintenance happens here)."""
        with self.span("views.read") if self.trace_ops else nullcontext():
            for view in self.views:
                self.graph.view_result(view.id)

    def after_block(self) -> None:
        for view, source in zip(
            self.views, (streams.VIEW_DELTA, streams.VIEW_AGGREGATE)
        ):
            maintained = canonical_rows(self.graph.view_result(view.id))
            if maintained != canonical_rows(self.graph.run(source)):
                self._views_agree = False

    def check(self) -> dict[str, bool]:
        self.details["view_comparisons"] = self._blocks * len(self.views)
        return {"maintained_views_equal_reexecution": self._views_agree}

    def layer_extras(self) -> dict[str, float]:
        def total(stats: list[dict], key: str) -> float:
            return sum(view[key] for view in stats)

        before, after = self._stats_before, self.graph.views()

        def delta(key: str) -> float:
            return total(after, key) - total(before, key)

        seen = delta("batches_seen") or 1
        commits = seen / len(self.views)
        return {
            "views.maintenance_ms_per_commit": (
                delta("maintenance_s") * 1000 / commits
            ),
            "views.skip_share": delta("batches_skipped") / seen,
            "views.delta_share": delta("delta_refreshes") / seen,
            "views.full_share": delta("full_refreshes") / seen,
        }


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------


def start_server(env: Env, directory: Path, fsync: str) -> tuple[Any, str]:
    """Boot ``python -m repro.server`` on a free port; returns (proc, url)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.server",
            "--port",
            "0",
            "--path",
            str(directory),
            "--fsync",
            fsync,
        ],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(env.root / "src")),
        text=True,
    )
    line = process.stdout.readline()
    if "listening on " not in line:
        stop_server(process)
        raise RuntimeError(f"server did not start: {line!r}")
    url = line.split("listening on ")[1].split()[0]
    with Client.connect(url) as client:
        client.health()
    return process, url


def stop_server(process: Any, sig: int = signal.SIGTERM) -> None:
    """Signal the server and wait until it has ended."""
    if process.poll() is None:
        process.send_signal(sig)
    process.wait()
    process.stdout.close()


def create_indexes(run: Callable[[str], Any], indexes: tuple) -> None:
    for label, key in indexes:
        run(f"CREATE INDEX ON :{label}({key})")


class Connection:
    """One closed-loop client connection and what it was acknowledged."""

    def __init__(self, index: int, url: str, ops: Iterator[Op]):
        self.client = Client.connect(url)
        self.session = self.client.session()
        self.ops = ops
        #: (client, seq, half) of every acknowledged :Event write
        self.acked: list[tuple[int, int, int]] = []
        self.max_gap_s = 0.0
        self._op_ids = itertools.count(index * 10_000_000 + 1)

    def execute(self, op: Op, tracer: Tracer | None) -> Any:
        """Send one op; returns the last statement's result."""
        span = tracer.span if tracer is not None else _no_span
        if not op.steps:
            with span("client.run"):
                result = self.client.run(op.text, op.params)
            written = [op.params] if op.kind == "create_event" else []
        else:
            with span("client.run"):
                self.session.begin()
            for text, params in op.steps:
                with span("client.run"):
                    result = self.session.run(text, params)
            with span("client.run"):
                self.session.commit()
            written = [params for __, params in op.steps]
        self.acked.extend((p["c"], p["n"], p["h"]) for p in written)
        return result

    def drive(
        self, ops: list[Op], recorder: Recorder, tracer: Tracer | None
    ) -> None:
        previous_end = None
        for op in ops:
            result = error = None
            span = (
                tracer.span("op", next(self._op_ids))
                if tracer is not None
                else nullcontext()
            )
            with span:
                started = clock()
                try:
                    result = self.execute(op, tracer)
                except (CypherError, ServerError) as caught:
                    error = caught
                ended = clock()
            if previous_end is not None:
                self.max_gap_s = max(self.max_gap_s, started - previous_end)
            previous_end = ended
            recorder.add(op.kind, ended - started)
            problem = mismatch(op, result, error)
            if problem is not None:
                recorder.fail(problem)

    def close(self) -> None:
        self.client.close()


def _no_span(name: str):
    return nullcontext()


class ServiceMixed(FromCheckpoint):
    name = "service_mixed"
    stream = "service_mixed"
    warmup_ops = 100  # per connection
    block_ops = 400  # per connection
    #: fixed flush policy of this workload (the server's shipped default)
    fsync = "always"
    #: ops each rung of the traced ladder replays
    rung_ops = 400

    def __init__(self, env: Env):
        super().__init__(env)
        self.clients = min(os.cpu_count() or 1, 4)
        self.process = None
        self.connections: list[Connection] = []
        self.details["clients"] = self.clients
        self.details["flush_policy"] = f"fsync={self.fsync}, group commit"
        self._cpu_s = 0.0
        self._wall_s = 0.0

    def setup(self) -> None:
        self.process, self.url = start_server(self.env, self.live, self.fsync)
        self.connections = [
            Connection(
                index,
                self.url,
                op_stream(self.stream, self.env.seed, self.env.nodes, index),
            )
            for index in range(self.clients)
        ]
        create_indexes(
            self.connections[0].client.run, streams.SERVICE_INDEXES
        )
        self._blocks = 0
        self.in_parallel(self.warmup_ops, Recorder(), None)

    def in_parallel(
        self, count: int, recorder: Recorder, tracer: Tracer | None
    ) -> float:
        """Each connection runs *count* ops from its own thread."""
        work = [
            (connection, list(itertools.islice(connection.ops, count)))
            for connection in self.connections
        ]
        recorders = [Recorder() for __ in work]
        threads = [
            threading.Thread(
                target=connection.drive, args=(ops, own, tracer)
            )
            for (connection, ops), own in zip(work, recorders)
        ]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = clock() - started
        for own in recorders:
            recorder.merge(own)
        return wall

    def run_block(self, recorder: Recorder) -> tuple[int, float]:
        tracer = self.env.tracer if self.trace_ops else None
        cpu_started = time.process_time()
        wall = self.in_parallel(self.block_ops, recorder, tracer)
        self._cpu_s += time.process_time() - cpu_started
        self._wall_s += wall
        self._blocks += 1
        return self.block_ops * self.clients, wall

    def store_pid(self) -> int:
        return self.process.pid

    def check(self) -> dict[str, bool]:
        # The generator's own health: a run where it (not the server)
        # was the bottleneck shows here.
        self.details["generator_cpu_share"] = self._cpu_s / self._wall_s
        self.details["max_request_gap_ms"] = [
            connection.max_gap_s * 1000 for connection in self.connections
        ]
        with Client.connect(self.url) as admin:
            stats = admin.stats()
            self.details["server_stats"] = stats
            # A transaction the server never sees committed: neither
            # half may survive the crash.
            orphan = admin.session()
            orphan.begin()
            for half in (1, 2):
                orphan.run(
                    streams.CREATE_EVENT, {"c": -1, "n": 1, "h": half}
                )
        acked = Counter(
            event
            for connection in self.connections
            for event in connection.acked
        )
        for connection in self.connections:
            connection.close()
        self.connections = []
        stop_server(self.process, signal.SIGKILL)
        self.process = None
        with Graph.open(self.live) as recovered:
            rows = recovered.run(
                "MATCH (e:Event) "
                "RETURN e.client AS c, e.seq AS n, e.half AS h"
            ).records
        present = Counter((row["c"], row["n"], row["h"]) for row in rows)
        self.details["acked_events"] = sum(acked.values())
        return {
            "acked_writes_survive_sigkill": not (acked - present),
            "no_unacknowledged_write_survives": not (present - acked),
        }

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.process is not None:
            stop_server(self.process)
            self.process = None

    # -- the traced ladder ----------------------------------------------

    def layer_extras(self) -> dict[str, float]:
        """Replay one client's autocommit ops on three rungs.

        Direct ``Graph.run`` on an identical store, the service through
        ``MockTransport``, and real HTTP: the same statements from one
        client, so service and socket time fall out by subtraction.
        """
        from repro.server.service import GraphService, ServerConfig

        ops = [
            op
            for op in itertools.islice(
                op_stream(self.stream, self.env.seed, self.env.nodes, 99),
                4 * self.env.scaled(self.rung_ops),
            )
            if not op.steps
        ][: self.env.scaled(self.rung_ops)]
        warm, timed = ops[: len(ops) // 8], ops[len(ops) // 8 :]
        self.texts.update(op.text for op in ops)
        rung = {}

        def replay(name: str, run: Callable[[str, dict], Any]) -> None:
            create_indexes(run, streams.SERVICE_INDEXES)
            for op in warm:
                run(op.text, op.params)
            with self.span(name):
                started = clock()
                for op in timed:
                    run(op.text, op.params)
                rung[name] = (clock() - started) * 1000 / len(timed)

        def directory(name: str) -> Path:
            target = self.env.work / name
            shutil.copytree(self.pristine, target)
            return target

        # The service opens its manager with fsync=off and lets the
        # group committer supply "always"; the direct rung matches the
        # manager, so the committer's fsync counts as service time.
        started = clock()
        with self.span("persistence.restore"):
            graph = Graph.open(directory("rung-direct"), fsync="off")
        restore_s = clock() - started
        cache_before = graph.engine.ast_cache_info()
        replay("engine.run", graph.run)
        cache_after = graph.engine.ast_cache_info()
        per_entity = bytes_per_entity(graph.store)
        graph.close()

        service = GraphService(
            ServerConfig(path=str(directory("rung-service")), fsync=self.fsync)
        )
        with Client.in_process(service) as client:
            replay("service.run", client.run)

        process, url = start_server(
            self.env, directory("rung-http"), self.fsync
        )
        try:
            with Client.connect(url) as client:
                replay("client.run", client.run)
        finally:
            stop_server(process)

        self.details["rung_ms_per_req"] = rung
        stats = self.details["server_stats"]
        commits = stats["group_commit"]
        return {
            "server.service_ms_per_req": rung["service.run"]
            - rung["engine.run"],
            "server.http_ms_per_req": rung["client.run"]
            - rung["service.run"],
            "server.writers_per_fsync": (
                commits["synced_waiters"] / max(commits["batches"], 1)
            ),
            "server.error_share": stats["errors"] / stats["requests"],
            "persistence.restore_s": restore_s,
            "persistence.checkpoint_bytes_per_entity": self.details[
                "checkpoint_bytes_per_entity"
            ],
            "engine.ast_cache_hit_rate": cache_hit_rate(
                cache_before, cache_after
            ),
            "graph.bytes_per_entity": per_entity,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        OltpRead,
        AnalyticScan,
        UpdateMix,
        DurableUpdateMix,
        ServiceMixed,
        ViewMaintenance,
    )
}
