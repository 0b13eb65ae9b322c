"""Experiment harness: regenerate every paper artifact and print the
paper-vs-measured comparison recorded in EXPERIMENTS.md.

Run with:  python benchmarks/harness.py

Unlike the pytest-benchmark files (which time each piece), this script
executes each experiment once and prints a compact report: experiment
id, what the paper says, and what this implementation produced.  It
also writes ``benchmarks/BENCH_harness.json``: one entry per recorded
row with ``elapsed_ms`` and ``db_hits`` fields (the db-hit taxonomy of
:mod:`repro.graph.counters`), so the perf trajectory captures work
done, not just wall-time.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import Dialect, Graph, HitCounters, MergeSemantics, PropertyConflictError
from repro.core.merge import merge
from repro.errors import DanglingRelationshipError, UpdateError
from repro.graph.comparison import fingerprint
from repro.parser import parse
from repro.paper import (
    EXAMPLE_1_SWAP,
    EXAMPLE_2_COPY_NAME,
    EXAMPLE_3_MERGE,
    EXAMPLE_3_MERGE_ALL,
    EXAMPLE_3_MERGE_SAME,
    EXAMPLE_5_PATTERN,
    EXAMPLE_6_PATTERN,
    EXAMPLE_7_PATTERN,
    QUERY_1,
    QUERY_2,
    QUERY_3,
    QUERY_4,
    QUERY_5,
    SECTION_4_2_STATEMENT,
    example3_graph,
    example3_table,
    example5_table,
    example6_table,
    example7_graph_and_table,
    figure1_graph,
    section_4_2_graph,
)
from repro.runtime.context import EvalContext

ROWS: list[dict] = []

BENCH_JSON = Path(__file__).with_name("BENCH_harness.json")


def record(
    experiment: str,
    artifact: str,
    paper: str,
    measured: str,
    *,
    elapsed_ms: float | None = None,
    db_hits: dict | None = None,
) -> None:
    ROWS.append(
        {
            "experiment": experiment,
            "artifact": artifact,
            "paper": paper,
            "measured": measured,
            "elapsed_ms": (
                round(elapsed_ms, 3) if elapsed_ms is not None else None
            ),
            "db_hits": db_hits,
        }
    )
    print(f"  [{experiment}] {artifact}: {measured}")


def measured_call(store, thunk):
    """Run *thunk* with hit counters installed on *store*.

    Returns ``(value, elapsed_ms, DbHits)`` -- the instrumentation the
    JSON report attaches to each entry.
    """
    counters = HitCounters()
    store.install_counters(counters)
    started = time.perf_counter()
    try:
        value = thunk()
    finally:
        store.reset_counters()
    elapsed = (time.perf_counter() - started) * 1000
    return value, elapsed, counters.snapshot()


def pattern_of(source: str):
    statement = parse(
        "MERGE ALL " + source, Dialect.REVISED, extended_merge=True
    )
    return statement.branches()[0].clauses[0].pattern


def shape(graph: Graph) -> str:
    snapshot = graph.snapshot()
    return f"{snapshot.order()} nodes / {snapshot.size()} rels"


def e1_running_example() -> None:
    print("\nE1  Figure 1 + Queries (1)-(5)")
    graph = Graph(Dialect.CYPHER9, store=figure1_graph())
    record("E1", "Figure 1", "6 nodes / 5 rels", shape(graph))
    vendors = [r["v"].get("name") for r in graph.run(QUERY_1)]
    record("E1", "Query (1)", "returns cStore once", f"returns {vendors}")
    graph.run(QUERY_2)
    graph.run(QUERY_3)
    graph.run(QUERY_4)
    record(
        "E1",
        "Queries (2)-(4)",
        "insert p4, relabel, detach delete -> back to Figure 1",
        shape(graph),
    )
    result = graph.run(QUERY_5)
    record(
        "E1",
        "Query (5)",
        "3 rows; creates v2 + 1 OFFERS",
        f"{len(result)} rows; +{result.counters.nodes_created} node, "
        f"+{result.counters.relationships_created} rel",
    )


def e2_set_swap() -> None:
    print("\nE2  Example 1 (SET swap)")
    outcomes = {}
    for dialect in (Dialect.CYPHER9, Dialect.REVISED):
        graph = Graph(dialect)
        graph.run("CREATE (:Product {name:'laptop', id: 1})")
        graph.run("CREATE (:Product {name:'tablet', id: 2})")
        graph.run(EXAMPLE_1_SWAP)
        rows = graph.run(
            "MATCH (p:Product) RETURN p.name AS n, p.id AS i"
        )
        outcomes[dialect] = {r["n"]: r["i"] for r in rows}
    record(
        "E2",
        "legacy",
        "swap lost: both ids become 2",
        str(outcomes[Dialect.CYPHER9]),
    )
    record(
        "E2",
        "revised",
        "swap succeeds: ids exchanged",
        str(outcomes[Dialect.REVISED]),
    )


def e3_set_conflict() -> None:
    print("\nE3  Example 2 (ambiguous SET)")
    legacy = Graph(Dialect.CYPHER9, store=figure1_graph())
    legacy.run(EXAMPLE_2_COPY_NAME)
    name = legacy.run(
        "MATCH (p:Product {id: 85}) RETURN p.name AS n"
    ).values("n")[0]
    record(
        "E3", "legacy", "silently writes laptop or notebook", f"wrote {name!r}"
    )
    revised = Graph(Dialect.REVISED, store=figure1_graph())
    try:
        revised.run(EXAMPLE_2_COPY_NAME)
        measured = "NO ERROR (bug!)"
    except PropertyConflictError:
        measured = "PropertyConflictError, graph unchanged"
    record("E3", "revised", "aborts with an error", measured)


def e4_delete_anomaly() -> None:
    print("\nE4  Section 4.2 (DELETE anomaly)")
    legacy = Graph(Dialect.CYPHER9, store=section_4_2_graph())
    zombie = legacy.run(SECTION_4_2_STATEMENT).records[0]["user"]
    record(
        "E4",
        "legacy",
        "goes through; returns an empty node",
        f"labels={set(zombie.labels) or '{}'} props={dict(zombie.properties)}",
    )
    revised = Graph(Dialect.REVISED, store=section_4_2_graph())
    try:
        revised.run(SECTION_4_2_STATEMENT)
        measured = "NO ERROR (bug!)"
    except DanglingRelationshipError:
        measured = "DanglingRelationshipError, statement rolled back"
    record("E4", "revised", "dangling DELETE is an error", measured)


def e5_merge_nondeterminism() -> None:
    print("\nE5  Example 3 / Figure 6 (legacy MERGE) + E10 determinism")
    results = {}
    for label, reorder in (("top-down", False), ("bottom-up", True)):
        store = example3_graph()
        graph = Graph(Dialect.CYPHER9, store=store)
        table = example3_table(store)
        graph.run(EXAMPLE_3_MERGE, table=table.reversed() if reorder else table)
        results[label] = graph.relationship_count()
    record(
        "E5",
        "legacy top-down",
        "Figure 6b: 4 rels",
        f"{results['top-down']} rels",
    )
    record(
        "E5",
        "legacy bottom-up",
        "Figure 6a: 6 rels",
        f"{results['bottom-up']} rels",
    )
    for statement, expected in (
        (EXAMPLE_3_MERGE_ALL, 6),
        (EXAMPLE_3_MERGE_SAME, 4),
    ):
        prints = set()
        counts = set()
        for seed in range(10):
            store = example3_graph()
            graph = Graph(Dialect.REVISED, store=store)
            graph.run(statement, table=example3_table(store).shuffled(seed))
            prints.add(fingerprint(graph.snapshot()))
            counts.add(graph.relationship_count())
        keyword = " ".join(statement.split()[:2])
        record(
            "E10",
            keyword,
            f"always {expected} rels, order-insensitive",
            f"{sorted(counts)} rels over 10 shuffles, "
            f"{len(prints)} distinct graph(s)",
        )


def _variant_sweep(experiment, pattern_source, make_state, expected):
    pattern = pattern_of(pattern_source)
    for semantics in MergeSemantics:
        store, table = make_state()
        graph = Graph(Dialect.REVISED, store=store)
        ctx = EvalContext(store=graph.store)
        merge(ctx, pattern, table, semantics)
        record(
            experiment,
            semantics.value,
            expected[semantics],
            shape(graph),
        )


def e6_figure7() -> None:
    print("\nE6  Example 5 / Figure 7 (five MERGE semantics)")
    from repro.graph.store import GraphStore

    _variant_sweep(
        "E6",
        EXAMPLE_5_PATTERN,
        lambda: (GraphStore(), example5_table()),
        {
            MergeSemantics.ATOMIC: "Fig 7a: 12 nodes / 6 rels",
            MergeSemantics.GROUPING: "Fig 7b: 8 nodes / 4 rels",
            MergeSemantics.WEAK_COLLAPSE: "Fig 7c: 4 nodes / 4 rels",
            MergeSemantics.COLLAPSE: "Fig 7c: 4 nodes / 4 rels",
            MergeSemantics.STRONG_COLLAPSE: "Fig 7c: 4 nodes / 4 rels",
        },
    )


def e7_figure8() -> None:
    print("\nE7  Example 6 / Figure 8 (Weak vs Collapse)")
    from repro.graph.store import GraphStore

    _variant_sweep(
        "E7",
        EXAMPLE_6_PATTERN,
        lambda: (GraphStore(), example6_table()),
        {
            MergeSemantics.ATOMIC: "Fig 8a: 6 nodes / 4 rels",
            MergeSemantics.GROUPING: "Fig 8a: 6 nodes / 4 rels",
            MergeSemantics.WEAK_COLLAPSE: "Fig 8a: 6 nodes / 4 rels",
            MergeSemantics.COLLAPSE: "Fig 8b: 5 nodes / 4 rels",
            MergeSemantics.STRONG_COLLAPSE: "Fig 8b: 5 nodes / 4 rels",
        },
    )


def e8_figure9() -> None:
    print("\nE8  Example 7 / Figure 9 (Strong Collapse + re-match)")
    _variant_sweep(
        "E8",
        EXAMPLE_7_PATTERN,
        example7_graph_and_table,
        {
            MergeSemantics.ATOMIC: "Fig 9a: 4 nodes / 5 rels",
            MergeSemantics.GROUPING: "Fig 9a: 4 nodes / 5 rels",
            MergeSemantics.WEAK_COLLAPSE: "Fig 9a: 4 nodes / 5 rels",
            MergeSemantics.COLLAPSE: "Fig 9a: 4 nodes / 5 rels",
            MergeSemantics.STRONG_COLLAPSE: "Fig 9b: 4 nodes / 4 rels",
        },
    )
    from repro import MatchMode

    store, table = example7_graph_and_table()
    graph = Graph(Dialect.REVISED, store=store)
    graph.run("MERGE SAME " + EXAMPLE_7_PATTERN, table=table)
    trail = graph.run(
        "MATCH " + EXAMPLE_7_PATTERN + " RETURN count(*) AS c", table=table
    ).values("c")[0]
    hom = Graph(
        Dialect.REVISED, match_mode=MatchMode.HOMOMORPHISM, store=graph.store
    ).run(
        "MATCH " + EXAMPLE_7_PATTERN + " RETURN count(*) AS c", table=table
    ).values("c")[0]
    record(
        "E8",
        "re-match after MERGE SAME",
        "trail: no match; homomorphism: matches",
        f"trail: {trail}; homomorphism: {hom}",
    )


def e9_grammars() -> None:
    print("\nE9  Figures 2-5 vs Figure 10 (grammars)")
    from repro.errors import CypherSyntaxError

    checks = [
        ("MERGE (n:N)", Dialect.CYPHER9, True),
        ("MERGE (n:N)", Dialect.REVISED, False),
        ("MERGE ALL (a:A)-[:T]->(b)", Dialect.REVISED, True),
        ("MERGE ALL (a:A)-[:T]->(b)", Dialect.CYPHER9, False),
        ("MERGE (a)-[:T]-(b)", Dialect.CYPHER9, True),
        ("MERGE SAME (a)-[:T]-(b)", Dialect.REVISED, False),
        ("CREATE (n) MATCH (m) RETURN m", Dialect.REVISED, True),
        ("CREATE (n) MATCH (m) RETURN m", Dialect.CYPHER9, False),
    ]
    agreed = 0
    for source, dialect, should_parse in checks:
        try:
            parse(source, dialect)
            parsed = True
        except CypherSyntaxError:
            parsed = False
        agreed += parsed == should_parse
    record(
        "E9",
        "dialect grammar corpus",
        f"{len(checks)}/{len(checks)} verdicts as per the figures",
        f"{agreed}/{len(checks)} verdicts match",
    )


def p1_scaling_teaser() -> None:
    print("\nP1  MERGE variant scaling teaser (1000 rows, 40% duplicates)")
    from repro.workloads.generators import OrderTableConfig, order_table

    table = order_table(
        OrderTableConfig(rows=1000, duplicate_ratio=0.4, null_ratio=0.1)
    )
    pattern = pattern_of(
        "(:User {id: cid})-[:ORDERED]->(:Product {id: pid})"
    )
    for semantics in MergeSemantics:
        graph = Graph(Dialect.REVISED)
        ctx = EvalContext(store=graph.store)
        _, elapsed, hits = measured_call(
            graph.store,
            lambda: merge(ctx, pattern, table.copy(), semantics),
        )
        record(
            "P1",
            semantics.value,
            "sizes shrink along Atomic > Grouping > ... > Strong",
            f"{shape(graph)} in {elapsed:.1f} ms; "
            f"db hits {hits.compact()}",
            elapsed_ms=elapsed,
            db_hits=hits.to_dict(),
        )


def p2_profile_observability() -> None:
    print("\nP2  PROFILE layer (db-hits; index vs label scan)")

    def build() -> Graph:
        graph = Graph(Dialect.REVISED)
        for i in range(200):
            graph.run("CREATE (:L {k: $i})", {"i": i})
        return graph

    query = "MATCH (n:L {k: 1}) RETURN n"
    scan = build().profile(query)
    indexed_graph = build()
    indexed_graph.create_index("L", "k")
    lookup = indexed_graph.profile(query)
    record(
        "P2",
        "label scan",
        "db-hits grow with the label population",
        f"db hits {scan.hits.compact()}",
        elapsed_ms=scan.time_ms,
        db_hits=scan.hits.to_dict(),
    )
    record(
        "P2",
        "index lookup",
        "db-hits independent of population",
        f"db hits {lookup.hits.compact()}",
        elapsed_ms=lookup.time_ms,
        db_hits=lookup.hits.to_dict(),
    )
    saved = scan.total_db_hits - lookup.total_db_hits
    record(
        "P2",
        "hits saved by index",
        "scan - lookup > 0",
        f"{saved} db hits saved",
    )


def p4_selective_match(users: int = 12000) -> None:
    print(
        f"\nP4  Match planner ({users} User nodes; "
        "selective non-leading anchor)"
    )
    graph = Graph(Dialect.REVISED, use_planner=True)
    store = graph.store
    naive = Graph(Dialect.REVISED, use_planner=False, store=store)
    products = [
        store.create_node(("Product",), {"id": i}) for i in range(120)
    ]
    for i in range(users):
        user = store.create_node(("User",), {"id": i})
        store.create_relationship("ORDERED", user, products[i % 120])
    graph.create_index("Product", "id")
    # The selective anchor is written *last*: the naive matcher scans
    # every User and expands, the planner starts at the index hit and
    # walks the pattern backwards.
    statement = (
        "MATCH (u:User)-[:ORDERED]->(p:Product {id: 7}) "
        "RETURN count(u) AS c"
    )
    naive_count = naive.run(statement).single()["c"]  # warm caches
    _, naive_ms, naive_hits = measured_call(
        store, lambda: naive.run(statement)
    )
    assert graph.run(statement).single()["c"] == naive_count  # warm caches
    _, planned_ms, planned_hits = measured_call(
        store, lambda: graph.run(statement)
    )
    speedup = naive_ms / planned_ms if planned_ms else float("inf")
    record(
        "P4",
        "naive matcher (use_planner=False)",
        "anchors at (u:User), scans every user",
        f"{naive_count} orders counted in {naive_ms:.1f} ms; "
        f"db hits {naive_hits.compact()}",
        elapsed_ms=naive_ms,
        db_hits=naive_hits.to_dict(),
    )
    record(
        "P4",
        "match planner",
        "anchors at index :Product(id), expands backwards",
        f"{naive_count} orders counted in {planned_ms:.1f} ms; "
        f"db hits {planned_hits.compact()}",
        elapsed_ms=planned_ms,
        db_hits=planned_hits.to_dict(),
    )
    record(
        "P4",
        "speedup",
        ">= 5x planned vs naive",
        f"{speedup:.1f}x "
        f"({naive_hits.total / max(1, planned_hits.total):.0f}x fewer db hits)",
    )


def p5_fuzz_throughput(count: int = 120) -> None:
    print(f"\nP5  Differential fuzzer throughput ({count} seeded cases)")
    from repro.testing.differential import run_case
    from repro.testing.generator import cases

    batch = list(cases(seed=0, count=count))
    started = time.perf_counter()
    results = [run_case(case) for case in batch]
    elapsed = (time.perf_counter() - started) * 1000
    ok = sum(result.ok for result in results)
    errors = sum(
        outcome.status == "error"
        for result in results
        for outcome in result.outcomes
    )
    rate = count / (elapsed / 1000) if elapsed else float("inf")
    record(
        "P5",
        "differential conformance fuzzer",
        "all cases agree across planner/compiler/MERGE surfaces",
        f"{ok}/{count} cases ok ({errors} agreeing error outcomes) "
        f"at {rate:.0f} cases/s",
        elapsed_ms=elapsed,
    )


def p6_durability(statements: int = 1000) -> None:
    print(f"\nP6  WAL durability ({statements} update statements per policy)")
    import tempfile

    from repro.graph.store import GraphStore
    from repro.persistence import PersistenceManager

    def workload(graph: Graph) -> None:
        graph.run("CREATE INDEX ON :D(k)")
        for i in range(statements):
            if i % 5 == 4:
                graph.run(
                    "MATCH (n:D {k: $k}) SET n.v = n.v + 1", {"k": i - 1}
                )
            else:
                graph.run("CREATE (:D {k: $k, v: $v})", {"k": i, "v": i * 2})

    graph = Graph(Dialect.REVISED)
    started = time.perf_counter()
    workload(graph)
    baseline_ms = (time.perf_counter() - started) * 1000
    record(
        "P6",
        "in-memory baseline",
        "no WAL: the statement cost floor",
        f"{statements} statements in {baseline_ms:.1f} ms",
        elapsed_ms=baseline_ms,
    )

    with tempfile.TemporaryDirectory() as tmp:
        for policy in ("off", "batch", "always"):
            directory = Path(tmp) / policy
            graph = Graph(Dialect.REVISED, path=directory, fsync=policy)
            started = time.perf_counter()
            workload(graph)
            elapsed = (time.perf_counter() - started) * 1000
            graph.close()
            overhead = elapsed / baseline_ms if baseline_ms else float("inf")
            expectation = (
                "serialisation only: <= 2x baseline"
                if policy == "off"
                else "adds fsync latency per "
                + ("batch" if policy == "batch" else "record")
            )
            record(
                "P6",
                f"fsync={policy}",
                expectation,
                f"{statements} statements in {elapsed:.1f} ms "
                f"({overhead:.2f}x baseline)",
                elapsed_ms=elapsed,
            )

        store = GraphStore()
        manager = PersistenceManager(Path(tmp) / "off")
        started = time.perf_counter()
        report = manager.recover(store)
        elapsed = time.perf_counter() - started
        manager.close()
        rate = (
            report.records_applied / elapsed if elapsed else float("inf")
        )
        record(
            "P6",
            "recovery",
            "replays the whole log; invariants re-verified",
            f"{report.records_applied} records -> {report.nodes} nodes / "
            f"{report.relationships} rels in {elapsed * 1000:.1f} ms "
            f"({rate:.0f} records/s)",
            elapsed_ms=elapsed * 1000,
        )


def p7_concurrent_service(
    clients: int = 100, statements_per_client: int = 10
) -> None:
    """Throughput/latency of the networked service under load.

    Drives *clients* concurrent keep-alive connections through a
    mixed workload (80% CREATE / 20% MATCH) against four server
    configurations: in-memory, durable ``fsync=off``, durable
    ``fsync=always`` with one fsync per statement, and durable
    ``fsync=always`` with group commit.  Group commit must pull the
    per-statement-fsync overhead down to a small multiple of the
    ``off`` baseline while acknowledging exactly the same guarantee.
    Also verifies snapshot consistency: readers racing a writer's
    open transaction must never observe a half-applied transaction.
    """
    print(
        f"\nP7  networked service ({clients} concurrent clients x "
        f"{statements_per_client} statements)"
    )
    import asyncio
    import tempfile

    from repro.client import AsyncClient
    from repro.server.http import HttpServer
    from repro.server.service import GraphService, ServerConfig

    total = clients * statements_per_client

    def percentile(values: list[float], q: float) -> float:
        if not values:
            return 0.0
        index = min(len(values) - 1, round(q * (len(values) - 1)))
        return values[index]

    async def run_config(
        path, fsync: str, group_commit: bool
    ) -> tuple[float, list[float], dict | None]:
        service = GraphService(
            ServerConfig(
                path=path, fsync=fsync, group_commit=group_commit
            )
        )
        server = HttpServer(service, port=0)
        await server.start()
        latencies: list[float] = []

        async def drive(client_id: int) -> None:
            client = await AsyncClient(
                "127.0.0.1", server.port
            ).connect()
            try:
                for j in range(statements_per_client):
                    key = client_id * statements_per_client + j
                    started = time.perf_counter()
                    if j % 5 == 4:
                        await client.run(
                            "MATCH (n:P7 {k: $k}) RETURN n.v AS v",
                            {"k": key - 1},
                        )
                    else:
                        await client.run(
                            "CREATE (:P7 {k: $k, v: $v})",
                            {"k": key, "v": key * 2},
                        )
                    latencies.append(time.perf_counter() - started)
            finally:
                await client.close()

        started = time.perf_counter()
        await asyncio.gather(*(drive(i) for i in range(clients)))
        elapsed = time.perf_counter() - started
        group_stats = (
            service.committer.stats() if service.committer else None
        )
        await server.close()
        return elapsed, sorted(latencies), group_stats

    async def snapshot_consistency_check() -> tuple[int, int]:
        """Readers race a writer's 2-statement transactions; a
        snapshot-consistent server never shows an odd node count."""
        service = GraphService(ServerConfig())
        server = HttpServer(service, port=0)
        await server.start()
        writer = await AsyncClient("127.0.0.1", server.port).connect()
        reader = await AsyncClient("127.0.0.1", server.port).connect()
        _, payload = await writer.request("POST", "/sessions")
        session_id = payload["session"]
        checks = violations = 0
        done = False

        async def write_loop() -> None:
            nonlocal done
            for _ in range(30):
                await writer.request(
                    "POST", f"/sessions/{session_id}/begin"
                )
                await writer.run("CREATE (:Pair)", session_id=session_id)
                await asyncio.sleep(0)
                await writer.run("CREATE (:Pair)", session_id=session_id)
                await writer.request(
                    "POST", f"/sessions/{session_id}/commit"
                )
            done = True

        async def read_loop() -> None:
            nonlocal checks, violations
            while not done:
                payload = await reader.run(
                    "MATCH (n:Pair) RETURN count(n) AS c"
                )
                count = payload["records"][0][0]
                checks += 1
                if count % 2:
                    violations += 1
                await asyncio.sleep(0)

        await asyncio.gather(write_loop(), read_loop())
        await writer.close()
        await reader.close()
        await server.close()
        return checks, violations

    memory_s, memory_lat, _ = asyncio.run(
        run_config(None, "off", False)
    )
    record(
        "P7",
        f"in-memory service, {clients} clients",
        "the networked cost floor",
        f"{total} statements in {memory_s * 1000:.0f} ms "
        f"({total / memory_s:.0f} stmt/s; p50 "
        f"{percentile(memory_lat, 0.50) * 1000:.2f} / p95 "
        f"{percentile(memory_lat, 0.95) * 1000:.2f} / p99 "
        f"{percentile(memory_lat, 0.99) * 1000:.2f} ms)",
        elapsed_ms=memory_s * 1000,
    )

    with tempfile.TemporaryDirectory() as tmp:
        off_s, off_lat, _ = asyncio.run(
            run_config(Path(tmp) / "off", "off", False)
        )
        record(
            "P7",
            "fsync=off",
            "WAL appends, no fsync: the durable floor",
            f"{total} statements in {off_s * 1000:.0f} ms "
            f"({total / off_s:.0f} stmt/s; p50 "
            f"{percentile(off_lat, 0.50) * 1000:.2f} / p95 "
            f"{percentile(off_lat, 0.95) * 1000:.2f} / p99 "
            f"{percentile(off_lat, 0.99) * 1000:.2f} ms)",
            elapsed_ms=off_s * 1000,
        )

        solo_s, solo_lat, _ = asyncio.run(
            run_config(Path(tmp) / "solo", "always", False)
        )
        solo_x = solo_s / off_s if off_s else float("inf")
        record(
            "P7",
            "fsync=always, per-statement",
            "one fsync per acknowledged write (P6 saw ~13.7x)",
            f"{total} statements in {solo_s * 1000:.0f} ms "
            f"({solo_x:.2f}x the off baseline; p50 "
            f"{percentile(solo_lat, 0.50) * 1000:.2f} / p95 "
            f"{percentile(solo_lat, 0.95) * 1000:.2f} / p99 "
            f"{percentile(solo_lat, 0.99) * 1000:.2f} ms)",
            elapsed_ms=solo_s * 1000,
        )

        group_s, group_lat, group_stats = asyncio.run(
            run_config(Path(tmp) / "group", "always", True)
        )
        group_x = group_s / off_s if off_s else float("inf")
        per_batch = (
            group_stats["synced_waiters"] / group_stats["batches"]
            if group_stats and group_stats["batches"]
            else 0.0
        )
        record(
            "P7",
            "fsync=always, group commit",
            "concurrent writers share one fsync per batch: <= 3x off",
            f"{total} statements in {group_s * 1000:.0f} ms "
            f"({group_x:.2f}x the off baseline, "
            f"{group_stats['batches'] if group_stats else 0} fsyncs, "
            f"{per_batch:.1f} writers/batch, max "
            f"{group_stats['max_batch'] if group_stats else 0}; p50 "
            f"{percentile(group_lat, 0.50) * 1000:.2f} / p95 "
            f"{percentile(group_lat, 0.95) * 1000:.2f} / p99 "
            f"{percentile(group_lat, 0.99) * 1000:.2f} ms)",
            elapsed_ms=group_s * 1000,
        )

    checks, violations = asyncio.run(snapshot_consistency_check())
    record(
        "P7",
        "snapshot-consistent readers",
        "no reader ever sees half of a transaction",
        f"{checks} concurrent reads against an open transaction, "
        f"{violations} saw a torn (odd) state",
    )


def p8_columnar_scaling(
    scales: tuple[int, ...] = (10_000, 100_000, 1_000_000),
    pipeline_nodes: int = 5000,
    memory_sample: int = 20_000,
) -> None:
    print(
        f"\nP8  Columnar store + bulk loader scaling "
        f"(scales {', '.join(str(s) for s in scales)})"
    )
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    from memprof import naive_layout_bytes, rss_bytes, store_memory_report

    from repro.bulkload import (
        iter_nodes_csv,
        iter_rels_csv,
        load_store,
        write_synthetic_csv,
    )

    # -- bulk loader vs statement pipeline (same synthetic shape) ------
    graph = Graph(Dialect.REVISED, use_planner=True)
    graph.create_index("Person", "id")
    node_batch = [
        {
            "id": i,
            "name": f"p{i}",
            "admin": i % 10 == 0,
            "next": (i + 1) % pipeline_nodes,
        }
        for i in range(pipeline_nodes)
    ]
    started = time.perf_counter()
    for offset in range(0, pipeline_nodes, 1000):
        graph.run(
            "UNWIND $rows AS row "
            "CREATE (p:Person {id: row.id, name: row.name})",
            rows=node_batch[offset:offset + 1000],
        )
    for offset in range(0, pipeline_nodes, 1000):
        graph.run(
            "UNWIND $rows AS row "
            "MATCH (a:Person {id: row.id}), (b:Person {id: row.next}) "
            "CREATE (a)-[:FOLLOWS]->(b)",
            rows=node_batch[offset:offset + 1000],
        )
    pipeline_seconds = time.perf_counter() - started
    pipeline_rate = (2 * pipeline_nodes) / pipeline_seconds

    with tempfile.TemporaryDirectory() as tmp:
        nodes_path, rels_path = write_synthetic_csv(
            tmp, pipeline_nodes, rels_per_node=1
        )
        started = time.perf_counter()
        small = load_store(
            iter_nodes_csv(nodes_path),
            iter_rels_csv(rels_path),
            indexes=[("Person", "id")],
        )
        bulk_seconds = time.perf_counter() - started
    bulk_rate = (
        small.node_count() + small.relationship_count()
    ) / bulk_seconds
    speedup = bulk_rate / pipeline_rate
    record(
        "P8",
        "bulk loader vs statement pipeline",
        ">= 10x ingest throughput (no parse/journal/commit per row)",
        f"pipeline {pipeline_rate:,.0f} entities/s vs bulk "
        f"{bulk_rate:,.0f} entities/s = {speedup:.1f}x",
    )

    # -- bytes per entity: columnar vs seed dict-of-objects layout -----
    with tempfile.TemporaryDirectory() as tmp:
        nodes_path, rels_path = write_synthetic_csv(tmp, memory_sample)
        sample = load_store(
            iter_nodes_csv(nodes_path), iter_rels_csv(rels_path)
        )
        naive_bytes = naive_layout_bytes(
            (
                (labels, properties)
                for __, labels, properties in iter_nodes_csv(nodes_path)
            ),
            (
                (rel_type, source, target, properties)
                for __, rel_type, source, target, properties in (
                    iter_rels_csv(rels_path)
                )
            ),
        )
    report = store_memory_report(sample)
    entities = sample.node_count() + sample.relationship_count()
    naive_per_entity = naive_bytes / entities
    reduction = naive_per_entity / report["bytes_per_entity"]
    record(
        "P8",
        "bytes per entity (columnar vs dict-of-objects)",
        ">= 2x smaller than the seed layout",
        f"naive {naive_per_entity:.0f} B/entity vs columnar "
        f"{report['bytes_per_entity']:.0f} B/entity = {reduction:.1f}x "
        f"(node {report['bytes_per_node']:.0f} B, "
        f"rel {report['bytes_per_rel']:.0f} B)",
    )

    # -- scaling curve: nodes vs throughput vs RSS vs match latency ----
    for scale in scales:
        with tempfile.TemporaryDirectory() as tmp:
            nodes_path, rels_path = write_synthetic_csv(tmp, scale)
            rss_before = rss_bytes()
            started = time.perf_counter()
            store = load_store(
                iter_nodes_csv(nodes_path),
                iter_rels_csv(rels_path),
                indexes=[("Person", "id")],
            )
            load_seconds = time.perf_counter() - started
            rss_after = rss_bytes()
        rate = (store.node_count() + store.relationship_count()) / load_seconds
        loaded = Graph(Dialect.REVISED, use_planner=True, store=store)
        probes = [int(scale * frac) % scale for frac in
                  (0.1, 0.25, 0.5, 0.75, 0.9)] * 4
        loaded.run(
            "MATCH (p:Person {id: $i}) RETURN p.name", i=probes[0]
        )  # warm caches
        started = time.perf_counter()
        for probe in probes:
            result = loaded.run(
                "MATCH (p:Person {id: $i})-[:FOLLOWS]->(q) "
                "RETURN p.name, q.name",
                i=probe,
            )
            assert len(result.table.records) == 1
        match_ms = (time.perf_counter() - started) * 1000 / len(probes)
        if rss_before is not None and rss_after is not None:
            rss_text = f"RSS +{(rss_after - rss_before) / 2**20:.0f} MiB"
        else:
            rss_text = "RSS n/a"
        per_node = store_memory_report(store)["bytes_per_node"]
        record(
            "P8",
            f"scaling {scale} nodes",
            "linear load rate, flat bytes/node, sub-ms indexed match",
            f"{rate:,.0f} entities/s load, {rss_text}, "
            f"{per_node:.0f} B/node, indexed 1-hop match "
            f"{match_ms:.2f} ms",
            elapsed_ms=load_seconds * 1000,
        )
        del store, loaded


def p10_view_maintenance(
    users: int = 100_000,
    writes: int = 30,
    reads_per_write: int = 4,
    fuzz_cases: int = 200,
) -> None:
    """Incremental view maintenance vs re-executing the hot query.

    One writer interleaves order creations (relevant to the view) with
    profile edits (provably irrelevant); after every commit a pool of
    hot-query readers asks for the same result.  The maintained view
    pays one footprint check -- and, when the commit matters, a delta
    refresh over the few affected nodes -- then serves every further
    reader from the cached result object; re-execution pays the full
    match each time.  Both paths read the same store in the same
    iteration, so the comparison is exact.
    """
    print(
        f"\nP10 Incremental view maintenance ({users} User nodes, "
        f"{writes} writes x {reads_per_write} readers)"
    )
    graph = Graph(Dialect.REVISED)
    store = graph.store
    products = [
        store.create_node(("Product",), {"id": i}) for i in range(120)
    ]
    for i in range(users):
        user = store.create_node(("User",), {"id": i, "name": f"u{i}"})
        store.create_relationship("ORDERED", user, products[i % 120])
    hot_query = (
        "MATCH (u:User)-[:ORDERED]->(p:Product) "
        "WHERE p.id = 7 RETURN u.id AS id"
    )
    view = graph.register_view(hot_query)
    baseline_rows = len(view.result().records)
    reexec_s = 0.0
    maintained_s = 0.0
    for step in range(writes):
        if step % 2 == 0:
            graph.run(
                "MATCH (p:Product {id: 7}) "
                "CREATE (:User {id: $id})-[:ORDERED]->(p)",
                {"id": users + step},
            )
        else:
            # irrelevant to the view: property key outside its footprint
            graph.run(
                "MATCH (u:User {id: $id}) SET u.name = 'edited'",
                {"id": step},
            )
        for _ in range(reads_per_write):
            started = time.perf_counter()
            fresh = graph.run(hot_query)
            reexec_s += time.perf_counter() - started
            started = time.perf_counter()
            maintained = view.result()
            maintained_s += time.perf_counter() - started
            assert sorted(r["id"] for r in fresh.records) == sorted(
                r["id"] for r in maintained.to_dicts()
            ), "maintained view diverged from re-execution"
    rows = len(view.result().records)
    assert rows == baseline_rows + (writes + 1) // 2
    stats = graph.views()[0]
    reads = writes * reads_per_write
    speedup = reexec_s / maintained_s if maintained_s else float("inf")
    record(
        "P10",
        f"re-executed hot query ({reads} reads)",
        "every reader pays the full match after each commit",
        f"{rows} rows, {reexec_s * 1000:.1f} ms total "
        f"({reexec_s / reads * 1e6:.0f} us/read)",
        elapsed_ms=reexec_s * 1000,
    )
    record(
        "P10",
        f"maintained view ({reads} reads)",
        "delta refresh on relevant commits, cached object otherwise",
        f"{rows} rows, {maintained_s * 1000:.1f} ms total; "
        f"{stats['delta_refreshes']} delta refreshes, "
        f"{stats['batches_skipped']} commits skipped as irrelevant",
        elapsed_ms=maintained_s * 1000,
    )
    record(
        "P10",
        "speedup",
        ">= 10x over re-execution at 100k nodes",
        f"{speedup:.1f}x",
    )
    graph.close()

    # -- view differential fuzz: maintained == re-executed ----------
    from repro.testing.differential import run_views_case
    from repro.testing.generator import case_for, with_views

    started = time.perf_counter()
    results = [
        run_views_case(with_views(case_for(0, index), 4))
        for index in range(fuzz_cases)
    ]
    elapsed = (time.perf_counter() - started) * 1000
    divergences = sum(not result.ok for result in results)
    record(
        "P10",
        f"view differential fuzz ({fuzz_cases} cases)",
        "maintained results equal re-execution after every statement",
        f"{fuzz_cases - divergences}/{fuzz_cases} cases ok, "
        f"{divergences} divergences, "
        f"{fuzz_cases / (elapsed / 1000):.0f} cases/s",
        elapsed_ms=elapsed,
    )
    assert divergences == 0, f"{divergences} view fuzz divergences"


def p11_streaming_scale(
    scales: tuple[int, ...] = (1_000_000, 10_000_000),
    checkpoint_probes: tuple[int, int] = (50_000, 200_000),
    equivalence_nodes: int = 20_000,
) -> None:
    """Streaming checkpoints at the 10M-node scale.

    Three pieces of evidence:

    * **O(1) checkpoint memory** -- tracemalloc peak of a checkpoint
      write at two graph sizes: the streaming peak stays a small
      constant (one ``BATCH_ROWS`` record).  (The format-1 blob
      writer it replaced grew 114 -> 458 MiB over the same sizes;
      that writer is gone, the figure is recorded in EXPERIMENTS.md.)
    * **Restore fidelity** -- a store written and restored is
      byte-identical to the source under ``canonical_graph_json``,
      and the checked-in format-1 fixture restores to the same graph
      as its stream re-checkpoint.
    * **The scale curve** -- synthetic CSV -> bulk load ->
      streaming checkpoint -> reopen.  At each scale: load rate,
      steady-state RSS, the peak/steady ratio (the ISSUE criterion is
      peak < 2x steady at 10M), checkpoint write time and the RSS it
      did NOT add, and a zero-replay reopen from the checkpoint.
    """
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    from memprof import checkpoint_write_peak, peak_rss_bytes, rss_bytes

    from repro.bulkload import (
        emit_checkpoint,
        iter_nodes_csv,
        iter_rels_csv,
        load_store,
        write_synthetic_csv,
    )
    from repro.graph.store import GraphStore
    from repro.persistence.checkpoint import (
        CHECKPOINT_FORMAT,
        CHECKPOINT_NAME,
        LEGACY_CHECKPOINT_FORMAT,
        restore_checkpoint_file,
        write_checkpoint,
    )

    fixture = (
        Path(__file__).parent.parent
        / "tests" / "data" / "format1_checkpoint" / CHECKPOINT_NAME
    )
    from repro.testing.invariants import canonical_graph_json

    print(
        f"\nP11 Streaming checkpoints at scale "
        f"(scales {', '.join(str(s) for s in scales)})"
    )

    # -- checkpoint write memory: flat in graph size -------------------
    peaks: dict[int, int] = {}
    for probe in checkpoint_probes:
        with tempfile.TemporaryDirectory() as tmp:
            nodes_path, rels_path = write_synthetic_csv(tmp, probe)
            store = load_store(
                iter_nodes_csv(nodes_path), iter_rels_csv(rels_path)
            )
            peaks[probe] = checkpoint_write_peak(store, tmp)
            del store
    small, large = checkpoint_probes
    stream_growth = peaks[large] / max(1, peaks[small])
    record(
        "P11",
        f"checkpoint write memory ({small} -> {large} nodes)",
        "streaming write peak is flat in graph size",
        f"stream {peaks[small] / 2**20:.2f} -> "
        f"{peaks[large] / 2**20:.2f} MiB ({stream_growth:.1f}x)",
    )
    assert stream_growth < 1.5, "checkpoint write peak grew with the graph"

    # -- restores are byte-identical to what was written ---------------
    with tempfile.TemporaryDirectory() as tmp:
        nodes_path, rels_path = write_synthetic_csv(tmp, equivalence_nodes)
        store = load_store(
            iter_nodes_csv(nodes_path),
            iter_rels_csv(rels_path),
            indexes=[("Person", "id")],
        )
        write_checkpoint(tmp, store)
        target = GraphStore()
        restore_checkpoint_file(target, Path(tmp) / CHECKPOINT_NAME)
        stream_ok = canonical_graph_json(target) == canonical_graph_json(
            store
        )
        del store, target
        # Format 1 is read-only now: restore the checked-in blob,
        # re-checkpoint it as a stream, restore that.
        from_blob = GraphStore()
        info = restore_checkpoint_file(from_blob, fixture)
        assert info["format"] == LEGACY_CHECKPOINT_FORMAT
        write_checkpoint(tmp, from_blob)
        from_stream = GraphStore()
        restore_checkpoint_file(from_stream, Path(tmp) / CHECKPOINT_NAME)
        blob_ok = (
            from_blob.node_count() > 0
            and canonical_graph_json(from_blob)
            == canonical_graph_json(from_stream)
        )
    record(
        "P11",
        f"format-1 fixture and stream restore ({equivalence_nodes} nodes)",
        "a restore rebuilds the written graph byte for byte; the "
        "format-1 fixture still reads",
        f"stream restore == source store: {stream_ok}; format-1 fixture "
        f"== its stream re-checkpoint: {blob_ok}",
    )
    assert stream_ok, "streaming restore diverged from the source store"
    assert blob_ok, "format-1 fixture diverged from its stream rewrite"

    # -- the scale curve: load -> checkpoint -> reopen ----------------
    for scale in scales:
        with tempfile.TemporaryDirectory() as tmp:
            started = time.perf_counter()
            nodes_path, rels_path = write_synthetic_csv(tmp, scale)
            synth_s = time.perf_counter() - started
            rss_before = rss_bytes()
            started = time.perf_counter()
            store = load_store(
                iter_nodes_csv(nodes_path),
                iter_rels_csv(rels_path),
                indexes=[("Person", "id")],
            )
            load_s = time.perf_counter() - started
            entities = store.node_count() + store.relationship_count()
            rss_steady = rss_bytes()
            peak_after_load = peak_rss_bytes()
            started = time.perf_counter()
            emit_checkpoint(tmp, store)
            checkpoint_s = time.perf_counter() - started
            checkpoint_mib = (
                Path(tmp) / CHECKPOINT_NAME
            ).stat().st_size / 2**20
            peak_after_ckpt = peak_rss_bytes()
            del store
            started = time.perf_counter()
            reopened = Graph.open(tmp, fsync="off")
            reopen_s = time.perf_counter() - started
            report = reopened.recovery
            assert report.records_applied == 0, "reopen replayed WAL"
            assert report.checkpoint_format == CHECKPOINT_FORMAT
            assert (
                reopened.store.node_count()
                + reopened.store.relationship_count()
                == entities
            )
            reopened.close()
            del reopened
        if rss_before is not None and rss_steady is not None:
            steady_mib = (rss_steady - rss_before) / 2**20
            peak_ratio = (
                (peak_after_load - rss_before) / (rss_steady - rss_before)
                if rss_steady > rss_before
                else float("nan")
            )
            ckpt_added_mib = (peak_after_ckpt - peak_after_load) / 2**20
            rss_text = (
                f"store +{steady_mib:,.0f} MiB steady, load peak "
                f"{peak_ratio:.2f}x steady, checkpoint added "
                f"+{ckpt_added_mib:,.0f} MiB peak"
            )
        else:
            rss_text = "RSS n/a"
        record(
            "P11",
            f"scale {scale} nodes ({entities} entities)",
            "linear load, peak RSS < 2x steady store, O(1)-memory "
            "streaming checkpoint, zero-replay reopen",
            f"load {entities / load_s:,.0f} entities/s "
            f"(csv gen {synth_s:.0f}s), {rss_text}; checkpoint "
            f"{checkpoint_mib:,.0f} MiB in {checkpoint_s:.1f}s; reopen "
            f"{reopen_s:.1f}s with 0 replayed records",
            elapsed_ms=load_s * 1000,
        )


def print_markdown() -> None:
    print("\n\n## Markdown table (paste into EXPERIMENTS.md)\n")
    print("| Exp | Artifact | Paper says | Measured |")
    print("|---|---|---|---|")
    for row in ROWS:
        print(
            f"| {row['experiment']} | {row['artifact']} "
            f"| {row['paper']} | {row['measured']} |"
        )


def write_json() -> None:
    """Write ``BENCH_harness.json``: every entry carries ``db_hits``."""
    BENCH_JSON.write_text(
        json.dumps({"experiments": ROWS}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"\nwrote {BENCH_JSON}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate every paper artifact and BENCH_harness.json"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke run: shrink the workloads so CI fails fast",
    )
    args = parser.parse_args(argv)
    print("Reproduction harness: Updating Graph Databases with Cypher")
    e1_running_example()
    e2_set_swap()
    e3_set_conflict()
    e4_delete_anomaly()
    e5_merge_nondeterminism()
    e6_figure7()
    e7_figure8()
    e8_figure9()
    e9_grammars()
    p1_scaling_teaser()
    p2_profile_observability()
    p4_selective_match(users=1500 if args.quick else 12000)
    p5_fuzz_throughput(count=30 if args.quick else 120)
    p6_durability(statements=200 if args.quick else 1000)
    p7_concurrent_service(
        clients=24 if args.quick else 100,
        statements_per_client=5 if args.quick else 10,
    )
    p8_columnar_scaling(
        scales=(5_000, 50_000) if args.quick else (10_000, 100_000, 1_000_000),
        pipeline_nodes=2000 if args.quick else 5000,
        memory_sample=5_000 if args.quick else 20_000,
    )
    p10_view_maintenance(
        users=10_000 if args.quick else 100_000,
        writes=10 if args.quick else 30,
        fuzz_cases=30 if args.quick else 200,
    )
    p11_streaming_scale(
        scales=(
            (100_000,) if args.quick else (1_000_000, 10_000_000)
        ),
        checkpoint_probes=(
            (20_000, 60_000) if args.quick else (50_000, 200_000)
        ),
        equivalence_nodes=5_000 if args.quick else 20_000,
    )
    print_markdown()
    write_json()


if __name__ == "__main__":
    main()
