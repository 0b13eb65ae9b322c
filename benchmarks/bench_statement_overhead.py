"""Engine fixed costs: parse cache, scope check, journal bracket.

Micro-benchmarks of the per-statement overhead that every query pays,
independent of data size.  Useful when comparing engine timings in the
other files: subtract these floors to see the algorithmic part.
"""

from repro import Dialect, Graph
from repro.parser import parse


def test_trivial_statement_throughput(benchmark):
    graph = Graph(Dialect.REVISED)

    result = benchmark(graph.run, "RETURN 1 AS x")
    assert result.records == [{"x": 1}]


def test_parse_cold(benchmark):
    source = (
        "MATCH (u:User {id: 1})-[:ORDERED]->(p:Product) "
        "WHERE p.price > 10 RETURN u, collect(p.name) AS names"
    )

    statement = benchmark(parse, source, Dialect.REVISED)
    assert statement.branches()


def test_parse_cached(benchmark):
    graph = Graph(Dialect.REVISED)
    source = (
        "MATCH (u:User {id: 1})-[:ORDERED]->(p:Product) "
        "WHERE p.price > 10 RETURN u, collect(p.name) AS names"
    )
    graph.engine.prepare(source)  # warm the cache

    prepared = benchmark(graph.engine.prepare, source)
    assert prepared.statement.branches()


def test_single_create_statement(benchmark):
    graph = Graph(Dialect.REVISED)

    def run():
        return graph.run("CREATE (:N {v: 1})")

    result = benchmark(run)
    assert result.counters.nodes_created == 1


def test_scope_check_overhead_large_statement(benchmark):
    from repro.runtime.scoping import check_statement

    source = " ".join(
        f"MATCH (n{i}:L{i} {{k: {i}}})" for i in range(30)
    ) + " RETURN " + ", ".join(f"n{i}" for i in range(30))
    statement = parse(source, Dialect.REVISED)

    benchmark(check_statement, statement)
