"""Unit tests for the expression compiler and the shared LRU cache."""

import pytest

from repro import Graph
from repro.caching import LRUCache
from repro.errors import CypherEvaluationError
from repro.graph.store import GraphStore
from repro.parser import ast, parse_expression
from repro.runtime import compiler
from repro.runtime.context import EvalContext


@pytest.fixture
def ctx():
    return EvalContext(store=GraphStore())


class TestLRUCache:
    def test_basic_get_put(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.info()["hits"] == 1
        assert cache.info()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" is now the stalest
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.info()["evictions"] == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh via put
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_unhashable_keys_are_uncacheable(self):
        cache = LRUCache(capacity=2)
        cache.put(["list"], 1)  # silently not stored
        assert len(cache) == 0
        assert cache.get(["list"], "fallback") == "fallback"
        assert ["list"] not in cache

    def test_clear_preserves_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["hits"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestMemoization:
    def test_same_node_compiles_once(self, ctx):
        expression = parse_expression("x + 1 * 2")
        first = compiler.compile_expression(expression)
        before = compiler.STATS.snapshot()
        second = compiler.compile_expression(expression)
        after = compiler.STATS.snapshot()
        assert second is first
        assert after["expressions_compiled"] == before["expressions_compiled"]
        assert after["cache_hits"] == before["cache_hits"] + 1

    def test_structurally_equal_nodes_share_closures(self, ctx):
        first = compiler.compile_expression(parse_expression("x + 1"))
        second = compiler.compile_expression(parse_expression("x + 1"))
        assert second is first

    def test_numeric_literal_types_stay_distinct(self, ctx):
        """True, 1 and 1.0 are equal under Python ``==`` but must not
        share a compiled closure (the AST hashes them apart)."""
        assert ast.Literal(1) != ast.Literal(True)
        assert ast.Literal(1) != ast.Literal(1.0)
        assert ast.Literal(1) == ast.Literal(1)
        one = compiler.compile_expression(parse_expression("1"))(ctx, {})
        true = compiler.compile_expression(parse_expression("true"))(ctx, {})
        lifted = compiler.compile_expression(parse_expression("1.0"))(ctx, {})
        assert one == 1 and not isinstance(one, bool)
        assert true is True
        assert isinstance(lifted, float)

    def test_unhashable_literal_compiles_fresh(self, ctx):
        expression = ast.Literal([1, 2])  # aggregate substitution shape
        fn = compiler.compile_expression(expression)
        assert fn(ctx, {}) == [1, 2]


class TestConstantFolding:
    def test_folds_constant_arithmetic(self, ctx):
        expression = parse_expression("2 * 3 + 4")
        before = compiler.STATS.constant_folded
        fn = compiler.compile_expression(expression)
        assert compiler.STATS.constant_folded > before
        assert fn(ctx, {}) == 10

    def test_folding_error_is_deferred_to_evaluation(self, ctx):
        fn = compiler.compile_expression(parse_expression("1 / 0"))
        with pytest.raises(CypherEvaluationError, match="division by zero"):
            fn(ctx, {})

    def test_list_literals_stay_fresh_objects(self, ctx):
        """A list literal must return a new list per evaluation (callers
        mutate results), so it is never folded to a shared constant."""
        fn = compiler.compile_expression(parse_expression("[1, 2]"))
        first = fn(ctx, {})
        second = fn(ctx, {})
        assert first == second == [1, 2]
        assert first is not second


class TestCompilationDisabled:
    def test_disabled_mode_interprets(self, ctx):
        expression = parse_expression("1 + 2")
        with compiler.compilation_disabled():
            assert not compiler.compilation_enabled()
            assert compiler.compile_expression(expression)(ctx, {}) == 3
        assert compiler.compilation_enabled()

    def test_disabled_mode_nests(self, ctx):
        with compiler.compilation_disabled():
            with compiler.compilation_disabled():
                pass
            assert not compiler.compilation_enabled()
        assert compiler.compilation_enabled()

    def test_disabled_queries_still_work(self):
        graph = Graph()
        graph.run("CREATE (:T {v: 1}), (:T {v: 2})")
        with compiler.compilation_disabled():
            result = graph.run(
                "MATCH (t:T) WHERE t.v > 1 RETURN count(*) AS n"
            )
        assert result.single()["n"] == 1

    def test_map_variables_are_memoized_in_both_modes(self, ctx, monkeypatch):
        properties = parse_expression("{k: a.k + b, j: 1}")
        walks = []
        variables_of = compiler._variables_of
        monkeypatch.setattr(
            compiler,
            "_variables_of",
            lambda e: walks.append(e) or variables_of(e),
        )
        with compiler.compilation_disabled():
            items, variables = compiler.compile_map(properties)
            walked = len(walks)
            assert walked and variables == {"a", "b"}
            assert compiler.compile_map(properties)[1] is variables
            assert items[1][1](ctx, {}) == 1
        # Compiling later fills the same entry in; no second analysis.
        compiled, again = compiler.compile_map(properties)
        assert again is variables
        assert compiler.compile_map(properties)[0] is compiled
        assert len(walks) == walked


class TestEngineStatementCache:
    def test_parse_cache_hits(self):
        graph = Graph()
        graph.run("RETURN 1 AS one")
        graph.run("RETURN 1 AS one")
        graph.run("RETURN 2 AS two")
        info = graph.engine.ast_cache_info()
        assert info["hits"] == 1
        assert info["misses"] >= 2
        assert info["size"] == 2

    def test_profile_reports_compiler_metrics(self):
        graph = Graph()
        graph.run("CREATE (:T {v: 1})")
        profile = graph.profile("MATCH (t:T) RETURN t.v + 1 AS w")
        metrics = profile.to_dict()["compiler"]
        assert set(metrics) == {
            "expressions_compiled",
            "cache_hits",
            "constant_folded",
        }
        # Re-profiling the same statement reuses every closure.
        again = graph.profile("MATCH (t:T) RETURN t.v + 1 AS w")
        assert again.to_dict()["compiler"]["expressions_compiled"] == 0
        assert "compiler:" in again.render()
