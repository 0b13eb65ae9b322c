"""Unit tests for the expression compiler and the shared LRU cache."""

import dataclasses
import gc
import weakref

import pytest

from repro import Graph
from repro.caching import LRUCache
from repro.errors import CypherEvaluationError
from repro.graph.store import GraphStore
from repro.parser import ast, parse_expression
from repro.runtime import compiler
from repro.runtime.context import EvalContext
from repro.testing.interpreter import interpreting


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
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.info()["evictions"] == 1
        assert cache.info()["size"] == 2

    def test_put_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh via put
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_a_cached_none_is_a_hit(self):
        cache = LRUCache(capacity=2)
        cache.put("a", None)
        assert cache.get("a", "fallback") is None
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
        assert second is first
        assert compiler.STATS.snapshot() == before

    def test_the_closure_belongs_to_the_node(self, ctx):
        """No table holds closures: a node's closure is on the node,
        found without hashing it, and structurally equal nodes of two
        statements do not share (or pin) each other's."""
        first_node = parse_expression("x + 1")
        second_node = parse_expression("x + 1")
        assert first_node == second_node
        first = compiler.compile_expression(first_node)
        assert first_node._compiled[0] is first
        assert second_node._compiled is None
        assert compiler.compile_expression(second_node) is not first
        # Not a field: equality, hashing and copies do not see it.
        assert first_node == parse_expression("x + 1")
        assert hash(first_node) == hash(parse_expression("x + 1"))
        assert dataclasses.replace(first_node)._compiled is None

    def test_closures_die_with_their_node(self, ctx):
        node = parse_expression("x + 1")
        closure = weakref.ref(compiler.compile_expression(node))
        del node
        gc.collect()
        assert closure() is None

    def test_numeric_literal_types_stay_distinct(self, ctx):
        """True, 1 and 1.0 are equal under Python ``==`` but are
        different constants (the AST keeps them apart)."""
        assert ast.Literal(1) != ast.Literal(True)
        assert ast.Literal(1) != ast.Literal(1.0)
        assert ast.Literal(1) == ast.Literal(1)
        one = compiler.compile_expression(parse_expression("1"))(ctx, {})
        true = compiler.compile_expression(parse_expression("true"))(ctx, {})
        lifted = compiler.compile_expression(parse_expression("1.0"))(ctx, {})
        assert one == 1 and not isinstance(one, bool)
        assert true is True
        assert isinstance(lifted, float)

    def test_map_variables_are_collected_once(self, ctx, monkeypatch):
        properties = parse_expression("{k: a.k + b, j: 1}")
        walks = []
        variables_of = compiler._variables_of
        monkeypatch.setattr(
            compiler,
            "_variables_of",
            lambda e: walks.append(e) or variables_of(e),
        )
        items, variables = compiler.compile_map(ctx.compile, properties)
        walked = len(walks)
        assert walked and variables == {"a", "b"}
        assert items[1][1](ctx, {}) == 1
        # Whoever makes the closures, the variables are the node's.
        again = compiler.compile_map(interpreting, properties)
        assert again[1] is variables and len(walks) == walked
        assert again[0][1][1](ctx, {}) == 1


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
            "prepared_hit",
            "expressions_compiled",
            "constant_folded",
        }
        assert metrics["prepared_hit"] == 0
        assert metrics["expressions_compiled"] > 0
        assert "compiler: statement cache miss" in profile.render()
        # Re-profiling the same statement reuses the prepared statement
        # and with it every closure.
        again = graph.profile("MATCH (t:T) RETURN t.v + 1 AS w")
        assert again.to_dict()["compiler"] == {
            "prepared_hit": 1,
            "expressions_compiled": 0,
            "constant_folded": 0,
        }
        assert "compiler: statement cache hit, 0 expressions" in again.render()
