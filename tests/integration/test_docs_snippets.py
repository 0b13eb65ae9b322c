"""Keep the documentation truthful: run the code blocks it shows."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def python_blocks(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = python_blocks(ROOT / "README.md")
        assert blocks, "README has no python blocks"
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        # The quickstart leaves a populated graph behind.
        graph = namespace["g"]
        assert graph.node_count() >= 2

    def test_quickstart_claims_hold(self):
        blocks = python_blocks(ROOT / "README.md")
        namespace: dict = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)
        result = namespace["result"]
        assert result.records == [{"user": "Bob", "product": "laptop"}]
        # "one pair, not two": the MERGE SAME example deduplicated.
        graph = namespace["g"]
        count = graph.run(
            "MATCH (:User {id: 1})-[:WANTS]->(p) RETURN count(p) AS c"
        )
        assert count.values("c") == [1]


class TestModuleDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.graph.values",
            "repro.graph.store",
            "repro.parser.parser",
            "repro.runtime.matcher",
            "repro.runtime.match_planner",
            "repro.core.merge",
            "repro.core.set",
            "repro.core.delete",
            "repro.legacy.updates",
            "repro.formal.semantics",
            "repro.engine",
            "repro.session",
        ],
    )
    def test_every_public_module_is_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_public_api_members_documented(self):
        import repro

        for name in repro.__all__:
            member = getattr(repro, name)
            assert member.__doc__, f"{name} lacks a docstring"


class TestDesignDocSync:
    def test_design_lists_every_bench_file(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        bench_files = {
            path.name
            for path in (ROOT / "benchmarks").glob("bench_*.py")
        }
        missing = {
            name
            for name in bench_files
            if name not in design
        }
        assert not missing, f"DESIGN.md is missing bench files: {missing}"

    def test_experiments_mentions_all_experiment_ids(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for experiment_id in ["E1", "E2", "E3", "E4", "E5", "E6", "E7",
                              "E8", "E9", "E10", "P1", "P2", "P3", "P4",
                              "P5"]:
            assert experiment_id in experiments, experiment_id
