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


def markdown_files() -> list[Path]:
    return sorted(
        path
        for path in ROOT.rglob("*.md")
        if not any(
            part.startswith(".") for part in path.relative_to(ROOT).parts
        )
    )


def without_fences(text: str) -> str:
    return re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)


def without_code(text: str) -> str:
    """*text* with fenced blocks and inline code spans blanked out."""
    return re.sub(r"`[^`\n]*`", "", without_fences(text))


def heading_anchors(path: Path) -> set[str]:
    """GitHub's anchor slugs for the headings of *path*."""
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    text = without_fences(path.read_text(encoding="utf-8"))
    headings = re.findall(r"^#{1,6}\s+(.*?)\s*#*\s*$", text, re.MULTILINE)
    for heading in headings:
        heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
        slug = re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def test_markdown_links_resolve():
    """Every relative link to a Markdown file names an existing file
    and, if it carries one, an anchor that is a heading there."""
    broken = []
    for path in markdown_files():
        text = without_code(path.read_text(encoding="utf-8"))
        for target in re.findall(r"\]\(([^)\s]+\.md(?:#[^)\s]*)?)\)", text):
            if re.match(r"[a-z]+:", target):
                continue  # absolute URL
            file_part, _, anchor = target.partition("#")
            linked = (path.parent / file_part).resolve()
            where = f"{path.relative_to(ROOT)}: ({target})"
            if not linked.is_file():
                broken.append(f"{where} -- no such file")
            elif anchor and anchor not in heading_anchors(linked):
                broken.append(f"{where} -- no such heading")
    assert not broken, "\n".join(broken)
