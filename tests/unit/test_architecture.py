"""Architecture rules, each a query over the parsed source of ``src/repro``.

A rule states one property of the package's structure as an ``ast``
query, so a comment cannot trip it and an alias cannot evade it.
"""

import ast
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


def absolute_imports(path: Path):
    """``(line, top-level module)`` of every absolute import in *path*,
    at module level or inside a function."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_no_runtime_dependency():
    """The package imports only the standard library and itself, and
    declares no dependency."""
    foreign = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in absolute_imports(path)
        if module != "repro" and module not in sys.stdlib_module_names
    ]
    assert foreign == []
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
