"""The library runs on the standard library alone.

pyproject.toml declares no dependencies and Python 3.10 or later; this
holds every module under src/lea to both, the second as syntax only.
"""

import ast
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "lea").rglob("*.py"))


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    assert MODULES
    outside = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in MODULES
        for lineno, name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_library_parses_as_the_oldest_declared_python():
    # pyproject.toml declares requires-python >= 3.10.  This holds the syntax
    # of every module to 3.10; it cannot catch a newer library call.
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["requires-python"] == ">=3.10"
    for path in MODULES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_project_declares_no_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_formula_nodes_import_no_dataclasses():
    # Formula nodes are plain __slots__ classes: the formula layer imports
    # neither dataclasses nor the inspect module that it pulls in.
    tree = ast.parse((ROOT / "src" / "lea" / "formula.py").read_text(encoding="utf-8"))
    assert {name for _, name in _absolute_imports(tree)}.isdisjoint({"dataclasses", "inspect"})
