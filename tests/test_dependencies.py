"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys

from helpers import REPO_ROOT

PACKAGE_DIR = REPO_ROOT / "src" / "anticopypaster"


def _absolute_imports(tree: ast.Module) -> list[str]:
    """Top-level module names of every absolute import in the tree."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_every_engine_import_is_relative_or_from_the_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) >= 10
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names
    }
    assert not outside
