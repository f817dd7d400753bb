"""The package's own code imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xview"


def _top_level_imports(tree: ast.AST) -> set[str]:
    """The top-level module of every absolute import in a parsed file; a
    relative import names the package itself."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("xview" if node.level else node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 5
    outside = {
        (path.name, name)
        for path in files
        for name in _top_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name != "xview" and name not in sys.stdlib_module_names
    }
    assert outside == set()
