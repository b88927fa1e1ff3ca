"""Module layout: fedsplit's modules import each other at module level only,
and the config does not depend on the module that runs it."""

import ast
from pathlib import Path

import fedsplit

SRC = Path(fedsplit.__file__).parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_package_import_inside_a_function():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert not found, f"package-relative imports inside functions: {sorted(found)}"


def test_config_does_not_import_runtime():
    imported = {node.module for node in ast.walk(_tree(SRC / "config.py"))
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert "runtime" not in imported
