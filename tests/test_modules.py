"""Module layout: fedsplit's modules import each other at module level only,
the config does not depend on the module that runs it, and the names the
benchmark's tracer (bench/tracer.py) patches stay where it looks for them."""

import ast
import inspect
from pathlib import Path

import pytest

import fedsplit
from fedsplit import runtime
from fedsplit.he import CkksBackend, MockBackend

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


@pytest.mark.parametrize("backend", [CkksBackend, MockBackend])
def test_backend_binds_traced_operations_in_its_own_class(backend):
    # the tracer wraps cls.__dict__[name] per backend class; an inherited-only
    # method would raise KeyError there
    assert {"keygen", "encrypt", "hom_add", "decrypt"} <= set(vars(backend))


def test_round_loop_boundaries_exist():
    assert callable(runtime._run_round)
    assert list(inspect.signature(runtime._map_clients).parameters) == ["fn", "items", "workers"]
