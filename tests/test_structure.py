"""Source-level guards over src/mortonlab: invariant checks that python -O
cannot strip, no interpreter-global recursion-limit changes, no thread
pools, and a package namespace that does not shadow its modules."""

import ast
import importlib
from pathlib import Path

import pytest

import mortonlab

SOURCES = sorted(Path(mortonlab.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursion_limit_changes(path):
    lines = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Attribute) and n.attr == "setrecursionlimit"]
    assert not lines, f"{path.name}: setrecursionlimit on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_thread_imports(path):
    banned = ("threading", "concurrent")
    found = []
    for n in ast.walk(_tree(path)):
        if isinstance(n, ast.Import):
            found += [a.name for a in n.names if a.name.split(".")[0] in banned]
        elif isinstance(n, ast.ImportFrom) and n.module and n.module.split(".")[0] in banned:
            found.append(n.module)
    assert not found, f"{path.name}: imports {found}"


def test_homfly_module_not_shadowed():
    module = importlib.import_module("mortonlab.homfly")
    assert mortonlab.homfly is module
    assert module.HomflyEngine is mortonlab.HomflyEngine
