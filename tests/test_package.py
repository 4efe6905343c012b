"""The package's public surface and its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import recbench

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in recbench.__all__ if not hasattr(recbench, name)]
    assert missing == []


def _imported_top_level_modules(package):
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_exactly_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for req in project["project"]["dependencies"]}
    imported = _imported_top_level_modules(ROOT / "src" / "recbench")
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "recbench"}
    # every distribution here installs a module of its own name
    assert third_party == declared == {"numpy", "scipy"}
