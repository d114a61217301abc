"""Every name a package module imports is used there, or traced there.

``bench/tracing.py`` replaces kernels in every module that binds them by
name, so a module may keep an import it does not call for the tracer's
sake.  Any other unused import fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from test_tracing import load_tracing

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cslcolour"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_traced(path):
    module = f"cslcolour.{path.stem}"
    traced = {
        attr
        for _, attr, modules in load_tracing().FUNCTIONS
        for mod in modules
        if mod.__name__ == module
    }
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = imported_names(tree) - used_names(tree) - traced
    assert not unused, f"{module} imports {sorted(unused)} and never uses them"
