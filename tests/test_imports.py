"""Every name a package module imports is used there, or traced there,
and every public name earns its place.

``bench/tracing.py`` replaces kernels in every module that binds them by
name, so a module may keep an import it does not call for the tracer's
sake.  Any other unused import fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from test_readme import BLOCKS
from test_tracing import load_tracing

import cslcolour

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cslcolour"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# the paper's objects: the coincidence index and site lattice, colour
# coincidences and their permutations, the colouring by cosets, and the
# principal submodules of the eightfold module
PAPER_OBJECTS = (
    "sigma",
    "csl",
    "is_colour_coincidence",
    "colour_permutation",
    "colour_of",
    "coset_reps",
    "principal_submodule",
)


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


def names_read(tree: ast.AST, skip: str = "") -> set[str]:
    """Names and attributes read in the tree, outside any def or class named `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_earns_its_place():
    tracing = load_tracing()
    traced = {attr for _, attr, _ in tracing.FUNCTIONS} | {m for _, _, m in tracing.METHODS}
    bench = set().union(
        *(names_read(ast.parse(p.read_text(encoding="utf-8"))) for p in (ROOT / "bench").glob("*.py"))
    )
    readme = set().union(*(names_read(ast.parse(block)) for block in BLOCKS))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    idle = [
        name
        for name in cslcolour.__all__
        if name not in traced | bench | readme | set(PAPER_OBJECTS)
        and not any(name in names_read(tree, skip=name) for tree in trees)
    ]
    assert not idle, f"public names that nothing in src, bench or README uses: {idle}"
