"""numpy is the package's only runtime dependency, and the public
names resolve.

scipy and hypothesis serve the tests as oracles; this check keeps them,
and anything else outside the standard library, out of ``src/dsmscat``.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dsmscat").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_stdlib_and_numpy_at_runtime(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = {name for name in _absolute_imports(path) if name.split(".")[0] not in allowed}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_sources_found():
    assert any(path.name == "special.py" for path in SOURCES)


def test_exports_resolve_sorted_and_unique():
    import dsmscat

    for name in dsmscat.__all__:
        assert hasattr(dsmscat, name), name
    assert len(set(dsmscat.__all__)) == len(dsmscat.__all__)
    assert sorted(dsmscat.__all__) == dsmscat.__all__


def _unused_imports(path):
    """Names a module imports but never reads, as a name or an attribute base."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read - {"annotations"})


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def _makedirs_owners(path):
    """Names of the functions that call os.makedirs in a module ("<module>"
    for a call outside every function)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "makedirs"):
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return owners


def test_only_atomic_write_makes_directories():
    # a command that made its output directory itself could leave it empty
    # when a later step fails; atomic_write makes it with the first file
    owners = {path.name: _makedirs_owners(path) for path in SOURCES}
    assert {name: found for name, found in owners.items() if found} == {"cli.py": ["atomic_write"]}
