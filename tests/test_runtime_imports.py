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
