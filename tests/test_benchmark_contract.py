"""The names the benchmark in perfbench/ wraps or imports still exist.

perfbench/traced.py wraps module attributes by name and reports a metric
as missing when its name is gone; workloads.py and probe.py import from
the package.  This test only reads perfbench/.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    importlib.import_module("dsmscat.cli")
    spanned = _load("traced").SPANNED
    assert spanned
    for module_name, attr in spanned:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("script", ["workloads", "probe"])
def test_perfbench_imports_resolve(script):
    tree = ast.parse((PERFBENCH / f"{script}.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("dsmscat")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
