"""The names the benchmark in perfbench/ wraps or imports still exist, and
its tracer runs the CLI end to end.

perfbench/traced.py wraps module attributes by name and reports a metric
as missing when its name is gone; workloads.py and probe.py import from
the package.  These tests only read perfbench/.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dsmscat.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_tracer_runs_image_end_to_end(tmp_path):
    # the span attributes call len() on every atomic_write payload
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario = ex1\n")
    assert main(["synthesize", "--config", str(cfg), "--outdir", str(tmp_path / "data")]) == 0
    grid_cfg = tmp_path / "grid.txt"
    grid_cfg.write_text("grid.h = 0.1\n")
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(spans_path), "image",
         "--config", str(grid_cfg), "--data", str(tmp_path / "data" / "ex1_far_inc0_eps0.csv"),
         "--outdir", str(tmp_path / "img")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["missing"] == []
    writes = [attrs for name, _, _, _, attrs in trace["spans"] if name == "cli.atomic_write"]
    assert writes and all(attrs["bytes"] > 0 for attrs in writes)
