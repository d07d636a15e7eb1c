"""Run the dsmscat CLI once with spans around the public functions it calls.

    python3 perfbench/traced.py SPANS_JSON CLI_ARG...

The spans are kept in memory and written to SPANS_JSON once, after the
command returns.  Each span is ``[name, start_s, end_s, parent_index,
attrs]``; the root span ``cli.main`` has parent -1.  Wrapping happens on
the module attributes the callers look up, so the package source stays
untouched.  A wrapped name that no longer exists is listed under
``missing`` so that the metrics built on it are reported missing, not zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _points(x, y) -> int:
    """Point pairs a broadcast kernel call evaluates."""
    return int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])))


def _payload_bytes(payload) -> int:
    return len(payload.encode() if isinstance(payload, str) else payload)


# (module, attribute) -> (span name, attrs from the call's arguments or None)
SPANNED = {
    ("dsmscat.cli", "discretize"): ("forward.discretize", None),
    ("dsmscat.cli", "solve_lippmann_schwinger"): (
        "forward.ls_solve", lambda ctx, grid, d: {"cells": len(grid)}),
    ("dsmscat.cli", "scattered_near"): ("forward.sample_eval", None),
    ("dsmscat.cli", "scattered_far"): ("forward.sample_eval", None),
    ("dsmscat.cli", "add_noise"): ("measurement.add_noise", None),
    ("dsmscat.cli", "indicator_grid"): (
        "indicators.grid", lambda ctx, data, grid: {"kind": data.kind}),
    ("dsmscat.cli", "combine_max"): ("indicators.combine", None),
    ("dsmscat.cli", "superlevel_components"): ("indicators.components", None),
    ("dsmscat.cli", "_sample_rows"): ("cli.sample_rows", None),
    ("dsmscat.cli", "atomic_write"): (
        "cli.atomic_write", lambda path, payload: {"bytes": _payload_bytes(payload)}),
    ("dsmscat.cli", "write_indicator_csv"): ("cli.indicator_csv", None),
    ("dsmscat.cli", "write_heatmap_ppm"): ("cli.heatmap", None),
    # the imaging kernels, as indicators builds them from receivers x grid nodes
    ("dsmscat.indicators", "green"): ("kernels.near_build", lambda ctx, x, y: {"points": _points(x, y)}),
    ("dsmscat.indicators", "green_farfield"): (
        "kernels.far_build", lambda ctx, xhat, y: {"points": _points(xhat, y)}),
    # Hankel evaluations of the forward solver and the near-field sampler
    ("dsmscat.forward", "hankel1"): ("special.hankel1", lambda order, x: {"points": int(np.size(x))}),
    ("dsmscat.forward", "green"): ("kernels.green", lambda ctx, x, y: {"points": _points(x, y)}),
}


class Tracer:
    """In-memory span recorder; single-threaded, so a stack gives parents."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def run(self, name, fn, *args, attrs=None, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1], attrs or {}]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else None
            return self.run(name, fn, *args, attrs=attrs, **kwargs)
        return wrapper


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import dsmscat.cli

    tracer = Tracer()
    missing = []
    for (module_name, attr), (name, describe) in SPANNED.items():
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(name)
            continue
        setattr(module, attr, tracer.wrap(name, fn, describe))
    code = tracer.run("cli.main", dsmscat.cli.main, cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "missing": sorted(set(missing))}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
