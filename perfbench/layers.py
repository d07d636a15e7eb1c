"""Per-layer metrics derived from the spans of one traced run.

A metric is built from span names (see ``traced.SPANNED``).  When the
traced run reports one of those names missing, the metric is left out of
the result rather than reported as zero.  A name the workload simply did
not call reads zero: forward-disk makes no imaging calls, for example.
"""

from __future__ import annotations

COMPLEX_BYTES = 16  # one complex128 kernel entry


def _total(spans, name, pred=None) -> float:
    return sum((s[2] - s[1] for s in spans if s[0] == name and (pred is None or pred(s))), 0.0)


def _count(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def _attr_sum(spans, name, key) -> int:
    return sum(s[4][key] for s in spans if s[0] == name)


def _first_and_reuse(spans, kind) -> tuple[float, float]:
    times = [s[2] - s[1] for s in spans if s[0] == "indicators.grid" and s[4]["kind"] == kind]
    return (times[0], sum(times[1:], 0.0)) if times else (0.0, 0.0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _seconds(name):
    return ("s", (name,), lambda sp: _total(sp, name))


def _points_bytes(name):
    """Bytes of the complex kernel the spans built, computed from its shape, not measured."""
    return ("bytes", (name,), lambda sp: COMPLEX_BYTES * _attr_sum(sp, name, "points"))


_H0_SPANS = ("special.hankel1", "kernels.green", "kernels.near_build")

# metric -> (unit, span names it needs, function of the spans)
METRICS = {
    "special.h0_evals": ("count", _H0_SPANS, lambda sp: sum(_attr_sum(sp, n, "points") for n in _H0_SPANS)),
    "kernels.near_build_s": _seconds("kernels.near_build"),
    "kernels.far_build_s": _seconds("kernels.far_build"),
    "kernels.near_bytes": _points_bytes("kernels.near_build"),
    "kernels.far_bytes": _points_bytes("kernels.far_build"),
    "forward.discretize_s": _seconds("forward.discretize"),
    "forward.ls_solve_s": _seconds("forward.ls_solve"),
    "forward.ls_cells": ("count", ("forward.ls_solve",),
                         lambda sp: max((s[4]["cells"] for s in sp if s[0] == "forward.ls_solve"), default=0)),
    "forward.ls_solves": ("count", ("forward.ls_solve",), lambda sp: _count(sp, "forward.ls_solve")),
    "forward.sample_eval_s": _seconds("forward.sample_eval"),
    "measurement.add_noise_s": _seconds("measurement.add_noise"),
    "indicators.near_first_s": ("s", ("indicators.grid",), lambda sp: _first_and_reuse(sp, "near")[0]),
    "indicators.near_reuse_s": ("s", ("indicators.grid",), lambda sp: _first_and_reuse(sp, "near")[1]),
    "indicators.far_first_s": ("s", ("indicators.grid",), lambda sp: _first_and_reuse(sp, "far")[0]),
    "indicators.far_reuse_s": ("s", ("indicators.grid",), lambda sp: _first_and_reuse(sp, "far")[1]),
    "indicators.grid_calls": ("count", ("indicators.grid",), lambda sp: _count(sp, "indicators.grid")),
    "indicators.combine_s": _seconds("indicators.combine"),
    "indicators.components_s": _seconds("indicators.components"),
    # sample formatting plus the writes cli.main makes itself (sample files and report.txt)
    "cli.sample_write_s": ("s", ("cli.sample_rows", "cli.atomic_write"),
                           lambda sp: _total(sp, "cli.sample_rows")
                           + _total(sp, "cli.atomic_write", lambda s: sp[s[3]][0] == "cli.main")),
    "cli.indicator_csv_s": _seconds("cli.indicator_csv"),
    "cli.heatmap_s": _seconds("cli.heatmap"),
    "cli.bytes_written": ("bytes", ("cli.atomic_write",), lambda sp: _attr_sum(sp, "cli.atomic_write", "bytes")),
    "cli.self_s": ("s", (), lambda sp: self_times(sp)[0]),
}


def layer_metrics(trace: dict) -> dict:
    """{metric: value} for every metric whose span names all exist."""
    spans, missing = trace["spans"], set(trace["missing"])
    _require_root(spans)
    return {name: fn(spans) for name, (unit, needs, fn) in METRICS.items() if not missing & set(needs)}


def layer_self_times(trace: dict) -> dict:
    """Self time summed per layer, the prefix of each span name."""
    out: dict = {}
    for span, own in zip(trace["spans"], self_times(trace["spans"])):
        layer = span[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def _require_root(spans) -> None:
    if not spans or spans[0][0] != "cli.main" or spans[0][3] != -1:
        raise ValueError("traced run has no cli.main root span")
