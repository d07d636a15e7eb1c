"""Layer probes that time public functions on inputs the benchmark made.

    python3 perfbench/probe.py PROBE_NPZ OUT_JSON [INDICATOR_CSV...]

PROBE_NPZ holds one array of Hankel arguments per band (``0_8``, ``8_14``,
``14_45``).  ``hankel1(0, .)`` is timed on each and reported in ns per
point.  Each INDICATOR_CSV, as written by ``dsmscat reproduce``, is
reloaded on its grid and ``superlevel_components`` is timed at cutoff 0.3,
low enough that the flood fill labels many nodes; the times of all files
are summed.  Every figure is the median of REPEATS calls after one
untimed warm-up call.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from dsmscat.indicators import IndicatorGrid, SamplingGrid, superlevel_components
from dsmscat.special import hankel1

REPEATS = 5
CUTOFF = 0.3


def median_seconds(fn, *args) -> float:
    fn(*args)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_indicator(path: str) -> IndicatorGrid:
    with open(path, encoding="utf-8") as handle:
        h = float(handle.readline().split("h=")[1].split()[0])
        handle.readline()
        body = np.loadtxt(handle, delimiter=",", ndmin=2)
    x, y = body[:, 0], body[:, 1]
    grid = SamplingGrid(xmin=x.min(), xmax=x.max(), ymin=y.min(), ymax=y.max(), h=h)
    return IndicatorGrid(grid=grid, values=body[:, 2].reshape(grid.shape))


def main(argv) -> int:
    npz_path, out_path, csv_paths = argv[0], argv[1], argv[2:]
    metrics = {}
    with np.load(npz_path) as bands:
        for band in bands.files:
            x = bands[band]
            metrics[f"special.h0_ns_pt_{band}"] = median_seconds(hankel1, 0, x) / x.size * 1e9
    grids = [load_indicator(path) for path in csv_paths]
    metrics["indicators.components_c03_s"] = sum(
        (median_seconds(superlevel_components, grid, CUTOFF) for grid in grids), 0.0)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
