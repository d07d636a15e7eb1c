"""Direct sampling indicator functions on a rectangular sampling grid.

The indicator at a sampling point x_p correlates the measured data with
the (far-field) fundamental solution anchored at x_p and normalizes by
both norms, so every value lies in [0, 1] by the Cauchy-Schwarz
inequality.  A grid evaluation additionally divides by the grid maximum
so the peak is pinned at 1; that is a display convention for contour
comparability, not a change to the indicator.

Discrete L2 inner products use uniform quadrature weights on the
uniform circular measurement layouts (2 pi / count for directions,
arc length 2 pi R / count for near points).  The weights cancel in the
normalized quotient; they are applied uniformly anyway so the norms
reported by intermediate quantities stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, EvaluationPointError
from .kernels import WaveContext, green, green_farfield
from .measurement import FieldSamples


@dataclass(frozen=True)
class SamplingGrid:
    """Axis-aligned rectangle of sampling points with uniform pitch."""

    xmin: float = -2.0
    xmax: float = 2.0
    ymin: float = -2.0
    ymax: float = 2.0
    h: float = 0.01

    def __post_init__(self):
        if not np.all(np.isfinite([self.xmin, self.xmax, self.ymin, self.ymax, self.h])):
            raise ValueError("grid bounds and pitch must be finite")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("grid bounds must satisfy min < max")
        if not self.h > 0:
            raise ValueError("grid pitch must be positive")

    @property
    def shape(self) -> tuple:
        nx = int(np.floor((self.xmax - self.xmin) / self.h + 1e-9)) + 1
        ny = int(np.floor((self.ymax - self.ymin) / self.h + 1e-9)) + 1
        return (ny, nx)

    @property
    def xs(self) -> np.ndarray:
        return self.xmin + self.h * np.arange(self.shape[1])

    @property
    def ys(self) -> np.ndarray:
        return self.ymin + self.h * np.arange(self.shape[0])

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (n, 2) array, row-major (x varies fastest)."""
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class IndicatorGrid:
    """Indicator values over a SamplingGrid, stored as a (ny, nx) array."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError("values shape must match the grid shape")
        if not np.all(np.isfinite(values)):
            raise ValueError("indicator values must be finite")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("indicator values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    def argmax_point(self) -> np.ndarray:
        """Coordinates of the maximizing node (row-major first on ties)."""
        iy, ix = np.unravel_index(np.argmax(self.values), self.values.shape)
        return np.array([self.grid.xs[ix], self.grid.ys[iy]])


def _kernel(ctx: WaveContext, data: FieldSamples, points: np.ndarray) -> np.ndarray:
    """Receivers x points matrix of G_inf (far data) or G (near data)."""
    if data.kind == "far":
        return green_farfield(ctx, data.locations[:, None, :], points[None, :, :])
    r = np.sqrt(np.sum(points**2, axis=1))
    if np.any(r >= data.radius - 1e-12):
        raise EvaluationPointError("sampling point not strictly inside the measurement circle")
    return green(ctx, data.locations[:, None, :], points[None, :, :])


def _correlation(data: FieldSamples, gram: np.ndarray) -> np.ndarray:
    """|<u, g_p>| / (||u|| ||g_p||) for every column g_p of the kernel gram."""
    radius = 1.0 if data.kind == "far" else data.radius
    weight = 2.0 * np.pi * radius / len(data.values)
    norm_u = np.sqrt(weight) * np.linalg.norm(data.values)
    if norm_u == 0.0:
        raise DegenerateDataError("measured data is identically zero")
    g_norms = np.sqrt(weight) * np.linalg.norm(gram, axis=0)
    inner = weight * (np.conj(gram).T @ data.values)
    return np.abs(inner) / (norm_u * g_norms)


def indicator_values(ctx: WaveContext, data: FieldSamples, points):
    """Indicator of near or far data (by data.kind) at one point or at each
    row of an (n, 2) array; near-data points must lie strictly inside the
    measurement circle."""
    pts = np.asarray(points, dtype=float)
    values = _correlation(data, _kernel(ctx, data, np.atleast_2d(pts)))
    return float(values[0]) if pts.ndim == 1 else values


# The kernel of the last indicator_grid call, keyed by its measurement
# geometry and grid: the kernel dominates the runtime, and the incidents
# and noise realizations of one geometry share it.  It holds one kernel
# and drops it before building another, so at most one is alive.
_KERNEL_MEMO: dict = {}


def _memo_kernel(ctx: WaveContext, data: FieldSamples, grid: SamplingGrid) -> np.ndarray:
    key = (data.kind, ctx.k, ctx.dim, data.locations.tobytes(),
           grid.xmin, grid.xmax, grid.ymin, grid.ymax, grid.h)
    if key not in _KERNEL_MEMO:
        _KERNEL_MEMO.clear()
        _KERNEL_MEMO[key] = _kernel(ctx, data, grid.nodes())
    return _KERNEL_MEMO[key]


def indicator_grid(ctx: WaveContext, data: FieldSamples, grid: SamplingGrid) -> IndicatorGrid:
    """Evaluate the indicator at every node and rescale so the max is 1."""
    raw = _correlation(data, _memo_kernel(ctx, data, grid))
    top = raw.max()
    if top == 0.0:
        raise DegenerateDataError("indicator vanishes on the whole grid")
    return IndicatorGrid(grid=grid, values=(raw / top).reshape(grid.shape))


def combine_max(grids) -> IndicatorGrid:
    """Node-wise maximum over indicator grids from several incident waves."""
    grids = list(grids)
    if not grids:
        raise ValueError("need at least one indicator grid")
    base = grids[0].grid
    if any(g.grid != base for g in grids[1:]):
        raise ValueError("indicator grids must share one sampling grid")
    return IndicatorGrid(grid=base, values=np.maximum.reduce([g.values for g in grids]))


@dataclass(frozen=True)
class Component:
    """One 4-connected superlevel component."""

    indices: np.ndarray  # (m, 2) int rows of (iy, ix)
    points: np.ndarray  # (m, 2) node coordinates
    centroid: np.ndarray  # (2,)
    lo: np.ndarray  # bounding box min corner (x, y)
    hi: np.ndarray  # bounding box max corner (x, y)

    @property
    def size(self) -> int:
        return len(self.indices)


def superlevel_components(grid: IndicatorGrid, cutoff: float):
    """4-connected components of {value >= cutoff}, largest first."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must lie strictly between 0 and 1")
    mask = grid.values >= cutoff
    ny, nx = mask.shape
    labels = np.zeros((ny, nx), dtype=np.int32)
    xs, ys = grid.grid.xs, grid.grid.ys
    components = []
    for iy in range(ny):
        row = mask[iy]
        if not row.any():
            continue
        for ix in np.flatnonzero(row & (labels[iy] == 0)):
            if labels[iy, ix]:  # labeled by an earlier seed in this row
                continue
            stack = [(iy, int(ix))]
            labels[iy, ix] = 1
            cells = []
            while stack:
                cy, cx = stack.pop()
                cells.append((cy, cx))
                if cy > 0 and mask[cy - 1, cx] and not labels[cy - 1, cx]:
                    labels[cy - 1, cx] = 1
                    stack.append((cy - 1, cx))
                if cy + 1 < ny and mask[cy + 1, cx] and not labels[cy + 1, cx]:
                    labels[cy + 1, cx] = 1
                    stack.append((cy + 1, cx))
                if cx > 0 and mask[cy, cx - 1] and not labels[cy, cx - 1]:
                    labels[cy, cx - 1] = 1
                    stack.append((cy, cx - 1))
                if cx + 1 < nx and mask[cy, cx + 1] and not labels[cy, cx + 1]:
                    labels[cy, cx + 1] = 1
                    stack.append((cy, cx + 1))
            idx = np.array(cells, dtype=np.int64)
            pts = np.column_stack([xs[idx[:, 1]], ys[idx[:, 0]]])
            components.append(
                Component(
                    indices=idx,
                    points=pts,
                    centroid=pts.mean(axis=0),
                    lo=pts.min(axis=0),
                    hi=pts.max(axis=0),
                )
            )
    components.sort(key=lambda c: c.size, reverse=True)
    return components
