"""Direct sampling indicator functions on a rectangular sampling grid.

The indicator at a sampling point x_p correlates the measured data with
the (far-field) fundamental solution anchored at x_p and normalizes by
both norms, so every value lies in [0, 1] by the Cauchy-Schwarz
inequality.  A grid evaluation additionally divides by the grid maximum
so the peak is pinned at 1; that is a display convention for contour
comparability, not a change to the indicator.

Discrete L2 inner products on the uniform circular measurement layouts
carry one uniform quadrature weight (2 pi / count for directions, arc
length 2 pi R / count for near points).  It cancels in the normalized
quotient, so no path applies it.

Imaging is two-dimensional: the data live on planar layouts.  A grid
evaluation builds no receivers x nodes kernel: far data separate on the
tensor grid, and near data from equispaced receivers expand in Graf's
series.  The dense kernel serves point evaluation and the layouts those
two do not cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, EvaluationPointError
from .kernels import WaveContext, green, green_farfield
from .measurement import FieldSamples
from .special import _miller_jn, _upward_rows


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


def _data_norm(data: FieldSamples):
    """(u, ||u||) for the data u times the power of two that brings max|u|
    into [0.5, 1): exact, and the indicator does not see it, but ||u||
    neither underflows nor overflows.  Zero data raise DegenerateDataError."""
    peak = np.max(np.abs(data.values))
    if peak == 0.0:
        raise DegenerateDataError("measured data is identically zero")
    u = data.values * 2.0 ** min(1023, -int(np.frexp(peak)[1]))  # 2.0 ** 1024 overflows
    return u, np.linalg.norm(u)


def _correlation(data: FieldSamples, gram: np.ndarray) -> np.ndarray:
    """|conj(G)^T u| / (||u|| ||g_p||) for every column g_p of the kernel gram."""
    u, norm_u = _data_norm(data)
    return np.abs(np.conj(gram).T @ u) / (norm_u * np.linalg.norm(gram, axis=0))


def indicator_values(ctx: WaveContext, data: FieldSamples, points):
    """Indicator of near or far data (by data.kind) at one point or at each
    row of an (n, 2) array; near-data points must lie strictly inside the
    measurement circle."""
    if ctx.dim != 2:
        raise ValueError("imaging is two-dimensional")
    pts = np.asarray(points, dtype=float)
    values = _correlation(data, _kernel(ctx, data, np.atleast_2d(pts)))
    return float(values[0]) if pts.ndim == 1 else values


def _far_grid_correlation(ctx: WaveContext, data: FieldSamples, grid: SamplingGrid) -> np.ndarray:
    """_correlation of far data on the tensor grid without the kernel.

    conj(G_inf) carries exp(ik xhat.y) = exp(ik xhat_1 x) exp(ik xhat_2 y),
    so the inner products are E_y^T diag(u) E_x, and every kernel column
    has the norm sqrt(n) |G_inf|.
    """
    u, norm_u = _data_norm(data)
    u = u / norm_u
    e_x = np.exp(1j * ctx.k * np.multiply.outer(data.locations[:, 0], grid.xs))
    e_y = np.exp(1j * ctx.k * np.multiply.outer(data.locations[:, 1], grid.ys))
    return np.abs(e_y.T @ (u[:, None] * e_x)) / np.sqrt(len(u))


# The Graf series drops the orders whose terms |H_m(kR) J_m(kr)| add up to
# less than _GRAF_TAIL, and is used only while |H_m(kR)| <= _GRAF_CAP for
# every order it keeps: that keeps H_m finite and each J_m(kr) paired with
# it a normal number wherever the term matters.
_GRAF_TAIL = 1e-16
_GRAF_CAP = 1e250
# J_m values per block of sampling nodes (orders x nodes), so a block's
# arrays stay a few megabytes whatever the order count.
_GRAF_BLOCK = 1 << 19


def _receiver_phase(data: FieldSamples):
    """phi_0 when the receivers sit at phi_0 + 2 pi j / n, j = 0..n-1, on
    their circle (to rounding), else None."""
    radius, count = data.radius, len(data.values)
    phi0 = float(np.arctan2(data.locations[0, 1], data.locations[0, 0]))
    phi = phi0 + 2.0 * np.pi * np.arange(count) / count
    ideal = radius * np.column_stack([np.cos(phi), np.sin(phi)])
    return phi0 if np.max(np.abs(data.locations - ideal)) <= 1e-14 * radius else None


def _graf_order(log_h: np.ndarray, kr: float, kr_big: float) -> int:
    """Smallest M whose dropped orders m > M of sum H_m(kR) J_m(kr) stay
    below _GRAF_TAIL, or -1 when no order in log_h's range suffices.

    |J_m(kr)| <= (kr/2)^m / m! (DLMF 10.14.4) bounds term m by t_m, and
    |H_{m+1}| <= (2m/kR + 1)|H_m| bounds t_{m+1}/t_m by
    rho_m = r/R + kr / (2(m + 1)), so the tail past M is below
    t_M rho_M / (1 - rho_M) once rho_M < 1.
    """
    if kr == 0.0:
        return 0
    m = np.arange(len(log_h))
    log_t = log_h + m * np.log(0.5 * kr) - np.cumsum(np.log(np.maximum(m, 1)))
    rho = kr / kr_big + 0.5 * kr / (m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (rho < 1.0) & (log_t + np.log(rho / (1.0 - rho)) <= np.log(_GRAF_TAIL))
    return int(np.argmax(ok)) if ok.any() else -1


def _graf_hankel(kr_big: float, kr_max: float):
    """H_0..H_M(kR) for the order M that _graf_order sets for kr_max, or
    None when that order would pass _GRAF_CAP.  Upward recurrence to a top
    that doubles until M is found costs about M steps, not kR; its J parts
    stand while M < kR, where it is stable for J, else one Miller sweep,
    started above kR, gives J."""
    top = 64
    with np.errstate(over="ignore", invalid="ignore"):  # rows past the cap may overflow
        while True:
            rows = _upward_rows(top, float(kr_big))
            capped = np.abs(rows.imag) > _GRAF_CAP
            kept = rows.imag[:np.argmax(capped)] if capped.any() else rows.imag
            order = _graf_order(np.log(np.abs(kept) + 1.0), kr_max, kr_big)  # |H_m| <= |Y_m| + 1
            if order >= 0 or capped.any():
                break
            top *= 2
    if order >= kr_big:
        rows.real[:order + 1] = _miller_jn(order, np.array([kr_big]))[:, 0]
    return rows[:order + 1] if order >= 0 else None


def _aliased_norms(hj: np.ndarray, unit: np.ndarray, count: int, theta: np.ndarray) -> np.ndarray:
    """sum_p |S_p|^2 at each node from the rows |H_m| J_m, m = 0..M, and the
    phases unit_m = H_m / |H_m|.

    sum_p |S_p|^2 = sum_d C_d e^{-i s theta} with s = dn and
    C_d = sum_m Re(unit_|m| conj(unit_|m-s|)) |H J|_|m| |H J|_|m-s| over
    m in [s - M, M].  C_-d = C_d, and m and s - m give equal terms, so the
    orders m <= 0 repeat those m >= s and only m >= 0 are summed.
    """
    top = len(hj) - 1
    unit = unit[:top + 1]
    total = 2.0 * np.sum(hj * hj, axis=0) - hj[0] * hj[0]  # m and -m, m = 0 once
    for shift in range(count, 2 * top + 1, count):
        rest = max(0, top + 1 - shift)
        tail = np.real(unit[shift:] * np.conj(unit[:rest])) @ (hj[shift:] * hj[:rest])
        lo, hi = max(1, shift - top), min(shift - 1, top)
        pairs = slice(shift - lo, shift - hi - 1, -1)  # s - m for m = lo..hi
        middle = np.real(unit[lo:hi + 1] * np.conj(unit[pairs])) @ (hj[lo:hi + 1] * hj[pairs])
        total += 2.0 * (2.0 * tail + middle) * np.cos(shift * theta)
    return total


def _near_grid_correlation(ctx: WaveContext, data: FieldSamples, grid: SamplingGrid,
                           r: np.ndarray, phi0: float, hankel: np.ndarray) -> np.ndarray:
    """_correlation of near data from receivers at phi_0 + 2 pi j / n on the
    circle of radius R, by Graf's addition theorem (DLMF 10.23.7).

    With y = r e^{i theta}, z = e^{i(theta - phi_0)} and U the DFT of u,
    H0(k|x_j - y|) = sum_m H_m(kR) J_m(kr) e^{im(phi_j - theta)} gives

        inner products  -(i/4) sum_m conj(H_m(kR)) J_m(kr) U_{m mod n} z^m,
        squared norms   (n/16) sum_p |S_p|^2,  S_p = sum_{m = p mod n} H_m J_m z^-m,

    over |m| <= M.  H_-m J_-m = H_m J_m, so only orders m >= 0 are
    evaluated, as |H_m| J_m, which stays finite where |H_m| alone would
    not.  Nodes go in blocks of similar radius, each with the order count
    its largest radius needs.
    """
    u, norm_u = _data_norm(data)
    spectrum = np.fft.fft(u / norm_u)
    count, kr_big = len(spectrum), ctx.k * data.radius
    orders = np.arange(len(hankel))
    size = np.abs(hankel)
    log_h, unit = np.log(size), hankel / size
    lead = -0.25j * np.conj(unit)
    # coefficients of |H_m| J_m z^m and (conjugated) of |H_m| J_m conj(z)^m, m >= 1
    coeffs = np.stack([lead * spectrum[orders % count], np.conj(lead * spectrum[-orders % count])])
    out = np.empty(r.size)
    by_radius = np.argsort(r, kind="stable")
    step = max(1, _GRAF_BLOCK // len(hankel))
    for begin in range(0, r.size, step):
        nodes = by_radius[begin:begin + step]
        top = _graf_order(log_h, ctx.k * r[nodes[-1]], kr_big)
        hj = _miller_jn(top, ctx.k * r[nodes])
        hj *= size[:top + 1, None]
        iy, ix = np.divmod(nodes, grid.shape[1])
        theta = np.arctan2(grid.ys[iy], grid.xs[ix]) - phi0
        z = np.exp(1j * theta)
        acc = np.zeros((2, nodes.size), dtype=complex)
        for m in range(top, 0, -1):  # Horner's rule in z
            acc += coeffs[:, m, None] * hj[m]
            acc *= z
        inner = coeffs[0, 0] * hj[0] + acc[0] + np.conj(acc[1])
        out[nodes] = np.abs(inner) / (0.25 * np.sqrt(count * _aliased_norms(hj, unit, count, theta)))
    return out.reshape(grid.shape)


def _grid_correlation(ctx: WaveContext, data: FieldSamples, grid: SamplingGrid) -> np.ndarray:
    """_correlation at every grid node, without a kernel wherever the
    geometry allows; the dense kernel serves near receivers that are not
    equispaced and near grids reaching past the Graf order cap."""
    if data.kind == "far":
        return _far_grid_correlation(ctx, data, grid)
    r = np.sqrt(grid.xs[None, :] ** 2 + grid.ys[:, None] ** 2).ravel()
    if np.any(r >= data.radius - 1e-12):
        raise EvaluationPointError("sampling point not strictly inside the measurement circle")
    phi0 = _receiver_phase(data)
    hankel = None if phi0 is None else _graf_hankel(ctx.k * data.radius, ctx.k * r.max())
    if hankel is not None:
        return _near_grid_correlation(ctx, data, grid, r, phi0, hankel)
    return _correlation(data, _kernel(ctx, data, grid.nodes())).reshape(grid.shape)


def indicator_grid(ctx: WaveContext, data: FieldSamples, grid: SamplingGrid) -> IndicatorGrid:
    """Evaluate the indicator at every node and rescale so the max is 1."""
    if ctx.dim != 2:
        raise ValueError("imaging is two-dimensional")
    raw = _grid_correlation(ctx, data, grid)
    top = raw.max()
    if top == 0.0:
        raise DegenerateDataError("indicator vanishes on the whole grid")
    return IndicatorGrid(grid=grid, values=raw / top)


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

    indices: np.ndarray  # (m, 2) int rows of (iy, ix), row-major
    points: np.ndarray  # (m, 2) node coordinates
    centroid: np.ndarray  # (2,)
    lo: np.ndarray  # bounding box min corner (x, y)
    hi: np.ndarray  # bounding box max corner (x, y)

    @property
    def size(self) -> int:
        return len(self.indices)


def check_cutoff(cutoff: float) -> None:
    """Raise ValueError unless the superlevel cutoff lies in (0, 1)."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must lie strictly between 0 and 1")


def superlevel_components(grid: IndicatorGrid, cutoff: float):
    """4-connected components of {value >= cutoff}, largest first, ties in
    the row-major order of their first nodes.

    Hook-and-jump connectivity (Shiloach and Vishkin, J. Algorithms 3
    (1982) 57) on the edges between 4-neighbour nodes of the mask, numbered
    row-major: each round hooks the larger root of every edge under the
    smaller one and then points every node at its root's root, until both
    ends of every edge share a root, which is then the first node of their
    component.  A component's indices and points come in row-major order.
    """
    check_cutoff(cutoff)
    mask = grid.values >= cutoff
    iy, ix = np.nonzero(mask)
    number = np.zeros(mask.shape, dtype=np.intp)
    number[mask] = np.arange(iy.size)
    right, down = mask[:, :-1] & mask[:, 1:], mask[:-1] & mask[1:]
    a = np.concatenate([number[:, :-1][right], number[:-1][down]])
    b = np.concatenate([number[:, 1:][right], number[1:][down]])
    root = np.arange(iy.size)
    while True:
        root_a, root_b = root[a], root[b]
        if np.array_equal(root_a, root_b):
            break
        np.minimum.at(root, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        root = root[root]
    sizes = np.unique(root, return_counts=True)[1]
    by_root = np.argsort(root, kind="stable")
    cuts = np.cumsum(sizes)[:-1]
    indices = np.split(np.column_stack([iy, ix])[by_root], cuts)
    points = np.split(np.column_stack([grid.grid.xs[ix], grid.grid.ys[iy]])[by_root], cuts)
    return [Component(indices=indices[c], points=points[c], centroid=points[c].mean(axis=0),
                      lo=points[c].min(axis=0), hi=points[c].max(axis=0))
            for c in np.argsort(-sizes, kind="stable")]
