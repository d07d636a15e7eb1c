"""Forward scattering models.

Media are described by shapes carrying a contrast eta (or refractive
index n^2 with eta = (n^2 - 1) k^2).  Sound-hard/soft obstacles are not
solved with boundary integral equations; they are emulated by a highly
absorbing medium (large Im n^2), which converges to the obstacle answer
as the absorption grows.

The scattered field solves u = u_inc + integral G eta u over the
scatterer support; we collocate on a uniform cell lattice and solve the
dense system directly, which is comfortably fast at the benchmark cell
counts (a few hundred to a few thousand cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationError, EvaluationPointError, SolverError
from .kernels import WaveContext, check_kr, green, green_farfield, _check_direction, _pairwise_distance
from .special import _miller_jn, _upward_rows, hankel1

MAX_CELLS = 5000
# lattice points discretize lays before it keeps the cells inside the
# shapes: 2^22, a 2048 x 2048 square, so shapes about 40 wavelengths apart
# at lambda/50; a synthesize run at the bound peaks at 326 MiB resident
MAX_LATTICE_POINTS = 1 << 22

# geometry fields of each shape kind, in the order a config ``shape`` line
# gives them; all are positive lengths except the bar's angle
SHAPE_FIELDS = {
    "square": ("side",),
    "disk": ("radius",),
    "ring": ("outer_side", "inner_side"),
    "bar": ("length", "thickness", "angle"),
}


@dataclass(frozen=True)
class ShapeSpec:
    """One shape of the scatterer, with its material coefficient.

    kind and geometry parameters (all lengths in wavelength units):

    * "square": axis-aligned, ``side`` wide, centered at ``center``
    * "ring": square annulus between ``inner_side`` and ``outer_side``
    * "bar": rectangle of ``length`` x ``thickness`` rotated by ``angle``
      radians about its center (used for cracks)
    * "disk": circle of ``radius``

    Exactly one of ``eta`` / ``nsq`` must be given, and every number must
    be finite.
    """

    kind: str
    center: tuple
    side: float | None = None
    outer_side: float | None = None
    inner_side: float | None = None
    length: float | None = None
    thickness: float | None = None
    angle: float = 0.0
    radius: float | None = None
    eta: complex | None = None
    nsq: complex | None = None

    def __post_init__(self):
        if (self.eta is None) == (self.nsq is None):
            raise ValueError("exactly one of eta / nsq must be set")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.kind not in SHAPE_FIELDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        material = self.eta if self.nsq is None else self.nsq
        if not np.all(np.isfinite([*self.center, self.angle, material])):
            raise ValueError("shape center, angle and eta / nsq must be finite")
        for name in SHAPE_FIELDS[self.kind]:
            v = getattr(self, name)
            if name != "angle" and (v is None or not 0 < v < np.inf):
                raise ValueError(f"{self.kind} needs a finite positive {name}")
        if self.kind == "ring" and not self.inner_side < self.outer_side:
            raise ValueError("ring needs inner_side < outer_side")
        if self.kind == "bar" and not self.thickness < self.length:
            raise ValueError("bar needs thickness < length")

    def eta_value(self, ctx: WaveContext) -> complex:
        if self.eta is not None:
            return complex(self.eta)
        return (complex(self.nsq) - 1.0) * ctx.k**2

    def _rect(self):
        """(half_u, half_v, angle) of the outer rectangle of a square, ring or bar."""
        if self.kind == "bar":
            return self.length / 2.0, self.thickness / 2.0, self.angle
        half = (self.side if self.kind == "square" else self.outer_side) / 2.0
        return half, half, 0.0

    def area(self) -> float:
        if self.kind == "disk":
            return np.pi * self.radius**2
        half_u, half_v, _ = self._rect()
        return 4.0 * half_u * half_v - (self.inner_side**2 if self.kind == "ring" else 0.0)

    def bounding_box(self):
        c = np.asarray(self.center)
        if self.kind == "disk":
            r = np.array([self.radius, self.radius])
        else:
            half_u, half_v, angle = self._rect()
            ca, sa = abs(np.cos(angle)), abs(np.sin(angle))
            r = np.array([half_u * ca + half_v * sa, half_u * sa + half_v * ca])
        return c - r, c + r


def _in_rect(pts, half_u, half_v, angle):
    """Centered pts in [-half_u, half_u) x [-half_v, half_v) of the frame rotated by angle."""
    ca, sa = np.cos(angle), np.sin(angle)
    u = pts[:, 0] * ca + pts[:, 1] * sa
    v = -pts[:, 0] * sa + pts[:, 1] * ca
    return (u >= -half_u) & (u < half_u) & (v >= -half_v) & (v < half_v)


def contains(shape: ShapeSpec, x) -> bool | np.ndarray:
    """Point-in-shape test; half-open on the max edges so lattice points
    land in exactly one cell across shared boundaries."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts) - np.asarray(shape.center)
    if shape.kind == "disk":
        ok = np.hypot(pts[:, 0], pts[:, 1]) < shape.radius
    else:
        ok = _in_rect(pts, *shape._rect())
        if shape.kind == "ring":
            ok &= ~_in_rect(pts, shape.inner_side / 2.0, shape.inner_side / 2.0, 0.0)
    return bool(ok[0]) if single else ok


@dataclass(frozen=True)
class CellGrid:
    """Uniform square cells covering the scatterer support."""

    centers: np.ndarray  # (n, 2)
    eta: np.ndarray  # (n,) complex
    h_fwd: float  # every cell's side, so its area is h_fwd * h_fwd

    def __len__(self):
        return len(self.centers)


def discretize(ctx: WaveContext, shapes, h_fwd: float) -> CellGrid:
    """Lay a pixel lattice of pitch h_fwd over the union bounding box and
    keep the cells whose centers fall inside some shape.

    The lattice is anchored at the bounding-box corner with cell centers
    at corner + (j + 1/2) h_fwd, so a shape centered on the lattice gets
    a cell exactly at its center.  When several shapes contain a center,
    the smallest-area (innermost) shape supplies the coefficient.
    """
    if not shapes:
        raise DiscretizationError("no shapes given")
    if not (0 < h_fwd <= ctx.wavelength / 10.0):
        raise ValueError("h_fwd must satisfy 0 < h_fwd <= lambda/10")
    los, his = zip(*(s.bounding_box() for s in shapes))
    lo = np.min(los, axis=0)
    hi = np.max(his, axis=0)
    with np.errstate(over="ignore"):  # an infinite count is refused below, before any cast
        extent = hi - lo
        counts = np.maximum(np.ceil(extent / h_fwd - 1e-12), 1.0)
    if not float(counts[0]) * float(counts[1]) <= MAX_LATTICE_POINTS:
        raise DiscretizationError(
            f"the cell lattice of pitch {h_fwd:.3g} over the shapes' {extent[0]:.3g} x "
            f"{extent[1]:.3g} bounding box would hold {counts[0]:.4g} x {counts[1]:.4g} points, "
            f"above the supported {MAX_LATTICE_POINTS}")
    check_kr(ctx, np.hypot(*np.max(np.abs([lo, hi]), axis=0)), "the shapes' bounding box")
    counts = counts.astype(int)
    xs = lo[0] + (np.arange(counts[0]) + 0.5) * h_fwd
    ys = lo[1] + (np.arange(counts[1]) + 0.5) * h_fwd
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    order = sorted(range(len(shapes)), key=lambda i: shapes[i].area(), reverse=True)
    eta = np.zeros(len(pts), dtype=complex)
    hit = np.zeros(len(pts), dtype=bool)
    for i in order:  # smaller shapes assign last, so innermost wins
        value = shapes[i].eta_value(ctx)
        if not np.isfinite(value):
            raise DiscretizationError(
                f"shape {i} ({shapes[i].kind}) has a non-finite contrast {value} at k = {ctx.k:g}")
        m = contains(shapes[i], pts)
        eta[m] = value
        hit |= m
    if not np.any(hit):
        raise DiscretizationError(
            f"no cell center falls inside any shape: the cell pitch {h_fwd:.3g} "
            f"(wavelength {ctx.wavelength:.3g}) exceeds the shapes")
    if np.all(eta[hit] == 0):
        raise DiscretizationError("all shapes have zero contrast (no scatterer)")
    return CellGrid(centers=pts[hit], eta=eta[hit], h_fwd=h_fwd)


@dataclass(frozen=True)
class InducedCurrent:
    """Solution of the collocation system: the total field u on the cells."""

    total_field: np.ndarray  # (n,) complex, u(x_j)
    grid: CellGrid

    @property
    def sources(self) -> np.ndarray:
        """eta_j u(x_j) h_fwd^2, the point sources that radiate u^s."""
        return self.grid.eta * self.total_field * (self.grid.h_fwd * self.grid.h_fwd)


def _self_term(ctx: WaveContext, h_fwd: float) -> complex:
    # analytic integral of G over the disk of equal area, radius R = h/sqrt(pi):
    # (i/4) [ (2 pi R / k) H1(kR) + 4i/k^2 ]
    big_r = h_fwd / np.sqrt(np.pi)
    k = ctx.k
    return 0.25j * ((2.0 * np.pi * big_r / k) * hankel1(1, k * big_r) + 4.0j / k**2)


def solve_lippmann_schwinger(ctx: WaveContext, grid: CellGrid, d) -> InducedCurrent:
    """Solve the scattering collocation system for incident direction d."""
    n = len(grid)
    if n == 0:
        raise DiscretizationError("empty cell grid")
    if n > MAX_CELLS:
        raise ValueError(f"cell count {n} exceeds the supported {MAX_CELLS}")
    d = _check_direction(np.asarray(d, dtype=float), 2)

    # I - A diag(eta), built in the one n x n array that first holds r
    system = _pairwise_distance(grid.centers[:, None, :], grid.centers[None, :, :])
    np.fill_diagonal(system, 1.0)  # placeholder, overwritten below
    system = hankel1(0, ctx.k * system)
    system *= 0.25j
    system *= grid.h_fwd * grid.h_fwd
    np.fill_diagonal(system, _self_term(ctx, grid.h_fwd))
    system *= -grid.eta
    system.flat[::n + 1] += 1.0

    u_inc = np.exp(1j * ctx.k * grid.centers @ d)
    try:
        u = np.linalg.solve(system, u_inc)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(system)
        raise SolverError(f"collocation system is singular (cond ~ {cond:.3e})") from exc
    residual = np.linalg.norm(system @ u - u_inc) / np.linalg.norm(u_inc)
    if not np.isfinite(residual) or residual > 1e-6:
        cond = np.linalg.cond(system)
        raise SolverError(
            f"collocation solve unreliable: residual {residual:.3e}, cond ~ {cond:.3e}"
        )
    return InducedCurrent(total_field=u, grid=grid)


def _radiate(kernel, ctx: WaveContext, current: InducedCurrent, points):
    """sum_j kernel(p, y_j) times the cell sources, at one point p or each row of points."""
    pts = np.asarray(points, dtype=float)
    vals = kernel(ctx, np.atleast_2d(pts)[:, None, :], current.grid.centers[None, :, :]) @ current.sources
    return complex(vals[0]) if pts.ndim == 1 else vals


def scattered_near(ctx: WaveContext, current: InducedCurrent, x):
    """Scattered field at point(s) x outside the scatterer support."""
    grid = current.grid
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if np.any(_pairwise_distance(pts[:, None, :], grid.centers[None, :, :]) <= grid.h_fwd / 2.0):
        raise EvaluationPointError("evaluation point inside the scatterer support")
    return _radiate(green, ctx, current, x)


def scattered_far(ctx: WaveContext, current: InducedCurrent, xhat):
    """Far-field pattern at observation direction(s) xhat."""
    return _radiate(green_farfield, ctx, current, xhat)


def disk_series_farfield(ctx: WaveContext, radius: float, nsq, d, angles):
    """Partial-wave far field of a penetrable disk (analytic oracle).

    The disk is centered at the origin with constant index n^2 inside.
    Only real n^2 > 0 is supported (complex indices would need
    complex-argument Bessel functions, which this package does not
    provide).  Output follows u^s ~ e^{ik r}/sqrt(r) u_inf.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    nsq = complex(nsq)
    if nsq.imag != 0 or nsq.real <= 0:
        raise ValueError("disk series needs real n^2 > 0 (series would not converge)")
    nsq = nsq.real
    d = _check_direction(np.asarray(d, dtype=float), 2)
    single = np.asarray(angles).ndim == 1
    dirs = np.atleast_2d(np.asarray(angles, dtype=float))
    dirs = _check_direction(dirs, 2)

    k = ctx.k
    k1 = k * np.sqrt(nsq)
    m_max = int(np.ceil(k * radius)) + 20
    ka, k1a = k * radius, k1 * radius

    # J_0..J_{m_max+1} at both interface arguments from one sweep, and
    # f'_m = (f_{m-1} - f_{m+1}) / 2 with f_{-1} = -f_1 for every derivative
    j_ka, j_k1a = _miller_jn(m_max + 1, np.array([ka, k1a])).T
    h_ka = j_ka + 1j * _upward_rows(m_max + 1, ka).imag
    jp_ka, jp_k1a, hp_ka = (0.5 * (np.concatenate([-f[1:2], f[:-2]]) - f[1:])
                            for f in (j_ka, j_k1a, h_ka))
    j_ka, j_k1a, h_ka = j_ka[:-1], j_k1a[:-1], h_ka[:-1]
    num = k1 * jp_k1a * j_ka - k * jp_ka * j_k1a
    den = k * hp_ka * j_k1a - k1 * jp_k1a * h_ka
    coeffs = num / den
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("partial-wave series did not converge")

    cos_phi = np.clip(dirs @ d, -1.0, 1.0)
    phi = np.arccos(cos_phi)
    orders = np.arange(1, m_max + 1)
    series = coeffs[0] + 2.0 * np.cos(np.outer(phi, orders)) @ coeffs[1:]
    out = np.sqrt(2.0 / (np.pi * k)) * np.exp(-1j * np.pi / 4.0) * series
    return complex(out[0]) if single else out


@dataclass(frozen=True)
class RingCauchyData:
    """u^s and its radial derivative sampled on a measurement circle.

    The node layout is theta_j = 2 pi j / (count-1), j = 0..count-1, so the
    last node repeats the first; the ring quadrature expects exactly that.
    """

    points: np.ndarray  # (count, 2)
    values: np.ndarray  # (count,) complex
    normal_derivs: np.ndarray  # (count,) complex
    radius: float


def ring_cauchy(ctx: WaveContext, current: InducedCurrent,
                radius: float = 5.0, count: int = 51) -> RingCauchyData:
    """Evaluate scattered Cauchy data (value and radial derivative) on a circle."""
    grid = current.grid
    theta = 2.0 * np.pi * np.arange(count) / (count - 1)
    nu = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = radius * nu
    values = scattered_near(ctx, current, pts)
    dist = _pairwise_distance(pts[:, None, :], grid.centers[None, :, :])
    # d/dnu (i/4) H0(k r) = -(ik/4) H1(k r) * ((x - y) . nu)/r, with (x - y) . nu = R - nu . y
    proj = (radius - nu @ grid.centers.T) / dist
    derivs = (-0.25j * ctx.k * hankel1(1, ctx.k * dist) * proj) @ current.sources
    return RingCauchyData(points=pts, values=values, normal_derivs=derivs, radius=radius)


def ring_quadrature_weights() -> np.ndarray:
    """The 51-node composite Simpson weights (pi/15) (1,4,2,...,2,4,1).

    They integrate a constant exactly: sum of weights = 10 pi, the arc
    length of the radius-5 circle.
    """
    w = np.zeros(51)
    w[0:-1:2] += 1.0
    w[1::2] += 4.0
    w[2::2] += 1.0
    return w * (np.pi / 15.0)


def near_to_far_simpson(ctx: WaveContext, ring: RingCauchyData, directions):
    """Transform ring Cauchy data to far-field values by the fixed
    51-node composite Simpson rule.

    The integrand is the Kirchhoff-Helmholtz representation of the far
    field: gamma_2 e^{-ik xhat.y} [(-ik xhat.nu) u^s - du^s/dnu] with
    gamma_2 = e^{i pi/4}/sqrt(8 k pi).
    """
    if len(ring.values) != 51 or len(ring.points) != 51:
        raise ValueError("the ring rule is defined for exactly 51 nodes")
    if ring.radius != 5.0:
        raise ValueError(f"the ring rule is defined for radius 5 only, got radius {ring.radius:g}")
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    dirs = _check_direction(dirs, 2)
    nu = ring.points / ring.radius
    gamma2 = np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * ctx.k * np.pi)
    phase = np.exp(-1j * ctx.k * dirs @ ring.points.T)  # (ndir, 51)
    angular = (-1j * ctx.k) * (dirs @ nu.T)
    integrand = gamma2 * phase * (angular * ring.values[None, :] - ring.normal_derivs[None, :])
    vals = integrand @ ring_quadrature_weights()
    return vals if np.ndim(directions) > 1 else complex(vals[0])
