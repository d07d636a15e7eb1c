"""Helmholtz fundamental solution, its far-field pattern, and the
correlation identity that underpins the sampling indicators.

Conventions (time-harmonic exp(-i omega t), wavenumber k):

* 2D: G(x,y) = (i/4) H0^(1)(k|x-y|)
* 3D: G(x,y) = exp(ik|x-y|) / (4 pi k |x-y|)

The 3D form deliberately carries a 1/k factor so that
Im G = sin(kr)/(4 pi k r) and the correlation constant comes out
dimensionless; all downstream formulas assume this scaling.

Far-field patterns of G (u^s ~ e^{ik|x|}/|x|^{(N-1)/2} u_inf):

* 2D: G_inf(xhat, y) = e^{i pi/4} / sqrt(8 k pi) * exp(-ik xhat.y)
* 3D: G_inf(xhat, y) = 1/(4 pi) * exp(-ik xhat.y)

The key identity: the L2(S^{N-1}) correlation of two far-field kernels
equals C * Im G of the source separation, with C = 1/k in 2D and C = 1
in 3D under the normalizations above.  lemma_sweep checks it on seeded
random point pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import _bessel01

_DIRECTION_TOL = 1e-12
# the largest k r, r the distance from the origin of a receiver, a cell or a
# sampling node: doubles below 2^40 lie at most 2.4e-4 apart, so every
# phase k |x - y| still resolves
MAX_KR = 2.0**40


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber shared by every computation; points carry the dimension."""

    k: float

    def __post_init__(self):
        if not 0 < self.k < np.inf:
            raise ValueError("wavenumber k must be finite and positive")
        if 2.0 * np.pi / float(self.k) == np.inf:
            raise ValueError(f"wavenumber k = {self.k:g} is so small that the wavelength 2 pi / k overflows")

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi / self.k


def check_kr(ctx: WaveContext, r: float, what: str) -> None:
    """Raise ValueError unless k r <= MAX_KR for the distance r that what reaches."""
    kr = float(ctx.k) * float(r)
    if not kr <= MAX_KR:
        raise ValueError(f"{what} reaches k r = {kr:.4g}, beyond the supported 2^40")


def _pairwise_distance(x, y):
    """|x - y| over the last axis, summed one coordinate at a time: no (..., d) array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"points have {x.shape[-1]} and {y.shape[-1]} coordinates")
    total = 0.0
    for i in range(x.shape[-1]):
        total += (x[..., i] - y[..., i]) ** 2
    return np.sqrt(total)


def _dimension(points) -> int:
    """2 or 3, the length of the coordinate axis of points."""
    if np.shape(points)[-1] not in (2, 3):
        raise ValueError(f"points have {np.shape(points)[-1]} coordinates, expected 2 or 3")
    return np.shape(points)[-1]


def _check_direction(xhat, dim):
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape[-1] != dim:
        raise ValueError(f"direction has {xhat.shape[-1]} components, expected {dim}")
    norms = np.sqrt(np.sum(xhat**2, axis=-1))
    if not np.all(np.abs(norms - 1.0) <= _DIRECTION_TOL):  # also rejects nan
        raise ValueError("directions must be unit vectors")
    return xhat


def green(ctx: WaveContext, x, y):
    """Fundamental solution G(x, y); broadcasts over leading axes.

    Raises ValueError when any point pair coincides (the kernel is
    singular there).
    """
    r = _pairwise_distance(x, y)
    if np.any(r == 0.0):
        raise ValueError("green is singular at coincident points")
    kr = ctx.k * np.atleast_1d(r)
    if _dimension(x) == 2:
        val = 0.25j * _bessel01(0, kr)
    else:
        val = np.exp(1j * kr) / (4.0 * np.pi * kr)
    return complex(val[0]) if np.ndim(r) == 0 else val.reshape(np.shape(r))


def green_farfield(ctx: WaveContext, xhat, y):
    """Far-field pattern of G for observation direction(s) xhat and source(s) y."""
    xhat = _check_direction(xhat, _dimension(xhat))
    y = np.asarray(y, dtype=float)
    phase = np.exp(-1j * ctx.k * np.sum(xhat * y, axis=-1))
    if xhat.shape[-1] == 2:
        pref = np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * ctx.k * np.pi)
    else:
        pref = 1.0 / (4.0 * np.pi)
    out = pref * phase
    return complex(out) if np.ndim(out) == 0 else out


def far_angles(count: int) -> np.ndarray:
    """Directions at angles 2 pi j / count on the unit circle."""
    if count < 1:
        raise ValueError("count must be at least 1")
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _sphere_rule(nquad: int):
    """Product quadrature on S^2: Gauss-Legendre in cos(theta), trapezoid in phi."""
    t, wt = np.polynomial.legendre.leggauss(nquad)
    st = np.sqrt(1.0 - t**2)
    dirs = np.empty((nquad * nquad, 3))
    dirs[:, :2] = (st[:, None, None] * far_angles(nquad)).reshape(-1, 2)
    dirs[:, 2] = np.repeat(t, nquad)
    weights = np.repeat(wt, nquad) * (2.0 * np.pi / nquad)
    return dirs, weights


def farfield_correlation(ctx: WaveContext, xj, xp, nquad: int = 512):
    """Numerically integrate G_inf(., xj) conj(G_inf(., xp)) over S^{N-1}, N = len(xj).

    nquad is the node count of the periodic trapezoid rule in 2D, or the
    per-factor count of the product rule in 3D.  Accuracy is the
    caller's concern; small nquad simply under-resolves the integrand.
    """
    if nquad < 16:
        raise ValueError("nquad must be at least 16")
    if _dimension(xj) == 2:
        dirs = far_angles(nquad)
        weights = np.full(nquad, 2.0 * np.pi / nquad)
    else:
        dirs, weights = _sphere_rule(nquad)
    vals = green_farfield(ctx, dirs, np.asarray(xj, float)) * np.conj(
        green_farfield(ctx, dirs, np.asarray(xp, float))
    )
    return complex(np.sum(weights * vals))


def lemma_constant(ctx: WaveContext, dim: int) -> float:
    """Constant C with correlation = C * Im G in dimension dim.

    Closed forms, confirmed by the coincidence limit of the correlation
    integral: 2D gives (2 pi / (8 k pi)) / (1/4) = 1/k, 3D gives
    (4 pi / (16 pi^2)) / (1/(4 pi)) = 1.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    return 1.0 / ctx.k if dim == 2 else 1.0


@dataclass(frozen=True)
class LemmaSweepReport:
    """Per-pair identity errors for one quadrature resolution."""

    separations: np.ndarray
    errors: np.ndarray
    nquad: int

    @property
    def max_error(self) -> float:
        return float(np.max(self.errors))


def lemma_sweep(ctx: WaveContext, dim: int, rmax: float, npairs: int, nquad: int,
                seed: int = 0) -> LemmaSweepReport:
    """Check correlation = C Im G on seeded random dim-D pairs with |xj-xp| <= rmax.

    Under-resolved quadrature is reported, not raised: the caller reads
    max_error and judges it against their tolerance.
    """
    if npairs < 1:
        raise ValueError("npairs must be at least 1")
    rng = np.random.default_rng(seed)
    const = lemma_constant(ctx, dim)
    anchors = rng.uniform(-1.0, 1.0, size=(npairs, dim))
    dirs = rng.normal(size=(npairs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    seps = rng.uniform(1e-3 * rmax, rmax, size=npairs)
    errors = np.empty(npairs)
    for i in range(npairs):
        xj = anchors[i]
        xp = anchors[i] + seps[i] * dirs[i]
        corr = farfield_correlation(ctx, xj, xp, nquad=nquad)
        errors[i] = abs(corr - const * np.imag(green(ctx, xj, xp)))
    return LemmaSweepReport(separations=seps, errors=errors, nquad=nquad)
