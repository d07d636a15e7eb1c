"""Measurement geometries and the additive noise protocol.

Each ``FieldSamples`` decides its receiver layout once: the radius R of
its circle and, when the samples sit at phi_0 + 2 pi j / n to within
1e-14 R, the phase phi_0.  Imaging reads both and works neither out again.

Noise model: u_noisy = u + epsilon * zeta_j * max_j |u_j| where the real
and imaginary parts of zeta_j are independent standard normal draws.

The generator is counter based so that the draw for sample j is a pure
function of (seed, stream, j): counter n maps through the SplitMix64
finalizer to a 64-bit word, the top 53 bits give a uniform in (0, 1),
and pairs of uniforms feed the Box-Muller transform.  Sample j consumes
counters 2j and 2j+1 within its stream; streams are disjoint counter
blocks of 2^33.  No generator state is carried between calls, so
results do not depend on evaluation order or batch size, and the near
and far data of one experiment (streams 1 and 0) get independent noise
under a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import _check_direction, far_angles

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class FieldSamples:
    """Scattered-field samples on a measurement circle (near) or on the
    unit circle of observation directions (far)."""

    kind: str
    locations: np.ndarray  # (n, 2)
    values: np.ndarray  # (n,) complex
    incident: np.ndarray  # (2,)
    radius: float = field(init=False)  # R, 1 for far directions
    phase: float | None = field(init=False)  # phi_0 of equispaced samples, else None

    def __post_init__(self):
        if self.kind not in ("near", "far"):
            raise ValueError(f"kind must be 'near' or 'far', got {self.kind!r}")
        locations = np.asarray(self.locations, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if locations.ndim != 2 or locations.shape[1] != 2:
            raise ValueError("locations must be an (n, 2) array")
        if len(locations) != len(values):
            raise ValueError("locations and values must have equal length")
        if len(values) == 0:
            raise ValueError("samples must be nonempty")
        if not (np.all(np.isfinite(locations)) and np.all(np.isfinite(values))):
            raise ValueError("sample locations and values must be finite")
        radii = np.hypot(locations[:, 0], locations[:, 1])
        radius = 1.0 if self.kind == "far" else float(radii[0])  # all radii within 1e-12 relative
        if np.max(np.abs(radii - radius)) > 1e-12 * radius:
            raise ValueError("far locations must be unit directions" if self.kind == "far"
                             else "near locations must lie on one circle")
        phi0 = float(np.arctan2(locations[0, 1], locations[0, 0]))
        phi = phi0 + 2.0 * np.pi * np.arange(len(values)) / len(values)
        ideal = radius * np.column_stack([np.cos(phi), np.sin(phi)])
        equispaced = np.max(np.abs(locations - ideal)) <= 1e-14 * radius
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "incident", _check_direction(np.asarray(self.incident, dtype=float), 2))
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "phase", phi0 if equispaced else None)


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and generator seed."""

    epsilon: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


def near_circle_geometry(radius: float, count: int) -> np.ndarray:
    """Measurement points at angles 2 pi j / count on the radius circle."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return radius * far_angles(count)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    # numpy warns on scalar (not array) unsigned overflow, so mix the
    # seed through a one-element array
    base = _mix64(np.full(1, seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
    words = _mix64(base + (counters + np.uint64(1)) * _GOLDEN)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normal_complex_draws(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """zeta_j = g1 + i g2 for j = 0..count-1, a pure function of (seed, stream, j)."""
    counters = np.uint64(stream) * np.uint64(2**33) + np.arange(2 * count, dtype=np.uint64)
    u = _uniforms(seed, counters)
    u1, u2 = u[0::2], u[1::2]
    rho = np.sqrt(-2.0 * np.log(u1))
    return rho * np.cos(2.0 * np.pi * u2) + 1j * rho * np.sin(2.0 * np.pi * u2)


_KIND_STREAM = {"far": 0, "near": 1}


def add_noise(samples: FieldSamples, spec: NoiseSpec) -> FieldSamples:
    """Return a noisy copy of the samples; the input is left unchanged.

    The stream choice keeps near and far noise independent even when the
    two data sets of one experiment share a seed.
    """
    zeta = normal_complex_draws(spec.seed, len(samples.values), stream=_KIND_STREAM[samples.kind])
    scale = spec.epsilon * np.max(np.abs(samples.values))
    return replace(samples, values=samples.values + scale * zeta)
