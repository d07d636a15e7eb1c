"""Benchmark scenario presets.

Seven standard configurations (ex1..ex7) used throughout the docs and
the acceptance suite, from a lone 0.02-wavelength square through mixed
obstacle/medium pairs to thin cracks.  Lengths are in wavelengths; the
default incident direction is (1,1)/sqrt(2).

Conventions fixed here (the presets are the source of truth for them):

* obstacles are realized as strongly absorbing media, n^2 = 1 + 50i
* the L-shaped crack of total length 2 is two orthogonal bars of length
  1 and thickness 0.1 with the corner at the domain center and arms
  along +x and +y
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import ShapeSpec, contains
from .kernels import _check_direction

__all__ = ["Scenario", "build", "contains", "SCENARIO_NAMES"]

_D1 = (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
_D2 = (1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0))

SCENARIO_NAMES = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7")


@dataclass(frozen=True)
class Scenario:
    """A scatterer configuration plus measurement protocol parameters."""

    name: str
    shapes: tuple
    incidents: np.ndarray  # (m, 2)
    truth_centers: tuple = ()

    def __post_init__(self):
        if not self.shapes:
            raise ValueError("scenario needs at least one shape")
        incidents = np.atleast_2d(np.asarray(self.incidents, dtype=float))
        object.__setattr__(self, "incidents", _check_direction(incidents, 2))
        object.__setattr__(self, "shapes", tuple(self.shapes))

    def in_support(self, x):
        """True where x lies inside some shape of the scatterer."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        hit = np.zeros(len(pts), dtype=bool)
        for s in self.shapes:
            hit |= contains(s, pts)
        return bool(hit[0]) if np.asarray(x).ndim == 1 else hit


def _square(center, side, **mat):
    return ShapeSpec(kind="square", center=center, side=side, **mat)


_VARIANTS = {
    "ex1": (),
    "ex2": (),
    "ex3": ("close",),
    "ex4": (),
    "ex5": ("high-contrast",),
    "ex6": (),
    "ex7": ("two-incident",),
}


def build(name: str, variant: str | None = None) -> Scenario:
    """Construct a preset scenario by id, optionally in a named variant."""
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    if variant is not None and variant not in _VARIANTS[name]:
        raise ValueError(f"scenario {name} has no variant {variant!r}")

    if name == "ex1":
        shapes = (_square((0.0, 0.0), 0.02, eta=1.0),)
        return Scenario(name, shapes, [_D1], truth_centers=((0.0, 0.0),))

    if name == "ex2":
        centers = ((-0.8, -0.7), (0.3, 0.8))
        shapes = tuple(_square(c, 0.3, eta=1.0) for c in centers)
        return Scenario(name, shapes, [_D1], truth_centers=centers)

    if name == "ex3":
        centers = ((-0.1, 0.0), (0.1, 0.0)) if variant == "close" else ((-0.25, 0.0), (0.25, 0.0))
        shapes = tuple(_square(c, 0.3, eta=1.0) for c in centers)
        return Scenario(name, shapes, [_D1], truth_centers=centers)

    if name == "ex4":
        shapes = (ShapeSpec(kind="ring", center=(0.0, 0.0), outer_side=0.6,
                            inner_side=0.4, eta=1.0),)
        return Scenario(name, shapes, [_D1, _D2], truth_centers=((0.0, 0.0),))

    if name == "ex5":
        medium_mat = {"nsq": 10.0 + 10.0j} if variant == "high-contrast" else {"eta": 1.0}
        shapes = (
            _square((-0.8, -0.7), 0.3, nsq=1.0 + 50.0j),  # absorbing obstacle
            _square((0.3, 0.8), 0.3, **medium_mat),
        )
        return Scenario(name, shapes, [_D1], truth_centers=((-0.8, -0.7), (0.3, 0.8)))

    if name == "ex6":
        shapes = (ShapeSpec(kind="bar", center=(0.0, 0.0), length=1.0,
                            thickness=0.1, eta=1.0),)
        return Scenario(name, shapes, [(1.0, 0.0)], truth_centers=((0.0, 0.0),))

    # ex7: L-shaped crack, arms along +x and +y from the corner at the origin
    shapes = (
        ShapeSpec(kind="bar", center=(0.5, 0.0), length=1.0, thickness=0.1, eta=1.0),
        ShapeSpec(kind="bar", center=(0.0, 0.5), length=1.0, thickness=0.1,
                  angle=np.pi / 2.0, eta=1.0),
    )
    incidents = [_D1, _D2] if variant == "two-incident" else [_D2]
    return Scenario(name, shapes, incidents, truth_centers=((0.5, 0.0), (0.0, 0.5)))
