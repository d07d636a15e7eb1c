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


def _square(center, side=0.3, **mat):
    return ShapeSpec(kind="square", center=center, side=side, **mat)


def _bar(center, angle=0.0):
    return ShapeSpec(kind="bar", center=center, length=1.0, thickness=0.1, angle=angle, eta=1.0)


def _lit(centers):
    """A row: 0.3-side eta = 1 squares at centers, lit from _D1, the centers as truth."""
    return tuple(_square(c, eta=1.0) for c in centers), (_D1,), centers


_PENETRABLE, _, _PAIR = _lit(((-0.8, -0.7), (0.3, 0.8)))  # ex2; ex5 reuses the pair
_ABSORBER = _square(_PAIR[0], nsq=1.0 + 50.0j)  # ex5's obstacle
# ex7: L-shaped crack, arms along +x and +y from the corner at the origin
_L_CRACK = (_bar((0.5, 0.0)), _bar((0.0, 0.5), angle=np.pi / 2.0))
_L_CENTERS = ((0.5, 0.0), (0.0, 0.5))

# every preset: (name, variant or None) -> (shapes, incidents, truth centers)
_PRESETS = {
    ("ex1", None): ((_square((0.0, 0.0), 0.02, eta=1.0),), (_D1,), ((0.0, 0.0),)),
    ("ex2", None): (_PENETRABLE, (_D1,), _PAIR),
    ("ex3", None): _lit(((-0.25, 0.0), (0.25, 0.0))),
    ("ex3", "close"): _lit(((-0.1, 0.0), (0.1, 0.0))),
    ("ex4", None): ((ShapeSpec(kind="ring", center=(0.0, 0.0), outer_side=0.6,
                               inner_side=0.4, eta=1.0),), (_D1, _D2), ((0.0, 0.0),)),
    ("ex5", None): ((_ABSORBER, _PENETRABLE[1]), (_D1,), _PAIR),
    ("ex5", "high-contrast"): ((_ABSORBER, _square(_PAIR[1], nsq=10.0 + 10.0j)), (_D1,), _PAIR),
    ("ex6", None): ((_bar((0.0, 0.0)),), ((1.0, 0.0),), ((0.0, 0.0),)),
    ("ex7", None): (_L_CRACK, (_D2,), _L_CENTERS),
    ("ex7", "two-incident"): (_L_CRACK, (_D1, _D2), _L_CENTERS),
}

SCENARIO_NAMES = tuple(dict.fromkeys(name for name, _ in _PRESETS))


def build(name: str, variant: str | None = None) -> Scenario:
    """Construct a preset scenario by id, optionally in a named variant."""
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    if (name, variant) not in _PRESETS:
        raise ValueError(f"scenario {name} has no variant {variant!r}")
    return Scenario(name, *_PRESETS[name, variant])
