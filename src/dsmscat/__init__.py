"""Direct sampling imaging of time-harmonic acoustic scatterers.

Forward simulation of scattering from penetrable (and absorbing
obstacle-like) media, near- and far-field measurement protocols with
reproducible noise, and the normalized correlation indicators that
image scatterer supports from a single incident wave or a few.
"""

from .errors import (
    ConfigError,
    DegenerateDataError,
    DiscretizationError,
    EvaluationPointError,
    SolverError,
)
from .forward import (
    CellGrid,
    InducedCurrent,
    RingCauchyData,
    ShapeSpec,
    contains,
    discretize,
    disk_series_farfield,
    near_to_far_simpson,
    ring_cauchy,
    ring_quadrature_weights,
    scattered_far,
    scattered_near,
    solve_lippmann_schwinger,
)
from .indicators import (
    Component,
    IndicatorGrid,
    SamplingGrid,
    combine_max,
    indicator_grid,
    indicator_values,
    superlevel_components,
)
from .kernels import (
    LemmaSweepReport,
    WaveContext,
    far_angles,
    farfield_correlation,
    green,
    green_farfield,
    lemma_constant,
    lemma_sweep,
)
from .measurement import (
    FieldSamples,
    NoiseSpec,
    add_noise,
    near_circle_geometry,
    normal_complex_draws,
)
from .scenarios import SCENARIO_NAMES, Scenario, build

__version__ = "0.1.0"

__all__ = [
    "CellGrid",
    "Component",
    "ConfigError",
    "DegenerateDataError",
    "DiscretizationError",
    "EvaluationPointError",
    "FieldSamples",
    "IndicatorGrid",
    "InducedCurrent",
    "LemmaSweepReport",
    "NoiseSpec",
    "RingCauchyData",
    "SCENARIO_NAMES",
    "SamplingGrid",
    "Scenario",
    "ShapeSpec",
    "SolverError",
    "WaveContext",
    "add_noise",
    "build",
    "combine_max",
    "contains",
    "discretize",
    "disk_series_farfield",
    "far_angles",
    "farfield_correlation",
    "green",
    "green_farfield",
    "indicator_grid",
    "indicator_values",
    "lemma_constant",
    "lemma_sweep",
    "near_circle_geometry",
    "near_to_far_simpson",
    "normal_complex_draws",
    "ring_cauchy",
    "ring_quadrature_weights",
    "scattered_far",
    "scattered_near",
    "solve_lippmann_schwinger",
    "superlevel_components",
]
