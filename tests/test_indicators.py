import numpy as np
import pytest

from dsmscat.errors import DegenerateDataError, EvaluationPointError
from dsmscat.indicators import (
    IndicatorGrid,
    SamplingGrid,
    combine_max,
    indicator_grid,
    indicator_values,
    superlevel_components,
)
from dsmscat.kernels import WaveContext, green, green_farfield
from dsmscat.measurement import FieldSamples, far_angles, near_circle_geometry
from dsmscat.special import bessel_j

CTX = WaveContext(k=2.0 * np.pi)
D1 = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _far_point_source(z, count=50):
    dirs = far_angles(count)
    values = green_farfield(CTX, dirs, np.asarray(z, dtype=float))
    return FieldSamples(kind="far", locations=dirs, values=values, incident=D1)


def _near_point_source(z, count=50, radius=4.0):
    pts = near_circle_geometry(CTX, radius, count)
    values = green(CTX, pts, np.asarray(z, dtype=float))
    return FieldSamples(kind="near", locations=pts, values=values, incident=D1)


def test_sampling_grid_defaults():
    g = SamplingGrid()
    assert g.shape == (401, 401)
    nodes = g.nodes()
    assert nodes.shape == (160801, 2)
    np.testing.assert_allclose(nodes[0], [-2.0, -2.0], atol=1e-15)
    np.testing.assert_allclose(nodes[-1], [2.0, 2.0], atol=1e-12)
    assert nodes[:, 0].min() >= g.xmin and nodes[:, 0].max() <= g.xmax + 1e-12
    # row-major: x varies fastest
    assert nodes[1, 0] > nodes[0, 0] and nodes[1, 1] == nodes[0, 1]


def test_sampling_grid_validation():
    with pytest.raises(ValueError):
        SamplingGrid(xmin=1.0, xmax=-1.0)
    with pytest.raises(ValueError):
        SamplingGrid(h=0.0)
    with pytest.raises(ValueError):
        SamplingGrid(xmax=np.inf)
    tiny = SamplingGrid(xmin=0.0, xmax=0.5, ymin=0.0, ymax=0.5, h=1.0)
    assert tiny.shape == (1, 1)


def test_indicator_grid_validation():
    g = SamplingGrid(xmin=0, xmax=1, ymin=0, ymax=1, h=0.5)
    with pytest.raises(ValueError):
        IndicatorGrid(grid=g, values=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        IndicatorGrid(grid=g, values=2.0 * np.ones(g.shape))
    with pytest.raises(ValueError):
        IndicatorGrid(grid=g, values=np.full(g.shape, np.nan))


def test_far_indicator_collinear_data_peaks_at_one():
    z = np.array([0.3, -0.2])
    data = _far_point_source(z)
    assert indicator_values(CTX, data, z) == pytest.approx(1.0, abs=1e-12)


def test_far_indicator_follows_bessel_law():
    # for exact point-source data the indicator equals |J0(k r)| up to
    # the 50-angle quadrature error
    z = np.array([0.3, -0.2])
    data = _far_point_source(z)
    first_zero = 2.404825557695773 / CTX.k
    assert indicator_values(CTX, data, z + [first_zero, 0.0]) == pytest.approx(0.0, abs=0.02)
    rng = np.random.default_rng(5)
    for _ in range(20):
        offset = rng.uniform(-1.0, 1.0, size=2)
        r = np.hypot(*offset)
        if r > 1.0:
            continue
        val = indicator_values(CTX, data, z + offset)
        assert abs(val - abs(bessel_j(0, CTX.k * r))) < 0.02


def test_near_indicator_collinear_data_and_domain():
    z = np.array([-0.4, 0.1])
    data = _near_point_source(z)
    assert indicator_values(CTX, data, z) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EvaluationPointError):
        indicator_values(CTX, data, np.array([4.5, 0.0]))
    with pytest.raises(EvaluationPointError):
        indicator_values(CTX, data, np.array([4.0, 0.0]))


def test_indicators_reject_zero_data():
    dirs = far_angles(50)
    zero_far = FieldSamples(kind="far", locations=dirs, values=np.zeros(50), incident=D1)
    with pytest.raises(DegenerateDataError):
        indicator_values(CTX, zero_far, np.zeros(2))
    pts = near_circle_geometry(CTX, 4.0, 50)
    zero_near = FieldSamples(kind="near", locations=pts, values=np.zeros(50), incident=D1)
    with pytest.raises(DegenerateDataError):
        indicator_values(CTX, zero_near, np.zeros(2))
    grid = SamplingGrid(xmin=-1, xmax=1, ymin=-1, ymax=1, h=0.5)
    with pytest.raises(DegenerateDataError):
        indicator_grid(CTX, zero_far, grid)


def test_far_denominator_is_constant_across_nodes():
    dirs = far_angles(50)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    norms = np.linalg.norm(green_farfield(CTX, dirs[:, None, :], pts[None, :, :]), axis=0)
    assert np.max(norms) - np.min(norms) <= 1e-14 * np.max(norms)


def test_scale_invariance():
    z = np.array([0.2, 0.5])
    data = _far_point_source(z)
    scaled = FieldSamples(kind="far", locations=data.locations,
                          values=(7.0 - 3.0j) * data.values, incident=D1)
    grid = SamplingGrid(xmin=-1, xmax=1, ymin=-1, ymax=1, h=0.1)
    a = indicator_grid(CTX, data, grid)
    b = indicator_grid(CTX, scaled, grid)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12
    np.testing.assert_array_equal(a.argmax_point(), b.argmax_point())


def test_indicator_grid_normalizes_to_unit_max():
    z = np.array([0.0, 0.0])  # on a grid node
    data = _far_point_source(z)
    grid = SamplingGrid(xmin=-1, xmax=1, ymin=-1, ymax=1, h=0.05)
    out = indicator_grid(CTX, data, grid)
    assert out.values.max() == 1.0
    assert out.values.min() >= 0.0
    np.testing.assert_allclose(out.argmax_point(), z, atol=1e-12)
    # values trace |J0(k r)| after the (near-identity) normalization
    nodes = grid.nodes()
    r = np.hypot(nodes[:, 0], nodes[:, 1])
    law = np.abs(bessel_j(0, CTX.k * r))
    close = r <= 1.0
    assert np.max(np.abs(out.values.ravel()[close] - law[close])) < 0.05


def test_indicator_grid_single_node():
    z = np.array([0.3, -0.2])
    data = _far_point_source(z)
    grid = SamplingGrid(xmin=0.0, xmax=0.5, ymin=0.0, ymax=0.5, h=1.0)
    out = indicator_grid(CTX, data, grid)
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 1.0


def test_near_grid_nodes_must_lie_inside_circle():
    data = _near_point_source(np.array([0.0, 0.5]))
    wide = SamplingGrid(xmin=-5, xmax=5, ymin=-5, ymax=5, h=1.0)
    with pytest.raises(EvaluationPointError):
        indicator_grid(CTX, data, wide)


def test_combine_max_properties():
    grid = SamplingGrid(xmin=-1, xmax=1, ymin=-1, ymax=1, h=0.2)
    a = indicator_grid(CTX, _far_point_source(np.array([0.4, 0.0])), grid)
    b = indicator_grid(CTX, _far_point_source(np.array([-0.4, 0.2])), grid)
    np.testing.assert_array_equal(combine_max([a]).values, a.values)
    np.testing.assert_array_equal(combine_max([a, a]).values, a.values)
    both = combine_max([a, b])
    assert np.all(both.values >= a.values) and np.all(both.values >= b.values)
    other = SamplingGrid(xmin=-1, xmax=1, ymin=-1, ymax=1, h=0.25)
    c = IndicatorGrid(grid=other, values=np.zeros(other.shape))
    with pytest.raises(ValueError):
        combine_max([a, c])
    with pytest.raises(ValueError):
        combine_max([])


def _grid_from(values):
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    g = SamplingGrid(xmin=0.0, xmax=nx - 1.0, ymin=0.0, ymax=ny - 1.0, h=1.0)
    return IndicatorGrid(grid=g, values=values)


def test_superlevel_constant_grid_is_one_component():
    g = _grid_from(np.ones((21, 21)))
    comps = superlevel_components(g, 0.7)
    assert len(comps) == 1
    assert comps[0].size == 21 * 21
    np.testing.assert_allclose(comps[0].centroid, [10.0, 10.0])
    np.testing.assert_allclose(comps[0].lo, [0.0, 0.0])
    np.testing.assert_allclose(comps[0].hi, [20.0, 20.0])


def test_superlevel_components_sorted_and_4_connected():
    values = np.zeros((6, 6))
    values[0, 0] = 1.0  # single node
    values[2:5, 2:5] = 1.0  # 3x3 block
    values[5, 5] = 1.0  # diagonal neighbor of the block corner
    g = _grid_from(values)
    comps = superlevel_components(g, 0.5)
    assert [c.size for c in comps] == [9, 1, 1]
    # diagonal contact does not merge components
    assert all((5.0 != c.centroid[0] or c.size == 1) for c in comps)


def test_superlevel_cutoff_validation_and_empty_result():
    g = _grid_from(0.4 * np.ones((4, 4)))
    assert superlevel_components(g, 0.7) == []
    with pytest.raises(ValueError):
        superlevel_components(g, 0.0)
    with pytest.raises(ValueError):
        superlevel_components(g, 1.0)


def test_argmax_tie_breaks_row_major():
    values = np.zeros((3, 3))
    values[1, 2] = 1.0
    values[2, 0] = 1.0
    g = _grid_from(values)
    np.testing.assert_allclose(g.argmax_point(), [2.0, 1.0])  # (x, y) of row 1, col 2


def test_indicator_values_points_array_matches_single_points():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(7, 2))
    for data in (_far_point_source([0.3, -0.2]), _near_point_source([-0.4, 0.1])):
        many = indicator_values(CTX, data, pts)
        assert many.shape == (7,)
        single = [indicator_values(CTX, data, p) for p in pts]
        np.testing.assert_allclose(many, single, rtol=0.0, atol=1e-15)
