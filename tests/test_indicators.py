import timeit
import tracemalloc

import numpy as np
import pytest

from dsmscat import indicators
from dsmscat.errors import DegenerateDataError, EvaluationPointError
from dsmscat.indicators import (
    Component,
    IndicatorGrid,
    SamplingGrid,
    _correlation,
    _graf_hankel,
    _grid_correlation,
    _kernel,
    check_cutoff,
    combine_max,
    indicator_grid,
    indicator_values,
    superlevel_components,
)
from dsmscat.forward import discretize, scattered_far, solve_lippmann_schwinger
from dsmscat.kernels import WaveContext, green, green_farfield
from dsmscat.measurement import FieldSamples, far_angles, near_circle_geometry
from dsmscat.scenarios import build
from dsmscat.special import _miller_jn, bessel_j, bessel_y

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


def test_point_scatterer_images_as_bessel_modulus():
    # a single cell at z_p scatters far data c G_inf(., z_p), so its image
    # on the default grid is |J0(k |z - z_p|)| (the 50-direction aliasing
    # term 2 J_50 stays below 1e-17 on the grid)
    ex1 = build("ex1")
    cells = discretize(CTX, ex1.shapes, CTX.wavelength / 50.0)
    assert len(cells.centers) == 1
    current = solve_lippmann_schwinger(CTX, cells, ex1.incidents[0])
    dirs = far_angles(50)
    data = FieldSamples(kind="far", locations=dirs, incident=ex1.incidents[0],
                        values=scattered_far(CTX, cells, current, dirs))
    grid = SamplingGrid()
    image = indicator_grid(CTX, data, grid)
    r = np.linalg.norm(grid.nodes() - cells.centers[0], axis=1)
    expected = np.abs(bessel_j(0, CTX.k * r)).reshape(image.values.shape)
    assert np.max(np.abs(image.values - expected)) <= 1e-12


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


@pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 1000], ids=["2^-1000", "2^1000"])
def test_extreme_data_magnitudes_give_the_same_indicator(scale):
    # ||u|| of the scaled data would under- or overflow; the indicator ignores the scale
    grid = SamplingGrid(xmin=-1, xmax=1, ymin=-1, ymax=1, h=0.1)
    point = np.array([0.3, 0.1])
    for data in (_far_point_source([0.3, -0.2]), _near_point_source([-0.4, 0.1])):
        scaled = FieldSamples(kind=data.kind, locations=data.locations, values=scale * data.values, incident=D1)
        np.testing.assert_array_equal(indicator_grid(CTX, scaled, grid).values,
                                      indicator_grid(CTX, data, grid).values)
        assert indicator_values(CTX, scaled, point) == indicator_values(CTX, data, point)


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


# superlevel_components against the stack flood fill it replaced, kept here
# verbatim as the reference labeling.

def _flood_fill_components(grid: IndicatorGrid, cutoff: float):
    """4-connected components of {value >= cutoff}, largest first."""
    check_cutoff(cutoff)
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


def _mask_grid(mask):
    """The 0/1 mask as indicator values on a pitch-0.01 grid from (-2, -2),
    so the coordinates carry round-off as the imaging grids do."""
    ny, nx = mask.shape
    h = 0.01
    g = SamplingGrid(xmin=-2.0, xmax=-2.0 + h * (nx - 0.5), ymin=-2.0, ymax=-2.0 + h * (ny - 0.5), h=h)
    return IndicatorGrid(grid=g, values=np.asarray(mask, dtype=float))


def _assert_same_labeling(mask):
    grid = _mask_grid(mask)
    got, want = superlevel_components(grid, 0.5), _flood_fill_components(grid, 0.5)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.size == w.size
        assert set(map(tuple, g.indices.tolist())) == set(map(tuple, w.indices.tolist()))
        assert g.lo.tobytes() == w.lo.tobytes() and g.hi.tobytes() == w.hi.tobytes()
        assert np.max(np.abs(g.centroid - w.centroid)) <= 1e-12


@pytest.mark.parametrize("density", [0.3, 0.5, 0.6, 0.8])
@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (29, 1), (41, 63)])
def test_superlevel_components_match_flood_fill_on_random_masks(density, shape):
    rng = np.random.default_rng([int(100 * density), *shape])
    for _ in range(3):
        _assert_same_labeling(rng.random(shape) < density)


def test_superlevel_components_match_flood_fill_on_structured_masks():
    _assert_same_labeling(np.zeros((17, 23), dtype=bool))
    _assert_same_labeling(np.ones((17, 23), dtype=bool))
    serpentine = np.zeros((31, 27), dtype=bool)
    serpentine[::2] = True
    serpentine[1::4, -1] = True
    serpentine[3::4, 0] = True
    _assert_same_labeling(serpentine)
    checkerboard = np.indices((24, 19)).sum(axis=0) % 2 == 0
    _assert_same_labeling(checkerboard)
    assert len(superlevel_components(_mask_grid(checkerboard), 0.5)) == checkerboard.sum()


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


# Matrix-free grid evaluation against the dense kernel it replaces.

def _dense(ctx, data, grid):
    return _correlation(data, _kernel(ctx, data, grid.nodes())).reshape(grid.shape)


def _random_values(rng, count):
    return rng.normal(size=count) + 1j * rng.normal(size=count)


def _ring(count, radius, phi0):
    phi = phi0 + 2.0 * np.pi * np.arange(count) / count
    return radius * np.column_stack([np.cos(phi), np.sin(phi)])


def _takes_graf_path(ctx, data, grid):
    r_max = np.hypot(max(abs(grid.xmin), abs(grid.xs[-1])), max(abs(grid.ymin), abs(grid.ys[-1])))
    return _graf_hankel(ctx.k * data.radius, ctx.k * r_max) is not None


def test_far_grid_matches_dense_kernel():
    # directions that are not equispaced, an off-centre non-square grid, k != 2 pi
    rng = np.random.default_rng(21)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=37))
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    data = FieldSamples(kind="far", locations=dirs, values=_random_values(rng, 37), incident=D1)
    ctx = WaveContext(k=3.7)
    grid = SamplingGrid(xmin=-0.7, xmax=1.9, ymin=-2.3, ymax=-0.4, h=0.05)
    fast = _grid_correlation(ctx, data, grid)
    assert fast.shape == grid.shape == (39, 53)
    assert np.max(np.abs(fast - _dense(ctx, data, grid))) <= 1e-13


@pytest.mark.parametrize("count, k, radius, half_width", [
    (50, 2.0 * np.pi, 4.0, 2.0),  # the protocol layout, r/R up to 0.71
    (8, 5.0, 2.0, 1.0),  # few receivers: orders alias heavily
    (64, 6.0 * np.pi, 4.0, 2.5),  # r/R up to 0.88
])
def test_near_grid_matches_dense_kernel(count, k, radius, half_width):
    rng = np.random.default_rng(count)
    ctx = WaveContext(k=k)
    data = FieldSamples(kind="near", locations=_ring(count, radius, 0.37),
                        values=_random_values(rng, count), incident=D1)
    # pitch 1/8 puts a node exactly on the origin
    grid = SamplingGrid(xmin=-half_width, xmax=half_width, ymin=-half_width, ymax=half_width, h=0.125)
    assert np.any(np.all(grid.nodes() == 0.0, axis=1))
    assert _takes_graf_path(ctx, data, grid)
    fast = _grid_correlation(ctx, data, grid)
    dense = _dense(ctx, data, grid)
    assert np.max(np.abs(fast - dense)) <= 1e-11
    values = indicator_grid(ctx, data, grid).values
    assert np.max(np.abs(values - dense / dense.max())) <= 1e-11


def test_near_grid_property_against_dense_kernel():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(
        count=st.integers(3, 70),
        phi0=st.floats(-np.pi, np.pi),
        k=st.floats(0.5, 15.0),
        radius=st.floats(1.0, 5.0),
        reach=st.floats(0.05, 0.6),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(count, phi0, k, radius, reach, seed):
        rng = np.random.default_rng(seed)
        ctx = WaveContext(k=k)
        data = FieldSamples(kind="near", locations=_ring(count, radius, phi0),
                            values=_random_values(rng, count), incident=D1)
        half = reach * radius / np.sqrt(2.0)  # corners at r/R = reach
        grid = SamplingGrid(xmin=-half, xmax=half, ymin=-0.5 * half, ymax=half, h=half / 4.0)
        assert np.max(np.abs(_grid_correlation(ctx, data, grid) - _dense(ctx, data, grid))) <= 1e-11

    check()


@pytest.mark.parametrize("kr_big, reference, tol", [
    (1e3, "miller", 1e-10),
    (2.0 * np.pi * 1e4, "miller", 1e-10),
    (2.0 * np.pi * 1e5, "scipy", 1e-9),
])
def test_graf_j_rows_below_the_argument(kr_big, reference, tol):
    # a far receiver circle: the order M stays below kR, so the J_m rows come
    # from upward recurrence, not from a Miller sweep started above kR
    hankel = _graf_hankel(kr_big, 2.0 * np.pi * 2.0 * np.sqrt(2.0))  # default grid corner
    order = len(hankel) - 1
    assert 0 < order < kr_big
    if reference == "miller":
        expected = _miller_jn(order, np.array([kr_big]))[:, 0]
    else:
        expected = pytest.importorskip("scipy.special").jv(np.arange(order + 1), kr_big)
    assert np.max(np.abs(hankel.real - expected)) <= tol * np.sqrt(2.0 / (np.pi * kr_big))


def _graf_hankel_by_scalar_loops(kr_big, kr_max):
    """The Graf rows by scalar loops: Y_m upward until |Y_m| passes the cap,
    about kR steps, and J_m upward below kR, else from a Miller sweep."""
    y = [bessel_y(0, kr_big), bessel_y(1, kr_big)]
    while abs(y[-1]) <= indicators._GRAF_CAP:
        y.append(2.0 * (len(y) - 1) / kr_big * y[-1] - y[-2])
    y = np.array(y[:-1])
    order = indicators._graf_order(np.log(np.abs(y) + 1.0), kr_max, kr_big)
    if order < 0:
        return None
    if order < kr_big:
        j = [bessel_j(0, kr_big), bessel_j(1, kr_big)]
        for m in range(1, order):
            j.append(2.0 * m / kr_big * j[-1] - j[-2])
        j = np.array(j[:order + 1])
    else:
        j = _miller_jn(order, np.array([kr_big]))[:, 0]
    return j + 1j * y[:order + 1]


def test_graf_rows_equal_the_scalar_loops_in_about_m_steps():
    outcomes = []
    for kr_big in np.geomspace(0.01, 2e3, 31):
        for ratio in (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99, 1.0, 1.5):
            fast = _graf_hankel(kr_big, ratio * kr_big)
            slow = _graf_hankel_by_scalar_loops(kr_big, ratio * kr_big)
            if slow is None:
                assert fast is None, (kr_big, ratio)
                outcomes.append("none")
            else:
                assert fast.tobytes() == slow.tobytes(), (kr_big, ratio)
                outcomes.append("miller" if len(slow) - 1 >= kr_big else "upward")
    assert {name: outcomes.count(name) for name in set(outcomes)} == {"none": 169, "upward": 82, "miller": 121}
    # a far receiver circle: 48 orders kept, where |Y_m| passes the cap only past m = 6e5
    seconds = min(timeit.repeat(lambda: _graf_hankel(2e5 * np.pi, 4.0 * np.pi * np.sqrt(2.0)), number=1, repeat=3))
    assert seconds < 0.02


def test_grid_fallbacks_equal_the_dense_kernel():
    rng = np.random.default_rng(8)
    values = _random_values(rng, 50)
    grid = SamplingGrid(xmin=-1.0, xmax=1.0, ymin=-1.0, ymax=1.0, h=0.1)
    # receivers on the circle but not equispaced
    angles = 2.0 * np.pi * np.arange(50) / 50
    angles[7] += 1e-3
    uneven = FieldSamples(kind="near", locations=4.0 * np.column_stack([np.cos(angles), np.sin(angles)]),
                          values=values, incident=D1)
    np.testing.assert_array_equal(_grid_correlation(CTX, uneven, grid), _dense(CTX, uneven, grid))
    # a grid reaching r/R = 0.95, where H_M(kR) would pass the order cap
    data = FieldSamples(kind="near", locations=near_circle_geometry(CTX, 4.0, 50), values=values, incident=D1)
    wide = SamplingGrid(xmin=-2.68, xmax=2.68, ymin=-2.68, ymax=2.68, h=0.67)
    assert not _takes_graf_path(CTX, data, wide)
    np.testing.assert_array_equal(_grid_correlation(CTX, data, wide), _dense(CTX, data, wide))
    # imaging is two-dimensional: dim 3 is refused at entry for both kinds
    ctx3 = WaveContext(k=2.0 * np.pi, dim=3)
    for samples in (data, _far_point_source([0.3, -0.2])):
        with pytest.raises(ValueError, match="two-dimensional"):
            indicator_grid(ctx3, samples, grid)
        with pytest.raises(ValueError, match="two-dimensional"):
            indicator_values(ctx3, samples, np.zeros(2))


def test_grid_errors_as_with_the_dense_kernel():
    pts = near_circle_geometry(CTX, 4.0, 50)
    zero_near = FieldSamples(kind="near", locations=pts, values=np.zeros(50), incident=D1)
    with pytest.raises(DegenerateDataError):
        indicator_grid(CTX, zero_near, SamplingGrid(xmin=-1, xmax=1, ymin=-1, ymax=1, h=0.5))
    # the point check comes before the data check, and r = R is outside
    on_circle = SamplingGrid(xmin=0.0, xmax=4.0, ymin=0.0, ymax=1.0, h=1.0)
    with pytest.raises(EvaluationPointError):
        indicator_grid(CTX, zero_near, on_circle)
    # two opposite receivers with opposite data see nothing at the origin
    origin = SamplingGrid(xmin=0.0, xmax=0.5, ymin=0.0, ymax=0.5, h=1.0)
    for kind, radius in (("far", 1.0), ("near", 4.0)):
        pair = FieldSamples(kind=kind, locations=[[radius, 0.0], [-radius, 0.0]],
                            values=[1.0, -1.0], incident=D1)
        assert _dense(CTX, pair, origin)[0, 0] == 0.0
        with pytest.raises(DegenerateDataError, match="vanishes"):
            indicator_grid(CTX, pair, origin)


def test_grid_evaluation_memory_stays_small():
    assert not hasattr(indicators, "_KERNEL_MEMO")
    grid = SamplingGrid()
    for data in (_far_point_source([0.3, -0.2]), _near_point_source([-0.4, 0.1])):
        tracemalloc.start()
        try:
            indicator_grid(CTX, data, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, (data.kind, peak)
