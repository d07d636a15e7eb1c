"""Tests for the forward scattering model.

The disk far-field table below was generated once from the partial-wave
series evaluated with an independent arbitrary-precision implementation
and frozen here as literals (radius 0.3, n^2 = 1.5, k = 2 pi, incident
direction (1,1)/sqrt(2)).
"""

import tracemalloc

import numpy as np
import pytest

from dsmscat.errors import DiscretizationError, EvaluationPointError
from dsmscat.forward import (
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
from dsmscat.kernels import WaveContext, green, green_farfield
from dsmscat.measurement import far_angles
from dsmscat.scenarios import build
from dsmscat.special import hankel1

CTX = WaveContext(k=2.0 * np.pi)
D1 = np.array([1.0, 1.0]) / np.sqrt(2.0)

# (observation angle, Re u_inf, Im u_inf) for the disk oracle above
DISK_TABLE = (
    (0.0, 0.10960410059889554, 0.2959009854137354),
    (0.25, 0.13947639478469911, 0.3497397599908855),
    (1.5707963267948966, 0.10960410059889554, 0.2959009854137354),
    (1.0, 0.16501069829409978, 0.393893269492249),
    (2.356194490192345, 0.016363153537730126, 0.09734748458837361),
    (3.141592653589793, -0.01872334038676781, -0.03418934969718095),
    (4.0, -0.020437057656650826, -0.07297249767263672),
    (5.5, 0.016554062776818323, 0.09785403473553536),
)


def square(center, side, **mat):
    return ShapeSpec(kind="square", center=center, side=side, **mat)


def test_shape_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        ShapeSpec(kind="blob", center=(0, 0), radius=1.0, eta=1.0)
    with pytest.raises(ValueError):
        square((0, 0), 0.3)  # no material
    with pytest.raises(ValueError):
        square((0, 0), 0.3, eta=1.0, nsq=1.5)  # both materials
    with pytest.raises(ValueError):
        ShapeSpec(kind="ring", center=(0, 0), outer_side=0.4, inner_side=0.6, eta=1.0)
    with pytest.raises(ValueError):
        ShapeSpec(kind="bar", center=(0, 0), length=0.1, thickness=0.5, eta=1.0)
    with pytest.raises(ValueError):
        square((0, 0), -0.3, eta=1.0)


def test_shape_material_and_area():
    s = square((0, 0), 0.5, nsq=1.5)
    assert s.eta_value(CTX) == pytest.approx(0.5 * (2 * np.pi) ** 2)
    assert square((0, 0), 0.5, eta=2.0 + 1.0j).eta_value(CTX) == 2.0 + 1.0j
    assert s.area() == pytest.approx(0.25)
    ring = ShapeSpec(kind="ring", center=(0, 0), outer_side=0.6, inner_side=0.4, eta=1.0)
    assert ring.area() == pytest.approx(0.36 - 0.16)
    bar = ShapeSpec(kind="bar", center=(0, 0), length=1.0, thickness=0.1, eta=1.0)
    assert bar.area() == pytest.approx(0.1)


def test_contains_square_half_open():
    s = square((0.5, 0.5), 1.0, eta=1.0)
    assert contains(s, (0.5, 0.5))
    assert contains(s, (0.0, 0.0))  # min corner included
    assert not contains(s, (1.0, 0.5))  # max edge excluded
    assert not contains(s, (0.5, 1.0))
    pts = np.array([[0.1, 0.1], [1.1, 0.5], [0.999, 0.999]])
    np.testing.assert_array_equal(contains(s, pts), [True, False, True])


def test_contains_ring_hole():
    r = ShapeSpec(kind="ring", center=(0, 0), outer_side=0.6, inner_side=0.4, eta=1.0)
    assert contains(r, (0.25, 0.0))
    assert not contains(r, (0.0, 0.0))
    assert not contains(r, (0.19, 0.19))  # inside the hole
    assert not contains(r, (0.31, 0.0))


def test_contains_rotated_bar():
    b = ShapeSpec(kind="bar", center=(0, 0), length=1.0, thickness=0.1,
                  angle=np.pi / 4, eta=1.0)
    along = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert contains(b, 0.49 * along)
    assert not contains(b, 0.51 * along)
    assert not contains(b, (0.3, 0.0))  # off the diagonal by > thickness/2


def test_contains_disk():
    d = ShapeSpec(kind="disk", center=(1.0, 0.0), radius=0.5, eta=1.0)
    assert contains(d, (1.2, 0.2))
    assert not contains(d, (1.5, 0.0))  # boundary excluded


# Literal half-open definitions of the rectangular kinds, in the shape's
# local frame d = x - center.  A square or ring is axis-aligned whatever its
# angle field holds; a bar is [-L/2, L/2) x [-T/2, T/2) in the frame rotated
# by its angle.
_RECT_CENTER = (0.25, -0.5)


def _literal_rect_shape(kind, angle):
    if kind == "square":
        return square(_RECT_CENTER, 0.5, angle=angle, eta=1.0)
    if kind == "ring":
        return ShapeSpec(kind="ring", center=_RECT_CENTER, outer_side=0.5, inner_side=0.25,
                         angle=angle, eta=1.0)
    return ShapeSpec(kind="bar", center=_RECT_CENTER, length=0.75, thickness=0.125,
                     angle=angle, eta=1.0)


def _literal_half_open(d, half_u, half_v):
    return (d[:, 0] >= -half_u) & (d[:, 0] < half_u) & (d[:, 1] >= -half_v) & (d[:, 1] < half_v)


def _literal_contains(kind, angle, pts):
    d = pts - np.array(_RECT_CENTER)
    if kind == "square":
        return _literal_half_open(d, 0.25, 0.25)
    if kind == "ring":
        return _literal_half_open(d, 0.25, 0.25) & ~_literal_half_open(d, 0.125, 0.125)
    ca, sa = np.cos(angle), np.sin(angle)
    local = np.column_stack([d[:, 0] * ca + d[:, 1] * sa, -d[:, 0] * sa + d[:, 1] * ca])
    return _literal_half_open(local, 0.375, 0.0625)


def _literal_box(kind, angle):
    c = np.array(_RECT_CENTER)
    if kind == "bar":
        ca, sa = abs(np.cos(angle)), abs(np.sin(angle))
        r = 0.5 * np.array([0.75 * ca + 0.125 * sa, 0.75 * sa + 0.125 * ca])
    else:
        r = np.array([0.25, 0.25])
    return c - r, c + r


@pytest.mark.parametrize("kind", ["square", "ring", "bar"])
@pytest.mark.parametrize("angle", [0.0, np.pi / 6, np.pi / 2], ids=["0", "pi/6", "pi/2"])
def test_rectangular_shapes_match_literal_definitions(kind, angle):
    shape = _literal_rect_shape(kind, angle)
    # a 1/32 lattice holds every axis-aligned min and max edge exactly
    ticks = np.arange(-24, 25) / 32.0
    gx, gy = np.meshgrid(_RECT_CENTER[0] + ticks, _RECT_CENTER[1] + ticks)
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    # and points on the rotated bar's four edges
    ca, sa = np.cos(angle), np.sin(angle)
    t = np.linspace(-1.0, 1.0, 9)
    edges = np.concatenate(
        [np.column_stack([np.full(9, su * 0.375), 0.0625 * t]) for su in (-1, 1)]
        + [np.column_stack([0.375 * t, np.full(9, sv * 0.0625)]) for sv in (-1, 1)])
    rotated = np.column_stack([edges[:, 0] * ca - edges[:, 1] * sa,
                               edges[:, 0] * sa + edges[:, 1] * ca])
    pts = np.concatenate([lattice, rotated + np.array(_RECT_CENTER)])
    expected = _literal_contains(kind, angle, pts)
    np.testing.assert_array_equal(contains(shape, pts), expected)
    assert [contains(shape, p) for p in pts[:50]] == expected[:50].tolist()
    assert 0 < expected.sum() < len(pts)
    lo, hi = shape.bounding_box()
    want_lo, want_hi = _literal_box(kind, angle)
    np.testing.assert_array_equal(lo, want_lo)
    np.testing.assert_array_equal(hi, want_hi)
    assert shape.area() == {"square": 0.5**2, "ring": 0.5**2 - 0.25**2, "bar": 0.75 * 0.125}[kind]


def test_rectangle_edges_are_half_open():
    sq = _literal_rect_shape("square", 0.0)
    assert contains(sq, (0.0, -0.75)) and not contains(sq, (0.5, -0.5))
    assert not contains(sq, (0.25, -0.25))
    ring = _literal_rect_shape("ring", 0.0)
    # the hole's min edge is outside the ring, its max edge inside
    assert not contains(ring, (0.125, -0.5)) and contains(ring, (0.375, -0.5))
    bar = _literal_rect_shape("bar", 0.0)
    assert contains(bar, (-0.125, -0.5625)) and not contains(bar, (0.625, -0.5))
    assert not contains(bar, (0.25, -0.4375))


def test_discretize_single_cell_for_tiny_square():
    grid = discretize(CTX, [square((0, 0), 0.02, eta=1.0)], h_fwd=0.02)
    assert len(grid) == 1
    np.testing.assert_allclose(grid.centers[0], [0.0, 0.0], atol=1e-15)
    assert grid.h_fwd == 0.02
    assert grid.eta[0] == 1.0


def test_discretize_cell_counts():
    grid = discretize(CTX, [square((0.3, 0.8), 0.3, eta=1.0)], h_fwd=0.02)
    assert len(grid) == 225  # (0.3 / 0.02)^2
    ring = ShapeSpec(kind="ring", center=(0, 0), outer_side=0.6, inner_side=0.4, eta=1.0)
    assert len(discretize(CTX, [ring], h_fwd=0.02)) == 900 - 400


def test_discretize_innermost_shape_wins():
    outer = square((0, 0), 0.6, eta=1.0)
    inner = square((0, 0), 0.2, eta=4.0)
    grid = discretize(CTX, [outer, inner], h_fwd=0.02)
    inside = np.max(np.abs(grid.centers), axis=1) < 0.1
    assert np.all(grid.eta[inside] == 4.0)
    assert np.all(grid.eta[~inside] == 1.0)


def test_discretize_rejects_bad_input():
    shapes = [square((0, 0), 0.3, eta=1.0)]
    with pytest.raises(ValueError):
        discretize(CTX, shapes, h_fwd=0.2)  # coarser than lambda/10
    with pytest.raises(ValueError):
        discretize(CTX, shapes, h_fwd=0.0)
    with pytest.raises(DiscretizationError):
        discretize(CTX, [], h_fwd=0.02)
    # shell so thin that no lattice center lands inside it
    sliver = ShapeSpec(kind="ring", center=(0, 0), outer_side=0.1, inner_side=0.098, eta=1.0)
    with pytest.raises(DiscretizationError):
        discretize(CTX, [sliver], h_fwd=0.02)
    with pytest.raises(DiscretizationError):
        discretize(CTX, [square((0, 0), 0.3, eta=0.0)], h_fwd=0.02)


def test_self_term_matches_brute_quadrature():
    # midpoint quadrature of G over one 0.02 x 0.02 cell (centers of an
    # even subgrid never hit the singular point)
    h = 0.02
    nsub = 800
    xs = (np.arange(nsub) + 0.5) / nsub * h - h / 2
    gx, gy = np.meshgrid(xs, xs)
    r = np.hypot(gx, gy).ravel()
    brute = np.sum(0.25j * hankel1(0, CTX.k * r)) * (h / nsub) ** 2
    grid = discretize(CTX, [square((0, 0), h, eta=1.0)], h_fwd=h)
    current = solve_lippmann_schwinger(CTX, grid, D1)
    # recover the diagonal entry from the one-cell solve: u = 1/(1 - g_self * eta)
    u0 = current.total_field[0] / np.exp(1j * CTX.k * grid.centers[0] @ D1)
    g_self = (1.0 - 1.0 / u0) / grid.eta[0]
    assert abs(g_self - brute) / abs(brute) < 0.01


def test_solver_born_limit():
    grid = discretize(CTX, [square((0, 0), 0.02, eta=1.0)], h_fwd=0.02)
    current = solve_lippmann_schwinger(CTX, grid, D1)
    u_inc = np.exp(1j * CTX.k * grid.centers @ D1)
    margin = np.max(np.abs(grid.eta * current.total_field - grid.eta * u_inc) / np.abs(grid.eta))
    assert margin < 0.05


def test_solver_rejects_bad_input():
    grid = discretize(CTX, [square((0, 0), 0.3, eta=1.0)], h_fwd=0.02)
    with pytest.raises(ValueError):
        solve_lippmann_schwinger(CTX, grid, np.array([1.0, 1.0]))
    big = CellGrid(
        centers=np.zeros((5001, 2)),
        eta=np.ones(5001, dtype=complex),
        h_fwd=0.02,
    )
    with pytest.raises(ValueError):
        solve_lippmann_schwinger(CTX, big, D1)


def test_solver_builds_the_system_in_one_array():
    # a disk of radius 0.4 and n^2 = 1.5 at lambda/50, 1264 cells: the system
    # is one n x n complex array (16 n^2 bytes) and the dense solve copies it
    # once, so distances, Hankel values and I - A diag(eta) share one array
    grid = discretize(CTX, [ShapeSpec(kind="disk", center=(0, 0), radius=0.4, nsq=1.5)],
                      h_fwd=CTX.wavelength / 50)
    n = len(grid)
    assert n == 1264
    tracemalloc.start()
    try:
        solve_lippmann_schwinger(CTX, grid, D1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * n * n, peak / (16 * n * n)


def _unit_current(centers):
    """Unit currents on cells of unit area (h_fwd = 1) at centers."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    grid = CellGrid(centers=centers, eta=np.ones(len(centers), dtype=complex), h_fwd=1.0)
    values = np.ones(len(centers), dtype=complex)
    return grid, InducedCurrent(total_field=values, grid=grid)


def test_scattered_fields_point_source_examples():
    grid, current = _unit_current([[0.0, 0.0]])
    x = np.array([1.3, -0.4])
    assert scattered_near(CTX, current, x) == pytest.approx(green(CTX, x, np.zeros(2)))
    xhat = np.array([0.6, 0.8])
    assert scattered_far(CTX, current, xhat) == pytest.approx(
        green_farfield(CTX, xhat, np.zeros(2))
    )
    zero = InducedCurrent(total_field=np.zeros(1, dtype=complex), grid=grid)
    assert scattered_near(CTX, zero, x) == 0.0
    assert scattered_far(CTX, zero, xhat) == 0.0


def test_scattered_near_symmetric_pair():
    _, current = _unit_current([[0.0, 0.5], [0.0, -0.5]])
    _, current1 = _unit_current([[0.0, 0.5]])
    x = np.array([2.0, 0.0])  # on the symmetry axis
    pair = scattered_near(CTX, current, x)
    single = scattered_near(CTX, current1, x)
    assert pair == pytest.approx(2.0 * single)


def test_scattered_near_rejects_points_inside():
    grid = discretize(CTX, [square((0, 0), 0.3, eta=1.0)], h_fwd=0.02)
    current = solve_lippmann_schwinger(CTX, grid, D1)
    with pytest.raises(EvaluationPointError):
        scattered_near(CTX, current, np.array([0.0, 0.0]))
    pts = np.array([[4.0, 0.0], [0.005, 0.0]])
    with pytest.raises(EvaluationPointError):
        scattered_near(CTX, current, pts)


def test_scattered_far_translation_phase():
    # same current values on shifted cells: far field gains e^{-ik xhat.t}
    rng = np.random.default_rng(7)
    centers = rng.uniform(-0.3, 0.3, size=(12, 2))
    _, current = _unit_current(centers)
    t = np.array([0.37, -0.21])
    _, shifted = _unit_current(centers + t)
    angles = np.linspace(0.0, 2 * np.pi, 9)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    base = scattered_far(CTX, current, dirs)
    moved = scattered_far(CTX, shifted, dirs)
    np.testing.assert_allclose(moved, base * np.exp(-1j * CTX.k * dirs @ t), rtol=1e-12)


def test_translation_covariance_of_solutions():
    # re-solving on a translated scatterer multiplies the far field by
    # e^{ik (d - xhat).t}; the lattice is anchored to the shape so the
    # cells translate rigidly
    t = np.array([0.37, -0.21])
    base_grid = discretize(CTX, [square((0, 0), 0.3, eta=1.0)], h_fwd=0.025)
    moved_grid = discretize(CTX, [square(t, 0.3, eta=1.0)], h_fwd=0.025)
    assert len(base_grid) == len(moved_grid)
    base = solve_lippmann_schwinger(CTX, base_grid, D1)
    moved = solve_lippmann_schwinger(CTX, moved_grid, D1)
    angles = np.linspace(0.0, 2 * np.pi, 11)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    f_base = scattered_far(CTX, base, dirs)
    f_moved = scattered_far(CTX, moved, dirs)
    factor = np.exp(1j * CTX.k * (D1 @ t - dirs @ t))
    np.testing.assert_allclose(f_moved, f_base * factor, rtol=1e-9)


def test_disk_series_matches_frozen_table():
    angles = np.array([row[0] for row in DISK_TABLE])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    vals = disk_series_farfield(CTX, 0.3, 1.5, D1, dirs)
    expected = np.array([complex(re, im) for _, re, im in DISK_TABLE])
    np.testing.assert_allclose(vals, expected, atol=1e-10)


def test_disk_series_special_cases():
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(disk_series_farfield(CTX, 0.3, 1.0, D1, dirs), 0.0, atol=1e-14)
    # rotating incident and observation together leaves the pattern unchanged
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    a = disk_series_farfield(CTX, 0.3, 1.5, D1, dirs)
    b = disk_series_farfield(CTX, 0.3, 1.5, rot @ D1, dirs @ rot.T)
    np.testing.assert_allclose(a, b, rtol=1e-12)
    with pytest.raises(ValueError):
        disk_series_farfield(CTX, 0.3, 1.0 + 2.0j, D1, dirs)
    with pytest.raises(ValueError):
        disk_series_farfield(CTX, 0.3, -2.0, D1, dirs)
    with pytest.raises(ValueError):
        disk_series_farfield(CTX, -0.1, 1.5, D1, dirs)


@pytest.mark.parametrize("radius, nsq", [(0.3, 1.5), (0.4, 1.5), (1.0, 4.0), (0.05, 2.0)])
def test_disk_series_against_scipy_partial_waves(radius, nsq):
    special = pytest.importorskip("scipy.special")
    k, m = CTX.k, np.arange(int(np.ceil(CTX.k * radius)) + 21)
    ka, k1a = k * radius, k * np.sqrt(nsq) * radius
    num = k * np.sqrt(nsq) * special.jvp(m, k1a) * special.jv(m, ka) - k * special.jvp(m, ka) * special.jv(m, k1a)
    den = (k * special.h1vp(m, ka) * special.jv(m, k1a)
           - k * np.sqrt(nsq) * special.jvp(m, k1a) * special.hankel1(m, ka))
    coeffs = num / den
    angles = 2.0 * np.pi * np.arange(64) / 64.0
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    phi = np.arccos(np.clip(dirs @ D1, -1.0, 1.0))
    series = coeffs[0] + 2.0 * np.cos(np.outer(phi, m[1:])) @ coeffs[1:]
    expected = np.sqrt(2.0 / (np.pi * k)) * np.exp(-1j * np.pi / 4.0) * series
    np.testing.assert_allclose(disk_series_farfield(CTX, radius, nsq, D1, dirs), expected, rtol=1e-12)


def test_solver_matches_disk_series():
    # collocation at pitch lambda/40 against the analytic partial-wave series
    disk = ShapeSpec(kind="disk", center=(0, 0), radius=0.3, nsq=1.5)
    grid = discretize(CTX, [disk], h_fwd=1.0 / 40.0)
    current = solve_lippmann_schwinger(CTX, grid, D1)
    angles = 2.0 * np.pi * np.arange(50) / 50.0
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    numeric = scattered_far(CTX, current, dirs)
    exact = disk_series_farfield(CTX, 0.3, 1.5, D1, dirs)
    err = np.linalg.norm(numeric - exact) / np.linalg.norm(exact)
    assert err < 0.02


def test_asymptotic_consistency_at_large_radius():
    grid = discretize(CTX, [square((0, 0), 0.3, eta=1.0)], h_fwd=0.02)
    current = solve_lippmann_schwinger(CTX, grid, D1)
    r = 100.0
    angles = np.array([0.0, 1.1, 2.9, 4.2])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    near = scattered_near(CTX, current, r * dirs)
    far = scattered_far(CTX, current, dirs)
    recovered = near * np.sqrt(r) / np.exp(1j * CTX.k * r)
    assert np.max(np.abs(recovered - far) / np.abs(far)) < 0.01


def test_obstacle_absorption_cauchy_trend():
    shapes = [square((0, 0), 0.3, nsq=1.0 + 10.0j),
              square((0, 0), 0.3, nsq=1.0 + 50.0j),
              square((0, 0), 0.3, nsq=1.0 + 200.0j)]
    angles = 2.0 * np.pi * np.arange(50) / 50.0
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    fields = []
    for s in shapes:
        grid = discretize(CTX, [s], h_fwd=0.02)
        current = solve_lippmann_schwinger(CTX, grid, D1)
        fields.append(scattered_far(CTX, current, dirs))
    d_low = np.linalg.norm(fields[1] - fields[0]) / np.linalg.norm(fields[1])
    d_high = np.linalg.norm(fields[2] - fields[1]) / np.linalg.norm(fields[2])
    assert d_high < d_low


def test_ring_cauchy_point_source_closed_form():
    _, current = _unit_current([[0.0, 0.0]])
    ring = ring_cauchy(CTX, current, radius=5.0, count=51)
    k = CTX.k
    np.testing.assert_allclose(ring.values, 0.25j * hankel1(0, 5.0 * k), rtol=1e-12)
    np.testing.assert_allclose(ring.normal_derivs, -0.25j * k * hankel1(1, 5.0 * k), rtol=1e-12)
    np.testing.assert_allclose(np.hypot(ring.points[:, 0], ring.points[:, 1]), 5.0, atol=1e-12)
    np.testing.assert_allclose(ring.points[50], ring.points[0], atol=1e-12)


def test_ring_quadrature_weights():
    w = ring_quadrature_weights()
    assert len(w) == 51
    assert np.sum(w) == pytest.approx(10.0 * np.pi, abs=1e-12)
    theta = 2.0 * np.pi * np.arange(51) / 50.0
    assert abs(w @ np.cos(theta)) < 1e-13
    expected = np.array([1.0] + [4.0, 2.0] * 24 + [4.0, 1.0]) * np.pi / 15.0
    np.testing.assert_allclose(w, expected)


def test_near_to_far_rejects_wrong_node_count():
    theta = 2.0 * np.pi * np.arange(50) / 49.0
    pts = 5.0 * np.column_stack([np.cos(theta), np.sin(theta)])
    bad = RingCauchyData(
        points=pts,
        values=np.ones(50, dtype=complex),
        normal_derivs=np.zeros(50, dtype=complex),
        radius=5.0,
    )
    with pytest.raises(ValueError):
        near_to_far_simpson(CTX, bad, np.array([1.0, 0.0]))


def test_near_to_far_rejects_other_radii():
    # the weights are Simpson's h/3 on the radius-5 circle only
    _, current = _unit_current([[0.0, 0.0]])
    ring = ring_cauchy(CTX, current, radius=3.0, count=51)
    with pytest.raises(ValueError, match="radius 3"):
        near_to_far_simpson(CTX, ring, np.array([1.0, 0.0]))


# Exact identities of the scattering problem on the presets at the protocol
# pitch lambda/50 (Colton and Kress, Inverse Acoustic and Electromagnetic
# Scattering Theory, 3rd ed. 2013, ch. 3).

def _preset_cells(name, variant=None):
    scenario = build(name, variant=variant)
    cells = discretize(CTX, scenario.shapes, CTX.wavelength / 50.0)
    return cells, np.asarray(scenario.incidents[0], dtype=float)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7"])
def test_far_field_reciprocity_on_presets(name):
    # u_inf(-d2; d1) = u_inf(-d1; d2)
    cells, d1 = _preset_cells(name)
    d2 = np.array([np.cos(2.0), np.sin(2.0)])
    u12 = scattered_far(CTX, solve_lippmann_schwinger(CTX, cells, d1), -d2)
    u21 = scattered_far(CTX, solve_lippmann_schwinger(CTX, cells, d2), -d1)
    assert abs(u12 - u21) <= 1e-12 * abs(u12)


def _extinction_and_scattering(name, variant=None, count=256):
    """sqrt(8 pi / k) Im(e^{-i pi/4} u_inf(d; d)) and the trapezoid sum of
    |u_inf|^2 over count directions; they are equal for a lossless medium."""
    cells, d = _preset_cells(name, variant)
    current = solve_lippmann_schwinger(CTX, cells, d)
    forward = scattered_far(CTX, current, d)
    extinction = np.sqrt(8.0 * np.pi / CTX.k) * (np.exp(-0.25j * np.pi) * forward).imag
    far = scattered_far(CTX, current, far_angles(count))
    return extinction, 2.0 * np.pi / count * np.sum(np.abs(far) ** 2)


@pytest.mark.parametrize("name, variant", [
    ("ex2", None), ("ex3", None), ("ex3", "close"),
    ("ex4", None), ("ex6", None), ("ex7", None),
])
def test_optical_theorem_on_lossless_presets(name, variant):
    extinction, scattering = _extinction_and_scattering(name, variant)
    assert abs(extinction - scattering) <= 1e-4 * scattering


@pytest.mark.parametrize("variant", [None, "high-contrast"])
def test_absorbing_presets_extinguish_more_than_they_scatter(variant):
    extinction, scattering = _extinction_and_scattering("ex5", variant)
    assert extinction > scattering
