import numpy as np
import pytest

from dsmscat.kernels import WaveContext
from dsmscat.measurement import (
    FieldSamples,
    NoiseSpec,
    add_noise,
    far_angles,
    near_circle_geometry,
    normal_complex_draws,
)

CTX = WaveContext(k=2.0 * np.pi)
D1 = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _near_samples(values=None, count=50):
    pts = near_circle_geometry(4.0, count)
    if values is None:
        rng = np.random.default_rng(3)
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
    return FieldSamples(kind="near", locations=pts, values=values, incident=D1)


def test_near_circle_geometry_protocol():
    pts = near_circle_geometry(4.0, 50)
    assert pts.shape == (50, 2)
    np.testing.assert_allclose(pts[0], [4.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 4.0, atol=1e-12)
    quarter = near_circle_geometry(1.0, 4)
    np.testing.assert_allclose(quarter, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)


def test_far_angles_protocol():
    dirs = far_angles(50)
    assert dirs.shape == (50, 2)
    np.testing.assert_allclose(dirs[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.hypot(dirs[:, 0], dirs[:, 1]), 1.0, atol=1e-12)
    np.testing.assert_allclose(far_angles(4), [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)


def test_geometry_rejects_bad_arguments():
    with pytest.raises(ValueError):
        near_circle_geometry(-1.0, 50)
    with pytest.raises(ValueError):
        near_circle_geometry(4.0, 0)
    with pytest.raises(ValueError):
        far_angles(0)


def test_field_samples_validation():
    pts = near_circle_geometry(4.0, 50)
    with pytest.raises(ValueError):
        FieldSamples(kind="volume", locations=pts, values=np.ones(50), incident=D1)
    with pytest.raises(ValueError):
        FieldSamples(kind="near", locations=pts, values=np.ones(49), incident=D1)
    with pytest.raises(ValueError):
        FieldSamples(kind="near", locations=pts[:0], values=np.ones(0), incident=D1)
    bent = pts.copy()
    bent[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError):
        FieldSamples(kind="near", locations=bent, values=np.ones(50), incident=D1)
    with pytest.raises(ValueError):
        FieldSamples(kind="far", locations=pts, values=np.ones(50), incident=D1)
    s = FieldSamples(kind="near", locations=pts, values=np.ones(50), incident=D1)
    assert s.radius == pytest.approx(4.0)


def test_field_samples_measure_their_layout_once():
    phi = 0.37 + 2.0 * np.pi * np.arange(50) / 50
    ring = 3.0 * np.column_stack([np.cos(phi), np.sin(phi)])
    s = FieldSamples(kind="near", locations=ring, values=np.ones(50), incident=D1)
    assert (s.radius, s.phase) == pytest.approx((3.0, 0.37), rel=1e-15)
    assert add_noise(s, NoiseSpec(epsilon=0.1, seed=1)).phase == s.phase
    turned = ring.copy()
    turned[7] = 3.0 * np.array([np.cos(phi[7] + 1e-9), np.sin(phi[7] + 1e-9)])  # same circle
    uneven = FieldSamples(kind="near", locations=turned, values=np.ones(50), incident=D1)
    assert uneven.radius == s.radius and uneven.phase is None
    far = FieldSamples(kind="far", locations=far_angles(50), values=np.ones(50), incident=D1)
    assert (far.radius, far.phase) == (1.0, 0.0)


def test_huge_receiver_coordinate_is_refused_without_overflow():
    pts = near_circle_geometry(4.0, 50)
    pts[3, 0] = 1e300
    with pytest.raises(ValueError, match="one circle"):  # a RuntimeWarning would fail here too
        FieldSamples(kind="near", locations=pts, values=np.ones(50), incident=D1)


@pytest.mark.parametrize("radius", [1e4, 1e5])
def test_field_samples_accept_large_receiver_circles(radius):
    # the rounding of x and y alone spreads the radii by more than 1e-12 here
    pts = near_circle_geometry(radius, 50)
    s = FieldSamples(kind="near", locations=pts, values=np.ones(50), incident=D1)
    assert s.radius == pytest.approx(radius, rel=1e-12)
    bent = pts.copy()
    bent[3] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="one circle"):
        FieldSamples(kind="near", locations=bent, values=np.ones(50), incident=D1)


def test_noise_spec_validation():
    NoiseSpec(epsilon=0.0, seed=1)
    NoiseSpec(epsilon=1.0, seed=1)
    with pytest.raises(ValueError):
        NoiseSpec(epsilon=-0.1, seed=1)
    with pytest.raises(ValueError):
        NoiseSpec(epsilon=1.5, seed=1)


def test_add_noise_zero_level_is_identity():
    s = _near_samples()
    out = add_noise(s, NoiseSpec(epsilon=0.0, seed=123))
    assert np.array_equal(out.values, s.values)


def test_add_noise_deterministic_and_pure():
    s = _near_samples()
    before = s.values.copy()
    a = add_noise(s, NoiseSpec(epsilon=0.2, seed=9))
    b = add_noise(s, NoiseSpec(epsilon=0.2, seed=9))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(s.values, before)  # input unchanged
    c = add_noise(s, NoiseSpec(epsilon=0.2, seed=10))
    assert np.max(np.abs(a.values - c.values)) > 0.0


def test_add_noise_offsets_scale_with_data():
    s = _near_samples()
    scaled = _near_samples(values=3.0 * s.values)
    spec = NoiseSpec(epsilon=0.2, seed=4)
    off = add_noise(s, spec).values - s.values
    off_scaled = add_noise(scaled, spec).values - scaled.values
    np.testing.assert_allclose(off_scaled, 3.0 * off, rtol=1e-13)


def test_draws_are_prefix_stable_per_index():
    # draw j depends only on (seed, j), not on how many draws are requested
    long = normal_complex_draws(11, 64)
    short = normal_complex_draws(11, 10)
    assert np.array_equal(long[:10], short)


def test_near_and_far_noise_independent_at_same_seed():
    pts = near_circle_geometry(4.0, 50)
    values = np.full(50, 1.0 + 0.0j)
    near = FieldSamples(kind="near", locations=pts, values=values, incident=D1)
    far = FieldSamples(kind="far", locations=far_angles(50), values=values, incident=D1)
    spec = NoiseSpec(epsilon=0.2, seed=21)
    off_near = add_noise(near, spec).values - values
    off_far = add_noise(far, spec).values - values
    assert np.max(np.abs(off_near - off_far)) > 1e-3
    np.testing.assert_allclose(
        add_noise(far, NoiseSpec(epsilon=1.0, seed=21)).values - values,
        normal_complex_draws(21, 50, stream=0),
        rtol=0, atol=1e-12,
    )


def test_draw_moments():
    z = normal_complex_draws(7, 100000)
    parts = np.concatenate([z.real, z.imag])
    assert abs(np.mean(parts)) < 0.02
    assert 0.98 < np.var(parts) < 1.02
