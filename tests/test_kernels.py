"""Kernel values, the correlation identity, and its closed-form constant."""

import numpy as np
import pytest

from dsmscat.kernels import (
    WaveContext,
    farfield_correlation,
    green,
    green_farfield,
    lemma_constant,
    lemma_sweep,
)
from dsmscat.special import bessel_j

CTX = WaveContext(k=2.0 * np.pi)


def test_wave_context():
    assert abs(CTX.k * CTX.wavelength - 2.0 * np.pi) < 1e-15
    with pytest.raises(ValueError):
        WaveContext(k=-1.0)
    with pytest.raises(ValueError):
        lemma_constant(CTX, 4)


def test_green_2d_imaginary_part():
    for r in (0.1, 0.38274, 1.0, 3.3):
        g = green(CTX, np.array([0.0, 0.0]), np.array([r, 0.0]))
        assert abs(g.imag - bessel_j(0, 2.0 * np.pi * r) / 4.0) < 1e-13


def test_green_3d_imaginary_limit():
    g = green(CTX, np.zeros(3), np.array([1e-8, 0.0, 0.0]))
    assert abs(g.imag - 1.0 / (4.0 * np.pi)) < 1e-12


def test_green_singularity():
    with pytest.raises(ValueError):
        green(CTX, np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_green_reciprocity():
    rng = np.random.default_rng(3)
    x = rng.uniform(-4, 4, size=(1000, 2))
    y = rng.uniform(-4, 4, size=(1000, 2))
    assert np.all(green(CTX, x, y) == green(CTX, y, x))
    x3 = rng.uniform(-2, 2, size=(200, 3))
    y3 = rng.uniform(-2, 2, size=(200, 3))
    assert np.all(green(CTX, x3, y3) == green(CTX, y3, x3))


def test_farfield_kernel_values():
    y = np.array([0.3, -0.2])
    xhat = np.array([np.cos(0.4), np.sin(0.4)])
    # modulus of the 2D prefactor at k = 2 pi is 1/(4 pi)
    assert abs(abs(green_farfield(CTX, xhat, y)) - 1.0 / (4.0 * np.pi)) < 1e-14
    v0 = green_farfield(CTX, xhat, np.zeros(2))
    assert abs(v0 - np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * CTX.k * np.pi)) < 1e-15
    xhat3 = np.array([0.0, 0.6, 0.8])
    assert abs(abs(green_farfield(CTX, xhat3, np.array([0.1, 0.2, 0.3]))) - 1.0 / (4.0 * np.pi)) < 1e-15


def test_farfield_kernel_direction_check():
    with pytest.raises(ValueError):
        green_farfield(CTX, np.array([1.0, 1.0]), np.zeros(2))


def test_correlation_coincidence_2d():
    x = np.array([0.4, 0.9])
    val = farfield_correlation(CTX, x, x, nquad=256)
    assert abs(val - 1.0 / (8.0 * np.pi)) < 1e-12
    assert abs(val.imag) < 1e-14


def test_correlation_coincidence_3d():
    x = np.array([0.1, -0.3, 0.2])
    val = farfield_correlation(CTX, x, x, nquad=64)
    assert abs(val - 1.0 / (4.0 * np.pi)) < 1e-10


def test_correlation_vanishes_at_first_zero():
    # separation placed exactly at the first J0 zero; the rounded value
    # 0.38274 would leave a residual ~3e-7, so keep full precision here
    xp = np.zeros(2)
    xj = np.array([2.404825557695773 / (2.0 * np.pi), 0.0])
    assert abs(farfield_correlation(CTX, xj, xp, nquad=512)) < 1e-8


def test_correlation_nquad_validation():
    with pytest.raises(ValueError):
        farfield_correlation(CTX, np.zeros(2), np.zeros(2), nquad=8)


def test_lemma_constant_values():
    assert abs(lemma_constant(CTX, 2) - 1.0 / (2.0 * np.pi)) < 1e-15
    assert lemma_constant(CTX, 3) == 1.0
    assert abs(lemma_constant(WaveContext(k=4.0 * np.pi), 2) - 1.0 / (4.0 * np.pi)) < 1e-15


def test_lemma_constant_matches_coincidence_limit():
    # correlation(x, x) / lim Im G must reproduce the hard-coded constant
    x2 = np.array([0.2, 0.5])
    c2 = farfield_correlation(CTX, x2, x2, nquad=256).real / 0.25
    assert abs(c2 - lemma_constant(CTX, 2)) < 1e-10
    x3 = np.array([0.2, 0.5, -0.1])
    c3 = farfield_correlation(CTX, x3, x3, nquad=64).real / (1.0 / (4.0 * np.pi))
    assert abs(c3 - lemma_constant(CTX, 3)) < 1e-10


def test_correlation_identity_sample():
    # correlation(xj, xp) = C * Im G(xp, xj) on random pairs in both dims
    rng = np.random.default_rng(17)
    for dim, rmax, nquad in ((2, 4.0, 512), (3, 2.0, 64)):
        for _ in range(50):
            xj = rng.uniform(-2, 2, dim)
            step = rng.uniform(-1, 1, dim)
            step *= rng.uniform(0, rmax) / np.linalg.norm(step)
            xp = xj + step
            corr = farfield_correlation(CTX, xj, xp, nquad=nquad)
            ref = lemma_constant(CTX, dim) * green(CTX, xp, xj).imag
            assert abs(corr - ref) < 1e-8


def test_lemma_sweep_resolved_2d():
    report = lemma_sweep(CTX, 2, rmax=4.0, npairs=50, nquad=512, seed=1)
    assert report.max_error <= 1e-8
    assert len(report.errors) == 50
    assert np.all(report.separations <= 4.0)


def test_lemma_sweep_resolved_3d():
    report = lemma_sweep(CTX, 3, rmax=2.0, npairs=30, nquad=64, seed=2)
    assert report.max_error <= 1e-8


def test_lemma_sweep_underresolved_reports_not_raises():
    report = lemma_sweep(CTX, 2, rmax=4.0, npairs=30, nquad=16, seed=3)
    assert report.max_error > 1e-3


def test_lemma_sweep_error_drops_as_nquad_doubles():
    errs = [lemma_sweep(CTX, 2, rmax=4.0, npairs=20, nquad=n, seed=4).max_error
            for n in (64, 128, 256, 512)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a or (a < 1e-13 and b < 1e-13)


def test_lemma_sweep_seeded_and_validated():
    a = lemma_sweep(CTX, 2, rmax=4.0, npairs=10, nquad=64, seed=5)
    b = lemma_sweep(CTX, 2, rmax=4.0, npairs=10, nquad=64, seed=5)
    np.testing.assert_array_equal(a.errors, b.errors)
    with pytest.raises(ValueError):
        lemma_sweep(CTX, 2, rmax=4.0, npairs=0, nquad=64)
