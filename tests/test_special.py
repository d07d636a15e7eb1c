"""Accuracy and property tests for the from-scratch Bessel implementations.

Reference values were computed once with mpmath at 30 significant digits
and are frozen here; the zero-location checks additionally rebuild their
own power-series evaluator so they do not depend on the package code.
"""

import math

import numpy as np
import pytest

from dsmscat.special import (
    _miller_jn,
    bessel_j,
    bessel_y,
    hankel1,
)

# (x, value) pairs, mpmath besselj/bessely at 30 digits
J0_TABLE = [
    (1e-06, 0.99999999999975000),
    (0.25, 0.98443592929585270),
    (0.5, 0.93846980724081290),
    (1.0, 0.76519768655796655),
    (2.0, 0.22389077914123567),
    (2.404825557695773, -1.2011950073676858e-16),
    (4.0, -0.39714980986384737),
    (5.52, -2.6578369479936240e-5),
    (7.99, 0.17399001312793263),
    (8.0, 0.17165080713755391),
    (8.01, 0.16929736911054291),
    (10.0, -0.24593576445134834),
    (11.99, 0.045451560352858556),
    (12.0, 0.047689310796833537),
    (12.01, 0.049920430319825402),
    (15.0, -0.014224472826780773),
    (19.99, 0.16768479902327916),
    (20.0, 0.16702466434058315),
    (20.01, 0.16634816148968921),
    (25.0, 0.096266783275958116),
    (31.4159, 0.10024835503280884),
    (50.0, 0.055812327669251815),
    (75.0, 0.034643913805097056),
    (100.0, 0.019985850304223122),
]
J1_TABLE = [
    (1e-06, 4.9999999999993750e-7),
    (0.25, 0.12402597732272692),
    (0.5, 0.24226845767487389),
    (1.0, 0.44005058574493352),
    (2.0, 0.57672480775687339),
    (2.404825557695773, 0.51914749728946674),
    (4.0, -0.066043328023549136),
    (5.52, -0.34026962040828964),
    (7.99, 0.23320071425350174),
    (8.0, 0.23463634685391462),
    (8.01, 0.23604710363083403),
    (10.0, 0.043472746168861437),
    (11.99, -0.22409937126624864),
    (12.0, -0.22344710449062761),
    (12.01, -0.22277320092970320),
    (15.0, 0.20510403861352276),
    (19.99, 0.065192578142166357),
    (20.0, 0.066833124175850046),
    (20.01, 0.068466185258794204),
    (25.0, -0.12535024958028990),
    (31.4159, -0.099471915909517392),
    (50.0, -0.097511828125175138),
    (75.0, -0.085139995044829104),
    (100.0, -0.077145352014112158),
]
Y0_TABLE = [
    (1e-06, -8.8690314816594437),
    (0.25, -0.93157302493005869),
    (0.5, -0.44451873350670656),
    (1.0, 0.088256964215676958),
    (2.0, 0.51037567264974512),
    (2.404825557695773, 0.50992438344847905),
    (4.0, -0.016940739325064992),
    (5.52, -0.33893850978546150),
    (7.99, 0.22192874178576450),
    (8.0, 0.22352148938756622),
    (8.01, 0.22508990929357917),
    (10.0, 0.055671167283599391),
    (11.99, -0.22579726844017594),
    (12.0, -0.22523731263436143),
    (12.01, -0.22465530910012394),
    (15.0, 0.20546429603891826),
    (19.99, 0.060981961814838566),
    (20.0, 0.062640596809383831),
    (20.01, 0.064292140251674291),
    (25.0, -0.12724943226800614),
    (31.4159, -0.10105423801795153),
    (50.0, -0.098064995470077079),
    (75.0, -0.085369047647775610),
    (100.0, -0.077244313365083152),
]
Y1_TABLE = [
    (1e-06, -636619.77237217501),
    (0.25, -2.7041052293152824),
    (0.5, -1.4714723926702431),
    (1.0, -0.78121282130028872),
    (2.0, -0.10703243154093755),
    (2.404825557695773, 0.10274668243825965),
    (4.0, 0.39792571055710001),
    (5.52, -0.030444278398032445),
    (7.99, -0.16048695141166470),
    (8.0, -0.15806046173124749),
    (8.01, -0.15562145403809820),
    (10.0, 0.24901542420695388),
    (11.99, -0.054890709260874904),
    (12.0, -0.057099218260896521),
    (12.01, -0.059300219741260498),
    (15.0, 0.021073628036873512),
    (19.99, -0.16621268550210396),
    (20.0, -0.16551161436252130),
    (20.01, -0.16479438815068477),
    (25.0, -0.098829964783237410),
    (31.4159, -0.10186895510840350),
    (50.0, -0.056795668562014768),
    (75.0, -0.035213785160580486),
    (100.0, -0.020372312002759793),
]
JN_TABLE = [
    (2, 0.5, 0.030604023458682641),
    (2, 3.0, 0.48609126058589108),
    (3, 1.0, 0.019563353982668406),
    (5, 2.0, 0.0070396297558716855),
    (5, 20.0, 0.15116976798239497),
    (8, 8.0, 0.22345498635110295),
    (10, 1.0, 2.6306151236874532e-10),
    (10, 30.0, -0.12987689399858877),
    (15, 12.0, 0.031612654367674776),
    (22, 1.8849555921538759, 2.3249421544328894e-22),
    (30, 30.0, 0.14393585001030721),
    (40, 10.0, 6.0308953123469066e-21),
    (60, 0.5, 9.0319327113893073e-119),
    (60, 55.0, 0.019046683078586297),
    (60, 100.0, 0.0010631563042277031),
    (70, 30.0, 6.9103567374584152e-20),
]
YN_TABLE = [
    (2, 0.5, -5.4413708371742657),
    (2, 10.0, -0.0058680824422086146),
    (3, 2.0, -1.1277837768404278),
    (5, 5.0, -0.45369482249110188),
    (8, 1.0, -425674.61848650669),
    (10, 50.0, 0.0057238971820535135),
    (22, 1.8849555921538759, -6.2462396008705450e+19),
    (25, 100.0, 0.020296185967839005),
]


def test_j0_j1_table():
    for x, ref in J0_TABLE:
        assert abs(bessel_j(0, x) - ref) < 1e-12, f"J0({x})"
    for x, ref in J1_TABLE:
        assert abs(bessel_j(1, x) - ref) < 1e-12, f"J1({x})"


def test_y0_y1_table():
    for x, ref in Y0_TABLE:
        assert abs(bessel_y(0, x) - ref) < 1e-10, f"Y0({x})"
    for x, ref in Y1_TABLE:
        # Y1 blows up like -2/(pi x); compare relatively near the origin
        tol = 1e-10 * max(1.0, abs(ref))
        assert abs(bessel_y(1, x) - ref) < tol, f"Y1({x})"


def test_higher_orders():
    for n, x, ref in JN_TABLE:
        assert abs(bessel_j(n, x) - ref) < 1e-12 + 1e-12 * abs(ref), f"J{n}({x})"
    for n, x, ref in YN_TABLE:
        assert abs(bessel_y(n, x) - ref) < 1e-9 * max(1.0, abs(ref)), f"Y{n}({x})"


def test_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def _independent_j0(x):
    # plain ascending series, coded without touching the package internals
    acc = term = 1.0
    for m in range(1, 40):
        term *= -(x * x / 4.0) / (m * m)
        acc += term
    return acc


def _independent_y0(x):
    gamma = 0.5772156649015328606
    acc = 0.0
    term = 1.0
    harm = 0.0
    for m in range(1, 40):
        term *= -(x * x / 4.0) / (m * m)
        harm += 1.0 / m
        acc -= term * harm
    return 2.0 / math.pi * ((math.log(x / 2.0) + gamma) * _independent_j0(x) + acc)


def _bisect(f, lo, hi):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_first_zero_of_j0():
    zero = _bisect(_independent_j0, 2.0, 3.0)
    assert abs(zero - 2.404825557695773) < 1e-12
    assert abs(bessel_j(0, zero)) < 1e-10


def test_first_zero_of_y0():
    zero = _bisect(_independent_y0, 0.5, 1.5)
    assert abs(zero - 0.893576966279168) < 1e-12
    assert abs(bessel_y(0, zero)) < 1e-8


def test_y0_log_trend():
    assert bessel_y(0, 1e-6) < -8.0


def test_recurrence_property():
    # J_{n-1} + J_{n+1} = (2n/x) J_n
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(0.5, 50.0, 60), [0.5, 8.0, 12.0, 20.0, 50.0]])
    for n in range(1, 21):
        lhs = bessel_j(n - 1, xs) + bessel_j(n + 1, xs)
        rhs = (2.0 * n / xs) * bessel_j(n, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_wronskian_property():
    # J1 Y0 - J0 Y1 = 2/(pi x)
    xs = np.linspace(0.5, 50.0, 397)
    w = bessel_j(1, xs) * bessel_y(0, xs) - bessel_j(0, xs) * bessel_y(1, xs)
    assert np.max(np.abs(w - 2.0 / (np.pi * xs))) < 1e-9


def test_plane_wave_expansion():
    # exp(i t cos psi) = sum_m i^m J_m(t) e^{i m psi}, truncated at t + 40
    for t in (5.0, 17.3, 30.0):
        m_max = int(t) + 40
        jm = np.array([bessel_j(m, t) for m in range(m_max + 1)])
        for psi in (0.0, 0.731, 2.0, np.pi):
            acc = jm[0] + 0j
            for m in range(1, m_max + 1):
                # J_{-m} = (-1)^m J_m, and i^{-m} (-1)^m = i^m, so the
                # m and -m terms pair into 2 i^m J_m cos(m psi)
                acc += 2.0 * (1j ** m) * jm[m] * np.cos(m * psi)
            assert abs(acc - np.exp(1j * t * np.cos(psi))) < 1e-10


def test_hankel_composition():
    h = hankel1(0, 1.0)
    assert h.real == bessel_j(0, 1.0)
    assert h.imag == bessel_y(0, 1.0)
    # far-field modulus of H0 at large argument
    assert abs(abs(hankel1(0, 50.0)) - math.sqrt(2.0 / (math.pi * 50.0))) < 0.02 * abs(hankel1(0, 50.0))
    # Im(i H0 / 4) = J0/4
    assert abs((0.25j * hankel1(0, 0.7)).imag - bessel_j(0, 0.7) / 4.0) < 1e-14
    h1 = hankel1(1, 2.5)
    assert h1 == bessel_j(1, 2.5) + 1j * bessel_y(1, 2.5)


def test_orders_0_1_against_scipy():
    # scipy is a test-only oracle; the tolerances were fixed before the
    # evaluator was rewritten (J absolute, Y and H relative above 1)
    special = pytest.importorskip("scipy.special")
    bands = [b + d for b in (8.0, 12.0, 14.0) for d in (-1e-9, 0.0, 1e-9)]
    x = np.concatenate([np.logspace(-6, 2, 20000), bands])
    for n in (0, 1):
        assert np.max(np.abs(bessel_j(n, x) - special.jv(n, x))) <= 1e-12, f"J{n}"
        y_ref = special.yv(n, x)
        assert np.all(np.abs(bessel_y(n, x) - y_ref) <= 1e-10 * np.maximum(1.0, np.abs(y_ref))), f"Y{n}"
        h_ref = special.hankel1(n, x)
        assert np.all(np.abs(hankel1(n, x) - h_ref) <= 1e-10 * np.maximum(1.0, np.abs(h_ref))), f"H{n}"


def test_miller_rows_against_scipy():
    # every row J_0..J_M of one backward sweep, x = 0 included; orders up to
    # 300 force the overflow rescaling at small x
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([[0.0], np.logspace(-3, np.log10(40.0), 500)])
    rows = _miller_jn(60, x)
    assert rows.shape == (61, x.size)
    assert np.max(np.abs(rows - special.jv(np.arange(61)[:, None], x))) <= 1e-13
    x = np.array([0.05, 1.0, 75.0])
    rows = _miller_jn(300, x)
    assert np.max(np.abs(rows - special.jv(np.arange(301)[:, None], x))) <= 1e-13
    # bessel_j takes its row of the same sweep
    x = np.linspace(8.0, 30.0, 50)
    np.testing.assert_array_equal(_miller_jn(5, x)[5], bessel_j(5, x))


def test_higher_orders_against_scipy():
    # orders >= 2 take their row of one Miller sweep over every x, x = 0
    # and the small arguments the ascending series used to serve included;
    # the bound is the documented one
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([[0.0], np.logspace(-6, 2, 4000)])
    for n in range(2, 81):
        assert np.max(np.abs(bessel_j(n, x) - special.jv(n, x))) <= 1e-12, f"J{n}"


def test_array_and_scalar_forms():
    xs = np.array([0.5, 8.0, 15.0, 40.0])
    vec = bessel_j(0, xs)
    assert isinstance(vec, np.ndarray) and vec.shape == xs.shape
    for i, x in enumerate(xs):
        assert vec[i] == bessel_j(0, float(x))
    assert isinstance(bessel_j(0, 1.0), float)
    assert isinstance(hankel1(0, 1.0), complex)


def test_negative_argument_symmetry():
    # J0 even, J1 odd
    assert bessel_j(0, -3.7) == bessel_j(0, 3.7)
    assert bessel_j(1, -3.7) == -bessel_j(1, 3.7)
    assert bessel_j(3, -2.0) == -bessel_j(3, 2.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0, np.inf)
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_y(0, -1.0)
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        hankel1(0, -2.0)


def test_hankel1_rejects_bad_orders():
    for order in (-1, 2.5):
        with pytest.raises(ValueError, match="order"):
            hankel1(order, 1.0)


def test_hankel1_rows_equal_bessel_j_and_y_bitwise():
    x = np.concatenate([np.linspace(1e-3, 60.0, 2001), [1e-6, 0.5, 100.0]])
    for n in range(2, 11):
        h = hankel1(n, x)
        np.testing.assert_array_equal(h.real, bessel_j(n, x), err_msg=f"J{n}")
        np.testing.assert_array_equal(h.imag, bessel_y(n, x), err_msg=f"Y{n}")
    assert hankel1(4, 3.0) == complex(bessel_j(4, 3.0), bessel_y(4, 3.0))


def test_complex_arithmetic_invariants():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.all(np.abs(z) ** 2 >= 0)
    assert np.allclose(np.abs(z) ** 2, z.real**2 + z.imag**2)
    assert np.all(np.conj(np.conj(z)) == z)
    assert np.allclose(np.abs(z * w), np.abs(z) * np.abs(w), rtol=1e-13)
