"""Real-argument Bessel functions and related helpers.

Everything here is implemented from scratch on top of numpy so the
accuracy of every kernel evaluation is testable inside this repo.
Complex field values are plain Python/numpy ``complex`` numbers; modulus
and argument come from ``abs`` and ``numpy.angle``.

Orders 0 and 1, the hot path for kernel sweeps, share one evaluator,
``_bessel01``, which returns J + iY band by band:

* one ascending power-series loop gives J and Y together from the same
  terms; it serves J for x <= 8 and Y for x <= 12,
* Miller's backward recurrence, normalized by J0 + 2*sum J_{2m} = 1,
  gives J for 8 < x <= 14, where the series cancels too much and the
  asymptotic expansion is not yet accurate,
* Hankel's large-argument expansion gives J for x > 14 and Y for x > 12.

That backward recurrence, ``_miller_jn``, is the package's source of J
for higher orders: a sweep returns every J_0 .. J_n at once.  (Only
``indicators._graf_hankel`` recurs upward from J0 and J1, for orders
below its one large argument.)  Y of higher orders comes from upward
recurrence on Y0 and Y1.  All public
functions are vectorized; scalars in give scalars out.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.57721566490153286060651209008240243


def _pq_coeffs(nu: int):
    """Signed coefficients of P (even m) and Q (odd m), highest power first.

    The Hankel coefficients a_m(nu) = prod_{j<=m} (4 nu^2 - (2j-1)^2) / (m! 8^m)
    are computed exactly in integer arithmetic and rounded once.
    """
    num, den, signed = 1, 1, [1.0]
    for m in range(1, 25):
        num *= 4 * nu * nu - (2 * m - 1) ** 2
        den *= m * 8
        signed.append((-1) ** (m // 2) * num / den)
    return signed[0::2][::-1], signed[1::2][::-1]


_PQ = (_pq_coeffs(0), _pq_coeffs(1))


def _horner(coeffs, t: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(t)
    for c in coeffs:
        acc *= t
        acc += c
    return acc


def _asymptotic_pq(nu: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and Q sums of the Hankel expansion H_nu ~ sqrt(2/(pi x)) e^{i chi} (P + iQ)."""
    inv = 1.0 / x
    inv2 = inv * inv
    p_coeffs, q_coeffs = _PQ[nu]
    return _horner(p_coeffs, inv2), _horner(q_coeffs, inv2) * inv


def _asymptotic01(nu: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_nu and Y_nu (nu = 0, 1) from Hankel's expansion; accurate for x > 12."""
    p, q = _asymptotic_pq(nu, x)
    chi = x - (0.25 + 0.5 * nu) * np.pi
    c, s = np.cos(chi), np.sin(chi)
    amp = np.sqrt(2.0 / (np.pi * x))
    return amp * (p * c - q * s), amp * (p * s + q * c)


# The series below runs m = 0.._SERIES_TERMS-1; at x = 12, the top of its
# band, the first omitted term is below 1e-19.
_SERIES_TERMS = 31


def _series_tables(nu: int):
    """Divisors m (m + nu) of the term recurrence and weights H_m + H_{m+nu}."""
    harmonic = [0.0]
    for j in range(1, _SERIES_TERMS + 1):
        harmonic.append(harmonic[-1] + 1.0 / j)
    divisors = [float(m * (m + nu)) for m in range(_SERIES_TERMS)]
    weights = [harmonic[m] + harmonic[m + nu] for m in range(_SERIES_TERMS)]
    return divisors, weights


_SERIES = (_series_tables(0), _series_tables(1))


def _series01(nu: int, x: np.ndarray):
    """J_nu and Y_nu (nu = 0, 1) from one ascending series loop.

    With t_m = (-x^2/4)^m / (m! (m+nu)!) and H_m the harmonic number
    (DLMF 10.2.2 and 10.8.1):

        J_nu = (x/2)^nu sum t_m
        Y_nu = (2/pi)(ln(x/2) + gamma) J_nu - (x/2)^nu / pi sum (H_m + H_{m+nu}) t_m
               - nu 2/(pi x)
    """
    divisors, weights = _SERIES[nu]
    nx2 = -0.25 * x * x
    term = np.ones_like(x)
    sum_j = np.ones_like(x)
    sum_y = np.full_like(x, weights[0])
    for m in range(1, _SERIES_TERMS):
        term *= nx2
        term /= divisors[m]
        sum_j += term
        sum_y += weights[m] * term
    lead = 0.5 * x if nu else 1.0
    j = lead * sum_j
    y = (2.0 / np.pi) * (np.log(0.5 * x) + _EULER_GAMMA) * j - (lead / np.pi) * sum_y
    if nu:
        y -= 2.0 / (np.pi * x)
    return j, y


def _miller_jn(order: int, x):
    """J_0 .. J_order at each x >= 0 as the rows of an (order + 1, x.size)
    array, by one backward recurrence normalized by J0 + 2 sum J_2m = 1.

    One start rule serves every row to absolute accuracy (Gautschi, SIAM
    Rev. 9 (1967) 24), and the overflow rescaling runs only when the sweep
    could overflow.
    """
    xmin = float(x.min(initial=1.0))
    if xmin == 0.0:  # J_m(0) = [m == 0]; 1.0 stands in during the sweep
        zero = x == 0.0
        rows = _miller_jn(order, np.where(zero, 1.0, x))
        rows[:, zero] = 0.0
        rows[0, zero] = 1.0
        return rows
    xmax = float(x.max(initial=0.0))
    # decay of J_m(x) sets in around m = x + O(x^{1/3})
    top = max(order, int(xmax))
    start = top + 16 + int(16.0 * (0.5 * max(xmax, 1.0)) ** (1.0 / 3.0))
    start += start % 2  # even start keeps the normalization sum aligned
    # |f_{m-1}| <= (2m/x + 1) max(|f_m|, |f_{m+1}|) and f starts at 1e-30, so
    # f stays below 1e250 unless prod_{m <= start} (1 + 2m/x_min) passes 1e280;
    # with h = x_min/2 that product is h^-start Gamma(start + 1 + h) / Gamma(1 + h)
    h = 0.5 * xmin
    guard = math.lgamma(start + 1.0 + h) - math.lgamma(1.0 + h) - start * math.log(h) > math.log(1e280)
    rows = np.empty((order + 1, x.size))
    two_over_x = 2.0 / x
    fp = np.zeros_like(x)
    f = np.full_like(x, 1e-30)
    fm = np.empty_like(x)
    even = np.zeros_like(x)  # f_2 + f_4 + ...
    for m in range(start, 0, -1):
        # f_{m-1} = (2m / x) f_m - f_{m+1}, in place
        np.multiply(two_over_x, m, out=fm)
        fm *= f
        fm -= fp
        fp, f, fm = f, fm, fp
        if 2 <= m - 1 <= order:
            rows[m - 1] = f
        if m % 2 and m > 1:
            even += f
        if guard and np.abs(f).max() > 1e250:
            scale = np.where(np.abs(f) > 1e250, 1e-250, 1.0)
            f *= scale
            fp *= scale
            even *= scale
            rows[max(m - 1, 2):] *= scale
    # rows 0 and 1 are the last f and fp
    norm = 2.0 * even + f
    rows[2:] /= norm
    np.divide(f, norm, out=rows[0])
    if order:
        np.divide(fp, norm, out=rows[1])
    return rows


# Points per pass of _bessel01: small enough that the temporaries of every
# band stay in cache, so a sweep over millions of points needs no more
# memory than its result.
_BLOCK = 16384


def _bessel01(nu: int, x: np.ndarray) -> np.ndarray:
    """J_nu(x) + i Y_nu(x) for nu = 0, 1 and x > 0, band by band."""
    out = np.empty(x.shape, dtype=complex)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat_x.size, _BLOCK):
        v = flat_x[start:start + _BLOCK]
        o = flat_out[start:start + _BLOCK]
        band = v <= 12.0
        if np.any(band):
            o.real[band], o.imag[band] = _series01(nu, v[band])
        band = v > 12.0
        if np.any(band):
            o.real[band], o.imag[band] = _asymptotic01(nu, v[band])
        # J on 8 < x <= 14 replaces whatever the bands above wrote there
        band = (v > 8.0) & (v <= 14.0)
        if np.any(band):
            o.real[band] = _miller_jn(1, v[band])[nu]
    return out


def _as_array(x, name="x"):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_order(order) -> int:
    if order < 0 or order != int(order):
        raise ValueError("order must be a nonnegative integer")
    return int(order)


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order(x), order >= 0, finite real x.

    Absolute error stays below 1e-12 on |x| <= 100.  Orders 0 and 1 come
    from ``_bessel01``, higher orders from their row of one Miller sweep.
    """
    order = _check_order(order)
    arr = _as_array(x)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    ax = np.abs(arr)
    if order <= 1:
        zero = ax == 0.0  # J0(0) = 1 and J1(0) = 0, where Y is singular
        out = np.where(zero, 1.0 - order, _bessel01(order, np.where(zero, 1.0, ax)).real)
    else:
        out = _miller_jn(order, ax)[order]
    if order % 2 == 1:
        out[arr < 0] *= -1.0  # odd orders are odd functions
    return float(out[0]) if scalar else out


def _positive_array(x, name):
    arr = np.atleast_1d(_as_array(x))
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} requires x > 0")
    return arr


def bessel_y(order: int, x):
    """Bessel function of the second kind Y_order(x), x > 0.

    Absolute error stays below 1e-10 * max(1, |Y|) on 1e-6 <= x <= 100.
    Raises ValueError at x <= 0 (logarithmic branch point).
    """
    order = _check_order(order)
    scalar = np.ndim(x) == 0
    arr = _positive_array(x, "bessel_y")
    out = _bessel01(order, arr).imag if order <= 1 else _y_rows(order, arr)[order]
    return float(out[0]) if scalar else out


def _y_rows(order: int, x):
    """Y_0 .. Y_order (order >= 1) at each x > 0 as the rows of an
    (order + 1, x.size) array, by upward recurrence (stable for Y)."""
    rows = np.empty((order + 1, x.size))
    rows[0], rows[1] = _bessel01(0, x).imag, _bessel01(1, x).imag
    for m in range(1, order):
        rows[m + 1] = (2.0 * m / x) * rows[m] - rows[m - 1]
    return rows


def hankel1(order: int, x):
    """Hankel function of the first kind: J_order(x) + i Y_order(x), x > 0."""
    scalar = np.ndim(x) == 0
    arr = _positive_array(x, "hankel1")
    order = _check_order(order)
    if order <= 1:
        out = _bessel01(order, arr)
    else:
        out = _miller_jn(order, arr)[order] + 1j * _y_rows(order, arr)[order]
    return complex(out[0]) if scalar else out
