"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints a single summary line (visible with ``pytest -s`` or in
the failure report) with the measured quantity and its tolerance, then
asserts.  Criteria 8 and 10 assert documented targets that the method,
as specified, does not reach (see the printed measurements); they fail
honestly rather than being weakened.
"""

import filecmp
import os

import numpy as np
import pytest

from dsmscat import (
    FieldSamples,
    NoiseSpec,
    SamplingGrid,
    WaveContext,
    add_noise,
    build,
    combine_max,
    discretize,
    disk_series_farfield,
    far_angles,
    farfield_correlation,
    green_farfield,
    indicator_grid,
    indicator_values,
    lemma_constant,
    lemma_sweep,
    near_circle_geometry,
    near_to_far_simpson,
    ring_cauchy,
    ring_quadrature_weights,
    scattered_far,
    scattered_near,
    solve_lippmann_schwinger,
    superlevel_components,
)
from dsmscat.cli import main as cli_main
from dsmscat.special import bessel_j

CTX = WaveContext(k=2.0 * np.pi)
GRID = SamplingGrid()
D1 = np.array([1.0, 1.0]) / np.sqrt(2.0)

_PIPELINES: dict = {}


def _pipeline(name, variant=None):
    """Synthesized protocol data per incident: (near, far, cells, current)."""
    key = (name, variant)
    if key not in _PIPELINES:
        scenario = build(name, variant=variant)
        cells = discretize(CTX, scenario.shapes, CTX.wavelength / 50.0)
        near_pts = near_circle_geometry(4.0, 50)
        far_dirs = far_angles(50)
        runs = []
        for d in scenario.incidents:
            current = solve_lippmann_schwinger(CTX, cells, d)
            near = FieldSamples(kind="near", locations=near_pts,
                                values=scattered_near(CTX, current, near_pts),
                                incident=d)
            far = FieldSamples(kind="far", locations=far_dirs,
                               values=scattered_far(CTX, current, far_dirs),
                               incident=d)
            runs.append((near, far, cells, current))
        _PIPELINES[key] = runs
    return _PIPELINES[key]


def _image(samples_list):
    return combine_max([indicator_grid(CTX, s, GRID) for s in samples_list])


def _report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_lemma_identity():
    err2 = lemma_sweep(CTX, 2, rmax=4.0, npairs=200,
                       nquad=512, seed=101).max_error
    err3 = lemma_sweep(CTX, 3, rmax=4.0, npairs=200,
                       nquad=64, seed=102).max_error
    ok = err2 <= 1e-8 and err3 <= 1e-8
    _report(1, ok, f"correlation identity: max err 2D={err2:.2e}, 3D={err3:.2e} (tol 1e-8)")
    assert err2 <= 1e-8
    assert err3 <= 1e-8


def test_criterion_02_lemma_constant_closed_forms():
    z = np.array([0.3, -0.4])
    c2 = farfield_correlation(CTX, z, z, nquad=512).real / 0.25
    z3 = np.array([0.3, -0.4, 0.1])
    c3 = farfield_correlation(CTX, z3, z3, nquad=64).real / (1.0 / (4.0 * np.pi))
    e2 = abs(c2 - lemma_constant(CTX, 2))
    e3 = abs(c3 - lemma_constant(CTX, 3))
    ok = e2 <= 1e-10 and e3 <= 1e-10
    _report(2, ok, f"constants C=1/k and C=1 reproduced: err 2D={e2:.2e}, 3D={e3:.2e} (tol 1e-10)")
    assert e2 <= 1e-10
    assert e3 <= 1e-10


def test_criterion_03_point_source_indicator_law():
    dirs = far_angles(50)
    data = FieldSamples(kind="far", locations=dirs,
                        values=green_farfield(CTX, dirs, np.zeros(2)), incident=D1)
    values = indicator_grid(CTX, data, GRID).values.ravel()
    nodes = GRID.nodes()
    r = np.hypot(nodes[:, 0], nodes[:, 1])
    law = np.abs(bessel_j(0, CTX.k * r))
    inside = r <= 1.0
    worst = float(np.max(np.abs(values[inside] - law[inside])))
    ok = worst <= 0.02
    _report(3, ok, f"grid indicator vs |J0(kr)| for r <= 1: max dev {worst:.4f} (tol 0.02)")
    assert worst <= 0.02


def test_criterion_04_point_scatterer_location_under_noise():
    near, far, _, _ = _pipeline("ex1")[0]
    worst = 0.0
    for clean in (near, far):
        for eps, seeds in ((0.0, (0,)), (0.2, tuple(range(10)))):
            for seed in seeds:
                data = clean if eps == 0.0 else add_noise(clean, NoiseSpec(eps, seed))
                offset = np.hypot(*_image([data]).argmax_point())
                worst = max(worst, float(offset))
    ok = worst <= 0.05
    _report(4, ok, f"ex1 argmax offset, both kinds, eps in {{0, 0.2}} x 10 seeds: "
                   f"worst {worst:.4f} (tol 0.05)")
    assert worst <= 0.05


def test_criterion_05_two_squares_components():
    near, far, _, _ = _pipeline("ex2")[0]
    truth = np.array([[-0.8, -0.7], [0.3, 0.8]])
    counts, worst = [], 0.0
    for clean in (near, far):
        for eps in (0.0, 0.2):
            data = clean if eps == 0.0 else add_noise(clean, NoiseSpec(eps, 0))
            comps = superlevel_components(_image([data]), 0.75)
            counts.append(len(comps))
            centroids = np.array([c.centroid for c in comps])
            for target in truth:
                gaps = np.hypot(centroids[:, 0] - target[0], centroids[:, 1] - target[1])
                worst = max(worst, float(np.min(gaps)))
    ok = all(c == 2 for c in counts) and worst <= 0.1
    _report(5, ok, f"ex2 cutoff 0.75: components {counts} (want all 2), "
                   f"worst centroid error {worst:.3f} (tol 0.1)")
    assert all(c == 2 for c in counts)
    assert worst <= 0.1


def test_criterion_06_resolution_limit():
    got = {}
    for variant, want in ((None, 2), (("close"), 1)):
        near, far, _, _ = _pipeline("ex3", variant)[0]
        got[variant] = [len(superlevel_components(_image([data]), 0.75))
                        for data in (near, far)]
    ok = got[None] == [2, 2] and got["close"] == [1, 1]
    _report(6, ok, f"ex3 cutoff 0.75: separation 0.5 -> {got[None]} components (want 2), "
                   f"0.2 -> {got['close']} (want 1)")
    assert got[None] == [2, 2]
    assert got["close"] == [1, 1]


def test_criterion_07_forward_solver_oracle():
    from dsmscat import ShapeSpec

    disk = ShapeSpec(kind="disk", center=(0.0, 0.0), radius=0.3, nsq=1.5)
    cells = discretize(CTX, [disk], CTX.wavelength / 40.0)
    current = solve_lippmann_schwinger(CTX, cells, D1)
    dirs = far_angles(50)
    numeric = scattered_far(CTX, current, dirs)
    exact = disk_series_farfield(CTX, 0.3, 1.5, D1, dirs)
    err = float(np.linalg.norm(numeric - exact) / np.linalg.norm(exact))
    ok = err <= 0.02
    _report(7, ok, f"disk far field, collocation vs series at h=1/40: "
                   f"rel L2 error {err:.4f} (tol 0.02)")
    assert err <= 0.02


def test_criterion_08_near_to_far_rule():
    weights = ring_quadrature_weights()
    const_err = abs(np.sum(weights) * (2.0 + 1.0j) - 10.0 * np.pi * (2.0 + 1.0j))
    const_err /= abs(10.0 * np.pi * (2.0 + 1.0j))
    _, _, cells, current = _pipeline("ex1")[0]
    ring = ring_cauchy(CTX, current, radius=5.0, count=51)
    dirs = far_angles(50)
    approx = near_to_far_simpson(CTX, ring, dirs)
    exact = scattered_far(CTX, current, dirs)
    err = float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
    ok = const_err <= 1e-13 and err <= 0.005
    _report(8, ok, f"ring rule: constant identity err {const_err:.1e} (tol 1e-13); "
                   f"ex1 near-to-far vs direct rel error {err:.4f} (tol 0.005)")
    assert const_err <= 1e-13
    # the fixed 51-node alternating-weight rule aliases the high Fourier
    # mode of the translated kernel; measured error is ~0.57
    assert err <= 0.005


def test_criterion_09_range_and_invariances():
    near, far, _, _ = _pipeline("ex1")[0]
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    raw = np.array(
        [indicator_values(CTX, far, p) for p in pts]
        + [indicator_values(CTX, near, p) for p in pts]
    )
    in_range = raw.min() >= 0.0 and raw.max() <= 1.0
    norms = np.linalg.norm(green_farfield(CTX, far.locations[:, None, :],
                                          pts[None, :, :]), axis=0)
    spread = float((norms.max() - norms.min()) / norms.max())
    scale_dev = 0.0
    for clean in (near, far):
        scaled = FieldSamples(kind=clean.kind, locations=clean.locations,
                              values=(7.0 - 3.0j) * clean.values, incident=clean.incident)
        delta = np.abs(_image([clean]).values - _image([scaled]).values)
        scale_dev = max(scale_dev, float(delta.max()))
    ok = in_range and spread <= 1e-14 and scale_dev <= 1e-12
    _report(9, ok, f"range [0,1]: {in_range}; far denominator spread {spread:.1e} "
                   f"(tol 1e-14); scaling deviation {scale_dev:.1e} (tol 1e-12)")
    assert in_range
    assert spread <= 1e-14
    assert scale_dev <= 1e-12


def test_criterion_10_crack_geometry():
    near6, far6, _, _ = _pipeline("ex6")[0]
    aspects = []
    for data in (near6, far6):
        comp = superlevel_components(_image([data]), 0.7)[0]
        width, height = comp.hi - comp.lo
        aspects.append(max(width, height) / max(min(width, height), 1e-12))
    runs7 = _pipeline("ex7", "two-incident")
    spans = []
    for idx in (0, 1):  # near, far
        comp = superlevel_components(_image([run[idx] for run in runs7]), 0.7)[0]
        spans.append(tuple(comp.hi - comp.lo))
    covered = all(w >= 0.6 and h >= 0.6 for w, h in spans)
    ok = max(aspects) >= 3.0 and covered
    _report(10, ok, f"ex6 bbox aspect near/far {aspects[0]:.3f}/{aspects[1]:.3f} (want >= 3); "
                    f"ex7 bbox spans {spans} (want each >= 0.6)")
    assert covered
    # the 0.1-thick crack blurs to the |J0| point-spread width; measured
    # aspect is ~2.76 at cutoff 0.7 for both data kinds
    assert max(aspects) >= 3.0


def test_criterion_11_reproduce_determinism(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        rc = cli_main(["reproduce", "--example", "ex1", "--epsilon", "0.2",
                       "--seed", "3", "--outdir", out])
        assert rc == 0
    names = sorted(n for n in os.listdir(out_a) if n.endswith((".csv", ".ppm")))
    assert names, "reproduce produced no artifacts"
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    ok = not mismatch and not errors
    _report(11, ok, f"reproduce twice: {len(match)} artifacts byte-identical, "
                    f"mismatched {mismatch}, unreadable {errors}")
    assert not mismatch
    assert not errors
