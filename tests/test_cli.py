import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from dsmscat import errors
from dsmscat.cli import atomic_write, main, parse_config, read_samples, _parse_shape, write_indicator_csv
from dsmscat.errors import ConfigError, DiscretizationError
from dsmscat.indicators import IndicatorGrid, SamplingGrid
from dsmscat.kernels import LemmaSweepReport


def _write(path, text):
    path.write_text(text)
    return str(path)


def _main_recording_warnings(argv):
    """main(argv) and the list of warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return main(argv), caught


def _scaled_far_file(tmp_path, factor):
    """Far data of a disk of radius 0.2 with every value times factor."""
    data = tmp_path / "data"
    if not data.exists():
        cfg = _write(tmp_path / "disk.txt", "shape = disk 0 0 0.2 nsq 2\nincidents = 0\nfar.count = 16\n")
        assert main(["synthesize", "--config", cfg, "--outdir", str(data)]) == 0
    header, *rows = (data / "custom_far_inc0_eps0.csv").read_text().splitlines()
    scaled = [header]
    for row in rows:
        theta, re_part, im_part = row.split(",")
        scaled.append(f"{theta},{float(re_part) * factor!r},{float(im_part) * factor!r}")
    return _write(tmp_path / f"far_{factor:g}.csv", "\n".join(scaled) + "\n")


def test_parse_config_basics():
    cfg = parse_config(
        """
        # protocol
        scenario = ex2
        k = 6.283185307179586
        noise.epsilon = 0, 0.2   # sweep
        shape = square 0 0 0.3 eta 1
        shape = disk 1 0 0.2 nsq 1.5
        """
    )
    assert cfg["scenario"] == ["ex2"]
    assert cfg["noise.epsilon"] == ["0, 0.2"]
    assert len(cfg["shape"]) == 2


def test_parse_config_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config("scenario ex1")
    with pytest.raises(ConfigError):
        parse_config("flavor = vanilla")
    with pytest.raises(ConfigError):
        parse_config("scenario =")


def test_shape_line_parsing():
    s = _parse_shape("square 0.1 -0.2 0.3 eta 1")
    assert (s.kind, s.center, s.side, s.eta) == ("square", (0.1, -0.2), 0.3, 1.0)
    s = _parse_shape("ring 0 0 0.6 0.4 eta 1")
    assert (s.outer_side, s.inner_side) == (0.6, 0.4)
    s = _parse_shape("bar 0 0 1.0 0.1 90 nsq 1+50j")
    assert s.angle == pytest.approx(np.pi / 2.0)
    assert s.nsq == 1.0 + 50.0j
    for bad in ("square 0 0 0.3", "blob 0 0 1 eta 1", "square 0 0 0.3 rho 1",
                "square 0 0 x eta 1"):
        with pytest.raises(ConfigError):
            _parse_shape(bad)


def test_synthesize_ex1_writes_protocol_files(tmp_path):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    out = tmp_path / "data"
    assert main(["synthesize", "--config", cfg, "--outdir", str(out)]) == 0
    far = out / "ex1_far_inc0_eps0.csv"
    near = out / "ex1_near_inc0_eps0.csv"
    assert far.exists() and near.exists()
    far_lines = far.read_text().splitlines()
    assert far_lines[0] == "# kind=far k=6.283185307179586 incident_deg=45.0"
    assert len(far_lines) == 51  # header + 50 angles
    near_lines = near.read_text().splitlines()
    assert near_lines[0] == "# kind=near k=6.283185307179586 incident_deg=45.0"
    assert len(near_lines[1].split(",")) == 4


def test_synthesize_epsilon_sweep_file_count(tmp_path):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\nnoise.epsilon = 0, 0.2\n")
    out = tmp_path / "data"
    assert main(["synthesize", "--config", cfg, "--outdir", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "ex1_far_inc0_eps0.2.csv",
        "ex1_far_inc0_eps0.csv",
        "ex1_near_inc0_eps0.2.csv",
        "ex1_near_inc0_eps0.csv",
    ]


def test_synthesize_rejects_bad_configs(tmp_path):
    empty = _write(tmp_path / "empty.txt", "k = 6.28\n")
    assert main(["synthesize", "--config", empty, "--outdir", str(tmp_path)]) == 2
    both = _write(tmp_path / "both.txt", "scenario = ex1\nshape = square 0 0 0.3 eta 1\n")
    assert main(["synthesize", "--config", both, "--outdir", str(tmp_path)]) == 2
    missing = str(tmp_path / "nope.txt")
    assert main(["synthesize", "--config", missing, "--outdir", str(tmp_path)]) == 2
    unknown = _write(tmp_path / "unk.txt", "scenario = ex9\n")
    assert main(["synthesize", "--config", unknown, "--outdir", str(tmp_path)]) == 2


def test_synthesize_custom_shapes_need_incidents(tmp_path):
    cfg = _write(tmp_path / "cfg.txt", "shape = square 0 0 0.3 eta 1\n")
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path)]) == 2
    cfg2 = _write(tmp_path / "cfg2.txt",
                  "shape = square 0 0 0.3 eta 1\nincidents = 45\n")
    out = tmp_path / "data"
    assert main(["synthesize", "--config", cfg2, "--outdir", str(out)]) == 0
    assert (out / "custom_far_inc0_eps0.csv").exists()


def test_sample_files_round_trip_losslessly(tmp_path):
    from dsmscat.cli import _sample_rows

    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\nnoise.epsilon = 0.2\n")
    out = tmp_path / "data"
    main(["synthesize", "--config", cfg, "--outdir", str(out)])
    # near files store locations directly, so write -> read -> write is a
    # byte fixpoint; %.17g round-trips every double exactly
    near = out / "ex1_near_inc0_eps0.2.csv"
    k, samples = read_samples(str(near))
    assert k == pytest.approx(2.0 * np.pi, rel=1e-7)
    assert _sample_rows(samples, k) == near.read_text()
    # far locations are reconstructed from the angle column; the complex
    # values still round-trip bitwise
    far = out / "ex1_far_inc0_eps0.2.csv"
    _, first = read_samples(str(far))
    assert len(first.values) == 50
    text2 = _sample_rows(first, k)
    rows1 = [line.split(",")[-2:] for line in far.read_text().splitlines()[1:]]
    rows2 = [line.split(",")[-2:] for line in text2.splitlines()[1:]]
    assert rows1 == rows2


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "cfg.txt",
                 "scenario = ex1\nnoise.epsilon = 0.2\nnoise.seed = 1\n")
    for seed_args, outname in (((), "a"), (("--seed", "1"), "b"), (("--seed", "2"), "c")):
        main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / outname), *seed_args])
    base = (tmp_path / "a" / "ex1_far_inc0_eps0.2.csv").read_bytes()
    same = (tmp_path / "b" / "ex1_far_inc0_eps0.2.csv").read_bytes()
    other = (tmp_path / "c" / "ex1_far_inc0_eps0.2.csv").read_bytes()
    assert base == same
    assert base != other


def test_image_writes_csv_and_heatmap(tmp_path):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    data_dir = tmp_path / "data"
    main(["synthesize", "--config", cfg, "--outdir", str(data_dir)])
    img_cfg = _write(tmp_path / "img.txt", "grid.min = -1\ngrid.max = 1\ngrid.h = 0.05\n")
    out = tmp_path / "img"
    rc = main(["image", "--config", img_cfg,
               "--data", str(data_dir / "ex1_far_inc0_eps0.csv"),
               "--outdir", str(out)])
    assert rc == 0
    csv_lines = (out / "indicator_far.csv").read_text().splitlines()
    assert csv_lines[1] == "x,y,value"
    assert len(csv_lines) == 2 + 41 * 41
    ppm = (out / "indicator_far.ppm").read_bytes()
    assert ppm.startswith(b"P6\n41 41\n255\n")
    assert len(ppm) == len(b"P6\n41 41\n255\n") + 41 * 41 * 3
    # peak node should be white somewhere (value 1 -> 255)
    assert ppm.count(b"\xff") >= 3


def test_image_combines_incident_directions(tmp_path):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex4\n")
    data_dir = tmp_path / "data"
    main(["synthesize", "--config", cfg, "--outdir", str(data_dir)])
    img_cfg = _write(tmp_path / "img.txt", "grid.min = -1\ngrid.max = 1\ngrid.h = 0.1\n")
    f0 = str(data_dir / "ex4_far_inc0_eps0.csv")
    f1 = str(data_dir / "ex4_far_inc1_eps0.csv")

    def run(tag, files):
        out = tmp_path / tag
        assert main(["image", "--config", img_cfg, "--data", *files, "--outdir", str(out)]) == 0
        rows = np.loadtxt(out / "indicator_far.csv", delimiter=",", skiprows=2)
        return rows[:, 2]

    v0 = run("one", [f0])
    v1 = run("two", [f1])
    both = run("both", [f0, f1])
    np.testing.assert_allclose(both, np.maximum(v0, v1), atol=1e-12)


def test_image_rejects_mismatched_metadata(tmp_path):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    data_dir = tmp_path / "data"
    main(["synthesize", "--config", cfg, "--outdir", str(data_dir)])
    far = str(data_dir / "ex1_far_inc0_eps0.csv")
    near = str(data_dir / "ex1_near_inc0_eps0.csv")
    assert main(["image", "--data", far, near, "--outdir", str(tmp_path)]) == 2
    assert main(["image", "--data", far, far, "--outdir", str(tmp_path)]) == 2


def test_image_rejects_bad_sample_files(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    data_dir = tmp_path / "data"
    main(["synthesize", "--config", cfg, "--outdir", str(data_dir)])
    cases = (
        ("far", 2, "90,nan,0"),
        ("near", 2, "nan,4,0.1,0.2"),
        ("far", 2, "90,abc,0"),
        ("far", 0, "# kind=far k=nan incident_deg=45.0"),
        ("far", 0, "# kind=far k=6.2831853 incident_deg=nan"),
    )
    for kind, row, text in cases:
        path = data_dir / f"ex1_{kind}_inc0_eps0.csv"
        bad = tmp_path / "bad.csv"
        lines = path.read_text().splitlines()
        lines[row] = text
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["image", "--data", str(bad), "--outdir", str(tmp_path / "img")]) == 2, text
        assert str(bad) in capsys.readouterr().err, text


@pytest.mark.parametrize("factor", [1e-300, 1e300])
def test_image_of_data_at_extreme_magnitude(tmp_path, factor):
    img_cfg = _write(tmp_path / "img.txt", "grid.h = 0.05\n")

    def image(tag, data):
        out = tmp_path / tag
        rc, caught = _main_recording_warnings(["image", "--config", img_cfg, "--data", data, "--outdir", str(out)])
        assert rc == 0 and caught == []
        return np.loadtxt(out / "indicator_far.csv", delimiter=",", skiprows=2)[:, 2]

    reference = image("one", _scaled_far_file(tmp_path, 1.0))
    assert np.max(np.abs(image("scaled", _scaled_far_file(tmp_path, factor)) - reference)) <= 1e-14


@pytest.mark.parametrize("case", ["zero-data", "grid-past-circle"])
def test_failed_image_leaves_no_outdir(tmp_path, capsys, case):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "data")]) == 0
    near = tmp_path / "data" / "ex1_near_inc0_eps0.csv"
    img_cfg = _write(tmp_path / "img.txt", "grid.h = 0.5\n")
    if case == "zero-data":
        header, *rows = near.read_text().splitlines()
        near.write_text("\n".join([header] + [row.rsplit(",", 2)[0] + ",0,0" for row in rows]) + "\n")
    else:
        img_cfg = _write(tmp_path / "img.txt", "grid.min = -5\ngrid.max = 5\ngrid.h = 0.5\n")
    out = tmp_path / "img"
    capsys.readouterr()
    assert main(["image", "--config", img_cfg, "--data", str(near), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, line, named", [
    ("synthesize", "incidents = inf", "key 'incidents'"),
    ("synthesize", "incidents = 0, nan", "key 'incidents'"),
    ("synthesize", "near.radius = inf", "key 'near.radius'"),
    ("image", "grid.h = nan", "key 'grid.h'"),
    ("image", "grid.min = -inf", "key 'grid.min'"),
    ("image", "k = inf", "key 'k'"),
], ids=["incidents-inf", "incidents-nan", "near-radius-inf", "grid-h-nan", "grid-min-minus-inf", "image-k-inf"])
def test_non_finite_config_numbers_name_the_key(tmp_path, capsys, command, line, named):
    cfg = _write(tmp_path / "cfg.txt", f"scenario = ex1\n{line}\n")
    argv = ["synthesize", "--config", cfg]
    if command == "image":
        assert main(["synthesize", "--config", _write(tmp_path / "ex1.txt", "scenario = ex1\n"),
                     "--outdir", str(tmp_path / "data")]) == 0
        argv = ["image", "--config", cfg, "--data", str(tmp_path / "data" / "ex1_far_inc0_eps0.csv")]
    capsys.readouterr()
    rc, caught = _main_recording_warnings([*argv, "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and caught == []
    assert err.startswith(f"error: {named}: ") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["near", "far"])
def test_header_only_sample_file_names_the_file(tmp_path, capsys, kind):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "data")]) == 0
    header = (tmp_path / "data" / f"ex1_{kind}_inc0_eps0.csv").read_text().splitlines()[0]
    bad = _write(tmp_path / "bad.csv", header + "\n")
    capsys.readouterr()
    rc, caught = _main_recording_warnings(["image", "--data", bad, "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and caught == []
    assert err.startswith(f"error: {bad}: no sample rows") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, row, text", [
    ("far", 2, "inf,0.1,0.2"),
    ("far", 3, "90,0.1,-inf"),
    ("near", 2, "4,0,0.1,-inf"),
    ("far", 0, "# kind=far k=6.2831853 incident_deg=inf"),
    ("near", 3, "1e300,0,0.1,0.2"),  # finite, but its square overflows: radii come from hypot
    ("far", 0, "# kind=far k=5e-324 incident_deg=45.0"),  # finite, but 2 pi / k is not
], ids=["far-angle-inf", "far-value-inf", "near-value-inf", "incident-inf", "near-x-1e300", "k-5e-324"])
def test_non_finite_sample_rows_name_the_file(tmp_path, capsys, kind, row, text):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "data")]) == 0
    lines = (tmp_path / "data" / f"ex1_{kind}_inc0_eps0.csv").read_text().splitlines()
    lines[row] = text
    bad = _write(tmp_path / "bad.csv", "\n".join(lines) + "\n")
    capsys.readouterr()
    rc, caught = _main_recording_warnings(["image", "--data", bad, "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and caught == []
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


def _refused_synthesize(tmp_path, capsys, text):
    """Run synthesize on config text expecting exit 2 with no warning and
    no output directory; returns its one error line."""
    cfg = _write(tmp_path / "cfg.txt", text)
    out = tmp_path / "out"
    capsys.readouterr()
    rc, caught = _main_recording_warnings(["synthesize", "--config", cfg, "--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and caught == []
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert not out.exists()
    return err


def test_solver_cell_cap_leaves_no_outdir(tmp_path, capsys):
    err = _refused_synthesize(tmp_path, capsys, "shape = disk 0 0 1.5 nsq 1.5\nincidents = 0\n")
    assert "cell count 17692 exceeds the supported 5000" in err


@pytest.mark.parametrize("k, material, points", [
    ("1e6", "nsq", "3.183e+06 x 3.183e+06"),
    ("3000", "nsq", "9550 x 9550"),
    ("1e200", "eta", "3.183e+200 x 3.183e+200"),
    ("1e200", "nsq", "3.183e+200 x 3.183e+200"),
], ids=["k-1e6", "k-3000", "k-1e200-eta", "k-1e200-nsq"])
def test_oversized_cell_lattice_is_refused_before_it_is_built(tmp_path, capsys, k, material, points):
    start = time.perf_counter()
    err = _refused_synthesize(tmp_path, capsys, f"shape = disk 0 0 0.2 {material} 1.5\nincidents = 0\nk = {k}\n")
    assert time.perf_counter() - start < 1.0
    assert f"would hold {points} points, above the supported 4194304" in err


def test_lattice_past_the_float_range_is_refused(tmp_path, capsys):
    # the 1e308 disk's bounding box is 2e308 wide, past the float range
    err = _refused_synthesize(tmp_path, capsys, "shape = disk 0 0 1e308 nsq 1.5\nincidents = 0\n")
    assert "over the shapes' inf x inf bounding box would hold inf x inf points" in err


@pytest.mark.parametrize("line, key", [
    ("near.count = 3000000", "near.count"),
    ("far.count = 100000000", "far.count"),
], ids=["near-count", "far-count"])
def test_receiver_counts_are_bounded_by_the_cells(tmp_path, capsys, line, key):
    err = _refused_synthesize(tmp_path, capsys, f"shape = disk 0 0 0.2 nsq 1.5\nincidents = 0\n{line}\n")
    assert err.startswith(f"error: key {key!r}: {line.split()[-1]} receivers x 316 cells exceed")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)], ids=["umask-022", "umask-002"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        atomic_write(str(tmp_path / "out.txt"), "text\n")
    finally:
        os.umask(previous)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode


def test_verify_default_passes(tmp_path):
    rc = main(["verify", "--pairs", "40", "--outdir", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "verify_report.txt").read_text()
    assert "lemma dim=2" in report and "lemma dim=3" in report
    assert "disk_oracle" in report
    assert report.strip().endswith("overall PASS")


def test_verify_underresolved_quadrature_fails(tmp_path):
    rc = main(["verify", "--dim", "2", "--nquad", "16", "--pairs", "20",
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert "FAIL" in (tmp_path / "verify_report.txt").read_text()


# the whole report of two runs, as the check table must keep printing it
_VERIFY_RUNS = {
    "default": ([], 0, [
        "lemma dim=2 nquad=512 pairs=200 max_error=2.810e-16 tolerance=1e-08 PASS",
        "lemma dim=3 nquad=64 pairs=200 max_error=1.284e-16 tolerance=1e-08 PASS",
        "disk_oracle rel_l2_error=1.130e-02 tolerance=0.02 PASS",
        "overall PASS",
    ], ""),
    "underresolved": (["--dim", "2", "--nquad", "16", "--pairs", "20"], 1, [
        "lemma dim=2 nquad=16 pairs=20 max_error=1.631e-02 tolerance=1e-08 FAIL",
        "disk_oracle rel_l2_error=1.130e-02 tolerance=0.02 PASS",
        "overall FAIL: lemma dim=2",
    ], "verification failed: lemma dim=2\n"),
}


@pytest.mark.parametrize("run", sorted(_VERIFY_RUNS))
def test_verify_report_lines_pinned(tmp_path, capsys, run):
    flags, code, lines, err = _VERIFY_RUNS[run]
    capsys.readouterr()
    assert main(["verify", *flags, "--outdir", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == err
    assert (tmp_path / "verify_report.txt").read_text() == "\n".join(lines) + "\n"


def test_verify_nan_figure_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dsmscat.cli._verify_disk_oracle", lambda: float("nan"))
    assert main(["verify", "--dim", "2", "--pairs", "5", "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-2:] == [
        "disk_oracle rel_l2_error=nan tolerance=0.02 FAIL", "overall FAIL: disk_oracle"]
    assert captured.err == "verification failed: disk_oracle\n"


def test_verify_dim4_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--dim", "4", "--outdir", str(tmp_path)])
    assert info.value.code == 2


@pytest.mark.parametrize("flags, named", [
    (["--nquad", "1000000000000"], "--nquad"),
    (["--dim", "3", "--nquad", "2000000"], "--nquad"),
    (["--pairs", "10000000000000"], "--pairs"),
    (["--seed", "-1"], "--seed"),
    (["--pairs", "0"], "--pairs"),
    (["--dim", "2", "--nquad", "15"], "--nquad"),
], ids=["nquad-1e12", "nquad-3d-2e6", "pairs-1e13", "seed-minus-1", "pairs-0", "nquad-15"])
def test_verify_flags_out_of_range_name_the_flag(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    capsys.readouterr()
    rc, caught = _main_recording_warnings(["verify", *flags, "--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and caught == []
    assert err.startswith(f"error: {named} ") and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("flags, accepted", [
    (["--dim", "2", "--nquad", "1048576", "--pairs", "64"], True),
    (["--dim", "2", "--nquad", "1048577", "--pairs", "1"], False),
    (["--dim", "3", "--nquad", "1024", "--pairs", "64"], True),
    (["--dim", "3", "--nquad", "1025", "--pairs", "1"], False),
    (["--dim", "3", "--nquad", "1024", "--pairs", "65"], False),
    (["--dim", "2", "--nquad", "4096", "--pairs", "16384"], True),
    (["--dim", "2", "--nquad", "16", "--pairs", "16385"], False),
])
def test_verify_bounds_hold_at_their_edges(tmp_path, monkeypatch, flags, accepted):
    # the sweeps are stubbed: this checks which flags reach them, not the sweeps
    sweeps = []

    def sweep(ctx, dim, rmax, npairs, nquad, seed):
        sweeps.append((dim, nquad, npairs))
        return LemmaSweepReport(separations=np.zeros(1), errors=np.zeros(1), nquad=nquad)

    monkeypatch.setattr("dsmscat.cli.lemma_sweep", sweep)
    monkeypatch.setattr("dsmscat.cli._verify_disk_oracle", lambda: 0.0)
    assert main(["verify", *flags, "--outdir", str(tmp_path)]) == (0 if accepted else 2)
    assert len(sweeps) == (1 if accepted else 0)


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    rc = main(["synthesize", "--config", cfg, "--outdir", str(blocker / "sub")])
    assert rc == 3


def test_reproduce_ex1_artifacts_and_report(tmp_path):
    rc = main(["reproduce", "--example", "ex1", "--epsilon", "0.2", "--seed", "7",
               "--outdir", str(tmp_path)])
    assert rc == 0
    for name in ("ex1_far_inc0_eps0.csv", "ex1_far_inc0_eps0.2.csv",
                 "ex1_near_inc0_eps0.csv", "ex1_near_inc0_eps0.2.csv",
                 "indicator_far.csv", "indicator_far.ppm",
                 "indicator_near.csv", "indicator_near.ppm", "report.txt"):
        assert (tmp_path / name).exists()
    report = (tmp_path / "report.txt").read_text()
    for line in report.splitlines():
        if "argmax" in line:
            x, y = map(float, line.split("argmax=(")[1].rstrip(")").split(","))
            assert np.hypot(x, y) <= 0.05


def test_reproduce_rejects_unknown_variant(tmp_path):
    rc = main(["reproduce", "--example", "ex1", "--variant", "bogus",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_non_finite_scatterer_input_is_a_config_error(tmp_path, capsys):
    cases = (
        ("shape = square 0 0 inf eta 1\nincidents = 45\n", "square 0 0 inf eta 1"),
        ("shape = disk 0 0 0.2 eta nan\nincidents = 45\n", "disk 0 0 0.2 eta nan"),
        ("scenario = ex1\nk = inf\n", "key 'k'"),
    )
    for text, named in cases:
        cfg = _write(tmp_path / "cfg.txt", text)
        capsys.readouterr()
        assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "out")]) == 2, text
        assert named in capsys.readouterr().err, text


@pytest.mark.parametrize("flags, named", [
    (["--cutoff", "1.5"], "--cutoff"),
    (["--cutoff", "0"], "--cutoff"),
    (["--epsilon", "2"], "--epsilon"),
    (["--epsilon", "-0.1"], "--epsilon"),
], ids=["cutoff-1.5", "cutoff-0", "epsilon-2", "epsilon-minus-0.1"])
def test_reproduce_rejects_bad_flags_before_any_work(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["reproduce", "--example", "ex1", *flags, "--outdir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_synthesize_rejects_bad_noise_level_before_any_work(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\nnoise.epsilon = 0, 3\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["synthesize", "--config", cfg, "--outdir", str(out)]) == 2
    assert "key 'noise.epsilon'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("line, named", [
    ("near.count = 0", "key 'near.count'"),
    ("far.count = 0", "key 'far.count'"),
    ("near.radius = 0", "key 'near.radius'"),
    ("near.radius = -1", "key 'near.radius'"),
], ids=["near-count-0", "far-count-0", "near-radius-0", "near-radius-minus-1"])
def test_synthesize_names_bad_receiver_keys_before_any_work(tmp_path, capsys, line, named):
    cfg = _write(tmp_path / "cfg.txt", f"scenario = ex1\n{line}\n")
    out = tmp_path / "out"
    assert main(["synthesize", "--config", cfg, "--outdir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_tiny_wavenumber_names_the_cell_pitch(tmp_path, capsys):
    # at k = 1e-300 the lambda/50 cell pitch dwarfs ex1's 0.02 square and a
    # 0.2 disk, whose inside test must not square the lattice's 6e298 offsets
    for text in ("scenario = ex1\n", "shape = disk 0 0 0.2 nsq 1.5\nincidents = 0\n"):
        err = _refused_synthesize(tmp_path, capsys, text + "k = 1e-300\n")
        assert "cell pitch 1.26e+299 (wavelength 6.28e+300) exceeds the shapes" in err


@pytest.mark.parametrize("text, named", [
    ("scenario = ex6\nk = 5e-324\n", "key 'k': wavenumber k = 4.94066e-324 is so small that the wavelength"),
    ("scenario = ex1\nnear.radius = 1e200\n", "key 'near.radius': the receiver circle reaches k r = 6.283e+200,"),
    ("scenario = ex1\nnear.radius = 1e308\n", "key 'near.radius': the receiver circle reaches k r = inf,"),
    ("shape = disk 0 1e200 0.05 nsq 1.5\nincidents = 0\n", "the shapes' bounding box reaches k r = 6.283e+200,"),
], ids=["k-5e-324", "near-radius-1e200", "near-radius-1e308", "shape-at-1e200"])
def test_unresolvable_phases_are_refused(tmp_path, capsys, text, named):
    err = _refused_synthesize(tmp_path, capsys, text)
    assert err.startswith(f"error: {named}"), err


def _ex1_near_at_radius(tmp_path, radius):
    """ex1's near sample file with every receiver coordinate scaled to the circle of that radius."""
    cfg = _write(tmp_path / "ex1.txt", "scenario = ex1\n")
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "data")]) == 0
    header, *rows = (tmp_path / "data" / "ex1_near_inc0_eps0.csv").read_text().splitlines()
    scale = radius / 4.0
    for i, row in enumerate(rows):
        x, y, re_part, im_part = row.split(",")
        rows[i] = f"{float(x) * scale!r},{float(y) * scale!r},{re_part},{im_part}"
    return _write(tmp_path / "far_out.csv", "\n".join([header, *rows]) + "\n")


_CHILD_IMAGE = """
import sys
import numpy as np
from dsmscat.cli import main
from dsmscat.indicators import SamplingGrid, indicator_grid
from dsmscat.kernels import WaveContext, far_angles
from dsmscat.measurement import FieldSamples

path, outdir = sys.argv[1:]
if path == "library":
    data = FieldSamples(kind="near", locations=1e308 * far_angles(50), values=np.ones(50), incident=(1.0, 0.0))
    try:
        indicator_grid(WaveContext(k=2.0 * np.pi), data, SamplingGrid(h=0.5))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
sys.exit(main(["image", "--data", path, "--outdir", outdir]))
"""


@pytest.mark.parametrize("entry", ["cli", "library"])
def test_receiver_circle_past_the_phase_bound_is_refused_not_hung(tmp_path, entry):
    # R = 1e308 at k = 2 pi: k R is inf, whose Graf rows never pass the order
    # cap; a child process turns a hang into a timeout
    path = _ex1_near_at_radius(tmp_path, 1e308) if entry == "cli" else "library"
    src = os.path.dirname(os.path.dirname(os.path.abspath(errors.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD_IMAGE, path, str(tmp_path / "out")],
                           capture_output=True, text=True, timeout=60, env=env)
    named = f"{path}: " if entry == "cli" else ""
    assert child.returncode == 2, child.stderr
    assert child.stderr == f"error: {named}the receiver circle reaches k r = inf, beyond the supported 2^40\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid_max, nodes", [
    ("1e308", "inf x inf"),
    ("1e300", "1e+302 x 1e+302"),
    ("1000", "1.002e+05 x 1.002e+05"),
], ids=["max-1e308", "max-1e300", "max-1000"])
def test_oversized_sampling_grid_is_refused(tmp_path, capsys, grid_max, nodes):
    cfg = _write(tmp_path / "ex1.txt", "scenario = ex1\n")
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "data")]) == 0
    img_cfg = _write(tmp_path / "img.txt", f"grid.max = {grid_max}\n")
    capsys.readouterr()
    rc, caught = _main_recording_warnings(["image", "--config", img_cfg, "--data",
                                           str(tmp_path / "data" / "ex1_far_inc0_eps0.csv"),
                                           "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and caught == []
    assert err == (f"error: keys 'grid.min', 'grid.max' and 'grid.h': the grid would hold {nodes} nodes, "
                   "above the supported 4194304\n")
    assert not (tmp_path / "out").exists()


def test_reproduce_equals_synthesize_then_image(tmp_path):
    rep = tmp_path / "rep"
    assert main(["reproduce", "--example", "ex1", "--epsilon", "0.2", "--seed", "7",
                 "--outdir", str(rep)]) == 0
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\nnoise.epsilon = 0, 0.2\n")
    syn = tmp_path / "syn"
    assert main(["synthesize", "--config", cfg, "--seed", "7", "--outdir", str(syn)]) == 0
    names = sorted(p.name for p in syn.iterdir())
    assert names == sorted(p.name for p in rep.glob("ex1_*.csv"))
    for name in names:
        assert (syn / name).read_bytes() == (rep / name).read_bytes(), name
    img = tmp_path / "img"
    for kind in ("near", "far"):
        data = str(syn / f"ex1_{kind}_inc0_eps0.2.csv")
        assert main(["image", "--data", data, "--outdir", str(img)]) == 0
        ours = np.loadtxt(img / f"indicator_{kind}.csv", delimiter=",", skiprows=2)
        theirs = np.loadtxt(rep / f"indicator_{kind}.csv", delimiter=",", skiprows=2)
        np.testing.assert_array_equal(ours[:, :2], theirs[:, :2])
        np.testing.assert_allclose(ours[:, 2], theirs[:, 2], rtol=0.0, atol=1e-12)
        ppm = f"indicator_{kind}.ppm"
        assert (img / ppm).read_bytes() == (rep / ppm).read_bytes(), kind


def _default_grid_result():
    """Indicator values on the default 401 x 401 grid, with edge cases of %.17g."""
    grid = SamplingGrid()
    values = np.random.default_rng(5).random(grid.shape)
    values.flat[:4] = [1.0, 0.0, 5e-324, np.nextafter(1.0, 0.0)]
    return IndicatorGrid(grid=grid, values=values)


def test_indicator_csv_format_on_default_grid(tmp_path):
    result = _default_grid_result()
    path = tmp_path / "indicator.csv"
    write_indicator_csv(str(path), result)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# kind=indicator h=0.01 shape=401x401", "x,y,value"]
    coordinate = re.compile(r"^-?\d(\.\d{1,2})?$")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 401 * 401 and all(len(row) == 3 for row in rows)
    assert all(coordinate.match(x) and coordinate.match(y) for x, y, _ in rows)
    body = np.array(rows, dtype=float)
    assert np.max(np.abs(body[:, :2] - result.grid.nodes())) <= 1e-15
    np.testing.assert_array_equal(body[:, 2], result.values.ravel())


def test_indicator_csv_writer_memory(tmp_path):
    result = _default_grid_result()
    tracemalloc.start()
    try:
        write_indicator_csv(str(tmp_path / "indicator.csv"), result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6, peak


@pytest.mark.parametrize("command", ["synthesize", "reproduce"])
def test_rejected_scatterer_leaves_no_outdir(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    if command == "synthesize":
        cfg = _write(tmp_path / "cfg.txt", "shape = square 0 0 0.3 nsq 1e308\nincidents = 0\n")
        argv = ["synthesize", "--config", cfg]
    else:
        def reject(*args, **kwargs):
            raise DiscretizationError("rejected scatterer")

        monkeypatch.setattr("dsmscat.cli.discretize", reject)
        argv = ["reproduce", "--example", "ex1"]
    assert main([*argv, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_overflowing_contrast_is_a_config_error(tmp_path, capsys):
    # nsq is finite, but (nsq - 1) k^2 overflows to inf
    cfg = _write(tmp_path / "cfg.txt", "shape = square 0 0 0.3 nsq 1e308\nincidents = 0\n")
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shape 0 (square) has a non-finite contrast")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("radius", ["10000", "100000"])
def test_far_receiver_circles_are_accepted(tmp_path, radius):
    cfg = _write(tmp_path / "cfg.txt", f"scenario = ex1\nnear.radius = {radius}\n")
    out = tmp_path / "data"
    assert main(["synthesize", "--config", cfg, "--outdir", str(out)]) == 0
    near = out / "ex1_near_inc0_eps0.csv"
    assert read_samples(str(near))[1].radius == pytest.approx(float(radius), rel=1e-12)
    if radius == "10000":
        assert main(["image", "--data", str(near), "--outdir", str(tmp_path / "img")]) == 0


_LIBRARY_ERRORS = [cls for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, Exception)]


def test_library_errors_listed():
    assert len(_LIBRARY_ERRORS) == 5


@pytest.mark.parametrize("cls", _LIBRARY_ERRORS, ids=lambda cls: cls.__name__)
def test_every_library_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch, cls):
    def fail(*args, **kwargs):
        raise cls("injected failure")

    monkeypatch.setattr("dsmscat.cli.discretize", fail)
    cfg = _write(tmp_path / "cfg.txt", "scenario = ex1\n")
    capsys.readouterr()
    assert main(["synthesize", "--config", cfg, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: injected failure\n"
