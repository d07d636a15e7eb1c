"""The two benchmark workloads: their inputs, CLI arguments and output checks.

Each workload drives one ``dsmscat`` subcommand.  Constructing a workload
makes its inputs from the seed, before any timing; the seed sets only noise
draws and never the amount of work.  ``check`` reads the files a run wrote,
raises ``CheckError`` when they are wrong, and returns the quality figures
it computed from them (``peak_err_wl``, ``oracle_rel_err``).
"""

from __future__ import annotations

import os
import re

import numpy as np

from dsmscat.forward import disk_series_farfield
from dsmscat.indicators import SamplingGrid
from dsmscat.kernels import WaveContext
from dsmscat.scenarios import build

K = 2.0 * np.pi
WAVELENGTH = 2.0 * np.pi / K
EPSILON = 0.2
RECEIVERS = 50
PEAK_TOL_WL = 0.1  # argmax must lie within a tenth of a wavelength of the support
ORACLE_TOL = 0.02  # same tolerance as the package's own disk-oracle check

DISK_RADIUS, DISK_NSQ = 0.4, 1.5
DISK_INCIDENTS = (0.0, 90.0, 180.0, 270.0)

_SAMPLE_HEADER = re.compile(r"^# kind=(near|far) k=(\S+) incident_deg=(\S+)$")
_INDICATOR_HEADER = re.compile(r"^# kind=indicator h=(\S+) shape=(\d+)x(\d+)$")
_ARGMAX = re.compile(r"^(near|far) argmax=\((\S+), (\S+)\)$")
_COMPONENT = re.compile(r"^(near|far) component (\d+): size=(\d+) centroid=\(.*\) bbox=\(.*\)$")


class CheckError(Exception):
    """A run's outputs are missing, malformed or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_sample_csv(path: str, kind: str, incident_deg: float) -> np.ndarray:
    """Rows of one sample file after checking its header and shape."""
    _require(os.path.isfile(path), f"missing sample file {path}")
    with open(path, encoding="utf-8") as handle:
        match = _SAMPLE_HEADER.match(handle.readline().rstrip("\n"))
        _require(match is not None, f"{path}: malformed header")
        _require(match.group(1) == kind, f"{path}: kind {match.group(1)}, expected {kind}")
        _require(abs(float(match.group(2)) - K) < 1e-6, f"{path}: wrong k")
        _require(abs(float(match.group(3)) - incident_deg) < 1e-9, f"{path}: wrong incident angle")
        body = np.loadtxt(handle, delimiter=",", ndmin=2)
    cols = 3 if kind == "far" else 4
    _require(body.shape == (RECEIVERS, cols), f"{path}: shape {body.shape}, expected {(RECEIVERS, cols)}")
    _require(bool(np.all(np.isfinite(body))), f"{path}: non-finite values")
    return body


def _values(body: np.ndarray) -> np.ndarray:
    return body[:, -2] + 1j * body[:, -1]


def check_noise(clean: np.ndarray, noisy: np.ndarray, path: str) -> None:
    """Noise is additive with scale epsilon * max|u| and unit complex-normal draws."""
    _require(np.array_equal(clean[:, :-2], noisy[:, :-2]), f"{path}: locations differ from clean data")
    diff = _values(noisy) - _values(clean)
    scale = EPSILON * np.max(np.abs(_values(clean)))
    rms = np.sqrt(np.mean(np.abs(diff) ** 2) / 2.0) / scale
    _require(0.5 < rms < 1.5, f"{path}: noise level {rms:.3f} of the expected scale")


def check_sample_set(outdir: str, label: str, incidents, epsilons) -> dict:
    """Check every sample file of a synthesize/reproduce run; return the clean bodies."""
    clean = {}
    for kind in ("near", "far"):
        for index, deg in enumerate(incidents):
            bodies = {}
            for eps in epsilons:
                path = os.path.join(outdir, f"{label}_{kind}_inc{index}_eps{eps:g}.csv")
                bodies[eps] = read_sample_csv(path, kind, deg)
            for eps in epsilons:
                if eps != 0.0:
                    check_noise(bodies[0.0], bodies[eps], f"{label}_{kind}_inc{index}_eps{eps:g}")
            clean[(kind, index)] = bodies[0.0]
    return clean


def read_indicator(outdir: str, kind: str) -> tuple[SamplingGrid, np.ndarray]:
    """Grid and (ny, nx) values of indicator_<kind>.csv, checked against its PPM."""
    path = os.path.join(outdir, f"indicator_{kind}.csv")
    _require(os.path.isfile(path), f"missing {path}")
    with open(path, encoding="utf-8") as handle:
        match = _INDICATOR_HEADER.match(handle.readline().rstrip("\n"))
        _require(match is not None, f"{path}: malformed header")
        _require(handle.readline().strip() == "x,y,value", f"{path}: missing column header")
        body = np.loadtxt(handle, delimiter=",", ndmin=2)
    grid = SamplingGrid()
    ny, nx = grid.shape
    _require((int(match.group(2)), int(match.group(3))) == (ny, nx), f"{path}: grid is not {ny}x{nx}")
    _require(body.shape == (ny * nx, 3), f"{path}: {body.shape[0]} rows, expected {ny * nx}")
    _require(bool(np.allclose(body[:, :2], grid.nodes(), rtol=0.0, atol=1e-9)),
             f"{path}: rows are not the sampling grid nodes")
    values = body[:, 2].reshape(ny, nx)
    _require(bool(np.all((values >= 0.0) & (values <= 1.0))), f"{path}: values outside [0, 1]")
    _require(abs(values.max() - 1.0) < 1e-12, f"{path}: maximum is not 1")

    ppm = os.path.join(outdir, f"indicator_{kind}.ppm")
    _require(os.path.isfile(ppm), f"missing {ppm}")
    with open(ppm, "rb") as handle:
        data = handle.read()
    header = f"P6\n{nx} {ny}\n255\n".encode()
    _require(data.startswith(header) and len(data) == len(header) + 3 * nx * ny,
             f"{ppm}: wrong header or size")
    gray = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(ny, nx, 3)[:, :, 0]
    levels = np.round(np.flipud(values) * 255.0).astype(np.uint8)
    _require(bool(np.all(np.abs(gray.astype(int) - levels) <= 1)), f"{ppm}: pixels disagree with the CSV")
    return grid, values


def peak_error_wl(grid: SamplingGrid, values: np.ndarray, scenario_name: str) -> float:
    """Distance in wavelengths from the indicator argmax to the nearest support node."""
    nodes = grid.nodes()
    peak = nodes[np.argmax(values)]
    support = nodes[build(scenario_name).in_support(nodes)]
    _require(len(support) > 0, f"{scenario_name}: no grid node inside the support")
    return float(np.min(np.hypot(*(support - peak).T))) / WAVELENGTH


def check_peak(grid, values, scenario_name, kind) -> float:
    err = peak_error_wl(grid, values, scenario_name)
    _require(err <= PEAK_TOL_WL, f"{kind} indicator peak {err:.3f} wavelengths from the support")
    return err


def check_report(outdir: str, seed: int, peaks: dict) -> None:
    """report.txt parses, names the run, and its argmax lines match the CSVs."""
    path = os.path.join(outdir, "report.txt")
    _require(os.path.isfile(path), f"missing {path}")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    _require(bool(lines) and lines[0].startswith("scenario=ex4 ")
             and f" epsilon={EPSILON:g} " in lines[0] and f" seed={seed} " in lines[0],
             f"{path}: first line does not describe the run")
    sizes = {"near": [], "far": []}
    argmax = {}
    for line in lines[1:]:
        if (m := _ARGMAX.match(line)):
            argmax[m.group(1)] = np.array([float(m.group(2)), float(m.group(3))])
        elif (m := _COMPONENT.match(line)):
            sizes[m.group(1)].append(int(m.group(3)))
        else:
            raise CheckError(f"{path}: unparsed line {line!r}")
    for kind, point in peaks.items():
        _require(kind in argmax and np.allclose(argmax[kind], point, atol=1e-6),
                 f"{path}: {kind} argmax does not match indicator_{kind}.csv")
        _require(bool(sizes[kind]) and sizes[kind] == sorted(sizes[kind], reverse=True),
                 f"{path}: {kind} components missing or not largest first")


def _argmax_point(grid, values):
    return grid.nodes()[np.argmax(values)]


class ReproduceEx4:
    """The paper's full pipeline on the ring scatterer ex4; near kernel build dominates."""

    name = "reproduce-ex4"

    def __init__(self, inputs: str, seed: int):
        self.seed = seed

    def cli_args(self, outdir: str) -> list:
        return ["reproduce", "--example", "ex4", "--epsilon", f"{EPSILON:g}",
                "--seed", str(self.seed), "--outdir", outdir]

    def check(self, outdir: str) -> dict:
        check_sample_set(outdir, "ex4", (45.0, 315.0), (0.0, EPSILON))
        quality, peaks = {}, {}
        for kind in ("near", "far"):
            grid, values = read_indicator(outdir, kind)
            quality[f"peak_err_wl.{kind}"] = check_peak(grid, values, "ex4", kind)
            peaks[kind] = _argmax_point(grid, values)
        check_report(outdir, self.seed, peaks)
        return quality


class ForwardDisk:
    """Forward solves of a penetrable disk, with the partial-wave series as oracle."""

    name = "forward-disk"

    def __init__(self, inputs: str, seed: int):
        self.seed = seed
        self.config = os.path.join(inputs, "disk.cfg")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(f"shape = disk 0 0 {DISK_RADIUS:g} nsq {DISK_NSQ:g}\n"
                         f"incidents = {','.join(f'{d:g}' for d in DISK_INCIDENTS)}\n"
                         f"noise.epsilon = 0,{EPSILON:g}\n"
                         f"noise.seed = {seed}\n")

    def cli_args(self, outdir: str) -> list:
        return ["synthesize", "--config", self.config, "--outdir", outdir, "--seed", str(self.seed)]

    def check(self, outdir: str) -> dict:
        clean = check_sample_set(outdir, "custom", DISK_INCIDENTS, (0.0, EPSILON))
        ctx = WaveContext(k=K)
        numeric, exact = [], []
        for index, deg in enumerate(DISK_INCIDENTS):
            body = clean[("far", index)]
            theta = np.deg2rad(body[:, 0])
            d = np.array([np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))])
            dirs = np.column_stack([np.cos(theta), np.sin(theta)])
            numeric.append(_values(body))
            exact.append(disk_series_farfield(ctx, DISK_RADIUS, DISK_NSQ, d, dirs))
        numeric, exact = np.concatenate(numeric), np.concatenate(exact)
        err = float(np.linalg.norm(numeric - exact) / np.linalg.norm(exact))
        _require(err <= ORACLE_TOL, f"disk far field {err:.3e} from the series oracle")
        return {"oracle_rel_err": err}


WORKLOADS = {w.name: w for w in (ReproduceEx4, ForwardDisk)}
