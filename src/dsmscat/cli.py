"""Command-line interface: synthesize data, image, verify, reproduce.

Config files are flat UTF-8 text, one ``key = value`` per line with
``#`` comments.  Keys: scenario, variant, k, grid.min, grid.max, grid.h,
near.radius, near.count, far.count, noise.epsilon (single value or comma
list), noise.seed, incidents (comma list of angles in degrees), and
repeated ``shape`` lines for explicit scatterers:

    shape = square CX CY SIDE eta|nsq VALUE
    shape = disk CX CY RADIUS eta|nsq VALUE
    shape = ring CX CY OUTER INNER eta|nsq VALUE
    shape = bar CX CY LENGTH THICKNESS ANGLE_DEG eta|nsq VALUE

Sample files are CSV with header ``# kind=far k=6.283185307179586
incident_deg=45.0`` (k and the angle written losslessly) and rows ``theta_deg,re,im`` (far) or ``x,y,re,im``
(near), 17 significant digits.  Indicator CSVs have the header lines
``# kind=indicator h=H shape=NYxNX`` and ``x,y,value``, then one row per
grid node, x fastest, coordinates at 12 significant digits and values
at 17.  Heatmaps are binary P6 pixmaps, row-major with y increasing
downward, value v mapped linearly to the gray level round(255 v).

Exit codes: 0 success, 1 verification failure, 2 usage, config or solver
error, 3 I/O error.  --seed overrides the config seed.  All writes go through
a temp file and rename, so outputs are never half-written.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile

import numpy as np

from .errors import ConfigError, SolverError
from .forward import (
    SHAPE_FIELDS,
    ShapeSpec,
    discretize,
    disk_series_farfield,
    scattered_far,
    scattered_near,
    solve_lippmann_schwinger,
)
from .indicators import SamplingGrid, check_cutoff, combine_max, indicator_grid, superlevel_components
from .kernels import WaveContext, far_angles, lemma_sweep
from .measurement import FieldSamples, NoiseSpec, add_noise, near_circle_geometry
from .scenarios import SCENARIO_NAMES, build

_KNOWN_KEYS = {
    "scenario", "variant", "k", "grid.min", "grid.max", "grid.h",
    "near.radius", "near.count", "far.count", "noise.epsilon", "noise.seed",
    "incidents", "shape",
}
_HEADER_RE = re.compile(r"^# kind=(near|far) k=(\S+) incident_deg=(\S+)$")
_LEMMA_TOL = 1e-8
_ORACLE_TOL = 0.02

# the measurement protocol both synthesize and reproduce default to: wave
# number 2 pi (wavelength 1), near receivers on a circle of radius 4
# wavelengths, far observation directions, forward cells of pitch lambda/50
_K = 2.0 * np.pi
_NEAR_RADIUS_WAVELENGTHS = 4.0
_NEAR_COUNT = 50
_FAR_COUNT = 50
_CELLS_PER_WAVELENGTH = 50


def atomic_write(path: str, payload) -> None:
    """Write bytes or text to path via a temp file in the same directory."""
    data = payload.encode() if isinstance(payload, str) else payload
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dsmscat-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp makes 0600; give what open() would
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_config(text: str) -> dict:
    """Flat key = value lines into {key: [values...]} preserving repeats."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out.setdefault(key, []).append(value)
    return out


def _named(label: str, fn, *args):
    """fn(*args); a ValueError it raises becomes a ConfigError led by label."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _value(cfg: dict, key: str, parse=str, default=None):
    """The value of a key given at most once, read by parse; default if absent."""
    values = cfg.get(key)
    if values is None:
        return default
    if len(values) > 1:
        raise ConfigError(f"key {key!r} given more than once")
    return _named(f"key {key!r}", parse, values[0])


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


def _float_list(raw: str) -> list:
    return [_finite(tok) for tok in raw.split(",")]


def _parse_shape(line: str) -> ShapeSpec:
    """``KIND CX CY GEOMETRY... eta|nsq VALUE``, GEOMETRY in SHAPE_FIELDS order;
    a bar's angle is given in degrees."""
    try:
        kind, cx, cy, *geometry, material, value = line.split()
        fields = SHAPE_FIELDS.get(kind)
        if fields is None:
            raise ValueError(f"unknown shape kind {kind!r}")
        if len(geometry) != len(fields) or material not in ("eta", "nsq"):
            raise ValueError(f"expected {kind} CX CY {' '.join(fields).upper()} eta|nsq VALUE")
        geom = dict(zip(fields, map(float, geometry)))
        if "angle" in geom:
            geom["angle"] = np.deg2rad(geom["angle"])
        return ShapeSpec(kind=kind, center=(float(cx), float(cy)), **geom,
                         **{material: complex(value)})
    except ValueError as exc:
        raise ConfigError(f"bad shape line: {line!r} ({exc})") from exc


def _resolve_scatterer(cfg: dict):
    """(label, shapes, preset incidents or None) from scenario or shape lines."""
    scenario_name = _value(cfg, "scenario")
    variant = _value(cfg, "variant")
    shape_lines = cfg.get("shape", [])
    if scenario_name is not None and shape_lines:
        raise ConfigError("give either a scenario or explicit shapes, not both")
    if scenario_name is not None:
        scenario = build(scenario_name, variant)
        return scenario.name, scenario.shapes, scenario.incidents
    if not shape_lines:
        raise ConfigError("config needs a scenario id or at least one shape line")
    if variant is not None:
        raise ConfigError("variant is only meaningful together with a scenario")
    return "custom", tuple(_parse_shape(line) for line in shape_lines), None


def _resolve_incidents(cfg: dict, preset) -> np.ndarray:
    degs = _value(cfg, "incidents", _float_list)
    if degs is None:
        if preset is None:
            raise ConfigError("explicit shapes need an 'incidents' angle list")
        return np.atleast_2d(preset)
    theta = np.deg2rad(degs)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _incident_deg(direction) -> float:
    return float(np.rad2deg(np.arctan2(direction[1], direction[0])) % 360.0)


def _sample_rows(samples: FieldSamples, k: float) -> str:
    deg = _incident_deg(samples.incident)
    lines = [f"# kind={samples.kind} k={float(k)!r} incident_deg={deg!r}"]
    if samples.kind == "far":
        thetas = np.rad2deg(np.arctan2(samples.locations[:, 1], samples.locations[:, 0])) % 360.0
        for theta, value in zip(thetas, samples.values):
            lines.append(f"{theta:.17g},{value.real:.17g},{value.imag:.17g}")
    else:
        for point, value in zip(samples.locations, samples.values):
            lines.append(f"{point[0]:.17g},{point[1]:.17g},{value.real:.17g},{value.imag:.17g}")
    return "\n".join(lines) + "\n"


def read_samples(path: str):
    """Parse one sample CSV back into (k, FieldSamples)."""
    with open(path, "r", encoding="utf-8") as handle:
        match = _HEADER_RE.match(handle.readline().rstrip("\n"))
        if not match:
            raise ConfigError(f"{path}: missing or malformed sample header")
        kind, k_raw, deg_raw = match.groups()
        try:
            k = WaveContext(k=_finite(k_raw)).k
            incident = np.deg2rad(_finite(deg_raw))
            body = np.loadtxt(handle, delimiter=",", ndmin=2)
            expected_cols = 3 if kind == "far" else 4
            if body.size == 0 or body.shape[1] != expected_cols:
                raise ValueError(f"expected {expected_cols} columns of sample rows")
            if not np.all(np.isfinite(body)):
                raise ValueError("sample rows must hold finite numbers")
            if kind == "far":
                theta = np.deg2rad(body[:, 0])
                locations = np.column_stack([np.cos(theta), np.sin(theta)])
            else:
                locations = body[:, :2]
            samples = FieldSamples(kind=kind, locations=locations, values=body[:, -2] + 1j * body[:, -1],
                                   incident=np.array([np.cos(incident), np.sin(incident)]))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return k, samples


def write_indicator_csv(path: str, result) -> None:
    """Header, ``x,y,value`` and one row per node, x fastest; coordinates
    at 12 significant digits, values at 17 (lossless)."""
    grid = result.grid
    chunks = [f"# kind=indicator h={grid.h:.8g} shape={grid.shape[0]}x{grid.shape[1]}\n"
              "x,y,value\n".encode()]
    # one grid row per chunk, so the text never exists as one list of lines
    xs = [f"{x:.12g}," for x in grid.xs.tolist()]
    for y, row in zip(grid.ys.tolist(), result.values):
        y_text = f"{y:.12g},"
        text = "".join([f"{x}{y_text}{v:.17g}\n" for x, v in zip(xs, row.tolist())])
        chunks.append(text.encode())
    atomic_write(path, b"".join(chunks))


def write_heatmap_ppm(path: str, result) -> None:
    """8-bit grayscale P6; top pixel row is the max-y grid row."""
    levels = np.round(np.flipud(result.values) * 255.0).astype(np.uint8)
    ny, nx = levels.shape
    rgb = np.repeat(levels[:, :, None], 3, axis=2)
    atomic_write(path, f"P6\n{nx} {ny}\n255\n".encode() + rgb.tobytes())


def _grid_from_config(cfg: dict) -> SamplingGrid:
    default = SamplingGrid()
    lo = _value(cfg, "grid.min", _finite, default.xmin)
    hi = _value(cfg, "grid.max", _finite, default.xmax)
    h = _value(cfg, "grid.h", _finite, default.h)
    return SamplingGrid(xmin=lo, xmax=hi, ymin=lo, ymax=hi, h=h)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc


def _write_samples(ctx, outdir, label, cells, incidents, epsilons, seed, near_pts, far_dirs):
    """Solve the forward problem on cells per incident and write one sample
    file per (incident, kind, epsilon), sampling at near_pts and in far_dirs.

    Returns the paths in write order and {(kind, epsilon): [FieldSamples per
    incident]}.
    """
    paths, data = [], {}
    for index, direction in enumerate(incidents):
        current = solve_lippmann_schwinger(ctx, cells, direction)
        clean = (
            FieldSamples(kind="near", locations=near_pts,
                         values=scattered_near(ctx, cells, current, near_pts), incident=direction),
            FieldSamples(kind="far", locations=far_dirs,
                         values=scattered_far(ctx, cells, current, far_dirs), incident=direction),
        )
        for samples in clean:
            for eps in epsilons:
                noisy = samples if eps == 0.0 else add_noise(samples, NoiseSpec(epsilon=eps, seed=seed))
                path = os.path.join(outdir, f"{label}_{samples.kind}_inc{index}_eps{eps:g}.csv")
                atomic_write(path, _sample_rows(noisy, ctx.k))
                paths.append(path)
                data.setdefault((samples.kind, eps), []).append(noisy)
    return paths, data


def _write_image(ctx, data, grid, outdir):
    """Image FieldSamples of one kind, combined by nodewise maximum, and write
    indicator_<kind>.csv and .ppm; returns the combined grid and the paths."""
    combined = combine_max([indicator_grid(ctx, samples, grid) for samples in data])
    os.makedirs(outdir, exist_ok=True)  # only now, so a failed image leaves no directory
    csv_path, ppm_path = (os.path.join(outdir, f"indicator_{data[0].kind}.{ext}")
                          for ext in ("csv", "ppm"))
    write_indicator_csv(csv_path, combined)
    write_heatmap_ppm(ppm_path, combined)
    return combined, [csv_path, ppm_path]


def cmd_synthesize(args) -> int:
    cfg = _load_config(args.config)
    ctx = _value(cfg, "k", lambda raw: WaveContext(k=_finite(raw)), WaveContext(k=_K))
    label, shapes, preset_incidents = _resolve_scatterer(cfg)
    incidents = _resolve_incidents(cfg, preset_incidents)
    near_radius = _value(cfg, "near.radius", _finite, _NEAR_RADIUS_WAVELENGTHS * ctx.wavelength)
    _named("key 'near.radius'", near_circle_geometry, ctx, near_radius, 1)  # the radius rule alone
    near_pts = _named("key 'near.count'", near_circle_geometry, ctx, near_radius,
                      _value(cfg, "near.count", int, _NEAR_COUNT))
    far_dirs = _named("key 'far.count'", far_angles, _value(cfg, "far.count", int, _FAR_COUNT))
    epsilons = _value(cfg, "noise.epsilon",
                      lambda raw: [NoiseSpec(epsilon=e, seed=0).epsilon for e in _float_list(raw)],
                      [0.0])
    seed = args.seed if args.seed is not None else _value(cfg, "noise.seed", int, 0)
    cells = discretize(ctx, shapes, ctx.wavelength / _CELLS_PER_WAVELENGTH)
    os.makedirs(args.outdir, exist_ok=True)
    paths, _ = _write_samples(ctx, args.outdir, label, cells, incidents, epsilons, seed,
                              near_pts, far_dirs)
    print("\n".join(paths))
    return 0


def cmd_image(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    loaded = [read_samples(path) for path in args.data]
    kinds = {samples.kind for _, samples in loaded}
    if len(kinds) != 1:
        raise ConfigError("all data files must share one kind (near or far)")
    ks = np.array([k for k, _ in loaded])
    if np.max(ks) - np.min(ks) > 1e-9 * np.max(ks):
        raise ConfigError("data files disagree on the wave number k")
    config_k = _value(cfg, "k", _finite)
    if config_k is not None and abs(config_k - ks[0]) > 1e-9 * ks[0]:
        raise ConfigError("config k does not match the data files")
    degs = [round(_incident_deg(s.incident), 6) for _, s in loaded]
    if len(set(degs)) != len(degs):
        raise ConfigError("duplicate incident direction across data files")

    grid = _grid_from_config(cfg)
    _, paths = _write_image(WaveContext(k=float(ks[0])), [s for _, s in loaded], grid, args.outdir)
    print("\n".join(paths))
    return 0


def _verify_disk_oracle() -> float:
    ctx = WaveContext(k=_K)
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    disk = ShapeSpec(kind="disk", center=(0.0, 0.0), radius=0.3, nsq=1.5)
    cells = discretize(ctx, [disk], ctx.wavelength / 40.0)
    current = solve_lippmann_schwinger(ctx, cells, d)
    dirs = far_angles(50)
    numeric = scattered_far(ctx, cells, current, dirs)
    exact = disk_series_farfield(ctx, 0.3, 1.5, d, dirs)
    return float(np.linalg.norm(numeric - exact) / np.linalg.norm(exact))


def cmd_verify(args) -> int:
    checks = []  # (name, figure, value, tolerance); a check passes when value <= tolerance
    for dim in (2, 3) if args.dim is None else (args.dim,):
        nquad = args.nquad if args.nquad is not None else (512 if dim == 2 else 64)
        report = lemma_sweep(WaveContext(k=_K, dim=dim), rmax=4.0 if dim == 2 else 2.0,
                             npairs=args.pairs, nquad=nquad, seed=args.seed)
        checks.append((f"lemma dim={dim}", f"nquad={nquad} pairs={args.pairs} max_error",
                       report.max_error, _LEMMA_TOL))
    checks.append(("disk_oracle", "rel_l2_error", _verify_disk_oracle(), _ORACLE_TOL))
    failures = [name for name, _, value, tol in checks if not value <= tol]  # nan fails
    lines = [f"{name} {figure}={value:.3e} tolerance={tol:g} "
             f"{'FAIL' if name in failures else 'PASS'}" for name, figure, value, tol in checks]
    lines.append("overall " + ("PASS" if not failures else "FAIL: " + ", ".join(failures)))

    os.makedirs(args.outdir, exist_ok=True)
    report_path = os.path.join(args.outdir, "verify_report.txt")
    atomic_write(report_path, "\n".join(lines) + "\n")
    print("\n".join(lines))
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_reproduce(args) -> int:
    scenario = build(args.example, args.variant)
    _named("--epsilon", NoiseSpec, args.epsilon, args.seed)
    _named("--cutoff", check_cutoff, args.cutoff)
    ctx = WaveContext(k=_K)
    epsilons = [0.0] if args.epsilon == 0.0 else [0.0, args.epsilon]
    cells = discretize(ctx, scenario.shapes, ctx.wavelength / _CELLS_PER_WAVELENGTH)
    os.makedirs(args.outdir, exist_ok=True)
    near_pts = near_circle_geometry(ctx, _NEAR_RADIUS_WAVELENGTHS * ctx.wavelength, _NEAR_COUNT)
    _, data = _write_samples(ctx, args.outdir, scenario.name, cells, scenario.incidents,
                             epsilons, args.seed, near_pts, far_angles(_FAR_COUNT))
    report = [
        f"scenario={scenario.name} variant={args.variant or 'none'} "
        f"epsilon={args.epsilon:g} seed={args.seed} cutoff={args.cutoff:g}"
    ]
    for kind in ("near", "far"):
        combined, _ = _write_image(ctx, data[kind, epsilons[-1]], SamplingGrid(), args.outdir)
        peak = combined.argmax_point()
        report.append(f"{kind} argmax=({peak[0]:.6f}, {peak[1]:.6f})")
        for rank, comp in enumerate(superlevel_components(combined, args.cutoff), start=1):
            report.append(
                f"{kind} component {rank}: size={comp.size} "
                f"centroid=({comp.centroid[0]:.6f}, {comp.centroid[1]:.6f}) "
                f"bbox=({comp.lo[0]:.6f}, {comp.lo[1]:.6f})..({comp.hi[0]:.6f}, {comp.hi[1]:.6f})"
            )
    report_path = os.path.join(args.outdir, "report.txt")
    atomic_write(report_path, "\n".join(report) + "\n")
    print("\n".join(report))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmscat",
        description="Direct sampling imaging of acoustic scatterers from near or far field data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="solve the forward problem and write sample files")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--outdir", default=".")
    p_syn.add_argument("--seed", type=int, default=None, help="override noise.seed")
    p_syn.set_defaults(func=cmd_synthesize)

    p_img = sub.add_parser("image", help="evaluate the indicator on a grid from sample files")
    p_img.add_argument("--config", default=None)
    p_img.add_argument("--data", nargs="+", required=True)
    p_img.add_argument("--outdir", default=".")
    p_img.set_defaults(func=cmd_image)

    p_ver = sub.add_parser("verify", help="check the correlation identity and the forward oracle")
    p_ver.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p_ver.add_argument("--nquad", type=int, default=None)
    p_ver.add_argument("--pairs", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--outdir", default=".")
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("reproduce", help="run one benchmark scenario end to end")
    p_rep.add_argument("--example", required=True, choices=SCENARIO_NAMES)
    p_rep.add_argument("--variant", default=None)
    p_rep.add_argument("--epsilon", type=float, default=0.0)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--cutoff", type=float, default=0.75)
    p_rep.add_argument("--outdir", default=".")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, SolverError) as exc:  # ConfigError too, and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
