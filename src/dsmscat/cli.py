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

Sample files are CSV with header ``# kind=far k=6.2831853
incident_deg=45.0`` and rows ``theta_deg,re,im`` (far) or ``x,y,re,im``
(near), 17 significant digits.  Heatmaps are binary P6 pixmaps,
row-major with y increasing downward, value v mapped linearly to the
gray level round(255 v).

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 I/O error.  --seed overrides the config seed.  All writes go through
a temp file and rename, so outputs are never half-written.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

import numpy as np

from .diagnostics import lemma_sweep
from .errors import ConfigError
from .forward import (
    ShapeSpec,
    discretize,
    disk_series_farfield,
    scattered_far,
    scattered_near,
    solve_lippmann_schwinger,
)
from .indicators import SamplingGrid, combine_max, indicator_grid, superlevel_components
from .kernels import WaveContext
from .measurement import FieldSamples, NoiseSpec, add_noise, far_angles, near_circle_geometry
from .scenarios import SCENARIO_NAMES, build

_KNOWN_KEYS = {
    "scenario", "variant", "k", "grid.min", "grid.max", "grid.h",
    "near.radius", "near.count", "far.count", "noise.epsilon", "noise.seed",
    "incidents", "shape",
}
_HEADER_RE = re.compile(r"^# kind=(near|far) k=(\S+) incident_deg=(\S+)$")
_LEMMA_TOL = 1e-8
_ORACLE_TOL = 0.02


def atomic_write(path: str, payload) -> None:
    """Write bytes or text to path via a temp file in the same directory."""
    data = payload.encode() if isinstance(payload, str) else payload
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dsmscat-")
    try:
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


def _single(cfg: dict, key: str, default=None):
    values = cfg.get(key)
    if values is None:
        return default
    if len(values) > 1:
        raise ConfigError(f"key {key!r} given more than once")
    return values[0]


def _as_float(cfg, key, default):
    raw = _single(cfg, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc


def _as_int(cfg, key, default):
    raw = _single(cfg, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc


def _as_float_list(cfg, key, default):
    raw = _single(cfg, key)
    if raw is None:
        return list(default)
    try:
        return [float(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a comma list of numbers: {raw!r}") from exc


def _parse_shape(tokens_raw: str) -> ShapeSpec:
    tokens = tokens_raw.split()
    try:
        kind = tokens[0]
        if kind == "square":
            geom, rest = {"side": float(tokens[3])}, tokens[4:]
            center = (float(tokens[1]), float(tokens[2]))
        elif kind == "disk":
            geom, rest = {"radius": float(tokens[3])}, tokens[4:]
            center = (float(tokens[1]), float(tokens[2]))
        elif kind == "ring":
            geom, rest = {"outer_side": float(tokens[3]), "inner_side": float(tokens[4])}, tokens[5:]
            center = (float(tokens[1]), float(tokens[2]))
        elif kind == "bar":
            geom = {"length": float(tokens[3]), "thickness": float(tokens[4]),
                    "angle": np.deg2rad(float(tokens[5]))}
            rest = tokens[6:]
            center = (float(tokens[1]), float(tokens[2]))
        else:
            raise ConfigError(f"unknown shape kind {kind!r}")
        if len(rest) != 2 or rest[0] not in ("eta", "nsq"):
            raise ConfigError(f"shape must end with 'eta VALUE' or 'nsq VALUE': {tokens_raw!r}")
        material = {rest[0]: complex(rest[1])}
        return ShapeSpec(kind=kind, center=center, **geom, **material)
    except ConfigError:
        raise
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad shape line: {tokens_raw!r} ({exc})") from exc


def _resolve_scatterer(cfg: dict):
    """(label, shapes, preset incidents or None) from scenario or shape lines."""
    scenario_name = _single(cfg, "scenario")
    shape_lines = cfg.get("shape", [])
    if scenario_name is not None and shape_lines:
        raise ConfigError("give either a scenario or explicit shapes, not both")
    if scenario_name is not None:
        try:
            scenario = build(scenario_name, variant=_single(cfg, "variant"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return scenario.name, scenario.shapes, scenario.incidents
    if not shape_lines:
        raise ConfigError("config needs a scenario id or at least one shape line")
    if _single(cfg, "variant") is not None:
        raise ConfigError("variant is only meaningful together with a scenario")
    return "custom", tuple(_parse_shape(line) for line in shape_lines), None


def _resolve_incidents(cfg: dict, preset) -> np.ndarray:
    raw = _single(cfg, "incidents")
    if raw is None:
        if preset is None:
            raise ConfigError("explicit shapes need an 'incidents' angle list")
        return np.atleast_2d(preset)
    try:
        degs = [float(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"incidents: not a comma list of angles: {raw!r}") from exc
    if not degs:
        raise ConfigError("incidents list is empty")
    theta = np.deg2rad(degs)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _incident_deg(direction) -> float:
    return float(np.rad2deg(np.arctan2(direction[1], direction[0])) % 360.0)


def _sample_rows(samples: FieldSamples, k: float) -> str:
    deg = _incident_deg(samples.incident)
    lines = [f"# kind={samples.kind} k={k:.8g} incident_deg={deg!r}"]
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
        header = handle.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if not match:
            raise ConfigError(f"{path}: missing or malformed sample header")
        kind, k_raw, deg_raw = match.groups()
        try:
            k, deg = float(k_raw), float(deg_raw)
            body = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not (np.isfinite(k) and k > 0):
        raise ConfigError(f"{path}: wavenumber k must be finite and positive")
    expected_cols = 3 if kind == "far" else 4
    if body.size == 0 or body.shape[1] != expected_cols:
        raise ConfigError(f"{path}: expected {expected_cols} columns of sample rows")
    incident = np.array([np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))])
    if kind == "far":
        theta = np.deg2rad(body[:, 0])
        locations = np.column_stack([np.cos(theta), np.sin(theta)])
        values = body[:, 1] + 1j * body[:, 2]
    else:
        locations = body[:, :2]
        values = body[:, 2] + 1j * body[:, 3]
    try:
        samples = FieldSamples(kind=kind, locations=locations, values=values, incident=incident)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return k, samples


def write_indicator_csv(path: str, result) -> None:
    grid = result.grid
    lines = [f"# kind=indicator h={grid.h:.8g} shape={grid.shape[0]}x{grid.shape[1]}",
             "x,y,value"]
    xs, ys = grid.xs, grid.ys
    values = result.values
    for iy in range(len(ys)):
        row = values[iy]
        y = ys[iy]
        for ix in range(len(xs)):
            lines.append(f"{xs[ix]:.17g},{y:.17g},{row[ix]:.17g}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_heatmap_ppm(path: str, result) -> None:
    """8-bit grayscale P6; top pixel row is the max-y grid row."""
    levels = np.round(np.flipud(result.values) * 255.0).astype(np.uint8)
    ny, nx = levels.shape
    rgb = np.repeat(levels[:, :, None], 3, axis=2)
    atomic_write(path, f"P6\n{nx} {ny}\n255\n".encode() + rgb.tobytes())


def _grid_from_config(cfg: dict) -> SamplingGrid:
    lo = _as_float(cfg, "grid.min", -2.0)
    hi = _as_float(cfg, "grid.max", 2.0)
    h = _as_float(cfg, "grid.h", 0.01)
    try:
        return SamplingGrid(xmin=lo, xmax=hi, ymin=lo, ymax=hi, h=h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc


def _synthesize_samples(ctx, shapes, incidents, near_radius, near_count, far_count):
    """Clean near and far FieldSamples per incident direction."""
    cells = discretize(ctx, shapes, ctx.wavelength / 50.0)
    near_pts = near_circle_geometry(ctx, near_radius, near_count)
    far_dirs = far_angles(far_count)
    out = []
    for direction in incidents:
        current = solve_lippmann_schwinger(ctx, cells, direction)
        near = FieldSamples(kind="near", locations=near_pts,
                            values=scattered_near(ctx, cells, current, near_pts),
                            incident=direction)
        far = FieldSamples(kind="far", locations=far_dirs,
                           values=scattered_far(ctx, cells, current, far_dirs),
                           incident=direction)
        out.append((near, far))
    return out


def cmd_synthesize(args) -> int:
    cfg = _load_config(args.config)
    ctx = WaveContext(k=_as_float(cfg, "k", 2.0 * np.pi))
    label, shapes, preset_incidents = _resolve_scatterer(cfg)
    incidents = _resolve_incidents(cfg, preset_incidents)
    near_radius = _as_float(cfg, "near.radius", 4.0 * ctx.wavelength)
    near_count = _as_int(cfg, "near.count", 50)
    far_count = _as_int(cfg, "far.count", 50)
    epsilons = _as_float_list(cfg, "noise.epsilon", (0.0,))
    seed = args.seed if args.seed is not None else _as_int(cfg, "noise.seed", 0)
    os.makedirs(args.outdir, exist_ok=True)

    pairs = _synthesize_samples(ctx, shapes, incidents, near_radius, near_count, far_count)
    for index, (near, far) in enumerate(pairs):
        for samples in (near, far):
            for eps in epsilons:
                spec = NoiseSpec(epsilon=eps, seed=seed)
                noisy = samples if eps == 0.0 else add_noise(samples, spec)
                name = f"{label}_{samples.kind}_inc{index}_eps{eps:g}.csv"
                path = os.path.join(args.outdir, name)
                atomic_write(path, _sample_rows(noisy, ctx.k))
                print(path)
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
    config_k = _as_float(cfg, "k", None)
    if config_k is not None and abs(config_k - ks[0]) > 1e-9 * ks[0]:
        raise ConfigError("config k does not match the data files")
    degs = [round(_incident_deg(s.incident), 6) for _, s in loaded]
    if len(set(degs)) != len(degs):
        raise ConfigError("duplicate incident direction across data files")

    kind = kinds.pop()
    ctx = WaveContext(k=float(ks[0]))
    grid = _grid_from_config(cfg)
    combined = combine_max([indicator_grid(ctx, s, grid) for _, s in loaded])
    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, f"indicator_{kind}.csv")
    ppm_path = os.path.join(args.outdir, f"indicator_{kind}.ppm")
    write_indicator_csv(csv_path, combined)
    write_heatmap_ppm(ppm_path, combined)
    print(csv_path)
    print(ppm_path)
    return 0


def _verify_disk_oracle() -> float:
    ctx = WaveContext(k=2.0 * np.pi)
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    disk = ShapeSpec(kind="disk", center=(0.0, 0.0), radius=0.3, nsq=1.5)
    cells = discretize(ctx, [disk], ctx.wavelength / 40.0)
    current = solve_lippmann_schwinger(ctx, cells, d)
    dirs = far_angles(50)
    numeric = scattered_far(ctx, cells, current, dirs)
    exact = disk_series_farfield(ctx, 0.3, 1.5, d, dirs)
    return float(np.linalg.norm(numeric - exact) / np.linalg.norm(exact))


def cmd_verify(args) -> int:
    dims = (2, 3) if args.dim is None else (args.dim,)
    lines = []
    failures = []
    for dim in dims:
        nquad = args.nquad if args.nquad is not None else (512 if dim == 2 else 64)
        rmax = 4.0 if dim == 2 else 2.0
        report = lemma_sweep(WaveContext(k=2.0 * np.pi, dim=dim), rmax=rmax,
                             npairs=args.pairs, nquad=nquad, seed=args.seed or 0)
        status = "PASS" if report.max_error <= _LEMMA_TOL else "FAIL"
        if status == "FAIL":
            failures.append(f"lemma dim={dim}")
        lines.append(
            f"lemma dim={dim} nquad={nquad} pairs={args.pairs} "
            f"max_error={report.max_error:.3e} tolerance={_LEMMA_TOL:g} {status}"
        )
    error = _verify_disk_oracle()
    status = "PASS" if error <= _ORACLE_TOL else "FAIL"
    if status == "FAIL":
        failures.append("disk_oracle")
    lines.append(f"disk_oracle rel_l2_error={error:.3e} tolerance={_ORACLE_TOL:g} {status}")
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
    try:
        scenario = build(args.example, variant=args.variant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ctx = WaveContext(k=2.0 * np.pi)
    os.makedirs(args.outdir, exist_ok=True)
    pairs = _synthesize_samples(ctx, scenario.shapes, scenario.incidents, 4.0, 50, 50)

    epsilons = [0.0] if args.epsilon == 0.0 else [0.0, args.epsilon]
    report = [
        f"scenario={scenario.name} variant={args.variant or 'none'} "
        f"epsilon={args.epsilon:g} seed={args.seed} cutoff={args.cutoff:g}"
    ]
    grid = SamplingGrid()
    for kind in ("near", "far"):
        per_incident = []
        for index, pair in enumerate(pairs):
            samples = pair[0] if kind == "near" else pair[1]
            for eps in epsilons:
                spec = NoiseSpec(epsilon=eps, seed=args.seed)
                data = samples if eps == 0.0 else add_noise(samples, spec)
                name = f"{scenario.name}_{kind}_inc{index}_eps{eps:g}.csv"
                atomic_write(os.path.join(args.outdir, name), _sample_rows(data, ctx.k))
                if eps == epsilons[-1]:
                    per_incident.append(data)
        combined = combine_max([indicator_grid(ctx, data, grid) for data in per_incident])
        write_indicator_csv(os.path.join(args.outdir, f"indicator_{kind}.csv"), combined)
        write_heatmap_ppm(os.path.join(args.outdir, f"indicator_{kind}.ppm"), combined)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
