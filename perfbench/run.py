"""dsmscat benchmark: drive the public CLI one run at a time and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Run it from anywhere inside a checkout; it reads the package from ``src/``
and writes only under ``.bench_work/``, which it removes when it ends.

One client runs one command at a time (a closed loop), because dsmscat is
a batch tool.  Every measured run is a fresh ``python3 -m dsmscat`` process,
so the package's in-process kernel cache never carries over between runs.
Runs repeat until about ``--seconds`` of measured run time has passed.

``--trace 0`` reports the end-to-end metrics: median wall time, CPU time
and peak RSS of a run, and ``setup_s``, the median time a fresh process
takes to import ``dsmscat.cli``, timed twice before every run.
``--trace 1`` alternates untraced runs with runs under ``traced.py`` and
reports the per-layer metrics: span totals of the traced runs (medians),
the probes of ``probe.py``, and the tracing overhead.  Every run's outputs are checked (``workloads.py``); the
command exits 1 when any run or check failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# One BLAS thread: the runs share a small machine with other work, and a
# single thread keeps run-to-run spread low.  Always at most nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_RUN = 2  # import timings taken before each run, so they span the whole run time
CHILD_TIMEOUT_S = 60.0
PROBE_POINTS = 200_000
PROBE_BANDS = {"0_8": (0.1, 8.0), "8_14": (8.0, 14.0), "14_45": (14.0, 45.0)}


class Child:
    """Wall time, CPU time, peak RSS and exit code of one finished child process."""

    def __init__(self, argv, env, log_path):
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.log_path = log_path

    def log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-5:])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DSMSCAT_THREADS", None)  # cli applies it after numpy has loaded BLAS
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def environment_line() -> str:
    import numpy
    nproc = len(os.sched_getaffinity(0))
    return (f"# env nproc={nproc} blas_threads={BLAS_THREADS} numpy={numpy.__version__} "
            f"python={platform.python_version()}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Session:
    """One workload at one seed: its inputs, runs, checks and results."""

    def __init__(self, name: str, seed: int, seconds: float):
        from workloads import WORKLOADS

        self.name, self.seed, self.seconds = name, seed, seconds
        self.env = child_env()
        self.work = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.inputs = os.path.join(self.work, "inputs")
        os.makedirs(self.inputs)
        self.serial = 0
        self.attempted = self.failed = 0
        self.quality: dict = {}
        try:
            self.spawn([sys.executable, "-c", "import dsmscat.cli"])  # warm the file cache
            self.workload = WORKLOADS[name](self.inputs, seed)
        except BaseException:
            self.close()
            raise

    def spawn(self, argv) -> Child:
        self.serial += 1
        return Child(argv, self.env, os.path.join(self.work, f"log-{self.serial}.txt"))

    def run_checked(self, prefix) -> tuple[Child, str]:
        """One CLI run and its output check; a failure is counted and logged."""
        from workloads import CheckError

        outdir = os.path.join(self.work, f"run-{self.serial + 1}")
        child = self.spawn([*prefix, *self.workload.cli_args(outdir)])
        self.attempted += 1
        try:
            if child.code != 0:
                raise CheckError(f"exit code {child.code}:\n{child.log_tail()}")
            for key, value in self.workload.check(outdir).items():
                self.quality[key] = max(value, self.quality.get(key, value))
        except CheckError as exc:
            self.failed += 1
            print(f"# FAILED {self.name} run {self.attempted}: {exc}", file=sys.stderr)
        return child, outdir

    def more(self, walls) -> bool:
        """Start another run while no run failed and that brings the measured
        time nearer to --seconds."""
        if self.failed:
            return False
        return not walls or sum(walls) + statistics.mean(walls) / 2.0 < self.seconds

    def setup_time(self) -> float:
        child = self.spawn([sys.executable, "-c", "import dsmscat.cli"])
        if child.code != 0:
            raise RuntimeError(f"import dsmscat.cli failed:\n{child.log_tail()}")
        return child.wall_s

    def untraced(self) -> dict:
        setup, runs = [], []
        while self.more([c.wall_s for c in runs]):
            setup += [self.setup_time() for _ in range(SETUP_PER_RUN)]
            child, outdir = self.run_checked([sys.executable, "-m", "dsmscat"])
            shutil.rmtree(outdir, ignore_errors=True)
            runs.append(child)
        self.report_runs(runs)
        metrics = {"setup_s": statistics.median(setup)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(getattr(c, key) for c in runs)
        return metrics

    def traced(self) -> dict:
        import numpy as np
        from layers import layer_metrics, layer_self_times

        rng = np.random.default_rng(self.seed)
        probe_npz = os.path.join(self.inputs, "probe.npz")
        np.savez(probe_npz, **{band: rng.uniform(lo, hi, PROBE_POINTS)
                               for band, (lo, hi) in PROBE_BANDS.items()})
        plain = [sys.executable, "-m", "dsmscat"]
        plain_walls, traced_walls, per_run, traces = [], [], [], []
        last_outdir = None
        while self.more([a + b for a, b in zip(plain_walls, traced_walls)]):
            spans_path = os.path.join(self.work, f"spans-{self.serial + 1}.json")
            order = ("plain", "traced") if len(plain_walls) % 2 == 0 else ("traced", "plain")
            for mode in order:
                prefix = plain if mode == "plain" else [sys.executable, os.path.join(HERE, "traced.py"),
                                                        spans_path]
                failed_before = self.failed
                child, outdir = self.run_checked(prefix)
                (plain_walls if mode == "plain" else traced_walls).append(child.wall_s)
                if mode == "traced" and self.failed == failed_before:
                    with open(spans_path, encoding="utf-8") as handle:
                        traces.append(json.load(handle))
                    per_run.append(layer_metrics(traces[-1]))
                    if last_outdir:
                        shutil.rmtree(last_outdir, ignore_errors=True)
                    last_outdir = outdir
                else:
                    shutil.rmtree(outdir, ignore_errors=True)
        if not per_run:
            return {}
        metrics = {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
        csvs = sorted(os.path.join(last_outdir, f) for f in os.listdir(last_outdir)
                      if f.startswith("indicator_") and f.endswith(".csv"))
        probe_json = os.path.join(self.work, "probe.json")
        child = self.spawn([sys.executable, os.path.join(HERE, "probe.py"), probe_npz, probe_json, *csvs])
        if child.code != 0:
            raise RuntimeError(f"probe failed:\n{child.log_tail()}")
        with open(probe_json, encoding="utf-8") as handle:
            metrics.update(json.load(handle))
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        for trace in traces[-1:]:
            if trace["missing"]:
                print(f"# spans missing (their metrics are left out): {', '.join(trace['missing'])}")
            split = sorted(layer_self_times(trace).items(), key=lambda kv: -kv[1])
            print("# self time by layer, last traced run: "
                  + ", ".join(f"{layer} {secs:.3f} s" for layer, secs in split))
        return metrics

    def report_runs(self, runs) -> None:
        walls = [c.wall_s for c in runs]
        q1, q3 = quartiles(walls)
        print(f"# {self.name}: {len(runs)} runs, wall min {min(walls):.4f} q1 {q1:.4f} "
              f"q3 {q3:.4f} max {max(walls):.4f} s")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other invocation is using it


def declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    units = declared_metrics()[1 if trace else 0]
    session = Session(name, seed, seconds)
    try:
        measured = session.traced() if trace else session.untraced()
    finally:
        session.close()
    unknown = set(measured) - set(units)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    print(f"# workload {name} seed {seed} trace {int(trace)}: "
          f"{session.attempted} runs, {session.failed} failed")
    for key, value in sorted(session.quality.items()):
        print(f"{name} {key} = {value:.6g}  (worst run; checked)")
    metrics = {}
    for key, unit in units.items():
        if key in measured:
            metrics[key] = {"value": measured[key], "unit": unit}
            print(f"{name} {key} = {measured[key]:.6g} {unit}")
        else:
            print(f"{name} {key} = missing")
    return {"correct": session.failed == 0 and session.attempted > 0,
            "attempted": session.attempted, "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "dsmscat", "cli.py")):
        print(f"error: no dsmscat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="dsmscat benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(environment_line())
    if args.workload == "all":
        results = {(name, trace): run_one(name, args.seed, args.seconds, trace)
                   for name in WORKLOADS for trace in (False, True)}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": value for (name, _), r in results.items()
                        for key, value in r["metrics"].items()},
        }
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
