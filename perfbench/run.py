"""Closed-loop benchmark of gridofo: one client, one workload instance at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload trip_reclose --seed 0 --seconds 35 --trace 0

The package is imported from `src/` of that checkout. Workload instances
run back to back until the next one would end after `--seconds`; set-up is
timed on its own, in a block of repeats before each instance. Every instance is checked against the stored reference.
With `--trace 0` the last line reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of traced instances, which alternate with
untraced ones so the tracing overhead is measured in the same run. The
lines before it give every metric with its unit and the run's metadata.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
# set-up is timed in blocks before every instance, so that it sees the same
# machine as the instances do over the run
SETUP_BLOCK = 30
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "sim_s_per_s": "s/s",
             "samples_per_s": "1/s", "peak_rss_mb": "MB",
             "fail_ratio": "ratio", "recovered_share": "ratio"}
# fail_ratio and recovered_share can be zero, so they are printed but kept
# out of the gated metrics; failures also show in "failed" / "attempted"
GATED = ("setup_s", "wall_s", "sim_s_per_s", "samples_per_s", "peak_rss_mb")


LAYER_UNITS = {"us_p50": "us", "us_p99": "us", "self_us_p50": "us",
               "ms_p50": "ms", "ms": "ms", "self_s": "s", "pool_wait_s": "s",
               "svg_bytes": "bytes", "csv_bytes": "bytes", "calls": "count",
               "calls_per_step": "count", "mean": "count"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("trip_reclose", "sweep", "static_ofo"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--length", choices=("full", "toy"), default="full",
                   help="toy shortens every timeline (smoke test only)")
    p.add_argument("--reference", type=Path, default=HERE / "reference.json")
    p.add_argument("--workdir", type=Path, default=Path(".perfbench_work"))
    return p.parse_args(argv)


def import_program(root: Path):
    src = root / "src"
    if not (src / "gridofo" / "__init__.py").is_file():
        raise SystemExit(f"error: no gridofo sources under {src}; run from "
                         "the root of a source checkout")
    sys.path.insert(0, str(src))
    import gridofo.cli  # noqa: F401  (loads every module of the package)
    found = Path(sys.modules["gridofo"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise SystemExit(f"error: imported gridofo from {found}, not {src}")


def metadata(root: Path) -> dict:
    import numpy
    import scipy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    loc = sum(len(p.read_text().splitlines())
              for p in (root / "src" / "gridofo").glob("*.py"))
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),  # the sweep's pool size
        "src_loc": loc,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Runner:
    """Runs instances of one workload and checks each against the reference."""

    def __init__(self, wl, ref: dict, tol: dict, work: Path):
        self.wl = wl
        self.ref = ref
        self.tol = tol
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def instance(self, timing: bool):
        """One checked instance; returns (wall_s, observation, tracer)."""
        from spans import Tracer
        from workloads import compare
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        tracer = Tracer(timing=timing)
        tracer.install(self.work)
        self.attempted += 1
        try:
            try:
                t0 = time.perf_counter()
                result = self.wl.run(out)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            tracer.merge_members()
            obs = self.wl.observe(out, result, tracer.calls)
        except Exception:
            # raising, or leaving output that cannot be read, fails the instance
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None, None, tracer
        bad = compare(obs, self.ref, self.tol["rtol"], self.tol["atol"])
        if bad:
            self.failed += 1
            self.problems.extend(bad[:10])
        return wall, obs, tracer


def run(args) -> dict:
    root = Path.cwd()
    import_program(root)
    sys.path.insert(0, str(HERE))
    import workloads

    reference = json.loads(args.reference.read_text())
    line = workloads.pick_line(reference, args.workload, args.seed)
    ref = reference[args.length][args.workload].get(line)
    if ref is None:
        raise SystemExit(f"error: no {args.length} reference for "
                         f"{args.workload} on line {line}")
    work = args.workdir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, root, work, line, ref, reference["tolerance"])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path, line: str, ref: dict,
            tol: dict) -> dict:
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](root, work, line, args.length)
    print(f"workload {args.workload} seed {args.seed} line {line} "
          f"length {args.length} trace {args.trace}")

    runner = Runner(wl, ref, tol, work)
    walls, rates, samples, recovered = [], [], [], []
    traced_walls, layers, absent = [], [], []
    setup = []
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_BLOCK):
            t0 = time.perf_counter()
            wl.setup()
            setup.append(time.perf_counter() - t0)
        wall, obs, _ = runner.instance(timing=False)
        if wall is not None:
            sim_s, n_samples = wl.work_done(obs)
            walls.append(wall)
            rates.append(sim_s / wall)
            samples.append(n_samples / wall)
            recovered.append(obs["recovered_share"])
        cycle = statistics.median(walls) if walls else 0.0
        if args.trace:
            wall, obs, tracer = runner.instance(timing=True)
            absent = tracer.absent
            if wall is not None:
                traced_walls.append(wall)
                layers.append(spans.layer_metrics(
                    tracer, wall,
                    csv_bytes=wl.output_bytes(work / "out", ".csv"),
                    svg_bytes=wl.output_bytes(work / "out", ".svg")))
            cycle += statistics.median(traced_walls) if traced_walls else 0.0
        if time.perf_counter() - start + cycle > args.seconds:
            break

    for problem in runner.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    fail_ratio = runner.failed / runner.attempted
    shown = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls) if walls else 0.0,
        "sim_s_per_s": statistics.median(rates) if rates else 0.0,
        "samples_per_s": statistics.median(samples) if samples else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "fail_ratio": fail_ratio,
        "recovered_share": statistics.median(recovered) if recovered else 0.0,
    }
    print(f"instances {len(walls)} untraced, {len(traced_walls)} traced; "
          f"wall_s min {min(walls, default=0):.4f} max {max(walls, default=0):.4f}; "
          f"setup repeats {len(setup)}")
    for name, value in shown.items():
        print(f"metric {name} {value:.6g} {E2E_UNITS[name]}")
    if args.trace:
        metrics = {}
        if layers and walls:
            missing = set(spans.absent_metrics(tracer, layers[0]))
            for name in layers[0]:
                if name not in missing:
                    metrics[name] = statistics.median(m[name] for m in layers)
            metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                               / statistics.median(walls))
            if missing:
                print(f"absent {' '.join(sorted(missing))}")
        units = {name: layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"metric {name} {value:.6g} {units[name]}")
    else:
        metrics = {name: shown[name] for name in GATED}
        units = {name: E2E_UNITS[name] for name in metrics}
    meta = metadata(root)
    meta.update(line=line, absent_wrappers=absent,
                expected_recovered_share=ref.get("recovered_share"))
    print("meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
