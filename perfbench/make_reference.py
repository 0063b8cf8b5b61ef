"""Regenerate reference.json: the seed's lines and one observation per workload.

Run from the root of a source checkout whose behaviour is the reference:

    python3 perfbench/make_reference.py

A line is kept when its trip leaves the grid connected and every workload
on it is well-conditioned: a rerun with every network solve perturbed by
PERTURBATION (relative, random) still passes the check against the
unperturbed run. On the other lines roundoff alone changes what the
controller does, so no tolerance could tell a reordered sum from a change of
behaviour; they are listed under "excluded" with the first difference. A
workload's seeds pick among the kept lines on which it does the same work
as on DEFAULT_LINE (members, models, steps, samples, and on static_ofo the
QP iterations), so that runs on different seeds time the same work. The default seed maps to
DEFAULT_LINE. Regenerate only when a change is meant to
alter behaviour, and say so in that change.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_LINE = "23-24"
# A Kron-reduced network solve differs from the full solve by about 1e-10;
# the screen perturbs ten times harder. The tolerance admits what that does
# to a well-conditioned run; another controller step or a missed cut moves
# the checked values by far more.
PERTURBATION = 1e-9
TOLERANCE = {"rtol": 1e-5, "atol": 1e-8}
NAMES = tuple(workloads.WORKLOADS)


@contextlib.contextmanager
def perturbed_solves(eps: float):
    """Multiply every network and power-flow solve by (1 + eps * N(0, 1))."""
    import gridofo.simulator as simulator
    rng = np.random.default_rng(0)
    lu_solve, solve = simulator.lu_solve, np.linalg.solve

    def noisy(fn):
        def wrapper(*args, **kwargs):
            x = fn(*args, **kwargs)
            return x * (1.0 + eps * rng.standard_normal(x.shape))
        return wrapper

    simulator.lu_solve, np.linalg.solve = noisy(lu_solve), noisy(solve)
    try:
        yield
    finally:
        simulator.lu_solve, np.linalg.solve = lu_solve, solve


def observe(root, workdir, name, line, length, perturb=False):
    """One unchecked, traced instance: (observation, QP iterations, None) or
    (None, 0, why it failed)."""
    work = workdir / "reference" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](root, work, line, length)
    runner = run.Runner(wl, {}, TOLERANCE, work)
    with perturbed_solves(PERTURBATION) if perturb else contextlib.nullcontext():
        _, obs, tracer = runner.instance(timing=True)
    if obs is None:
        return None, 0, runner.problems[-1].strip().splitlines()[-1]
    return obs, sum(tracer.qp_iters), None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workdir", type=Path, default=Path(".perfbench_work"))
    args = p.parse_args(argv)

    root = Path.cwd()
    run.import_program(root)
    from gridofo.dataio import bundled_path, load_grid

    net = load_grid(bundled_path("ieee39.json")).net
    connected = [ln.id for ln in net.lines if ln.in_service and
                 len(net.with_line_out(ln.id).connected_components()) == 1]
    doc = {"default_line": DEFAULT_LINE, "tolerance": TOLERANCE,
           "perturbation": PERTURBATION, "excluded": {},
           "lines": {name: [] for name in NAMES},
           "full": {name: {} for name in NAMES},
           "toy": {name: {} for name in NAMES}}
    kept = {}
    for line in connected:
        found = {}
        for name in NAMES:
            plain, qp, failure = observe(root, args.workdir, name, line, "full")
            if plain is not None:
                noisy, _, failure = observe(root, args.workdir, name, line,
                                            "full", perturb=True)
            diff = ([f": {failure}"] if failure else
                    workloads.compare(noisy, plain, **TOLERANCE))
            if diff:
                doc["excluded"][line] = f"{name}{diff[0]}"
                break
            found[name] = plain, qp
        else:
            kept[line] = found
        print(f"{line}: {doc['excluded'].get(line, 'kept')}", flush=True)
    if DEFAULT_LINE not in kept:
        raise SystemExit(f"default line {DEFAULT_LINE} is not well-conditioned")
    for name in NAMES:
        work = workloads.WORKLOADS[name].work_count
        for line, found in kept.items():
            if work(*found[name]) == work(*kept[DEFAULT_LINE][name]):
                doc["lines"][name].append(line)
                doc["full"][name][line] = found[name][0]
    for name in NAMES:
        doc["toy"][name][DEFAULT_LINE] = observe(root, args.workdir, name,
                                                 DEFAULT_LINE, "toy")[0]
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True)
                                         + "\n")
    print({name: len(lines) for name, lines in doc["lines"].items()},
          f"candidate lines, {len(doc['excluded'])} excluded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
