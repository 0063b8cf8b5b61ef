"""Command-line entry point: power flow report, scenario runs, robustness sweep.

Subcommands:
    powerflow   solve the AC power flow of a grid file and print a bus report
    simulate    run a closed-loop scenario; write trajectory.csv, events.log
                and three SVG charts (gap, voltage set-points, power)
    robustness  rerun the scenario once per erased-line sensitivity; write
                sweep.csv, sweep_gaps.csv and an overlay SVG

The numbers, the sweep's plan and statistics included, come from
`simulator`; this module parses arguments, runs the sweep's members in a
process pool, and writes the artifacts. Exit codes: 0 success, 1 input
error, 2 numerical failure. All configuration is explicit through flags and
files; no environment variables are read.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .dataio import bundled_path, load_grid, load_scenario
from .errors import GridDataError, GridOfoError
from .network import solve_power_flow
from .ofo import default_config
from .plotting import gap_chart, power_chart, setpoint_chart, sweep_chart
from .simulator import gap_statistics, run_scenario, sweep_plan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


_NUM = "{:.12g}"  # the one number format of every CSV file


def _num(x: float) -> str:
    return _NUM.format(x)


def _write_table(path, header, columns):
    """A CSV file of a header and one row of `_NUM` numbers per row of the
    stacked columns, byte for byte as csv.writer writes it."""
    rows = np.column_stack(columns)
    row = ",".join([_NUM] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row.format(*r) for r in rows.tolist())


def _write_trajectory_csv(path, traj, n_gen: int):
    n_bus = traj.v.shape[1]
    n_line = traj.flows.shape[1]
    header = (["t", "vgap"]
              + [f"v_{i}" for i in range(1, n_bus + 1)]
              + ["dtheta"]
              + [f"flow_{i}" for i in range(1, n_line + 1)]
              + [f"pOFO_{j}" for j in range(1, n_gen + 1)]
              + [f"vOFO_{j}" for j in range(1, n_gen + 1)]
              + [f"pm_{j}" for j in range(1, n_gen + 1)])
    _write_table(path, header, (traj.t, traj.vgap, traj.v, traj.dtheta, traj.flows,
                                traj.p_ofo, traj.v_ofo, traj.p_m))


def _out_dir(path) -> Path:
    """Create the --out directory; a path that cannot be one is an input error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GridDataError(f"--out {out}: {exc.strerror}") from None
    return out


def cmd_powerflow(args) -> int:
    grid = load_grid(args.grid)
    net = grid.net
    sol = solve_power_flow(net, [g.p_set for g in net.generators],
                           [g.v_set for g in net.generators])
    print(f"converged in {sol.iterations} iterations, "
          f"max mismatch {sol.residual:.3e} p.u.")
    print(f"{'bus':>4} {'v (p.u.)':>10} {'theta (deg)':>12}")
    for b, v, th in zip(net.buses, sol.v, np.degrees(sol.theta)):
        print(f"{b.id:>4} {v:>10.5f} {th:>12.4f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    grid = load_grid(args.grid)
    scen = load_scenario(args.scenario)
    ofo_cfg = default_config(grid.net, **scen.ofo)
    out = _out_dir(args.out)

    traj = run_scenario(grid, scen.events, ofo_cfg, scen.sim,
                        sensitivity_topology=args.sensitivity_topology)
    _write_trajectory_csv(out / "trajectory.csv", traj, grid.net.n_gen)
    with open(out / "events.log", "w") as fh:
        fh.writelines(f"{ev.t:10.3f}  {ev.text}\n" for ev in traj.events)

    names = [f"G{g.bus}" for g in grid.net.generators]
    gap_chart(traj.t, traj.vgap, traj.events).write(out / "gap.svg")
    setpoint_chart(traj.t, traj.v_ofo, names, traj.events).write(out / "setpoints.svg")
    power_chart(traj.t, traj.p_ofo, traj.p_m, names,
                traj.events).write(out / "power.svg")
    print(f"wrote trajectory.csv, events.log and 3 charts to {out}")
    return EXIT_OK


def _sweep_worker(task):
    """Run one sweep member, given the parsed grid, events, SimConfig and
    OfoConfig and the member's erased line (None for the nominal run), in a
    worker process; returns (failure text or None, t, vgap)."""
    grid, events, sim_cfg, ofo_cfg, topology = task
    try:
        traj = run_scenario(grid, events, ofo_cfg, sim_cfg,
                            sensitivity_topology=topology)
    except GridOfoError as exc:
        return f"{type(exc).__name__}: {exc}", None, None
    return None, traj.t, traj.vgap


def cmd_robustness(args) -> int:
    grid = load_grid(args.grid)
    scen = load_scenario(args.scenario)
    ofo_cfg = default_config(grid.net, **scen.ofo)
    # reject bad input here: a worker would report it as a failed member
    plan = sweep_plan(grid, scen.events, ofo_cfg, scen.sim)
    out = _out_dir(args.out)

    with ProcessPoolExecutor() as pool:
        results = dict(zip(plan.members, pool.map(
            _sweep_worker,
            [(grid, scen.events, scen.sim, ofo_cfg, m) for m in plan.members])))

    failure, t, nominal = results.pop(None)
    if failure is not None:
        print(f"nominal run failed: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL

    def stats(vgap):
        max_gap, final_gap, halve, stable = gap_statistics(plan, nominal, vgap)
        return [_num(max_gap), _num(final_gap), halve, "stable" if stable else "unstable"]

    gap_by_line = {}  # in line id order, as the rows
    rows = [["nominal", "ok", "", *stats(nominal)]]
    for line_id in sorted(results):
        failure, _, vgap = results[line_id]
        if failure is not None:
            rows.append([line_id, "failed", failure, "", "", "", ""])
            continue
        rows.append([line_id, "ok", "", *stats(vgap)])
        gap_by_line[line_id] = vgap
    for line_id, reason in sorted(plan.skipped):
        rows.append([line_id, "skipped", reason, "", "", "", ""])

    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["line_id", "status", "reason", "max_gap", "final_gap",
                    "iterations_to_halve", "stability"])
        w.writerows(rows)

    _write_table(out / "sweep_gaps.csv",
                 ["t", "nominal"] + [f"gap_{i}" for i in gap_by_line],
                 (t, nominal, *gap_by_line.values()))

    sweep_chart(t, gap_by_line, nominal).write(out / "sweep.svg")
    n_ok = len(gap_by_line)
    n_unstable = sum(1 for r in rows if r[6] == "unstable")
    print(f"sweep: {n_ok} perturbed runs, {len(plan.skipped)} skipped, "
          f"{n_unstable} unstable; wrote sweep.csv, sweep_gaps.csv, sweep.svg")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridofo",
        description="Dynamic grid simulation with a feedback optimization "
                    "controller")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=False):
        p.add_argument("--grid", default=str(bundled_path("ieee39.json")),
                       help="grid JSON file (default: bundled 39-bus case)")
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON file")
            p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("powerflow", help="solve and report the power flow"))
    p_sim = sub.add_parser("simulate", help="run one closed-loop scenario")
    common(p_sim, scenario=True)
    p_sim.add_argument("--sensitivity-topology", default=None, metavar="LINE",
                       help="erase this line from the controller model")
    common(sub.add_parser("robustness", help="erased-line sensitivity sweep"),
           scenario=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"powerflow": cmd_powerflow, "simulate": cmd_simulate,
                "robustness": cmd_robustness}
    try:
        return handlers[args.command](args)
    except GridDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GridOfoError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
