"""Timing wrappers installed around gridofo's public functions from outside.

A wrapper is rebound under every name a caller looks up: each module of the
package whose global refers to the original function, or the class attribute
for a method. The program's files are never edited. Spans stay in memory as
per-name duration lists; a span's self time is its duration minus the time
its child spans cover. With timing off only call counts are kept, which is
what the untimed runs use for their work-count guard.

Sweep members run in pool workers forked from the benchmark process. They
inherit the wrappers, and the wrapped `_sweep_worker` writes each member's
record to a file in the run directory for the parent to merge.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, "module" or "module:Class", attribute). The names group into
# layers by their prefix, which is the gridofo module that owns the code.
TARGETS = [
    ("simulator.init", "gridofo.simulator:DynamicSimulation", "__init__"),
    ("simulator.step", "gridofo.simulator:DynamicSimulation", "step"),
    ("simulator.bus_voltages", "gridofo.simulator:DynamicSimulation", "bus_voltages"),
    ("simulator.controller_update", "gridofo.simulator:DynamicSimulation",
     "controller_update"),
    ("simulator.run_scenario", "gridofo.simulator", "run_scenario"),
    ("machines.dq_currents", "gridofo.machines", "dq_currents"),
    ("machines.derivatives_given_currents", "gridofo.machines",
     "derivatives_given_currents"),
    ("controls.governor_step", "gridofo.controls", "governor_step"),
    ("controls.pss_step", "gridofo.controls", "pss_step"),
    ("controls.exciter_step", "gridofo.controls", "exciter_step"),
    ("controls.agc_step", "gridofo.controls", "agc_step"),
    ("network.solve_power_flow", "gridofo.network", "solve_power_flow"),
    ("network.extract_measurement", "gridofo.network", "extract_measurement"),
    ("network.connected_components", "gridofo.network:NetworkModel",
     "connected_components"),
    ("sensitivity.compute_sensitivity", "gridofo.sensitivity", "compute_sensitivity"),
    ("qp.qp_solve", "gridofo.qp", "qp_solve"),
    ("ofo.ofo_update", "gridofo.ofo", "ofo_update"),
    ("plotting.chart", "gridofo.plotting:LineChart", "write"),
    ("dataio.load_grid", "gridofo.dataio", "load_grid"),
    ("dataio.load_scenario", "gridofo.dataio", "load_scenario"),
    ("cli.command", "gridofo.cli", "cmd_simulate"),
    ("cli.command", "gridofo.cli", "cmd_robustness"),
]
# the work-count guard needs only these, so untimed runs wrap nothing else
COUNTED = ("simulator.step", "simulator.controller_update")
SWEEP_WORKER = ("gridofo.cli", "_sweep_worker")
POOL = ("gridofo.cli", "ProcessPoolExecutor")
STEP = "simulator.step"
CONTROLS = "controls."
# the controller model's plausibility window (simulator.controller_update)
PLAUSIBLE_V = (0.8, 1.2)


class Tracer:
    """Span and count records of one workload run (and its pool workers)."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.absent: list[str] = []
        self.workers = 0
        self._undo: list = []
        self._dump_dir: Path | None = None
        self._seq = 0
        self.clear()

    def clear(self):
        self.pid = os.getpid()
        self.calls: Counter = Counter()
        self.dur: dict[str, list] = defaultdict(list)
        self.self_: dict[str, list] = defaultdict(list)
        self.step_children: Counter = Counter()
        self.controls_per_step: list[float] = []
        self.pf_iters: list[int] = []
        self.pf_warm = [0, 0]  # warm-started calls, of which plausible
        self.qp_iters: list[int] = []
        self.top_s = 0.0
        self._stack: list[list] = []  # [name, child seconds, controls seconds]

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        self.calls[name] += 1
        if not self.timing:
            return fn(*args, **kwargs)
        stack = self._stack
        frame = [name, 0.0, 0.0]
        stack.append(frame)
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            d = perf_counter() - t0
            stack.pop()
            self._close(name, d, frame)
            observe = _OBSERVERS.get(name)
            if observe is not None:
                observe(self, kwargs, result)  # result is None if fn raised

    def _close(self, name, d, frame):
        self.dur[name].append(d)
        self.self_[name].append(d - frame[1])
        if name == STEP:
            self.controls_per_step.append(frame[2])
        stack = self._stack
        if not stack:
            self.top_s += d
            return
        parent = stack[-1]
        parent[1] += d
        if parent[0] == STEP:
            self.step_children[name] += 1
            if name.startswith(CONTROLS):
                parent[2] += d

    @contextlib.contextmanager
    def span(self, name):
        """A span that is not a function call."""
        frame = [name, 0.0, 0.0]
        self.calls[name] += 1
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            d = perf_counter() - t0
            self._stack.pop()
            self._close(name, d, frame)

    # -- installation --------------------------------------------------------

    def install(self, dump_dir: Path):
        """Wrap the targets; the sweep worker hook dumps into `dump_dir`."""
        self._dump_dir = dump_dir
        self.parent_pid = os.getpid()
        # every importer must be loaded before its globals are rebound
        for _, owner, _ in TARGETS:
            try:
                importlib.import_module(owner.partition(":")[0])
            except ImportError:
                pass  # reported absent by _wrap
        for name, owner, attr in TARGETS:
            if self.timing or name in COUNTED:
                self._wrap(name, owner, attr)
        self._wrap_sweep_worker()
        if self.timing:
            self._wrap_pool()

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _wrap(self, name, owner, attr):
        mod_name, _, cls_name = owner.partition(":")
        try:
            mod = importlib.import_module(mod_name)
            holder = getattr(mod, cls_name) if cls_name else mod
            orig = (holder.__dict__[attr] if cls_name
                    else getattr(holder, attr))
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{owner}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, args, kwargs)

        if cls_name:
            self._rebind(holder, attr, wrapper)
        else:
            self._rebind_everywhere(orig, wrapper)

    def _rebind(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _rebind_everywhere(self, orig, new):
        """Rebind every gridofo module global that refers to `orig`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gridofo"
                                   or mod_name.startswith("gridofo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._rebind(mod, attr, new)

    def _wrap_sweep_worker(self):
        mod_name, attr = SWEEP_WORKER
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.absent.append(f"{mod_name}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(task):
            in_worker = os.getpid() != tracer.parent_pid
            if in_worker and os.getpid() != tracer.pid:
                tracer.clear()  # forked: drop what the parent had recorded
            try:
                return tracer.call("cli.sweep_worker", orig, (task,), {})
            finally:
                if in_worker:
                    tracer._dump_member()

        self._rebind(mod, attr, wrapper)

    def _wrap_pool(self):
        mod_name, attr = POOL
        mod = importlib.import_module(mod_name)
        base = getattr(mod, attr, None)
        if base is None:
            self.absent.append(f"{mod_name}.{attr}")
            return
        tracer = self

        class TimedPool(base):
            def __enter__(self):
                tracer.workers = self._max_workers
                self._span = tracer.span("cli.pool")
                self._span.__enter__()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    self._span.__exit__(*exc)

        self._rebind(mod, attr, TimedPool)

    # -- pool workers --------------------------------------------------------

    def _dump_member(self):
        """Write this worker's records since the last dump, then forget them."""
        self._seq += 1
        path = self._dump_dir / f"member-{os.getpid()}-{self._seq}.json"
        doc = {
            "calls": dict(self.calls), "dur": self.dur, "self": self.self_,
            "step_children": dict(self.step_children),
            "controls_per_step": self.controls_per_step,
            "pf_iters": self.pf_iters, "pf_warm": self.pf_warm,
            "qp_iters": self.qp_iters,
        }
        path.write_text(json.dumps(doc))
        self.clear()

    def merge_members(self):
        """Fold in the records the pool workers wrote."""
        for path in sorted(self._dump_dir.glob("member-*.json")):
            doc = json.loads(path.read_text())
            self.calls.update(doc["calls"])
            for key, target in (("dur", self.dur), ("self", self.self_)):
                for name, values in doc[key].items():
                    target[name].extend(values)
            self.step_children.update(doc["step_children"])
            self.controls_per_step.extend(doc["controls_per_step"])
            self.pf_iters.extend(doc["pf_iters"])
            self.pf_warm[0] += doc["pf_warm"][0]
            self.pf_warm[1] += doc["pf_warm"][1]
            self.qp_iters.extend(doc["qp_iters"])
            path.unlink()


def _observe_power_flow(tracer, kwargs, sol):
    if sol is not None:
        tracer.pf_iters.append(sol.iterations)
    if kwargs.get("warm_start") is not None:
        tracer.pf_warm[0] += 1
        lo, hi = PLAUSIBLE_V
        if sol is not None and lo <= sol.v.min() and sol.v.max() <= hi:
            tracer.pf_warm[1] += 1


def _observe_qp(tracer, kwargs, sol):
    if sol is not None:
        tracer.qp_iters.append(sol.iterations)


_OBSERVERS = {
    "network.solve_power_flow": _observe_power_flow,
    "qp.qp_solve": _observe_qp,
}


# -- per-layer metrics --------------------------------------------------------

def _p(values, q, scale):
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tr: Tracer, wall_s: float, csv_bytes: int,
                  svg_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced workload instance, keyed by metric name.

    A layer the workload does not use reports zero calls and zero time.
    """
    d, c = tr.dur, tr.calls
    steps = c[STEP]
    n_ofo = c["ofo.ofo_update"]
    member_s = sum(d["cli.sweep_worker"])
    m = {
        "simulator.step.us_p50": _p(d[STEP], 50, 1e6),
        "simulator.step.us_p99": _p(d[STEP], 99, 1e6),
        "simulator.step.calls": steps,
        "simulator.bus_voltages.us_p50": _p(d["simulator.bus_voltages"], 50, 1e6),
        "simulator.bus_voltages.calls_per_step":
            tr.step_children["simulator.bus_voltages"] / steps if steps else 0.0,
        "simulator.init.ms": _p(d["simulator.init"], 50, 1e3),
        "simulator.controller_update.ms_p50":
            _p(d["simulator.controller_update"], 50, 1e3),
        "simulator.controller_update.calls": c["simulator.controller_update"],
        "simulator.run_scenario.self_s": sum(tr.self_["simulator.run_scenario"]),
        "machines.rhs.us_p50": (_p(d["machines.dq_currents"], 50, 1e6)
                                + _p(d["machines.derivatives_given_currents"], 50, 1e6)),
        "machines.rhs.calls": c["machines.derivatives_given_currents"],
        "controls.step.us_p50": _p(tr.controls_per_step, 50, 1e6),
        "network.solve_power_flow.us_p50": _p(d["network.solve_power_flow"], 50, 1e6),
        "network.solve_power_flow.calls": c["network.solve_power_flow"],
        "network.nr_iterations.mean": _mean(tr.pf_iters),
        "network.warm_start_ratio":
            tr.pf_warm[1] / tr.pf_warm[0] if tr.pf_warm[0] else 0.0,
        "network.extract_measurement.us_p50":
            _p(d["network.extract_measurement"], 50, 1e6),
        "network.extract_measurement.calls": c["network.extract_measurement"],
        "network.connected_components.calls": c["network.connected_components"],
        "sensitivity.compute_sensitivity.ms_p50":
            _p(d["sensitivity.compute_sensitivity"], 50, 1e3),
        "sensitivity.compute_sensitivity.calls": c["sensitivity.compute_sensitivity"],
        "qp.qp_solve.us_p50": _p(d["qp.qp_solve"], 50, 1e6),
        "qp.qp_solve.calls": c["qp.qp_solve"],
        "qp.iterations.mean": _mean(tr.qp_iters),
        "qp.softened_ratio": (c["qp.qp_solve"] - n_ofo) / n_ofo if n_ofo else 0.0,
        "ofo.ofo_update.self_us_p50": _p(tr.self_["ofo.ofo_update"], 50, 1e6),
        "plotting.chart.ms_p50": _p(d["plotting.chart"], 50, 1e3),
        "plotting.svg_bytes": svg_bytes,
        "cli.self_s": sum(tr.self_["cli.command"]),
        "cli.csv_bytes": csv_bytes,
        "cli.pool_wait_s": sum(d["cli.pool"]),
        "sweep.worker_busy_ratio":
            member_s / (wall_s * tr.workers) if tr.workers else 0.0,
        "dataio.load_grid.ms": _p(d["dataio.load_grid"], 50, 1e3),
        "dataio.load_grid.calls": c["dataio.load_grid"],
        "trace.uncovered_share": max(0.0, 1.0 - tr.top_s / wall_s),
    }
    return {k: float(v) for k, v in m.items()}


# metric name -> the wrapped names it is computed from; a metric whose source
# is no longer in the program is reported absent instead of as zero
SOURCES = {
    "simulator.step": ("simulator.step",),
    "simulator.bus_voltages": ("simulator.bus_voltages",),
    "simulator.init": ("simulator.init",),
    "simulator.controller_update": ("simulator.controller_update",),
    "simulator.run_scenario": ("simulator.run_scenario",),
    "machines.rhs": ("machines.dq_currents", "machines.derivatives_given_currents"),
    "controls.step": ("controls.governor_step", "controls.pss_step",
                      "controls.exciter_step", "controls.agc_step"),
    "network.solve_power_flow": ("network.solve_power_flow",),
    "network.nr_iterations": ("network.solve_power_flow",),
    "network.warm_start_ratio": ("network.solve_power_flow",),
    "network.extract_measurement": ("network.extract_measurement",),
    "network.connected_components": ("network.connected_components",),
    "sensitivity.compute_sensitivity": ("sensitivity.compute_sensitivity",),
    "qp": ("qp.qp_solve", "ofo.ofo_update"),
    "ofo.ofo_update": ("ofo.ofo_update",),
    "plotting.chart": ("plotting.chart",),
    "cli.self_s": ("cli.command",),
    "dataio.load_grid": ("dataio.load_grid",),
}


def absent_metrics(tr: Tracer, names) -> list[str]:
    """Metric names whose wrapped source functions could not be found."""
    missing_attrs = set(tr.absent)
    missing = {name for name, owner, attr in TARGETS
               if f"{owner}.{attr}" in missing_attrs}
    out = []
    for metric in names:
        for prefix, sources in SOURCES.items():
            if metric.startswith(prefix) and missing.intersection(sources):
                out.append(metric)
                break
    return out
