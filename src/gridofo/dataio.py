"""Grid and scenario file loading (JSON).

Each JSON object goes whole into the dataclass that owns its fields and
checks, so a missing or unknown key or a value of the wrong type is a
GridDataError that names the file. Machines pair with generators by name,
control blocks by position."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .controls import (
    AgcParams,
    ExciterParams,
    ExciterSet,
    GovernorParams,
    GovernorSet,
    PssParams,
    PssSet,
)
from .errors import GridDataError
from .machines import MachineParams, MachineSet
from .network import Bus, GenLocation, Line, NetworkModel
from .simulator import Event, SimConfig


@dataclass(frozen=True)
class GridData:
    """Everything the simulator needs: topology, machines and control blocks."""

    net: NetworkModel
    machines: MachineSet
    governors: GovernorSet
    exciters: ExciterSet
    pss: PssSet
    agc: AgcParams


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise GridDataError(f"{where}: missing field {key!r}")
    return obj[key]


# the largest integer a float holds, and its digit count
_MAX_INT = int(sys.float_info.max)
_MAX_INT_DIGITS = len(str(_MAX_INT))


def _load_json(path) -> dict:
    """Parse a JSON file, refusing NaN, +-Infinity, overflowing floats (1e999)
    and integers beyond the largest float."""
    def refuse(text):
        raise GridDataError(f"{path}: non-finite number {text}")

    def finite(text):
        x = float(text)
        return x if math.isfinite(x) else refuse(text)

    def integer(text):
        # the length first: int() of a huge literal is slow or refused
        digits = len(text) - text.startswith("-")
        if digits > _MAX_INT_DIGITS or (digits == _MAX_INT_DIGITS
                                        and abs(int(text)) > _MAX_INT):
            raise GridDataError(f"{path}: integer of {digits} digits is beyond "
                                "the largest float")
        return int(text)

    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=refuse, parse_float=finite,
                             parse_int=integer)
    except json.JSONDecodeError as exc:
        raise GridDataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise GridDataError(f"{path}: {exc}") from None


def load_grid(path) -> GridData:
    doc = _load_json(path)
    try:
        buses = tuple(Bus(**b) for b in _require(doc, "buses", str(path)))
        lines = tuple(Line(**ln) for ln in _require(doc, "lines", str(path)))
        gens = tuple(GenLocation(**g) for g in _require(doc, "generators", str(path)))
        net = NetworkModel(
            buses=buses,
            lines=lines,
            generators=gens,
            base_power=float(_require(doc, "base_mva", str(path))),
            monitored_pair=tuple(_require(doc, "monitored_pair", str(path))),
            frequency=float(doc.get("frequency", 60.0)),
        )
        params = [MachineParams(**m) for m in _require(doc, "machines", str(path))]
        by_name = {m.name: m for m in params}
        for g in net.generators:
            if g.machine not in by_name:
                raise GridDataError(f"{path}: generator references unknown machine {g.machine!r}")
        machines = MachineSet([by_name[g.machine] for g in net.generators])
        # control blocks pair with generators by position
        governors = GovernorSet([GovernorParams(**g) for g in _require(doc, "governors", str(path))])
        exciters = ExciterSet([ExciterParams(**e) for e in _require(doc, "exciters", str(path))])
        pss = PssSet([PssParams(**p) for p in _require(doc, "pss", str(path))])
        agc_doc = dict(_require(doc, "agc", str(path)))
        _require(agc_doc, "lambda", f"{path}: agc")
        agc = AgcParams(lam=agc_doc.pop("lambda"), **agc_doc)
    except (TypeError, ValueError) as exc:
        raise GridDataError(f"{path}: {exc}") from None

    if not len(set(machines.names)) == net.n_gen == len(params):
        raise GridDataError(f"{path}: one machine per generator required, each named once")
    for name, block in (("governors", governors), ("exciters", exciters), ("pss", pss)):
        if block.n != net.n_gen:
            raise GridDataError(f"{path}: {name} must have one entry per generator")
    if len(agc.beta) != net.n_gen:
        raise GridDataError(f"{path}: agc.beta must have one entry per generator")
    return GridData(net, machines, governors, exciters, pss, agc)


@dataclass(frozen=True)
class ScenarioData:
    events: tuple[Event, ...]
    sim: SimConfig
    ofo: dict


def load_scenario(path) -> ScenarioData:
    doc = _load_json(path)
    try:
        sim = SimConfig(**_require(doc, "sim", str(path)))
        events = tuple(Event(**e) for e in doc.get("events", []))
        ofo = dict(doc.get("ofo", {}))
    except (TypeError, ValueError) as exc:
        raise GridDataError(f"{path}: {exc}") from None
    return ScenarioData(events=events, sim=sim, ofo=ofo)


def bundled_path(name: str) -> Path:
    """Path of a data file shipped inside the package (e.g. 'ieee39.json')."""
    return Path(resources.files("gridofo.data") / name)
