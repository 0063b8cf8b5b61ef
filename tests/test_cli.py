"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import csv
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gridofo
from gridofo.cli import EXIT_INPUT, EXIT_OK, main
from gridofo.dataio import bundled_path, load_scenario
from gridofo.ofo import default_config
from gridofo.simulator import gap_statistics, sweep_plan

NAN = float("nan")
INF = float("inf")


def _reclose(**guard):
    return lambda doc: doc["events"].append(
        {"time": 8.0, "kind": "line_reclose", "line_id": "23-24", **guard})


# scenario edits that must be refused before the first step; 20 = 2 * n_gen
BAD_SCENARIOS = {
    "unknown_line": lambda doc: doc["events"][0].update(line_id="1-99"),
    "nan_u": lambda doc: doc["events"].append(
        {"time": 2.0, "kind": "set_input", "u": [NAN] * 20}),
    "short_u": lambda doc: doc["events"].append(
        {"time": 2.0, "kind": "set_input", "u": [0.0] * 3}),
    "nan_p_max": lambda doc: doc["ofo"].update(p_max=NAN),
    "short_p_min": lambda doc: doc["ofo"].update(p_min=[0, 0]),
    "text_alpha": lambda doc: doc["ofo"].update(alpha="x"),
    "text_p_min": lambda doc: doc["ofo"].update(p_min=["x"] * 10),
    "ragged_p_min": lambda doc: doc["ofo"].update(p_min=[0.0] * 9 + [[0.0, 0.0]]),
    # dt = 0.01 and t_end = 12 in short_scenario
    "off_time_grid": lambda doc: doc["events"][1].update(time=5.004),
    "after_t_end": lambda doc: doc["events"][1].update(time=12.5),
    "nan_time": lambda doc: doc["events"][1].update(time=NAN),
    "off_grid_sampling": lambda doc: doc["ofo"].update(sampling_period=0.503),
    "nan_t_end": lambda doc: doc["sim"].update(t_end=NAN),
    "list_ofo": lambda doc: doc.update(ofo=[3.0, 5.0]),
    "text_dt": lambda doc: doc["sim"].update(dt="x"),
    "null_dt": lambda doc: doc["sim"].update(dt=None),
    "text_time": lambda doc: doc["events"][0].update(time="1.0"),
    "unknown_sim_key": lambda doc: doc["sim"].update(recordevery=0.1),
    "misspelt_guard_key": _reclose(guard_max_angle=30.0),
    "text_guard": _reclose(guard_max_angle_deg="x"),
    "nan_guard": _reclose(guard_max_angle_deg=NAN),
    "negative_guard": _reclose(guard_max_angle_deg=-1.0),
    "zero_guard": _reclose(guard_max_angle_deg=0.0),
    "guard_on_trip": lambda doc: doc["events"][0].update(guard_max_angle_deg=30.0),
}


# scenario edits that `simulate` runs but `robustness` must refuse; dt = 0.01
# and record_every = 0.1 in short_scenario
BAD_ACTIVATIONS = {
    "no_activation": lambda doc: doc["events"].pop(1),
    "activation_at_zero": lambda doc: doc["events"][1].update(time=0.0),
    "activation_after_last_row": lambda doc: (
        doc["sim"].update(t_end=12.05), doc["events"][1].update(time=12.05)),
}


def _set_machine(i, name):
    return lambda doc: doc["generators"][i].update(machine=name)


# grid edits that must be refused by load_grid
# json.dumps refuses an int of over 4300 digits, so a grid file gets this
# 5000-digit literal where a value is LONG_INT
LONG_INT = "<5000-digit integer>"

BAD_GRIDS = {
    "text_frequency": lambda doc: doc.update(frequency="x"),
    "text_base_mva": lambda doc: doc.update(base_mva="x"),
    "short_monitored_pair": lambda doc: doc.update(monitored_pair=[23]),
    "no_agc_lambda": lambda doc: doc["agc"].pop("lambda"),
    "no_agc_beta": lambda doc: doc["agc"].pop("beta"),
    "unknown_machine": _set_machine(0, "G99"),
    "shared_machine": _set_machine(1, "G30"),
    "repeated_machine": lambda doc: doc["machines"].append(doc["machines"][0]),
    "unused_machine": lambda doc: doc["machines"].append(
        dict(doc["machines"][0], name="G99")),
    "zero_frequency": lambda doc: doc.update(frequency=0),
    # non-finite numbers are refused as the file is parsed
    "nan_machine_D": lambda doc: doc["machines"][0].update(D=NAN),
    "inf_machine_H": lambda doc: doc["machines"][0].update(H=INF),
    "nan_governor_R_g": lambda doc: doc["governors"][0].update(R_g=NAN),
    "nan_line_r": lambda doc: doc["lines"][0].update(r=NAN),
    "inf_shunt_b": lambda doc: doc["buses"][0].update(shunt_b=INF),
    # so are integers beyond the largest float, and ones too long for int()
    "huge_int_machine_H": lambda doc: doc["machines"][0].update(H=10 ** 400),
    "longest_int_machine_H": lambda doc: doc["machines"][0].update(H=LONG_INT),
}


def bad_scenario(tmp_path, case, edits=BAD_SCENARIOS):
    path = short_scenario(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    edits[case](doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def short_scenario(tmp_path, t_end=12.0, with_reclose=False):
    events = [
        {"time": 1.0, "kind": "line_trip", "line_id": "23-24"},
        {"time": 5.0, "kind": "activate_ofo"},
    ]
    if with_reclose:
        events.append({"time": 8.0, "kind": "line_reclose",
                       "line_id": "23-24", "guard_max_angle_deg": 30.0})
    doc = {"events": events,
           "sim": {"dt": 0.01, "t_end": t_end, "record_every": 0.1},
           "ofo": {"alpha": 3.0, "sampling_period": 5.0}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_imports_no_scipy():
    """numpy is the only runtime dependency. A fresh interpreter is needed:
    this test process has imported scipy for the control-block oracle."""
    src = str(Path(gridofo.__file__).resolve().parents[1])
    code = ("import sys; import gridofo.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["simulate", "robustness"])
def test_out_not_a_directory_is_input_error(tmp_path, capsys, command):
    """An --out that is a file, or lies under one, exits 1 naming the path."""
    scen = short_scenario(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        code = main([command, "--scenario", scen, "--out", str(out)])
        assert code == EXIT_INPUT
        assert f"input error: --out {out}" in capsys.readouterr().err
    assert taken.read_text() == ""


class TestPowerflow:
    def test_bundled_grid(self, capsys):
        assert main(["powerflow"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "converged" in out
        assert " 39 " in out

    def test_malformed_grid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["powerflow", "--grid", str(bad)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_GRIDS))
    def test_bad_grid_is_input_error(self, tmp_path, capsys, case):
        doc = json.loads(bundled_path("ieee39.json").read_text())
        BAD_GRIDS[case](doc)
        bad = tmp_path / "grid.json"
        bad.write_text(json.dumps(doc).replace(f'"{LONG_INT}"', "1" + "0" * 4999))
        assert main(["powerflow", "--grid", str(bad)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


class TestSimulate:
    def test_artifacts_written(self, tmp_path, capsys):
        scen = short_scenario(tmp_path)
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", scen, "--out", str(out)])
        assert code == EXIT_OK
        for name in ("trajectory.csv", "events.log", "gap.svg",
                     "setpoints.svg", "power.svg"):
            assert (out / name).exists()
        for name in ("gap.svg", "setpoints.svg", "power.svg"):
            ET.parse(out / name)  # well formed XML

    def test_csv_schema(self, tmp_path):
        scen = short_scenario(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--scenario", scen, "--out", str(out)])
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:2] == ["t", "vgap"]
        assert header[2] == "v_1" and header[40] == "v_39"
        assert header[41] == "dtheta"
        assert header[42] == "flow_1" and header[87] == "flow_46"
        assert header[88] == "pOFO_1" and header[97] == "pOFO_10"
        assert header[98] == "vOFO_1" and header[107] == "vOFO_10"
        assert header[108] == "pm_1" and header[117] == "pm_10"
        assert len(header) == 118
        # 0.1 s spacing over [0, 12]
        assert len(rows) - 1 == 121
        t = [float(r[0]) for r in rows[1:]]
        np.testing.assert_allclose(np.diff(t), 0.1, atol=1e-12)

    def test_events_logged(self, tmp_path):
        scen = short_scenario(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--scenario", scen, "--out", str(out)])
        log = (out / "events.log").read_text()
        assert "tripped" in log
        assert "activated" in log

    def test_guarded_reclose_in_log(self, tmp_path):
        scen = short_scenario(tmp_path, with_reclose=True)
        out = tmp_path / "run"
        main(["simulate", "--scenario", scen, "--out", str(out)])
        log = (out / "events.log").read_text()
        assert "reclosed" in log or "blocked" in log

    def test_byte_identical_reruns(self, tmp_path):
        scen = short_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", scen, "--out", str(out1)])
        main(["simulate", "--scenario", scen, "--out", str(out2)])
        assert ((out1 / "trajectory.csv").read_bytes()
                == (out2 / "trajectory.csv").read_bytes())

    def test_integer_numbers_give_same_run(self, tmp_path):
        """JSON integers load as the numbers they are: the run is the one
        their float spelling gives."""
        floats = short_scenario(tmp_path)
        doc = json.loads(Path(floats).read_text())
        doc["sim"]["t_end"] = 12
        for ev, time in zip(doc["events"], (1, 5)):
            ev["time"] = time
        doc["ofo"] = {"alpha": 3, "sampling_period": 5}
        ints = tmp_path / "ints.json"
        ints.write_text(json.dumps(doc))
        out_f, out_i = tmp_path / "f", tmp_path / "i"
        assert main(["simulate", "--scenario", floats, "--out", str(out_f)]) == EXIT_OK
        assert main(["simulate", "--scenario", str(ints), "--out", str(out_i)]) == EXIT_OK
        for name in ("trajectory.csv", "events.log"):
            assert (out_f / name).read_bytes() == (out_i / name).read_bytes()

    def test_missing_scenario_is_input_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_bad_scenario_is_input_error(self, tmp_path, capsys, case):
        path = bad_scenario(tmp_path, case)
        code = main(["simulate", "--scenario", path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


class TestRobustness:
    def test_sweep_artifacts(self, tmp_path):
        scen = short_scenario(tmp_path, t_end=8.0)
        out = tmp_path / "sweep"
        code = main(["robustness", "--scenario", scen, "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:3] == ["line_id", "status", "reason"]
        by_id = {r[0]: r for r in body}
        assert by_id["nominal"][1] == "ok"
        # generator step-up branches island their unit when erased
        assert by_id["2-30"][1] == "skipped"
        # erasing a line that only connects through 23-24 islands the
        # post-contingency model even though the base grid stays connected
        assert by_id["16-24"][1] == "skipped"
        assert by_id["16-17"][1] == "ok"
        # rows are ordered: nominal first, then by line id
        assert body[0][0] == "nominal"

        with open(out / "sweep_gaps.csv", newline="") as fh:
            gap_rows = list(csv.reader(fh))
        assert gap_rows[0][:2] == ["t", "nominal"]
        assert (out / "sweep.svg").exists()
        ET.parse(out / "sweep.svg")

    def test_halving_sample_found_by_step(self, tmp_path, grid):
        """OFO from 0.2 s sampled every 0.2 s: sample 2 is the 0.6 s row,
        though 0.2 + 2 * 0.2 is one ulp above the recorded 0.6. Sampled
        every 0.15 s, sample 3 (0.65 s) reads the next row, 0.7 s."""
        for period, row, sample in ((0.2, 6, 2), (0.15, 7, 3)):
            doc = {"events": [{"time": 0.1, "kind": "line_trip", "line_id": "23-24"},
                              {"time": 0.2, "kind": "activate_ofo"}],
                   "sim": {"dt": 0.01, "t_end": 1.0, "record_every": 0.1},
                   "ofo": {"alpha": 3.0, "sampling_period": period}}
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc))
            scen = load_scenario(path)
            plan = sweep_plan(grid, scen.events,
                              default_config(grid.net, **scen.ofo), scen.sim)
            vgap = np.ones(11)  # the rows of 0, 0.1, ..., 1 s
            vgap[row] = 0.4  # that row only
            assert gap_statistics(plan, vgap, vgap)[2] == sample

    def test_halving_counts_samples_from_each_activation(self, tmp_path,
                                                          monkeypatch):
        """A second activation at 1.3 s restarts the sampling: samples 1 and
        2 read the 1.3 s and 1.8 s rows, not the 1.5 s and 2.0 s rows of a
        count from the first activation alone."""
        def stub(grid, events, ofo_cfg, sim_cfg, sensitivity_topology=None):
            t = np.arange(0, 301, 10) * 0.01  # recorded steps times dt
            vgap = np.ones(t.size)
            vgap[[15, 18]] = 0.4  # the 1.5 s and 1.8 s rows
            return SimpleNamespace(t=t, vgap=vgap)

        # forked pool workers inherit the patch
        monkeypatch.setattr("gridofo.cli.run_scenario", stub)
        doc = {"events": [{"time": 0.3, "kind": "line_trip", "line_id": "23-24"},
                          {"time": 1.0, "kind": "activate_ofo"},
                          {"time": 1.3, "kind": "activate_ofo"}],
               "sim": {"dt": 0.01, "t_end": 3.0, "record_every": 0.1},
               "ofo": {"alpha": 3.0, "sampling_period": 0.5}}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        assert main(["robustness", "--scenario", str(scen), "--out", str(out)]) == EXIT_OK
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        halve = {r["iterations_to_halve"] for r in rows if r["status"] == "ok"}
        assert halve == {"2"}

    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_bad_scenario_is_input_error(self, tmp_path, capsys, case):
        """Refused before any member runs, as by `simulate`."""
        path = bad_scenario(tmp_path, case)
        out = tmp_path / "o"
        code = main(["robustness", "--scenario", path, "--out", str(out)])
        assert code == EXIT_INPUT
        assert "input error" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("case", sorted(BAD_ACTIVATIONS))
    def test_activation_needs_rows_around_it(self, tmp_path, capsys, case):
        """The gap gates need a recorded row before the activation and one at
        or after it: refused before any member runs, not a traceback."""
        path = bad_scenario(tmp_path, case, BAD_ACTIVATIONS)
        out = tmp_path / "o"
        code = main(["robustness", "--scenario", path, "--out", str(out)])
        assert code == EXIT_INPUT
        assert "activate_ofo" in capsys.readouterr().err
        assert not out.exists()
