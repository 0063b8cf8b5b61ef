"""Grid and scenario file loading."""

import json
import re

import pytest

from gridofo.dataio import bundled_path, load_grid, load_scenario
from gridofo.errors import GridDataError


class TestGridLoading:
    def test_bundled_case_loads(self, grid):
        assert grid.net.n_bus == 39
        assert grid.net.n_gen == 10
        assert grid.net.n_line == 46
        assert grid.net.monitored_pair == (23, 24)
        assert grid.machines.n == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(GridDataError):
            load_grid(tmp_path / "nope.json")

    def test_invalid_json_names_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"buses\": [\n")
        with pytest.raises(GridDataError, match="line"):
            load_grid(bad)

    @pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e999"])
    def test_non_finite_number_named(self, tmp_path, number):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"buses": [{{"id": 1, "load_p": {number}}}]}}')
        message = f"{bad}: non-finite number {number}"
        with pytest.raises(GridDataError, match=re.escape(message)):
            load_grid(bad)

    def test_missing_field_named(self, tmp_path):
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps({"buses": []}))
        with pytest.raises(GridDataError, match="lines"):
            load_grid(bad)

    def test_block_count_mismatch(self, tmp_path):
        doc = json.loads(bundled_path("ieee39.json").read_text())
        doc["governors"] = doc["governors"][:-1]
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(GridDataError, match="governors"):
            load_grid(bad)

    def test_machines_pair_by_name(self, tmp_path, grid):
        """Machines pair with the generators that name them, in any order."""
        doc = json.loads(bundled_path("ieee39.json").read_text())
        m = doc["machines"]
        m[0], m[1] = m[1], m[0]
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps(doc))
        machines = load_grid(swapped).machines
        assert machines.names == [g.machine for g in grid.net.generators]
        assert machines.H[0] == 42.0
        assert machines.params == grid.machines.params


class TestScenarioLoading:
    def test_bundled_scenarios(self):
        scen = load_scenario(bundled_path("scenario_trip.json"))
        kinds = [e.kind for e in scen.events]
        assert kinds == ["line_trip", "activate_ofo"]
        assert scen.sim.t_end == 200.0
        assert scen.ofo["alpha"] == 3.0

        guarded = load_scenario(bundled_path("scenario_reclose.json"))
        reclose = [e for e in guarded.events if e.kind == "line_reclose"]
        assert reclose and reclose[0].guard_max_angle_deg == 30.0

        sweep = load_scenario(bundled_path("scenario_sweep.json"))
        assert sweep.sim.t_end == 300.0

    def test_event_validation_propagates(self, tmp_path):
        bad = tmp_path / "scen.json"
        bad.write_text(json.dumps({
            "events": [{"time": 1.0, "kind": "line_trip"}],
            "sim": {"t_end": 1.0},
        }))
        with pytest.raises(GridDataError):
            load_scenario(bad)
