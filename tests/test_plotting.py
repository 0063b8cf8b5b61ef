"""SVG chart rendering."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gridofo.plotting import LineChart, gap_chart, nice_ticks, sweep_chart
from gridofo.simulator import (
    ACTIVATE_OFO,
    LINE_RECLOSE,
    LINE_TRIP,
    RECLOSE_BLOCKED,
    SAMPLE_SKIPPED,
    TRIP_IGNORED,
    RunEvent,
)


class TestTicks:
    def test_one_two_five_progression(self):
        t = nice_ticks(0.0, 1.0)
        assert np.allclose(np.diff(t), t[1] - t[0])
        step = t[1] - t[0]
        mant = step / 10.0 ** np.floor(np.log10(step))
        assert mant in (1.0, 2.0, 5.0)

    def test_degenerate_range(self):
        t = nice_ticks(3.0, 3.0)
        assert t.size >= 2

    def test_covers_interval(self):
        t = nice_ticks(-2.3, 7.7)
        assert t[0] >= -2.3 and t[-1] <= 7.7 + 1e-9


class TestLineChart:
    def test_render_is_valid_svg(self):
        chart = LineChart(title="demo", x_label="x", y_label="y")
        chart.add_series([0, 1, 2], [1.0, 0.5, 0.8], label="a")
        chart.add_vline(1.0, "event")
        root = ET.fromstring(chart.render())
        assert root.tag.endswith("svg")
        tags = {el.tag.split('}')[-1] for el in root.iter()}
        assert "polyline" in tags
        assert "text" in tags

    def test_empty_chart_rejected(self):
        with pytest.raises(ValueError):
            LineChart(title="t", x_label="x", y_label="y").render()

    def test_mismatched_series_rejected(self):
        chart = LineChart(title="t", x_label="x", y_label="y")
        with pytest.raises(ValueError):
            chart.add_series([0, 1], [1.0])

    def test_non_finite_points_dropped(self):
        chart = LineChart(title="t", x_label="x", y_label="y")
        chart.add_series([0, 1, 2], [1.0, np.nan, 3.0])
        svg = chart.render()
        # two finite points survive in the polyline
        poly = next(line for line in svg.splitlines() if "polyline" in line)
        assert poly.count(",") == 2

    def test_deterministic_output(self):
        def build():
            c = gap_chart(np.linspace(0, 10, 50), np.linspace(1, 2, 50),
                          [RunEvent(1.0, LINE_TRIP, "line x tripped")])
            return c.render()
        assert build() == build()

    def test_event_markers_by_kind(self):
        """A trip, an activation and a reclose each draw one marker, at the
        time they applied; an ignored trip, a blocked reclose and a skipped
        sample draw none."""
        log = [RunEvent(1.0, LINE_TRIP, "line 23-24 tripped"),
               RunEvent(1.5, TRIP_IGNORED, "line 23-24 already out; trip ignored"),
               RunEvent(2.0, RECLOSE_BLOCKED,
                        "reclose of 23-24 blocked: angle 41.0 deg above guard"),
               RunEvent(3.0, ACTIVATE_OFO, "OFO controller activated"),
               RunEvent(3.0, SAMPLE_SKIPPED, "sensitivity update skipped: "
                                             "grid islanded; disconnected buses: [30]"),
               RunEvent(8.0, LINE_RECLOSE, "line 23-24 reclosed")]
        chart = gap_chart(np.linspace(0, 10, 50), np.linspace(1, 2, 50), log)
        assert chart.markers == [(1.0, "trip"), (3.0, "OFO on"), (8.0, "reclose")]
        svg = chart.render()
        for label in ("trip", "OFO on", "reclose"):
            assert svg.count(f">{label}</text>") == 1

    def test_sweep_overlay(self):
        t = np.linspace(0, 5, 20)
        gaps = {"a-b": np.ones(20), "c-d": np.full(20, 2.0)}
        svg = sweep_chart(t, gaps, nominal_vgap=np.zeros(20)).render()
        assert svg.count("<polyline") == 3
