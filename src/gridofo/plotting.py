"""Self-rendered SVG line charts for trajectory and sweep output.

No plotting library is used: charts are assembled from SVG polylines, axis
ticks and text labels so every figure can be regenerated offline from the
CSV artifacts alone. Colors cycle through a fixed palette; vertical dashed
markers annotate a run's trips, recloses and controller activations, read
from the kinds of its `simulator.RunEvent` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .simulator import ACTIVATE_OFO, LINE_RECLOSE, LINE_TRIP, RunEvent

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

WIDTH = 720
HEIGHT = 360
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 36
MARGIN_B = 46


def nice_ticks(lo: float, hi: float, target: int = 6) -> np.ndarray:
    """Round tick locations covering [lo, hi] at a 1/2/5 step."""
    if not np.isfinite(lo) or not np.isfinite(hi):
        return np.array([0.0, 1.0])
    if hi - lo < 1e-30:
        pad = max(abs(lo), 1.0) * 0.1
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    ticks = ticks[ticks <= hi + 1e-9 * step]
    # snap values like 0.30000000000000004 back to round numbers
    return np.round(ticks, 12)


def _fmt(x: float) -> str:
    s = f"{x:.6g}"
    return "0" if s == "-0" else s


@dataclass
class LineChart:
    """One x-y chart accumulating series and markers, rendered to SVG text."""

    title: str
    x_label: str
    y_label: str
    series: list = field(default_factory=list)
    markers: list = field(default_factory=list)

    def add_series(self, x: Sequence[float], y: Sequence[float],
                   label: Optional[str] = None, color: Optional[str] = None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise ValueError("series x and y must have equal length")
        if color is None:
            color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append((x, y, label, color))

    def add_vline(self, x: float, label: str):
        self.markers.append((float(x), label))

    def _limits(self):
        xs = np.concatenate([s[0] for s in self.series])
        ys = np.concatenate([s[1] for s in self.series])
        ys = ys[np.isfinite(ys)]
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if y_hi - y_lo < 1e-12:
            pad = max(abs(y_lo), 1.0) * 0.05
            y_lo, y_hi = y_lo - pad, y_hi + pad
        else:
            pad = 0.05 * (y_hi - y_lo)
            y_lo, y_hi = y_lo - pad, y_hi + pad
        if x_hi - x_lo < 1e-12:
            x_hi = x_lo + 1.0
        return x_lo, x_hi, y_lo, y_hi

    def render(self) -> str:
        if not self.series:
            raise ValueError("chart has no series")
        x_lo, x_hi, y_lo, y_hi = self._limits()
        px_w = WIDTH - MARGIN_L - MARGIN_R
        px_h = HEIGHT - MARGIN_T - MARGIN_B

        def sx(x):
            return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

        def sy(y):
            return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{self.title}</text>',
        ]
        # axes frame
        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{px_w}" height="{px_h}" '
            f'fill="none" stroke="#333" stroke-width="1"/>')
        for xt in nice_ticks(x_lo, x_hi):
            if not x_lo <= xt <= x_hi:
                continue
            px = sx(xt)
            out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + px_h}" x2="{px:.1f}" '
                       f'y2="{MARGIN_T + px_h + 5}" stroke="#333"/>')
            out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
                       f'y2="{MARGIN_T + px_h}" stroke="#ddd" stroke-width="0.5"/>')
            out.append(f'<text x="{px:.1f}" y="{MARGIN_T + px_h + 18}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="11">{_fmt(xt)}</text>')
        for yt in nice_ticks(y_lo, y_hi):
            if not y_lo <= yt <= y_hi:
                continue
            py = sy(yt)
            out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" '
                       f'y2="{py:.1f}" stroke="#333"/>')
            out.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{MARGIN_L + px_w}" '
                       f'y2="{py:.1f}" stroke="#ddd" stroke-width="0.5"/>')
            out.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" '
                       f'text-anchor="end" font-family="sans-serif" '
                       f'font-size="11">{_fmt(yt)}</text>')
        out.append(f'<text x="{MARGIN_L + px_w / 2:.0f}" y="{HEIGHT - 8}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">{self.x_label}</text>')
        out.append(f'<text x="16" y="{MARGIN_T + px_h / 2:.0f}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {MARGIN_T + px_h / 2:.0f})">'
                   f'{self.y_label}</text>')

        for xm, label in self.markers:
            if not x_lo <= xm <= x_hi:
                continue
            px = sx(xm)
            out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
                       f'y2="{MARGIN_T + px_h}" stroke="#555" stroke-width="1" '
                       f'stroke-dasharray="4,3"/>')
            out.append(f'<text x="{px + 3:.1f}" y="{MARGIN_T + 12}" '
                       f'font-family="sans-serif" font-size="10" '
                       f'fill="#555">{label}</text>')

        for x, y, label, color in self.series:
            ok = np.isfinite(y)
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}"
                           for a, b in zip(x[ok], y[ok]))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')

        labeled = [(lbl, c) for _, _, lbl, c in self.series if lbl]
        # cap the legend so dense overlays stay readable
        for i, (lbl, color) in enumerate(labeled[:12]):
            ly = MARGIN_T + 10 + 14 * i
            lx = MARGIN_L + px_w - 110
            out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 22}" y="{ly + 4}" '
                       f'font-family="sans-serif" font-size="10">{lbl}</text>')

        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())


# the run-log kinds drawn as markers, and their labels
_MARKER_LABELS = {LINE_TRIP: "trip", LINE_RECLOSE: "reclose", ACTIVATE_OFO: "OFO on"}


def _event_markers(chart: LineChart, events: Sequence[RunEvent]):
    """One marker per marked kind and time."""
    for t, kind in dict.fromkeys((ev.t, ev.kind) for ev in events
                                 if ev.kind in _MARKER_LABELS):
        chart.add_vline(t, _MARKER_LABELS[kind])


def gap_chart(t, vgap, events=()) -> LineChart:
    """Voltage gap magnitude |v_a - v_b| over time."""
    chart = LineChart(title="Voltage gap across the monitored breaker",
                      x_label="time (s)", y_label="|v_a - v_b| (p.u.)")
    chart.add_series(t, vgap, color=PALETTE[0])
    _event_markers(chart, events)
    return chart


def setpoint_chart(t, v_ofo, gen_names, events=()) -> LineChart:
    """Controller voltage set-points per generator."""
    chart = LineChart(title="Voltage set-points", x_label="time (s)",
                      y_label="v_OFO (p.u.)")
    for j, name in enumerate(gen_names):
        chart.add_series(t, v_ofo[:, j], label=name)
    _event_markers(chart, events)
    return chart


def power_chart(t, p_ofo, p_m, gen_names, events=()) -> LineChart:
    """Controller power set-points (solid palette) and mechanical power."""
    chart = LineChart(title="Active power: controller set-point and mechanical",
                      x_label="time (s)", y_label="power (p.u.)")
    for j, name in enumerate(gen_names):
        chart.add_series(t, p_ofo[:, j], label=f"p_OFO {name}")
    for j in range(p_m.shape[1]):
        chart.add_series(t, p_m[:, j],
                         color=PALETTE[j % len(PALETTE)] + "80")
    _event_markers(chart, events)
    return chart


def sweep_chart(t, gap_by_line: dict, nominal_vgap=None) -> LineChart:
    """Overlay of voltage-gap series for each erased-line sensitivity run."""
    chart = LineChart(title="Voltage gap under wrong sensitivities",
                      x_label="time (s)", y_label="|v_a - v_b| (p.u.)")
    for i, (line_id, series) in enumerate(sorted(gap_by_line.items())):
        chart.add_series(t, series, color=PALETTE[i % len(PALETTE)] + "60")
    if nominal_vgap is not None:
        chart.add_series(t, nominal_vgap, label="nominal", color="#000000")
    return chart
