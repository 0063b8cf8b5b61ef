"""Smoke test of the benchmark at toy length.

Runs each workload once, untraced and traced, and checks that every metric
prints with its unit and that the stored reference is met. A reference with
one value changed must make every instance fail, so the check is live.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trip_reclose", "sweep", "static_ofo")
PRINTED_ONLY = {"fail_ratio": "ratio", "recovered_share": "ratio"}


def bench(tmp_path, workload, trace, reference=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace),
           "--length", "toy", "--workdir", str(tmp_path / "work")]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


def declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(tmp_path, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, printed = bench(tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 1 + trace
        units = declared(kind)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units
        for name, unit in {**units, **PRINTED_ONLY}.items():
            assert printed[name][1] == unit
        assert printed["fail_ratio"][0] == 0.0


def test_wrong_reference_raises_fail_ratio(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    entry = ref["toy"]["static_ofo"][ref["default_line"]]
    entry["final_gap"]["nominal"] *= 1.01
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(ref))
    result, printed = bench(tmp_path, "static_ofo", 0, reference=path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert printed["fail_ratio"][0] == 1.0
