"""Smoke test of the benchmark at a tiny size: one operation per subcommand.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.  It
lives outside the package's ``testpaths``, so the tier-1 suite is unchanged.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_artifacts_land_in_the_benchmark_dir_with_the_workload_seed(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run

    harness = run.Harness("mixing", 5, str(tmp_path), tiny=True)
    flow = next(k for k in harness.kinds if k.sub == "flow")
    op = harness.op_for(flow, 0)
    with contextlib.redirect_stdout(io.StringIO()):
        harness.run_op(op)
    assert harness.problems == [] and harness.failed == 0
    out = tmp_path / "out"
    names = os.listdir(out)
    assert any(n.endswith("-trajectory.csv") for n in names)
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.read(out / next(n for n in names if n.endswith("-manifest.ini")))
    assert manifest["run"]["seed"] == "5"
    assert manifest["run"]["output_dir"] == str(out)
    prefix = names[0].split("-")[0]
    assert not any(p.name.startswith(prefix) for p in (ROOT / "runs").glob("*"))


def test_gauge_correction_drops_its_own_runs_and_scales_to_the_reference():
    sys.path.insert(0, str(HERE))
    import gauge

    g = gauge.Gauge()
    ref = gauge.REFERENCE_S
    g.ticks = [(t, 2 * ref) for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)]   # host at half speed
    # two gauge runs fall inside [0.5, 2.5): their time is removed
    assert g.corrected(0.5, 2.0) == pytest.approx((2.0 - 4 * ref) / 2)
    # none inside: the speed comes from the nearest runs
    assert g.corrected(10.0, 0.1) == pytest.approx(0.05)
