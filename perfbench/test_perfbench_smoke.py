"""Smoke test of the benchmark: every workload at its smallest size.

Runs ``perfbench/run.py --smoke`` and checks the result contract against
``BENCHMARK.json``, so neither the benchmark nor its metric list can rot.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke(seed: int) -> list[dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_smoke_runs_every_workload_in_both_modes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    modes = (
        {m["name"] for m in spec["end_to_end"]},
        {m["name"] for m in spec["per_layer"]},
    )
    results = _smoke(seed=3)
    assert len(results) == 2 * len(spec["workloads"])
    for index, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == modes[index % 2]
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
        if index % 2 == 0:
            assert result["metrics"]["ok_frac"]["value"] == 1.0
            assert all(m["value"] > 0 for m in result["metrics"].values())
