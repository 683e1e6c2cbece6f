"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_op_share" in out.stdout


def test_corrupted_answer_counts_as_failed_op(monkeypatch, tmp_path):
    import worker

    cli = worker.import_cli()
    real = cli.wasserstein1

    def corrupted(m1, m2):
        distance, plan = real(m1, m2)
        return distance * 1.01 + 1e-3, plan

    monkeypatch.setattr(cli, "wasserstein1", corrupted)
    record = worker.run_workload(cli, "distance", 3, 0.1, False, "tiny", tmp_path / "ops")
    assert record["failed"] / record["attempted"] > 0
    assert {"distance.w1_2d", "distance.w1_1d"} <= {f["op"] for f in record["failures"]}
