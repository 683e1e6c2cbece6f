"""scripts/bench_record.py: the claim and no-regression verdicts on
synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# parent norm_wall_s by seed: median 0.15, q1 0.145, q3 0.155 (IQR 0.01)
PARENT = [0.13, 0.14, 0.145, 0.145, 0.15, 0.15, 0.155, 0.155, 0.16, 0.17]


def _write_runs(directory: Path, norm_wall: list[float], seconds: float = 30.0) -> Path:
    directory.mkdir()
    for seed, value in enumerate(norm_wall, start=1):
        record = {
            "args": {"workload": "study", "trace": 0, "seed": seed, "tiny": False,
                     "seconds": seconds},
            "metrics": {
                "norm_wall_s": {"value": value, "unit": "s"},
                "setup_s": {"value": 0.2, "unit": "s"},
                "peak_rss_mb": {"value": 40.0 + seed, "unit": "MB"},
            },
            "attempted": 100, "failed": 0, "env": {"python": "3"},
        }
        (directory / f"study-s{seed}.json").write_text(json.dumps(record))
    return directory


def _verdicts(tmp_path, change: list[float]) -> dict:
    workloads = bench_record.record(_write_runs(tmp_path / "change", change),
                                    _write_runs(tmp_path / "parent", PARENT))
    return workloads["study/trace0"]


def test_clear_gain_meets_the_claim(tmp_path):
    entry = _verdicts(tmp_path, [v - 0.03 for v in PARENT])
    verdict = entry["verdict"]["norm_wall_s"]
    assert entry["wins"]["norm_wall_s"] == {"pairs": 10, "change_better": 10,
                                           "parent_better": 0}
    assert verdict["claim_met"] and verdict["no_regression"] == "yes"
    assert verdict["gain"] == pytest.approx(0.03)
    assert verdict["parent_iqr"] == pytest.approx(0.01)
    # equal values are ties: no claim, and no regression
    assert entry["verdict"]["setup_s"] == {**entry["verdict"]["setup_s"],
                                          "claim_met": False, "no_regression": "yes"}
    assert set(entry["verdict"]) == {"norm_wall_s", "setup_s", "peak_rss_mb"}
    line = next(x for x in bench_record.verdict_lines({"study/trace0": entry})
                if "norm_wall_s" in x)
    assert line.startswith("study/trace0 norm_wall_s: claim met (10/10 pairs better")
    assert "; no regression" in line


def test_claim_needs_nine_pairs_in_ten(tmp_path):
    # 8 wins, one tie, one loss: ties count for neither side
    change = [v - 0.03 for v in PARENT[:8]] + [PARENT[8], PARENT[9] + 0.01]
    entry = _verdicts(tmp_path, change)
    assert entry["wins"]["norm_wall_s"]["change_better"] == 8
    assert not entry["verdict"]["norm_wall_s"]["claim_met"]
    nine = tmp_path / "nine"
    nine.mkdir()
    change[8] -= 0.03  # 9 of 10
    assert _verdicts(nine, change)["verdict"]["norm_wall_s"]["claim_met"]


def test_claim_needs_a_gain_beyond_the_parent_iqr(tmp_path):
    entry = _verdicts(tmp_path, [v - 0.005 for v in PARENT])  # wins 10/10
    assert entry["wins"]["norm_wall_s"]["change_better"] == 10
    assert not entry["verdict"]["norm_wall_s"]["claim_met"]


@pytest.mark.parametrize("worse, ok", [(0.2, True), (0.3, False)])
def test_no_regression_is_the_relative_bound(tmp_path, worse, ok):
    # norm_wall_s may worsen by 24% of the parent's median
    entry = _verdicts(tmp_path, [v * (1 + worse) for v in PARENT])
    verdict = entry["verdict"]["norm_wall_s"]
    assert verdict["limit"] == pytest.approx(0.15 * 1.24)
    assert verdict["no_regression"] == ("yes" if ok else "no") and not verdict["claim_met"]
    line = bench_record.verdict_lines({"study/trace0": entry})[0]
    assert ("REGRESSION" in line) is not ok


def test_higher_is_better_metric():
    metric = {"better": "higher", "bound": 0.1}
    parent = {"median": 100.0, "q1": 95.0, "q3": 105.0}
    wins = {"pairs": 10, "change_better": 10, "parent_better": 0}
    gain = bench_record._verdict(parent, {"median": 120.0}, wins, metric)
    assert gain["claim_met"] and gain["no_regression"] == "yes" and gain["gain"] == 20.0
    loss = bench_record._verdict(parent, {"median": 89.0}, wins, metric)
    assert not loss["claim_met"] and loss["no_regression"] == "no"
    assert bench_record._verdict(parent, {"median": 91.0}, wins, metric)["no_regression"] == "yes"


def test_claim_needs_ten_pairs(tmp_path):
    # 9 of 9 pairs better met the claim
    change = [v - 0.03 for v in PARENT]
    workloads = bench_record.record(_write_runs(tmp_path / "change", change[:9]),
                                    _write_runs(tmp_path / "parent", PARENT[:9]))
    entry = workloads["study/trace0"]
    assert entry["wins"]["norm_wall_s"]["change_better"] == 9
    assert not entry["verdict"]["norm_wall_s"]["claim_met"]


def test_wide_parent_spread_is_unresolved(tmp_path):
    # parent q3 - q1 = 0.055 against a bound of 0.24 x 0.15 = 0.036: a
    # change median equal to the parent's cannot be told from a regression
    wide = [0.09, 0.1, 0.12, 0.13, 0.15, 0.15, 0.17, 0.18, 0.2, 0.21]
    workloads = bench_record.record(_write_runs(tmp_path / "change", wide),
                                    _write_runs(tmp_path / "parent", wide))
    entry = workloads["study/trace0"]
    verdict = entry["verdict"]["norm_wall_s"]
    assert verdict["parent_iqr"] == pytest.approx(0.055)
    assert verdict["no_regression"] == "unresolved"
    line = next(x for x in bench_record.verdict_lines(workloads) if "norm_wall_s" in x)
    assert "UNRESOLVED" in line
    # unless every change run beats every parent run
    better = tmp_path / "better"
    better.mkdir()
    workloads = bench_record.record(_write_runs(better / "change", [0.08] * 10),
                                    _write_runs(better / "parent", wide))
    assert workloads["study/trace0"]["verdict"]["norm_wall_s"]["no_regression"] == "yes"


def test_run_length_other_than_the_benchmark_is_flagged(tmp_path):
    entry = _verdicts(tmp_path, PARENT)
    assert "seconds_flag" not in entry and entry["change"]["seconds"] == [30.0]
    short = tmp_path / "short"
    short.mkdir()
    workloads = bench_record.record(_write_runs(short / "change", PARENT, seconds=10.0),
                                    _write_runs(short / "parent", PARENT))
    entry = workloads["study/trace0"]
    assert entry["seconds_flag"] == "runs of 10.0, 30.0 s, not BENCHMARK.json's run_seconds 30 s"
    assert bench_record.verdict_lines(workloads)[-1] == f"study/trace0: FLAG {entry['seconds_flag']}"
