#!/usr/bin/env python3
"""Fold perfbench run records into a committed ``BENCH_<label>.json``.

    python scripts/bench_record.py LABEL RUNS [--parent PARENT_RUNS]

``RUNS`` and ``PARENT_RUNS`` are the ``perfbench/_runs`` directories of a
change's checkout and of its parent's, which ran the same workloads and
seeds.  For each workload, trace setting and metric the file gets each
side's median, quartiles and per-seed values, and how many seed pairs the
change won (better in the direction ``BENCHMARK.json`` gives; ties count for
neither side).  It also keeps the environment and the failed-op counts.
Without ``--parent`` (a baseline) the one side is written as ``runs``.

With a parent, each end-to-end metric gets a verdict, which is also printed:
``claim_met`` when at least 10 pairs ran, the change is better in at least
9 of 10 of them and its median beats the parent's by more than the parent's
q3 - q1; ``no_regression`` is "yes" when the change's median is within the
metric's relative ``bound`` in ``BENCHMARK.json`` of the parent's, "no" when
it is not, and "unresolved" when the parent's q3 - q1 is wider than the
bound, unless every change run beats every parent run.  Runs whose
``--seconds`` differ from ``BENCHMARK.json``'s ``run_seconds`` are flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics() -> dict[str, dict]:
    """BENCHMARK.json's metric entries by name (``better``, and ``bound`` for
    the end-to-end ones)."""
    bench = _benchmark()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def _load(runs: Path) -> dict[tuple, dict]:
    """Records keyed by (workload, trace, seed); a later run of a key wins."""
    records = {}
    for path in sorted(runs.glob("*.json")):
        record = json.loads(path.read_text())
        args = record["args"]
        if args.get("tiny"):
            continue
        records[args["workload"], args["trace"], args["seed"]] = record
    return records


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _side(records: dict[tuple, dict], group: tuple) -> dict:
    keys = sorted(key for key in records if key[:2] == group)
    chosen = [records[key] for key in keys]
    metrics = {}
    for name in chosen[0]["metrics"]:
        values = [record["metrics"][name]["value"] for record in chosen]
        metrics[name] = {**_summary(values), "unit": chosen[0]["metrics"][name]["unit"],
                         "by_seed": dict(zip((key[2] for key in keys), values))}
    return {
        "seeds": [key[2] for key in keys],
        "seconds": sorted({record["args"]["seconds"] for record in chosen}),
        "attempted": sum(record["attempted"] for record in chosen),
        "failed": sum(record["failed"] for record in chosen),
        "env": {k: v for k, v in chosen[0]["env"].items() if k != "loadavg"},
        "metrics": metrics,
    }


def _sign(metric: dict) -> int:
    """+1 where lower is better, -1 where higher is."""
    return 1 if metric.get("better", "lower") == "lower" else -1


def _wins(parent: dict, change: dict, metrics: dict[str, dict]) -> dict:
    wins = {}
    for name, metric in change["metrics"].items():
        old = parent["metrics"].get(name, {}).get("by_seed", {})
        pairs = [(old[seed], new) for seed, new in metric["by_seed"].items() if seed in old]
        sign = _sign(metrics.get(name, {}))
        wins[name] = {"pairs": len(pairs),
                      "change_better": sum(sign * (new - was) < 0 for was, new in pairs),
                      "parent_better": sum(sign * (new - was) > 0 for was, new in pairs)}
    return wins


def _every_run_better(parent: dict, change: dict, sign: int) -> bool:
    return max(sign * v for v in change["by_seed"].values()) < min(
        sign * v for v in parent["by_seed"].values())


def _verdict(parent: dict, change: dict, wins: dict, metric: dict) -> dict:
    """The claim rule and the no-regression rule on one end-to-end metric."""
    sign = _sign(metric)
    gain = sign * (parent["median"] - change["median"])
    parent_iqr = parent["q3"] - parent["q1"]
    limit = parent["median"] * (1 + sign * metric["bound"])
    if parent_iqr > abs(parent["median"]) * metric["bound"] and not _every_run_better(
            parent, change, sign):
        no_regression = "unresolved"
    else:
        no_regression = "yes" if sign * (change["median"] - limit) <= 0 else "no"
    return {
        "claim_met": wins["pairs"] >= 10 and 10 * wins["change_better"] >= 9 * wins["pairs"]
        and gain > parent_iqr,
        "no_regression": no_regression,
        "gain": gain, "parent_iqr": parent_iqr, "limit": limit,
    }


def record(runs: Path, parent_runs: Path | None) -> dict:
    """The workloads entry of a ``BENCH_<label>.json`` for these run records."""
    change = _load(runs)
    parent = _load(parent_runs) if parent_runs else {}
    metrics = _metrics()
    run_seconds = _benchmark()["run_seconds"]
    workloads = {}
    for group in sorted({key[:2] for key in change}):
        entry = {"change" if parent else "runs": _side(change, group)}
        if any(key[:2] == group for key in parent):
            entry["parent"] = old = _side(parent, group)
            entry["wins"] = wins = _wins(old, entry["change"], metrics)
            entry["verdict"] = {
                name: _verdict(old["metrics"][name], new, wins[name], metrics[name])
                for name, new in entry["change"]["metrics"].items()
                if "bound" in metrics.get(name, {}) and name in old["metrics"]
            }
        seconds = sorted({s for side in ("runs", "change", "parent") if side in entry
                          for s in entry[side]["seconds"]})
        if seconds != [run_seconds]:
            entry["seconds_flag"] = (f"runs of {', '.join(map(str, seconds))} s, not "
                                     f"BENCHMARK.json's run_seconds {run_seconds} s")
        workloads[f"{group[0]}/trace{group[1]}"] = entry
    return workloads


REGRESSION_WORDS = {"yes": "no regression", "no": "REGRESSION",
                    "unresolved": "UNRESOLVED (parent spread wider than the bound)"}


def verdict_lines(workloads: dict) -> list[str]:
    lines = []
    for key, entry in workloads.items():
        for name, verdict in entry.get("verdict", {}).items():
            wins = entry["wins"][name]
            lines.append(
                f"{key} {name}: claim {'met' if verdict['claim_met'] else 'not met'} "
                f"({wins['change_better']}/{wins['pairs']} pairs better, median gain "
                f"{verdict['gain']:.6g} vs parent IQR {verdict['parent_iqr']:.6g}); "
                f"{REGRESSION_WORDS[verdict['no_regression']]} "
                f"(change median {entry['change']['metrics'][name]['median']:.6g}, "
                f"limit {verdict['limit']:.6g})"
            )
        if "seconds_flag" in entry:
            lines.append(f"{key}: FLAG {entry['seconds_flag']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("runs", type=Path)
    parser.add_argument("--parent", type=Path, help="the parent checkout's perfbench/_runs")
    args = parser.parse_args(argv)

    workloads = record(args.runs, args.parent)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}: {', '.join(workloads)}")
    for line in verdict_lines(workloads):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
