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
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _directions() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


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
        "attempted": sum(record["attempted"] for record in chosen),
        "failed": sum(record["failed"] for record in chosen),
        "env": {k: v for k, v in chosen[0]["env"].items() if k != "loadavg"},
        "metrics": metrics,
    }


def _wins(parent: dict, change: dict, better: dict[str, str]) -> dict:
    wins = {}
    for name, metric in change["metrics"].items():
        old = parent["metrics"].get(name, {}).get("by_seed", {})
        pairs = [(old[seed], new) for seed, new in metric["by_seed"].items() if seed in old]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins[name] = {"pairs": len(pairs),
                      "change_better": sum(sign * (new - was) < 0 for was, new in pairs),
                      "parent_better": sum(sign * (new - was) > 0 for was, new in pairs)}
    return wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("runs", type=Path)
    parser.add_argument("--parent", type=Path, help="the parent checkout's perfbench/_runs")
    args = parser.parse_args(argv)

    change = _load(args.runs)
    parent = _load(args.parent) if args.parent else {}
    better = _directions()
    workloads = {}
    for group in sorted({key[:2] for key in change}):
        entry = {"change" if parent else "runs": _side(change, group)}
        if any(key[:2] == group for key in parent):
            entry["parent"] = _side(parent, group)
            entry["wins"] = _wins(entry["parent"], entry["change"], better)
        workloads[f"{group[0]}/trace{group[1]}"] = entry
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}: {', '.join(workloads)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
