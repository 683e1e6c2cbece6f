#!/usr/bin/env python3
"""Pin the bytes of every command's output with one checked-in manifest.

    python scripts/output_digests.py --check [--size {tiny,full}]
    python scripts/output_digests.py --write [--size {tiny,full}]

Runs one fixed list of CLI calls in process, each with ``--no-timestamp``
where the command takes it, and takes the sha256 of every file they write:

- the ops of ``perfbench/workloads.make_pass`` for all three workloads, at
  seeds 1-20 and passes 0-2 (``full``) or seeds 1-3 and pass 0 (``tiny``),
  at that size's inputs.  They cover ``simulate``, ``validate``,
  ``convergence`` (w1 and gw) and ``distance`` with each metric;
- ``simulate``, ``validate`` and ``convergence`` (w1 and gw, levels 4, 8
  and 16) on each built-in preset, at both sizes.

``--check`` compares the digests with ``scripts/output_digests.json``,
prints each output that changed, appeared or went missing, and exits 1 if
any did.  ``--write`` rewrites that size's digests in the manifest, with the
Python, numpy and scipy versions they were taken with; a change that means
to alter outputs rewrites the manifest, and its diff lists the files that
changed.  Only ``perfbench/workloads`` is imported from the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from measureflow.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().with_suffix(".json")
PRESETS = ("translate", "diffusion1d", "source-only")
PASSES = {
    "full": [(seed, index) for seed in range(1, 21) for index in range(3)],
    "tiny": [(seed, 0) for seed in range(1, 4)],
}


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _preset_calls(directory: Path) -> list[tuple[str, list[str], list[Path]]]:
    """(name, argv, outputs) of the preset calls, writing under ``directory``."""
    calls = []
    for preset in PRESETS:
        out = directory / preset
        common = ["--preset", preset, "--no-timestamp"]
        calls.append((f"preset/{preset}/simulate",
                      ["simulate", *common, "--out", str(out / "sim.csv")],
                      [out / "sim.csv", out / "sim.csv.summary.json"]))
        calls.append((f"preset/{preset}/validate",
                      ["validate", *common, "--out", str(out / "validate.json")],
                      [out / "validate.json"]))
        for metric in ("w1", "gw"):
            report, table = out / f"conv_{metric}.json", out / f"conv_{metric}.csv"
            calls.append((f"preset/{preset}/convergence_{metric}",
                          ["convergence", *common, "--levels", "4,8,16", "--metric", metric,
                           "--out", str(report), "--csv", str(table)],
                          [report, table]))
    return calls


def digests(size: str) -> dict[str, str]:
    """sha256 of every output of the fixed call list at ``size``, by name.

    A call that does not exit 0 (validate's 1 included) raises."""
    workloads = _workloads()
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        calls = []
        for workload in workloads.WORKLOADS:
            for seed, index in PASSES[size]:
                where = Path(tmp) / workload / f"s{seed}p{index}"
                for op in workloads.make_pass(workload, seed, index, size, where):
                    calls.append((f"{workload}/s{seed}p{index}/{op.name}", op.argv,
                                  op.outputs()))
        calls += _preset_calls(Path(tmp) / "presets")
        for name, argv, outputs in calls:
            for path in outputs:
                path.parent.mkdir(parents=True, exist_ok=True)
            code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"{name}: {' '.join(argv)} exited {code}")
            for path in outputs:
                found[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}


def compare(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per output that changed, appeared or went missing."""
    lines = []
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            lines.append(f"missing: {name}")
        elif name not in want:
            lines.append(f"new: {name}")
        elif want[name] != got[name]:
            lines.append(f"changed: {name}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare with the manifest")
    action.add_argument("--write", action="store_true", help="rewrite the manifest")
    parser.add_argument("--size", choices=sorted(PASSES), default="full")
    args = parser.parse_args(argv)
    got = digests(args.size)
    manifest = load_manifest()
    if args.write:
        manifest[args.size] = {"versions": versions(), "outputs": got}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} {args.size} digests to {MANIFEST.name}")
        return 0
    entry = manifest.get(args.size, {"versions": {}, "outputs": {}})
    if entry["versions"] != versions():
        print(f"note: manifest taken with {entry['versions']}, running {versions()}")
    lines = compare(entry["outputs"], got)
    for line in lines:
        print(line)
    print(f"{args.size}: {len(got)} outputs, {len(lines)} differ from the manifest")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
