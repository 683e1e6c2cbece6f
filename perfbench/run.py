"""measureflow benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {simulate,distance,study} --seed N \
        --seconds S --trace {0,1}

Each workload runs in a fresh child process (worker.py) with BLAS/OpenMP
pinned to one thread.  Ops run in a closed loop, one at a time, until
``--seconds`` have passed; every op's output is then checked against an
independent oracle or invariant.

``--trace 0`` prints the end-to-end metrics: ``norm_wall_s`` (time of the
workload's op list at a reference CPU speed, median over passes; speed.py
says why and how), ``setup_s`` (fresh interpreter to first timed op: import,
input generation, warm-up; at the same reference speed, median over several
fresh interpreters) and ``peak_rss_mb``.  The raw ``wall_s`` (median pass wall time), per-command
times, both raw and normalized, and the failed-op share are printed on the
lines above the result.
``--trace 1`` runs the same passes with and without spans around each
module's entry points and prints the per-layer metrics, each with the
end-to-end figure it should move.  The last line of stdout is the
JSON result; a record with the inputs' hashes, the environment and every
op's timing is written under perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # extra fresh interpreters timed up to their first op
TIME_LIMIT_S = 170.0  # a run must end well inside 180 s
END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Which end-to-end figure each layer's metrics should move, and where.
LAYER_TARGETS = {
    "lattice": "simulate_s on simulate; convergence_s, validate_s on study; ~0 on distance",
    "measures": "simulate_s on simulate (canonicalization in the source path)",
    "fields": "simulate_s on simulate",
    "simplex": "distance_s on distance; convergence_s on study; 0 on simulate",
    "wasserstein": "distance_s on distance; convergence_s on study",
    "flat": "distance_s on distance; convergence_s on study",
    "fiber": "distance_s and peak_rss_mb on distance; absent elsewhere",
    "analysis": "convergence_s, validate_s on study",
    "cli": "every command metric; largest on simulate (trajectory CSV writing)",
    "trace": "traced wall_s minus untraced wall_s (raw wall times, no speed sampling)",
}


def _spawn(args, tag: str, deadline: float, setup_only: bool, spans: Path | None) -> tuple:
    """Run one worker process; return (set-up seconds at the reference speed
    (raw with ``--trace 1``, where no speed is sampled), its record)."""
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", "tiny" if args.tiny else "full",
           "--workdir", str(work / "ops"), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(deadline - spawned, 1.0))
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with code {proc.returncode}")
        record = json.loads(result.read_text())
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"worker did not finish within {TIME_LIMIT_S:g} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = record["first_op_at"] - spawned
    if "setup_speed" in record:
        setup_s = (setup_s - record["setup_kernel_s"]) * record["setup_speed"]
    return setup_s, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "measureflow" / "__init__.py").is_file():
        print(f"error: no measureflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = HERE / "_runs"
    runs.mkdir(exist_ok=True)
    stem = (f"{args.workload}-s{args.seed}-t{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    spans = runs / f"{stem}.spans.jsonl.gz" if args.trace else None

    setups = [] if args.trace else [
        _spawn(args, f"setup{i}", deadline, True, None)[0] for i in range(SETUP_PROBES)
    ]
    setup_s, record = _spawn(args, "main", deadline, False, spans)
    setups.append(setup_s)

    if args.trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {"norm_wall_s": record["norm_wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    attempted, failed = record["attempted"], record["failed"]
    (runs / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "setup_s_samples": setups, "metrics": metrics, **record},
        indent=1))

    env = record["env"]
    passes = record["passes"]
    print(f"measureflow benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}  loadavg {env['loadavg'][0]:.2f}")
    print(f"inputs  pass-0 sha256 {passes[0]['inputs_sha256']}  passes {len(passes)}")
    print(f"{'wall_s':34} {record['wall_s']:12.6f} s      raw, median of {len(passes)} passes")
    for name, value in record["command_s"].items():
        print(f"{name:34} {value:12.6f} s      raw")
    if not args.trace:
        print(f"{'norm_wall_s':34} {record['norm_wall_s']:12.6f} s      at reference speed, "
              f"{record['speed_samples']} speed samples, kernel median "
              f"{record['kernel_median_s'] * 1e6:.1f} us")
        for name, value in record["command_norm_s"].items():
            print(f"{'norm_' + name:34} {value:12.6f} s      at reference speed")
        print(f"{'setup_s':34} {metrics['setup_s']['value']:12.6f} s      "
              f"at reference speed, median of {len(setups)} fresh interpreters")
        print(f"{'peak_rss_mb':34} {record['peak_rss_mb']:12.3f} MB")
    print(f"{'failed_op_share':34} {failed / attempted:12.6f} ratio  "
          f"{failed} of {attempted} ops")
    for failure in record["failures"][:5]:
        print(f"  FAILED pass {failure['pass']} {failure['op']} ({failure['variant']}): "
              f"{failure['reason'].strip().splitlines()[-1]}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:34} {metric['value']:12.6g} {metric['unit']:6} "
                  f"-> {LAYER_TARGETS[name.split('.')[0]]}")
    print(f"record  {(runs / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
