"""One workload in one fresh process: set up, run passes for a fixed time, check.

run.py starts this script once per measurement so that set-up time and peak
memory belong to a single workload.  Ops run in a closed loop, one at a
time, single process and single thread: each op is one in-process call to
``measureflow.cli.main`` on inputs generated from the seed.

    python3 perfbench/worker.py --workload study --seed 1 --seconds 20 \
        --trace 0 --size full --workdir W --result W/result.json

With ``--trace 0`` a ``speed.SpeedMeter`` samples the CPU's speed from the
start of ``main`` to the end of the last timed op, and the set-up time and
each op's time are also given normalized to a reference speed.  This module
imports nothing heavy before ``main`` (``workloads`` imports numpy), so that
the samples cover the set-up.

With ``--trace 1`` every pass runs twice on the same inputs, once plain and
once with the tracer installed (alternating which goes first), so that the
trace overhead is measured on identical work.  No speed is sampled, so span
times are plain wall times.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedMeter
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "distance", "convergence", "validate")


def import_cli():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "measureflow" / "__init__.py").is_file():
        raise SystemExit(f"measureflow sources not found under {src}")
    sys.path.insert(0, str(src))
    import measureflow.cli

    return measureflow.cli


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_op(cli, op) -> tuple[float, int, str | None]:
    """Time one CLI call; a raised exception is a failed op, not a crash."""
    start = perf_counter()
    error = None
    try:
        rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = -1, traceback.format_exc(limit=-3)
    return perf_counter() - start, rc, error


def _check(op, rc: int, error: str | None) -> str | None:
    """Why the op failed, or None."""
    from workloads import CheckFailed

    if error is not None:
        return error
    if rc != 0:
        return f"exit code {rc}"
    try:
        op.check(op)
    except CheckFailed as exc:
        return f"check failed: {exc}"
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 size: str, workdir: Path, setup_only: bool = False,
                 meter: SpeedMeter | None = None) -> dict:
    """Warm up, then run passes until ``seconds`` have passed; check every op.

    Returns the run record; ``first_op_at`` is ``time.monotonic()`` when the
    first timed op starts, which run.py turns into the set-up time, and
    ``setup_kernel_s``/``setup_speed`` are the speed samples' total time and
    normalizing factor up to then.  Without ``trace``, ``meter`` (started
    here if not given) samples the speed until the last timed op ends."""
    from workloads import inputs_digest, make_pass

    meter = None if trace else (meter or SpeedMeter()).start()
    ops = make_pass(workload, seed, 0, size, workdir / "pass-0")
    for op in make_pass(workload, seed, 0, "tiny", workdir / "warmup"):
        run_op(cli, op)
    first_op_at = time.monotonic()
    record = {"first_op_at": first_op_at}
    if meter:
        record["setup_kernel_s"], record["setup_speed"] = meter.speed(0, meter.mark())
    if setup_only:
        if meter:
            meter.stop()
        return record

    tracer = Tracer() if trace else None
    variants = ("plain", "traced") if trace else ("plain",)
    passes, span_ranges, executed = [], [], []
    op_id = 0
    k = 0
    try:
        while True:
            entry = {"index": k, "inputs_sha256": inputs_digest(ops), "wall_s": {},
                     "norm_s": None, "ops": []}
            order = variants if k % 2 == 0 else variants[::-1]
            for variant in order:
                outdir = workdir / f"pass-{k}" / variant
                outdir.mkdir(parents=True)
                wall = norm = 0.0
                if variant == "traced":
                    lo = len(tracer.spans)
                    tracer.install()
                try:
                    for op in ops:
                        op = op.with_outdir(outdir)
                        if tracer is not None:
                            tracer.op_id = op_id
                        mark = meter.mark() if meter else 0
                        seconds_op, rc, error = run_op(cli, op)
                        norm_op = None
                        if meter:
                            seconds_op, norm_op = meter.normalize(seconds_op, mark, meter.mark())
                            norm += norm_op
                        wall += seconds_op
                        entry["ops"].append({"id": op_id, "name": op.name,
                                             "command": op.command, "variant": variant,
                                             "sizes": op.sizes, "seconds": seconds_op,
                                             "norm_s": norm_op, "rc": rc})
                        executed.append((k, variant, op, rc, error, entry["ops"][-1]))
                        op_id += 1
                finally:
                    if variant == "traced":
                        tracer.uninstall()
                        span_ranges.append((lo, len(tracer.spans)))
                entry["wall_s"][variant] = wall
                if meter:
                    entry["norm_s"] = norm
            passes.append(entry)
            k += 1
            if time.monotonic() - first_op_at >= seconds:
                break
            ops = make_pass(workload, seed, k, size, workdir / f"pass-{k}")
    finally:
        if meter:
            meter.stop()
    # ru_maxrss is in KiB on Linux; read it before the checks allocate
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_started = perf_counter()
    failures = []
    checked = "traced" if trace else "plain"
    by_key = {(k, op.name): op for k, variant, op, *_ in executed if variant == checked}
    for k, variant, op, rc, error, op_record in executed:
        if variant == checked:
            reason = _check(op, rc, error)
        else:  # the plain twin of a traced op must have written the same bytes
            twin = by_key[(k, op.name)]
            reason = _check(op, rc, error) if rc != 0 or error else None
            if reason is None and any(a.read_bytes() != b.read_bytes()
                                      for a, b in zip(op.outputs(), twin.outputs())):
                reason = "tracing changed the output bytes"
        if reason is not None:
            op_record["failure"] = reason
            failures.append({"pass": k, "op": op.name, "variant": variant, "reason": reason})
    shutil.rmtree(workdir, ignore_errors=True)

    # Every pass draws fresh inputs, so the median over passes is over inputs
    # as well as over time.  Per command: the median over passes of the
    # command's summed op times.
    def per_pass(key: str, command: str | None = None) -> float:
        return statistics.median(
            sum(o[key] for o in p["ops"]
                if o["variant"] == "plain" and command in (None, o["command"]))
            for p in passes
        )

    commands = {o["command"] for o in passes[0]["ops"]}
    record.update({
        "passes": passes,
        "attempted": len(executed),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "check_s": perf_counter() - check_started,
        "wall_s": per_pass("seconds"),
        "command_s": {f"{c}_s": per_pass("seconds", c) for c in COMMANDS if c in commands},
    })
    if meter:
        record.update({
            "norm_wall_s": per_pass("norm_s"),
            "command_norm_s": {f"{c}_s": per_pass("norm_s", c)
                               for c in COMMANDS if c in commands},
            "speed_samples": len(meter.kernel_s),
            "kernel_median_s": statistics.median(meter.kernel_s),
        })
    if trace:
        traced_walls = [p["wall_s"]["traced"] for p in passes]
        plain_walls = [p["wall_s"]["plain"] for p in passes]
        record["layers"] = layer_metrics(tracer.spans, span_ranges, traced_walls, plain_walls)
        record["spans"] = tracer.spans
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="gzip JSON-lines file for the spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    meter = None if args.trace else SpeedMeter().start()
    try:
        env = environment()
        started = perf_counter()
        cli = import_cli()
        import_s = perf_counter() - started
        record = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size, args.workdir, args.setup_only, meter)
    finally:
        if meter:
            meter.stop()
    record.update({"env": env, "import_s": import_s})
    spans = record.pop("spans", None)
    if spans is not None and args.spans is not None:
        with gzip.open(args.spans, "wt") as fh:
            for name, start, end, parent, op_id, _ in spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
