"""Command-line entry point.

Subcommands: simulate | distance | convergence | validate.  Configs and
reports are JSON, bulk trajectories are CSV.  Outputs are written
atomically (temp file + rename) and are byte-identical across reruns and
thread counts once timestamps are disabled.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import logging
import math
import os
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError, MassMismatch, MeasureflowError, SupportOverflow
from .fiber import fiber_w, fiber_wg
from .fields import Ball, PiecewiseLinear, PvfSpec, SourceSpec
from .flat import generalized_wasserstein
from .lattice import LatticeGrid, Trajectory, predicted_reach, run_semigroup
from .measures import DiscreteMeasure, LiftedMeasure, _dyadic
from .problems import ProblemSpec, builtin_problem
from .wasserstein import wasserstein1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_IO = 4

log = logging.getLogger("measureflow")


def _setup_logging():
    level = os.environ.get("MEASUREFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _write_atomic(path: str | Path, data: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def _json_dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path: str | Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as err:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"{path}: invalid JSON ({err})") from None


def _load_measure(path: str | Path) -> DiscreteMeasure:
    path = Path(path)
    try:
        if path.suffix.lower() == ".csv":
            text = path.read_text()
            first = next((ln for ln in text.splitlines() if ln.strip()), None)
            if first is None:
                raise ConfigError(f"{path}: empty CSV measure")
            return DiscreteMeasure.from_csv(text, dim=len(first.split(",")) - 1)
        return DiscreteMeasure.from_dict(_load_json(path))
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise ConfigError(f"{path}: bad measure schema ({err})") from None


def _config_measure(spec, config_dir: Path) -> DiscreteMeasure:
    """A measure given in a config inline (a dict) or by a path relative to
    the config's directory."""
    if isinstance(spec, str):
        return _load_measure(config_dir / spec)
    try:
        return DiscreteMeasure.from_dict(spec)
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise ConfigError(f"bad inline measure schema ({err})") from None


def _load_lifted(path: str | Path) -> LiftedMeasure:
    data = _load_json(path)
    try:
        return LiftedMeasure.from_dict(data)
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise ConfigError(f"{path}: bad lifted-measure schema ({err})") from None


# -- config parsing -------------------------------------------------------------

# The keys each config object may hold, per kind where a key names the kind:
# any other key exits 2, so a misspelt key never runs another problem.
_CONFIG_KEYS = ("problem", "initial_measure", "pvf", "source", "N", "T", "N_list",
                "metric", "adaptive_extent", "seed")
_VELOCITY_KEYS = {"constant": ("type", "value"), "identity": ("type",),
                  "scale": ("type", "factor")}
_PVF_KEYS = {"deterministic": ("kind", "velocity", "C", "velocity_bound"),
             "diffusion1d": ("kind", "phi", "q")}
_SOURCE_KEYS = {"constant": ("kind", "measure", "R"),
                "proportional": ("kind", "rate", "R", "carrier")}
_CARRIER_KEYS = ("center", "radius")


def _object(spec, name: str, keys, tag: str | None = None) -> dict:
    """``spec`` as a config object: a JSON object with no key outside
    ``keys``, or outside ``keys[spec[tag]]`` when its ``tag`` names its kind."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object, got {spec!r}")
    if tag is not None:
        kind = spec.get(tag)
        if not isinstance(kind, str) or kind not in keys:
            raise ConfigError(f"unknown {name} {tag} {kind!r}")
        name, keys = f"{kind} {name}", keys[kind]
    for key in spec:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {name} (allowed: {', '.join(keys)})")
    return spec


def _build_velocity(spec):
    spec = _object(spec, "velocity", _VELOCITY_KEYS, "type")
    if spec["type"] == "constant":
        value = _numbers(spec.get("value"), "velocity value", finite=True)
        return (lambda x: value), max(abs(c) for c in value)
    if spec["type"] == "identity":
        return (lambda x: x), None
    factor = _number(spec.get("factor"), "factor", finite=True)
    return (lambda x: factor * np.asarray(x)), None


def _build_pvf(spec) -> PvfSpec:
    spec = _object(spec, "pvf", _PVF_KEYS, "kind")
    if spec["kind"] == "deterministic":
        velocity, bound = _build_velocity(spec.get("velocity", {}))
        c = _number(spec.get("C", 1.0), "C")
        if not c > 0:  # NaN too
            raise ConfigError("growth constant C must be positive")
        if "velocity_bound" in spec:
            bound = _number(spec["velocity_bound"], "velocity_bound")
        try:
            return PvfSpec.deterministic(velocity, c, bound)
        except ValueError as err:
            raise ConfigError(str(err)) from None
    table = spec.get("phi")
    if not isinstance(table, list) or not table:
        raise ConfigError("diffusion1d needs a phi breakpoint table")
    q = _positive_int(spec.get("q", 8), "q")
    try:
        phi = PiecewiseLinear.from_table(_numbers(row, "phi row", finite=True) for row in table)
        return PvfSpec.diffusion1d(phi, q)
    except ValueError as err:
        raise ConfigError(f"bad phi table: {err}") from None


def _build_carrier(spec) -> Ball:
    spec = _object(spec, "carrier", _CARRIER_KEYS)
    center = _numbers(spec.get("center"), "carrier center")
    radius = _number(spec.get("radius"), "carrier radius")
    try:
        return Ball(center=center, radius=radius)
    except ValueError as err:
        raise ConfigError(f"bad carrier ({err})") from None


def _build_source(spec, config_dir: Path) -> SourceSpec:
    spec = _object(spec, "source", _SOURCE_KEYS, "kind")
    if spec["kind"] == "constant":
        measure = spec.get("measure")
        if not isinstance(measure, (str, dict)):
            raise ConfigError("constant source needs a measure (inline or path)")
        sigma = _config_measure(measure, config_dir)
        radius = _number(spec["R"], "R") if "R" in spec else None
        try:
            return SourceSpec.constant(sigma, radius)
        except ValueError as err:
            raise ConfigError(str(err)) from None
    rate = _number(spec.get("rate", 0.0), "rate")
    radius = _number(spec.get("R", 1.0), "R")
    carrier = _build_carrier(spec["carrier"]) if "carrier" in spec else None
    try:
        return SourceSpec.proportional(rate, radius, carrier)
    except ValueError as err:
        raise ConfigError(f"bad proportional source ({err})") from None


def _build_problem(config: dict, config_dir: Path) -> ProblemSpec:
    name = config.get("problem", "custom")
    if not isinstance(name, str):
        raise ConfigError(f"problem must be a string, got {name!r}")
    if name in ("translate", "diffusion1d", "source-only"):
        problem = builtin_problem(name)
    else:
        problem = ProblemSpec(
            name=name, initial=DiscreteMeasure.dirac([0.0]), pvf=None, src=None
        )
        if "pvf" not in config and "source" not in config:
            raise ConfigError(
                "custom problems need at least one of 'pvf' or 'source'"
            )

    if "initial_measure" in config:
        problem = problem.with_initial(_config_measure(config["initial_measure"], config_dir))
    if "pvf" in config:
        problem = replace(problem, pvf=_build_pvf(config["pvf"]), reference=None)
    if "source" in config:
        problem = replace(problem, src=_build_source(config["source"], config_dir), reference=None)
    return problem


def _number(value, name: str, finite: bool = False) -> float:
    """A config number: a JSON integer or float, not a bool or string;
    with ``finite``, not NaN or an infinity either."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{name} must be a number in the float range, got {value}") from None
    if finite and not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def _numbers(value, name: str, finite: bool = False) -> tuple[float, ...]:
    """A config list of numbers: a non-empty JSON array."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list of numbers, got {value!r}")
    return tuple(_number(c, name, finite) for c in value)


def _final_time(config: dict, args) -> float:
    t_final = _number(config.get("T", args.T), "T")
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ConfigError(f"T must be positive and finite, got {t_final}")
    return t_final


def _positive_int(value, name: str) -> int:
    """A config integer >= 1: a JSON integer, not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def _flag(config: dict, name: str) -> bool:
    value = config.get(name, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _load_config(args) -> tuple[dict, Path]:
    if args.preset and args.config:
        raise ConfigError("give either --config or --preset, not both")
    if args.preset:
        builtin_problem(args.preset)  # an unknown name exits 2, listing the presets
        return {"problem": args.preset}, Path.cwd()
    if not args.config:
        raise ConfigError("missing --config (or --preset)")
    path = Path(args.config)
    config = _load_json(path)
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _object(config, "config", _CONFIG_KEYS), path.parent


# -- subcommands -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config, config_dir = _load_config(args)
    problem = _build_problem(config, config_dir)
    n = _positive_int(config.get("N", args.N), "N")
    t_final = _final_time(config, args)
    grid = LatticeGrid(
        N=n, dim=problem.initial.dim,
        adaptive_extent=_flag(config, "adaptive_extent"),
    )
    start = time.perf_counter()
    traj = run_semigroup(grid, problem.initial, problem.pvf, problem.src, t_final)
    elapsed = time.perf_counter() - start

    # No field needs CSV quoting (ints and float reprs), so lines are joined
    # directly.  Positions recur from state to state (lattice anchors): each
    # one's text is made once per run.  Canonical positions hold no -0.0, so
    # equal keys have equal text.
    header = ["t", "atom_index", *[f"x{d+1}" for d in range(grid.dim)], "weight"]
    lines = [",".join(header) + "\n"]
    coords: dict[tuple[float, ...], str] = {}
    for t, state in zip(traj.times, traj.states):
        t_text = repr(t)
        for index, (pos, w) in enumerate(state.atoms):
            text = coords.get(pos)
            if text is None:
                text = coords[pos] = ",".join(map(repr, pos))
            lines.append(f"{t_text},{index},{text},{w!r}\n")
    out = Path(args.out)
    _write_atomic(out, "".join(lines))

    summary = {
        "problem": problem.name,
        "N": n,
        "T": t_final,
        "n_steps": len(traj.states) - 1,
        "times": list(traj.times),
        "masses": list(traj.masses),
        "support_radii": list(traj.support_radii),
        "atom_counts": [len(s) for s in traj.states],
        "final_mass": traj.masses[-1],
    }
    if not args.no_timestamp:
        summary["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        summary["wall_time_s"] = elapsed
    summary_path = args.summary or str(out) + ".summary.json"
    _write_atomic(summary_path, _json_dumps(summary))
    log.info("simulate: %d steps, %d atoms at T", summary["n_steps"], len(traj.final_state))
    return EXIT_OK


def cmd_distance(args) -> int:
    metric = args.metric
    if metric in ("w1", "gw"):
        m1 = _load_measure(args.file_a)
        m2 = _load_measure(args.file_b)
    else:
        v1 = _load_lifted(args.file_a)
        v2 = _load_lifted(args.file_b)
    if metric == "w1":
        distance, plan = wasserstein1(m1, m2)
        payload = {"metric": "w1", "distance": distance, "plan": plan.to_jsonable()}
    elif metric == "gw":
        sol = generalized_wasserstein(m1, m2)
        payload = {
            "metric": "gw",
            "distance": sol.distance,
            "removed1": sol.kept1.removed_mass,
            "removed2": sol.kept2.removed_mass,
            "transport_cost": sol.plan.cost,
            "plan": sol.plan.to_jsonable(),
        }
    elif metric == "fiber-w":
        payload = {"metric": "fiber-w", "distance": fiber_w(v1, v2)}
    elif metric == "fiber-wg":
        payload = {"metric": "fiber-wg", "distance": fiber_wg(v1, v2)}
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown metric {metric!r}")
    text = _json_dumps(payload)
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_convergence(args) -> int:
    config, config_dir = _load_config(args)
    problem = _build_problem(config, config_dir)
    levels = config.get("N_list")
    if levels is None:
        if args.levels is None:
            raise ConfigError("missing N_list (config) or --levels")
        try:
            levels = [int(part) for part in args.levels.split(",") if part]
        except ValueError:
            raise ConfigError(f"--levels must list integers, got {args.levels!r}") from None
    elif not isinstance(levels, list):
        raise ConfigError(f"N_list must be a list of integers, got {levels!r}")
    levels = [_positive_int(n, "level") for n in levels]
    if len(set(levels)) < 3:
        raise ConfigError("convergence needs at least 3 distinct levels")
    t_final = _final_time(config, args)
    metric = config.get("metric", args.metric)
    if metric not in ("w1", "gw"):
        raise ConfigError(f"convergence metric must be w1 or gw, got {metric!r}")
    report = analysis.convergence_study(
        problem,
        levels,
        t_final,
        metric=metric,
        adaptive_extent=_flag(config, "adaptive_extent"),
    )
    payload = report.to_dict()
    payload["T"] = t_final
    if not args.no_timestamp:
        payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _write_atomic(args.out, _json_dumps(payload))
    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["level", "distance", "fitted_rate"])
        for level, dist, rate in report.csv_rows():
            writer.writerow([level, repr(dist), repr(rate)])
        _write_atomic(args.csv, buffer.getvalue())
    return EXIT_OK


def _expected_defects(problem: ProblemSpec, traj: Trajectory, t_final: float) -> list:
    """(expected mass defect, allowed gap) per step of a run with a source.

    A proportional source whose balls hold the transport envelope sees all
    of the exact state mu_k: its defect is rate dt |mu_k|.  Otherwise the
    source's exact form is applied to the recorded state, whose weights w_i
    are rounded and miss the sub-floor atoms; the gap
    rate dt (| |mu_k| - sum w_i | + 2^-51 sum w_i) covers both.  A constant
    source ignores the state: no gap.  (No config builds a custom source.)"""
    src, dt = problem.src, Fraction(1, traj.grid.N)
    rate = Fraction(src.rate)
    masses = traj.exact_masses[:-1]
    if src.kind == "proportional":
        reach = predicted_reach(problem.initial, problem.pvf, None, t_final)
        carrier = src.carrier
        if reach <= src.support_radius and (
            carrier is None or math.hypot(*carrier.center) + reach <= carrier.radius
        ):
            return [(rate * dt * mass, Fraction(0)) for mass in masses]
    rows = []
    for state, mass in zip(traj.states, masses):
        _, nums, den = src.created(state.positions_array(), *_dyadic(state.weights()))
        recorded = sum(map(Fraction, state.weights()), Fraction(0))
        slack = rate * dt * (abs(mass - recorded) + recorded / 2**51)
        rows.append((dt * Fraction(sum(nums.tolist()), den), slack))
    return rows


def _validate_checks(problem: ProblemSpec, n: int, t_final: float, seed: int,
                     adaptive: bool) -> list[dict]:
    checks: list[dict] = []
    grid = LatticeGrid(N=n, dim=problem.initial.dim, adaptive_extent=adaptive)
    traj = run_semigroup(grid, problem.initial, problem.pvf, problem.src, t_final)

    # mass bookkeeping: defects vanish without a source and equal
    # dt * |s[mu_k]| with one
    defects = traj.mass_defects()
    if problem.src is None:
        mass_ok = all(d == 0 for d in defects)
        detail = {"max_abs_defect": float(max((abs(d) for d in defects), default=0))}
    else:
        gaps = [(abs(d - e), slack) for d, (e, slack) in
                zip(defects, _expected_defects(problem, traj, t_final))]
        mass_ok = all(gap <= slack for gap, slack in gaps)
        detail = {"max_abs_defect_gap": float(max((gap for gap, _ in gaps), default=0))}
    checks.append({"name": "mass_bookkeeping", "passed": bool(mass_ok), "details": detail})

    aligned = all(grid.is_aligned(state) for state in traj.states)
    checks.append({"name": "grid_alignment", "passed": bool(aligned), "details": {}})

    reach = predicted_reach(problem.initial, problem.pvf, problem.src, t_final)
    radius_ok = max(traj.support_radii) <= reach + 1e-9
    checks.append(
        {
            "name": "support_envelope",
            "passed": bool(radius_ok),
            "details": {"max_radius": max(traj.support_radii), "envelope": reach},
        }
    )

    # weak-form residual with a plateau test function covering the run
    f = analysis.TestFunction.plateau(reach + 0.5, reach + 1.5, grid.dim)
    sigma_mass = problem.src.evaluate(problem.initial).mass() if problem.src else 0.0
    residual = analysis.weak_residual(traj, f, t=0.0)
    budget = 1e-9 if problem.src is None else 10.0 * grid.dt * (1.0 + sigma_mass)
    checks.append(
        {
            "name": "weak_residual_mass_balance",
            "passed": bool(residual <= budget),
            "details": {"residual": residual, "budget": budget},
        }
    )

    # determinism: an identical rerun reproduces the states bit for bit
    rerun = run_semigroup(grid, problem.initial, problem.pvf, problem.src, t_final)
    same = all(a.atoms == b.atoms for a, b in zip(traj.states, rerun.states))
    checks.append({"name": "determinism", "passed": bool(same), "details": {}})

    # Lipschitz dependence on data: perturbed pairs stay within the fitted
    # exponential envelope
    rng = random.Random(seed)
    shift = 0.25 + 0.5 * rng.random()
    mu0 = problem.initial
    nu0 = mu0.pushforward(lambda x: x + shift)
    t_probe = [k / n for k in range(1, len(traj.states), max(1, (len(traj.states) - 1) // 4))]
    # traj is the probe's run of mu0 on the same level, recorded past t_probe
    probe = analysis.semigroup_probe(problem, [(mu0, nu0)], t_probe, N=n,
                                     adaptive_extent=True, trajectories={mu0: traj})
    flags = [row.flagged for row in probe.rows]
    checks.append(
        {
            "name": "semigroup_lipschitz_probe",
            "passed": bool(not any(flags)),
            "details": {"fitted_c": probe.fitted_c, "rows": len(flags)},
        }
    )
    return checks


def cmd_validate(args) -> int:
    config, config_dir = _load_config(args)
    problem = _build_problem(config, config_dir)
    n = _positive_int(config.get("N", args.N), "N")
    t_final = _final_time(config, args)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    checks = _validate_checks(
        problem, n, t_final, seed, _flag(config, "adaptive_extent")
    )
    passed = all(c["passed"] for c in checks)
    payload = {
        "problem": problem.name,
        "N": n,
        "T": t_final,
        "seed": seed,
        "checks": checks,
        "passed": passed,
    }
    if not args.no_timestamp:
        payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = _json_dumps(payload)
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measureflow",
        description="Lattice scheme and exact transport metrics for atomic measure dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="run configuration JSON")
        p.add_argument("--preset", help="built-in problem: translate | diffusion1d | source-only")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: runs are serial, and results "
                            "never depend on this flag")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamps for byte-reproducible outputs")

    p_sim = sub.add_parser("simulate", help="run the lattice scheme, write trajectory CSV")
    add_common(p_sim)
    p_sim.add_argument("--out", required=True, help="trajectory CSV path")
    p_sim.add_argument("--summary", help="summary JSON path (default: OUT.summary.json)")
    p_sim.add_argument("--N", type=int, default=8)
    p_sim.add_argument("--T", type=float, default=1.0)
    p_sim.set_defaults(func=cmd_simulate)

    p_dist = sub.add_parser("distance", help="distance between two measure files")
    p_dist.add_argument("file_a")
    p_dist.add_argument("file_b")
    p_dist.add_argument("--metric", choices=["w1", "gw", "fiber-w", "fiber-wg"],
                        default="w1")
    p_dist.add_argument("--out", help="write JSON here instead of stdout")
    p_dist.set_defaults(func=cmd_distance)

    p_conv = sub.add_parser("convergence", help="multi-level convergence study")
    add_common(p_conv)
    p_conv.add_argument("--out", required=True, help="report JSON path")
    p_conv.add_argument("--csv", help="plot-ready CSV path")
    p_conv.add_argument("--levels", help="comma-separated N list (fallback for N_list)")
    p_conv.add_argument("--T", type=float, default=1.0)
    p_conv.add_argument("--metric", choices=["w1", "gw"], default="gw")
    p_conv.set_defaults(func=cmd_convergence)

    p_val = sub.add_parser("validate", help="run the verification battery")
    add_common(p_val)
    p_val.add_argument("--out", help="report JSON path (default: stdout)")
    p_val.add_argument("--N", type=int, default=8)
    p_val.add_argument("--T", type=float, default=1.0)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MassMismatch) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SupportOverflow as err:
        where = "" if err.step_index is None else f" (step {err.step_index})"
        print(f"error: SupportOverflow{where}: {err}", file=sys.stderr)
        return EXIT_OVERFLOW
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return EXIT_IO
    except MeasureflowError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
