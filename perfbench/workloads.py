"""Seeded inputs and output checks for the benchmark workloads.

A workload is a list of CLI ops (one pass).  Every pass draws fresh inputs
from ``(workload, seed, pass index)``, so the same seed always gives the same
inputs, and a memo kept between calls cannot turn later passes into repeats
of the first.  measureflow only ever sees the generated files.

Each op carries a check that reads the output files of an op that exited 0,
after the timed region, and raises ``CheckFailed`` when the answer is wrong.  Checks use an
independent oracle (the closed-form 1D W1, a dense LP solved by HiGHS) or an
invariant of the scheme (mass conservation, grid alignment, step count, the
fiber chain inequality).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("simulate", "distance", "study")

# Sizes were tuned on a 2-CPU x86 VM so that one full pass takes about 2 s
# and the share of time spent in each layer matches the workload's purpose:
# the stepper dominates `simulate`, the transport solvers dominate
# `distance`, and `study` mixes both the way the paper's convergence studies
# do.  `tiny` is for the smoke test and for the untimed warm-up ops.
SIZES = {
    "full": {
        "diffusion_atoms": 12, "diffusion_N": 40,
        "field_atoms": 120, "field_N": 16,
        "w1_2d": 150, "gw_1d": 150, "w1_1d": 400, "fiber": 60, "fiber_big": 120,
        "study_atoms": 60, "study_levels": (4, 8, 16, 32), "validate_N": 32,
    },
    "tiny": {
        "diffusion_atoms": 3, "diffusion_N": 8,
        "field_atoms": 6, "field_N": 4,
        "w1_2d": 8, "gw_1d": 8, "w1_1d": 12, "fiber": 5, "fiber_big": 7,
        "study_atoms": 5, "study_levels": (2, 4, 8), "validate_N": 4,
    },
}

REL_TOL_1D = 1e-9  # W1 in 1D against the closed-form CDF integral
REL_TOL_LP = 1e-7  # W1 / GW against the dense HiGHS LP
PLAN_TOL = 1e-9  # plan marginals and the value-vs-plan identity
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class CheckFailed(Exception):
    """An op's output contradicts its oracle or invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One in-process CLI call and the check of what it wrote."""

    name: str
    command: str  # simulate | distance | convergence | validate
    argv: list[str]
    sizes: dict
    inputs: list[Path]
    check: Callable[["Op"], None] = field(repr=False)

    def with_outdir(self, outdir: Path) -> "Op":
        """The same op writing its outputs under ``outdir``."""
        argv = list(self.argv)
        index = argv.index("--out") + 1
        argv[index] = str(outdir / Path(argv[index]).name)
        return Op(self.name, self.command, argv, self.sizes, self.inputs, self.check)

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])

    def outputs(self) -> list[Path]:
        if self.command == "simulate":
            return [self.out, Path(str(self.out) + ".summary.json")]
        return [self.out]


def inputs_digest(ops: list[Op]) -> str:
    """sha256 over every op's name and sizes and every generated input file."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(json.dumps([op.name, op.sizes], sort_keys=True).encode())
        for path in op.inputs:
            digest.update(path.read_bytes())
    return digest.hexdigest()


# -- generation -----------------------------------------------------------------


def _rng(workload: str, seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, pass_index])


def _weights(rng, n: int, mass: float) -> list[float]:
    raw = rng.uniform(0.5, 1.5, size=n)
    return [float(w) for w in raw / raw.sum() * mass]


def _points(rng, n: int, dim: int, lo: float, hi: float) -> list[list[float]]:
    return np.round(rng.uniform(lo, hi, size=(n, dim)), 9).tolist()


def _measure(points, weights, dim: int) -> dict:
    return {"dim": dim, "atoms": [[*p, w] for p, w in zip(points, weights)]}


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _simulate_ops(rng, size: dict, d: Path) -> list[Op]:
    ops = []
    n, big_n = size["diffusion_atoms"], size["diffusion_N"]
    # the preset's phi table covers cumulative mass [0, 1]
    config = {
        "problem": "diffusion1d",
        "initial_measure": _measure(_points(rng, n, 1, -1.0, 1.0), _weights(rng, n, 1.0), 1),
        "N": big_n,
        "T": 1.0,
    }
    path = _write(d / "diffusion.json", config)
    ops.append(Op(
        "simulate.diffusion1d", "simulate",
        ["simulate", "--config", str(path), "--out", str(d / "diffusion.csv"),
         "--no-timestamp", "--threads", "1"],
        {"atoms": n, "dim": 1, "N": big_n}, [path], _check_simulate,
    ))

    n, big_n = size["field_atoms"], size["field_N"]
    config = {
        "problem": "custom",
        "initial_measure": _measure(_points(rng, n, 2, -1.0, 1.0), _weights(rng, n, n), 2),
        "pvf": {"kind": "deterministic", "velocity": {"type": "identity"}, "C": 1.0},
        "source": {"kind": "proportional", "rate": 0.5, "R": 2.0},
        "N": big_n,
        "T": 1.0,
        "adaptive_extent": True,
    }
    path = _write(d / "field.json", config)
    ops.append(Op(
        "simulate.identity_source", "simulate",
        ["simulate", "--config", str(path), "--out", str(d / "field.csv"),
         "--no-timestamp", "--threads", "1"],
        {"atoms": n, "dim": 2, "N": big_n}, [path], _check_simulate,
    ))
    return ops


def _distance_op(name, metric, a, b, d: Path, sizes: dict) -> Op:
    pa = _write(d / f"{name}.a.json", a)
    pb = _write(d / f"{name}.b.json", b)
    return Op(
        f"distance.{name}", "distance",
        ["distance", str(pa), str(pb), "--metric", metric,
         "--out", str(d / f"{name}.out.json")],
        sizes, [pa, pb], _check_distance,
    )


def _lifted(rng, n: int, mass: float) -> dict:
    base = np.round(rng.uniform(0.0, 1.0, size=n), 9)
    vel = np.round(rng.uniform(-1.0, 1.0, size=n), 9)
    weights = _weights(rng, n, mass)
    return {"dim": 1, "atoms": [[float(x), float(v), w] for x, v, w in zip(base, vel, weights)]}


def _distance_ops(rng, size: dict, d: Path) -> list[Op]:
    ops = []
    n = size["w1_2d"]  # pivot-heavy
    ops.append(_distance_op(
        "w1_2d", "w1",
        _measure(_points(rng, n, 2, 0.0, 1.0), _weights(rng, n, 1.0), 2),
        _measure(_points(rng, n, 2, 0.0, 1.0), _weights(rng, n, 1.0), 2),
        d, {"atoms": n, "dim": 2},
    ))
    n = size["gw_1d"]  # unequal masses: the dummy node breaks the staircase start
    ops.append(_distance_op(
        "gw_1d", "gw",
        _measure(_points(rng, n, 1, 0.0, 4.0), _weights(rng, n, 1.0), 1),
        _measure(_points(rng, n, 1, 0.0, 4.0), _weights(rng, n, 1.3), 1),
        d, {"atoms": n, "dim": 1},
    ))
    n = size["w1_1d"]  # the staircase start is already optimal: zero pivots
    ops.append(_distance_op(
        "w1_1d", "w1",
        _measure(_points(rng, n, 1, 0.0, 1.0), _weights(rng, n, 1.0), 1),
        _measure(_points(rng, n, 1, 0.0, 1.0), _weights(rng, n, 1.0), 1),
        d, {"atoms": n, "dim": 1},
    ))
    n = size["fiber"]
    ops.append(_distance_op(
        "fiber_w", "fiber-w", _lifted(rng, n, 1.0), _lifted(rng, n, 1.0),
        d, {"atoms": n, "dim": 1},
    ))
    ops.append(_distance_op(
        "fiber_wg", "fiber-wg", _lifted(rng, n, 1.0), _lifted(rng, n, 1.3),
        d, {"atoms": n, "dim": 1},
    ))
    n = size["fiber_big"]  # dense constraint matrices show in peak RSS
    ops.append(_distance_op(
        "fiber_wg_big", "fiber-wg", _lifted(rng, n, 1.0), _lifted(rng, n, 1.3),
        d, {"atoms": n, "dim": 1},
    ))
    return ops


def _study_ops(rng, size: dict, d: Path) -> list[Op]:
    n = size["study_atoms"]
    levels = ",".join(str(level) for level in size["study_levels"])
    config = {
        "problem": "custom",
        "initial_measure": _measure(_points(rng, n, 2, -1.0, 1.0), [1.0 / n] * n, 2),
        "pvf": {"kind": "deterministic", "velocity": {"type": "identity"}, "C": 1.0},
        "T": 1.0,
        "adaptive_extent": True,
    }
    path = _write(d / "study.json", config)
    sizes = {"atoms": n, "dim": 2, "levels": list(size["study_levels"])}
    ops = [
        Op(
            f"convergence.{metric}", "convergence",
            ["convergence", "--config", str(path), "--levels", levels,
             "--metric", metric, "--out", str(d / f"convergence_{metric}.json"),
             "--no-timestamp", "--threads", "1"],
            sizes, [path], _check_convergence,
        )
        for metric in ("gw", "w1")
    ]
    big_n = size["validate_N"]
    ops.append(Op(
        "validate.diffusion1d", "validate",
        ["validate", "--preset", "diffusion1d", "--N", str(big_n),
         "--out", str(d / "validate.json"), "--no-timestamp", "--threads", "1"],
        {"atoms": 1, "dim": 1, "N": big_n}, [], _check_validate,
    ))
    return ops


_GENERATORS = {"simulate": _simulate_ops, "distance": _distance_ops, "study": _study_ops}


def make_pass(workload: str, seed: int, pass_index: int, size: str, directory: Path) -> list[Op]:
    """Write the inputs of one pass under ``directory`` and return its ops."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed, pass_index)
    return _GENERATORS[workload](rng, SIZES[size], directory)


# -- checks ---------------------------------------------------------------------


def _check_simulate(op: Op) -> None:
    from measureflow.lattice import LatticeGrid
    from measureflow.measures import DiscreteMeasure

    config = json.loads(Path(op.argv[op.argv.index("--config") + 1]).read_text())
    summary = json.loads(Path(str(op.out) + ".summary.json").read_text())
    big_n, t_final = config["N"], config["T"]
    _require(summary["N"] == big_n, "summary N differs from the config")
    _require(summary["n_steps"] == round(big_n * t_final), "n_steps != N*T")
    masses = summary["masses"]
    _require(len(masses) == summary["n_steps"] + 1, "one mass per recorded state")
    if "source" in config:
        _require(all(b > a for a, b in zip(masses, masses[1:])),
                 "mass does not grow under a creation source")
    else:
        _require(all(m == masses[0] for m in masses), "mass changed without a source")

    dim = len(config["initial_measure"]["atoms"][0]) - 1
    states: dict[str, list] = {}
    with open(op.out, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            states.setdefault(row[0], []).append(
                (tuple(float(c) for c in row[2:2 + dim]), float(row[2 + dim]))
            )
    _require(len(states) == len(masses), "CSV state count differs from the summary")
    _require([len(s) for s in states.values()] == summary["atom_counts"],
             "CSV atom counts differ from the summary")
    reach = max(summary["support_radii"]) + 1.0
    grid = LatticeGrid(N=big_n, dim=dim, extent_radius=reach)
    for t, atoms in states.items():
        _require(grid.is_aligned(DiscreteMeasure(atoms=tuple(atoms), dim=dim)),
                 f"state at t={t} is not grid-aligned")


def _cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def lp_distance(m1, m2, balanced: bool) -> float:
    """W1 (balanced) or the flat metric W^g as a dense LP over all m*n arcs."""
    from scipy import sparse
    from scipy.optimize import linprog

    a, b = m1.weights_array(), m2.weights_array()
    cost = _cost_matrix(m1.positions_array(), m2.positions_array())
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    marginals = sparse.vstack([rows, cols]).tocsr()
    bounds = np.concatenate([a, b])
    if balanced:
        res = linprog(cost.ravel(), A_eq=marginals, b_eq=bounds, bounds=(0, None),
                      method="highs", options=_HIGHS_OPTIONS)
        offset = 0.0
    else:
        res = linprog(cost.ravel() - 2.0, A_ub=marginals, b_ub=bounds, bounds=(0, None),
                      method="highs", options=_HIGHS_OPTIONS)
        offset = a.sum() + b.sum()
    if res.status != 0:
        raise CheckFailed(f"oracle LP failed: {res.message}")
    return float(res.fun) + offset


def _close(value: float, reference: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rel * max(1.0, abs(reference))


def _check_plan(payload: dict, m1, m2, balanced: bool) -> None:
    a, b = m1.weights_array(), m2.weights_array()
    rows, cols = np.zeros(len(a)), np.zeros(len(b))
    cost = []
    x, y = m1.positions_array(), m2.positions_array()
    for i, j, f in payload["plan"]:
        _require(f >= 0.0, "negative plan flow")
        rows[int(i)] += f
        cols[int(j)] += f
        cost.append(f * math.dist(x[int(i)], y[int(j)]))
    tol = PLAN_TOL * max(1.0, a.sum(), b.sum())
    if balanced:
        _require(np.all(np.abs(rows - a) <= tol) and np.all(np.abs(cols - b) <= tol),
                 "plan marginals differ from the weights")
        removed = 0.0
    else:
        _require(np.all(rows <= a + tol) and np.all(cols <= b + tol),
                 "plan marginals exceed the weights")
        removed = a.sum() + b.sum() - 2.0 * rows.sum()
        _require(_close(payload["removed1"] + payload["removed2"], removed, PLAN_TOL),
                 "reported removed mass differs from the plan")
    _require(_close(payload["distance"], math.fsum(cost) + removed, PLAN_TOL),
             "distance differs from plan cost plus removed mass")


def _check_distance(op: Op) -> None:
    from measureflow.measures import DiscreteMeasure, LiftedMeasure
    from measureflow.wasserstein import wasserstein1_1d

    payload = json.loads(op.out.read_text())
    metric = payload["metric"]
    value = payload["distance"]
    _require(math.isfinite(value) and value >= 0.0, f"distance {value} not finite and >= 0")
    pa, pb = op.inputs
    if metric in ("w1", "gw"):
        m1 = DiscreteMeasure.from_dict(json.loads(pa.read_text()))
        m2 = DiscreteMeasure.from_dict(json.loads(pb.read_text()))
        if metric == "w1" and m1.dim == 1:
            _require(_close(value, wasserstein1_1d(m1, m2), REL_TOL_1D),
                     "1D W1 differs from the CDF integral")
            return
        balanced = metric == "w1"
        _check_plan(payload, m1, m2, balanced)
        _require(_close(value, lp_distance(m1, m2, balanced), REL_TOL_LP),
                 f"{metric} differs from the dense LP")
        return
    # fiber chain inequality: joint distance <= fiber cost + base distance
    v1 = LiftedMeasure.from_dict(json.loads(pa.read_text()))
    v2 = LiftedMeasure.from_dict(json.loads(pb.read_text()))
    balanced = metric == "fiber-w"
    joint = lp_distance(v1.as_joint(), v2.as_joint(), balanced)
    base = lp_distance(v1.base_projection(), v2.base_projection(), balanced)
    bound = value + base
    _require(joint <= bound + REL_TOL_LP * (1.0 + abs(bound)),
             f"chain inequality fails: {joint} > {value} + {base}")


def _check_convergence(op: Op) -> None:
    report = json.loads(op.out.read_text())
    levels = [int(n) for n in op.argv[op.argv.index("--levels") + 1].split(",")]
    _require(report["levels"] == levels and not report["excluded_levels"],
             "convergence report does not use every level")
    distances = [row[2] for row in report["pair_distances"]]
    _require(len(distances) == len(levels) - 1, "one distance per consecutive level pair")
    _require(all(math.isfinite(dist) and dist >= 0.0 for dist in distances),
             "convergence distances not finite")


def _check_validate(op: Op) -> None:
    report = json.loads(op.out.read_text())
    _require(report.get("passed") is True, "validate did not pass")
