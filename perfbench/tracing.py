"""Spans around calls into measureflow's modules, installed from outside.

The program is not changed: ``Tracer.install`` replaces each traced function
at every place it can be looked up.  ``cli``, ``analysis``, ``flat``,
``fiber`` and ``wasserstein`` each bind their own ``from .x import y`` names,
so patching only the defining module would miss most calls; every
``measureflow`` module attribute that *is* the original function is
replaced.  Methods are replaced on their class.

A span is ``[name, start, end, parent, op_id, extra]``; ``parent`` indexes
the enclosing span (-1 at top level) and ``extra`` holds counts read from the
call's arguments or result.  Spans stay in memory until the run ends.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

# (span name, module, attribute): functions replaced at every lookup site
_FUNCTIONS = [
    ("cli", "measureflow.cli", "main"),
    ("lattice.run_semigroup", "measureflow.lattice", "run_semigroup"),
    ("simplex.solve_transport", "measureflow._simplex", "solve_transport"),
    ("wasserstein.wasserstein1", "measureflow.wasserstein", "wasserstein1"),
    ("flat.generalized_wasserstein", "measureflow.flat", "generalized_wasserstein"),
    ("fiber.fiber_w", "measureflow.fiber", "fiber_w"),
    ("fiber.fiber_wg", "measureflow.fiber", "fiber_wg"),
    ("fiber.highs", "measureflow.fiber", "linprog"),
    ("analysis.convergence_study", "measureflow.analysis", "convergence_study"),
    ("analysis.semigroup_probe", "measureflow.analysis", "semigroup_probe"),
    ("analysis.weak_residual", "measureflow.analysis", "weak_residual"),
]
# (span name, module, class, method)
_METHODS = [
    ("measures.from_atoms", "measureflow.measures", "DiscreteMeasure", "from_atoms"),
    ("fields.pvf_evaluate", "measureflow.fields", "PvfSpec", "evaluate"),
    ("fields.source_evaluate", "measureflow.fields", "SourceSpec", "evaluate"),
]


def _trajectory_extra(args, kwargs, traj):
    counts = [len(state) for state in traj.states]
    return sum(counts), max(counts)


def _transport_extra(args, kwargs, result):
    rows, cols = args[2].shape
    return rows * cols


def _matrix_bytes(matrix) -> int:
    if matrix is None:
        return 0
    if hasattr(matrix, "nnz"):  # scipy.sparse
        return sum(getattr(matrix, part).nbytes for part in ("data", "indices", "indptr"))
    return getattr(matrix, "nbytes", 0)


def _highs_extra(args, kwargs, res):
    # bytes computed from the matrices passed in, not measured
    nbytes = _matrix_bytes(kwargs.get("A_ub")) + _matrix_bytes(kwargs.get("A_eq"))
    return int(res.nit), nbytes


_EXTRAS = {
    "lattice.run_semigroup": _trajectory_extra,
    "simplex.solve_transport": _transport_extra,
    "fiber.highs": _highs_extra,
    "measures.from_atoms": lambda args, kwargs, measure: len(measure.atoms),
}


class Tracer:
    """Records spans while installed; ``op_id`` tags spans with the op running."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRAS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "measureflow" or name.startswith("measureflow.")]
        for name, module, attr in _FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)
        for name, module, cls_name, attr in _METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._replace(cls, attr, self._wrap(name, raw))
        # the per-atom velocity callback is built by the CLI from the config
        cli = sys.modules["measureflow.cli"]
        build = cli._build_velocity

        def build_velocity(spec):
            velocity, bound = build(spec)
            return self._wrap("fields.velocity", velocity), bound

        self._replace(cli, "_build_velocity", build_velocity)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------

# metric name -> unit, as listed in BENCHMARK.json
LAYER_UNITS = {
    "lattice.run_semigroup.self_s": "s",
    "lattice.run_semigroup.calls": "count",
    "lattice.atom_steps": "count",
    "lattice.atom_steps_per_s": "1/s",
    "lattice.max_atoms": "count",
    "measures.from_atoms.s": "s",
    "measures.from_atoms.calls": "count",
    "measures.from_atoms.atoms_out": "count",
    "fields.source_evaluate.s": "s",
    "fields.source_evaluate.calls": "count",
    "fields.pvf_evaluate.s": "s",
    "fields.velocity.s": "s",
    "fields.velocity.calls": "count",
    "simplex.solve_transport.s": "s",
    "simplex.solve_transport.calls": "count",
    "simplex.solve_transport.cells": "count",
    "wasserstein.wasserstein1.self_s": "s",
    "wasserstein.wasserstein1.calls": "count",
    "flat.generalized_wasserstein.self_s": "s",
    "flat.generalized_wasserstein.calls": "count",
    "flat.fast_path_share": "ratio",
    "fiber.fiber_w.self_s": "s",
    "fiber.fiber_wg.self_s": "s",
    "fiber.highs.s": "s",
    "fiber.highs.calls": "count",
    "fiber.highs.iterations": "count",
    "fiber.highs.constraint_bytes": "B",
    "analysis.convergence_study.self_s": "s",
    "analysis.semigroup_probe.self_s": "s",
    "analysis.weak_residual.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


_SPAN_NAMES = {name for name, *_ in _FUNCTIONS + _METHODS} | {"fields.velocity"}


def _span_table(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, dict]:
    """Per span name over ``spans[lo:hi]``: calls, inclusive seconds, self
    seconds and extras."""
    hi = len(spans) if hi is None else hi
    children = [0.0] * len(spans)
    for span in spans[lo:hi]:
        if span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    table: dict[str, dict] = {}
    for index in range(lo, hi):
        name, start, end, parent, _, extra = spans[index]
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "extras": []})
        row["calls"] += 1
        row["self_s"] += (end - start) - children[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # count nested calls of the same name once
            row["s"] += end - start
        if extra is not None:
            row["extras"].append(extra)
    return table


def _pass_metrics(table: dict[str, dict]) -> dict[str, float]:
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "extras": []}
    values = {}
    for metric in LAYER_UNITS:
        span, _, kind = metric.rpartition(".")
        if span in _SPAN_NAMES and kind in empty:
            values[metric] = table.get(span, empty)[kind]

    def extras(name):
        return table.get(name, empty)["extras"]

    values["lattice.atom_steps"] = sum(e[0] for e in extras("lattice.run_semigroup"))
    values["measures.from_atoms.atoms_out"] = sum(extras("measures.from_atoms"))
    values["simplex.solve_transport.cells"] = sum(extras("simplex.solve_transport"))
    values["fiber.highs.iterations"] = sum(e[0] for e in extras("fiber.highs"))
    return values


def layer_metrics(spans: list[list], pass_ranges: list[tuple[int, int]],
                  traced_wall: list[float], plain_wall: list[float]) -> dict[str, float]:
    """Median over traced passes of each per-pass metric, plus whole-run ratios.

    ``pass_ranges`` holds the ``[lo, hi)`` span indices of each traced pass.
    ``trace.overhead_s`` is the median over passes of the traced pass time
    minus the untraced time of the same pass (same inputs)."""
    per_pass = [_pass_metrics(_span_table(spans, lo, hi)) for lo, hi in pass_ranges]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

    table = _span_table(spans)
    run = table.get("lattice.run_semigroup")
    steps = sum(e[0] for e in run["extras"]) if run else 0
    metrics["lattice.atom_steps_per_s"] = steps / run["s"] if run else 0.0
    metrics["lattice.max_atoms"] = max(e[1] for e in run["extras"]) if run else 0
    gw = [i for i, span in enumerate(spans) if span[0] == "flat.generalized_wasserstein"]
    fast = {span[3] for span in spans if span[0] == "wasserstein.wasserstein1"}
    metrics["flat.fast_path_share"] = sum(i in fast for i in gw) / len(gw) if gw else 0.0
    highs = table.get("fiber.highs")
    # the largest constraint matrix handed to HiGHS, computed from its shape/nnz
    metrics["fiber.highs.constraint_bytes"] = (
        max(e[1] for e in highs["extras"]) if highs else 0
    )
    metrics["trace.overhead_s"] = statistics.median(
        traced - plain for traced, plain in zip(traced_wall, plain_wall)
    )
    return {name: metrics[name] for name in LAYER_UNITS}
