"""Exact 1-Wasserstein distance between equal-mass atomic measures.

The LP route is the purpose-built network simplex on the bipartite atom
graph; the closed-form CDF integral in one dimension is kept strictly
separate so it can serve as an independent oracle for the LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._simplex import WarmStart, solve_transport
from .errors import DimensionMismatch, LipschitzViolation, MassMismatch
from .measures import DiscreteMeasure

MASS_TOL = 1e-9
LIP_SLACK = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between the atoms of two measures.

    ``entries`` holds ``(source_atom_index, target_atom_index, flow)`` with
    indices into the canonical atom lists of the two measures; ``cost`` is
    ``sum flow * |x_i - y_j|``.
    """

    entries: tuple[tuple[int, int, float], ...]
    cost: float

    def row_sums(self, n_sources: int) -> list[float]:
        sums = [[] for _ in range(n_sources)]
        for i, _, f in self.entries:
            sums[i].append(f)
        return [math.fsum(part) for part in sums]

    def col_sums(self, n_targets: int) -> list[float]:
        sums = [[] for _ in range(n_targets)]
        for _, j, f in self.entries:
            sums[j].append(f)
        return [math.fsum(part) for part in sums]

    def total_flow(self) -> float:
        return math.fsum(f for _, _, f in self.entries)

    def to_jsonable(self) -> list[list[float]]:
        return [[i, j, f] for i, j, f in self.entries]


def _cancel_common_atoms(m1: DiscreteMeasure, m2: DiscreteMeasure):
    """Remove shared mass at identical positions (free diagonal transport).

    Returns residual atom lists ``[(orig_index, pos, weight)]`` for both
    sides plus the diagonal plan entries.  Cancelling never changes the W1
    optimum for p = 1.
    """
    w2 = {pos: (j, w) for j, (pos, w) in enumerate(m2.atoms)}
    residual1, diagonal = [], []
    consumed: dict[int, float] = {}
    for i, (pos, w) in enumerate(m1.atoms):
        if pos in w2:
            j, wj = w2[pos]
            shared = min(w, wj)
            if shared > 0:
                diagonal.append((i, j, shared))
                consumed[j] = shared
                w -= shared
        if w > 1e-15:
            residual1.append((i, pos, w))
    residual2 = []
    for j, (pos, w) in enumerate(m2.atoms):
        w -= consumed.get(j, 0.0)
        if w > 1e-15:
            residual2.append((j, pos, w))
    return residual1, residual2, diagonal


def wasserstein1(
    m1: DiscreteMeasure, m2: DiscreteMeasure, warm: WarmStart | None = None
) -> tuple[float, TransportPlan]:
    """Optimal total transport cost min sum pi_ij |x_i - y_j| and a plan.

    Unnormalized convention: the value scales linearly with mass.  Raises
    MassMismatch when masses differ beyond tolerance (no silent
    renormalization).  ``warm`` is passed to the transport solve (see
    ``_simplex.WarmStart``).
    """
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
    mass1, mass2 = m1.mass(), m2.mass()
    if abs(mass1 - mass2) > MASS_TOL * max(1.0, mass1, mass2):
        raise MassMismatch(f"masses differ: {mass1} vs {mass2}")
    if m1.is_empty and m2.is_empty:
        return 0.0, TransportPlan(entries=(), cost=0.0)

    residual1, residual2, diagonal = _cancel_common_atoms(m1, m2)
    entries = list(diagonal)
    if residual1 and residual2:
        supplies = np.array([w for _, _, w in residual1])
        demands = np.array([w for _, _, w in residual2])
        x = np.array([pos for _, pos, _ in residual1])
        y = np.array([pos for _, pos, _ in residual2])
        diff = x[:, None, :] - y[None, :, :]
        cost = np.sqrt(np.sum(diff * diff, axis=2))
        _, flows = solve_transport(supplies, demands, cost, warm=warm)
        for (a, b), f in sorted(flows.items()):
            entries.append((residual1[a][0], residual2[b][0], f))
    pos1 = {i: pos for i, (pos, _) in enumerate(m1.atoms)}
    pos2 = {j: pos for j, (pos, _) in enumerate(m2.atoms)}
    cost_total = math.fsum(
        f * math.dist(pos1[i], pos2[j]) for i, j, f in entries
    )
    return cost_total, TransportPlan(entries=tuple(entries), cost=cost_total)


def wasserstein1_1d(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Closed-form W1 in one dimension: integral of |F_1 - F_2| over R.

    Exact over the finite breakpoint set; used as the independent oracle
    for the LP route.
    """
    if m1.dim != 1 or m2.dim != 1:
        raise DimensionMismatch("wasserstein1_1d requires dim 1")
    mass1, mass2 = m1.mass(), m2.mass()
    if abs(mass1 - mass2) > MASS_TOL * max(1.0, mass1, mass2):
        raise MassMismatch(f"masses differ: {mass1} vs {mass2}")
    jumps: dict[float, list[float]] = {}
    for (p,), w in m1.atoms:
        jumps.setdefault(p, []).append(w)
    for (p,), w in m2.atoms:
        jumps.setdefault(p, []).append(-w)
    points = sorted(jumps)
    pieces = []
    level_terms: list[float] = []
    for left, right in zip(points[:-1], points[1:]):
        level_terms.extend(jumps[left])
        level = math.fsum(level_terms)
        pieces.append(abs(level) * (right - left))
    return math.fsum(pieces)


def wasserstein1_1d_uniform(m: DiscreteMeasure, lo: float, hi: float) -> float:
    """W1 between a dim-1 atomic measure and the uniform measure of the same
    total mass on [lo, hi], via the exact piecewise CDF integral."""
    if m.dim != 1:
        raise DimensionMismatch("requires dim 1")
    if hi <= lo:
        raise ValueError("empty interval")
    total = m.mass()
    density = total / (hi - lo)

    def f_uniform(x: float) -> float:
        if x <= lo:
            return 0.0
        if x >= hi:
            return total
        return density * (x - lo)

    breakpoints = sorted({lo, hi, *(p for (p,), _ in m.atoms)})
    # extend to cover all atoms outside [lo, hi]
    pieces = []
    for left, right in zip(breakpoints[:-1], breakpoints[1:]):
        fm = m.cdf(left)  # constant on [left, right)
        ua, ub = f_uniform(left), f_uniform(right)
        da, db = fm - ua, fm - ub
        if da * db >= 0:
            pieces.append(0.5 * (abs(da) + abs(db)) * (right - left))
        else:
            # linear difference crosses zero inside the segment
            cross = right - left
            cross *= abs(da) / (abs(da) + abs(db))
            pieces.append(0.5 * abs(da) * cross + 0.5 * abs(db) * (right - left - cross))
    return math.fsum(pieces)


def lipschitz_values(
    f: Callable[[np.ndarray], float],
    points: np.ndarray,
    lip_bound: float | None = None,
    sup_bound: float | None = None,
) -> tuple[np.ndarray, float]:
    """f at every row of ``points`` (one call each) and its largest quotient
    |f(a) - f(b)| / |a - b| over the pairs farther apart than 1e-15 (0.0 for
    none), from one pairwise-distance matrix (O(n^2) memory).

    Raises LipschitzViolation if some |f(a)| > sup_bound (1 + LIP_SLACK) +
    1e-12 or |f(a) - f(b)| > lip_bound |a - b| (1 + LIP_SLACK) + 1e-12.
    """
    values = np.array([float(f(p)) for p in points], dtype=float)
    if sup_bound is not None and (np.abs(values) > sup_bound * (1 + LIP_SLACK) + 1e-12).any():
        raise LipschitzViolation(f"sup |f| = {np.abs(values).max()} exceeds bound {sup_bound}")
    dist = np.sqrt(sum((c[:, None] - c[None, :]) ** 2 for c in points.T))
    gaps = np.abs(values[:, None] - values[None, :])
    far = dist > 1e-15
    lip = float((gaps[far] / dist[far]).max()) if far.any() else 0.0
    if lip_bound is not None and (gaps > lip_bound * dist * (1 + LIP_SLACK) + 1e-12).any():
        raise LipschitzViolation(f"Lipschitz bound {lip_bound} violated: quotient {lip}")
    return values, lip


def dual_lower_bound(
    m1: DiscreteMeasure, m2: DiscreteMeasure, f: Callable[[np.ndarray], float]
) -> float:
    """Kantorovich-Rubinstein dual value: integral of f d(m1 - m2).

    ``f`` must be 1-Lipschitz (checked on the union of supports); the
    returned value never exceeds wasserstein1(m1, m2) up to tolerance.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
    points = np.concatenate([m1.positions_array(), m2.positions_array()])
    values, _ = lipschitz_values(f, points, lip_bound=1.0)
    return signed_integral(values, m1, m2)


def signed_integral(values: np.ndarray, m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Integral of f d(m1 - m2) from f's values on the atoms of m1, then m2."""
    return math.fsum(values * np.concatenate([m1.weights_array(), -m2.weights_array()]))
